#include "src/evt/event_queue.h"

#include <algorithm>
#include <string>

#include "src/common/errors.h"
#include "src/obs/registry.h"

namespace hfl::evt {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kWorkerReady:
      return "worker_ready";
    case EventType::kWorkerUpload:
      return "worker_upload";
    case EventType::kWorkerDownload:
      return "worker_download";
    case EventType::kEdgeSync:
      return "edge_sync";
    case EventType::kCloudSync:
      return "cloud_sync";
    case EventType::kFault:
      return "fault";
  }
  return "unknown";
}

namespace {

// std::*_heap comparator: a sorts AFTER b (lower priority) when its
// (time, seq) key is larger.
bool later(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

}  // namespace

EventQueue::EventQueue() {
  if (obs::enabled()) {
    depth_gauge_ = &obs::Registry::global().gauge("evt.queue.depth_max");
  }
}

void EventQueue::push(Event e) {
  HFL_CHECK(e.time >= now_,
            "event scheduled in the past (time " + std::to_string(e.time) +
                " < now " + std::to_string(now_) + ")");
  e.seq = next_seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), later);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set_max(static_cast<double>(heap_.size()));
  }
}

Event EventQueue::pop() {
  HFL_CHECK(!heap_.empty(), "pop from an empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Event e = heap_.back();
  heap_.pop_back();
  now_ = e.time;
  return e;
}

}  // namespace hfl::evt
