// Event vocabulary of the discrete-event engine's semi_async and async
// policies (DESIGN.md §12; the sync policy runs fl::Engine's barrier loop).
//
// Simulated time is the execution order: every state mutation of an
// event-driven run happens inside the handler of one of these events, and
// the deterministic queue (event_queue.h) fixes the handler order as a pure
// function of the seeds. `time` is modeled seconds; `seq` is the queue's
// push-order stamp that breaks time ties, so two events at the same instant
// always replay in the order they were scheduled.
#pragma once

#include <cstdint>

#include "src/common/types.h"

namespace hfl::evt {

enum class EventType : std::uint8_t {
  // A worker finishes one interval of local compute: the τ local steps
  // execute lazily inside this handler on exactly the model the worker last
  // downloaded, the upload is snapshotted here and travels as a separate
  // kWorkerUpload event so the next interval's compute overlaps the
  // transfer.
  kWorkerReady,
  // A worker's in-flight upload (snapshotted at its kWorkerReady) lands at
  // its aggregator — the edge in three-tier runs, the cloud in two-tier
  // runs. entity = worker id, round = the worker interval that produced it.
  kWorkerUpload,
  // A refreshed model (stamped with the aggregator version that produced
  // it) lands at a worker. entity = worker id, round = the engine's index
  // of the in-flight message payload. Applied at the worker's next interval
  // boundary; an older message never overwrites a newer one, so each
  // worker's download_version is monotone.
  kWorkerDownload,
  // A semi-async admission deadline expiring at one edge.
  kEdgeSync,
  // A cloud aggregation point: an edge's update arriving at the cloud
  // (three-tier; entity = edge id, round = the cloud version of the edge's
  // last cloud contact), or a two-tier admission deadline.
  kCloudSync,
  // An availability transition (worker or edge going up/down) becoming
  // visible to the engine. Bookkeeping: rosters are resolved against the
  // fault schedule at dispatch points, this event records the flip in the
  // trace and the obs counters.
  kFault,
};

const char* to_string(EventType type);

struct Event {
  Scalar time = 0;        // modeled seconds
  std::uint64_t seq = 0;  // queue-assigned push order; breaks time ties
  EventType type = EventType::kWorkerReady;
  std::size_t entity = 0;  // worker id / edge id (type-dependent)
  std::size_t round = 0;   // interval, payload index or version (see above)
  bool flag = false;   // kWorkerReady: worker absent; kFault: entity came up
  bool is_edge = false;  // kFault: entity is an edge node
};

}  // namespace hfl::evt
