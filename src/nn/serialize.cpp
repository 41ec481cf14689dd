#include "src/nn/serialize.h"

#include <cstring>
#include <fstream>

namespace hfl::nn {

namespace {
constexpr char kMagic[8] = {'H', 'F', 'L', 'C', 'K', 'P', 'T', '1'};
}  // namespace

void save_params(const Vec& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HFL_CHECK(out.good(), "cannot open checkpoint for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t n = params.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(n * sizeof(Scalar)));
  HFL_CHECK(out.good(), "checkpoint write failed: " + path);
}

Vec load_params(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HFL_CHECK(in.good(), "cannot open checkpoint: " + path);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  HFL_CHECK(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
            "not a HierAdMo checkpoint: " + path);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  HFL_CHECK(in.good(), "truncated checkpoint header: " + path);
  // Check the header's count against the bytes the file holds before
  // allocating for it (divided, so no product can overflow).
  const std::streampos payload = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - payload;
  in.seekg(payload);
  HFL_CHECK(in.good() && left >= 0 &&
                n <= static_cast<std::uint64_t>(left) / sizeof(Scalar),
            "truncated checkpoint payload: " + path);
  Vec params(n);
  in.read(reinterpret_cast<char*>(params.data()),
          static_cast<std::streamsize>(n * sizeof(Scalar)));
  HFL_CHECK(in.good(), "truncated checkpoint payload: " + path);
  return params;
}

void save_model(const Model& model, const std::string& path) {
  save_params(model.get_params(), path);
}

void load_model(Model& model, const std::string& path) {
  const Vec params = load_params(path);
  HFL_CHECK(params.size() == model.num_params(),
            "checkpoint size does not match model: " + path);
  model.set_params(params);
}

}  // namespace hfl::nn
