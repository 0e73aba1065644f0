#include "hw/gpu_spec.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace hetpipe::hw {

// Table 1 of the paper. The effective TFLOP/s column is the Fig. 3
// calibration also used by model/profiler.cc — it doubles as the compute-
// power ordering of §8.1 (V > R > G > Q).
const GpuSpec kTable1Specs[kNumGpuTypes] = {
    {"TITAN V", 'V', 0, 5120, 1455, 12.0, 653.0, 6.60},
    {"TITAN RTX", 'R', 1, 4608, 1770, 24.0, 672.0, 5.98},
    {"GeForce RTX 2060", 'G', 2, 1920, 1680, 6.0, 336.0, 3.99},
    {"Quadro P4000", 'Q', 3, 1792, 1480, 8.0, 243.0, 2.95},
};

GpuType GpuClassTable::Add(const std::string& name, double effective_tflops,
                           double memory_gib, char code) {
  const auto taken = [&](char c) {
    const auto has = [c](const GpuSpec& spec) { return spec.code == c; };
    return std::any_of(std::begin(kTable1Specs), std::end(kTable1Specs), has) ||
           std::any_of(specs_.begin(), specs_.end(), has);
  };
  if (code == '\0' || taken(code)) {
    code = '?';  // a-z0-9 all taken (more than 36 classes): select such a class by name
    for (const char* pool = "abcdefghijklmnopqrstuvwxyz0123456789"; *pool != '\0'; ++pool) {
      if (!taken(*pool)) {
        code = *pool;
        break;
      }
    }
  }
  names_.push_back(name);
  GpuSpec spec{};
  spec.name = names_.back().c_str();
  spec.code = code;
  spec.order = kNumGpuTypes + static_cast<int>(specs_.size());
  spec.memory_gib = memory_gib;
  spec.effective_tflops = effective_tflops;
  specs_.push_back(spec);
  return GpuType(&specs_.back());
}

GpuType TypeFromCode(char code) {
  for (const GpuSpec& spec : kTable1Specs) {
    if (spec.code == code) {
      return GpuType(&spec);
    }
  }
  throw std::invalid_argument(std::string("unknown GPU code: ") + code);
}

std::vector<GpuType> ParseGpuCodes(std::string_view codes) {
  std::vector<GpuType> types;
  types.reserve(codes.size());
  for (char c : codes) {
    types.push_back(TypeFromCode(c));
  }
  return types;
}

std::string GpuCodes(const std::vector<GpuType>& types) {
  std::string out;
  out.reserve(types.size());
  for (GpuType t : types) {
    out.push_back(CodeOf(t));
  }
  return out;
}

}  // namespace hetpipe::hw
