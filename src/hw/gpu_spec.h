#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace hetpipe::hw {

// Number of built-in (Table 1) GPU classes.
inline constexpr int kNumGpuTypes = 4;

// Hardware description of a GPU class. Built-in entries come straight from
// Table 1; declared entries (GpuClassTable) carry zeros for the fields a
// declarative spec does not name (cores, clocks, memory bandwidth).
struct GpuSpec {
  const char* name;  // Table 1: a literal; declared: owned by its GpuClassTable
  char code;  // single-letter code used throughout the paper: V R G Q
  // Position in the class order of a cluster: 0-3 for the Table 1 classes
  // (V R G Q), then the classes the cluster declares in the order of their
  // first use in its node list. Tie-breaks that need an order among classes
  // read this, so they depend only on the cluster, never on the process.
  int order;
  int cuda_cores;
  int boost_clock_mhz;
  double memory_gib;      // device memory capacity
  double memory_bw_gbps;  // device memory bandwidth
  // Sustained TFLOP/s on ResNet-class kernels. For the built-in types this is
  // the Fig. 3 calibration (see model/profiler.cc); for declared types it is
  // the declared throughput, and the one number the cost model runs on.
  double effective_tflops;
};

// The paper's testbed classes (Table 1), in class order.
extern const GpuSpec kTable1Specs[kNumGpuTypes];

// A GPU class: a small value that points at an immutable GpuSpec. The four
// Table 1 classes are static and always valid. A declared class belongs to
// the cluster whose spec declares it (hw::ClusterSpec::Build): its GpuType
// is valid while that cluster, or a copy of it, lives (the same rule
// partition::Partitioner has for its cluster). Two clusters built from one
// spec text own distinct specs, so their declared GpuTypes compare unequal;
// across clusters a class is identified by its name and numbers, which is
// what the partition cache records.
class GpuType {
 public:
  // TITAN V, the first Table 1 class (the default of Gpu and StageAssignment).
  constexpr GpuType() : spec_(&kTable1Specs[0]) {}
  explicit constexpr GpuType(const GpuSpec* spec) : spec_(spec) {}

  static const GpuType kTitanV;       // code 'V' — Volta,  5120 cores, 12 GB
  static const GpuType kTitanRtx;     // code 'R' — Turing, 4608 cores, 24 GB
  static const GpuType kRtx2060;      // code 'G' — Turing, 1920 cores,  6 GB (the "whimpy" one)
  static const GpuType kQuadroP4000;  // code 'Q' — Pascal, 1792 cores,  8 GB

  const GpuSpec& spec() const { return *spec_; }
  // True for the four Table 1 classes.
  bool builtin() const { return spec_->order < kNumGpuTypes; }

  friend constexpr bool operator==(GpuType a, GpuType b) { return a.spec_ == b.spec_; }
  friend constexpr bool operator!=(GpuType a, GpuType b) { return a.spec_ != b.spec_; }

 private:
  const GpuSpec* spec_;
};

inline constexpr GpuType GpuType::kTitanV{&kTable1Specs[0]};
inline constexpr GpuType GpuType::kTitanRtx{&kTable1Specs[1]};
inline constexpr GpuType GpuType::kRtx2060{&kTable1Specs[2]};
inline constexpr GpuType GpuType::kQuadroP4000{&kTable1Specs[3]};

inline const GpuSpec& SpecOf(GpuType type) { return type.spec(); }
inline char CodeOf(GpuType type) { return type.spec().code; }
// Device memory capacity in bytes.
inline uint64_t MemoryBytes(GpuType type) {
  return static_cast<uint64_t>(type.spec().memory_gib * (1ULL << 30));
}

// The classes one cluster declares beyond Table 1, in declaration order.
// Adding a class never moves an earlier one, so the GpuTypes Add returns stay
// valid while the table lives; hw::Cluster shares it among its copies.
class GpuClassTable {
 public:
  GpuClassTable() = default;
  // A copy's specs would name the original's strings.
  GpuClassTable(const GpuClassTable&) = delete;
  GpuClassTable& operator=(const GpuClassTable&) = delete;

  // Adds a class and returns its type, ordered after every earlier one. The
  // inputs are trusted (hw::ClusterSpec::Validate checks them). `code` is
  // kept unless an earlier class of this table has it or it is one of
  // V/R/G/Q; otherwise, and for '\0', the class gets the first free letter
  // of a-z0-9.
  GpuType Add(const std::string& name, double effective_tflops, double memory_gib, char code);

 private:
  std::deque<std::string> names_;
  std::deque<GpuSpec> specs_;
};

// Parses a Table 1 code letter ('V', 'R', 'G' or 'Q'); throws
// std::invalid_argument otherwise. Declared classes' codes are per cluster
// (see core::PickGpus).
GpuType TypeFromCode(char code);

// Parses a configuration string such as "VVQQ" into GPU types.
std::vector<GpuType> ParseGpuCodes(std::string_view codes);
// Inverse of ParseGpuCodes.
std::string GpuCodes(const std::vector<GpuType>& types);

}  // namespace hetpipe::hw
