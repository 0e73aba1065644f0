#pragma once

// The byte-identical contracts every test and bench checks against: the
// golden-file checker, the partition equality and signature, and the
// partitioner solve grid. They return values instead of using gtest macros,
// so bench/partitioner_speed links them as well as the tests.

#include <functional>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "partition/partitioner.h"

namespace hetpipe::oracles {

// The data lines of a golden file in order: every line that is neither empty
// nor a `#` comment. The text goldens hold `key \t value` lines, the JSONL
// goldens one row per line.
using GoldenLines = std::vector<std::string>;

// Compares a golden line with the line computed now: "" when they match,
// else what differs.
using GoldenLineCompare =
    std::function<std::string(const std::string& want, const std::string& got)>;

// Compares `lines` with the data lines of tests/golden/`name`, byte for byte
// unless `compare` is given, and returns "" on a match, else a report of the
// differing lines. With UPDATE_GOLDEN set in the environment it rewrites the
// file instead: each line of `header` as a `#` comment (none when empty),
// then `lines`.
std::string CheckGolden(const std::string& name, const std::string& header,
                        const GoldenLines& lines, const GoldenLineCompare& compare = {});

// "" when every Partition and StageAssignment field of `a` and `b` is equal
// (doubles bit for bit), else the first field that differs.
std::string PartitionDiff(const partition::Partition& a, const partition::Partition& b);
inline bool SamePartition(const partition::Partition& a, const partition::Partition& b) {
  return PartitionDiff(a, b).empty();
}

// A solve as one line: "infeasible", or `b=<bottleneck> s=<sum>` (%.17g,
// which round-trips) and each stage's ` <gpu_id>:<first>-<last>@<code>`.
// With a profile, a feasible signature ends in ` | ` and Partition::ToString.
std::string PartitionSignature(const partition::Partition& p,
                               const model::ModelProfile* profile = nullptr);

// ---- The partitioner solve grid: 3 models x 9 virtual workers (6 on the
// ---- paper testbed, 3 on the mixed demo cluster) x Nm 1, 2, 4, each an
// ---- exact-tier solve at batch kSolveGridBatch. bench/partitioner_speed
// ---- times these 81 points against SolveReference; partition_test pins
// ---- their answers in tests/golden/partitioner_solves.txt.

inline constexpr int kSolveGridBatch = 32;

struct SolveGridPoint {
  std::string model;    // core::ParseModelKind name
  std::string cluster;  // SolveGridCluster label
  std::string vw;       // core::PickGpus selector
  int nm = 1;

  // The golden key: model|cluster|vw|nm<nm>.
  std::string Key() const;
};

std::vector<SolveGridPoint> SolveGrid();

// The grid's clusters: "paper" is the paper testbed, "mixed-3node" the
// canonical runner::MixedDemoSpec (a mixed-class node, a whimpy node and a
// paper V node). Throws std::invalid_argument for any other label.
hw::Cluster SolveGridCluster(const std::string& label);

}  // namespace hetpipe::oracles
