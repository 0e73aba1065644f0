#include "oracles/golden.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "hw/gpu_spec.h"
#include "runner/spec_sweep.h"

#ifndef HETPIPE_GOLDEN_DIR
#error "the oracles need HETPIPE_GOLDEN_DIR (set by CMakeLists.txt)"
#endif

namespace hetpipe::oracles {
namespace {

// Mismatching lines listed in one report; the rest are only counted.
constexpr int kMaxReported = 10;

std::string ExactCompare(const std::string& want, const std::string& got) {
  return want == got ? "" : "want: " + want + "\n  got:  " + got;
}

}  // namespace

std::string CheckGolden(const std::string& name, const std::string& header,
                        const GoldenLines& lines, const GoldenLineCompare& compare) {
  const std::string path = std::string(HETPIPE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    std::istringstream comments(header);
    for (std::string comment; std::getline(comments, comment);) {
      out << "# " << comment << '\n';
    }
    for (const std::string& line : lines) {
      out << line << '\n';
    }
    if (!out.good()) {
      return "cannot write " + path;
    }
    std::printf("updated %s\n", path.c_str());
    return "";
  }

  std::ifstream in(path);
  if (!in.is_open()) {
    return "missing golden " + path + " (UPDATE_GOLDEN=1 creates it)";
  }
  GoldenLines want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      want.push_back(line);
    }
  }
  std::string report;
  if (want.size() != lines.size()) {
    report += path + ": " + std::to_string(want.size()) + " golden lines, " +
              std::to_string(lines.size()) + " computed\n";
  }
  int differing = 0;
  for (size_t i = 0; i < want.size() && i < lines.size(); ++i) {
    const std::string diff =
        compare ? compare(want[i], lines[i]) : ExactCompare(want[i], lines[i]);
    if (!diff.empty() && ++differing <= kMaxReported) {
      report += path + " line " + std::to_string(i + 1) + " of data:\n  " + diff + "\n";
    }
  }
  if (differing > kMaxReported) {
    report += "... " + std::to_string(differing - kMaxReported) + " more differing lines\n";
  }
  return report;
}

std::string PartitionDiff(const partition::Partition& a, const partition::Partition& b) {
  std::ostringstream diff;
  diff.precision(17);
  const auto field = [&](const std::string& name, const auto& x, const auto& y) {
    if (diff.tellp() == 0 && x != y) {
      diff << name << ": " << x << " vs " << y;
    }
  };
  field("feasible", a.feasible, b.feasible);
  field("bottleneck_time", a.bottleneck_time, b.bottleneck_time);
  field("sum_time", a.sum_time, b.sum_time);
  field("stages", a.stages.size(), b.stages.size());
  for (size_t q = 0; q < a.stages.size() && q < b.stages.size(); ++q) {
    const partition::StageAssignment& x = a.stages[q];
    const partition::StageAssignment& y = b.stages[q];
    const std::string stage = "stage " + std::to_string(q) + " ";
    field(stage + "first_layer", x.first_layer, y.first_layer);
    field(stage + "last_layer", x.last_layer, y.last_layer);
    field(stage + "gpu_id", x.gpu_id, y.gpu_id);
    // By name: the class identity that holds across clusters (two clusters
    // built from one spec own distinct, equal classes).
    field(stage + "gpu_type", std::string(hw::SpecOf(x.gpu_type).name),
          std::string(hw::SpecOf(y.gpu_type).name));
    field(stage + "node", x.node, y.node);
    field(stage + "fwd_compute_s", x.fwd_compute_s, y.fwd_compute_s);
    field(stage + "bwd_compute_s", x.bwd_compute_s, y.bwd_compute_s);
    field(stage + "fwd_comm_in_s", x.fwd_comm_in_s, y.fwd_comm_in_s);
    field(stage + "bwd_comm_in_s", x.bwd_comm_in_s, y.bwd_comm_in_s);
    field(stage + "param_bytes", x.param_bytes, y.param_bytes);
    field(stage + "memory_bytes", x.memory_bytes, y.memory_bytes);
    field(stage + "memory_cap", x.memory_cap, y.memory_cap);
  }
  return diff.str();
}

std::string PartitionSignature(const partition::Partition& p,
                               const model::ModelProfile* profile) {
  if (!p.feasible) {
    return "infeasible";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "b=%.17g s=%.17g", p.bottleneck_time, p.sum_time);
  std::string sig = buf;
  for (const partition::StageAssignment& stage : p.stages) {
    std::snprintf(buf, sizeof(buf), " %d:%d-%d@%c", stage.gpu_id, stage.first_layer,
                  stage.last_layer, hw::CodeOf(stage.gpu_type));
    sig += buf;
  }
  return profile == nullptr ? sig : sig + " | " + p.ToString(*profile);
}

std::string SolveGridPoint::Key() const {
  return model + "|" + cluster + "|" + vw + "|nm" + std::to_string(nm);
}

std::vector<SolveGridPoint> SolveGrid() {
  const std::pair<const char*, std::vector<const char*>> cluster_vws[] = {
      {"paper", {"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ"}},
      {"mixed-3node", {"BigCard*2,SmallCard*2", "SmallCard*4", "BigCard*1,SmallCard*1,V*2"}},
  };
  std::vector<SolveGridPoint> grid;
  for (const char* model : {"resnet152", "vgg19", "bert-large"}) {
    for (const auto& [cluster, vws] : cluster_vws) {
      for (const char* vw : vws) {
        for (int nm : {1, 2, 4}) {
          grid.push_back(SolveGridPoint{model, cluster, vw, nm});
        }
      }
    }
  }
  return grid;
}

hw::Cluster SolveGridCluster(const std::string& label) {
  if (label == "paper") {
    return hw::Cluster::Paper();
  }
  if (label == "mixed-3node") {
    return runner::MixedDemoSpec(label).Build();
  }
  throw std::invalid_argument("no solve-grid cluster \"" + label + "\"");
}

}  // namespace hetpipe::oracles
