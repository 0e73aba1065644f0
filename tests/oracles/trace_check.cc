#include "oracles/trace_check.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace hetpipe::oracles {

using pipeline::Task;
using pipeline::TaskKind;

std::optional<Task> ParseTaskEvent(const std::string& name) {
  Task task;
  long long minibatch = 0;
  int partition = 0;
  if (std::sscanf(name.c_str(), "FW(M%lld,P%d)", &minibatch, &partition) == 2) {
    task.kind = TaskKind::kForward;
  } else if (std::sscanf(name.c_str(), "BW(M%lld,P%d)", &minibatch, &partition) == 2) {
    task.kind = TaskKind::kBackward;
  } else if (std::sscanf(name.c_str(), "FWBW(M%lld,P%d)", &minibatch, &partition) == 2) {
    task.kind = TaskKind::kForwardBackward;
  } else {
    return std::nullopt;
  }
  task.minibatch = minibatch;
  task.stage = partition - 1;
  return task;
}

namespace {

struct Execution {
  Task task;
  sim::SimTime start;
  sim::SimTime end;
};

}  // namespace

TraceCheckResult ValidatePipelineTrace(const std::vector<sim::TraceEvent>& events,
                                       int num_stages, int nm) {
  TraceCheckResult result;

  std::vector<Execution> execs;
  for (const sim::TraceEvent& e : events) {
    if (const auto task = ParseTaskEvent(e.name)) {
      execs.push_back({*task, e.start, e.end});
    }
  }
  std::sort(execs.begin(), execs.end(),
            [](const Execution& a, const Execution& b) { return a.start < b.start; });

  // Per-stage ordering and overlap (conditions 1-3).
  std::vector<int64_t> last_fw(static_cast<size_t>(num_stages), 0);
  std::vector<int64_t> last_bw(static_cast<size_t>(num_stages), 0);
  std::vector<sim::SimTime> stage_free(static_cast<size_t>(num_stages), 0.0);
  for (const Execution& e : execs) {
    const auto q = static_cast<size_t>(e.task.stage);
    if (e.start < stage_free[q] - 1e-12) {
      result.Fail("overlap at stage " + std::to_string(e.task.stage) + ": " +
                  ToString(e.task));
    }
    stage_free[q] = std::max(stage_free[q], e.end);
    const bool is_fw = e.task.kind != TaskKind::kBackward;
    const bool is_bw = e.task.kind != TaskKind::kForward;
    if (is_fw) {
      if (e.task.minibatch != last_fw[q] + 1) {
        result.Fail("forward order violated at stage " + std::to_string(e.task.stage) + ": " +
                    ToString(e.task) + " after M" + std::to_string(last_fw[q]));
      }
      last_fw[q] = e.task.minibatch;
    }
    if (is_bw) {
      if (e.task.minibatch != last_bw[q] + 1) {
        result.Fail("backward order violated at stage " + std::to_string(e.task.stage) + ": " +
                    ToString(e.task) + " after M" + std::to_string(last_bw[q]));
      }
      last_bw[q] = e.task.minibatch;
    }
  }

  // Dataflow causality (4) and the local-staleness window (5).
  std::map<std::pair<int64_t, int>, sim::SimTime> fw_end;   // (minibatch, stage)
  std::map<std::pair<int64_t, int>, sim::SimTime> bwd_end;  // backward work end
  std::map<int64_t, sim::SimTime> complete;                 // minibatch done at stage 0
  for (const Execution& e : execs) {
    if (e.task.kind != TaskKind::kBackward) {
      fw_end[{e.task.minibatch, e.task.stage}] = e.end;
    }
    if (e.task.kind != TaskKind::kForward) {
      bwd_end[{e.task.minibatch, e.task.stage}] = e.end;
      if (e.task.stage == 0) {
        complete[e.task.minibatch] = e.end;
      }
    }
  }
  for (const Execution& e : execs) {
    const bool starts_fw = e.task.kind != TaskKind::kBackward;
    if (starts_fw && e.task.stage > 0) {
      const auto it = fw_end.find({e.task.minibatch, e.task.stage - 1});
      if (it == fw_end.end() || e.start < it->second - 1e-12) {
        result.Fail("FW causality violated: " + ToString(e.task));
      }
    }
    if (e.task.kind == TaskKind::kBackward && e.task.stage < num_stages - 1) {
      const auto it = bwd_end.find({e.task.minibatch, e.task.stage + 1});
      if (it == bwd_end.end() || e.start < it->second - 1e-12) {
        result.Fail("BW causality violated: " + ToString(e.task));
      }
    }
    if (starts_fw && e.task.stage == 0 && e.task.minibatch > nm) {
      const auto it = complete.find(e.task.minibatch - nm);
      if (it == complete.end() || e.start < it->second - 1e-12) {
        result.Fail("local staleness window violated: " + ToString(e.task) +
                    " started before M" + std::to_string(e.task.minibatch - nm) + " completed");
      }
    }
  }
  return result;
}

}  // namespace hetpipe::oracles
