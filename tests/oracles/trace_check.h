#pragma once

#include <optional>
#include <string>
#include <vector>

#include "pipeline/task.h"
#include "sim/trace.h"

// Test oracle for recorded pipeline traces: checks a simulated virtual
// worker's execution against the paper's scheduling rules. Used by
// trace_test; not part of the hetpipe library.
namespace hetpipe::oracles {

// Parses a task back out of the trace-event name format produced by
// ToString(Task) ("FW(M3,P2)"); nullopt for non-task events (e.g. comm).
std::optional<pipeline::Task> ParseTaskEvent(const std::string& name);

// Result of validating a pipeline execution trace against the paper's
// scheduling rules (§4).
struct TraceCheckResult {
  bool ok = true;
  std::vector<std::string> violations;

  void Fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

// Replays a recorded execution trace of one virtual worker and checks:
//  1. forward tasks run in minibatch order at every stage (condition 1);
//  2. backward tasks run in minibatch order at every stage (condition 2);
//  3. one task at a time per stage (GPUs are not oversubscribed);
//  4. dataflow causality: FW(p,q) starts only after FW(p,q-1) finished and
//     BW(p,q) only after the backward work of stage q+1 finished;
//  5. the local staleness window: FW(p, stage 0) starts only after minibatch
//     p - Nm completed (at most Nm concurrent minibatches).
TraceCheckResult ValidatePipelineTrace(const std::vector<sim::TraceEvent>& events,
                                       int num_stages, int nm);

}  // namespace hetpipe::oracles
