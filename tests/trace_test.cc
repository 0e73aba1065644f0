#include <gtest/gtest.h>

#include <sstream>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "partition/partitioner.h"
#include "pipeline/trace_check.h"
#include "pipeline/virtual_worker.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace hetpipe {
namespace {

TEST(TracerTest, ChromeJsonContainsEvents) {
  sim::Tracer tracer;
  tracer.Add({"FW(M1,P1)", "forward", 0, 0.0, 1.0});
  tracer.Add({"BW(M1,P1)", "backward", 0, 2.0, 3.5});
  std::ostringstream os;
  tracer.ExportChromeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("FW(M1,P1)"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5e+06"), std::string::npos);
}

TEST(TracerTest, AsciiGanttMarksLanes) {
  sim::Tracer tracer;
  tracer.Add({"FW(M1,P1)", "forward", 0, 0.0, 5.0});
  tracer.Add({"BW(M1,P2)", "backward", 1, 5.0, 10.0});
  const std::string chart = tracer.AsciiGantt(0.0, 10.0, 10, {"G1", "G2"});
  // Lane 0: F in the first half; lane 1: B in the second half.
  EXPECT_NE(chart.find("G1 FFFFF....."), std::string::npos);
  EXPECT_NE(chart.find("G2 .....BBBBB"), std::string::npos);
}

TEST(TraceCheckTest, ParsesTaskNames) {
  const auto fw = pipeline::ParseTaskEvent("FW(M12,P3)");
  ASSERT_TRUE(fw.has_value());
  EXPECT_EQ(fw->kind, pipeline::TaskKind::kForward);
  EXPECT_EQ(fw->minibatch, 12);
  EXPECT_EQ(fw->stage, 2);
  const auto fused = pipeline::ParseTaskEvent("FWBW(M2,P4)");
  ASSERT_TRUE(fused.has_value());
  EXPECT_EQ(fused->kind, pipeline::TaskKind::kForwardBackward);
  EXPECT_FALSE(pipeline::ParseTaskEvent("recv FW(M1,P2)").has_value());
  EXPECT_FALSE(pipeline::ParseTaskEvent("push").has_value());
}

TEST(TraceCheckTest, DetectsOrderViolation) {
  std::vector<sim::TraceEvent> events = {
      {"FW(M2,P1)", "forward", 0, 0.0, 1.0},
      {"FW(M1,P1)", "forward", 0, 1.0, 2.0},
  };
  const auto result = pipeline::ValidatePipelineTrace(events, 1, 4);
  EXPECT_FALSE(result.ok);
}

TEST(TraceCheckTest, DetectsOverlap) {
  std::vector<sim::TraceEvent> events = {
      {"FW(M1,P1)", "forward", 0, 0.0, 2.0},
      {"BW(M1,P1)", "backward", 0, 1.0, 3.0},
  };
  const auto result = pipeline::ValidatePipelineTrace(events, 1, 4);
  EXPECT_FALSE(result.ok);
}

TEST(TraceCheckTest, DetectsCausalityViolation) {
  std::vector<sim::TraceEvent> events = {
      // FW at stage 2 before its stage-1 forward finished.
      {"FW(M1,P1)", "forward", 0, 0.0, 2.0},
      {"FW(M1,P2)", "forward", 1, 1.0, 3.0},
  };
  const auto result = pipeline::ValidatePipelineTrace(events, 2, 4);
  EXPECT_FALSE(result.ok);
}

// The real check: every traced pipeline execution satisfies all five rules.
class TracedPipelineTest : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TracedPipelineTest, SatisfiesSchedulingRules) {
  const auto [nm, jitter] = GetParam();
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = nm;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);

  sim::Tracer tracer;
  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = nm;
  vopt.jitter_cv = jitter;
  vopt.seed = 31337;
  vopt.max_minibatches = 12 * nm;
  vopt.tracer = &tracer;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();

  ASSERT_FALSE(tracer.empty());
  const auto result = pipeline::ValidatePipelineTrace(tracer.events(), 4, nm);
  EXPECT_TRUE(result.ok) << (result.violations.empty() ? "" : result.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TracedPipelineTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0.0, 0.3)),
                         [](const auto& info) {
                           return "Nm" + std::to_string(std::get<0>(info.param)) +
                                  (std::get<1>(info.param) > 0 ? "_jitter" : "_clean");
                         });

TEST(TracedPipelineTest, GanttLooksLikeFig1) {
  // Fig. 1 shape: at Nm=4 the first stage front-loads four forward passes
  // before its first backward pass.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 4;
  const partition::Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  ASSERT_TRUE(partition.feasible);

  sim::Tracer tracer;
  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = 4;
  vopt.max_minibatches = 16;
  vopt.tracer = &tracer;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();

  int fw_before_first_bw = 0;
  bool saw_bw = false;
  for (const auto& e : tracer.events()) {
    const auto task = pipeline::ParseTaskEvent(e.name);
    if (!task.has_value() || task->stage != 0) {
      continue;
    }
    if (task->kind == pipeline::TaskKind::kForward && !saw_bw) {
      ++fw_before_first_bw;
    }
    if (task->kind == pipeline::TaskKind::kBackward) {
      saw_bw = true;
    }
  }
  EXPECT_EQ(fw_before_first_bw, 4);  // M1..M4 forwards run before BW(M1)
}

}  // namespace
}  // namespace hetpipe
