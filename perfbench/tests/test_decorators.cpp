// The traced run must measure the program, not change it: for every
// training workload, a run through the decorators reproduces the untraced
// run bit for bit (energy trajectory, final parameters, sampler and
// local-energy counters).

#include <gtest/gtest.h>

#include <cstring>

#include "common.hpp"
#include "core/factory.hpp"
#include "decorators.hpp"
#include "hamiltonian/maxcut.hpp"
#include "nn/made.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSteps = 3;
constexpr std::uint64_t kSeed = 7;

bool same_bits(std::span<const vqmc::Real> a, std::span<const vqmc::Real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void expect_traced_matches_untraced(const std::string& workload) {
  const TrainingSpec& spec = training_spec(workload);
  TrainingInstance bare(spec, kSeed, false);
  TrainingInstance traced(spec, kSeed, true);
  for (int i = 0; i < kSteps; ++i) {
    const vqmc::IterationMetrics a = bare.step_bare();
    const vqmc::IterationMetrics b = traced.step_traced();
    EXPECT_EQ(std::memcmp(&a.energy, &b.energy, sizeof a.energy), 0)
        << workload << " step " << i;
    EXPECT_EQ(std::memcmp(&a.std_dev, &b.std_dev, sizeof a.std_dev), 0)
        << workload << " step " << i;
    EXPECT_EQ(a.guard_trips, 0u);
    EXPECT_EQ(b.guard_trips, 0u);
  }
  EXPECT_TRUE(same_bits(bare.model().parameters(), traced.model().parameters()))
      << workload << ": final parameters differ";
  const vqmc::SamplerStatistics& sa = bare.sampler().statistics();
  const vqmc::SamplerStatistics& sb = traced.sampler().statistics();
  EXPECT_EQ(sa.forward_passes, sb.forward_passes);
  EXPECT_EQ(sa.proposals, sb.proposals);
  EXPECT_EQ(sa.accepted, sb.accepted);
  EXPECT_EQ(sa.nonfinite_rejections, sb.nonfinite_rejections);
  EXPECT_EQ(bare.bare().local_energy_engine().forward_passes(),
            traced.traced().local_energy_engine().forward_passes());
}

TEST(Decorators, Tim300MadeAutoTracedRunIsBitIdentical) {
  expect_traced_matches_untraced("tim300_made_auto");
}

TEST(Decorators, Tim100RbmMcmcTracedRunIsBitIdentical) {
  expect_traced_matches_untraced("tim100_rbm_mcmc");
}

TEST(Decorators, Maxcut300Dist4TracedRunIsBitIdentical) {
  const DistLeg bare = run_dist_leg(kSeed, 4, kSteps, false);
  const DistLeg traced = run_dist_leg(kSeed, 4, kSteps, true);
  EXPECT_TRUE(bare.result.replicas_identical);
  EXPECT_TRUE(traced.result.replicas_identical);
  EXPECT_TRUE(same_bits(bare.result.energy_history,
                        traced.result.energy_history));
  EXPECT_TRUE(same_bits(bare.result.final_parameters,
                        traced.result.final_parameters));
  EXPECT_EQ(bare.result.guard_trips, 0u);
  EXPECT_EQ(traced.result.guard_trips, 0u);
  for (const char* name : {"sampler.auto.forward_passes",
                           "sampler.auto.samples"}) {
    const auto* a = bare.result.merged_metrics.find_counter(name);
    const auto* b = traced.result.merged_metrics.find_counter(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->value, b->value) << name;
  }
  // Every rank's communicator was decorated and saw the same collectives.
  ASSERT_EQ(traced.collectives.size(), 4u);
  for (const auto& records : traced.collectives)
    EXPECT_EQ(records.size(), traced.collectives[0].size());
  EXPECT_FALSE(traced.collectives[0].empty());
}

TEST(Decorators, ForwardDefaultedVirtuals) {
  const vqmc::MaxCut maxcut = vqmc::MaxCut::paper_instance(12, 1);
  const TracedHamiltonian traced_h(maxcut);
  EXPECT_TRUE(traced_h.is_diagonal());
  EXPECT_EQ(traced_h.num_spins(), maxcut.num_spins());
  EXPECT_EQ(traced_h.row_sparsity(), maxcut.row_sparsity());

  vqmc::Made made(12, 8);
  made.initialize(3);
  TracedModel traced_m(made);
  const auto ws = traced_m.make_workspace();
  ASSERT_NE(ws, nullptr);
  EXPECT_NE(dynamic_cast<vqmc::Made::Workspace*>(ws.get()), nullptr);
  EXPECT_TRUE(traced_m.is_normalized());
  EXPECT_EQ(traced_m.parameters().data(), made.parameters().data());

  const auto sampler = vqmc::make_sampler("MCMC", made, 5);
  TracedSampler traced_s(*sampler);
  vqmc::Matrix batch(16, 12);
  traced_s.sample(batch);
  EXPECT_EQ(traced_s.serialize_state(), sampler->serialize_state());
  EXPECT_EQ(traced_s.name(), sampler->name());

  const auto optimizer = vqmc::make_optimizer("ADAM");
  TracedOptimizer traced_o(*optimizer);
  EXPECT_EQ(traced_o.serialize_state(), optimizer->serialize_state());
}

}  // namespace
}  // namespace perfbench
