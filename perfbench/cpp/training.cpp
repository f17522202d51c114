// Single-process training workloads: tim300_made_auto and tim100_rbm_mcmc.

#include <cstdlib>
#include <map>

#include "common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/factory.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "stats.hpp"

namespace perfbench {

using vqmc::IterationMetrics;
using vqmc::Timer;

namespace {

constexpr int kWarmupSteps = 2;

/// Energies of the kReferenceSeed run after each warm-up step, recorded
/// from this benchmark at the commit that introduced it (Release, AVX-512).
const std::map<std::string, std::vector<double>>& reference_energies() {
  static const std::map<std::string, std::vector<double>> refs = {
      {"tim300_made_auto", {-149.52388894768336, -149.7182759245249}},
      {"tim100_rbm_mcmc", {-68.641847629431069, -11.507766214027242}},
  };
  return refs;
}

/// Flop and byte footprint of one model forward row, computed from the
/// model's shapes (MADE: the in-extent entries of its masked weights).
struct ForwardCost {
  double flop_per_row = 0;
  double bytes_per_row = 0;
};

ForwardCost forward_cost(const vqmc::WavefunctionModel& model) {
  const double n = double(model.num_spins());
  if (const auto* made = dynamic_cast<const vqmc::Made*>(&model)) {
    const double h = double(made->hidden_size());
    const double nnz = double(made->w1_extents().nonzeros() +
                              made->w2_extents().nonzeros());
    // Two masked gemms (2 flop per multiply-add) plus bias/activation work;
    // bytes: input row, pre- and post-activation hidden rows, conditionals.
    return {2 * nnz + 3 * (h + n), 8 * (n + 2 * h + n + 1)};
  }
  if (const auto* rbm = dynamic_cast<const vqmc::Rbm*>(&model)) {
    const double h = double(rbm->hidden_size());
    return {2 * h * n + 3 * h + 2 * n, 8 * (n + h + 1)};
  }
  return {};
}

/// Tail level of the iteration times kept in the notes: the highest that
/// leaves at least ten iterations beyond it at the expected count.
double training_tail(const TrainingSpec& spec) {
  return spec.name == "tim300_made_auto" ? 0.85 : 0.9;
}

}  // namespace

const TrainingSpec& training_spec(const std::string& name) {
  static const std::vector<TrainingSpec> specs = {
      {"tim300_made_auto", "TIM", 300, "MADE", "AUTO", "ADAM", 128},
      {"tim100_rbm_mcmc", "TIM", 100, "RBM", "MCMC", "ADAM", 128},
  };
  for (const TrainingSpec& spec : specs)
    if (spec.name == name) return spec;
  throw vqmc::Error("perfbench: no training workload '" + name + "'");
}

TrainingInstance::TrainingInstance(const TrainingSpec& spec, std::uint64_t seed,
                                   bool traced) {
  VQMC_REQUIRE(spec.problem == "TIM",
               "perfbench: unknown problem " + spec.problem);
  hamiltonian_ = std::make_unique<vqmc::TransverseFieldIsing>(
      vqmc::TransverseFieldIsing::random_dense(spec.n, derive_seed(seed, 1)));
  model_ = vqmc::make_model(spec.model, spec.n, 0, derive_seed(seed, 2));
  sampler_ = vqmc::make_sampler(spec.sampler, *model_, derive_seed(seed, 3));
  optimizer_ = vqmc::make_optimizer(spec.optimizer);

  vqmc::TrainerConfig config;
  config.batch_size = spec.batch;
  config.use_sr = vqmc::optimizer_label_uses_sr(spec.optimizer);
  bare_ = std::make_unique<vqmc::VqmcTrainer>(*hamiltonian_, *model_,
                                              *sampler_, *optimizer_, config);
  if (traced) {
    traced_hamiltonian_ = std::make_unique<TracedHamiltonian>(*hamiltonian_);
    traced_model_ = std::make_unique<TracedModel>(*model_);
    traced_sampler_ = std::make_unique<TracedSampler>(*sampler_);
    traced_optimizer_ = std::make_unique<TracedOptimizer>(*optimizer_);
    traced_ = std::make_unique<vqmc::VqmcTrainer>(
        *traced_hamiltonian_, *traced_model_, *traced_sampler_,
        *traced_optimizer_, config);
  }
}

RunReport run_training(const TrainingSpec& spec, std::uint64_t seed,
                       double seconds, bool trace, Part part) {
  RunReport report;
  report.workload = spec.name;
  report.note("omp_threads_requested", std::getenv("OMP_NUM_THREADS")
                                           ? std::getenv("OMP_NUM_THREADS")
                                           : "unset");

  // A set-up builds the workload and runs its warm-up steps (iteration 0's
  // cold sampling is charged here, not to the timed iterations).  With
  // tracing the last warm-up step goes through the traced trainer, which
  // continues the same trajectory, so the reference check also pins the
  // decorators' transparency.
  std::unique_ptr<TrainingInstance> instance;
  auto set_up = [&](std::uint64_t setup_seed) {
    instance = std::make_unique<TrainingInstance>(spec, setup_seed, trace);
    std::vector<double> energies;
    for (int step = 0; step < kWarmupSteps; ++step) {
      const IterationMetrics m = trace && step == kWarmupSteps - 1
                                     ? instance->step_traced()
                                     : instance->step_bare();
      energies.push_back(double(m.energy));
    }
    return energies;
  };
  if (part == Part::Setup) {
    std::vector<double> setup_s;
    for (int s = 0; s < kSetups; ++s) {
      instance.reset();
      release_freed_memory();
      Timer timer;
      const std::vector<double> energies =
          set_up(s == 0 ? kReferenceSeed : seed);
      setup_s.push_back(timer.seconds());
      if (s == 0)
        check_reference(report, energies, reference_energies().at(spec.name));
    }
    report.add("setup_s", median(setup_s), "s");
    return report;
  }
  set_up(seed);

  const std::uint64_t trips_before =
      instance->bare().health_counters().guard_trips;
  const vqmc::SamplerStatistics stats_before = instance->sampler().statistics();
  std::vector<double> bare_ms;
  std::vector<double> traced_ms;
  // Per traced iteration: the program's phase split and the span deltas.
  std::vector<IterationMetrics> traced_metrics;
  std::vector<SpanSnapshot> traced_spans;
  Timer total;
  while (total.seconds() < seconds) {
    Timer it;
    instance->step_bare();
    bare_ms.push_back(it.milliseconds());
    if (!trace) continue;
    const SpanSnapshot before = SpanLog::instance().snapshot();
    it.reset();
    traced_metrics.push_back(instance->step_traced());
    traced_ms.push_back(it.milliseconds());
    traced_spans.push_back(SpanLog::instance().snapshot().minus(before));
  }
  const std::uint64_t iterations = bare_ms.size() + traced_ms.size();
  const std::uint64_t trips =
      instance->bare().health_counters().guard_trips - trips_before +
      (trace ? instance->traced().health_counters().guard_trips : 0);
  report.attempted = iterations;
  report.failed = trips;
  report.check(trips == 0, "zero guard trips in the timed iterations");
  report.note("timed_iterations", std::to_string(iterations));

  if (!trace) {
    double timed_ms = 0;
    for (double ms : bare_ms) timed_ms += ms;
    add_end_to_end(report, window_rates(bare_ms, double(spec.batch)),
                   double(spec.batch) * double(bare_ms.size()) * 1e3 / timed_ms,
                   bare_ms, training_tail(spec));
    return report;
  }

  // Per-layer figures: medians over traced iterations of per-iteration
  // values; counts are totals over the timed loop divided by iterations.
  const std::size_t traced_iters = traced_ms.size();
  VQMC_REQUIRE(traced_iters > 0, "perfbench: no traced iteration completed");
  std::vector<double> sampler_ms, le_ms, le_self_ms, diag_ms, enum_self_ms,
      fwd_ms, fwd_us_per_row, grad_ms, optim_ms, coverage;
  double fwd_rows = 0, visits = 0;
  for (std::size_t i = 0; i < traced_iters; ++i) {
    const SpanSnapshot& d = traced_spans[i];
    const double le = traced_metrics[i].phases.local_energy * 1e3;
    sampler_ms.push_back(d[Layer::Sampler].total_ms());
    le_ms.push_back(le);
    diag_ms.push_back(d[Layer::Diagonal].total_ms());
    enum_self_ms.push_back(d[Layer::Hamiltonian].self_ms());
    fwd_ms.push_back(d[Layer::NnForward].total_ms());
    le_self_ms.push_back(le - d[Layer::NnForward].total_ms() -
                         d[Layer::Hamiltonian].self_ms() -
                         d[Layer::Diagonal].total_ms());
    if (d[Layer::NnForward].rows > 0)
      fwd_us_per_row.push_back(d[Layer::NnForward].total_ms() * 1e3 /
                               double(d[Layer::NnForward].rows));
    grad_ms.push_back(d[Layer::NnGradient].total_ms());
    optim_ms.push_back(d[Layer::Optimizer].total_ms());
    coverage.push_back(double(d.top_level_ns) * 1e-6 / traced_ms[i]);
    fwd_rows += double(d[Layer::NnForward].rows);
    visits += double(d[Layer::Visit].calls);
  }
  const vqmc::SamplerStatistics& stats = instance->sampler().statistics();
  const double proposals = double(stats.proposals - stats_before.proposals);
  const double samples = double(spec.batch) * double(traced_iters);
  const ForwardCost cost = forward_cost(instance->model());
  const double rows_per_iter = fwd_rows / double(traced_iters);
  const double gflop_per_iter = cost.flop_per_row * rows_per_iter * 1e-9;
  const double fwd_ms_p50 = median(fwd_ms);

  report.add("sampler.ms_per_iter", median(sampler_ms), "ms");
  report.add("sampler.forward_passes_per_iter",
             double(stats.forward_passes - stats_before.forward_passes) /
                 double(iterations),
             "count");
  report.add("sampler.mcmc_accept_frac",
             proposals > 0
                 ? double(stats.accepted - stats_before.accepted) / proposals
                 : 0,
             "fraction");
  report.add("local_energy.ms_per_iter", median(le_ms), "ms");
  report.add("local_energy.rows_per_sample", fwd_rows / samples, "count");
  report.add("local_energy.self_ms_per_iter", median(le_self_ms), "ms");
  report.add("hamiltonian.diagonal_ms_per_iter", median(diag_ms), "ms");
  report.add("hamiltonian.enumerate_self_ms_per_iter", median(enum_self_ms),
             "ms");
  report.add("hamiltonian.connected_per_sample", visits / samples, "count");
  report.add("nn.forward_ms_per_iter", fwd_ms_p50, "ms");
  report.add("nn.forward_rows_per_iter", rows_per_iter, "count");
  report.add("nn.forward_us_per_row",
             fwd_us_per_row.empty() ? 0 : median(fwd_us_per_row), "us");
  report.add("nn.gradient_ms_per_iter", median(grad_ms), "ms");
  report.add("tensor.forward_gflop_per_iter", gflop_per_iter, "GFLOP");
  report.add("tensor.forward_bytes_per_row",
             rows_per_iter > 0 ? cost.bytes_per_row : 0, "B");
  report.add("tensor.forward_gflops",
             fwd_ms_p50 > 0 ? gflop_per_iter / (fwd_ms_p50 * 1e-3) : 0,
             "GFLOP/s");
  report.add("optim.step_ms_per_iter", median(optim_ms), "ms");
  report.add("trace.overhead_frac",
             quantile(traced_ms, 0.1) / quantile(bare_ms, 0.1) - 1,
             "fraction");
  report.add("trace.coverage_frac", median(coverage), "fraction");
  add_unreached_parallel(report);
  add_unreached_serve(report);
  report.note("traced_iterations", std::to_string(traced_iters));
  report.note("tensor_figures", "computed from model shapes, not measured");
  return report;
}

}  // namespace perfbench
