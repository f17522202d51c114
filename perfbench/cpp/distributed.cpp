// maxcut300_dist4: data-parallel training through train_distributed_on over
// a socket group hosted in this process.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/factory.hpp"
#include "hamiltonian/maxcut.hpp"
#include "parallel/socket_communicator.hpp"
#include "stats.hpp"

namespace perfbench {

using vqmc::Timer;
using vqmc::parallel::DistributedResult;

namespace {

constexpr std::size_t kSpins = 300;
constexpr std::size_t kMiniBatch = 32;
constexpr int kRanks = 4;
/// Iterations of each set-up run; the timed legs drop the same number of
/// leading iterations as warm-up.
constexpr int kWarmupIterations = 3;
constexpr double kTail = 0.9;

/// Energy history of the kReferenceSeed set-up run, recorded from this
/// benchmark at the commit that introduced it (Release, AVX-512).
const std::vector<double>& reference_energies() {
  static const std::vector<double> refs = {-3.65234375, -0.328125,
                                           -1.91796875};
  return refs;
}

/// Rank 0's iteration times (ms) from iteration `first` on (by default
/// after the warm-up iterations).
std::vector<double> iteration_ms(const DistLeg& leg,
                                 std::size_t first = kWarmupIterations) {
  const std::vector<std::uint64_t>& hooks = leg.hook_ns.at(0);
  std::vector<double> out;
  for (std::size_t k = first; k + 1 < hooks.size(); ++k)
    out.push_back(double(hooks[k + 1] - hooks[k]) * 1e-6);
  return out;
}

int iterations_for(double seconds, double iteration_s) {
  return kWarmupIterations + 1 +
         int(std::ceil(seconds / std::max(iteration_s, 1e-3)));
}

const vqmc::telemetry::HistogramSnapshot& histogram(
    const DistributedResult& result, const std::string& name) {
  const auto* h = result.merged_metrics.find_histogram(name);
  VQMC_REQUIRE(h != nullptr && h->count > 0,
               "perfbench: distributed run published no " + name);
  return *h;
}

double counter(const DistributedResult& result, const std::string& name) {
  const auto* c = result.merged_metrics.find_counter(name);
  VQMC_REQUIRE(c != nullptr,
               "perfbench: distributed run published no " + name);
  return double(c->value);
}

}  // namespace

DistLeg run_dist_leg(std::uint64_t seed, int ranks, int iterations,
                     bool traced) {
  const vqmc::MaxCut hamiltonian =
      vqmc::MaxCut::paper_instance(kSpins, derive_seed(seed, 1));
  const std::unique_ptr<vqmc::WavefunctionModel> model =
      vqmc::make_model("MADE", kSpins, 0, derive_seed(seed, 2));
  const auto* prototype =
      dynamic_cast<const vqmc::AutoregressiveModel*>(model.get());
  VQMC_REQUIRE(prototype != nullptr, "perfbench: MADE is not autoregressive");

  vqmc::parallel::DistributedConfig config;
  config.shape.nodes = 1;
  config.shape.gpus_per_node = ranks;
  config.iterations = iterations;
  config.mini_batch_size = kMiniBatch;
  config.optimizer = "ADAM";
  config.seed = derive_seed(seed, 3);

  const TracedHamiltonian traced_hamiltonian(hamiltonian);
  const vqmc::Hamiltonian& h =
      traced ? static_cast<const vqmc::Hamiltonian&>(traced_hamiltonian)
             : hamiltonian;

  DistLeg leg;
  leg.hook_ns.resize(std::size_t(ranks));
  leg.collectives.resize(std::size_t(ranks));
  std::mutex result_mutex;

  static std::atomic<int> group_counter{0};
  const std::string path = socket_dir() + "/pb" + std::to_string(::getpid()) +
                           "_" + std::to_string(group_counter++) + ".sock";
  try {
    vqmc::parallel::run_socket_group(
        ranks,
        [&](vqmc::parallel::Communicator& comm) {
          const std::size_t r = std::size_t(comm.rank());
          std::vector<std::uint64_t>& hooks = leg.hook_ns[r];
          hooks.reserve(std::size_t(iterations));
          TracedCommunicator traced_comm(comm);
          vqmc::parallel::Communicator& c =
              traced ? static_cast<vqmc::parallel::Communicator&>(traced_comm)
                     : comm;
          DistributedResult result = vqmc::parallel::train_distributed_on(
              h, *prototype, config, c, {},
              [&hooks](long long) { hooks.push_back(now_ns()); });
          if (traced) leg.collectives[r] = traced_comm.records();
          if (r == 0) {
            const std::lock_guard<std::mutex> lock(result_mutex);
            leg.result = std::move(result);
          }
        },
        {}, "unix://" + path);
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
  std::remove(path.c_str());
  return leg;
}

RunReport run_distributed(std::uint64_t seed, double seconds, bool trace,
                          Part part) {
  RunReport report;
  report.workload = "maxcut300_dist4";
  report.note("ranks", std::to_string(kRanks));
  report.note("omp_threads_requested", std::getenv("OMP_NUM_THREADS")
                                           ? std::getenv("OMP_NUM_THREADS")
                                           : "unset");

  // A set-up builds the problem and model and runs a short group job
  // (socket rendezvous, replication, cold first iterations, final
  // evaluation); its last iteration estimates the iteration time.
  double iteration_s = 0;
  auto set_up = [&](std::uint64_t setup_seed) {
    DistLeg leg = run_dist_leg(setup_seed, kRanks, kWarmupIterations, false);
    const std::vector<std::uint64_t>& hooks = leg.hook_ns.at(0);
    iteration_s = double(hooks.back() - hooks[hooks.size() - 2]) * 1e-9;
    return leg;
  };
  if (part == Part::Setup) {
    std::vector<double> setup_s;
    for (int s = 0; s < kSetups; ++s) {
      release_freed_memory();
      Timer timer;
      const DistLeg leg = set_up(s == 0 ? kReferenceSeed : seed);
      setup_s.push_back(timer.seconds());
      report.check(leg.result.replicas_identical,
                   "set-up " + std::to_string(s) + ": replicas identical");
      if (s == 0) {
        const auto& e = leg.result.energy_history;
        check_reference(report, std::vector<double>(e.begin(), e.end()),
                        reference_energies());
      }
    }
    report.add("setup_s", median(setup_s), "s");
    return report;
  }
  set_up(seed);

  auto check_leg = [&report](const DistLeg& leg, const std::string& what) {
    report.check(leg.result.replicas_identical, what + ": replicas identical");
    report.check(leg.result.guard_trips == 0, what + ": zero guard trips");
    report.attempted += leg.hook_ns.at(0).size() - kWarmupIterations;
    report.failed += leg.result.guard_trips;
  };

  if (!trace) {
    const DistLeg leg = run_dist_leg(
        seed, kRanks, iterations_for(seconds, iteration_s), false);
    check_leg(leg, "timed 4-rank leg");
    const std::vector<double> iter_ms = iteration_ms(leg);
    const double global_batch = double(kMiniBatch * kRanks);
    double timed_ms = 0;
    for (double ms : iter_ms) timed_ms += ms;
    add_end_to_end(report, window_rates(iter_ms, global_batch),
                   global_batch * double(iter_ms.size()) * 1e3 / timed_ms,
                   iter_ms, kTail);
    return report;
  }

  // Traced run: a traced 4-rank leg between two untraced ones (the overhead
  // figure compares them; bracketing cancels drift in the host's speed) and
  // an untraced 1-rank leg at the same mini-batch (the weak-scaling figure).
  const int legs4 = iterations_for(seconds * 0.25, iteration_s);
  const DistLeg bare4 = run_dist_leg(seed, kRanks, legs4, false);
  const SpanSnapshot before = SpanLog::instance().snapshot();
  const DistLeg traced4 = run_dist_leg(seed, kRanks, legs4, true);
  const SpanSnapshot spans = SpanLog::instance().snapshot().minus(before);
  const DistLeg bare4_after = run_dist_leg(seed, kRanks, legs4, false);
  const DistLeg bare1 =
      run_dist_leg(seed, 1, iterations_for(seconds * 0.25, iteration_s), false);
  check_leg(bare4, "untraced 4-rank leg");
  check_leg(bare4_after, "second untraced 4-rank leg");
  check_leg(traced4, "traced 4-rank leg");
  check_leg(bare1, "1-rank leg");
  report.check(traced4.result.energy_history == bare4.result.energy_history &&
                   traced4.result.final_parameters ==
                       bare4.result.final_parameters,
               "traced leg reproduces the untraced energies and parameters");

  const DistributedResult& r = traced4.result;
  // Phase histograms hold one observation per rank and iteration.
  const double rank_iters = double(histogram(r, "phase.sample_seconds").count);
  const double iters = rank_iters / kRanks;
  auto phase_ms = [&](const char* name) {
    return histogram(r, name).mean() * 1e3;
  };
  const double samples = rank_iters * double(kMiniBatch);
  const double visits = double(spans[Layer::Visit].calls);
  // The engine evaluates the model at x and at each connected
  // configuration; a diagonal Hamiltonian connects none, so none run.
  const double le_rows = visits > 0 ? (samples + visits) / samples : 0;

  report.add("sampler.ms_per_iter", phase_ms("phase.sample_seconds"), "ms");
  report.add("sampler.forward_passes_per_iter",
             counter(r, "sampler.auto.forward_passes") /
                 counter(r, "sampler.auto.batches"),
             "count");
  report.add("local_energy.ms_per_iter", phase_ms("phase.local_energy_seconds"),
             "ms");
  report.add("local_energy.rows_per_sample", le_rows, "count");
  // Span totals also hold the final evaluation batch, so scale the
  // per-call cost by the calls one iteration makes (one per sample).
  auto per_iter_ms = [](const LayerTotals& t, bool self) {
    if (t.calls == 0) return 0.0;
    return (self ? t.self_ms() : t.total_ms()) / double(t.calls) *
           double(kMiniBatch);
  };
  const double diag_ms = per_iter_ms(spans[Layer::Diagonal], false);
  const double enum_ms = per_iter_ms(spans[Layer::Hamiltonian], true);
  report.add("local_energy.self_ms_per_iter",
             phase_ms("phase.local_energy_seconds") - diag_ms - enum_ms, "ms");
  report.add("hamiltonian.diagonal_ms_per_iter", diag_ms, "ms");
  report.add("hamiltonian.enumerate_self_ms_per_iter", enum_ms, "ms");
  report.add("hamiltonian.connected_per_sample", visits / samples, "count");
  // A diagonal Hamiltonian connects no configuration, so the local-energy
  // engine runs no forward pass; AUTO sampling proposes nothing.
  report.add("sampler.mcmc_accept_frac", 0, "fraction");
  report.add("nn.forward_ms_per_iter", 0, "ms");
  report.add("nn.forward_rows_per_iter", 0, "count");
  report.add("nn.forward_us_per_row", 0, "us");
  report.add("tensor.forward_gflop_per_iter", 0, "GFLOP");
  report.add("tensor.forward_bytes_per_row", 0, "B");
  report.add("tensor.forward_gflops", 0, "GFLOP/s");
  report.add("nn.gradient_ms_per_iter", phase_ms("phase.gradient_seconds"),
             "ms");
  report.add("optim.step_ms_per_iter", phase_ms("phase.optimizer_seconds"),
             "ms");

  // Collectives inside rank r's timed window [hook[W], hook[last]).  Record
  // k is the same collective on every rank, so the last entry across ranks
  // marks when it could start moving data.
  const std::size_t num_records = r.final_live_ranks == kRanks
                                      ? traced4.collectives.at(0).size()
                                      : 0;
  double calls = 0, bytes = 0, wait_ms = 0, transfer_ms = 0;
  std::vector<double> busy_ms(kRanks, 0.0);
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& hooks = traced4.hook_ns.at(std::size_t(rank));
    const std::uint64_t lo = hooks[kWarmupIterations];
    const std::uint64_t hi = hooks.back();
    double inside_ms = 0;
    for (std::size_t k = 0; k < num_records; ++k) {
      const CollectiveRecord& rec = traced4.collectives[std::size_t(rank)][k];
      if (rec.entry_ns < lo || rec.entry_ns >= hi) continue;
      std::uint64_t last_entry = 0;
      for (int q = 0; q < kRanks; ++q)
        last_entry = std::max(
            last_entry, traced4.collectives[std::size_t(q)].at(k).entry_ns);
      inside_ms += double(rec.exit_ns - rec.entry_ns) * 1e-6;
      if (!rec.reduction) continue;
      calls += 1;
      bytes += double(rec.bytes);
      wait_ms += double(last_entry - rec.entry_ns) * 1e-6;
      transfer_ms += double(rec.exit_ns - std::max(last_entry, rec.entry_ns)) *
                     1e-6;
    }
    busy_ms[std::size_t(rank)] = double(hi - lo) * 1e-6 - inside_ms;
  }
  const double timed_rank_iters =
      double(kRanks) *
      double(traced4.hook_ns.at(0).size() - 1 - kWarmupIterations);
  report.add("allreduce.calls_per_iter", calls / timed_rank_iters, "count");
  report.add("allreduce.bytes_per_iter", bytes / timed_rank_iters, "B");
  report.add("allreduce.wait_ms_per_iter", wait_ms / timed_rank_iters, "ms");
  report.add("allreduce.transfer_ms_per_iter", transfer_ms / timed_rank_iters,
             "ms");
  const auto [lo_busy, hi_busy] =
      std::minmax_element(busy_ms.begin(), busy_ms.end());
  report.add("rank.busy_spread_frac", (*hi_busy - *lo_busy) / mean(busy_ms),
             "fraction");
  // Fast-decile iteration times, for the reason add_end_to_end gives.
  std::vector<double> bare4_ms = iteration_ms(bare4);
  for (double ms : iteration_ms(bare4_after)) bare4_ms.push_back(ms);
  const double bare4_p10 = quantile(bare4_ms, 0.1);
  report.add("parallel.weak_scaling_eff",
             quantile(iteration_ms(bare1), 0.1) / bare4_p10, "ratio");
  report.add("trace.overhead_frac",
             quantile(iteration_ms(traced4), 0.1) / bare4_p10 - 1, "fraction");
  // Share of the iteration the program's phase timers and the decorator
  // spans account for (the phases tile the step; see README.md).
  double phase_total_ms = 0;
  for (const char* name :
       {"phase.sample_seconds", "phase.local_energy_seconds",
        "phase.gradient_seconds", "phase.allreduce_seconds",
        "phase.optimizer_seconds"})
    phase_total_ms += phase_ms(name);
  // The phase histograms hold every iteration, warm-up included.
  report.add("trace.coverage_frac",
             phase_total_ms / mean(iteration_ms(traced4, 0)), "fraction");
  add_unreached_serve(report);
  report.note("traced_iterations", std::to_string(std::llround(iters)));
  return report;
}

}  // namespace perfbench
