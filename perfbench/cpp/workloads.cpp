#include "workloads.hpp"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "common/error.hpp"
#include "rng/splitmix.hpp"
#include "stats.hpp"

namespace perfbench {

RunReport run_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool trace, Part part) {
  if (name == "maxcut300_dist4")
    return run_distributed(seed, seconds, trace, part);
  if (name == "serve1000_mixed") return run_serve(seed, seconds, trace, part);
  return run_training(training_spec(name), seed, seconds, trace, part);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  vqmc::rng::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void release_freed_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

bool close_to(double value, double reference, double tol) {
  return std::isfinite(value) &&
         std::abs(value - reference) <= tol * std::max(1.0, std::abs(reference));
}

void check_reference(RunReport& report, const std::vector<double>& energies,
                     const std::vector<double>& reference) {
  std::string observed;
  bool ok = reference.size() == energies.size();
  for (std::size_t i = 0; i < energies.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", energies[i]);
    observed += buf;
    ok = ok && close_to(energies[i], reference[i], kReferenceTolerance);
  }
  report.note("reference_energies_observed", "[" + observed + "]");
  report.check(ok, "energies of reference seed " +
                       std::to_string(kReferenceSeed) +
                       " match the recorded ones to 1e-6 relative");
}

std::vector<double> window_rates(const std::vector<double>& unit_ms,
                                 double work_per_unit) {
  std::vector<double> rates;
  double span_ms = 0, work = 0;
  for (double ms : unit_ms) {
    span_ms += ms;
    work += work_per_unit;
    if (span_ms < kWindowS * 1e3) continue;
    rates.push_back(work * 1e3 / span_ms);
    span_ms = work = 0;
  }
  return rates;
}

void add_end_to_end(RunReport& report, const std::vector<double>& window_rates,
                    double whole_run_rate,
                    const std::vector<double>& latency_ms, double tail_q) {
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("throughput_per_s", quantile(window_rates, 0.9), "1/s");
  report.add("latency_ms_p10", quantile(latency_ms, 0.1), "ms");
  report.note("throughput_per_s_whole_run", std::to_string(whole_run_rate));
  report.note("throughput_windows", std::to_string(window_rates.size()));
  report.note("latency_ms_p50", std::to_string(median(latency_ms)));
  report.note("latency_ms_" + tail_label(tail_q),
              std::to_string(quantile(latency_ms, tail_q)));
  report.note("latency_samples", std::to_string(latency_ms.size()));
}

void add_unreached_parallel(RunReport& report) {
  report.add("allreduce.calls_per_iter", 0, "count");
  report.add("allreduce.bytes_per_iter", 0, "B");
  for (const char* name :
       {"allreduce.wait_ms_per_iter", "allreduce.transfer_ms_per_iter"})
    report.add(name, 0, "ms");
  report.add("rank.busy_spread_frac", 0, "fraction");
  report.add("parallel.weak_scaling_eff", 0, "ratio");
}

void add_unreached_serve(RunReport& report) {
  for (const char* name :
       {"serve.sample.latency_ms_p50", "serve.sample.latency_ms_p99",
        "serve.log_psi.latency_ms_p50", "serve.log_psi.latency_ms_p99",
        "serve.local_energy.latency_ms_p50",
        "serve.local_energy.latency_ms_p90",
        "serve.sample.compute_ms_per_batch",
        "serve.log_psi.compute_ms_per_batch",
        "serve.local_energy.compute_ms_per_batch", "serve.sample.wait_ms_p50",
        "serve.log_psi.wait_ms_p50", "serve.local_energy.wait_ms_p50",
        "serve.generator_lag_ms_p99"})
    report.add(name, 0, "ms");
  report.add("serve.max_rate_rps", 0, "req/s");
  report.add("serve.batch_rows_mean", 0, "rows");
  report.add("serve.batch_fill_frac", 0, "fraction");
  report.add("serve.worker_busy_frac", 0, "fraction");
}

namespace {
std::string g_socket_dir = ".";
}  // namespace

const std::string& socket_dir() { return g_socket_dir; }
void set_socket_dir(const std::string& dir) { g_socket_dir = dir; }

}  // namespace perfbench
