#pragma once

/// \file common.hpp
/// \brief Conventions shared by the workload runners (private to the
/// benchmark).

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Set-ups in the set-up part; the reported set-up time is their median.
/// The first uses kReferenceSeed and doubles as the reference check.
inline constexpr int kSetups = 9;
inline constexpr std::uint64_t kReferenceSeed = 20211114;
/// Relative tolerance of the reference-energy checks.  Loose enough for a
/// different SIMD tier or a reordered accumulation, tight enough that any
/// change to what is computed fails it.
inline constexpr double kReferenceTolerance = 1e-6;

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Hand memory freed by a torn-down set-up back to the OS, so repeated
/// set-ups in one run do not stack up in the peak resident set.
void release_freed_memory();

/// Relative closeness for the reference checks.
[[nodiscard]] bool close_to(double value, double reference, double tol);

/// Records a reference-energy check of `energies` against `reference`.
void check_reference(RunReport& report, const std::vector<double>& energies,
                     const std::vector<double>& reference);

/// Shortest span of work a throughput window holds.
inline constexpr double kWindowS = 0.5;

/// Completion rate (1/s) of each window of consecutive units of work (in
/// order, `unit_ms` each, `work_per_unit` samples each) spanning at least
/// kWindowS; a trailing shorter span is dropped.
[[nodiscard]] std::vector<double> window_rates(
    const std::vector<double>& unit_ms, double work_per_unit);

/// Adds the end-to-end metrics of the measured part, from the completion
/// rate (1/s) of each window of work (see window_rates; for serving, fixed
/// kWindowS slices of the closed loop), the rate over the whole timed run
/// (a note), and the latency (ms) of each unit of work (an iteration, or a
/// request at the reference rate).  Gated figures are the fast decile: on
/// a shared host, time taken away from the process only ever adds, so the
/// fast decile tracks the program while medians and tails track the host.
/// A window spans several units, so the throughput also sees a slowdown
/// that hits some units of every window while sparing the fastest decile
/// of single units.  The median and `tail_q` latencies are kept as notes.
void add_end_to_end(RunReport& report, const std::vector<double>& window_rates,
                    double whole_run_rate,
                    const std::vector<double>& latency_ms, double tail_q);

/// Per-layer metrics of layers a workload never reaches, reported as an
/// explicit 0 so that a metric missing from a traced run is an error.
void add_unreached_parallel(RunReport& report);  ///< allreduce, rank, scaling
void add_unreached_serve(RunReport& report);     ///< serve.*

/// Directory for the socket group's rendezvous file (short, relative).
[[nodiscard]] const std::string& socket_dir();
void set_socket_dir(const std::string& dir);

RunReport run_training(const TrainingSpec& spec, std::uint64_t seed,
                       double seconds, bool trace, Part part);
RunReport run_distributed(std::uint64_t seed, double seconds, bool trace,
                          Part part);
RunReport run_serve(std::uint64_t seed, double seconds, bool trace,
                    Part part);

}  // namespace perfbench
