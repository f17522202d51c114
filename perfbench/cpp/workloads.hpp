#pragma once

/// \file workloads.hpp
/// \brief The benchmark's four workloads, built from user-facing
/// configuration (factory labels, trainer/serve configs), plus the traced
/// variants that attribute their time to layers.  See ../README.md for why
/// each workload exists and which metric each layer should move.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "decorators.hpp"
#include "parallel/distributed_trainer.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one benchmark run.
struct RunReport {
  std::string workload;
  std::uint64_t attempted = 0;  ///< timed iterations or requests sent
  std::uint64_t failed = 0;     ///< guard trips or failed/refused requests
  std::vector<Metric> metrics;
  std::vector<std::string> checks_passed;
  std::vector<std::string> checks_failed;
  /// Run facts that are not metrics (thread settings, tail levels, ...).
  std::vector<std::pair<std::string, std::string>> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    (ok ? checks_passed : checks_failed).push_back(what);
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  [[nodiscard]] bool correct() const { return checks_failed.empty(); }
};

/// The two parts of a run, each in a process of its own so the set-up
/// repetitions cannot inflate the measured part's peak resident set.
enum class Part {
  Setup,  ///< repeated set-ups (the first is the reference check): setup_s
  Run,    ///< one set-up, then the timed loop: every other metric
};

/// Run one part of a workload for `seconds` of measured time: with
/// `trace == false` the end-to-end metrics, with `trace == true` the
/// per-layer ones.  Throws vqmc::Error for an unknown workload name.
RunReport run_workload(const std::string& name, std::uint64_t seed,
                       double seconds, bool trace, Part part);

// -- Pieces shared with the decorator tests --------------------------------

/// A single-process training workload, in the labels a user passes to the
/// factories (make_model / make_sampler / make_optimizer).
struct TrainingSpec {
  std::string name;
  std::string problem;  ///< "TIM": the paper's random dense instance
  std::size_t n = 0;
  std::string model;    ///< "MADE" or "RBM", paper-default hidden width
  std::string sampler;  ///< "AUTO" or "MCMC" (paper burn-in)
  std::string optimizer = "ADAM";
  std::size_t batch = 128;
};

[[nodiscard]] const TrainingSpec& training_spec(const std::string& name);

/// One seeded training set-up.  The bare trainer drives the factory-built
/// objects directly; with `traced`, a second trainer drives the same
/// objects through the decorators, so interleaving the two continues one
/// training trajectory while every other step is traced.
class TrainingInstance {
 public:
  TrainingInstance(const TrainingSpec& spec, std::uint64_t seed, bool traced);

  vqmc::IterationMetrics step_bare() { return bare_->step(); }
  vqmc::IterationMetrics step_traced() { return traced_->step(); }

  [[nodiscard]] const vqmc::WavefunctionModel& model() const {
    return *model_;
  }
  [[nodiscard]] const vqmc::Sampler& sampler() const { return *sampler_; }
  [[nodiscard]] vqmc::VqmcTrainer& bare() { return *bare_; }
  [[nodiscard]] vqmc::VqmcTrainer& traced() { return *traced_; }

 private:
  std::unique_ptr<vqmc::Hamiltonian> hamiltonian_;
  std::unique_ptr<vqmc::WavefunctionModel> model_;
  std::unique_ptr<vqmc::Sampler> sampler_;
  std::unique_ptr<vqmc::Optimizer> optimizer_;
  std::unique_ptr<vqmc::VqmcTrainer> bare_;

  std::unique_ptr<TracedHamiltonian> traced_hamiltonian_;
  std::unique_ptr<TracedModel> traced_model_;
  std::unique_ptr<TracedSampler> traced_sampler_;
  std::unique_ptr<TracedOptimizer> traced_optimizer_;
  std::unique_ptr<vqmc::VqmcTrainer> traced_;
};

/// One call of train_distributed_on over a socket group hosted in this
/// process, with every rank's iteration-hook timestamps.
struct DistLeg {
  vqmc::parallel::DistributedResult result;  ///< rank 0's view
  std::vector<std::vector<std::uint64_t>> hook_ns;  ///< [rank][iteration]
  /// [rank][collective]; empty unless traced.
  std::vector<std::vector<CollectiveRecord>> collectives;
};

/// Max-Cut n = 300, MADE, AUTO, ADAM over `ranks` socket ranks at 32
/// samples per rank.  With `traced`, each rank's communicator and the shared
/// Hamiltonian are decorated.
DistLeg run_dist_leg(std::uint64_t seed, int ranks, int iterations,
                     bool traced);

/// Seed of stream `stream` derived from the workload seed (splitmix64), so
/// problem, model and sampler never share a stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace perfbench
