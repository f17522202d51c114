#pragma once

/// \file decorators.hpp
/// \brief Forwarding decorators that time calls into each layer's public
/// interface without changing what the program computes.
///
/// Each decorator wraps a borrowed object of the layer's interface, forwards
/// every virtual (the defaulted ones too, so a decorated object behaves
/// exactly like the bare one, down to `is_diagonal()` short-circuits and
/// workspace threading) and records a span per call in the SpanLog.  The
/// bit-identity tests in tests/test_decorators.cpp pin that a traced run
/// reproduces the untraced one exactly.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"
#include "nn/wavefunction.hpp"
#include "optim/optimizer.hpp"
#include "parallel/communicator.hpp"
#include "sampler/sampler.hpp"
#include "span_log.hpp"

namespace perfbench {

/// Times sample()/sample_ws() on the Sampler layer.  The wrapped sampler
/// keeps its own (bare) model, so sampler dispatch by concrete model type
/// is unchanged.
class TracedSampler final : public vqmc::Sampler {
 public:
  explicit TracedSampler(vqmc::Sampler& inner) : inner_(inner) {}

  void sample(vqmc::Matrix& out) override;
  void sample_ws(vqmc::Matrix& out,
                 vqmc::WavefunctionModel::Workspace* ws) override;
  [[nodiscard]] const vqmc::SamplerStatistics& statistics() const override {
    return inner_.statistics();
  }
  void reset_statistics() override { inner_.reset_statistics(); }
  [[nodiscard]] bool is_exact() const override { return inner_.is_exact(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const override {
    return inner_.serialize_state();
  }
  void restore_state(const std::vector<std::uint64_t>& state) override {
    inner_.restore_state(state);
  }

 private:
  vqmc::Sampler& inner_;
};

/// Times the model's evaluations: log-psi calls are `NnForward` spans
/// (rows = batch rows), gradient accumulation `NnGradient`, per-sample
/// gradients `NnOther`.
class TracedModel final : public vqmc::WavefunctionModel {
 public:
  explicit TracedModel(vqmc::WavefunctionModel& inner) : inner_(inner) {}

  [[nodiscard]] std::unique_ptr<Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  [[nodiscard]] std::size_t num_spins() const override {
    return inner_.num_spins();
  }
  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_.num_parameters();
  }
  [[nodiscard]] std::span<vqmc::Real> parameters() override {
    return inner_.parameters();
  }
  [[nodiscard]] std::span<const vqmc::Real> parameters() const override {
    return std::as_const(inner_).parameters();
  }
  void initialize(std::uint64_t seed) override { inner_.initialize(seed); }

  void log_psi(const vqmc::Matrix& batch,
               std::span<vqmc::Real> out) const override;
  void accumulate_log_psi_gradient(const vqmc::Matrix& batch,
                                   std::span<const vqmc::Real> coeff,
                                   std::span<vqmc::Real> grad) const override;
  void log_psi_gradient_per_sample(const vqmc::Matrix& batch,
                                   vqmc::Matrix& out) const override;
  void log_psi_ws(const vqmc::Matrix& batch, std::span<vqmc::Real> out,
                  Workspace* ws) const override;
  void accumulate_log_psi_gradient_ws(const vqmc::Matrix& batch,
                                      std::span<const vqmc::Real> coeff,
                                      std::span<vqmc::Real> grad,
                                      Workspace* ws) const override;
  void log_psi_gradient_per_sample_ws(const vqmc::Matrix& batch,
                                      vqmc::Matrix& out,
                                      Workspace* ws) const override;

  [[nodiscard]] bool is_normalized() const override {
    return inner_.is_normalized();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<vqmc::WavefunctionModel> clone()
      const override {
    return inner_.clone();
  }

 private:
  vqmc::WavefunctionModel& inner_;
};

/// Times diagonal() and for_each_off_diagonal() on the Hamiltonian layer.
/// The caller's visitor runs inside a `Visit` child span, so the
/// Hamiltonian's self time is its own enumeration work alone.
class TracedHamiltonian final : public vqmc::Hamiltonian {
 public:
  explicit TracedHamiltonian(const vqmc::Hamiltonian& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t num_spins() const override {
    return inner_.num_spins();
  }
  [[nodiscard]] std::size_t row_sparsity() const override {
    return inner_.row_sparsity();
  }
  [[nodiscard]] vqmc::Real diagonal(
      std::span<const vqmc::Real> x) const override;
  void for_each_off_diagonal(
      std::span<const vqmc::Real> x,
      const vqmc::OffDiagonalVisitor& visit) const override;
  [[nodiscard]] bool is_diagonal() const override {
    return inner_.is_diagonal();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const vqmc::Hamiltonian& inner_;
};

/// Times step() on the Optimizer layer.
class TracedOptimizer final : public vqmc::Optimizer {
 public:
  explicit TracedOptimizer(vqmc::Optimizer& inner) : inner_(inner) {}

  void step(std::span<vqmc::Real> params,
            std::span<const vqmc::Real> grad) override;
  void reset() override { inner_.reset(); }
  [[nodiscard]] vqmc::Real learning_rate() const override {
    return inner_.learning_rate();
  }
  void set_learning_rate(vqmc::Real lr) override {
    inner_.set_learning_rate(lr);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<vqmc::Real> serialize_state() const override {
    return inner_.serialize_state();
  }
  void restore_state(const std::vector<vqmc::Real>& state) override {
    inner_.restore_state(state);
  }

 private:
  vqmc::Optimizer& inner_;
};

/// One collective as seen by one rank, on the shared steady clock.
struct CollectiveRecord {
  std::uint64_t entry_ns = 0;
  std::uint64_t exit_ns = 0;
  std::uint64_t bytes = 0;
  bool reduction = false;  ///< allreduce_sum / allreduce_max
};

/// Records every collective of one rank (entry, exit, payload bytes).
/// Ranks issue collectives in the same order (the Communicator contract),
/// so record k of every rank is the same collective; comparing entry times
/// across ranks splits each rank's time inside it into waiting for the
/// last rank and the transfer after it arrived.
class TracedCommunicator final : public vqmc::parallel::Communicator {
 public:
  explicit TracedCommunicator(vqmc::parallel::Communicator& inner)
      : inner_(inner) {}

  using Communicator::allreduce_max;
  using Communicator::allreduce_sum;

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void allreduce_sum(std::span<vqmc::Real> data) override;
  void allreduce_max(std::span<vqmc::Real> data) override;
  void broadcast(std::span<vqmc::Real> data, int root) override;
  void barrier() override;
  [[nodiscard]] int live_count() const override { return inner_.live_count(); }
  [[nodiscard]] bool is_alive(int r) const override {
    return inner_.is_alive(r);
  }
  void leave() override { inner_.leave(); }
  void interruptible_sleep(double seconds) override {
    inner_.interruptible_sleep(seconds);
  }

  [[nodiscard]] const std::vector<CollectiveRecord>& records() const {
    return records_;
  }

 private:
  template <typename Call>
  void timed(std::uint64_t bytes, bool reduction, Call&& call);

  vqmc::parallel::Communicator& inner_;
  std::vector<CollectiveRecord> records_;
};

}  // namespace perfbench
