#include "decorators.hpp"

namespace perfbench {

using vqmc::Matrix;
using vqmc::Real;

void TracedSampler::sample(Matrix& out) {
  ScopedSpan span(Layer::Sampler, out.rows());
  inner_.sample(out);
}

void TracedSampler::sample_ws(Matrix& out,
                              vqmc::WavefunctionModel::Workspace* ws) {
  ScopedSpan span(Layer::Sampler, out.rows());
  inner_.sample_ws(out, ws);
}

void TracedModel::log_psi(const Matrix& batch, std::span<Real> out) const {
  ScopedSpan span(Layer::NnForward, batch.rows());
  inner_.log_psi(batch, out);
}

void TracedModel::accumulate_log_psi_gradient(const Matrix& batch,
                                              std::span<const Real> coeff,
                                              std::span<Real> grad) const {
  ScopedSpan span(Layer::NnGradient, batch.rows());
  inner_.accumulate_log_psi_gradient(batch, coeff, grad);
}

void TracedModel::log_psi_gradient_per_sample(const Matrix& batch,
                                              Matrix& out) const {
  ScopedSpan span(Layer::NnOther, batch.rows());
  inner_.log_psi_gradient_per_sample(batch, out);
}

void TracedModel::log_psi_ws(const Matrix& batch, std::span<Real> out,
                             Workspace* ws) const {
  ScopedSpan span(Layer::NnForward, batch.rows());
  inner_.log_psi_ws(batch, out, ws);
}

void TracedModel::accumulate_log_psi_gradient_ws(const Matrix& batch,
                                                 std::span<const Real> coeff,
                                                 std::span<Real> grad,
                                                 Workspace* ws) const {
  ScopedSpan span(Layer::NnGradient, batch.rows());
  inner_.accumulate_log_psi_gradient_ws(batch, coeff, grad, ws);
}

void TracedModel::log_psi_gradient_per_sample_ws(const Matrix& batch,
                                                 Matrix& out,
                                                 Workspace* ws) const {
  ScopedSpan span(Layer::NnOther, batch.rows());
  inner_.log_psi_gradient_per_sample_ws(batch, out, ws);
}

Real TracedHamiltonian::diagonal(std::span<const Real> x) const {
  ScopedSpan span(Layer::Diagonal);
  return inner_.diagonal(x);
}

void TracedHamiltonian::for_each_off_diagonal(
    std::span<const Real> x, const vqmc::OffDiagonalVisitor& visit) const {
  ScopedSpan span(Layer::Hamiltonian);
  inner_.for_each_off_diagonal(
      x, [&visit](std::span<const std::size_t> flips, Real value) {
        ScopedSpan visit_span(Layer::Visit, 1);
        visit(flips, value);
      });
}

void TracedOptimizer::step(std::span<Real> params,
                           std::span<const Real> grad) {
  ScopedSpan span(Layer::Optimizer);
  inner_.step(params, grad);
}

template <typename Call>
void TracedCommunicator::timed(std::uint64_t bytes, bool reduction,
                               Call&& call) {
  CollectiveRecord record;
  record.bytes = bytes;
  record.reduction = reduction;
  {
    ScopedSpan span(Layer::Collective, bytes);
    record.entry_ns = now_ns();
    call();
    record.exit_ns = now_ns();
  }
  records_.push_back(record);
}

void TracedCommunicator::allreduce_sum(std::span<Real> data) {
  timed(data.size_bytes(), true, [&] { inner_.allreduce_sum(data); });
}

void TracedCommunicator::allreduce_max(std::span<Real> data) {
  timed(data.size_bytes(), true, [&] { inner_.allreduce_max(data); });
}

void TracedCommunicator::broadcast(std::span<Real> data, int root) {
  timed(data.size_bytes(), false, [&] { inner_.broadcast(data, root); });
}

void TracedCommunicator::barrier() {
  timed(0, false, [&] { inner_.barrier(); });
}

}  // namespace perfbench
