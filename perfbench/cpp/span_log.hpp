#pragma once

/// \file span_log.hpp
/// \brief In-memory span accounting for the traced benchmark run.
///
/// Every decorator call opens a ScopedSpan on its layer.  Spans nest per
/// thread (a forward pass issued from inside a Hamiltonian enumeration is a
/// child of that enumeration), so each layer accumulates both its total time
/// and its self time: the span's duration minus the part its child spans
/// cover.  Spans opened with no enclosing span also add to `top_level`, the
/// numerator of the trace coverage figure.
///
/// Totals are process-wide relaxed atomics, so concurrently running rank
/// threads may record into one log; readers take a snapshot between units of
/// work and difference two snapshots to get one unit's share.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace perfbench {

/// Layers the decorators time.  `Diagonal` is Hamiltonian::diagonal and
/// `Hamiltonian` its off-diagonal enumeration.  `Visit` is the local-energy
/// engine's per-connected-configuration callback, run from inside the
/// enumeration; it is split out so the enumeration's own self time excludes
/// the engine's copy work.
enum class Layer : int {
  Sampler = 0,
  Diagonal,
  Hamiltonian,
  Visit,
  NnForward,
  NnGradient,
  NnOther,
  Optimizer,
  Collective,
  kCount
};

/// One layer's accumulated numbers.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t rows = 0;  ///< rows of work (forward rows, visits, ...)

  [[nodiscard]] double total_ms() const { return double(total_ns) * 1e-6; }
  [[nodiscard]] double self_ms() const { return double(self_ns) * 1e-6; }
};

/// Point-in-time copy of the whole log.
struct SpanSnapshot {
  std::array<LayerTotals, std::size_t(Layer::kCount)> layers{};
  std::uint64_t top_level_ns = 0;

  [[nodiscard]] const LayerTotals& operator[](Layer layer) const {
    return layers[std::size_t(layer)];
  }
  /// Elementwise `*this - earlier`.
  [[nodiscard]] SpanSnapshot minus(const SpanSnapshot& earlier) const;
};

/// Process-wide span totals.
class SpanLog {
 public:
  static SpanLog& instance();

  void record(Layer layer, std::uint64_t total_ns, std::uint64_t self_ns,
              std::uint64_t rows, bool top_level);
  [[nodiscard]] SpanSnapshot snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> rows{0};
  };
  std::array<Slot, std::size_t(Layer::kCount)> slots_{};
  std::atomic<std::uint64_t> top_level_ns_{0};
};

/// Monotonic nanoseconds on the clock every span and rank shares.
inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// RAII span on the calling thread's span stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint64_t rows = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  std::uint64_t rows_;
  std::uint64_t start_ns_;
  std::uint64_t child_ns_ = 0;
  ScopedSpan* parent_;
};

}  // namespace perfbench
