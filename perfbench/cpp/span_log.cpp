#include "span_log.hpp"

namespace perfbench {

namespace {
thread_local ScopedSpan* t_open_span = nullptr;
}  // namespace

SpanSnapshot SpanSnapshot::minus(const SpanSnapshot& earlier) const {
  SpanSnapshot out;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out.layers[i].calls = layers[i].calls - earlier.layers[i].calls;
    out.layers[i].total_ns = layers[i].total_ns - earlier.layers[i].total_ns;
    out.layers[i].self_ns = layers[i].self_ns - earlier.layers[i].self_ns;
    out.layers[i].rows = layers[i].rows - earlier.layers[i].rows;
  }
  out.top_level_ns = top_level_ns - earlier.top_level_ns;
  return out;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(Layer layer, std::uint64_t total_ns,
                     std::uint64_t self_ns, std::uint64_t rows,
                     bool top_level) {
  Slot& slot = slots_[std::size_t(layer)];
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.total_ns.fetch_add(total_ns, std::memory_order_relaxed);
  slot.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  slot.rows.fetch_add(rows, std::memory_order_relaxed);
  if (top_level) top_level_ns_.fetch_add(total_ns, std::memory_order_relaxed);
}

SpanSnapshot SpanLog::snapshot() const {
  SpanSnapshot out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out.layers[i].calls = slots_[i].calls.load(std::memory_order_relaxed);
    out.layers[i].total_ns = slots_[i].total_ns.load(std::memory_order_relaxed);
    out.layers[i].self_ns = slots_[i].self_ns.load(std::memory_order_relaxed);
    out.layers[i].rows = slots_[i].rows.load(std::memory_order_relaxed);
  }
  out.top_level_ns = top_level_ns_.load(std::memory_order_relaxed);
  return out;
}

ScopedSpan::ScopedSpan(Layer layer, std::uint64_t rows)
    : layer_(layer), rows_(rows), start_ns_(now_ns()), parent_(t_open_span) {
  t_open_span = this;
}

ScopedSpan::~ScopedSpan() {
  const std::uint64_t total = now_ns() - start_ns_;
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += total;
  const std::uint64_t self = total > child_ns_ ? total - child_ns_ : 0;
  SpanLog::instance().record(layer_, total, self, rows_, parent_ == nullptr);
}

}  // namespace perfbench
