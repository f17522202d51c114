// serve1000_mixed: an open-loop, seeded Poisson schedule of sample, log-psi
// and local-energy requests against serve::InferenceEngine, then a
// closed-loop phase that keeps the engine saturated to measure throughput.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <cstdlib>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/local_energy.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "nn/made.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sampler/fast_made_sampler.hpp"
#include "serve/inference_engine.hpp"
#include "stats.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using vqmc::Matrix;
using vqmc::Real;
using vqmc::Timer;
namespace serve = vqmc::serve;

namespace {

constexpr std::size_t kSpins = 1000;
constexpr std::size_t kWorkers = 2;

enum Kind : int { kSample = 0, kLogPsi = 1, kLocalEnergy = 2, kNumKinds = 3 };
constexpr const char* kKindNames[kNumKinds] = {"sample", "log_psi",
                                               "local_energy"};
// The request shapes, the mix and the latency limits are assumptions: no
// recorded traffic exists for this engine (see ../README.md).
/// Rows per request of each kind.
constexpr std::size_t kRows[kNumKinds] = {4, 16, 1};
/// The fixed mix: every block of kBlock requests holds exactly this many of
/// each kind, in a seeded order, so every run offers the same work.
constexpr int kBlock = 50;
constexpr int kPerBlock[kNumKinds] = {25, 24, 1};
/// Latency limits per kind on the percentile the kind reports (p99, p99,
/// p90); a rate meets them when every kind does with no growing backlog.
constexpr double kLimitMs[kNumKinds] = {50, 50, 250};
constexpr double kTailLevel[kNumKinds] = {0.99, 0.99, 0.9};
/// The run is invalid when the generator, not the engine, fell behind:
/// when its lag p99 is more than this share of the tail latency it would
/// distort (latency is timed from the due time, so lag counts in it).
constexpr double kMaxGeneratorLagShare = 0.25;
/// Outstanding requests in the closed-loop throughput phase.  At the mix's
/// mean of 9.7 rows a request, 32 requests hold ~310 rows: over twice the
/// 2 x 64 rows the workers take at once (ServeConfig's default
/// max_batch_rows), so a full batch is always waiting.
constexpr std::size_t kClosedLoopClients = 32;
constexpr int kSpotChecks = 4;

/// Closed-loop capacity of this configuration (requests/s): the median
/// closed-loop completion rate of ten runs of this benchmark (1238-1372
/// req/s) on a 4-vCPU AVX-512 Xeon VM, measured when it was written.  The
/// offered rates are fixed shares of it, so every run and every commit
/// offers the same schedule; each run reports where the reference rate sits
/// against the capacity it measured itself.
constexpr double kCapacityRps = 1300;

/// Open-loop segments: offered load as a share of kCapacityRps, and share
/// of the open-loop seconds.  The middle one is the reference rate of the
/// end-to-end latency metric; the last one is above saturation, kept short
/// so its backlog stays small.
struct Segment {
  double load;
  double share;
  [[nodiscard]] constexpr double rate() const { return load * kCapacityRps; }
};
constexpr Segment kSegments[] = {{0.25, 0.3}, {0.5, 0.65}, {1.5, 0.05}};
constexpr int kReferenceSegment = 1;
constexpr int kNumSegments = 3;
constexpr double kClosedLoopShare = 0.5;

struct Planned {
  std::uint64_t due_ns = 0;  ///< offset from the schedule start
  int kind = kSample;
  int segment = 0;           ///< kNumSegments = closed loop
  std::uint64_t seed = 0;    ///< sample requests
  std::size_t config = 0;    ///< first pool row of eval requests
};

struct Done {
  int kind = kSample;
  int segment = 0;
  double latency_ms = 0;
  std::uint64_t due_ns = 0;   ///< planned offset (open loop)
  std::uint64_t done_ns = 0;  ///< completion, on the shared clock
};

/// Seeded request stream in the fixed mix.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool_rows)
      : gen_(derive_seed(seed, 10)), pool_rows_(pool_rows) {}

  Planned next() {
    if (block_pos_ == kBlock) refill();
    Planned p;
    p.kind = block_[std::size_t(block_pos_++)];
    p.seed = gen_();
    p.config = std::size_t(vqmc::rng::uniform_index(
        gen_, pool_rows_ - kRows[p.kind] + 1));
    return p;
  }

 private:
  void refill() {
    block_.clear();
    for (int k = 0; k < kNumKinds; ++k)
      block_.insert(block_.end(), std::size_t(kPerBlock[k]), k);
    for (std::size_t i = block_.size() - 1; i > 0; --i)
      std::swap(block_[i], block_[vqmc::rng::uniform_index(gen_, i + 1)]);
    block_pos_ = 0;
  }

  vqmc::rng::Xoshiro256 gen_;
  std::size_t pool_rows_;
  std::vector<int> block_;
  int block_pos_ = kBlock;
};

/// Everything one serving set-up owns.
struct ServeSetup {
  std::unique_ptr<vqmc::TransverseFieldIsing> hamiltonian;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  Matrix pool;  ///< configurations eval requests draw their rows from
  std::unique_ptr<serve::InferenceEngine> engine;
};

std::unique_ptr<ServeSetup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<ServeSetup>();
  s->hamiltonian = std::make_unique<vqmc::TransverseFieldIsing>(
      vqmc::TransverseFieldIsing::random_dense(kSpins, derive_seed(seed, 1)));
  vqmc::Made model = vqmc::Made::with_default_hidden(kSpins);
  model.initialize(derive_seed(seed, 2));
  s->snapshot = serve::ModelSnapshot::from_model(model);
  s->pool = Matrix(256, kSpins);
  vqmc::rng::Xoshiro256 gen(derive_seed(seed, 4));
  for (std::size_t i = 0; i < s->pool.rows() * kSpins; ++i)
    s->pool.data()[i] = Real(gen() >> 63);

  serve::ServeConfig config;
  config.workers = kWorkers;
  config.hamiltonian = s->hamiltonian.get();
  // The above-saturation segment must queue, not shed: no request may fail.
  config.max_pending_rows = std::size_t(1) << 22;
  s->engine = std::make_unique<serve::InferenceEngine>(config);
  s->engine->publish(s->snapshot);
  return s;
}

Matrix rows_of(const Matrix& pool, std::size_t first, std::size_t count) {
  Matrix out(count, pool.cols());
  std::memcpy(out.data(), pool.data() + first * pool.cols(),
              count * pool.cols() * sizeof(Real));
  return out;
}

/// A request in flight.
struct Pending {
  Planned plan;
  std::uint64_t due_abs_ns = 0;
  std::future<serve::SampleResult> sample;
  std::future<serve::EvalResult> eval;
};

/// Results kept for the correctness spot checks.
struct SpotCheck {
  Planned plan;
  Matrix sample_rows;
  std::vector<Real> values;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(ServeSetup& setup) : setup_(setup) {}

  void submit(const Planned& p, std::uint64_t due_abs_ns) {
    Pending pending;
    pending.plan = p;
    pending.due_abs_ns = due_abs_ns;
    serve::InferenceEngine& engine = *setup_.engine;
    try {
      if (p.kind == kSample) {
        pending.sample = engine.submit_sample(kRows[p.kind], p.seed);
      } else {
        Matrix configs = rows_of(setup_.pool, p.config, kRows[p.kind]);
        pending.eval = p.kind == kLogPsi
                           ? engine.submit_log_psi(std::move(configs))
                           : engine.submit_local_energy(std::move(configs));
      }
    } catch (const std::exception&) {
      ++refused_;  // shed or quota-rejected at admission
      return;
    }
    ++sent_;
    outstanding_.push_back(std::move(pending));
  }

  /// Collect every finished request; returns how many finished.
  std::size_t sweep() {
    std::size_t finished = 0;
    for (std::size_t i = 0; i < outstanding_.size();) {
      Pending& p = outstanding_[i];
      const bool ready =
          p.plan.kind == kSample
              ? p.sample.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready
              : p.eval.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
      if (!ready) {
        ++i;
        continue;
      }
      const std::uint64_t done_ns = now_ns();
      try {
        SpotCheck kept{p.plan, {}, {}};
        if (p.plan.kind == kSample)
          kept.sample_rows = p.sample.get().samples;
        else
          kept.values = p.eval.get().values;
        done_.push_back({p.plan.kind, p.plan.segment,
                         double(done_ns - p.due_abs_ns) * 1e-6,
                         p.plan.due_ns, done_ns});
        if (p.plan.segment == kReferenceSegment &&
            spot_counts_[p.plan.kind] < kSpotChecks) {
          ++spot_counts_[p.plan.kind];
          spots_.push_back(std::move(kept));
        }
      } catch (const std::exception&) {
        ++errored_;  // failed through the future (deadline, engine error)
      }
      outstanding_[i] = std::move(outstanding_.back());
      outstanding_.pop_back();
      ++finished;
    }
    return finished;
  }

  /// Open loop: submit each planned request at its due time, timing its
  /// latency from that due time.
  void open_loop(const std::vector<Planned>& plan) {
    const std::uint64_t start = now_ns() + 1'000'000;
    std::size_t next = 0;
    while (next < plan.size() || !outstanding_.empty()) {
      std::uint64_t now = now_ns();
      while (next < plan.size() && now >= start + plan[next].due_ns) {
        const std::uint64_t due = start + plan[next].due_ns;
        lag_ms_[plan[next].segment].push_back(double(now - due) * 1e-6);
        submit(plan[next], due);
        ++next;
        now = now_ns();
      }
      sweep();
      const std::uint64_t wake =
          next < plan.size() ? start + plan[next].due_ns : now + 50'000;
      now = now_ns();
      if (wake > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::uint64_t>(wake - now, 50'000)));
    }
  }

  /// Closed loop: keep kClosedLoopClients requests outstanding for
  /// `seconds`; returns the completion rate (1/s) of each kWindowS slice.
  std::vector<double> closed_loop(RequestStream& stream, double seconds) {
    const std::size_t done_before = done_.size();
    const std::uint64_t start = now_ns();
    const std::uint64_t stop = start + std::uint64_t(seconds * 1e9);
    for (std::uint64_t now = start; now < stop; now = now_ns()) {
      while (outstanding_.size() < kClosedLoopClients) {
        Planned p = stream.next();
        p.segment = kNumSegments;
        submit(p, now_ns());
      }
      if (sweep() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    const std::size_t windows =
        std::max<std::size_t>(1, std::size_t(seconds / kWindowS));
    std::vector<double> rates(windows, 0.0);
    for (std::size_t i = done_before; i < done_.size(); ++i) {
      const std::size_t w =
          std::size_t(double(done_[i].done_ns - start) * 1e-9 / kWindowS);
      if (w < windows) rates[w] += 1 / kWindowS;
    }
    while (!outstanding_.empty()) {
      sweep();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return rates;
  }

  std::uint64_t sent_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t errored_ = 0;
  std::vector<Done> done_;
  std::vector<double> lag_ms_[kNumSegments];
  std::vector<SpotCheck> spots_;

 private:
  ServeSetup& setup_;
  std::vector<Pending> outstanding_;
  int spot_counts_[kNumKinds] = {0, 0, 0};
};

std::vector<Planned> open_loop_plan(RequestStream& stream, std::uint64_t seed,
                                    double seconds) {
  vqmc::rng::Xoshiro256 gen(derive_seed(seed, 11));
  std::vector<Planned> plan;
  double t = 0;
  for (int s = 0; s < kNumSegments; ++s) {
    const double end = t + kSegments[s].share * seconds;
    for (;;) {
      t += -std::log1p(-vqmc::rng::uniform01(gen)) / kSegments[s].rate();
      if (t >= end) break;
      Planned p = stream.next();
      p.due_ns = std::uint64_t(t * 1e9);
      p.segment = s;
      plan.push_back(p);
    }
    t = end;
  }
  return plan;
}

std::vector<double> latencies(const std::vector<Done>& done, int segment,
                              int kind) {
  std::vector<double> out;
  for (const Done& d : done)
    if (d.segment == segment && (kind < 0 || d.kind == kind))
      out.push_back(d.latency_ms);
  return out;
}

/// Backlog grows when requests due in the last quarter of a segment wait
/// far longer than those due in its first quarter.
bool backlog_grows(const std::vector<Done>& done, int segment) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const Done& d : done)
    if (d.segment == segment) {
      lo = std::min(lo, d.due_ns);
      hi = std::max(hi, d.due_ns);
    }
  std::vector<double> first, last;
  const std::uint64_t quarter = (hi - lo) / 4;
  for (const Done& d : done) {
    if (d.segment != segment) continue;
    if (d.due_ns < lo + quarter) first.push_back(d.latency_ms);
    if (d.due_ns >= hi - quarter) last.push_back(d.latency_ms);
  }
  if (first.empty() || last.empty()) return false;
  return median(last) > 2 * median(first) + 5;
}

/// Warm every kind's path once (first-touch allocations, worker scratch).
void warm_up(ServeSetup& s) {
  for (int i = 0; i < 4; ++i) {
    s.engine->submit_sample(kRows[kSample], std::uint64_t(i)).get();
    s.engine->submit_log_psi(rows_of(s.pool, 0, kRows[kLogPsi])).get();
  }
  s.engine->submit_local_energy(rows_of(s.pool, 0, kRows[kLocalEnergy])).get();
}

std::uint64_t batches_of(int kind) {
  const auto snap = vqmc::telemetry::metrics().snapshot();
  const auto* c =
      snap.find_counter(std::string("serve.batches.") + kKindNames[kind]);
  return c == nullptr ? 0 : c->value;
}

/// Median wall time (ms) of `reps` calls of `call`.
template <typename Call>
double timed_median_ms(int reps, Call&& call) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    call();
    ms.push_back(t.milliseconds());
  }
  return median(ms);
}

}  // namespace

RunReport run_serve(std::uint64_t seed, double seconds, bool trace,
                    Part part) {
  RunReport report;
  report.workload = "serve1000_mixed";
  report.note("workers", std::to_string(kWorkers));
  report.note("omp_threads_requested", std::getenv("OMP_NUM_THREADS")
                                           ? std::getenv("OMP_NUM_THREADS")
                                           : "unset");

  std::unique_ptr<ServeSetup> setup;
  auto set_up = [&] {
    setup = make_setup(seed);
    warm_up(*setup);
  };
  if (part == Part::Setup) {
    std::vector<double> setup_s;
    for (int s = 0; s < kSetups; ++s) {
      setup.reset();
      release_freed_memory();
      Timer timer;
      set_up();
      setup_s.push_back(timer.seconds());
    }
    report.add("setup_s", median(setup_s), "s");
    return report;
  }
  set_up();
  // This thread sleeps between due times and polls completions; the default
  // 50 us timer slack would add that much jitter to every latency.
  prctl(PR_SET_TIMERSLACK, 1000UL);

  RequestStream stream(seed, setup->pool.rows());
  const double open_seconds = seconds * (1 - kClosedLoopShare);
  const std::vector<Planned> plan = open_loop_plan(stream, seed, open_seconds);
  std::uint64_t batches_before[kNumKinds];
  for (int k = 0; k < kNumKinds; ++k) batches_before[k] = batches_of(k);
  const vqmc::serve::EngineCounters counters_before = setup->engine->counters();

  LoadGenerator load(*setup);
  load.open_loop(plan);
  std::uint64_t batches[kNumKinds];
  for (int k = 0; k < kNumKinds; ++k)
    batches[k] = batches_of(k) - batches_before[k];
  const std::vector<double> closed_loop_rates =
      load.closed_loop(stream, seconds * kClosedLoopShare);
  const double capacity_rps = mean(closed_loop_rates);

  setup->engine->drain();

  // Accounting and correctness.
  const vqmc::serve::EngineCounters counters = setup->engine->counters();
  report.attempted = load.sent_ + load.refused_;
  report.failed = load.refused_ + load.errored_ +
                  (counters.failed - counters_before.failed);
  report.check(counters.submitted == counters.completed + counters.failed,
               "submitted == completed + failed after drain");
  report.check(report.failed == 0, "no request failed, shed or was refused");
  const double lag_p99 = quantile(load.lag_ms_[kReferenceSegment], 0.99);
  for (int s = 0; s < kNumSegments; ++s)
    report.note("generator_lag_ms_p99_at_" +
                    std::to_string(int(kSegments[s].rate())) + "rps",
                std::to_string(quantile(load.lag_ms_[s], 0.99)));
  const std::vector<double> reference =
      latencies(load.done_, kReferenceSegment, -1);
  report.check(lag_p99 <= kMaxGeneratorLagShare * quantile(reference, 0.99),
               "generator lag p99 within a quarter of the p99 latency at "
               "the reference rate (run valid)");
  const vqmc::Made& model = setup->snapshot->model();
  int spot_ok[kNumKinds] = {0, 0, 0};
  int spot_seen[kNumKinds] = {0, 0, 0};
  for (const SpotCheck& spot : load.spots_) {
    const int kind = spot.plan.kind;
    ++spot_seen[kind];
    if (kind == kSample) {
      vqmc::FastMadeSampler sampler(model, spot.plan.seed);
      Matrix expect(kRows[kSample], kSpins);
      sampler.sample(expect);
      spot_ok[kind] += std::memcmp(expect.data(), spot.sample_rows.data(),
                                   expect.size() * sizeof(Real)) == 0;
      continue;
    }
    const Matrix configs = rows_of(setup->pool, spot.plan.config, kRows[kind]);
    std::vector<Real> expect(configs.rows());
    if (kind == kLogPsi) {
      setup->snapshot->log_psi(configs, expect);
      spot_ok[kind] += expect == spot.values;
    } else {
      vqmc::LocalEnergyEngine engine(*setup->hamiltonian, model);
      engine.compute(configs, expect);
      bool ok = true;
      for (std::size_t i = 0; i < expect.size(); ++i)
        ok = ok && close_to(double(spot.values[i]), double(expect[i]), 1e-9);
      spot_ok[kind] += ok;
    }
  }
  report.check(spot_seen[kSample] > 0 && spot_ok[kSample] == spot_seen[kSample],
               "sample rows bit-identical to FastMadeSampler (" +
                   std::to_string(spot_seen[kSample]) + " requests)");
  report.check(spot_seen[kLogPsi] > 0 && spot_ok[kLogPsi] == spot_seen[kLogPsi],
               "log_psi equal to direct ModelSnapshot::log_psi (" +
                   std::to_string(spot_seen[kLogPsi]) + " requests)");
  report.check(spot_seen[kLocalEnergy] > 0 &&
                   spot_ok[kLocalEnergy] == spot_seen[kLocalEnergy],
               "local_energy within 1e-9 of a direct LocalEnergyEngine (" +
                   std::to_string(spot_seen[kLocalEnergy]) + " requests)");

  const double reference_rps = kSegments[kReferenceSegment].rate();
  report.note("reference_rate_rps", std::to_string(reference_rps));
  report.note("reference_share_of_measured_capacity",
              std::to_string(reference_rps / capacity_rps));
  report.note("overload_share_of_measured_capacity",
              std::to_string(kSegments[kNumSegments - 1].rate() / capacity_rps));
  report.note("reference_requests", std::to_string(reference.size()));
  for (int k = 0; k < kNumKinds; ++k)
    report.note(std::string(kKindNames[k]) + "_latency_ms_p10",
                std::to_string(quantile(
                    latencies(load.done_, kReferenceSegment, k), 0.1)));
  if (!trace) {
    add_end_to_end(report, closed_loop_rates, capacity_rps, reference, 0.99);
    return report;
  }

  // Per-kind latency at the reference rate and the highest rate meeting
  // every kind's limit.
  double max_rate = 0;
  for (int s = 0; s < kNumSegments; ++s) {
    bool meets = !backlog_grows(load.done_, s);
    for (int k = 0; k < kNumKinds && meets; ++k) {
      const std::vector<double> l = latencies(load.done_, s, k);
      meets = !l.empty() && quantile(l, kTailLevel[k]) <= kLimitMs[k];
    }
    if (meets) max_rate = std::max(max_rate, kSegments[s].rate());
  }
  double latency_p50[kNumKinds];
  for (int k = 0; k < kNumKinds; ++k) {
    const std::vector<double> l = latencies(load.done_, kReferenceSegment, k);
    latency_p50[k] = median(l);
    report.add(std::string("serve.") + kKindNames[k] + ".latency_ms_p50",
               latency_p50[k], "ms");
    report.add(std::string("serve.") + kKindNames[k] + ".latency_ms_" +
                   tail_label(kTailLevel[k]),
               quantile(l, kTailLevel[k]), "ms");
  }
  report.add("serve.max_rate_rps", max_rate, "req/s");

  // Direct timed calls at each kind's observed mean batch size.
  double requests[kNumKinds] = {0, 0, 0};
  for (const Planned& p : plan) requests[p.kind] += 1;
  double compute_ms[kNumKinds];
  std::size_t sample_batch_rows = 0;
  double rows_total = 0, batches_total = 0, busy_ms = 0;
  vqmc::Made::Workspace ws;
  for (int k = 0; k < kNumKinds; ++k) {
    const double rows = requests[k] * double(kRows[k]);
    const std::size_t batch_rows = std::max<std::size_t>(
        1, std::size_t(std::llround(rows / double(std::max<std::uint64_t>(
                                               batches[k], 1)))));
    const std::size_t reqs = std::max<std::size_t>(1, batch_rows / kRows[k]);
    rows_total += rows;
    batches_total += double(batches[k]);
    if (k == kSample) {
      sample_batch_rows = reqs * kRows[k];
      Matrix out(sample_batch_rows, kSpins);
      std::vector<vqmc::rng::Xoshiro256> gens;
      for (std::size_t r = 0; r < reqs; ++r) gens.emplace_back(r);
      std::vector<serve::ModelSnapshot::SampleSlice> slices;
      for (std::size_t r = 0; r < reqs; ++r)
        slices.push_back({r * kRows[k], kRows[k], &gens[r]});
      compute_ms[k] = timed_median_ms(
          15, [&] { setup->snapshot->sample(out, slices, ws); });
    } else if (k == kLogPsi) {
      const Matrix batch = rows_of(setup->pool, 0, batch_rows);
      std::vector<Real> out(batch_rows);
      compute_ms[k] =
          timed_median_ms(15, [&] { setup->snapshot->log_psi(batch, out, ws); });
    } else {
      const Matrix batch = rows_of(setup->pool, 0, batch_rows);
      std::vector<Real> out(batch_rows);
      compute_ms[k] = timed_median_ms(5, [&] {
        vqmc::LocalEnergyEngine engine(*setup->hamiltonian, model);
        engine.compute(batch, out);
      });
    }
    busy_ms += compute_ms[k] * double(batches[k]);
    report.add(std::string("serve.") + kKindNames[k] + ".compute_ms_per_batch",
               compute_ms[k], "ms");
    report.add(std::string("serve.") + kKindNames[k] + ".wait_ms_p50",
               latency_p50[k] - compute_ms[k], "ms");
  }
  double open_window_s = 0;
  for (int s = 0; s < kNumSegments; ++s)
    open_window_s += kSegments[s].share * open_seconds;
  const double mean_rows = rows_total / std::max(batches_total, 1.0);
  report.add("serve.batch_rows_mean", mean_rows, "rows");
  report.add("serve.batch_fill_frac",
             mean_rows / double(setup->engine->config().max_batch_rows),
             "fraction");
  report.add("serve.worker_busy_frac",
             busy_ms * 1e-3 / (double(kWorkers) * open_window_s), "fraction");
  report.add("serve.generator_lag_ms_p99", lag_p99, "ms");

  // The layers under a local-energy batch, through the decorators, at the
  // observed local-energy batch size; a sample batch is the sampler layer's
  // unit of work here.
  const std::size_t le_rows = std::max<std::size_t>(
      1, std::size_t(std::llround(requests[kLocalEnergy] /
                                  double(std::max<std::uint64_t>(
                                      batches[kLocalEnergy], 1)))));
  vqmc::Made model_copy = model;
  TracedModel traced_model(model_copy);
  const TracedHamiltonian traced_h(*setup->hamiltonian);
  const Matrix batch = rows_of(setup->pool, 0, le_rows);
  std::vector<Real> out(le_rows);
  std::vector<double> bare_ms, traced_ms, le_self, diag, enum_self, fwd, cover;
  double fwd_rows = 0, visits = 0;
  for (int rep = 0; rep < 10; ++rep) {
    Timer t;
    {
      vqmc::LocalEnergyEngine engine(*setup->hamiltonian, model_copy);
      engine.compute(batch, out);
    }
    bare_ms.push_back(t.milliseconds());
    const SpanSnapshot before = SpanLog::instance().snapshot();
    t.reset();
    {
      vqmc::LocalEnergyEngine engine(traced_h, traced_model);
      engine.compute(batch, out);
    }
    const double wall = t.milliseconds();
    const SpanSnapshot d = SpanLog::instance().snapshot().minus(before);
    traced_ms.push_back(wall);
    fwd.push_back(d[Layer::NnForward].total_ms());
    diag.push_back(d[Layer::Diagonal].total_ms());
    enum_self.push_back(d[Layer::Hamiltonian].self_ms());
    le_self.push_back(wall - fwd.back() - diag.back() - enum_self.back());
    cover.push_back(double(d.top_level_ns) * 1e-6 / wall);
    fwd_rows = double(d[Layer::NnForward].rows);
    visits = double(d[Layer::Visit].calls);
  }
  const double fwd_ms = median(fwd);
  const double h = double(model.hidden_size());
  const double nnz =
      double(model.w1_extents().nonzeros() + model.w2_extents().nonzeros());
  const double gflop = (2 * nnz + 3 * (h + kSpins)) * fwd_rows * 1e-9;
  // The sampler's own accounting of a sample batch of the same size.
  vqmc::FastMadeSampler counting(model, seed);
  Matrix drawn(sample_batch_rows, kSpins);
  counting.sample(drawn);
  report.add("sampler.ms_per_iter", compute_ms[kSample], "ms");
  report.add("sampler.forward_passes_per_iter",
             double(counting.statistics().forward_passes), "count");
  report.add("sampler.mcmc_accept_frac", 0, "fraction");
  report.add("local_energy.ms_per_iter", median(traced_ms), "ms");
  report.add("local_energy.rows_per_sample", fwd_rows / double(le_rows),
             "count");
  report.add("local_energy.self_ms_per_iter", median(le_self), "ms");
  report.add("hamiltonian.diagonal_ms_per_iter", median(diag), "ms");
  report.add("hamiltonian.enumerate_self_ms_per_iter", median(enum_self), "ms");
  report.add("hamiltonian.connected_per_sample", visits / double(le_rows),
             "count");
  report.add("nn.forward_ms_per_iter", fwd_ms, "ms");
  report.add("nn.forward_rows_per_iter", fwd_rows, "count");
  report.add("nn.forward_us_per_row", fwd_ms * 1e3 / fwd_rows, "us");
  report.add("tensor.forward_gflop_per_iter", gflop, "GFLOP");
  report.add("tensor.forward_bytes_per_row", 8 * (2 * kSpins + 2 * h + 1), "B");
  report.add("tensor.forward_gflops", gflop / (fwd_ms * 1e-3), "GFLOP/s");
  report.add("trace.overhead_frac",
             quantile(traced_ms, 0.1) / quantile(bare_ms, 0.1) - 1,
             "fraction");
  report.add("trace.coverage_frac", median(cover), "fraction");
  // Serving neither trains nor reduces across ranks.
  report.add("nn.gradient_ms_per_iter", 0, "ms");
  report.add("optim.step_ms_per_iter", 0, "ms");
  add_unreached_parallel(report);
  report.note("per_iter_unit", "one micro-batch of the kind");
  return report;
}

}  // namespace perfbench
