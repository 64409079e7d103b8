// qcbench: the repository benchmark program.
//
// Runs one workload against the public API of qc::core::Quancurrent (plus
// qc::sequential::QuantilesSketch, core/run_merge.hpp and core/batch_sort.hpp
// for the layer replay) and prints one JSON object on stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}, "info": {..}}
//
// perfbench/run.py builds this program, runs it and reduces that object to
// the benchmark's result line.  Workloads, metrics and the layer map are
// described in perfbench/README.md.
//
// Usage:
//   qcbench --workload ingest_1t|ingest_mt|mixed|query_idle --seed N
//           --seconds S --trace 0|1 [--inject-ns N]
//
// --trace 0 times the workload with Options::collect_stats=false and no
// benchmark-side spans, and reports the end-to-end metrics.  --trace 1 spends
// half the time untraced and half traced (collect_stats=true, spans around
// every public call), replays the workload's input through each ingest
// layer single-threaded, and reports the per-layer metrics.  --inject-ns
// busy-waits that long after every Updater::update(span) call; it exists
// only for the sensitivity check (perfbench/check.py sensitivity).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/batch_sort.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "sequential/quantiles_sketch.hpp"

#ifndef QCBENCH_FLAGS
#define QCBENCH_FLAGS "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using Sketch = qc::core::Quancurrent<double>;

// Sizes.  A 10M-item stream (the paper's) takes ~0.4 s to ingest on one
// thread at k=4096, so a 20 s run times ~40 whole-stream repetitions.  It is
// deliberately not a power-of-two multiple of the 2k batch: 1220 batches
// leave several ladder levels occupied (22,144 retained items at k=4096),
// where 1024 batches would collapse into a single run.
constexpr std::size_t kStreamItems = 10'000'000;
constexpr std::size_t kMixedPrefill = std::size_t{1} << 22;
constexpr std::size_t kSpan = 1024;           // items per Updater::update call
constexpr int kGridPoints = 99;               // phi = 0.01 .. 0.99
constexpr int kSetups = 7;                    // set-up repetitions per run
constexpr std::size_t kIdlePhis = 1024;       // distinct phis in query_idle
constexpr std::size_t kIdleBatch = 16;        // queries per idle latency sample
constexpr std::size_t kIdleSampleEvery = 8;   // record 1 batch in 8
constexpr double kIdleRepSeconds = 0.25;
constexpr double kPostIngestQuerySeconds = 0.05;  // query burst after each ingest
constexpr double kMixedSliceSeconds = 0.1;
constexpr double kMixedWindowSeconds = 1.0;   // latency window
constexpr double kMixedWarmupSeconds = 0.5;   // load runs, nothing recorded
constexpr double kMixedQueryPeriodUs = 1000.0;  // per querier, open loop
constexpr std::uint32_t kMixedQueriers = 2;
constexpr std::size_t kTraceSampleEvery = 256;  // traced idle spans: 1 in 256
constexpr int kReplayPasses = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Spin-wait hint, so a spinning thread leaves its core's sibling alone.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void spin_for_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto until = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < until) {
  }
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample set.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> make_stream(std::size_t n, std::uint64_t seed) {
  qc::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_double();
  return v;
}

double grid_phi(int i) { return static_cast<double>(i + 1) / (kGridPoints + 1); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ----- correctness ---------------------------------------------------------

// Every timed operation is attempted; every failed check is one failed
// operation.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_rank_error = 0.0;     // reported in info, never as a metric
  double rank_error_bound = 0.0;
  std::uint64_t max_hidden = 0;    // mixed: largest hidden count seen
  std::uint64_t hidden_bound = 0;  // mixed: the engine's documented bound

  void check(bool ok, const char* what) {
    if (ok) return;
    ++failed;
    if (failed <= 8) std::fprintf(stderr, "qcbench: check failed: %s\n", what);
  }

  void fail_many(std::uint64_t n, const char* what) {
    if (n == 0) return;
    failed += n;
    std::fprintf(stderr, "qcbench: check failed %llu times: %s\n",
                 static_cast<unsigned long long>(n), what);
  }

  void rank_error(double err, double bound) {
    max_rank_error = std::max(max_rank_error, err);
    rank_error_bound = bound;
    check(err <= bound, "rank error within 12/k");
  }
};

double rank_bound(std::uint32_t k) { return 12.0 / static_cast<double>(k); }

// Exact ranks of a stream, from a sorted copy (one sort per run; each rank
// is then a binary search).
class ExactRanks {
 public:
  explicit ExactRanks(const std::vector<double>& data) : sorted_(data) {
    std::sort(sorted_.begin(), sorted_.end());
  }
  double error(double answer, double phi) const {
    const auto below = std::lower_bound(sorted_.begin(), sorted_.end(), answer) - sorted_.begin();
    return std::fabs(static_cast<double>(below) / static_cast<double>(sorted_.size()) - phi);
  }

 private:
  std::vector<double> sorted_;
};

// One weighted slice of an input: every item in `items` was ingested `times`
// times.
struct InputPart {
  std::span<const double> items;
  std::uint64_t times;
};

// For each answer, the number of ingested items strictly below it: one pass
// over the input, each item binary-searched among the sorted answers.
std::vector<std::uint64_t> count_below(const std::vector<double>& answers,
                                       const std::vector<InputPart>& parts) {
  std::vector<double> sorted = answers;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> diff(sorted.size() + 1, 0);
  for (const InputPart& p : parts) {
    if (p.times == 0) continue;
    for (const double x : p.items) {
      diff[static_cast<std::size_t>(std::upper_bound(sorted.begin(), sorted.end(), x) -
                                    sorted.begin())] += p.times;
    }
  }
  std::vector<std::uint64_t> below_sorted(sorted.size());
  std::uint64_t run = 0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    run += diff[j];
    below_sorted[j] = run;
  }
  std::vector<std::uint64_t> out(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto j = std::lower_bound(sorted.begin(), sorted.end(), answers[i]) - sorted.begin();
    out[i] = below_sorted[static_cast<std::size_t>(j)];
  }
  return out;
}

// ----- results --------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Result {
  Ledger ledger;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;

  void put(const std::string& name, double value, const char* unit) {
    metrics[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
};

// Per-layer counters shared by every workload, accumulated from stats() and
// ibr_stats() deltas of the traced phase.
struct LayerCounters {
  qc::core::Stats st;
  std::uint64_t ibr_scans = 0;
  std::uint64_t ibr_allocated = 0;
  std::uint64_t ibr_reused = 0;
  std::uint64_t ibr_peak_unreclaimed = 0;
  std::uint64_t ibr_live_blocks = 0;
  std::uint64_t sketches = 0;  // scans are reported per sketch

  void add(const qc::core::Stats& a, const qc::core::Stats& b, const qc::core::IbrStats& ia,
           const qc::core::IbrStats& ib) {
    st.batches += b.batches - a.batches;
    st.propagations += b.propagations - a.propagations;
    st.holes += b.holes - a.holes;
    st.query_retries += b.query_retries - a.query_retries;
    st.gather_waits += b.gather_waits - a.gather_waits;
    st.latch_spins += b.latch_spins - a.latch_spins;
    st.installs += b.installs - a.installs;
    st.queue_full_waits += b.queue_full_waits - a.queue_full_waits;
    st.latch_holds += b.latch_holds - a.latch_holds;
    st.latch_hold_total_ns += b.latch_hold_total_ns - a.latch_hold_total_ns;
    st.latch_max_hold_ns = std::max(st.latch_max_hold_ns, b.latch_max_hold_ns);
    ibr_scans += ib.scans - ia.scans;
    ibr_allocated += ib.allocated - ia.allocated;
    ibr_reused += ib.reused - ia.reused;
    ibr_peak_unreclaimed = std::max(ibr_peak_unreclaimed, ib.peak_unreclaimed);
    ibr_live_blocks = ib.live_blocks();
    ++sketches;
  }

  void report(Result& r) const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.put("gather.waits_per_batch", ratio(d(st.gather_waits), d(st.batches)), "ratio");
    r.put("latch.failed_per_install", ratio(d(st.latch_spins), d(st.installs)), "ratio");
    r.put("latch.hold_ns_mean", ratio(d(st.latch_hold_total_ns), d(st.latch_holds)), "ns");
    r.put("latch.max_hold_ns", d(st.latch_max_hold_ns), "ns");
    r.put("install.batches_per_group", ratio(d(st.batches), d(st.installs)), "ratio");
    r.put("install.queue_full_waits", d(st.queue_full_waits), "count");
    r.put("cascade.propagations_per_batch", ratio(d(st.propagations), d(st.batches)), "ratio");
    r.put("ibr.scans", ratio(d(ibr_scans), d(sketches)), "count");
    r.put("ibr.reuse_ratio", ratio(d(ibr_reused), d(ibr_allocated + ibr_reused)), "ratio");
    r.put("ibr.peak_unreclaimed", d(ibr_peak_unreclaimed), "count");
    r.put("ibr.live_blocks", d(ibr_live_blocks), "count");
  }
};

// Benchmark-side spans around public query calls.
struct QuerySpans {
  std::vector<double> refresh_ns;
  std::vector<double> quantile_ns;
  std::vector<double> wait_ns;
  std::uint64_t refreshes = 0;
  std::uint64_t rebuilds = 0;  // refreshes whose version() changed
  std::uint64_t queries = 0;

  void absorb(const QuerySpans& o) {
    refresh_ns.insert(refresh_ns.end(), o.refresh_ns.begin(), o.refresh_ns.end());
    quantile_ns.insert(quantile_ns.end(), o.quantile_ns.begin(), o.quantile_ns.end());
    wait_ns.insert(wait_ns.end(), o.wait_ns.begin(), o.wait_ns.end());
    refreshes += o.refreshes;
    rebuilds += o.rebuilds;
    queries += o.queries;
  }

  void report(Result& r, const qc::core::Stats& st) const {
    r.put("querier.refresh_us_p50", percentile(refresh_ns, 0.5) / 1e3, "us");
    r.put("querier.refresh_us_p99", percentile(refresh_ns, 0.99) / 1e3, "us");
    r.put("querier.rebuild_ratio",
          ratio(static_cast<double>(rebuilds), static_cast<double>(refreshes)), "ratio");
    r.put("querier.wait_us_p99", percentile(wait_ns, 0.99) / 1e3, "us");
    r.put("querier.retries_per_query",
          ratio(static_cast<double>(st.query_retries), static_cast<double>(queries)), "ratio");
    r.put("querier.holes_per_query",
          ratio(static_cast<double>(st.holes), static_cast<double>(queries)), "ratio");
    r.put("search.quantile_ns", percentile(quantile_ns, 0.5), "ns");
  }
};

// Benchmark-side spans around public ingest calls.
struct UpdateSpans {
  std::vector<double> ns_per_item;  // one per Updater::update(span) call
  double quiesce_ns_total = 0.0;
  std::uint64_t quiesces = 0;

  void absorb(const UpdateSpans& o) {
    ns_per_item.insert(ns_per_item.end(), o.ns_per_item.begin(), o.ns_per_item.end());
    quiesce_ns_total += o.quiesce_ns_total;
    quiesces += o.quiesces;
  }

  void report(Result& r) const {
    r.put("updater.update_ns_per_item_p50", percentile(ns_per_item, 0.5), "ns");
    r.put("updater.update_ns_per_item_p99", percentile(ns_per_item, 0.99), "ns");
    r.put("updater.quiesce_ms",
          ratio(quiesce_ns_total, static_cast<double>(quiesces)) / 1e6, "ms");
  }
};

// ----- shared pieces --------------------------------------------------------

qc::core::Options options_for(std::uint32_t k, bool collect_stats) {
  qc::core::Options o;
  o.k = k;
  o.b = 16;
  o.collect_stats = collect_stats;
  return o;
}

// Feeds items[0, n) through `u` in kSpan-item update calls; with `spans`
// set, records each call's duration per item.
void feed(Sketch::Updater& u, const double* items, std::size_t n, std::uint64_t inject_ns,
          UpdateSpans* spans) {
  for (std::size_t off = 0; off < n; off += kSpan) {
    const std::size_t len = std::min(kSpan, n - off);
    if (spans != nullptr) {
      const auto t0 = Clock::now();
      u.update(std::span<const double>(items + off, len));
      spans->ns_per_item.push_back(ns_between(t0, Clock::now()) / static_cast<double>(len));
    } else {
      u.update(std::span<const double>(items + off, len));
    }
    spin_for_ns(inject_ns);
  }
}

// Ingests `data` into `sk` from `threads` closed-loop updaters (contiguous
// slices), then quiesces; returns Mop/s from the first update call to the
// return of quiesce().
double ingest(Sketch& sk, const std::vector<double>& data, std::uint32_t threads,
                    std::uint64_t inject_ns, UpdateSpans* spans) {
  std::vector<UpdateSpans> per_thread(threads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const std::size_t n = data.size();
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t begin = n * t / threads;
      const std::size_t end = n * (t + 1) / threads;
      auto u = sk.make_updater(t);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      feed(u, data.data() + begin, end - begin, inject_ns,
           spans != nullptr ? &per_thread[t] : nullptr);
    });  // ~Updater drains the partial local buffer
  }
  while (ready.load(std::memory_order_acquire) != threads) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto tq = Clock::now();
  sk.quiesce();
  const auto t1 = Clock::now();
  if (spans != nullptr) {
    for (const auto& s : per_thread) spans->absorb(s);
    spans->quiesce_ns_total += ns_between(tq, t1);
    ++spans->quiesces;
  }
  return static_cast<double>(n) / seconds_between(t0, t1) / 1e6;
}

void check_size(Ledger& ledger, const Sketch& sk, std::uint64_t expected) {
  ledger.check(sk.size() == expected, "size() after quiesce equals items ingested");
  ledger.check(sk.stats().oom_dropped_items == 0, "no items dropped on allocation failure");
}

// Rank error of the 99-point grid against exact ranks.
void check_grid(Ledger& ledger, Sketch& sk, const ExactRanks& exact) {
  auto q = sk.make_querier();
  const double bound = rank_bound(sk.options().k);
  for (int i = 0; i < kGridPoints; ++i) {
    ledger.rank_error(exact.error(q.quantile(grid_phi(i)), grid_phi(i)), bound);
  }
}

// ----- layer replay (traced runs) -------------------------------------------

// Pushes the workload's own input through each ingest layer's public entry
// point, single-threaded: batch_sort on each b-chunk, ChunkMerger on each
// 2k batch of presorted chunks, and install_combine x enqueue_batch +
// drain_installs() into a fresh sketch.
void layer_replay(const std::vector<double>& data, const qc::core::Options& base,
                  double measured_ns_per_item, Result& r) {
  qc::core::Options o = base;
  o.collect_stats = false;
  o.normalize();
  const std::size_t b = o.b;
  const std::size_t batch = 2 * static_cast<std::size_t>(o.k);
  const std::size_t n = data.size() / batch * batch;

  std::vector<double> chunks(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<double> aux;
  std::vector<double> sort_ns;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n), chunks.begin());
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < n; off += b) {
      qc::core::batch_sort(std::span<double>(chunks.data() + off, b), aux);
    }
    sort_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(n));
  }

  std::vector<double> batches(n);
  std::vector<double> merge_ns;
  qc::core::ChunkMerger<double> merger;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < n; off += batch) {
      merger.merge(std::span<const double>(chunks.data() + off, batch), b,
                   std::span<double>(batches.data() + off, batch));
    }
    merge_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(n));
  }

  std::vector<double> install_ns;
  const std::size_t group = o.install_combine;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Sketch sk(o);
    const auto t0 = Clock::now();
    std::size_t pending = 0;
    for (std::size_t off = 0; off < n; off += batch) {
      sk.enqueue_batch(std::span<const double>(batches.data() + off, batch));
      if (++pending == group) {
        sk.drain_installs();
        pending = 0;
      }
    }
    sk.drain_installs();
    install_ns.push_back(ns_between(t0, Clock::now()) / static_cast<double>(n / batch));
  }

  const double sort_item = median(sort_ns);
  const double merge_item = median(merge_ns);
  const double install_batch = median(install_ns);
  const double replay_item = sort_item + merge_item + install_batch / static_cast<double>(batch);
  r.put("batch_sort.ns_per_item", sort_item, "ns");
  r.put("run_merge.chunk_merge_ns_per_item", merge_item, "ns");
  r.put("install.ns_per_batch", install_batch, "ns");
  r.put("closure.replay_ns_per_item", replay_item, "ns");
  r.put("closure.measured_ns_per_item", measured_ns_per_item, "ns");
  r.put("closure.ratio", ratio(replay_item, measured_ns_per_item), "ratio");
}

// refresh_full() on a quiesced sketch: the summary build alone.
void summary_build(Sketch& sk, Result& r) {
  auto q = sk.make_querier();
  std::vector<double> us;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    q.refresh_full();
    us.push_back(ns_between(t0, Clock::now()) / 1e3);
  }
  r.put("run_merge.summary_build_us", median(us), "us");
  r.put("sketch.retained_items", static_cast<double>(sk.retained()), "count");
}

// The sequential sketch on the same stream: the paper's speedup reference.
void sequential_reference(const std::vector<double>& data, std::uint32_t k,
                          const ExactRanks& exact, Ledger& ledger, Result& r) {
  std::vector<double> mops;
  for (int pass = 0; pass < 2; ++pass) {
    qc::sequential::QuantilesSketch<double> seq(k);
    const auto t0 = Clock::now();
    for (const double v : data) seq.update(v);
    mops.push_back(static_cast<double>(data.size()) / seconds_between(t0, Clock::now()) / 1e6);
    ledger.check(seq.size() == data.size(), "sequential sketch size");
    for (int i = 0; i < kGridPoints; ++i) {
      ledger.rank_error(exact.error(seq.quantile(grid_phi(i)), grid_phi(i)), rank_bound(k));
    }
  }
  r.put("sequential.update_mops", median(mops), "Mop/s");
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t inject_ns = 0;
  std::uint32_t threads = 4;  // min(4, nproc)
};

// Latency percentiles of one window of samples.
struct LatencyWindow {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::size_t samples = 0;
};

LatencyWindow summarize(const std::vector<double>& samples) {
  return {percentile(samples, 0.5), percentile(samples, 0.99), samples.size()};
}

// Reports the end-to-end query metrics from latency windows of at least 1000
// samples (10 beyond p99): each percentile is the median over windows of
// that window's percentile, so a host stall that lands in a few windows
// does not move it.
void put_query_metrics(Result& r, const std::vector<LatencyWindow>& windows, double mops) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t samples = 0;
  std::size_t smallest = windows.empty() ? 0 : windows.front().samples;
  for (const LatencyWindow& w : windows) {
    p50.push_back(w.p50_ns);
    p99.push_back(w.p99_ns);
    samples += w.samples;
    smallest = std::min(smallest, w.samples);
  }
  r.put("query_p50_us", median(p50) / 1e3, "us");
  r.put("query_p99_us", median(p99) / 1e3, "us");
  r.put("query_mops", mops, "Mop/s");
  r.info["query_samples"] = static_cast<double>(samples);
  r.info["query_windows"] = static_cast<double>(windows.size());
  r.info["query_window_min_samples"] = static_cast<double>(smallest);
  r.info["query_window_p99_max_us"] = percentile(p99, 1.0) / 1e3;
}

// ----- closed-loop queries on a quiesced sketch ---------------------------

struct IdleRep {
  double mops = 0.0;
  std::vector<double> batch_ns_per_query;  // per thread; only `window` is kept
  LatencyWindow window;
  QuerySpans spans;
  std::uint64_t wrong = 0;
  std::uint64_t queries = 0;
};

// `threads` closed-loop queriers, each running refresh() + quantile(phi)
// for `seconds`; every answer is compared with the reference answer
// for its phi.  Untraced, one batch of kIdleBatch queries in
// kIdleSampleEvery is timed; traced, refresh() and quantile() are spanned
// individually on one query in kTraceSampleEvery.  Only the latency window
// of the timed batches is kept.
IdleRep idle_rep(Sketch& sk, std::uint32_t threads, double seconds,
                 const std::vector<double>& phis, const std::vector<double>& ref, bool traced,
                 std::uint64_t seed) {
  IdleRep rep;
  std::vector<IdleRep> per_thread(threads);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      IdleRep& out = per_thread[t];
      auto q = sk.make_querier();
      std::size_t j = static_cast<std::size_t>((seed + 131 * t) % kIdlePhis);
      std::uint64_t batches = 0;
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto prev_end = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        if (traced) {
          for (std::size_t i = 0; i < kIdleBatch; ++i) {
            const std::uint64_t nth = (out.queries + i) % kTraceSampleEvery;
            if (nth == 0) {
              const auto start = Clock::now();
              const std::uint64_t ver = q.version();
              q.refresh();
              const auto mid = Clock::now();
              const double v = q.quantile(phis[j]);
              const auto end = Clock::now();
              out.spans.refresh_ns.push_back(ns_between(start, mid));
              out.spans.quantile_ns.push_back(ns_between(mid, end));
              out.spans.wait_ns.push_back(ns_between(prev_end, start));
              out.spans.rebuilds += q.version() != ver ? 1 : 0;
              ++out.spans.refreshes;
              out.wrong += v != ref[j] ? 1 : 0;
              prev_end = end;
            } else {
              // The query before a sampled one stamps its end, so the
              // sample's wait is the closed loop's gap between queries.
              q.refresh();
              out.wrong += q.quantile(phis[j]) != ref[j] ? 1 : 0;
              if (nth == kTraceSampleEvery - 1) prev_end = Clock::now();
            }
            j = (j + 1) % kIdlePhis;
          }
        } else if (++batches % kIdleSampleEvery == 0) {
          const auto start = Clock::now();
          for (std::size_t i = 0; i < kIdleBatch; ++i) {
            q.refresh();
            out.wrong += q.quantile(phis[j]) != ref[j] ? 1 : 0;
            j = (j + 1) % kIdlePhis;
          }
          out.batch_ns_per_query.push_back(ns_between(start, Clock::now()) / kIdleBatch);
        } else {
          for (std::size_t i = 0; i < kIdleBatch; ++i) {
            q.refresh();
            out.wrong += q.quantile(phis[j]) != ref[j] ? 1 : 0;
            j = (j + 1) % kIdlePhis;
          }
        }
        out.queries += kIdleBatch;
      }
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  const double secs = seconds_between(t0, Clock::now());
  std::vector<double> samples;
  for (const IdleRep& out : per_thread) {
    rep.queries += out.queries;
    rep.wrong += out.wrong;
    samples.insert(samples.end(), out.batch_ns_per_query.begin(), out.batch_ns_per_query.end());
    rep.spans.absorb(out.spans);
  }
  rep.window = summarize(samples);
  rep.spans.queries = rep.queries;
  rep.mops = static_cast<double>(rep.queries) / secs / 1e6;
  return rep;
}

// kIdlePhis seeded phis, and the reference answer of a quiesced sketch for
// each, checked against the exact ranks.  A closed-loop query on that sketch
// must reproduce its reference exactly.
std::vector<double> query_phis(std::uint64_t seed) {
  std::vector<double> phis(kIdlePhis);
  qc::Xoshiro256 rng(seed ^ 0x51ed270b27a1f3c5ULL);
  for (double& phi : phis) phi = 0.001 + 0.998 * rng.next_double();
  return phis;
}

std::vector<double> reference_answers(Sketch& sk, const std::vector<double>& phis,
                                      const ExactRanks& exact, Ledger& ledger) {
  auto q = sk.make_querier();
  std::vector<double> ref(phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    ref[i] = q.quantile(phis[i]);
    ledger.rank_error(exact.error(ref[i], phis[i]), rank_bound(sk.options().k));
  }
  return ref;
}

// Folds a query burst into the ledger: its queries are attempted, each
// answer that differs from its reference failed.
void account(Ledger& ledger, const IdleRep& rep) {
  ledger.attempted += rep.queries;
  ledger.fail_many(rep.wrong, "query answer equals the quiesced reference");
}

// ----- ingest_1t / ingest_mt -----------------------------------------------

// Per-repetition latency windows and the median throughput of query bursts.
std::vector<LatencyWindow> windows_of(const std::vector<IdleRep>& reps) {
  std::vector<LatencyWindow> out;
  for (const IdleRep& rep : reps) out.push_back(rep.window);
  return out;
}

double median_mops(const std::vector<IdleRep>& reps) {
  std::vector<double> mops;
  for (const IdleRep& rep : reps) mops.push_back(rep.mops);
  return median(mops);
}

void run_ingest(const Config& cfg, std::uint32_t threads, Result& r) {
  constexpr std::uint32_t k = 4096;
  std::vector<double> data;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    data = make_stream(kStreamItems, cfg.seed);
    Sketch sk(options_for(k, false));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const ExactRanks exact(data);
  const std::vector<double> phis = query_phis(cfg.seed);
  Ledger& ledger = r.ledger;

  // Times whole-stream repetitions, each into a fresh sketch and followed by
  // a kPostIngestQuerySeconds burst of closed-loop queries on it, until
  // `budget` seconds have passed; returns per-repetition Mop/s and keeps the
  // last sketch.
  const auto repetitions = [&](bool traced, double budget, UpdateSpans* spans,
                               LayerCounters* layers, std::vector<IdleRep>& bursts,
                               std::unique_ptr<Sketch>& last) {
    std::vector<double> mops;
    const auto start = Clock::now();
    while (mops.empty() || seconds_between(start, Clock::now()) < budget) {
      auto sk = std::make_unique<Sketch>(options_for(k, traced));
      const auto st0 = sk->stats();
      const auto ib0 = sk->ibr_stats();
      mops.push_back(ingest(*sk, data, threads, cfg.inject_ns, spans));
      ledger.attempted += (data.size() + kSpan - 1) / kSpan;
      if (layers != nullptr) layers->add(st0, sk->stats(), ib0, sk->ibr_stats());
      check_size(ledger, *sk, data.size());
      check_grid(ledger, *sk, exact);
      const std::vector<double> ref = reference_answers(*sk, phis, exact, ledger);
      bursts.push_back(idle_rep(*sk, 1, kPostIngestQuerySeconds, phis, ref, traced,
                                cfg.seed + mops.size()));
      account(ledger, bursts.back());
      last = std::move(sk);
    }
    return mops;
  };

  std::unique_ptr<Sketch> last;
  if (!cfg.trace) {
    std::vector<IdleRep> bursts;
    const auto mops = repetitions(false, cfg.seconds, nullptr, nullptr, bursts, last);
    r.put("update_mops", median(mops), "Mop/s");
    put_query_metrics(r, windows_of(bursts), median_mops(bursts));
    r.put("setup_s", median(setup_s), "s");
    r.info["repetitions"] = static_cast<double>(mops.size());
    r.info["retained_items"] = static_cast<double>(last->retained());
    return;
  }

  std::vector<IdleRep> plain_bursts;
  std::vector<IdleRep> traced_bursts;
  const auto plain = repetitions(false, cfg.seconds / 2, nullptr, nullptr, plain_bursts, last);
  UpdateSpans uspans;
  LayerCounters layers;
  const auto traced = repetitions(true, cfg.seconds / 2, &uspans, &layers, traced_bursts, last);
  QuerySpans qspans;
  for (const IdleRep& rep : traced_bursts) qspans.absorb(rep.spans);
  const double untraced_mops = median(plain);
  uspans.report(r);
  layers.report(r);
  qspans.report(r, layers.st);
  summary_build(*last, r);
  layer_replay(data, last->options(), 1e3 * threads / untraced_mops, r);
  sequential_reference(data, k, exact, ledger, r);
  r.put("tracing.overhead", 1.0 - median(traced) / untraced_mops, "ratio");
  r.info["repetitions"] = static_cast<double>(plain.size() + traced.size());
}

// ----- mixed ----------------------------------------------------------------

struct MixedWindow {
  std::vector<double> slice_mops;
  std::vector<std::vector<double>> latency_ns;  // per kMixedWindowSeconds window
  std::uint64_t fed = 0;      // items the updater ingested, warm-up included
  std::uint64_t queries = 0;  // queries in the measured window
  UpdateSpans uspans;
  QuerySpans qspans;
};

// One closed-loop updater cycling through `cycle` beside kMixedQueriers
// open-loop queriers, each issuing refresh() + quantile(phi) every
// kMixedQueryPeriodUs, timed from the moment the query was due.  The load
// runs kMixedWarmupSeconds before the `seconds` that are measured.
MixedWindow mixed_window(Sketch& sk, const std::vector<double>& cycle, std::uint64_t prefill,
                         double seconds, bool traced, const Config& cfg, Ledger& ledger) {
  MixedWindow w;
  const qc::core::Options& o = sk.options();
  const std::uint64_t batch = 2ull * o.k;
  // N*b + rho*S*2k + install_queue*2k, for N = 1 updater handle.
  const std::uint64_t bound = o.b + static_cast<std::uint64_t>(o.rho) * o.topology.nodes * batch +
                              static_cast<std::uint64_t>(o.install_queue) * batch;
  ledger.hidden_bound = bound;

  std::atomic<std::uint64_t> completed{prefill};
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;
  Clock::time_point measure_start;
  Clock::time_point measure_end;
  const auto span_of = [](double secs) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(secs));
  };
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kMixedWindowSeconds)));
  const auto window_len = span_of(seconds) / windows;

  struct QuerierOut {
    std::vector<std::vector<double>> latency_ns;
    QuerySpans spans;
    std::uint64_t failed_range = 0;
    std::uint64_t failed_hidden = 0;
    std::uint64_t max_hidden = 0;
    std::uint64_t attempted = 0;
  };
  std::vector<QuerierOut> qout(kMixedQueriers);
  for (QuerierOut& out : qout) out.latency_ns.resize(windows);
  std::vector<std::thread> pool;

  pool.emplace_back([&] {
    auto u = sk.make_updater(0);
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto slice = span_of(kMixedSliceSeconds);
    auto slice_start = measure_start;
    std::uint64_t slice_items = 0;
    std::size_t pos = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t len = std::min(kSpan, cycle.size() - pos);
      feed(u, cycle.data() + pos, len, cfg.inject_ns, traced ? &w.uspans : nullptr);
      pos = (pos + len) % cycle.size();
      w.fed += len;
      completed.store(prefill + w.fed, std::memory_order_release);
      const auto now = Clock::now();
      if (now < measure_start || now > measure_end) continue;
      slice_items += len;
      if (now - slice_start >= slice) {
        w.slice_mops.push_back(static_cast<double>(slice_items) /
                               seconds_between(slice_start, now) / 1e6);
        slice_start = now;
        slice_items = 0;
      }
    }
  });  // ~Updater drains into the tail

  for (std::uint32_t qi = 0; qi < kMixedQueriers; ++qi) {
    pool.emplace_back([&, qi] {
      QuerierOut& out = qout[qi];
      auto q = sk.make_querier();
      qc::Xoshiro256 rng(cfg.seed * 7919 + qi);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(kMixedQueryPeriodUs));
      // Stagger the queriers evenly across one period.
      auto due = t0 + period * (qi + 1) / kMixedQueriers;
      for (; due < measure_end; due += period) {
        // Spin, not sleep, until due: a sleeping querier's wake-up latency
        // on a loaded machine (up to a scheduler tick) would swamp p99.
        while (Clock::now() < due) {
          cpu_relax();
        }
        const double phi = 0.01 + 0.98 * rng.next_double();
        const bool measured = due >= measure_start;
        std::vector<double>& lat = out.latency_ns[std::min<std::size_t>(
            windows - 1, measured ? static_cast<std::size_t>((due - measure_start) / window_len)
                                  : 0)];
        const auto start = Clock::now();
        const std::uint64_t done_before = completed.load(std::memory_order_acquire);
        double answer = 0.0;
        if (traced && measured) {
          const std::uint64_t ver = q.version();
          q.refresh();
          const auto mid = Clock::now();
          answer = q.quantile(phi);
          const auto end = Clock::now();
          out.spans.refresh_ns.push_back(ns_between(start, mid));
          out.spans.quantile_ns.push_back(ns_between(mid, end));
          out.spans.wait_ns.push_back(ns_between(due, start));
          out.spans.rebuilds += q.version() != ver ? 1 : 0;
          ++out.spans.refreshes;
          lat.push_back(ns_between(due, end));
        } else {
          q.refresh();
          answer = q.quantile(phi);
          if (measured) lat.push_back(ns_between(due, Clock::now()));
        }
        ++out.attempted;
        out.spans.queries += traced ? 1 : 0;
        const std::uint64_t seen = q.size();
        const std::uint64_t hidden = done_before > seen ? done_before - seen : 0;
        out.max_hidden = std::max(out.max_hidden, hidden);
        out.failed_hidden += hidden > bound ? 1 : 0;
        out.failed_range += (answer >= 0.0 && answer < 1.0) ? 0 : 1;
      }
    });
  }

  while (ready.load(std::memory_order_acquire) != kMixedQueriers + 1) std::this_thread::yield();
  t0 = Clock::now();
  measure_start = t0 + span_of(kMixedWarmupSeconds);
  measure_end = measure_start + window_len * windows;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_until(measure_end);
  // Queriers stop on their own schedule; the updater runs until they do.
  for (std::size_t i = 1; i < pool.size(); ++i) pool[i].join();
  stop.store(true, std::memory_order_relaxed);
  pool[0].join();

  w.latency_ns.resize(windows);
  std::uint64_t attempted = 0;
  for (const QuerierOut& out : qout) {
    for (std::size_t i = 0; i < windows; ++i) {
      w.latency_ns[i].insert(w.latency_ns[i].end(), out.latency_ns[i].begin(),
                             out.latency_ns[i].end());
      w.queries += out.latency_ns[i].size();
    }
    attempted += out.attempted;
    w.qspans.absorb(out.spans);
    ledger.max_hidden = std::max(ledger.max_hidden, out.max_hidden);
    ledger.fail_many(out.failed_hidden,
                     "hidden count within N*b + rho*S*2k + install_queue*2k");
    ledger.fail_many(out.failed_range, "query answer inside the stream's range [0, 1)");
  }
  ledger.attempted += attempted + (w.fed + kSpan - 1) / kSpan;
  return w;
}

// Quiesces after a window and checks size and the grid's rank error against
// the exact ranks of everything ingested (prefill once, the cycle stream
// `fed / |cycle|` times plus a prefix).
// Returns the quiesce() duration in ns.
double check_mixed(Sketch& sk, const std::vector<double>& prefill_data,
                   const std::vector<double>& cycle, std::uint64_t fed, Ledger& ledger) {
  const auto q0 = Clock::now();
  sk.quiesce();
  const double quiesce_ns = ns_between(q0, Clock::now());
  const std::uint64_t total = prefill_data.size() + fed;
  check_size(ledger, sk, total);
  const std::uint64_t laps = fed / cycle.size();
  const std::size_t pos = static_cast<std::size_t>(fed % cycle.size());
  auto q = sk.make_querier();
  std::vector<double> answers;
  for (int i = 0; i < kGridPoints; ++i) answers.push_back(q.quantile(grid_phi(i)));
  const std::span<const double> c(cycle);
  const auto below = count_below(
      answers, {{prefill_data, 1}, {c.first(pos), laps + 1}, {c.subspan(pos), laps}});
  for (int i = 0; i < kGridPoints; ++i) {
    const double err = std::fabs(static_cast<double>(below[static_cast<std::size_t>(i)]) /
                                     static_cast<double>(total) -
                                 grid_phi(i));
    ledger.rank_error(err, rank_bound(sk.options().k));
  }
  return quiesce_ns;
}

void run_mixed(const Config& cfg, Result& r) {
  constexpr std::uint32_t k = 1024;
  std::vector<double> prefill_data;
  std::vector<double> cycle;
  std::vector<double> setup_s;
  std::unique_ptr<Sketch> sk;
  std::unique_ptr<Sketch> traced_sk;
  const auto prefilled = [&](bool collect) {
    auto s = std::make_unique<Sketch>(options_for(k, collect));
    ingest(*s, prefill_data, 1, 0, nullptr);
    return s;
  };
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    prefill_data = make_stream(kMixedPrefill, cfg.seed);
    cycle = make_stream(kStreamItems, cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    sk = prefilled(false);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  Ledger& ledger = r.ledger;
  check_size(ledger, *sk, prefill_data.size());

  if (!cfg.trace) {
    const MixedWindow w = mixed_window(*sk, cycle, prefill_data.size(), cfg.seconds, false,
                                       cfg, ledger);
    check_mixed(*sk, prefill_data, cycle, w.fed, ledger);
    r.put("update_mops", median(w.slice_mops), "Mop/s");
    std::vector<LatencyWindow> windows;
    for (const auto& samples : w.latency_ns) windows.push_back(summarize(samples));
    put_query_metrics(r, windows, static_cast<double>(w.queries) / cfg.seconds / 1e6);
    r.put("setup_s", median(setup_s), "s");
    r.info["update_slices"] = static_cast<double>(w.slice_mops.size());
    r.info["retained_items"] = static_cast<double>(sk->retained());
    return;
  }

  traced_sk = prefilled(true);
  const MixedWindow plain = mixed_window(*sk, cycle, prefill_data.size(), cfg.seconds / 2,
                                         false, cfg, ledger);
  check_mixed(*sk, prefill_data, cycle, plain.fed, ledger);
  const auto st0 = traced_sk->stats();
  const auto ib0 = traced_sk->ibr_stats();
  const MixedWindow traced = mixed_window(*traced_sk, cycle, prefill_data.size(),
                                          cfg.seconds / 2, true, cfg, ledger);
  LayerCounters layers;
  layers.add(st0, traced_sk->stats(), ib0, traced_sk->ibr_stats());
  // The live updater never quiesces inside the window; the quiesce span is
  // the one that ends it.
  UpdateSpans uspans = traced.uspans;
  uspans.quiesce_ns_total = check_mixed(*traced_sk, prefill_data, cycle, traced.fed, ledger);
  uspans.quiesces = 1;
  const double untraced_mops = median(plain.slice_mops);
  uspans.report(r);
  layers.report(r);
  traced.qspans.report(r, layers.st);
  summary_build(*traced_sk, r);
  layer_replay(cycle, traced_sk->options(), 1e3 / untraced_mops, r);
  const ExactRanks exact(cycle);
  sequential_reference(cycle, k, exact, ledger, r);
  r.put("tracing.overhead", 1.0 - median(traced.slice_mops) / untraced_mops, "ratio");
}

// ----- query_idle -----------------------------------------------------------

void run_query_idle(const Config& cfg, Result& r) {
  constexpr std::uint32_t k = 4096;
  std::vector<double> data;
  std::vector<double> setup_s;
  std::vector<double> prefill_mops;
  std::unique_ptr<Sketch> sk;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    data = make_stream(kStreamItems, cfg.seed);
    sk = std::make_unique<Sketch>(options_for(k, false));
    prefill_mops.push_back(ingest(*sk, data, 1, cfg.inject_ns, nullptr));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  Ledger& ledger = r.ledger;
  const ExactRanks exact(data);
  check_size(ledger, *sk, data.size());
  ledger.attempted += kSetups * ((data.size() + kSpan - 1) / kSpan);
  const std::vector<double> phis = query_phis(cfg.seed);
  const std::vector<double> ref = reference_answers(*sk, phis, exact, ledger);

  // kIdleRepSeconds repetitions of cfg.threads closed-loop queriers.
  const auto repetitions = [&](Sketch& s, const std::vector<double>& expect, bool traced,
                               double budget) {
    std::vector<IdleRep> reps;
    const auto start = Clock::now();
    while (reps.empty() || seconds_between(start, Clock::now()) < budget) {
      reps.push_back(idle_rep(s, cfg.threads, kIdleRepSeconds, phis, expect, traced,
                              cfg.seed + reps.size()));
      account(ledger, reps.back());
    }
    return reps;
  };

  if (!cfg.trace) {
    const std::vector<IdleRep> reps = repetitions(*sk, ref, false, cfg.seconds);
    r.put("update_mops", median(prefill_mops), "Mop/s");
    put_query_metrics(r, windows_of(reps), median_mops(reps));
    r.put("setup_s", median(setup_s), "s");
    r.info["repetitions"] = static_cast<double>(reps.size());
    r.info["retained_items"] = static_cast<double>(sk->retained());
    return;
  }

  // Traced: a second sketch, built with collect_stats and spanned ingest.
  UpdateSpans uspans;
  LayerCounters layers;
  auto traced_sk = std::make_unique<Sketch>(options_for(k, true));
  const auto st0 = traced_sk->stats();
  const auto ib0 = traced_sk->ibr_stats();
  const double traced_prefill = ingest(*traced_sk, data, 1, 0, &uspans);
  check_size(ledger, *traced_sk, data.size());
  const std::vector<double> traced_ref = reference_answers(*traced_sk, phis, exact, ledger);

  const std::vector<IdleRep> plain = repetitions(*sk, ref, false, cfg.seconds / 2);
  const std::vector<IdleRep> traced = repetitions(*traced_sk, traced_ref, true, cfg.seconds / 2);
  layers.add(st0, traced_sk->stats(), ib0, traced_sk->ibr_stats());
  QuerySpans qspans;
  for (const IdleRep& rep : traced) qspans.absorb(rep.spans);
  uspans.report(r);
  layers.report(r);
  qspans.report(r, layers.st);
  summary_build(*traced_sk, r);
  layer_replay(data, traced_sk->options(), 1e3 / median(prefill_mops), r);
  sequential_reference(data, k, exact, ledger, r);
  r.put("tracing.overhead", 1.0 - median_mops(traced) / median_mops(plain), "ratio");
  r.info["traced_prefill_mops"] = traced_prefill;
}

// ----- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_result(const Config& cfg, const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.ledger.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.ledger.attempted, 1)),
              static_cast<unsigned long long>(r.ledger.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}, \"info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
              "\"trace\": %d, \"threads\": %u, \"nproc\": %u, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"flags\": \"%s\", \"inject_ns\": %llu, "
              "\"max_rank_error\": %.17g, \"rank_error_bound\": %.17g, "
              "\"max_hidden\": %llu, \"hidden_bound\": %llu",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.threads, std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
              json_escape(QCBENCH_FLAGS).c_str(),
              static_cast<unsigned long long>(cfg.inject_ns), r.ledger.max_rank_error,
              r.ledger.rank_error_bound, static_cast<unsigned long long>(r.ledger.max_hidden),
              static_cast<unsigned long long>(r.ledger.hidden_bound));
  for (const auto& [name, v] : r.info) {
    std::printf(", \"%s\": %.17g", name.c_str(), std::isfinite(v) ? v : 0.0);
  }
  std::printf(", \"peak_rss_mb\": %.17g}}\n", peak_rss_mb());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "qcbench: %s\nusage: qcbench --workload ingest_1t|ingest_mt|mixed|query_idle "
               "--seed N --seconds S --trace 0|1 [--inject-ns N]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
      continue;
    }
    const double num = std::strtod(val, &end);
    if (end == val || *end != '\0' || !(num >= 0.0)) usage(("bad value for " + arg).c_str());
    if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds") {
      cfg.seconds = num;
    } else if (arg == "--trace") {
      cfg.trace = num != 0.0;
    } else if (arg == "--inject-ns") {
      cfg.inject_ns = static_cast<std::uint64_t>(num);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (cfg.seconds <= 0.0) usage("--seconds must be positive");
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.threads = std::min<std::uint32_t>(4, hw == 0 ? 1 : hw);

  Result r;
  if (cfg.workload == "ingest_1t") {
    run_ingest(cfg, 1, r);
  } else if (cfg.workload == "ingest_mt") {
    run_ingest(cfg, cfg.threads, r);
  } else if (cfg.workload == "mixed") {
    run_mixed(cfg, r);
  } else if (cfg.workload == "query_idle") {
    run_query_idle(cfg, r);
  } else {
    usage("unknown workload");
  }
  if (!cfg.trace) r.put("peak_rss_mb", peak_rss_mb(), "MB");
  print_result(cfg, r);
  return 0;
}
