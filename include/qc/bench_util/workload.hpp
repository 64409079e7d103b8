// Canned ingestion and query workloads shared by the figure benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util/harness.hpp"
#include "common/timer.hpp"
#include "core/quancurrent.hpp"
#include "sequential/quantiles_sketch.hpp"

namespace qc::bench {

// Feeds `data` into a sequential sketch; returns wall seconds.
template <typename Sketch>
double ingest_sequential(Sketch& sketch, const std::vector<double>& data) {
  Timer timer;
  for (const double v : data) sketch.update(v);
  return timer.seconds();
}

// Feeds `data` into a concurrent sketch (Quancurrent or ShardedQuancurrent —
// anything with make_updater/quiesce) from `threads` update threads, each
// owning a contiguous slice; returns wall seconds.  With quiesce=true the
// measured interval also covers draining local/gather buffers, after which
// sketch.size() == data.size().
template <typename Sketch, typename T = typename Sketch::value_type>
double ingest_quancurrent(Sketch& sketch, const std::vector<T>& data,
                          std::uint32_t threads, bool quiesce = false) {
  if (threads == 0) threads = 1;
  const auto ranges = split_ranges(data.size(), threads);
  const double seconds = timed_parallel(threads, [&](std::uint32_t tid) {
    auto updater = sketch.make_updater(tid);
    const auto [begin, end] = ranges[tid];
    updater.update(std::span<const T>(data.data() + begin, end - begin));
  });
  if (!quiesce) return seconds;
  Timer drain_timer;
  sketch.quiesce();
  return seconds + drain_timer.seconds();
}

// Feeds `data` into an FCDS-style baseline (anything whose make_updater
// takes a worker index and whose updaters drain on destruction — see
// baselines/fcds.hpp) from `threads` worker threads, each owning a
// contiguous slice; returns wall seconds of the worker phase.  Mirrors
// ingest_quancurrent without quiesce: the propagator keeps consuming after
// the workers return, leaving at most the design's relaxation bound (2NB)
// unconsumed — the same measurement convention fig10 uses for both engines.
template <typename Sketch, typename T = typename Sketch::value_type>
double ingest_fcds(Sketch& sketch, const std::vector<T>& data, std::uint32_t threads) {
  if (threads == 0) threads = 1;
  const auto ranges = split_ranges(data.size(), threads);
  return timed_parallel(threads, [&](std::uint32_t tid) {
    auto updater = sketch.make_updater(tid);
    const auto [begin, end] = ranges[tid];
    for (std::uint64_t i = begin; i < end; ++i) updater.update(data[i]);
  });
}

// Refresh-latency sampling cadence: timing every refresh would swamp the
// fast incremental path, so workloads time one refresh in every
// kLatencySamplePeriod queries.
inline constexpr std::uint64_t kLatencySamplePeriod = 64;

// The query inner loop shared by the query-only and mixed workloads: one
// refresh + one quantile per query, phi sweeping (0, 1), one timed refresh
// per kLatencySamplePeriod.  Runs while keep_going(count); returns the query
// count.  full_refresh = true calls refresh_full() on every query (every
// level pointer reloaded, the tail re-copied, the summary built eagerly) —
// the full arm of the abl_structures ablation; queriers without a
// refresh_full (e.g. the sharded facade's) silently keep refresh().
template <typename Querier, typename KeepGoing>
std::uint64_t query_loop(Querier& querier, std::vector<double>& latency_us,
                         double phi_start, KeepGoing&& keep_going,
                         bool full_refresh = false) {
  const auto do_refresh = [&querier, full_refresh] {
    if constexpr (requires { querier.refresh_full(); }) {
      if (full_refresh) {
        querier.refresh_full();
        return;
      }
    }
    querier.refresh();
  };
  std::uint64_t count = 0;
  double phi = phi_start;
  while (keep_going(count)) {
    if (count % kLatencySamplePeriod == 0) {
      Timer rt;
      do_refresh();
      latency_us.push_back(rt.seconds() * 1e6);
    } else {
      do_refresh();
    }
    (void)querier.quantile(phi);
    ++count;
    phi += 0.001;
    if (phi >= 1.0) phi = 0.001;
  }
  return count;
}

// Pools per-thread latency samples and returns their {p50, p99} in microseconds.
inline std::pair<double, double> pooled_refresh_percentiles(
    std::vector<std::vector<double>>& per_thread) {
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return {percentile(all, 0.50), percentile(all, 0.99)};
}

// Query-only load: `threads` queriers each issue `queries_per_thread`
// snapshot-and-quantile operations (refresh + quantile per query, as the
// paper's query threads do).  Holes/retries are the sketch-stat deltas over
// the run, so the sketch should be constructed with collect_stats=true for
// them to be meaningful.
template <typename Sketch>
QueryLoadStats run_query_load(Sketch& sketch, std::uint32_t threads,
                              std::uint64_t queries_per_thread) {
  if (threads == 0) threads = 1;
  const auto before = sketch.stats();
  std::vector<std::vector<double>> latencies(threads);
  const double seconds = timed_parallel(threads, [&](std::uint32_t t) {
    auto querier = sketch.make_querier();
    latencies[t].reserve(queries_per_thread / kLatencySamplePeriod + 1);
    query_loop(querier, latencies[t], 0.001 * (t + 1),
               [queries_per_thread](std::uint64_t count) {
                 return count < queries_per_thread;
               });
  });
  const auto after = sketch.stats();

  QueryLoadStats stats;
  stats.queries = queries_per_thread * threads;
  stats.queries_per_sec = throughput(stats.queries, seconds);
  std::tie(stats.refresh_p50_us, stats.refresh_p99_us) =
      pooled_refresh_percentiles(latencies);
  stats.holes = after.holes - before.holes;
  stats.query_retries = after.query_retries - before.query_retries;
  return stats;
}

// Mixed update/query workload result (fig06c).
struct MixedResult {
  double update_throughput = 0.0;
  double query_throughput = 0.0;
  double refresh_p50_us = 0.0;
  double refresh_p99_us = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t holes = 0;
  std::uint64_t query_retries = 0;
  // Derived: holes / queries — the fraction of query snapshots (scaled by
  // arrays per acceptance) that had to accept an unvalidated array.  The
  // snapshot-cache ablation (abl_structures) reads it directly.
  double query_miss_rate = 0.0;
};

// Runs `upd_threads` updaters pushing all of `updates` while `qry_threads`
// queriers issue refresh+quantile operations until the updates finish.
// full_refresh forces refresh_full() on every query (see query_loop).
template <typename Sketch, typename T = typename Sketch::value_type>
MixedResult run_mixed(Sketch& sketch, const std::vector<T>& updates,
                      std::uint32_t upd_threads, std::uint32_t qry_threads,
                      bool full_refresh = false) {
  if (upd_threads == 0) upd_threads = 1;
  const auto before = sketch.stats();
  const auto ranges = split_ranges(updates.size(), upd_threads);
  std::atomic<std::uint32_t> updaters_left{upd_threads};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> total_queries{0};
  std::vector<std::vector<double>> latencies(qry_threads);

  const double seconds = timed_parallel(upd_threads + qry_threads, [&](std::uint32_t t) {
    if (t < upd_threads) {
      {
        auto updater = sketch.make_updater(t);
        const auto [begin, end] = ranges[t];
        updater.update(std::span<const T>(updates.data() + begin, end - begin));
      }
      if (updaters_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done.store(true, std::memory_order_release);
      }
    } else {
      auto querier = sketch.make_querier();
      const std::uint64_t count =
          query_loop(querier, latencies[t - upd_threads], 0.001 * (t + 1),
                     [&done](std::uint64_t) {
                       return !done.load(std::memory_order_acquire);
                     },
                     full_refresh);
      total_queries.fetch_add(count, std::memory_order_acq_rel);
    }
  });
  const auto after = sketch.stats();

  MixedResult r;
  r.update_throughput = throughput(updates.size(), seconds);
  r.queries = total_queries.load(std::memory_order_acquire);
  r.query_throughput = throughput(r.queries, seconds);
  std::tie(r.refresh_p50_us, r.refresh_p99_us) = pooled_refresh_percentiles(latencies);
  r.holes = after.holes - before.holes;
  r.query_retries = after.query_retries - before.query_retries;
  r.query_miss_rate =
      r.queries == 0 ? 0.0 : static_cast<double>(r.holes) / static_cast<double>(r.queries);
  return r;
}

}  // namespace qc::bench
