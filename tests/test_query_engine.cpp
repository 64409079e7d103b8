// The merge-based query engine: run_merge primitives, the prefix-weight
// summary, and Querier's incremental (tritmap-diff) refresh — including the
// ISSUE's three acceptance properties: (a) every refresh yields a
// value-sorted summary, (b) quantile/rank match the exact oracle within the
// error bound after quiesce, and (c) incremental and full refresh produce
// identical summaries.  Also the summary-free answers a snapshot's first
// query takes (RunSelector, runs_rank): bit-identical to the merged
// summary's, with ties, at the edges, and under live ingest.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "core/quancurrent.hpp"
#include "core/run_merge.hpp"
#include "core/sharded.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::core::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::core::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

bool summary_is_sorted(const qc::core::WeightedSummary<double>& s) {
  const auto items = s.items();
  return std::is_sorted(items.begin(), items.end());
}

// Bit-level equality, so -0.0 and 0.0 count as different answers.
bool same_bits(double a, double b) {
  return a == b && std::signbit(a) == std::signbit(b);
}

// phi grid with both ends, plus out-of-range and NaN phis (clamped or not
// the same way by both paths).
std::vector<double> phi_grid() {
  std::vector<double> phis{-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i <= 40; ++i) phis.push_back(static_cast<double>(i) / 40.0);
  return phis;
}

// Probes below the minimum, above the maximum, every stored item, and the
// midpoints between neighbouring stored items.
std::vector<double> probes_for(const qc::core::WeightedSummary<double>& s) {
  const auto items = s.items();
  std::vector<double> probes{-1e300, 1e300};
  for (std::size_t i = 0; i < items.size(); i += 1 + items.size() / 64) {
    probes.push_back(items[i]);
    if (i + 1 < items.size()) probes.push_back((items[i] + items[i + 1]) / 2);
  }
  if (!items.empty()) probes.push_back(items.back());
  return probes;
}

// Checks RunSelector / runs_rank / runs_total_weight against the merged
// summary of the same runs.
void check_runs_match_merge(std::span<const qc::core::RunRef<double>> runs) {
  qc::core::RunMerger<double> merger;
  qc::core::WeightedSummary<double> merged;
  merger.merge(runs, merged);
  qc::core::RunSelector<double> selector;
  CHECK_EQ(qc::core::runs_total_weight(runs), merged.total_weight());
  for (const double phi : phi_grid()) {
    CHECK(same_bits(selector.quantile(runs, phi), qc::core::summary_quantile(merged, phi)));
  }
  for (const double probe : probes_for(merged)) {
    CHECK_EQ(qc::core::runs_rank(runs, probe), qc::core::summary_rank(merged, probe));
  }
}

// Sketch whose quiesced snapshot holds `data`.
std::unique_ptr<qc::core::Quancurrent<double>> quiesced(const std::vector<double>& data,
                                                        std::uint32_t k) {
  auto sk = std::make_unique<qc::core::Quancurrent<double>>(small_options(k, 8));
  {
    auto updater = sk->make_updater(0);
    for (const double v : data) updater.update(v);
  }
  sk->quiesce();
  return sk;
}

}  // namespace

QC_TEST(merge_runs_matches_sort_merge_runs) {
  qc::Xoshiro256 rng(41);
  qc::core::RunMerger<double> merger;
  std::vector<std::pair<double, std::uint64_t>> scratch;
  // Random run counts and lengths, including empty runs; uniform doubles are
  // effectively duplicate-free, so merge and sort orders must agree exactly.
  for (const std::size_t num_runs : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, std::size_t{16}}) {
    std::vector<std::vector<double>> data(num_runs);
    std::vector<qc::core::RunRef<double>> runs;
    for (std::size_t r = 0; r < num_runs; ++r) {
      const std::size_t len = rng() % 200;
      data[r].resize(len);
      for (auto& v : data[r]) v = rng.next_double();
      std::sort(data[r].begin(), data[r].end());
      runs.push_back({data[r].data(), data[r].size(), 1ULL << (r % 5)});
    }
    qc::core::WeightedSummary<double> merged, sorted;
    const auto span = std::span<const qc::core::RunRef<double>>(runs);
    merger.merge(span, merged);
    qc::core::sort_merge_runs(span, sorted, scratch);
    CHECK(merged == sorted);
    CHECK(summary_is_sorted(merged));
  }
}

QC_TEST(merge_runs_breaks_ties_by_run_index) {
  // Two runs sharing values but with different weights: ties must go to the
  // lower run index, making the output deterministic.
  const std::vector<double> a{1.0, 2.0, 2.0};
  const std::vector<double> b{2.0, 3.0};
  const std::vector<qc::core::RunRef<double>> runs{{a.data(), a.size(), 4},
                                                   {b.data(), b.size(), 1}};
  qc::core::RunMerger<double> merger;
  qc::core::WeightedSummary<double> out;
  merger.merge(std::span<const qc::core::RunRef<double>>(runs), out);
  CHECK_EQ(out.size(), 5u);
  CHECK_EQ(out.total_weight(), 14u);
  const auto items = out.items();
  const auto prefix = out.prefix_weights();
  CHECK(std::vector<double>(items.begin(), items.end()) ==
        (std::vector<double>{1, 2, 2, 2, 3}));
  // Run 0's weight-4 copies of 2.0 come before run 1's weight-1 copy.
  CHECK(std::vector<std::uint64_t>(prefix.begin(), prefix.end()) ==
        (std::vector<std::uint64_t>{4, 8, 12, 13, 14}));
}

QC_TEST(summary_binary_searches_match_linear_scans) {
  qc::Xoshiro256 rng(43);
  qc::core::WeightedSummary<double> s;
  double v = 0.0;
  std::vector<std::pair<double, std::uint64_t>> flat;
  for (int i = 0; i < 500; ++i) {
    v += rng.next_double();
    const std::uint64_t w = 1 + rng() % 7;
    s.append(v, w);
    flat.emplace_back(v, w);
  }
  // rank: first item not less than the probe, prefix weight before it.
  for (int i = 0; i < 200; ++i) {
    const double probe = rng.next_double() * v;
    std::uint64_t expect = 0;
    for (const auto& [item, weight] : flat) {
      if (!(item < probe)) break;
      expect += weight;
    }
    CHECK_EQ(qc::core::summary_rank(s, probe), expect);
  }
  // quantile: smallest item whose cumulative weight reaches phi * total.
  for (int i = 1; i < 100; ++i) {
    const double phi = static_cast<double>(i) / 100.0;
    const double target = phi * static_cast<double>(s.total_weight());
    std::uint64_t cumulative = 0;
    double expect = flat.back().first;
    for (const auto& [item, weight] : flat) {
      cumulative += weight;
      if (static_cast<double>(cumulative) >= target) {
        expect = item;
        break;
      }
    }
    CHECK_NEAR(qc::core::summary_quantile(s, phi), expect, 0.0);
  }
  CHECK_NEAR(qc::core::summary_quantile(s, 0.0), s.items()[0], 0.0);
  CHECK_EQ(qc::core::summary_rank(s, -1.0), 0u);
  CHECK_EQ(qc::core::summary_rank(s, v + 1.0), s.total_weight());
}

QC_TEST(direct_run_answers_match_the_merged_summary) {
  qc::Xoshiro256 rng(47);
  std::vector<qc::core::RunRef<double>> runs;
  check_runs_match_merge(runs);  // no runs at all
  for (const std::uint64_t domain : {std::uint64_t{0}, std::uint64_t{16}, std::uint64_t{2}}) {
    for (const std::size_t num_runs : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                       std::size_t{9}, std::size_t{17}}) {
      // domain 0: uniform doubles; otherwise integer-valued doubles in
      // [0, domain), so every value is tied within and across runs.
      std::vector<std::vector<double>> data(num_runs);
      runs.clear();
      for (std::size_t r = 0; r < num_runs; ++r) {
        data[r].resize(r == 1 ? 0 : 1 + rng() % 300);
        for (auto& v : data[r]) {
          v = domain == 0 ? rng.next_double() : static_cast<double>(rng() % domain);
        }
        std::sort(data[r].begin(), data[r].end());
        runs.push_back({data[r].data(), data[r].size(), 1ULL << (r % 6)});
      }
      check_runs_match_merge(runs);
    }
  }
  // Equal but distinguishable items: the merge orders -0.0 and 0.0 by run
  // index, then position, and the direct quantile must pick the same one.
  const std::vector<double> a{-1.0, 0.0, -0.0, 0.0};
  const std::vector<double> b{-0.0, -0.0, 0.0, 2.0};
  const std::vector<double> c{0.0};
  runs = {{a.data(), a.size(), 2}, {b.data(), b.size(), 1}, {c.data(), c.size(), 4}};
  check_runs_match_merge(runs);
}

namespace {

// Each question goes to a fresh querier of `sk`, whose first query on its
// snapshot answers from the runs; the lazily built summary of the same
// snapshot must give the same answer.
template <typename Sketch>
void check_first_answers_match_summary(Sketch& sk) {
  auto probe_q = sk.make_querier();
  const auto& summary = probe_q.summary();
  for (const double phi : phi_grid()) {
    auto q = sk.make_querier();
    const double direct = q.quantile(phi);
    CHECK_EQ(q.summary_builds(), 0u);
    CHECK(same_bits(direct, qc::core::summary_quantile(q.summary(), phi)));
    CHECK(q.summary() == summary);
  }
  for (const double probe : probes_for(summary)) {
    auto q = sk.make_querier();
    const std::uint64_t direct = q.rank(probe);
    CHECK_EQ(q.summary_builds(), 0u);
    CHECK_EQ(direct, qc::core::summary_rank(q.summary(), probe));
    auto c = sk.make_querier();
    const double cdf = c.cdf(probe);
    CHECK_EQ(c.summary_builds(), 0u);
    CHECK(cdf == (summary.total_weight() == 0
                      ? 0.0
                      : static_cast<double>(qc::core::summary_rank(summary, probe)) /
                            static_cast<double>(summary.total_weight())));
  }
}

}  // namespace

QC_TEST(querier_direct_answers_match_its_summary) {
  const std::uint32_t k = 64;
  qc::Xoshiro256 rng(53);
  std::vector<std::vector<double>> streams;
  std::vector<std::size_t> run_counts;  // expected snapshot shape; 0 = many
  streams.emplace_back();  // empty sketch
  run_counts.push_back(0);
  streams.push_back(qc::stream::make_stream(Distribution::kUniform, 100, 3));
  run_counts.push_back(1);  // the tail alone
  streams.push_back(qc::stream::make_stream(Distribution::kUniform, 2 * k, 5));
  run_counts.push_back(1);  // one level-1 run, empty tail
  streams.push_back(qc::stream::make_stream(Distribution::kUniform, 30'000, 7));
  run_counts.push_back(0);
  std::vector<double> ties(30'000);
  for (auto& v : ties) v = static_cast<double>(rng() % 16);
  streams.push_back(ties);
  run_counts.push_back(0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& data = streams[i];
    const auto sk = quiesced(data, k);
    auto probe_q = sk->make_querier();
    if (data.empty() || run_counts[i] != 0) {
      CHECK_EQ(probe_q.runs().size(), run_counts[i]);
    } else {
      CHECK(probe_q.runs().size() > 4u);
    }
    CHECK_EQ(probe_q.size(), static_cast<std::uint64_t>(data.size()));
    CHECK_EQ(probe_q.summary().total_weight(), probe_q.size());
    check_first_answers_match_summary(*sk);
  }
  // Three shards fed the same 16 integer values, so equal items sit in runs
  // of different shards.
  qc::core::ShardedQuancurrent<double> sharded(3, small_options(k, 8));
  for (std::uint32_t t = 0; t < 3; ++t) {
    auto u = sharded.make_updater(t);
    for (int i = 0; i < 10'000; ++i) u.update(static_cast<double>(rng() % 16));
  }
  sharded.quiesce();
  auto probe_q = sharded.make_querier();
  CHECK(probe_q.runs().size() > 6u);
  CHECK_EQ(probe_q.size(), 30'000u);
  check_first_answers_match_summary(sharded);
}

QC_TEST(concurrent_direct_answers_match_the_summary) {
  // 2 updaters and 2 queriers: after each refresh the querier answers
  // straight from the runs of a new snapshot, then forces summary() and
  // checks the direct answers against it.
  const std::uint32_t k = 32;
  auto data = qc::stream::make_stream(Distribution::kUniform, 120'000, 59);
  for (std::size_t i = 0; i < data.size(); i += 3) data[i] = std::floor(data[i] * 16.0);
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> direct_checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      auto q = sk.make_querier();  // before the ingest starts (see below)
      ready.fetch_add(1, std::memory_order_release);
      qc::Xoshiro256 rng(61 + static_cast<std::uint64_t>(r));
      std::uint64_t round = 0;
      // The pass that first sees `stop` still runs: its refresh follows the
      // whole ingest, so each reader checks at least one new snapshot even
      // when the scheduler kept it off the CPU for the entire ingest.
      for (bool last = false; !last;) {
        last = stop.load(std::memory_order_acquire);
        const std::uint64_t version = q.version();
        q.refresh();
        if (q.version() == version) continue;  // same snapshot: no direct query left
        const std::uint64_t builds = q.summary_builds();
        const double phi = rng.next_double();
        const double probe = rng.next_double() * 1.2 - 0.1;
        // Alternate which question is the snapshot's first (direct) query.
        const bool quantile_first = (round++ % 2) == 0;
        const double quantile = quantile_first ? q.quantile(phi) : 0.0;
        const std::uint64_t rank = quantile_first ? 0 : q.rank(probe);
        CHECK_EQ(q.summary_builds(), builds);
        const auto& s = q.summary();
        CHECK(summary_is_sorted(s));
        CHECK_EQ(s.total_weight(), q.size());
        if (quantile_first) {
          CHECK(same_bits(quantile, qc::core::summary_quantile(s, phi)));
        } else {
          CHECK_EQ(rank, qc::core::summary_rank(s, probe));
        }
        direct_checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < 2) std::this_thread::yield();
  qc::bench::ingest_quancurrent(sk, data, 2);
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  CHECK(direct_checks.load(std::memory_order_relaxed) >= 2u);
}

QC_TEST(quiesced_querier_builds_its_summary_once) {
  // The first query on a snapshot answers from the runs, the second builds
  // the summary, and later queries and O(1) refreshes reuse it.
  const auto sk = quiesced(qc::stream::make_stream(Distribution::kUniform, 20'000, 67), 64);
  auto q = sk->make_querier();
  const std::uint64_t version = q.version();
  CHECK_EQ(q.summary_builds(), 0u);
  const double first = q.quantile(0.5);
  CHECK_EQ(q.summary_builds(), 0u);
  CHECK(same_bits(q.quantile(0.5), first));
  CHECK_EQ(q.summary_builds(), 1u);
  for (int i = 0; i < 10; ++i) {
    q.refresh();  // nothing changed: same snapshot, same summary
    (void)q.quantile(0.01 * i);
    (void)q.rank(0.1 * i);
    (void)q.cdf(0.1 * i);
  }
  CHECK_EQ(q.summary_builds(), 1u);
  CHECK_EQ(q.version(), version);
  // A new snapshot starts over: direct first, then one build.
  sk->update(2.0);
  sk->quiesce();
  q.refresh();
  CHECK(q.version() != version);
  CHECK_EQ(q.rank(3.0), 20'001u);
  CHECK_EQ(q.summary_builds(), 1u);
  CHECK_EQ(q.rank(3.0), 20'001u);
  CHECK_EQ(q.summary_builds(), 2u);
  // refresh_full() stays eager.
  q.refresh_full();
  CHECK_EQ(q.summary_builds(), 3u);
}

QC_TEST(backoff_spins_and_escalates) {
  qc::Backoff backoff;
  for (int i = 0; i < 100; ++i) backoff.spin();  // must escalate without hanging
  backoff.reset();
  backoff.spin();
}

QC_TEST(concurrent_refreshes_always_see_sorted_summaries) {
  // Acceptance (a): every refresh — incremental, racing live installs —
  // yields a value-sorted summary whose prefix weights are consistent.
  const std::uint64_t n = 120'000;
  const std::uint32_t k = 64;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 29);
  qc::core::Quancurrent<double> sk(small_options(k, 8));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto q = sk.make_querier();
      while (!stop.load(std::memory_order_acquire)) {
        q.refresh();
        const auto& s = q.summary();
        CHECK(summary_is_sorted(s));
        CHECK_EQ(s.total_weight(), q.size());
        const auto prefix = s.prefix_weights();
        CHECK(std::is_sorted(prefix.begin(), prefix.end()));
        if (!s.empty()) {
          const double med = q.quantile(0.5);
          CHECK(med >= 0.0 && med < 1.0);
        }
      }
    });
  }
  qc::bench::ingest_quancurrent(sk, data, 2);
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
}

QC_TEST(quantile_and_rank_match_oracle_after_quiesce) {
  // Acceptance (b): after quiesce, quantile AND rank answers stay within the
  // paper's error bound of the exact oracle.
  const std::uint64_t n = 200'000;
  const std::uint32_t k = 256;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 31);
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  CHECK_EQ(sk.size(), n);

  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  qc::stream::ExactQuantiles<double> exact(std::move(data));

  const double bound = 12.0 / static_cast<double>(k);
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
  }
  CHECK(max_err <= bound);

  // rank(): normalized error against the oracle's exact rank.
  for (int i = 1; i < 50; ++i) {
    const double probe = static_cast<double>(i) / 50.0;
    const double est = static_cast<double>(q.rank(probe)) / static_cast<double>(n);
    const double truth =
        static_cast<double>(exact.rank(probe)) / static_cast<double>(n);
    CHECK(std::fabs(est - truth) <= bound);
  }
}

QC_TEST(incremental_and_full_refresh_return_identical_summaries) {
  // Acceptance (c): a querier that refreshed across many ladder changes must
  // produce bit-identical summaries to refresh_full() and to a fresh
  // querier, at every quiesced point.
  const std::uint32_t k = 64;
  qc::core::Quancurrent<double> sk(small_options(k, 8));
  auto data = qc::stream::make_stream(Distribution::kUniform, 60'000, 37);

  auto incremental = sk.make_querier();
  std::size_t fed = 0;
  std::uint32_t rounds = 0;
  while (fed < data.size()) {
    {
      auto updater = sk.make_updater(rounds % 4);
      const std::size_t chunk = std::min<std::size_t>(data.size() - fed, 7'321);
      for (std::size_t i = 0; i < chunk; ++i) updater.update(data[fed + i]);
      fed += chunk;
    }
    sk.quiesce();
    incremental.refresh();  // one handle, refreshed across every round
    CHECK_EQ(incremental.holes(), 0u);

    auto full = sk.make_querier();  // a fresh handle, no earlier snapshot
    CHECK(incremental.summary() == full.summary());

    full.refresh_full();  // and the explicit reload-everything path
    CHECK(incremental.summary() == full.summary());

    CHECK_EQ(incremental.size(), fed);
    ++rounds;
  }
  CHECK(rounds >= 8u);
}

QC_TEST(incremental_refresh_is_noop_when_nothing_changed) {
  qc::core::Quancurrent<double> sk(small_options(64, 8));
  {
    auto updater = sk.make_updater(0);
    for (int i = 0; i < 50'000; ++i) updater.update(static_cast<double>(i));
  }
  sk.quiesce();
  auto q = sk.make_querier();
  const auto first = q.summary();
  for (int i = 0; i < 10; ++i) {
    q.refresh();  // fast path: seq and tail version unchanged
    CHECK(q.summary() == first);
  }
  // A tail-only mutation must invalidate the fast path.
  {
    auto updater = sk.make_updater(0);
    updater.update(1e9);
  }  // drains 1 element to the tail
  q.refresh();
  CHECK_EQ(q.size(), 50'001u);
  CHECK_NEAR(q.summary().items().back(), 1e9, 0.0);
}

QC_TEST(sequential_sketch_summary_uses_prefix_weights) {
  qc::sequential::QuantilesSketch<double> sk(128);
  auto data = qc::stream::make_stream(Distribution::kUniform, 30'000, 5);
  for (const double v : data) sk.update(v);
  const auto& s = sk.summary();
  CHECK(summary_is_sorted(s));
  CHECK_EQ(s.total_weight(), 30'000u);
  CHECK_EQ(sk.rank(2.0), 30'000u);
  qc::stream::ExactQuantiles<double> exact(std::move(data));
  for (const double phi : {0.1, 0.5, 0.9}) {
    CHECK(exact.rank_error(sk.quantile(phi), phi) <= 10.0 / 128.0);
  }
}

QC_TEST_MAIN()
