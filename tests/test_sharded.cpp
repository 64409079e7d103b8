// ShardedQuancurrent: routing (affinity + hash), cross-shard query merging,
// weight conservation, accuracy against the exact oracle, and incremental
// cross-shard refresh.
#include <algorithm>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/exact_quantiles.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::Options o;
  o.k = k;
  o.b = b;
  o.collect_stats = true;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

}  // namespace

QC_TEST(sharded_multithread_ingest_conserves_weight_and_accuracy) {
  const std::uint32_t k = 256;
  const std::uint64_t n = 200'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 61);
  qc::ShardedQuancurrent<double> sk(4, small_options(k, 8));
  CHECK_EQ(sk.num_shards(), 4u);
  qc::bench::ingest_quancurrent(sk, data, 8, /*quiesce=*/true);

  CHECK_EQ(sk.size(), n);
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
  CHECK_EQ(q.rank(1e18), n);

  qc::stream::ExactQuantiles<double> exact(std::move(data));
  double max_err = 0.0;
  for (int i = 1; i < 50; ++i) {
    const double phi = static_cast<double>(i) / 50.0;
    max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
  }
  // Per-shard error bounds survive the cross-shard merge.
  CHECK(max_err <= 12.0 / static_cast<double>(k));
}

QC_TEST(affinity_routing_pins_threads_to_shards) {
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);  // shard 0
    auto u2 = sk.make_updater(2);  // also shard 0
    auto u1 = sk.make_updater(1);  // shard 1
    for (int i = 0; i < 1'000; ++i) {
      u0.update(1.0);
      u2.update(2.0);
      u1.update(3.0);
    }
  }
  sk.quiesce();
  CHECK_EQ(sk.shard(0).size(), 2'000u);
  CHECK_EQ(sk.shard(1).size(), 1'000u);
  CHECK_EQ(sk.size(), 3'000u);
}

QC_TEST(hash_routing_spreads_values_across_shards) {
  const std::uint64_t n = 40'000;
  qc::ShardedQuancurrent<double> sk(4, small_options(64, 8));
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 62);
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();
  CHECK_EQ(sk.size(), n);
  // Every shard sees a statistically even substream: within 3x of fair
  // share (very loose; the hash would have to be badly broken to fail).
  for (std::uint32_t s = 0; s < 4; ++s) {
    CHECK(sk.shard(s).size() > n / 12);
    CHECK(sk.shard(s).size() < n / 4 * 3);
  }
  // Identical values always route to the same shard.
  qc::ShardedQuancurrent<double> sk2(4, small_options(64, 8));
  {
    auto u = sk2.make_hash_updater();
    for (int i = 0; i < 4'000; ++i) u.update(42.0);
  }
  sk2.quiesce();
  std::uint32_t non_empty = 0;
  for (std::uint32_t s = 0; s < 4; ++s) non_empty += sk2.shard(s).size() != 0 ? 1 : 0;
  CHECK_EQ(non_empty, 1u);
}

QC_TEST(cross_shard_summary_equals_single_sketch_union) {
  // Two shards fed disjoint halves must answer exactly like the merged
  // stream at the extremes, and the summary must be value-sorted with a
  // consistent prefix-weight array.
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);
    auto u1 = sk.make_updater(1);
    for (int i = 0; i < 10'000; ++i) {
      u0.update(static_cast<double>(i));            // [0, 10000)
      u1.update(static_cast<double>(20'000 + i));   // [20000, 30000)
    }
  }
  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), 20'000u);
  // Compaction keeps a random half per level, so the exact min/max need not
  // be retained — but the extremes must come from the right shard's range.
  CHECK(q.quantile(0.0) < 10'000.0);
  CHECK(q.quantile(1.0) >= 20'000.0);
  // 15000 splits the shards exactly: every retained shard-0 item (total
  // weight 10000) is below it, every shard-1 item above.
  CHECK_EQ(q.rank(15'000.0), 10'000u);
  CHECK_NEAR(q.cdf(15'000.0), 0.5, 0.01);

  const auto& summary = q.summary();
  CHECK(std::is_sorted(summary.items().begin(), summary.items().end()));
  CHECK(std::is_sorted(summary.prefix_weights().begin(), summary.prefix_weights().end()));
  CHECK_EQ(summary.total_weight(), 20'000u);
}

QC_TEST(cross_shard_refresh_is_incremental) {
  qc::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  // The cross-shard view reads the shards' runs, never their summaries.
  const auto no_shard_summaries = [&sk](const auto& q) {
    for (std::uint32_t s = 0; s < sk.num_shards(); ++s) {
      CHECK_EQ(q.shard_querier(s).summary_builds(), 0u);
    }
  };
  {
    auto u = sk.make_updater(0);
    for (int i = 0; i < 5'000; ++i) u.update(static_cast<double>(i));
  }
  sk.quiesce();
  auto q = sk.make_querier();
  const std::uint64_t size_before = q.size();
  const double median = q.quantile(0.5);  // first query: from the runs
  CHECK_EQ(q.summary_builds(), 0u);
  no_shard_summaries(q);
  // No publication anywhere: refresh must be a no-op (and stay correct).
  q.refresh();
  q.refresh();
  CHECK_EQ(q.size(), size_before);
  CHECK(q.quantile(0.5) == median);  // second query on the snapshot: builds
  CHECK_EQ(q.summary_builds(), 1u);
  no_shard_summaries(q);

  // New data in one shard becomes visible after refresh.
  {
    auto u = sk.make_updater(1);
    for (int i = 0; i < 5'000; ++i) u.update(static_cast<double>(i));
  }
  sk.quiesce();
  q.refresh();
  CHECK_EQ(q.size(), 2 * size_before);
  CHECK_EQ(q.rank(1e9), 2 * size_before);
  CHECK_EQ(q.summary_builds(), 1u);
  no_shard_summaries(q);
}

QC_TEST(sharded_queries_live_during_ingest) {
  const std::uint64_t n = 100'000;
  auto data = qc::stream::make_stream(Distribution::kUniform, n, 63);
  qc::ShardedQuancurrent<double> sk(4, small_options(128, 8));
  // On a loaded 1-core box the queriers may or may not get scheduled before
  // ingestion ends (so no assertion on mixed.queries); what must hold is
  // that the mixed run completes and the final cross-shard view is exact.
  const auto mixed = qc::bench::run_mixed(sk, data, 4, 2);
  (void)mixed;
  sk.quiesce();
  auto q = sk.make_querier();
  CHECK_EQ(q.size(), n);
}

// ----- sharded serde (the recovery container as in-memory facade serde) -----

QC_TEST(sharded_serde_roundtrip_is_bit_identical_per_shard) {
  const std::uint32_t k = 128;
  qc::ShardedQuancurrent<double> sk(3, small_options(k, 8));
  const auto data = qc::stream::make_stream(Distribution::kUniform, 30'000, 21);
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();

  const auto img = qc::recovery::serialize_sharded(sk, 42);
  auto rt = qc::recovery::deserialize_sharded<double>(img);
  CHECK(rt != nullptr);
  if (rt == nullptr) return;
  // Same width restores via adopt(): no merge, no re-route — every shard
  // re-serializes to the exact bytes it was stored as.
  CHECK_EQ(rt->num_shards(), 3u);
  CHECK_EQ(rt->size(), sk.size());
  for (std::uint32_t s = 0; s < 3; ++s) {
    CHECK(qc::to_bytes(rt->shard(s)) == qc::to_bytes(sk.shard(s)));
  }
}

QC_TEST(sharded_restore_reroutes_into_different_width) {
  const std::uint32_t k = 128;
  const std::uint64_t n = 40'000;
  const auto data = qc::stream::make_stream(Distribution::kUniform, n, 77);
  qc::ShardedQuancurrent<double> sk(4, small_options(k, 8));
  {
    auto u = sk.make_hash_updater();
    for (double v : data) u.update(v);
  }
  sk.quiesce();
  const auto img = qc::recovery::serialize_sharded(sk);
  qc::stream::ExactQuantiles<double> exact{std::vector<double>(data)};

  // Shrinking and growing the serving tier both bridge via merge_into: total
  // weight is conserved and answers stay inside the merged-error envelope.
  for (const std::uint32_t want : {2u, 8u}) {
    auto rt = qc::recovery::deserialize_sharded<double>(img, want);
    CHECK(rt != nullptr);
    if (rt == nullptr) continue;
    CHECK_EQ(rt->num_shards(), want);
    CHECK_EQ(rt->size(), n);
    auto q = rt->make_querier();
    double max_err = 0.0;
    for (int i = 1; i < 50; ++i) {
      const double phi = static_cast<double>(i) / 50.0;
      max_err = std::max(max_err, exact.rank_error(q.quantile(phi), phi));
    }
    CHECK(max_err < 16.0 / static_cast<double>(k));
  }
}

QC_TEST_MAIN()
