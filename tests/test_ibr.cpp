// Elastic levels + interval-based reclamation: queriers stay wait-free while
// updaters grow/republish level blocks, ibr_stats() counters are monotone and
// internally consistent, quiesce() reclaims every unreferenced block, and the
// serialize_propagation ablation arm is bit-equivalent to the default engine.
#include <atomic>
#include <cstddef>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "bench_util/workload.hpp"
#include "core/sharded.hpp"
#include "qc.hpp"
#include "qc_test.hpp"
#include "stream/generators.hpp"

using qc::stream::Distribution;

namespace {

qc::Options small_options(std::uint32_t k, std::uint32_t b) {
  qc::Options o;
  o.k = k;
  o.b = b;
  o.topology = qc::numa::Topology::virtual_nodes(2, 2);
  return o;
}

// Number of level blocks the published tritmap references: each non-empty
// run at each level is exactly one live block once quiesce() has trimmed.
std::uint64_t published_runs(const qc::Quancurrent<double>& sk) {
  const auto tm = sk.tritmap();
  std::uint64_t runs = 0;
  for (std::uint32_t level = 0; level < qc::Tritmap::kMaxLevels; ++level) {
    runs += tm.trit(level);
  }
  return runs;
}

}  // namespace

QC_TEST(queriers_survive_concurrent_level_growth) {
  // Small k maximizes block churn: every cascade hop allocates a fresh block
  // and retires the displaced one, and every drain group ends with a scan,
  // while queriers hold epoch-protected pointer snapshots.  TSan is the real
  // judge here; the functional checks prove snapshots stay
  // tritmap-consistent.
  qc::Quancurrent<double> sk(small_options(64, 8));

  constexpr std::uint32_t kUpdaters = 4;
  constexpr std::uint32_t kPerThread = 20'000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kUpdaters + 2);
  for (std::uint32_t t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      auto u = sk.make_updater(t);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        u.update(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::uint32_t q = 0; q < 2; ++q) {
    threads.emplace_back([&] {
      auto querier = sk.make_querier();
      std::uint64_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        querier.refresh();
        const std::uint64_t size = querier.size();
        CHECK(size >= last_size);  // installed weight only grows
        last_size = size;
        if (size != 0) {
          const double mid = querier.quantile(0.5);
          CHECK(mid >= 0.0);
          CHECK(mid < static_cast<double>(kUpdaters) * kPerThread);
        }
      }
    });
  }
  for (std::uint32_t t = 0; t < kUpdaters; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (std::uint32_t q = 0; q < 2; ++q) threads[kUpdaters + q].join();

  sk.quiesce();
  auto querier = sk.make_querier();
  CHECK_EQ(querier.size(), std::uint64_t{kUpdaters} * kPerThread);
}

QC_TEST(ibr_stats_are_monotone_and_consistent) {
  qc::Quancurrent<double> sk(small_options(64, 8));

  qc::IbrStats prev;
  for (int chunk = 0; chunk < 50; ++chunk) {
    for (int i = 0; i < 1'000; ++i) {
      sk.update(static_cast<double>(chunk * 1'000 + i));
    }
    const qc::IbrStats s = sk.ibr_stats();
    // Every counter is monotone...
    CHECK(s.allocated >= prev.allocated);
    CHECK(s.reused >= prev.reused);
    CHECK(s.retired >= prev.retired);
    CHECK(s.reclaimed >= prev.reclaimed);
    CHECK(s.freed >= prev.freed);
    CHECK(s.scans >= prev.scans);
    CHECK(s.peak_unreclaimed >= prev.peak_unreclaimed);
    // ...and the flows balance: blocks leave the retire list only via a
    // scan, and nothing is freed that was never allocated.
    CHECK(s.reclaimed <= s.retired);
    CHECK(s.freed <= s.allocated);
    CHECK(s.live_blocks() <= s.allocated);
    prev = s;
  }
  CHECK(prev.allocated > 0);
  CHECK(prev.scans > 0);
}

QC_TEST(quiesce_reclaims_every_unreferenced_block) {
  // After quiesce() with no readers, exactly the tritmap-referenced runs may
  // remain live: consumed-but-published stale blocks are trimmed, the retire
  // list is drained (no Querier exists, so no reservation holds a block),
  // and the reuse pool is flushed back to the allocator.
  qc::Quancurrent<double> sk(small_options(64, 8));
  const auto data = qc::stream::make_stream(Distribution::kUniform, 60'000, 11);
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);

  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.allocated > 0);
  CHECK(s.reclaimed > 0);
  CHECK_EQ(s.reclaimed, s.retired);  // retire list fully drained
  CHECK_EQ(s.live_blocks(), published_runs(sk));

  // Idempotent: a second quiesce retires nothing further.
  sk.quiesce();
  const qc::IbrStats s2 = sk.ibr_stats();
  CHECK_EQ(s2.live_blocks(), published_runs(sk));
  CHECK_EQ(s2.retired, s.retired);
}

QC_TEST(retire_list_is_empty_after_every_drain_group_without_queriers) {
  // No Querier handle exists, so no epoch is announced and the scan that
  // ends every drain group frees everything that group retired: the list
  // is empty whenever the lone updater is between flushes.
  qc::Quancurrent<double> sk(small_options(64, 8));
  auto u = sk.make_updater(0);
  for (int chunk = 0; chunk < 50; ++chunk) {
    for (int i = 0; i < 1'000; ++i) u.update(static_cast<double>(chunk * 1'000 + i));
    const qc::IbrStats s = sk.ibr_stats();
    CHECK_EQ(s.retire_list_len, std::uint64_t{0});
    CHECK_EQ(s.reclaimed, s.retired);
  }
  CHECK(sk.ibr_stats().retired > 0);  // the cascades did retire blocks
}

QC_TEST(tight_retire_cap_never_throttles_without_queriers) {
  // The throttle exists for stalled queriers.  With none alive and the
  // tightest legal cap, concurrent ingest must never wait on it.
  qc::Options o = small_options(64, 8);
  o.ibr_retire_cap = qc::Options::kMinRetireCap;
  qc::Quancurrent<double> sk(o);
  const auto data = qc::stream::make_stream(Distribution::kUniform, 200'000, 5);
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  CHECK_EQ(sk.size(), std::uint64_t{200'000});
  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.retired > 0);
  CHECK_EQ(s.throttle_waits, std::uint64_t{0});
  CHECK(!s.degraded);
}

QC_TEST(idle_querier_pins_only_its_snapshot) {
  // A querier's snapshot points into level blocks, reserved from one
  // accepted refresh to the next.  Its reservation is an epoch interval, so
  // an idle querier holds only the blocks live at its snapshot: the blocks
  // the stream publishes and retires afterwards are all reclaimed, the
  // tightest cap never throttles, and the idle snapshot's runs stay
  // bit-identical (a freed and reused block would change them).
  qc::Options o = small_options(64, 8);
  o.ibr_retire_cap = qc::Options::kMinRetireCap;
  qc::Quancurrent<double> sk(o);
  const auto prefill = qc::stream::make_stream(Distribution::kUniform, 20'000, 3);
  qc::bench::ingest_quancurrent(sk, prefill, 1, /*quiesce=*/true);
  auto q = sk.make_querier();
  std::vector<std::vector<double>> before;
  for (const auto& r : q.runs()) before.emplace_back(r.data, r.data + r.size);
  CHECK(before.size() > 1);
  const double median = q.quantile(0.5);

  const auto data = qc::stream::make_stream(Distribution::kNormal, 200'000, 4);
  qc::bench::ingest_quancurrent(sk, data, 4, /*quiesce=*/true);
  CHECK_EQ(sk.size(), std::uint64_t{220'000});
  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.retired > before.size());
  CHECK_EQ(s.throttle_waits, std::uint64_t{0});
  CHECK(!s.degraded);
  CHECK_EQ(s.pinned_epoch_age, std::uint64_t{0});  // idle, not in flight
  CHECK(s.retire_list_len < qc::Options::kMinRetireCap);

  std::vector<std::vector<double>> after;
  for (const auto& r : q.runs()) after.emplace_back(r.data, r.data + r.size);
  CHECK(after == before);
  CHECK(q.quantile(0.5) == median);
  q.refresh();
  CHECK_EQ(q.size(), std::uint64_t{220'000});
}

QC_TEST(convenience_query_then_long_ingest_never_throttles) {
  // quantile() creates the convenience querier, which then holds its
  // snapshot for the rest of this test while update() streams on the same
  // thread.  A reservation that pinned every later block (a held epoch)
  // would fill the retire list and throttle forever, waiting on this very
  // thread; the interval releases everything born after the snapshot.
  qc::Options o = small_options(64, 8);
  o.ibr_retire_cap = qc::Options::kMinRetireCap;
  qc::Quancurrent<double> sk(o);
  for (int i = 0; i < 10'000; ++i) sk.update(static_cast<double>(i));
  const double mid = sk.quantile(0.5);
  CHECK(mid > 0.0);
  for (int i = 0; i < 1'000'000; ++i) sk.update(static_cast<double>(i % 4'099));
  const qc::IbrStats s = sk.ibr_stats();
  CHECK(s.retired > qc::Options::kMinRetireCap);
  CHECK_EQ(s.throttle_waits, std::uint64_t{0});
  CHECK(!s.degraded);
  CHECK_EQ(sk.rank(1e300), std::uint64_t{1'010'000});
}

QC_TEST(idle_queriers_at_different_stream_points_never_throttle) {
  // Several idle handles, each holding a snapshot from a different stream
  // point, together keep more retired blocks than the tightest cap leaves
  // room for beside a drain group's burst.  Those blocks are a fixed set
  // per handle, so they must not count against the cap: if they did, this
  // thread's own update() would throttle forever, waiting on its handles.
  qc::Options o = small_options(64, 8);
  o.ibr_retire_cap = qc::Options::kMinRetireCap;
  qc::Quancurrent<double> sk(o);
  std::deque<qc::Quancurrent<double>::Querier> queriers;  // never moved
  std::vector<std::vector<std::vector<double>>> held;
  std::uint64_t n = 0;
  for (int h = 0; h < 4; ++h) {
    // Doubling gaps: each snapshot differs from the last in higher levels.
    for (int i = 0; i < (10'000 << h); ++i) sk.update(static_cast<double>(n++ % 7'919));
    queriers.emplace_back(sk);
    held.emplace_back();
    for (const auto& r : queriers.back().runs()) held.back().emplace_back(r.data, r.data + r.size);
  }
  for (int i = 0; i < 1'000'000; ++i) sk.update(static_cast<double>(n++ % 4'099));
  const qc::IbrStats s = sk.ibr_stats();
  CHECK_EQ(s.throttle_waits, std::uint64_t{0});
  CHECK(!s.degraded);
  CHECK_EQ(s.pinned_epoch_age, std::uint64_t{0});
  // The idle snapshots hold more retired blocks than the whole cap.
  CHECK(s.retire_list_len > qc::Options::kMinRetireCap);
  for (std::size_t h = 0; h < queriers.size(); ++h) {
    std::vector<std::vector<double>> now;
    for (const auto& r : queriers[h].runs()) now.emplace_back(r.data, r.data + r.size);
    CHECK(now == held[h]);
  }
  sk.quiesce();
  CHECK_EQ(sk.size(), n);
}

QC_TEST(serialize_propagation_is_bit_equivalent) {
  // The ablation control arm only adds a lock around owner duties — with one
  // thread the two engines must walk identical states.  The serialized
  // images may differ ONLY in the serialize_propagation options byte
  // (offset 34: header 12 + k/b/rho 12 + presort/stats 2 + combine/queue 8).
  qc::Options base = small_options(64, 8);
  base.seed = 99;
  qc::Options serial = base;
  serial.serialize_propagation = true;
  qc::Quancurrent<double> sk_a(base);
  qc::Quancurrent<double> sk_b(serial);
  const auto data = qc::stream::make_stream(Distribution::kNormal, 40'000, 7);
  for (double v : data) {
    sk_a.update(v);
    sk_b.update(v);
  }
  sk_a.quiesce();
  sk_b.quiesce();

  std::vector<std::byte> blob_a(sk_a.serialized_size());
  std::vector<std::byte> blob_b(sk_b.serialized_size());
  CHECK_EQ(sk_a.serialize(blob_a), blob_a.size());
  CHECK_EQ(sk_b.serialize(blob_b), blob_b.size());
  CHECK_EQ(blob_a.size(), blob_b.size());
  std::size_t diffs = 0;
  std::size_t diff_at = 0;
  for (std::size_t i = 0; i < blob_a.size(); ++i) {
    if (blob_a[i] != blob_b[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  CHECK_EQ(diffs, std::size_t{1});
  CHECK_EQ(diff_at, std::size_t{34});
}

QC_TEST(quiesce_tolerates_concurrent_merge_into) {
  // quiesce()'s precondition bans concurrent update(), not concurrent
  // merge_into(): a merging peer may enqueue (and self-drain) install
  // batches at any moment, so the historical head==tail assert after the
  // drain was spuriously violable.  Hammer the two against each other.
  qc::Quancurrent<double> src(small_options(64, 8));
  for (int i = 0; i < 10'000; ++i) src.update(static_cast<double>(i));
  src.quiesce();
  const std::uint64_t src_size = src.size();
  CHECK(src_size > 0);

  qc::Quancurrent<double> target(small_options(64, 8));
  constexpr int kMerges = 50;
  std::thread merger([&] {
    for (int m = 0; m < kMerges; ++m) CHECK(src.merge_into(target));
  });
  for (int i = 0; i < 200; ++i) target.quiesce();
  merger.join();

  target.quiesce();
  CHECK_EQ(target.size(), src_size * kMerges);
  const qc::IbrStats s = target.ibr_stats();
  CHECK_EQ(s.live_blocks(), published_runs(target));
}

QC_TEST(sharded_ibr_stats_aggregate_over_shards) {
  qc::core::ShardedQuancurrent<double> sk(2, small_options(64, 8));
  {
    auto u0 = sk.make_updater(0);
    auto u1 = sk.make_updater(1);
    for (int i = 0; i < 30'000; ++i) {
      u0.update(static_cast<double>(i));
      u1.update(static_cast<double>(-i));
    }
  }
  sk.quiesce();
  const qc::IbrStats total = sk.ibr_stats();
  const qc::IbrStats s0 = sk.shard(0).ibr_stats();
  const qc::IbrStats s1 = sk.shard(1).ibr_stats();
  CHECK(s0.allocated > 0);
  CHECK(s1.allocated > 0);
  CHECK_EQ(total.allocated, s0.allocated + s1.allocated);
  CHECK_EQ(total.retired, s0.retired + s1.retired);
  CHECK_EQ(total.freed, s0.freed + s1.freed);
  CHECK_EQ(total.peak_unreclaimed,
           std::max(s0.peak_unreclaimed, s1.peak_unreclaimed));
}

QC_TEST_MAIN()
