// Extension: update scaling beyond a single sketch's contention knee.
//
// A single Quancurrent funnels every flush through per-node gather buffers
// and one install latch; past some thread count those shared points are the
// bottleneck (fig06a's gather_waits/latch_spins).  ShardedQuancurrent splits
// the stream across S independent sketches (thread-affinity routing) and
// queries all shards' runs as one snapshot, so update throughput keeps scaling.
// This driver sweeps threads over {1..max(16, QC_MAX_THREADS)} for a single
// sketch vs S ∈ {2, 4} shards, then runs a mixed phase on S = 4 to show
// cross-shard queries staying live (and lock-free) during ingestion.
//
// Writes BENCH_sharded.json when QC_BENCH_JSON is set.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B, QC_BENCH_JSON.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "core/sharded.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "stream/generators.hpp"

int main() {
  using namespace qc;
  auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 1024));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));
  // The interesting region starts past the single-sketch knee, so this sweep
  // always includes 16 threads even when QC_MAX_THREADS is lower — and the
  // knee only manifests with enough stream per thread and enough runs to
  // average out scheduling noise, so smoke scale gets floored up here.
  const std::uint32_t max_threads = std::max(16u, scale.max_threads);
  scale.keys = std::max<std::uint64_t>(scale.keys, 500'000);
  scale.runs = std::max(scale.runs, 4u);

  std::printf("=== ext: sharded update scaling (single vs S=2 vs S=4) ===\n");
  std::printf("k=%u b=%u n=%llu runs=%u max_threads=%u\n\n", k, b,
              static_cast<unsigned long long>(scale.keys), scale.runs, max_threads);

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 23);

  const auto make_opts = [&] {
    core::Options o;
    o.k = k;
    o.b = b;
    o.collect_stats = true;
    o.topology = numa::Topology::virtual_nodes(4, 8);
    return o;
  };

  bench::JsonSeries json("ext_sharded_scaling", scale.name, "sharded4_ops_per_sec");
  Table t({"threads", "single", "S=2", "S=4", "S4/single", "single_waits", "S4_waits"});
  double single_at_max = 0.0;
  double sharded4_at_max = 0.0;
  for (std::uint32_t threads : bench::thread_sweep(max_threads)) {
    core::Stats single_stats;
    const double single = bench::average_runs(scale.runs, [&] {
      core::Quancurrent<double> sk(make_opts());
      const double secs = bench::ingest_quancurrent(sk, data, threads);
      single_stats = sk.stats();
      return throughput(data.size(), secs);
    });
    const double s2 = bench::average_runs(scale.runs, [&] {
      core::ShardedQuancurrent<double> sk(2, make_opts());
      return throughput(data.size(), bench::ingest_quancurrent(sk, data, threads));
    });
    core::Stats s4_stats;
    const double s4 = bench::average_runs(scale.runs, [&] {
      core::ShardedQuancurrent<double> sk(4, make_opts());
      const double secs = bench::ingest_quancurrent(sk, data, threads);
      s4_stats = sk.stats();
      return throughput(data.size(), secs);
    });
    single_at_max = single;
    sharded4_at_max = s4;
    json.add(threads, s4);
    t.add_row({Table::integer(threads), Table::mops(single), Table::mops(s2),
               Table::mops(s4), Table::num(s4 / single, 2) + "x",
               Table::integer(single_stats.gather_waits + single_stats.latch_spins),
               Table::integer(s4_stats.gather_waits + s4_stats.latch_spins)});
  }
  t.print();
  std::printf("\n@%u threads: single=%s S4=%s (%.2fx)\n", max_threads,
              Table::mops(single_at_max).c_str(), Table::mops(sharded4_at_max).c_str(),
              sharded4_at_max / single_at_max);

  // Mixed phase: S = 4 shards ingesting while cross-shard queriers refresh;
  // the facade querier takes no lock, so queries stay live throughout.
  const std::uint32_t upd = std::min<std::uint32_t>(8, max_threads);
  const std::uint32_t qry = std::min<std::uint32_t>(4, max_threads);
  core::ShardedQuancurrent<double> mixed_sk(4, make_opts());
  const auto mixed = bench::run_mixed(mixed_sk, data, upd, qry);
  std::printf("mixed (S=4, %uu+%uq): upd=%s qry=%s refresh p50=%.1fus p99=%.1fus "
              "holes=%llu\n",
              upd, qry, Table::mops(mixed.update_throughput).c_str(),
              Table::mops(mixed.query_throughput).c_str(), mixed.refresh_p50_us,
              mixed.refresh_p99_us, static_cast<unsigned long long>(mixed.holes));

  json.counter("single_at_max_threads", single_at_max);
  json.counter("sharded4_at_max_threads", sharded4_at_max);
  json.counter("sharded4_speedup", sharded4_at_max / single_at_max);
  json.counter("mixed_update_tput", mixed.update_throughput);
  json.counter("mixed_query_tput", mixed.query_throughput);

  const std::string dir = bench::json_out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/BENCH_sharded.json";
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
