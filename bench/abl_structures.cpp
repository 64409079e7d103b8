// Ablation A2: structural choices — incremental query snapshots and
// Gather&Sort double-buffering.
//  (a) refresh() vs refresh_full() on every query in a mixed workload.
//      refresh() is O(1) while nothing changed and builds the merged summary
//      only for a second query on a snapshot; refresh_full() reloads every
//      level pointer, re-copies the tail and builds the summary eagerly on
//      every call.  Quantifies Figure 6c's incremental-snapshot claim;
//  (b) one vs two G&S buffers per node (rho = 1 vs rho = 2) in update-only:
//      quantifies the ingestion/propagation overlap the second buffer
//      provides.
//
// Env: QC_SCALE/QC_KEYS/QC_RUNS/QC_MAX_THREADS, QC_K, QC_B.
#include <cstdio>

#include "bench_util/harness.hpp"
#include "bench_util/workload.hpp"
#include "common/env.hpp"
#include "common/fmt_table.hpp"
#include "stream/generators.hpp"

int main() {
  using namespace qc;
  const auto scale = env::bench_scale();
  const std::uint32_t k = static_cast<std::uint32_t>(env::get_u64("QC_K", 1024));
  const std::uint32_t b = static_cast<std::uint32_t>(env::get_u64("QC_B", 16));

  std::printf("=== Ablation A2: incremental snapshots & G&S double-buffering ===\n");
  std::printf("k=%u b=%u n=%llu runs=%u\n\n", k, b,
              static_cast<unsigned long long>(scale.keys), scale.runs);

  const auto data = stream::make_stream(stream::Distribution::kUniform, scale.keys, 13);

  // (a) incremental vs full refresh.
  {
    std::printf("-- (a) refresh vs refresh_full in a mixed workload (2 upd, 4 qry) --\n");
    Table t({"refresh", "query_tput", "update_tput", "miss_rate"});
    for (bool full : {false, true}) {
      core::Options o;
      o.k = k;
      o.b = b;
      o.collect_stats = true;
      o.topology = numa::Topology::virtual_nodes(1, 8);
      core::Quancurrent<double> sk(o);
      bench::ingest_quancurrent(sk, data, 2, /*quiesce=*/true);
      const auto r = bench::run_mixed(sk, data, 2, 4, /*full_refresh=*/full);
      t.add_row({full ? "full" : "incremental", Table::mops(r.query_throughput),
                 Table::mops(r.update_throughput), Table::percent(r.query_miss_rate)});
    }
    t.print();
  }

  // (b) single vs double G&S buffer.
  {
    std::printf("\n-- (b) Gather&Sort buffers per node (update-only) --\n");
    Table t({"threads", "double_buffer", "single_buffer", "ratio"});
    for (std::uint32_t threads : bench::thread_sweep(scale.max_threads)) {
      auto measure = [&](bool single) {
        return bench::average_runs(scale.runs, [&] {
          core::Options o;
          o.k = k;
          o.b = b;
          o.rho = single ? 1 : 2;  // Gather&Sort buffers per node
          o.topology = numa::Topology::virtual_nodes(4, 8);
          core::Quancurrent<double> sk(o);
          return throughput(data.size(), bench::ingest_quancurrent(sk, data, threads));
        });
      };
      const double two = measure(false);
      const double one = measure(true);
      t.add_row({Table::integer(threads), Table::mops(two), Table::mops(one),
                 Table::num(two / one, 2) + "x"});
    }
    t.print();
  }
  std::printf("\nexpected: incremental refresh lifts query throughput well above\n"
              "refresh_full, which pays a summary build per query; the second\n"
              "buffer helps once several threads share a node.\n");
  return 0;
}
