// Merge-based construction of weighted quantile summaries.
//
// A sketch snapshot is not an unordered bag of items: every level slot is a
// sorted k-run by construction (the KLL compactor invariant), and the only
// unsorted part is the small weight-1 tail.  Building the query summary is
// therefore a multiway merge of R items spread over L sorted runs — O(R log L)
// with a tournament (loser) tree — not an O(R log R) global sort.
//
// The summary itself is stored structure-of-arrays: a sorted item array plus
// a prefix-summed weight array.  That turns
//   quantile(phi) into a binary search over prefix weights, and
//   rank(v)/cdf(v) into a binary search over items,
// O(log R) per call instead of the previous O(R) linear scans.
//
// The summary is only worth building for a snapshot that is queried more
// than once.  runs_rank and RunSelector answer the same questions straight
// from the sorted runs — rank as one binary search per run, quantile as a
// multi-run selection — for a few microseconds instead of the O(R log L)
// merge.  RunSnapshot holds that policy for both queriers: the first query
// on each new snapshot answers from the runs, the second builds the summary.
//
// Ties between runs break by run index, so for a fixed run order the merge
// output is fully deterministic — which is what lets refresh(),
// refresh_full() and a fresh querier of the same snapshot produce
// bit-identical summaries.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace qc::core {

// One sorted run: `size` items at `data`, each carrying the same weight.
template <typename T>
struct RunRef {
  const T* data = nullptr;
  std::size_t size = 0;
  std::uint64_t weight = 1;
};

// Value-sorted weighted summary, structure-of-arrays: items() ascending and
// prefix_weights()[i] = total weight of items()[0..i].
template <typename T>
class WeightedSummary {
 public:
  void clear() {
    items_.clear();
    prefix_.clear();
  }

  void reserve(std::size_t n) {
    items_.reserve(n);
    prefix_.reserve(n);
  }

  void append(const T& item, std::uint64_t weight) {
    items_.push_back(item);
    prefix_.push_back(total_weight() + weight);
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::uint64_t total_weight() const { return prefix_.empty() ? 0 : prefix_.back(); }
  std::span<const T> items() const { return items_; }
  std::span<const std::uint64_t> prefix_weights() const { return prefix_; }

  friend bool operator==(const WeightedSummary& a, const WeightedSummary& b) {
    return a.items_ == b.items_ && a.prefix_ == b.prefix_;
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint64_t> prefix_;
};

// Smallest item whose cumulative weight reaches phi * total_weight, by binary
// search over the prefix-weight array.
template <typename T>
T summary_quantile(const WeightedSummary<T>& summary, double phi) {
  if (summary.empty()) return T{};
  const double target =
      std::clamp(phi, 0.0, 1.0) * static_cast<double>(summary.total_weight());
  const auto prefix = summary.prefix_weights();
  const auto it = std::partition_point(
      prefix.begin(), prefix.end(),
      [target](std::uint64_t c) { return static_cast<double>(c) < target; });
  const auto items = summary.items();
  return it == prefix.end() ? items.back()
                            : items[static_cast<std::size_t>(it - prefix.begin())];
}

// Total weight of items strictly less than `v`, by binary search over items.
template <typename T, typename Compare = std::less<T>>
std::uint64_t summary_rank(const WeightedSummary<T>& summary, const T& v,
                           Compare cmp = Compare()) {
  const auto items = summary.items();
  const auto idx = static_cast<std::size_t>(
      std::lower_bound(items.begin(), items.end(), v, cmp) - items.begin());
  return idx == 0 ? 0 : summary.prefix_weights()[idx - 1];
}

// ----- answers straight from the sorted runs ---------------------------------
//
// The functions below answer from a set of sorted weighted runs without
// merging them.  Each one returns exactly what the summary_* function does on
// RunMerger::merge of the same runs, bit for bit, tie order included.

// Total weight of the runs (the merged summary's total_weight()).
template <typename T>
std::uint64_t runs_total_weight(std::span<const RunRef<T>> runs) {
  std::uint64_t total = 0;
  for (const auto& r : runs) total += r.weight * r.size;
  return total;
}

// std::partition_point over [first, last) without branches: the halving
// step compiles to a conditional move, so a search costs ~log2(n) dependent
// loads and no mispredicted branches — the per-run searches below run on
// every query.
template <typename T, typename Pred>
const T* partition_point_branchless(const T* first, const T* last, Pred pred) {
  std::size_t n = static_cast<std::size_t>(last - first);
  if (n == 0) return first;
  while (n > 1) {
    const std::size_t half = n / 2;
    first = pred(first[half]) ? first + half : first;
    n -= half;
  }
  return first + (pred(*first) ? 1 : 0);
}

// partition_point_branchless over every run's window [at[r], end[r]) at
// once, leaving each result in at[r].  The searches advance in lockstep,
// one probe per run per step, so the runs' cache misses overlap instead of
// queueing: a live snapshot's runs are level blocks another core just
// wrote.  `len` is scratch with room for runs.size() entries.
template <typename T, typename Pred>
void partition_points(std::span<const RunRef<T>> runs, std::size_t* at,
                      const std::size_t* end, std::size_t* len, Pred pred) {
  std::size_t longest = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    len[r] = end[r] - at[r];
    longest = std::max(longest, len[r]);
  }
  for (; longest > 1; longest -= longest / 2) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (len[r] < 2) continue;  // done, or an empty window: nothing to probe
      const std::size_t half = len[r] / 2;
      at[r] = pred(runs[r].data[at[r] + half]) ? at[r] + half : at[r];
      len[r] -= half;
    }
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (len[r] != 0 && pred(runs[r].data[at[r]])) ++at[r];
  }
}

// Total weight of items strictly less than `v`: the KLL weighted-compactor
// rank (Karnin, Lang & Liberty), one binary search per run.
template <typename T, typename Compare = std::less<T>>
std::uint64_t runs_rank(std::span<const RunRef<T>> runs, const T& v,
                        Compare cmp = Compare()) {
  std::uint64_t rank = 0;
  for (const auto& r : runs) {
    const T* end = partition_point_branchless(
        r.data, r.data + r.size, [&](const T& x) { return cmp(x, v); });
    rank += r.weight * static_cast<std::uint64_t>(end - r.data);
  }
  return rank;
}

// summary_quantile by multi-run selection.  The answer is the smallest value
// v whose weight of items <= v reaches phi * total (the same double
// comparison summary_quantile makes).  Each run keeps a window [lo, hi) of
// candidates; everything below a window is known to be short of the target,
// everything above it is >= the best answer found so far.  A round picks
// one position per window, takes the window-size-weighted median of the
// items there as the pivot, weighs the items <= pivot with one upper_bound
// per window, and then drops every candidate <= pivot (short) or >= pivot
// (reaches; pivot is the new best).
//
// The positions sit at the fraction of the windows' weight the target still
// needs, which on runs sampled from one stream lands the pivot next to the
// answer (about half the rounds of midpoints).  A round that removes less
// than a quarter of the candidates makes the next one use the midpoints:
// then at least half the candidates of runs holding half of them go, so the
// selection keeps O(log R) rounds of one binary search per run each.  Holds
// its scratch across calls, so it stops allocating once the run count stops
// growing.
template <typename T, typename Compare = std::less<T>>
class RunSelector {
 public:
  T quantile(std::span<const RunRef<T>> runs, double phi, Compare cmp = Compare()) {
    const std::size_t n = runs.size();
    std::size_t items = 0;
    for (const auto& r : runs) items += r.size;
    if (items == 0) return T{};
    const double target =
        std::clamp(phi, 0.0, 1.0) * static_cast<double>(runs_total_weight(runs));
    const auto reaches = [target](std::uint64_t c) {
      return !(static_cast<double>(c) < target);
    };
    lo_.assign(n, 0);
    hi_.resize(n);
    cut_.resize(n);
    len_.resize(n);
    for (std::size_t r = 0; r < n; ++r) hi_[r] = runs[r].size;
    const T* best = nullptr;
    std::size_t prev_left = 2 * items;
    for (;;) {
      std::size_t left = 0;
      std::uint64_t short_weight = 0;
      std::uint64_t window_weight = 0;
      for (std::size_t r = 0; r < n; ++r) {
        left += hi_[r] - lo_[r];
        short_weight += runs[r].weight * lo_[r];
        window_weight += runs[r].weight * (hi_[r] - lo_[r]);
      }
      if (left == 0) break;
      double f = 0.5;
      if (4 * left <= 3 * prev_left) {
        const double need = (target - static_cast<double>(short_weight)) /
                            static_cast<double>(window_weight);
        f = need >= 0.0 ? std::min(need, 1.0) : 0.0;  // NaN target: 0
      }
      prev_left = left;
      picks_.clear();
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t len = hi_[r] - lo_[r];
        if (len == 0) continue;
        const auto at = std::min(len - 1, static_cast<std::size_t>(f * static_cast<double>(len)));
        picks_.push_back({runs[r].data + lo_[r] + at, len});
      }
      std::sort(picks_.begin(), picks_.end(),
                [&](const Pick& a, const Pick& b) { return cmp(*a.item, *b.item); });
      std::size_t seen = 0;
      const T* pivot = nullptr;
      for (const Pick& p : picks_) {
        seen += p.window;
        if (2 * seen >= left) {
          pivot = p.item;
          break;
        }
      }
      const auto not_above = [&](const T& x) { return !cmp(*pivot, x); };
      cut_ = lo_;
      partition_points(runs, cut_.data(), hi_.data(), len_.data(), not_above);
      std::uint64_t at_most = 0;  // weight of items <= *pivot
      for (std::size_t r = 0; r < n; ++r) at_most += runs[r].weight * cut_[r];
      if (reaches(at_most)) {
        best = pivot;
        const auto below = [&](const T& x) { return cmp(x, *pivot); };
        for (std::size_t r = 0; r < n; ++r) {
          // Items equal to the pivot end at cut_[r]; only search for where
          // they start if there is one (an empty window leaves hi_ at cut_).
          const std::size_t c = cut_[r];
          hi_[r] = c > lo_[r] && !below(runs[r].data[c - 1]) ? lo_[r] : c;
        }
        partition_points(runs, hi_.data(), cut_.data(), len_.data(), below);
        best_lb_ = hi_;  // per run, the first item not less than *best
      } else {
        lo_.swap(cut_);
      }
    }
    // The last item reaches the target (the total weight), so some pivot did.
    QC_CHECK(best != nullptr, "RunSelector found no item reaching the target");
    // The merge orders items equal to *best by run index, then position;
    // walk that order to the item whose prefix weight first reaches.
    std::uint64_t below = 0;
    for (std::size_t r = 0; r < n; ++r) below += runs[r].weight * best_lb_[r];
    for (std::size_t r = 0; r < n; ++r) {
      const T* end = runs[r].data + runs[r].size;
      for (const T* it = runs[r].data + best_lb_[r]; it != end && !cmp(*best, *it); ++it) {
        below += runs[r].weight;
        if (reaches(below)) return *it;
      }
    }
    return *best;
  }

 private:
  struct Pick {
    const T* item;       // the window's candidate pivot
    std::size_t window;  // the window's size, its weight in the median
  };
  std::vector<Pick> picks_;
  std::vector<std::size_t> lo_, hi_, cut_, len_, best_lb_;
};

// Reusable L-way merge.  Holds its cursor and tree storage across calls so a
// refresh loop does not allocate once the vectors reach steady-state size.
//
// Two front ends share the loser tree:
//   merge()       — weighted summary output, run-index tie-break (the query
//                   engine; deterministic for cache/full refresh equivalence,
//                   and across shards when their runs are concatenated in
//                   shard order).
//   merge_items() — raw item output, no weights and no tie-break (equal items
//                   are interchangeable values), one comparison per tree node.
//                   The FCDS baseline merges its base buffer's sorted runs
//                   with it.
template <typename T, typename Compare = std::less<T>>
class RunMerger {
 public:
  // Merges `runs` (each individually sorted under `cmp`) into `out`,
  // replacing its contents.  Ties break toward the lower run index.
  void merge(std::span<const RunRef<T>> runs, WeightedSummary<T>& out,
             Compare cmp = Compare()) {
    out.clear();
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size;
    out.reserve(total);
    if (total == 0) return;
    if (runs.size() == 1) {
      const auto& r = runs[0];
      for (std::size_t i = 0; i < r.size; ++i) out.append(r.data[i], r.weight);
      return;
    }
    runs_ = runs;
    cmp_ = cmp;
    run_tree(
        [this](std::size_t i, std::size_t j) {
          const T& a = runs_[i].data[pos_[i]];
          const T& b = runs_[j].data[pos_[j]];
          if (cmp_(a, b)) return true;
          if (cmp_(b, a)) return false;
          return i < j;
        },
        [this, &out](std::size_t w) {
          out.append(runs_[w].data[pos_[w]], runs_[w].weight);
        });
  }

  // Merges `runs` into the raw item array `out` (weights ignored), which must
  // hold at least the runs' total size.  Returns the number of items written.
  std::size_t merge_items(std::span<const RunRef<T>> runs, std::span<T> out,
                          Compare cmp = Compare()) {
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size;
    // Memory safety, not a debug nicety: the copy/merge below writes `total`
    // items through out.data(), so an undersized span is an overrun in
    // Release — exactly the class of invariant the policy reserves QC_CHECK
    // for (common/check.hpp).
    QC_CHECK(out.size() >= total, "merge_items output span smaller than input total");
    if (total == 0) return 0;
    if (runs.size() == 1) {
      std::copy_n(runs[0].data, runs[0].size, out.data());
      return total;
    }
    runs_ = runs;
    cmp_ = cmp;
    T* dst = out.data();
    run_tree(
        [this](std::size_t i, std::size_t j) {
          // No tie-break: equal raw items are interchangeable.
          return !cmp_(runs_[j].data[pos_[j]], runs_[i].data[pos_[i]]);
        },
        [this, &dst](std::size_t w) { *dst++ = runs_[w].data[pos_[w]]; });
    return total;
  }

 private:
  static constexpr std::size_t kExhausted = static_cast<std::size_t>(-1);

  // Builds the loser tree over runs_ and drains it, calling emit(run) once
  // per output item.  `less` compares the current fronts of two non-exhausted
  // leaves; exhausted leaves always lose.
  //
  // Loser tree over the implicit complete binary tree whose internal nodes
  // are 1..L-1 and whose leaves are L..2L-1 (leaf x = run x-L, parent x/2):
  // tree_[x] holds the loser of node x's subtree, tree_[0] the overall
  // winner.  kExhausted is an always-losing sentinel.  Built bottom-up via a
  // scratch winner array.
  template <typename Less, typename Emit>
  void run_tree(Less less, Emit emit) {
    const std::size_t num_runs = runs_.size();
    const auto wins = [&less](std::size_t i, std::size_t j) {
      if (i == kExhausted) return false;
      if (j == kExhausted) return true;
      return less(i, j);
    };
    pos_.assign(num_runs, 0);
    tree_.assign(num_runs, kExhausted);
    win_.assign(2 * num_runs, kExhausted);
    for (std::size_t i = 0; i < num_runs; ++i) {
      if (runs_[i].size != 0) win_[num_runs + i] = i;
    }
    for (std::size_t x = num_runs - 1; x >= 1; --x) {
      const std::size_t a = win_[2 * x];
      const std::size_t b = win_[2 * x + 1];
      if (wins(a, b)) {
        win_[x] = a;
        tree_[x] = b;
      } else {
        win_[x] = b;
        tree_[x] = a;
      }
    }
    tree_[0] = win_[1];

    while (tree_[0] != kExhausted) {
      const std::size_t w = tree_[0];
      emit(w);
      ++pos_[w];
      // Replay the path from leaf w to the root, leaving the new overall
      // winner in tree_[0] and losers along the path.
      std::size_t winner = pos_[w] < runs_[w].size ? w : kExhausted;
      for (std::size_t node = (w + num_runs) / 2; node > 0; node /= 2) {
        if (wins(tree_[node], winner)) std::swap(tree_[node], winner);
      }
      tree_[0] = winner;
    }
  }

  std::span<const RunRef<T>> runs_;
  Compare cmp_{};
  std::vector<std::size_t> pos_;
  std::vector<std::size_t> tree_;
  std::vector<std::size_t> win_;  // init-time scratch
};

// A query snapshot held as sorted weighted runs, and the answer policy both
// queriers (Quancurrent's and ShardedQuancurrent's) share.  The first query
// on a snapshot answers straight from the runs — runs_rank, RunSelector —
// and the second builds the merged summary, which it and every later query
// binary-search.  Both paths give the same answers, bit for bit.  A caller
// lays a snapshot out with clear() and push(), then makes it current with
// publish(); the runs' data must stay valid until the next publish().
template <typename T, typename Compare = std::less<T>>
class RunSnapshot {
 public:
  // Room for `n` runs, so that push() cannot throw for the first `n`.
  void reserve(std::size_t n) { runs_.reserve(n); }
  void clear() { runs_.clear(); }
  void push(const RunRef<T>& run) { runs_.push_back(run); }

  void publish() {
    size_ = runs_total_weight(runs());
    summary_ready_ = false;
    queries_ = 0;
  }

  std::span<const RunRef<T>> runs() const { return runs_; }
  std::uint64_t size() const { return size_; }

  // Summaries built so far, by queries and by summary().
  std::uint64_t summary_builds() const { return summary_builds_; }

  // The value-sorted summary of the current snapshot, built on first use.
  const WeightedSummary<T>& summary() const {
    if (!summary_ready_) build_summary();
    return summary_;
  }

  T quantile(double phi) const {
    return summary_ready_ || summary_due() ? summary_quantile(summary_, phi)
                                           : selector_.quantile(runs(), phi, cmp_);
  }

  std::uint64_t rank(const T& v) const {
    return summary_ready_ || summary_due() ? summary_rank(summary_, v, cmp_)
                                           : runs_rank(runs(), v, cmp_);
  }

  double cdf(const T& v) const {
    return size_ == 0 ? 0.0 : static_cast<double>(rank(v)) / static_cast<double>(size_);
  }

 private:
  // Called while the summary is not built.  The first query on a snapshot
  // answers from the runs (false); the second builds the summary for itself
  // and every later one.  A build that cannot allocate leaves that query
  // answering from the runs too.  Out of line, so that the answer paths
  // above stay small enough to inline into a caller's query loop.
  [[gnu::noinline]] bool summary_due() const {
    if (queries_++ == 0) return false;
    try {
      build_summary();
    } catch (const std::bad_alloc&) {
      return false;
    }
    return true;
  }

  void build_summary() const {
    merger_.merge(runs(), summary_, cmp_);
    summary_ready_ = true;
    ++summary_builds_;
  }

  std::vector<RunRef<T>> runs_;
  std::uint64_t size_ = 0;
  // Query-side state: the selection scratch and the lazily built summary.
  mutable RunSelector<T, Compare> selector_;
  mutable RunMerger<T, Compare> merger_;
  mutable WeightedSummary<T> summary_;
  mutable bool summary_ready_ = false;
  mutable std::uint64_t queries_ = 0;  // on the current snapshot
  mutable std::uint64_t summary_builds_ = 0;
  Compare cmp_{};
};

// Views `data` as consecutive sorted chunks of `chunk` items (the last chunk
// may be shorter) and appends one weight-1 RunRef per chunk to `runs` — the
// generic chunk-merge front end (pairs with RunMerger::merge_items).
template <typename T>
void chunk_runs(std::span<const T> data, std::size_t chunk,
                std::vector<RunRef<T>>& runs) {
  if (chunk == 0) chunk = data.size();
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    runs.push_back({data.data() + off, std::min(chunk, data.size() - off), 1});
  }
}

// Specialized high-throughput merge of consecutive pre-sorted chunks — the
// ingest hot path's Gather&Sort primitive (the batch owner merges the gather
// buffer's 2k/b updater-sorted b-chunks into the sorted 2k install batch) and
// the sequential sketch's base-buffer compaction.
//
// Strategy: bottom-up pairwise merge passes (ping-ponged between `out` and an
// internal buffer, parity chosen so the final pass lands in `out`).  A
// two-way branchless merge is latency-bound — each step's loads depend on the
// previous comparison (~10 cycles/item/pass) — so every pass runs FOUR
// independent merge tasks interleaved in one loop, overlapping their
// dependency chains (~3x the single-chain throughput).  Late passes with
// fewer than four pairs are cut into independent tasks by merge-path
// partitioning (binary search for the output-midpoint split), so the chain
// count stays at four all the way to the last pass.  Early passes are
// cache-local by construction: a pass at chunk length c merges adjacent runs
// that are contiguous in memory.
//
// Unlike the loser tree this is O(R log(R/chunk)) total work rather than
// O(R log L) comparisons with pointer-chasing constants; on uniform doubles
// it beats even the radix batch_sort baseline across k x b (see
// micro_primitives).  The output value sequence is exactly what a full sort
// of `data` would produce.
template <typename T, typename Compare = std::less<T>>
class ChunkMerger {
 public:
  // Merges `data` (consecutive sorted `chunk`-length runs, last may be
  // short) into `out`; out.size() must equal data.size() and must not
  // overlap data.  chunk == 0 means data is one sorted run.
  void merge(std::span<const T> data, std::size_t chunk, std::span<T> out,
             Compare cmp = Compare()) {
    const std::size_t n = data.size();
    // Guards every write of the merge passes below; an undersized out would
    // be an out-of-bounds write in Release, so this is QC_CHECK territory.
    QC_CHECK(out.size() == n, "ChunkMerger::merge output span must match input size");
    cmp_ = cmp;
    if (chunk == 0) chunk = n;
    std::size_t passes = 0;
    for (std::size_t c = chunk; c < n; c *= 2) ++passes;
    if (passes == 0) {
      std::copy(data.begin(), data.end(), out.begin());
      return;
    }
    if (tmp_.size() < n) tmp_.resize(n);
    T* bufs[2] = {tmp_.data(), out.data()};
    const T* src = data.data();
    std::size_t pi = (passes % 2) ^ 1;  // parity: the last pass writes `out`
    for (std::size_t c = chunk; c < n; c *= 2) {
      T* dst = bufs[pi ^ 1];
      tasks_.clear();
      const std::size_t pairs = (n + 2 * c - 1) / (2 * c);
      const std::size_t ways = pairs >= kChains ? 1 : (kChains + pairs - 1) / pairs;
      for (std::size_t lo = 0; lo < n; lo += 2 * c) {
        const T* xe = src + std::min(lo + c, n);
        const T* ye = src + std::min(lo + 2 * c, n);
        push_split({src + lo, xe, xe, ye, dst + lo}, ways);
      }
      run_tasks();
      src = dst;
      pi ^= 1;
    }
  }

 private:
  static constexpr std::size_t kChains = 4;

  struct Task {
    const T *x, *xe, *y, *ye;
    T* o;
  };
  struct Chain {
    const T *x = nullptr, *xe = nullptr, *y = nullptr, *ye = nullptr;
    T* o = nullptr;
    bool active = false;
  };

  // Splits `t` into `ways` tasks of near-equal output size by merge-path
  // partitioning: binary-search the split (i, j), i + j = mid, such that
  // x[0..i) and y[0..j) are exactly the first `mid` outputs of the merge.
  void push_split(Task t, std::size_t ways) {
    const std::size_t p = static_cast<std::size_t>(t.xe - t.x);
    const std::size_t q = static_cast<std::size_t>(t.ye - t.y);
    if (ways <= 1 || p + q < 128) {
      tasks_.push_back(t);
      return;
    }
    const std::size_t mid = (p + q) / 2;
    std::size_t lo = mid > q ? mid - q : 0;
    std::size_t hi = std::min(mid, p);
    while (lo < hi) {
      const std::size_t i = (lo + hi) / 2;
      const std::size_t j = mid - i;
      if (i < p && j > 0 && cmp_(t.x[i], t.y[j - 1])) {
        lo = i + 1;
      } else if (i > 0 && j < q && cmp_(t.y[j], t.x[i - 1])) {
        hi = i;
      } else {
        lo = i;
        break;
      }
    }
    const std::size_t i = lo;
    const std::size_t j = mid - lo;
    push_split({t.x, t.x + i, t.y, t.y + j, t.o}, ways / 2);
    push_split({t.x + i, t.xe, t.y + j, t.ye, t.o + mid}, ways - ways / 2);
  }

  // Single-chain branchless drain of one task; the inner loop is guard-free
  // because neither side can exhaust within min(remaining_x, remaining_y)
  // steps.
  void finish(Chain& ch) {
    const T* x = ch.x;
    const T* y = ch.y;
    T* o = ch.o;
    for (;;) {
      const std::size_t m = static_cast<std::size_t>(
          std::min(ch.xe - x, ch.ye - y));
      if (m == 0) break;
      for (std::size_t i = 0; i < m; ++i) {
        const T vx = *x;
        const T vy = *y;
        const bool t = cmp_(vy, vx);
        *o++ = t ? vy : vx;
        x += !t;
        y += t;
      }
    }
    while (x != ch.xe) *o++ = *x++;
    while (y != ch.ye) *o++ = *y++;
    ch.active = false;
  }

  // Runs the pass's tasks on four interleaved chains.  Each block iteration
  // advances every chain by one guard-free step; a chain whose task ends is
  // tail-drained and refilled from the task list.
  void run_tasks() {
    std::size_t next = 0;
    Chain c0, c1, c2, c3;
    const auto feed = [&](Chain& ch) {
      if (!ch.active && next < tasks_.size()) {
        const Task& t = tasks_[next++];
        ch = {t.x, t.xe, t.y, t.ye, t.o, true};
      }
    };
    feed(c0);
    feed(c1);
    feed(c2);
    feed(c3);
    while (c0.active && c1.active && c2.active && c3.active) {
      const std::size_t m0 = static_cast<std::size_t>(std::min(c0.xe - c0.x, c0.ye - c0.y));
      const std::size_t m1 = static_cast<std::size_t>(std::min(c1.xe - c1.x, c1.ye - c1.y));
      const std::size_t m2 = static_cast<std::size_t>(std::min(c2.xe - c2.x, c2.ye - c2.y));
      const std::size_t m3 = static_cast<std::size_t>(std::min(c3.xe - c3.x, c3.ye - c3.y));
      const std::size_t m = std::min(std::min(m0, m1), std::min(m2, m3));
      const T *x0 = c0.x, *y0 = c0.y, *x1 = c1.x, *y1 = c1.y;
      const T *x2 = c2.x, *y2 = c2.y, *x3 = c3.x, *y3 = c3.y;
      T *o0 = c0.o, *o1 = c1.o, *o2 = c2.o, *o3 = c3.o;
      for (std::size_t i = 0; i < m; ++i) {
        const T a0 = *x0, b0 = *y0;
        const bool t0 = cmp_(b0, a0);
        const T a1 = *x1, b1 = *y1;
        const bool t1 = cmp_(b1, a1);
        const T a2 = *x2, b2 = *y2;
        const bool t2 = cmp_(b2, a2);
        const T a3 = *x3, b3 = *y3;
        const bool t3 = cmp_(b3, a3);
        o0[i] = t0 ? b0 : a0;
        x0 += !t0;
        y0 += t0;
        o1[i] = t1 ? b1 : a1;
        x1 += !t1;
        y1 += t1;
        o2[i] = t2 ? b2 : a2;
        x2 += !t2;
        y2 += t2;
        o3[i] = t3 ? b3 : a3;
        x3 += !t3;
        y3 += t3;
      }
      c0.x = x0, c0.y = y0, c0.o = o0 + m;
      c1.x = x1, c1.y = y1, c1.o = o1 + m;
      c2.x = x2, c2.y = y2, c2.o = o2 + m;
      c3.x = x3, c3.y = y3, c3.o = o3 + m;
      if (c0.x == c0.xe || c0.y == c0.ye) {
        finish(c0);
        feed(c0);
      }
      if (c1.x == c1.xe || c1.y == c1.ye) {
        finish(c1);
        feed(c1);
      }
      if (c2.x == c2.xe || c2.y == c2.ye) {
        finish(c2);
        feed(c2);
      }
      if (c3.x == c3.xe || c3.y == c3.ye) {
        finish(c3);
        feed(c3);
      }
    }
    if (c0.active) finish(c0);
    if (c1.active) finish(c1);
    if (c2.active) finish(c2);
    if (c3.active) finish(c3);
  }

  Compare cmp_{};
  std::vector<T> tmp_;
  std::vector<Task> tasks_;
};

// The pre-merge-engine summary construction — flatten every run into (item,
// weight) pairs and globally sort.  Kept as the reference RunMerger::merge is
// tested against, and as a micro_primitives row.
template <typename T, typename Compare = std::less<T>>
void sort_merge_runs(std::span<const RunRef<T>> runs, WeightedSummary<T>& out,
                     std::vector<std::pair<T, std::uint64_t>>& scratch,
                     Compare cmp = Compare()) {
  scratch.clear();
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size;
  scratch.reserve(total);
  for (const auto& r : runs) {
    for (std::size_t i = 0; i < r.size; ++i) scratch.emplace_back(r.data[i], r.weight);
  }
  std::sort(scratch.begin(), scratch.end(),
            [&cmp](const auto& a, const auto& b) { return cmp(a.first, b.first); });
  out.clear();
  out.reserve(total);
  for (const auto& [item, weight] : scratch) out.append(item, weight);
}

}  // namespace qc::core
