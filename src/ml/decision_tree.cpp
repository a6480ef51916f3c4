#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/binary.hpp"

namespace aqua::ml {
struct RegressionTree::BuildContext {
  const linalg::Matrix& x;
  std::span<const double> targets;
  std::span<const double> weights;   // may be empty
  std::span<const double> hessians;  // may be empty
  std::size_t max_features;

  double weight(std::size_t i) const { return weights.empty() ? 1.0 : weights[i]; }
  double hessian(std::size_t i) const { return hessians.empty() ? 1.0 : hessians[i]; }
};

void RegressionTree::fit(const linalg::Matrix& x, std::span<const double> targets,
                         std::span<const double> weights,
                         std::span<const std::size_t> sample_indices,
                         std::span<const double> hessians) {
  AQUA_REQUIRE(targets.size() == x.rows(), "target/feature row mismatch");
  AQUA_REQUIRE(weights.empty() || weights.size() == x.rows(), "weight row mismatch");
  AQUA_REQUIRE(hessians.empty() || hessians.size() == x.rows(), "hessian row mismatch");

  std::vector<std::size_t> indices;
  if (sample_indices.empty()) {
    indices.resize(x.rows());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
  } else {
    indices.assign(sample_indices.begin(), sample_indices.end());
  }
  AQUA_REQUIRE(!indices.empty(), "cannot fit a tree on zero samples");

  nodes_.clear();
  BuildContext ctx{x, targets, weights, hessians,
                   config_.max_features == 0 ? x.cols()
                                             : std::min(config_.max_features, x.cols())};
  Rng rng(config_.seed);
  build(ctx, indices, 0, indices.size(), 0, rng);
}

int RegressionTree::build(BuildContext& ctx, std::vector<std::size_t>& indices, std::size_t begin,
                          std::size_t end, std::size_t depth, Rng& rng) {
  const std::size_t count = end - begin;

  double sum_wt = 0.0, sum_wy = 0.0, sum_wh = 0.0, sum_wyy = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i = indices[k];
    const double w = ctx.weight(i);
    sum_wt += w;
    sum_wy += w * ctx.targets[i];
    sum_wyy += w * ctx.targets[i] * ctx.targets[i];
    sum_wh += w * ctx.hessian(i);
  }

  Node node;
  node.value = ctx.hessians.empty() ? (sum_wt > 0.0 ? sum_wy / sum_wt : 0.0)
                                    : sum_wy / std::max(sum_wh, 1e-12);

  const double node_sse = sum_wyy - (sum_wt > 0.0 ? sum_wy * sum_wy / sum_wt : 0.0);
  const bool can_split = depth < config_.max_depth && count >= config_.min_samples_split &&
                         node_sse > 1e-12;
  if (!can_split) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Candidate features (random subset when max_features < d).
  std::vector<std::size_t> features;
  if (ctx.max_features >= ctx.x.cols()) {
    features.resize(ctx.x.cols());
    std::iota(features.begin(), features.end(), std::size_t{0});
  } else {
    features = rng.sample_without_replacement(ctx.x.cols(), ctx.max_features);
  }

  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, std::size_t>> sorted;
  sorted.reserve(count);
  for (const std::size_t f : features) {
    sorted.clear();
    for (std::size_t k = begin; k < end; ++k) {
      sorted.emplace_back(ctx.x(indices[k], f), indices[k]);
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;  // constant feature

    double left_wt = 0.0, left_wy = 0.0, left_wyy = 0.0;
    std::size_t left_n = 0;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      const std::size_t i = sorted[k].second;
      const double w = ctx.weight(i);
      left_wt += w;
      left_wy += w * ctx.targets[i];
      left_wyy += w * ctx.targets[i] * ctx.targets[i];
      ++left_n;
      if (sorted[k].first == sorted[k + 1].first) continue;  // can't split inside ties
      const std::size_t right_n = count - left_n;
      if (left_n < config_.min_samples_leaf || right_n < config_.min_samples_leaf) continue;
      const double right_wt = sum_wt - left_wt;
      if (left_wt <= 0.0 || right_wt <= 0.0) continue;
      const double right_wy = sum_wy - left_wy;
      const double right_wyy = sum_wyy - left_wyy;
      const double left_sse = left_wyy - left_wy * left_wy / left_wt;
      const double right_sse = right_wyy - right_wy * right_wy / right_wt;
      const double gain = node_sse - left_sse - right_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted[k].first + sorted[k + 1].first);
      }
    }
  }

  if (best_feature < 0) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Partition indices[begin, end) in place around the split.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t i) {
        return ctx.x(i, static_cast<std::size_t>(best_feature)) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) {  // numerical edge: degenerate partition
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  node.feature = best_feature;
  node.threshold = best_threshold;
  nodes_.push_back(node);
  const auto self = static_cast<int>(nodes_.size()) - 1;
  const int left = build(ctx, indices, begin, mid, depth + 1, rng);
  const int right = build(ctx, indices, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

namespace {

// Flat histogram layout: kHistStride doubles per bin — sum of weights
// and sum of w*y, one SIMD pair per row accumulation. Row counts live in
// a separate uint32 plane so they stay integer-exact (parent-minus-child
// subtraction included) and the double cells stay half as wide.
constexpr std::size_t kHistStride = 2;

// Below this many (row x candidate) histogram cell visits the ThreadPool
// fan-out costs more than the scan itself.
constexpr std::size_t kMinParallelWork = std::size_t{1} << 14;

}  // namespace

// Declared in the header so HistVec can appear in build_store's
// signature. Plain operator new hands back 16-mod-32 bases for large
// blocks, which makes half of all 32-byte histogram cells straddle two
// cache lines; 64-byte alignment keeps every cell inside one.
template <typename T>
struct HistAllocator {
  using value_type = T;
  HistAllocator() = default;
  template <typename U>
  HistAllocator(const HistAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t{64});
  }
  bool operator==(const HistAllocator&) const { return true; }
};

// A node's histograms: (sum w, sum w*y) double cells plus a uint32 count
// plane, both num_features x max_bins. Counts in their own plane keep
// empty-bin detection exact on the subtraction path — integer subtraction
// leaves no residue — while the double cells stay one SIMD pair wide.
struct TreeHist {
  HistVec cells;
  std::vector<std::uint32_t> cnt;
  bool empty() const { return cells.empty(); }
};

struct RegressionTree::NodeTotals {
  double wt = 0.0;   // sum of weights
  double wy = 0.0;   // sum of w * y
  double wyy = 0.0;  // sum of w * y * y
  double wh = 0.0;   // sum of w * hessian (tracked only when hessians given)
  std::size_t count = 0;
};

struct RegressionTree::StoreContext {
  explicit StoreContext(const BinnedDataset& s) : store(s) {}

  const BinnedDataset& store;
  std::size_t max_features = 0;
  bool has_hessians = false;
  // Every feature is a candidate at every node, so a child's histograms
  // can be derived from the parent's by subtraction (the gradient
  // boosting case; RF's per-node feature sampling scans directly).
  bool subtract = false;

  // Rows of this fit in partition order; entries [2k, 2k+2) of `stats`
  // hold the precomputed (w, w*y) of store row order[k], permuted along
  // with it so node scans read contiguous memory. The layout matches the
  // histogram cell layout exactly, so accumulating a row is one
  // lane-parallel add. w*y*y and hessian stats stay in their own arrays:
  // they feed node totals, not histograms.
  std::vector<std::size_t> order;
  HistVec stats;  // 64-aligned: rows are read as whole 16-byte lanes
  std::vector<double> wyy, swh;

  // Stable-partition scratch.
  std::vector<std::uint8_t> goes_left;
  std::vector<std::size_t> order_tmp;
  std::vector<double> stat_tmp;

  std::vector<std::size_t> all_features;      // iota, subtract mode
  std::vector<std::size_t> sampled_features;  // per node, sampling mode

  // Per-candidate best splits: the parallel search writes disjoint slots
  // and the reduction walks them sequentially in candidate order, so the
  // chosen split never depends on thread scheduling.
  std::vector<double> cand_gain;
  std::vector<std::size_t> cand_bin;

  // Pool of histogram buffers (num_features x max_bins x kHistStride
  // doubles plus the count plane each); at most depth+1 are live at once.
  std::vector<TreeHist> hist_pool;

  // Split bin per node (parallel to nodes_), used after the build to
  // route rows outside the training sample to their leaves by bin code.
  std::vector<std::uint8_t> split_bin;
  std::vector<std::int32_t>* leaf_of_row = nullptr;

  TreeHist acquire_hist() {
    if (!hist_pool.empty()) {
      TreeHist h = std::move(hist_pool.back());
      hist_pool.pop_back();
      return h;
    }
    const std::size_t slots = store.num_features() * store.max_bins();
    auto& tl = thread_hist_pool();
    while (!tl.empty()) {
      TreeHist h = std::move(tl.back());
      tl.pop_back();
      if (h.cells.size() == slots * kHistStride) return h;  // stale sizes just drop
    }
    return TreeHist{HistVec(slots * kHistStride), std::vector<std::uint32_t>(slots)};
  }
  void release_hist(TreeHist&& h) {
    if (!h.empty()) hist_pool.push_back(std::move(h));
  }
  ~StoreContext() {
    // Park the buffers for the next tree on this thread. Reused buffers
    // hold stale values, but every region a scan reads is zeroed and
    // rebuilt first, so reuse never changes a result — it only avoids
    // re-faulting ~0.5 MB per tree.
    auto& tl = thread_hist_pool();
    for (auto& h : hist_pool) {
      if (tl.size() >= 6) break;
      tl.push_back(std::move(h));
    }
  }

 private:
  static std::vector<TreeHist>& thread_hist_pool() {
    static thread_local std::vector<TreeHist> pool;
    return pool;
  }
};

// One histogram cell as a two-lane vector, plus the wide lane types the
// gain kernel's shuffles use. may_alias lets the vectors view the
// underlying arrays; aligned(8)/aligned(4) keeps loads unaligned-safe
// where a cell or count quad is not naturally vector-aligned.
using v2df = double __attribute__((vector_size(16), aligned(8), may_alias));
using v4df = double __attribute__((vector_size(32), aligned(8), may_alias));
using v4si = std::uint32_t __attribute__((vector_size(16), aligned(4), may_alias));

// Streams interleaved stats rows into a block of feature histograms,
// reading each 16-byte stats row once per block instead of once per
// feature. Dispatched at load time to the widest vector unit available;
// per-lane IEEE adds are identical across clones, and every cell still
// receives its additions in row order, so neither the tiling nor the
// dispatch changes a single bit of the result.
AQUA_TARGET_CLONES void accumulate_hist_block(
    double* const* hist_base, std::uint32_t* const* cnt_base, const std::uint8_t* const* cols,
    std::size_t nf, const std::size_t* order, const double* stats, std::size_t begin,
    std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t row = order[k];
    const v2df s = *reinterpret_cast<const v2df*>(stats + k * kHistStride);
    for (std::size_t j = 0; j < nf; ++j) {
      const std::size_t code = cols[j][row];
      *reinterpret_cast<v2df*>(hist_base[j] + code * kHistStride) += s;
      cnt_base[j][code] += 1;
    }
  }
}

AQUA_TARGET_CLONES void subtract_hist(
    double* parent, const double* small, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) parent[i] -= small[i];
}

void subtract_cnt(std::uint32_t* parent, const std::uint32_t* small, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) parent[i] -= small[i];
}

constexpr std::size_t kMaxStoreBins = 256;

// Single-division form of the variance-reduction gain:
//   lwy^2/lwt + rwy^2/rwt - wy^2/wt
// with the parent term hoisted out by the caller. Same criterion, one
// divide per bin instead of two, and the unconditional loop body lets the
// wide clones batch the divides. fp-contract stays off so every clone
// produces the scalar path's exact bits.
AQUA_TARGET_CLONES
__attribute__((optimize("O3", "fp-contract=off", "no-trapping-math", "no-math-errno"))) void
eval_split_gains(const double* lwt, const double* lwy, const double* ln, std::size_t nb,
                 double tot_wt, double tot_wy, double n_count, double min_leaf,
                 double parent_score, double* gain) {
  for (std::size_t i = 0; i < nb; ++i) {
    const double l_wt = lwt[i], l_wy = lwy[i], l_n = ln[i];
    const double r_wt = tot_wt - l_wt;
    const double r_wy = tot_wy - l_wy;
    const double r_n = n_count - l_n;
    const double cross = l_wy * l_wy * r_wt + r_wy * r_wy * l_wt;
    const double g = cross / (l_wt * r_wt) - parent_score;
    const bool ok = l_n >= min_leaf && r_n >= min_leaf && l_wt > 0.0 && r_wt > 0.0;
    gain[i] = ok ? g : -std::numeric_limits<double>::infinity();
  }
}

// Dense-node variant reading the interleaved (wt, wy) prefix sums that
// Phase A produces with one vector add per bin, plus the integer count
// prefixes. A bin whose own count is zero (integer subtraction keeps
// counts exact) is poisoned to -inf so splitting "at" an empty bin —
// which would duplicate its predecessor's partition under a different
// recorded threshold — can never be selected.
AQUA_TARGET_CLONES
__attribute__((optimize("O3", "fp-contract=off", "no-trapping-math", "no-math-errno"))) void
eval_split_gains_dense(const double* pref, const std::uint32_t* cnt_pref,
                       const std::uint32_t* cell_cnt, std::size_t nb, double tot_wt,
                       double tot_wy, std::uint32_t n_count, std::uint32_t min_leaf,
                       double parent_score, double* gain) {
  using v4di = long long __attribute__((vector_size(32), may_alias));
  using v4i32 = std::int32_t __attribute__((vector_size(16), aligned(4), may_alias));
  const v4df vtot_wt = {tot_wt, tot_wt, tot_wt, tot_wt};
  const v4df vtot_wy = {tot_wy, tot_wy, tot_wy, tot_wy};
  const v4si vn = {n_count, n_count, n_count, n_count};
  const v4si vmin = {min_leaf, min_leaf, min_leaf, min_leaf};
  const v4si vzero_i = {0, 0, 0, 0};
  const v4df vpar = {parent_score, parent_score, parent_score, parent_score};
  const v4df vzero = {0.0, 0.0, 0.0, 0.0};
  const double ninf = -std::numeric_limits<double>::infinity();
  const v4df vninf = {ninf, ninf, ninf, ninf};
  const v4di deint_lo = {0, 2, 4, 6}, deint_hi = {1, 3, 5, 7};
  std::size_t i = 0;
  // Four bins per iteration: de-interleave four (wt, wy) prefix cells
  // into per-quantity lanes, then per-lane IEEE arithmetic identical to
  // the scalar tail below, so the blocking changes no bits.
  for (; i + 4 <= nb; i += 4) {
    const v4df p0 = *reinterpret_cast<const v4df*>(pref + i * kHistStride);
    const v4df p1 = *reinterpret_cast<const v4df*>(pref + i * kHistStride + 4);
    const v4df l_wt = __builtin_shuffle(p0, p1, deint_lo);
    const v4df l_wy = __builtin_shuffle(p0, p1, deint_hi);
    const v4si l_n = *reinterpret_cast<const v4si*>(cnt_pref + i);
    const v4si own = *reinterpret_cast<const v4si*>(cell_cnt + i);
    const v4df r_wt = vtot_wt - l_wt;
    const v4df r_wy = vtot_wy - l_wy;
    const v4df cross = l_wy * l_wy * r_wt + r_wy * r_wy * l_wt;
    const v4df g = cross / (l_wt * r_wt) - vpar;
    const v4i32 ok_n = (v4i32)((l_n >= vmin) & ((vn - l_n) >= vmin) & (own != vzero_i));
    const v4di ok = __builtin_convertvector(ok_n, v4di) & (l_wt > vzero) & (r_wt > vzero);
    const v4di blended = (reinterpret_cast<const v4di&>(g) & ok) |
                         (reinterpret_cast<const v4di&>(vninf) & ~ok);
    *reinterpret_cast<v4di*>(gain + i) = blended;
  }
  for (; i < nb; ++i) {
    const double l_wt = pref[i * kHistStride];
    const double l_wy = pref[i * kHistStride + 1];
    const std::uint32_t l_n = cnt_pref[i];
    const double r_wt = tot_wt - l_wt;
    const double r_wy = tot_wy - l_wy;
    const double cross = l_wy * l_wy * r_wt + r_wy * r_wy * l_wt;
    const double g = cross / (l_wt * r_wt) - parent_score;
    const bool ok = l_n >= min_leaf && (n_count - l_n) >= min_leaf && l_wt > 0.0 &&
                    r_wt > 0.0 && cell_cnt[i] != 0;
    gain[i] = ok ? g : -std::numeric_limits<double>::infinity();
  }
}

// Zeroes and builds the histograms of `features` over rows [begin, end),
// in 16-feature tiles so a tile's histograms stay L1-resident while its
// rows stream through. Tiles touch disjoint histogram regions, so the
// fan-out is race-free and thread-count invariant.
void build_hists(const BinnedDataset& store, TreeHist& hist,
                 std::span<const std::size_t> features, const std::size_t* order,
                 const double* stats, std::size_t begin, std::size_t end) {
  constexpr std::size_t kBlock = 8;
  const std::size_t max_bins = store.max_bins();
  const std::size_t blocks = (features.size() + kBlock - 1) / kBlock;
  auto run_block = [&](std::size_t blk) {
    double* base[kBlock];
    std::uint32_t* cbase[kBlock];
    const std::uint8_t* col[kBlock];
    std::size_t nf = 0;
    const std::size_t c1 = std::min((blk + 1) * kBlock, features.size());
    for (std::size_t c = blk * kBlock; c < c1; ++c) {
      const std::size_t f = features[c];
      const std::size_t bins = store.bins(f);
      if (bins < 2) continue;  // constant feature: no histogram region
      double* h = hist.cells.data() + f * max_bins * kHistStride;
      std::uint32_t* hc = hist.cnt.data() + f * max_bins;
      std::fill_n(h, bins * kHistStride, 0.0);
      std::fill_n(hc, bins, std::uint32_t{0});
      base[nf] = h;
      cbase[nf] = hc;
      col[nf] = store.column(f).data();
      ++nf;
    }
    if (nf > 0) {
      accumulate_hist_block(base, cbase, col, nf, order, stats, begin, end);
    }
  };
  if (blocks > 1 && (end - begin) * features.size() >= kMinParallelWork) {
    ThreadPool::global().parallel_for(blocks, run_block);
  } else {
    for (std::size_t blk = 0; blk < blocks; ++blk) run_block(blk);
  }
}

void RegressionTree::fit_binned(const BinnedDataset& store, std::span<const double> targets,
                                std::span<const double> weights,
                                std::span<const std::size_t> sample_indices,
                                std::span<const double> hessians,
                                std::vector<std::int32_t>* leaf_of_row) {
  AQUA_REQUIRE(store.fitted(), "binned store not fitted");
  AQUA_REQUIRE(targets.size() == store.num_samples(), "target/store row mismatch");
  AQUA_REQUIRE(weights.empty() || weights.size() == targets.size(), "weight row mismatch");
  AQUA_REQUIRE(hessians.empty() || hessians.size() == targets.size(), "hessian row mismatch");

  const std::size_t n_rows = store.num_samples();
  const std::size_t d = store.num_features();

  StoreContext ctx{store};
  ctx.max_features = config_.max_features == 0 ? d : std::min(config_.max_features, d);
  ctx.has_hessians = !hessians.empty();
  ctx.subtract = ctx.max_features >= d;

  if (sample_indices.empty()) {
    ctx.order.resize(n_rows);
    std::iota(ctx.order.begin(), ctx.order.end(), std::size_t{0});
  } else {
    // Ascending row order makes every code-column gather and stats read
    // stream forward. A node's rows may be summed in any fixed order;
    // sorting just picks the cache-friendly one, deterministically.
    ctx.order.assign(sample_indices.begin(), sample_indices.end());
    std::sort(ctx.order.begin(), ctx.order.end());
  }
  AQUA_REQUIRE(!ctx.order.empty(), "cannot fit a tree on zero samples");
  const std::size_t n = ctx.order.size();

  ctx.stats.resize(n * kHistStride);
  ctx.wyy.resize(n);
  if (ctx.has_hessians) ctx.swh.resize(n);
  NodeTotals root;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = ctx.order[k];
    const double w = weights.empty() ? 1.0 : weights[i];
    const double wy = w * targets[i];
    double* s = ctx.stats.data() + k * kHistStride;
    s[0] = w;
    s[1] = wy;
    ctx.wyy[k] = wy * targets[i];
    root.wt += w;
    root.wy += wy;
    root.wyy += wy * targets[i];
    if (ctx.has_hessians) {
      const double wh = w * hessians[i];
      ctx.swh[k] = wh;
      root.wh += wh;
    }
  }
  root.count = n;

  ctx.goes_left.resize(n);
  ctx.order_tmp.resize(n);
  ctx.stat_tmp.resize(n * kHistStride);
  if (ctx.subtract) {
    ctx.all_features.resize(d);
    std::iota(ctx.all_features.begin(), ctx.all_features.end(), std::size_t{0});
  }
  const std::size_t candidates = ctx.subtract ? d : ctx.max_features;
  ctx.cand_gain.resize(candidates);
  ctx.cand_bin.resize(candidates);

  if (leaf_of_row != nullptr) {
    leaf_of_row->assign(n_rows, -1);
    ctx.leaf_of_row = leaf_of_row;
  }

  nodes_.clear();
  ctx.split_bin.clear();
  Rng rng(config_.seed);
  build_store(ctx, 0, n, 0, root, {}, rng);

  // Rows the sample never visited (bootstrap out-of-bag, subsampled-out)
  // are routed through the fitted splits on their bin codes. For store
  // rows, code(i, f) <= split_bin is exactly value <= threshold, so
  // leaf_value(leaf_of_row[i]) equals predict(row i) bitwise.
  if (leaf_of_row != nullptr) {
    for (std::size_t i = 0; i < n_rows; ++i) {
      std::int32_t& slot = (*leaf_of_row)[i];
      if (slot >= 0) continue;
      std::size_t cur = 0;
      while (nodes_[cur].feature >= 0) {
        const auto f = static_cast<std::size_t>(nodes_[cur].feature);
        cur = static_cast<std::size_t>(store.code(i, f) <= ctx.split_bin[cur]
                                           ? nodes_[cur].left
                                           : nodes_[cur].right);
      }
      slot = static_cast<std::int32_t>(cur);
    }
  }
}

int RegressionTree::build_store(StoreContext& ctx, std::size_t begin, std::size_t end,
                                std::size_t depth, const NodeTotals& totals,
                                TreeHist hist, Rng& rng) {
  const std::size_t count = end - begin;

  Node node;
  node.value = !ctx.has_hessians ? (totals.wt > 0.0 ? totals.wy / totals.wt : 0.0)
                                 : totals.wy / std::max(totals.wh, 1e-12);
  const double parent_score =
      totals.wt > 0.0 ? totals.wy * totals.wy / totals.wt : 0.0;
  const double node_sse = totals.wyy - parent_score;
  const bool can_split =
      depth < config_.max_depth && count >= config_.min_samples_split && node_sse > 1e-12;

  auto make_leaf = [&]() {
    ctx.release_hist(std::move(hist));
    nodes_.push_back(node);
    ctx.split_bin.push_back(0);
    const auto self = static_cast<int>(nodes_.size()) - 1;
    if (ctx.leaf_of_row != nullptr) {
      for (std::size_t k = begin; k < end; ++k) (*ctx.leaf_of_row)[ctx.order[k]] = self;
    }
    return self;
  };
  if (!can_split) return make_leaf();

  const std::size_t d = ctx.store.num_features();
  std::span<const std::size_t> features;
  if (ctx.subtract) {
    features = ctx.all_features;
  } else {
    ctx.sampled_features = rng.sample_without_replacement(d, ctx.max_features);
    features = ctx.sampled_features;
  }

  // This node's histogram: handed down by the parent (subtraction path)
  // or built here from the candidates' contiguous code columns.
  if (hist.empty()) {
    hist = ctx.acquire_hist();
    build_hists(ctx.store, hist, features, ctx.order.data(), ctx.stats.data(), begin, end);
  }

  const std::size_t max_bins = ctx.store.max_bins();
  const double min_leaf = static_cast<double>(config_.min_samples_leaf);
  const auto min_leaf_u = static_cast<std::uint32_t>(config_.min_samples_leaf);
  auto scan_candidate = [&](std::size_t c) {
    const std::size_t f = features[c];
    ctx.cand_gain[c] = 0.0;
    const std::size_t bins = ctx.store.bins(f);
    if (bins < 2) return;  // constant feature: nothing to split
    const double* h = hist.cells.data() + f * max_bins * kHistStride;
    const std::uint32_t* hc = hist.cnt.data() + f * max_bins;

    // Phase B gains, then a Phase C ascending strict-improvement argmax
    // — together they choose exactly the split a one-pass scalar loop
    // would, because every invalid or empty-bin split is poisoned to
    // -inf before the argmax.
    alignas(64) double gain[kMaxStoreBins];
    double best_gain = 1e-12;
    std::size_t best = kMaxStoreBins;
    if (count >= bins) {
      // Dense Phase A: whole-cell running sum, one unconditional vector
      // add per bin; empty bins are excluded by the count poison in the
      // gain pass, not by a data-dependent branch here.
      alignas(64) double pref[kMaxStoreBins * kHistStride];
      alignas(64) std::uint32_t cpref[kMaxStoreBins];
      const std::size_t nb = bins - 1;
      v2df acc = {0.0, 0.0};
      std::uint32_t cacc = 0;
      std::size_t b = 0;
      // Pairwise-reassociated running sum: the serial dependence advances
      // once per bin pair, halving the add-latency chain that bounds this
      // loop. Deterministic — the association is fixed — and integer
      // count prefixes are exact under any association.
      for (; b + 2 <= nb; b += 2) {
        const v2df c0 = *reinterpret_cast<const v2df*>(h + b * kHistStride);
        const v2df c1 = *reinterpret_cast<const v2df*>(h + (b + 1) * kHistStride);
        *reinterpret_cast<v2df*>(pref + b * kHistStride) = acc + c0;
        acc += c0 + c1;
        *reinterpret_cast<v2df*>(pref + (b + 1) * kHistStride) = acc;
        cpref[b] = cacc + hc[b];
        cacc += hc[b] + hc[b + 1];
        cpref[b + 1] = cacc;
      }
      for (; b < nb; ++b) {
        acc += *reinterpret_cast<const v2df*>(h + b * kHistStride);
        *reinterpret_cast<v2df*>(pref + b * kHistStride) = acc;
        cacc += hc[b];
        cpref[b] = cacc;
      }
      eval_split_gains_dense(pref, cpref, hc, nb, totals.wt, totals.wy,
                             static_cast<std::uint32_t>(count), min_leaf_u, parent_score,
                             gain);
      for (std::size_t b = 0; b < nb; ++b) {
        if (gain[b] > best_gain) {
          best_gain = gain[b];
          best = b;
        }
      }
    } else {
      // Sparse Phase A: nodes with fewer rows than bins find their
      // nonempty bins from their own rows with a 256-bit mask instead of
      // probing every histogram cell, then compact ascending prefix sums
      // over just those bins. An empty bin leaves every prefix unchanged,
      // so skipping it is exact — and on the subtraction path this also
      // keeps its residue cell out of the sums.
      double lwt[kMaxStoreBins], lwy[kMaxStoreBins], ln[kMaxStoreBins];
      std::uint8_t bin_id[kMaxStoreBins];
      std::size_t nb = 0;
      double awt = 0.0, awy = 0.0;
      std::uint32_t an = 0;
      std::uint64_t mask[4] = {0, 0, 0, 0};
      const std::uint8_t* col = ctx.store.column(f).data();
      for (std::size_t k = begin; k < end; ++k) {
        const unsigned b = col[ctx.order[k]];
        mask[b >> 6] |= std::uint64_t{1} << (b & 63u);
      }
      for (unsigned w = 0; w < 4; ++w) {
        std::uint64_t m = mask[w];
        while (m) {
          const std::size_t b =
              (std::size_t{w} << 6) + static_cast<std::size_t>(std::countr_zero(m));
          m &= m - 1;
          if (b + 1 >= bins) continue;  // codes never exceed bins - 1
          const double* cell = h + b * kHistStride;
          awt += cell[0];
          awy += cell[1];
          an += hc[b];
          lwt[nb] = awt;
          lwy[nb] = awy;
          ln[nb] = static_cast<double>(an);
          bin_id[nb] = static_cast<std::uint8_t>(b);
          ++nb;
        }
      }
      if (nb == 0) return;
      eval_split_gains(lwt, lwy, ln, nb, totals.wt, totals.wy, static_cast<double>(count),
                       min_leaf, parent_score, gain);
      for (std::size_t i = 0; i < nb; ++i) {
        if (gain[i] > best_gain) {
          best_gain = gain[i];
          best = bin_id[i];
        }
      }
    }
    if (best != kMaxStoreBins) {
      ctx.cand_gain[c] = best_gain;
      ctx.cand_bin[c] = best;
    }
  };
  // Candidates touch disjoint histogram regions and disjoint cand_*
  // slots, so the fan-out is race-free; the reduction below walks the
  // slots in candidate order, making the result thread-count invariant.
  if (features.size() > 1 && count * features.size() >= kMinParallelWork) {
    ThreadPool::global().parallel_for(features.size(), scan_candidate);
  } else {
    for (std::size_t c = 0; c < features.size(); ++c) scan_candidate(c);
  }

  // Strict improvement in candidate order reproduces the sequential
  // earliest-feature / earliest-bin tie-breaking exactly.
  double best_gain = 1e-12;
  int best_feature = -1;
  std::size_t best_bin = 0;
  for (std::size_t c = 0; c < features.size(); ++c) {
    if (ctx.cand_gain[c] > best_gain) {
      best_gain = ctx.cand_gain[c];
      best_feature = static_cast<int>(features[c]);
      best_bin = ctx.cand_bin[c];
    }
  }
  if (best_feature < 0) return make_leaf();

  // Stable partition: flag rows, then compact order and every stat array
  // left-before-right, preserving index order within each side. Left
  // child totals accumulate in that same fixed order; the right child's
  // follow by subtraction from the parent's.
  const std::uint8_t* split_col =
      ctx.store.column(static_cast<std::size_t>(best_feature)).data();
  NodeTotals left_totals;
  for (std::size_t k = begin; k < end; ++k) {
    const bool left = split_col[ctx.order[k]] <= best_bin;
    ctx.goes_left[k] = left ? 1 : 0;
    if (left) {
      const double* s = ctx.stats.data() + k * kHistStride;
      left_totals.wt += s[0];
      left_totals.wy += s[1];
      left_totals.wyy += ctx.wyy[k];
      if (ctx.has_hessians) left_totals.wh += ctx.swh[k];
      ++left_totals.count;
    }
  }
  if (left_totals.count == 0 || left_totals.count == count) return make_leaf();

  auto compact = [&](auto& arr, auto& tmp) {
    std::size_t l = begin;
    std::size_t r = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (ctx.goes_left[k]) {
        arr[l++] = arr[k];
      } else {
        tmp[r++] = arr[k];
      }
    }
    std::copy(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(r),
              arr.begin() + static_cast<std::ptrdiff_t>(l));
  };
  compact(ctx.order, ctx.order_tmp);
  compact(ctx.wyy, ctx.stat_tmp);
  if (ctx.has_hessians) compact(ctx.swh, ctx.stat_tmp);
  {
    // Same stable compaction over the interleaved stats, two doubles at
    // a time.
    double* s = ctx.stats.data();
    double* tmp = ctx.stat_tmp.data();
    std::size_t l = begin;
    std::size_t r = 0;
    for (std::size_t k = begin; k < end; ++k) {
      if (ctx.goes_left[k]) {
        std::copy_n(s + k * kHistStride, kHistStride, s + (l++) * kHistStride);
      } else {
        std::copy_n(s + k * kHistStride, kHistStride, tmp + (r++) * kHistStride);
      }
    }
    std::copy_n(tmp, r * kHistStride, s + l * kHistStride);
  }

  NodeTotals right_totals;
  right_totals.wt = totals.wt - left_totals.wt;
  right_totals.wy = totals.wy - left_totals.wy;
  right_totals.wyy = totals.wyy - left_totals.wyy;
  right_totals.wh = totals.wh - left_totals.wh;
  right_totals.count = count - left_totals.count;
  const std::size_t mid = begin + left_totals.count;
  node.feature = best_feature;
  node.threshold = ctx.store.upper_boundary(static_cast<std::size_t>(best_feature), best_bin);
  nodes_.push_back(node);
  ctx.split_bin.push_back(static_cast<std::uint8_t>(best_bin));
  const auto self = static_cast<int>(nodes_.size()) - 1;

  auto child_can_split = [&](std::size_t child_depth, const NodeTotals& t) {
    if (child_depth >= config_.max_depth || t.count < config_.min_samples_split) return false;
    const double sse = t.wyy - (t.wt > 0.0 ? t.wy * t.wy / t.wt : 0.0);
    return sse > 1e-12;
  };
  const bool need_left = child_can_split(depth + 1, left_totals);
  const bool need_right = child_can_split(depth + 1, right_totals);

  TreeHist left_hist, right_hist;
  if (ctx.subtract && (need_left || need_right)) {
    // Parent-minus-smaller-child: scan only the smaller child's rows and
    // derive the larger child's histogram by subtracting in place in the
    // parent's buffer.
    const bool left_is_small = left_totals.count <= right_totals.count;
    const std::size_t sb = left_is_small ? begin : mid;
    const std::size_t se = left_is_small ? mid : end;
    TreeHist small = ctx.acquire_hist();
    {
      build_hists(ctx.store, small, ctx.all_features, ctx.order.data(), ctx.stats.data(), sb, se);
    }

    const bool need_small = left_is_small ? need_left : need_right;
    const bool need_large = left_is_small ? need_right : need_left;
    if (need_large) {
      for (std::size_t f = 0; f < d; ++f) {
        const std::size_t bins = ctx.store.bins(f);
        if (bins < 2) continue;
        subtract_hist(hist.cells.data() + f * max_bins * kHistStride,
                      small.cells.data() + f * max_bins * kHistStride, bins * kHistStride);
        subtract_cnt(hist.cnt.data() + f * max_bins, small.cnt.data() + f * max_bins, bins);
      }
      (left_is_small ? right_hist : left_hist) = std::move(hist);
    } else {
      ctx.release_hist(std::move(hist));
    }
    if (need_small) {
      (left_is_small ? left_hist : right_hist) = std::move(small);
    } else {
      ctx.release_hist(std::move(small));
    }
  } else {
    // Sampling mode children draw fresh candidate features and build
    // their own histograms over them.
    ctx.release_hist(std::move(hist));
  }

  const int left = build_store(ctx, begin, mid, depth + 1, left_totals, std::move(left_hist), rng);
  const int right = build_store(ctx, mid, end, depth + 1, right_totals, std::move(right_hist), rng);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

double RegressionTree::predict(std::span<const double> x) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted tree");
  std::size_t current = 0;
  for (;;) {
    const Node& node = nodes_[current];
    if (node.feature < 0) return node.value;
    const double v = x[static_cast<std::size_t>(node.feature)];
    current = static_cast<std::size_t>(v <= node.threshold ? node.left : node.right);
  }
}

std::size_t RegressionTree::depth() const noexcept {
  // Iterative depth computation over the implicit tree.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[idx];
    if (node.feature >= 0) {
      stack.push_back({static_cast<std::size_t>(node.left), d + 1});
      stack.push_back({static_cast<std::size_t>(node.right), d + 1});
    }
  }
  return max_depth;
}

std::size_t RegressionTree::input_width() const noexcept {
  std::size_t width = 0;
  for (const Node& node : nodes_) {
    if (node.feature >= 0) width = std::max(width, static_cast<std::size_t>(node.feature) + 1);
  }
  return width;
}

void RegressionTree::save(io::BinaryWriter& writer) const {
  writer.write_u64(config_.max_depth);
  writer.write_u64(config_.min_samples_split);
  writer.write_u64(config_.min_samples_leaf);
  writer.write_u64(config_.max_features);
  writer.write_u64(config_.seed);
  writer.write_u64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.write_i32(node.feature);
    writer.write_f64(node.threshold);
    writer.write_f64(node.value);
    writer.write_i32(node.left);
    writer.write_i32(node.right);
  }
}

void RegressionTree::load(io::BinaryReader& reader) {
  config_.max_depth = reader.read_u64();
  config_.min_samples_split = reader.read_u64();
  config_.min_samples_leaf = reader.read_u64();
  config_.max_features = reader.read_u64();
  config_.seed = reader.read_u64();
  const std::uint64_t count = reader.read_u64();
  // Each node is 28 serialized bytes (i32, f64, f64, i32, i32); a count
  // the payload cannot hold is rejected before anything is reserved.
  if (count > (std::uint64_t{1} << 32) || count > reader.remaining() / 28) {
    throw io::SerializationError("malformed tree node count");
  }
  nodes_.clear();
  nodes_.reserve(count);
  // Both fitters emit pre-order: a split's left child is the next node
  // and its right child follows the left subtree. Requiring children
  // strictly after their parent, and every node but the root claimed by
  // exactly one parent, makes every loaded tree a tree: predict() cannot
  // cycle, no shared subtree can multiply the compiled kernel's
  // flattening, and no orphan node (one no walk reaches) can become a
  // dead compiled record or widen input_width(). A node's parents all
  // precede it, so its claim is final by the time it is read.
  std::vector<std::uint8_t> claimed(count, 0);
  const auto n = static_cast<std::int64_t>(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i > 0 && claimed[i] == 0) {
      throw io::SerializationError("malformed tree: node " + std::to_string(i) +
                                   " has no parent");
    }
    Node node;
    node.feature = reader.read_i32();
    node.threshold = reader.read_f64();
    node.value = reader.read_f64();
    node.left = reader.read_i32();
    node.right = reader.read_i32();
    if (node.feature >= 0) {
      // Child indices must stay inside the node array so a corrupt tree
      // can never send predict() out of bounds.
      if (node.left < 0 || node.right < 0 || node.left >= n || node.right >= n) {
        throw io::SerializationError("malformed tree: child index out of range");
      }
      if (node.left != static_cast<std::int64_t>(i) + 1 || node.right <= node.left) {
        throw io::SerializationError("malformed tree: nodes not in pre-order");
      }
      auto& left = claimed[static_cast<std::size_t>(node.left)];
      auto& right = claimed[static_cast<std::size_t>(node.right)];
      if (left != 0 || right != 0) {
        throw io::SerializationError("malformed tree: node has two parents");
      }
      left = right = 1;
    }
    nodes_.push_back(node);
  }
}

}  // namespace aqua::ml
