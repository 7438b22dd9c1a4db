#include "tsp/kdtree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/task_pool.h"

namespace distclk {

namespace {

/// Number of tree nodes a subtree over m points occupies. The split point
/// mid = (begin+end)/2 makes the child sizes floor(m/2) and ceil(m/2) — a
/// function of m alone — so node ids can be assigned in preorder BEFORE
/// the subtrees are built: left = id+1, right = id+1+count(leftSize).
/// That is what lets concurrent subtree tasks write disjoint nodes_ slices
/// while reproducing the serial numbering exactly. Memoized because only
/// O(log m) distinct sizes occur (at most two per level).
int subtreeNodeCount(int m, int leafSize, std::map<int, int>& memo) {
  if (m <= leafSize) return 1;
  const auto it = memo.find(m);
  if (it != memo.end()) return it->second;
  const int c = 1 + subtreeNodeCount(m / 2, leafSize, memo) +
                subtreeNodeCount(m - m / 2, leafSize, memo);
  memo.emplace(m, c);
  return c;
}

}  // namespace

KdTree::KdTree(std::span<const Point> pts, TaskPool* pool) : pts_(pts) {
  order_.resize(pts_.size());
  std::iota(order_.begin(), order_.end(), 0);
  leafOf_.resize(pts_.size(), -1);
  active_.assign(pts_.size(), 1);
  activeCount_ = static_cast<int>(pts_.size());
  if (!pts_.empty()) {
    const int n = static_cast<int>(pts_.size());
    std::map<int, int> subtreeNodes;
    const int total = subtreeNodeCount(n, kLeafSize, subtreeNodes);
    // Pre-sized: build tasks write nodes_[id] in place, no reallocation.
    nodes_.resize(std::size_t(total));
    buildRange(0, 0, n, subtreeNodes, pool);
    if (pool != nullptr) pool->runUntilIdle();
  }
  posInOrder_.resize(pts_.size());
  for (std::size_t p = 0; p < order_.size(); ++p)
    posInOrder_[std::size_t(order_[p])] = static_cast<int>(p);
}

void KdTree::buildRange(int id, int begin, int end,
                        const std::map<int, int>& subtreeNodes,
                        TaskPool* pool) {
  Node& nd = nodes_[std::size_t(id)];
  nd.begin = begin;
  nd.end = end;
  nd.activeInSubtree = end - begin;
  nd.xmin = nd.ymin = std::numeric_limits<double>::infinity();
  nd.xmax = nd.ymax = -std::numeric_limits<double>::infinity();
  for (int i = begin; i < end; ++i) {
    const Point& p = pts_[std::size_t(order_[std::size_t(i)])];
    nd.xmin = std::min(nd.xmin, p.x);
    nd.xmax = std::max(nd.xmax, p.x);
    nd.ymin = std::min(nd.ymin, p.y);
    nd.ymax = std::max(nd.ymax, p.y);
  }
  if (end - begin <= kLeafSize) {
    for (int i = begin; i < end; ++i)
      leafOf_[std::size_t(order_[std::size_t(i)])] = id;
    return;
  }
  const int dim = (nd.xmax - nd.xmin >= nd.ymax - nd.ymin) ? 0 : 1;
  const int mid = (begin + end) / 2;
  // The partition runs on whoever owns this subtree's task, always over
  // the exact element sequence the serial build would see (the parent's
  // partition completed before this task was forked). Parallelism never
  // crosses an nth_element call, because its result order feeds the knn
  // tie-handling and must stay bit-identical.
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end, [&](int a, int b) {
                     const Point& pa = pts_[std::size_t(a)];
                     const Point& pb = pts_[std::size_t(b)];
                     return dim == 0 ? pa.x < pb.x : pa.y < pb.y;
                   });
  const Point& mp = pts_[std::size_t(order_[std::size_t(mid)])];
  nd.splitDim = dim;
  nd.splitVal = dim == 0 ? mp.x : mp.y;
  const int leftSize = mid - begin;
  const int leftId = id + 1;
  const int rightId =
      leftId + (leftSize <= kLeafSize ? 1 : subtreeNodes.at(leftSize));
  nd.left = leftId;
  nd.right = rightId;
  if (pool != nullptr && end - begin >= kParallelGrain) {
    pool->submit([this, leftId, begin, mid, &subtreeNodes, pool] {
      buildRange(leftId, begin, mid, subtreeNodes, pool);
    });
    pool->submit([this, rightId, mid, end, &subtreeNodes, pool] {
      buildRange(rightId, mid, end, subtreeNodes, pool);
    });
  } else {
    buildRange(leftId, begin, mid, subtreeNodes, pool);
    buildRange(rightId, mid, end, subtreeNodes, pool);
  }
}

double KdTree::boxDist2(const Node& nd, const Point& p) const noexcept {
  const double dx = p.x < nd.xmin ? nd.xmin - p.x
                                  : (p.x > nd.xmax ? p.x - nd.xmax : 0.0);
  const double dy = p.y < nd.ymin ? nd.ymin - p.y
                                  : (p.y > nd.ymax ? p.y - nd.ymax : 0.0);
  return dx * dx + dy * dy;
}

// Generic branch-and-bound traversal. `visit(pointIndex, dist2)` may lower
// `bound` (squared radius of interest); subtrees farther than `bound` prune.
template <typename Visit>
void KdTree::search(int node, const Point& p, double& bound,
                    Visit&& visit) const {
  const Node& nd = nodes_[std::size_t(node)];
  if (nd.splitDim < 0) {
    for (int i = nd.begin; i < nd.end; ++i) {
      const int idx = order_[std::size_t(i)];
      const Point& q = pts_[std::size_t(idx)];
      const double d2 = sq(p.x - q.x) + sq(p.y - q.y);
      if (d2 <= bound) visit(idx, d2);
    }
    return;
  }
  const int first =
      ((nd.splitDim == 0 ? p.x : p.y) < nd.splitVal) ? nd.left : nd.right;
  const int second = first == nd.left ? nd.right : nd.left;
  if (boxDist2(nodes_[std::size_t(first)], p) <= bound)
    search(first, p, bound, visit);
  if (boxDist2(nodes_[std::size_t(second)], p) <= bound)
    search(second, p, bound, visit);
}

void KdTree::knnHeap(const Point& loc, int k, KnnScratch& scratch) const {
  // Max-heap (std::push_heap/pop_heap over the scratch vector — the same
  // comparisons std::priority_queue<pair> performs) of the best k seen.
  auto& heap = scratch.heap_;
  heap.clear();
  double bound = std::numeric_limits<double>::infinity();
  search(0, loc, bound, [&](int idx, double d2) {
    if (static_cast<int>(heap.size()) < k) {
      heap.emplace_back(d2, idx);
      std::push_heap(heap.begin(), heap.end());
      if (static_cast<int>(heap.size()) == k) bound = heap.front().first;
    } else if (d2 < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {d2, idx};
      std::push_heap(heap.begin(), heap.end());
      bound = heap.front().first;
    }
  });
  // (dist2, index) pairs are unique, so ascending sort reproduces exactly
  // the pop-and-reverse order of the heap.
  std::sort(heap.begin(), heap.end());
}

int KdTree::knnInto(const Point& loc, int k, std::span<int> out,
                    KnnScratch& scratch) const {
  k = std::min<int>(k, size());
  if (k <= 0) return 0;
  knnHeap(loc, k, scratch);
  const int m = static_cast<int>(scratch.heap_.size());
  for (int i = 0; i < m; ++i) out[std::size_t(i)] = scratch.heap_[std::size_t(i)].second;
  return m;
}

int KdTree::knnInto(int query, int k, std::span<int> out,
                    KnnScratch& scratch) const {
  k = std::min<int>(k, size() - 1);
  if (k <= 0) return 0;
  // Ask for one extra and drop the query point itself (it may legitimately
  // be absent under duplicate coordinates, hence the written-count cap).
  knnHeap(pts_[std::size_t(query)], std::min(k + 1, size()), scratch);
  int written = 0;
  for (const auto& [d2, idx] : scratch.heap_) {
    if (idx == query) continue;
    if (written == k) break;
    out[std::size_t(written++)] = idx;
  }
  return written;
}

std::vector<int> KdTree::knn(const Point& loc, int k) const {
  k = std::min<int>(k, size());
  if (k <= 0) return {};
  KnnScratch scratch;
  std::vector<int> out(static_cast<std::size_t>(k));
  out.resize(std::size_t(knnInto(loc, k, out, scratch)));
  return out;
}

std::vector<int> KdTree::knn(int query, int k) const {
  k = std::min<int>(k, size() - 1);
  if (k <= 0) return {};
  KnnScratch scratch;
  std::vector<int> out(static_cast<std::size_t>(k));
  out.resize(std::size_t(knnInto(query, k, out, scratch)));
  return out;
}

void KdTree::deactivate(int i) {
  if (!active_[std::size_t(i)]) return;
  active_[std::size_t(i)] = 0;
  --activeCount_;
  // Descend from the root to the point's leaf by positional containment
  // (order_ is fixed after build; node ranges partition it exactly),
  // decrementing the active count along the way.
  const int p = posInOrder_[std::size_t(i)];
  int node = 0;
  while (true) {
    Node& nd = nodes_[std::size_t(node)];
    --nd.activeInSubtree;
    if (nd.splitDim < 0) break;
    const Node& lc = nodes_[std::size_t(nd.left)];
    node = (p < lc.end) ? nd.left : nd.right;
  }
}

void KdTree::reactivateAll() {
  std::fill(active_.begin(), active_.end(), 1);
  activeCount_ = static_cast<int>(pts_.size());
  for (auto& nd : nodes_) nd.activeInSubtree = nd.end - nd.begin;
}

int KdTree::nearestActive(const Point& p, int exclude, int exclude2) const {
  if (activeCount_ == 0) return -1;
  double bound = std::numeric_limits<double>::infinity();
  int best = -1;
  // Custom traversal that prunes fully-deactivated subtrees.
  std::array<int, kMaxStack> stack;
  int top = 0;
  stack[std::size_t(top++)] = 0;
  while (top > 0) {
    const Node& nd = nodes_[std::size_t(stack[std::size_t(--top)])];
    if (nd.activeInSubtree == 0 || boxDist2(nd, p) > bound) continue;
    if (nd.splitDim < 0) {
      for (int i = nd.begin; i < nd.end; ++i) {
        const int idx = order_[std::size_t(i)];
        if (!active_[std::size_t(idx)] || idx == exclude || idx == exclude2)
          continue;
        const Point& q = pts_[std::size_t(idx)];
        const double d2 = sq(p.x - q.x) + sq(p.y - q.y);
        if (d2 < bound || (d2 == bound && (best == -1 || idx < best))) {
          bound = d2;
          best = idx;
        }
      }
      continue;
    }
    const int first =
        ((nd.splitDim == 0 ? p.x : p.y) < nd.splitVal) ? nd.left : nd.right;
    const int second = first == nd.left ? nd.right : nd.left;
    // Push the farther child first so the nearer one is explored next.
    stack[std::size_t(top++)] = second;
    stack[std::size_t(top++)] = first;
  }
  return best;
}

void KdTree::activeWithin(const Point& p, double radius2,
                          std::vector<int>& out) const {
  if (activeCount_ == 0) return;
  std::array<int, kMaxStack> stack;
  int top = 0;
  stack[std::size_t(top++)] = 0;
  while (top > 0) {
    const Node& nd = nodes_[std::size_t(stack[std::size_t(--top)])];
    if (nd.activeInSubtree == 0 || boxDist2(nd, p) > radius2) continue;
    if (nd.splitDim < 0) {
      for (int i = nd.begin; i < nd.end; ++i) {
        const int idx = order_[std::size_t(i)];
        if (!active_[std::size_t(idx)]) continue;
        const Point& q = pts_[std::size_t(idx)];
        if (sq(p.x - q.x) + sq(p.y - q.y) <= radius2) out.push_back(idx);
      }
      continue;
    }
    stack[std::size_t(top++)] = nd.right;
    stack[std::size_t(top++)] = nd.left;
  }
}

}  // namespace distclk
