// Static 2-d tree over instance coordinates. Supports k-nearest-neighbor
// queries (candidate-list construction) and nearest-active queries with
// deactivation (greedy construction heuristics such as nearest-neighbor and
// the fragment stitcher consume cities one by one), plus a radius query over
// the active points.
//
// The build can run on a TaskPool: independent sibling subtrees are forked
// as tasks after their shared nth_element partition, which leaves every
// partition input — and therefore order_, the node numbering (preorder,
// precomputed from subtree sizes), and every query answer — bit-identical
// to the serial build. See DESIGN.md §13 for the determinism argument.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "tsp/instance.h"

namespace distclk {

class TaskPool;

/// Reusable scratch for allocation-free knnInto queries. One per calling
/// thread; queries reuse the internal heap's capacity across calls.
class KnnScratch {
 public:
  KnnScratch() = default;

 private:
  friend class KdTree;
  std::vector<std::pair<double, int>> heap_;
};

class KdTree {
 public:
  /// Builds a balanced tree over `pts` (copied indices only; the caller
  /// keeps ownership of the coordinates, which must outlive the tree).
  /// With a non-null pool, sibling subtrees build concurrently; the
  /// resulting tree is bit-identical to the serial build.
  explicit KdTree(std::span<const Point> pts, TaskPool* pool = nullptr);

  int size() const noexcept { return static_cast<int>(pts_.size()); }

  /// Indices of the k nearest points to pts[query], excluding query itself,
  /// ordered by increasing Euclidean distance. Ignores active flags.
  std::vector<int> knn(int query, int k) const;

  /// Indices of the k nearest points to an arbitrary location.
  std::vector<int> knn(const Point& loc, int k) const;

  /// Allocation-free k-NN: writes up to k indices (nearest first) into
  /// `out` and returns how many were written (< k only when the tree holds
  /// fewer points). `out` must have room for k entries; `scratch` is
  /// caller-owned and reusable across queries. Results are identical to
  /// the knn() overloads above.
  int knnInto(const Point& loc, int k, std::span<int> out,
              KnnScratch& scratch) const;
  /// Same, excluding `query` itself (the candidate-list work loop).
  int knnInto(int query, int k, std::span<int> out, KnnScratch& scratch) const;

  /// Deactivates a point (it will no longer be returned by nearestActive).
  void deactivate(int i);
  /// Re-activates every point.
  void reactivateAll();
  bool isActive(int i) const noexcept { return active_[std::size_t(i)]; }
  int activeCount() const noexcept { return activeCount_; }

  /// Nearest active point to `p`, excluding indices `exclude` and
  /// `exclude2` (-1 for none); on equal distance the lowest index wins.
  /// Returns -1 when no active point qualifies.
  int nearestActive(const Point& p, int exclude = -1, int exclude2 = -1) const;

  /// Appends to `out` every active point whose squared Euclidean distance
  /// to `p` is at most `radius2`, in tree order. Subtrees without active
  /// points are skipped, so the cost follows the active points near `p`.
  void activeWithin(const Point& p, double radius2, std::vector<int>& out) const;

  /// The point permutation underlying the tree (leaves are contiguous
  /// ranges of it). Exposed so tests can pin that parallel builds produce
  /// byte-identical layouts to the serial build.
  const std::vector<int>& order() const noexcept { return order_; }

 private:
  struct Node {
    int begin = 0, end = 0;      // range in order_
    int splitDim = -1;           // -1 for leaf
    double splitVal = 0.0;
    int left = -1, right = -1;   // children node ids
    int activeInSubtree = 0;
    double xmin = 0, xmax = 0, ymin = 0, ymax = 0;  // bounding box
  };

  void buildRange(int id, int begin, int end,
                  const std::map<int, int>& subtreeNodes, TaskPool* pool);
  template <typename Visit>
  void search(int node, const Point& p, double& bound, Visit&& visit) const;
  /// Branch-and-bound fill of scratch.heap_ with the k nearest to `loc`.
  void knnHeap(const Point& loc, int k, KnnScratch& scratch) const;
  static double sq(double v) noexcept { return v * v; }
  double boxDist2(const Node& nd, const Point& p) const noexcept;

  std::span<const Point> pts_;
  std::vector<int> order_;       // point indices, partitioned by the tree
  std::vector<int> posInOrder_;  // point index -> its slot in order_
  std::vector<int> leafOf_;      // point index -> node id of its leaf
  std::vector<Node> nodes_;
  std::vector<char> active_;
  int activeCount_ = 0;
  static constexpr int kLeafSize = 16;
  /// Traversal stack bound: the median split keeps the tree balanced, so
  /// its depth is below log2(size) + 1 <= 32 and a depth-first walk that
  /// pushes both children holds at most depth + 1 pending nodes.
  static constexpr int kMaxStack = 64;
  /// Subtrees at least this large fork their children as pool tasks.
  static constexpr int kParallelGrain = 2048;
};

}  // namespace distclk
