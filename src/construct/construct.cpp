#include "construct/construct.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "tsp/kdtree.h"

namespace distclk {

namespace {

/// Union-find over cities, used to veto subtour-creating edges.
class DisjointSets {
 public:
  explicit DisjointSets(int n) : parent_(std::size_t(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[std::size_t(x)] != x) {
      parent_[std::size_t(x)] = parent_[std::size_t(parent_[std::size_t(x)])];
      x = parent_[std::size_t(x)];
    }
    return x;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[std::size_t(a)] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

/// Partial 2-regular subgraph being grown into a tour: degree and the up-to-
/// two incident tour edges per city.
struct PartialTour {
  explicit PartialTour(int n)
      : degree(std::size_t(n), 0), link(std::size_t(n), {-1, -1}), sets(n) {}

  std::vector<int> degree;
  std::vector<std::array<int, 2>> link;
  DisjointSets sets;
  int edges = 0;

  bool canAdd(int a, int b) {
    return a != b && degree[std::size_t(a)] < 2 && degree[std::size_t(b)] < 2 &&
           sets.find(a) != sets.find(b);
  }
  void add(int a, int b) {
    link[std::size_t(a)][std::size_t(degree[std::size_t(a)]++)] = b;
    link[std::size_t(b)][std::size_t(degree[std::size_t(b)]++)] = a;
    sets.unite(a, b);
    ++edges;
  }
};

/// Euclidean radius that holds every city whose rounded distance under
/// `type` is at most `d`, or a negative value when no planar bound exists
/// (GEO, EXPLICIT). EUC_2D and MAN_2D round half up (Euclidean <= Manhattan),
/// CEIL_2D and ATT never round below the exact value (ATT divides by
/// sqrt(10)), and MAX_2D rounds each axis half up.
double euclideanReach(EdgeWeightType type, std::int64_t d) {
  const auto v = static_cast<double>(d);
  switch (type) {
    case EdgeWeightType::kEuc2D:
    case EdgeWeightType::kMan2D: return v + 0.5;
    case EdgeWeightType::kCeil2D: return v;
    case EdgeWeightType::kAtt: return std::sqrt(10.0) * v;
    case EdgeWeightType::kMax2D: return std::sqrt(2.0) * (v + 0.5);
    default: return -1.0;
  }
}

/// Stitches the path fragments of a partial tour into a Hamiltonian cycle.
/// Rounds visit the open endpoints in id order; each takes its nearest
/// valid partner (lowest id on equal distance), where valid means open and
/// not the far end of its own path. Planar metrics find that partner with
/// a kd-tree over the open endpoints: the Euclidean-nearest one bounds the
/// best rounded distance d0, and a radius query of euclideanReach(d0)
/// returns every city that can match or beat it, so the exact distances
/// decide and the result equals a full scan. GEO and EXPLICIT instances
/// have no such bound and scan the open endpoints (DESIGN.md §13). Extra
/// memory is O(open endpoints).
std::vector<int> stitchFragments(const Instance& inst, PartialTour& pt) {
  const int n = inst.n();
  // Open endpoints in id order; the stitch works on their local indices,
  // whose order is the id order.
  std::vector<int> open;
  for (int c = 0; c < n; ++c)
    if (pt.degree[std::size_t(c)] < 2) open.push_back(c);
  const int f = static_cast<int>(open.size());
  const auto isOpen = [&](int i) {
    return pt.degree[std::size_t(open[std::size_t(i)])] < 2;
  };
  // farEnd[i]: the other end of i's path (i itself for a lone city). Each
  // fragment is walked once here and kept current in O(1) per join.
  std::vector<int> farEnd(std::size_t(f), -1);
  for (int i = 0; i < f; ++i) {
    if (farEnd[std::size_t(i)] != -1) continue;
    int prev = -1, cur = open[std::size_t(i)];
    if (pt.degree[std::size_t(cur)] == 1) {
      prev = cur;
      cur = pt.link[std::size_t(cur)][0];
      while (pt.degree[std::size_t(cur)] == 2) {
        const auto& lk = pt.link[std::size_t(cur)];
        const int nxt = (lk[0] != prev) ? lk[0] : lk[1];
        prev = cur;
        cur = nxt;
      }
    }
    const auto j = static_cast<int>(
        std::lower_bound(open.begin(), open.end(), cur) - open.begin());
    farEnd[std::size_t(i)] = j;
    farEnd[std::size_t(j)] = i;
  }

  std::vector<Point> pts;
  std::optional<KdTree> tree;
  if (euclideanReach(inst.weightType(), 0) >= 0.0) {
    pts.reserve(open.size());
    for (int c : open) pts.push_back(inst.point(c));
    tree.emplace(pts);
  }
  std::vector<int> within;
  const auto partner = [&](int i) {
    const int far = farEnd[std::size_t(i)];
    int best = -1;
    std::int64_t bestDist = std::numeric_limits<std::int64_t>::max();
    const auto consider = [&](int o) {
      if (o == i || o == far) return;
      const auto d = inst.dist(open[std::size_t(i)], open[std::size_t(o)]);
      if (d < bestDist || (d == bestDist && o < best)) {
        bestDist = d;
        best = o;
      }
    };
    if (!tree) {
      for (int o = 0; o < f; ++o)
        if (isOpen(o)) consider(o);
      return best;
    }
    const Point& p = pts[std::size_t(i)];
    const int nearest = tree->nearestActive(p, i, far);
    if (nearest == -1) return -1;
    const double reach = euclideanReach(
        inst.weightType(),
        inst.dist(open[std::size_t(i)], open[std::size_t(nearest)]));
    // Relative slack absorbs the rounding of the squared distances; the
    // smallest normal double covers squares that underflow to zero.
    within.clear();
    tree->activeWithin(p,
                       reach * reach * (1.0 + 1e-9) +
                           std::numeric_limits<double>::min(),
                       within);
    for (int o : within) consider(o);
    return best;
  };

  while (pt.edges < n - 1) {
    bool progressed = false;
    for (int i = 0; i < f; ++i) {
      if (pt.edges == n - 1) break;
      if (!isOpen(i)) continue;
      const int j = partner(i);
      if (j == -1) continue;
      const int a = farEnd[std::size_t(i)], b = farEnd[std::size_t(j)];
      pt.add(open[std::size_t(i)], open[std::size_t(j)]);
      farEnd[std::size_t(a)] = b;
      farEnd[std::size_t(b)] = a;
      if (tree) {
        if (!isOpen(i)) tree->deactivate(i);
        if (!isOpen(j)) tree->deactivate(j);
      }
      progressed = true;
    }
    if (!progressed) break;  // cannot happen for a valid partial tour
  }
  // Close the cycle: exactly two degree-1 endpoints remain.
  int e1 = -1, e2 = -1;
  for (int c : open)
    if (pt.degree[std::size_t(c)] < 2) (e1 == -1 ? e1 : e2) = c;
  if (e1 != -1 && e2 != -1) pt.add(e1, e2);

  // Walk the cycle.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  int prev = -1, cur = 0;
  for (int i = 0; i < n; ++i) {
    order.push_back(cur);
    const auto& lk = pt.link[std::size_t(cur)];
    const int nxt = (lk[0] != prev) ? lk[0] : lk[1];
    prev = cur;
    cur = nxt;
  }
  return order;
}

}  // namespace

std::vector<int> randomTour(const Instance& inst, Rng& rng) {
  std::vector<int> order(std::size_t(inst.n()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  return order;
}

std::vector<int> nearestNeighborTour(const Instance& inst, int start) {
  const int n = inst.n();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (inst.hasCoords()) {
    KdTree tree(inst.points());
    int cur = start;
    for (int i = 0; i < n; ++i) {
      order.push_back(cur);
      tree.deactivate(cur);
      const int nxt = tree.nearestActive(inst.point(cur));
      if (nxt == -1) break;
      cur = nxt;
    }
  } else {
    std::vector<bool> used(std::size_t(n), false);
    int cur = start;
    for (int i = 0; i < n; ++i) {
      order.push_back(cur);
      used[std::size_t(cur)] = true;
      int best = -1;
      std::int64_t bestDist = std::numeric_limits<std::int64_t>::max();
      for (int o = 0; o < n; ++o) {
        if (used[std::size_t(o)]) continue;
        const auto d = inst.dist(cur, o);
        if (d < bestDist) {
          bestDist = d;
          best = o;
        }
      }
      if (best == -1) break;
      cur = best;
    }
  }
  return order;
}

std::vector<int> greedyTour(const Instance& inst, const CandidateLists& cand) {
  const int n = inst.n();
  struct Edge {
    std::int64_t w;
    int a, b;
  };
  std::vector<Edge> edges;
  for (int a = 0; a < n; ++a) {
    const auto cs = cand.of(a);
    const auto ds = cand.distOf(a);  // annotation == inst.dist(a, b)
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (a < cs[i]) edges.push_back({ds[i], a, cs[i]});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.w != y.w) return x.w < y.w;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  PartialTour pt(n);
  for (const Edge& e : edges) {
    if (pt.edges == n - 1) break;
    if (pt.canAdd(e.a, e.b)) pt.add(e.a, e.b);
  }
  return stitchFragments(inst, pt);
}

std::vector<int> quickBoruvkaTour(const Instance& inst,
                                  const CandidateLists& cand) {
  const int n = inst.n();
  // Process order: sort by coordinates when available (the published
  // algorithm), city index otherwise.
  std::vector<int> procOrder(static_cast<std::size_t>(n));
  std::iota(procOrder.begin(), procOrder.end(), 0);
  if (inst.hasCoords()) {
    std::sort(procOrder.begin(), procOrder.end(), [&](int a, int b) {
      const Point& pa = inst.point(a);
      const Point& pb = inst.point(b);
      if (pa.x != pb.x) return pa.x < pb.x;
      if (pa.y != pb.y) return pa.y < pb.y;
      return a < b;
    });
  }
  PartialTour pt(n);
  for (int pass = 0; pass < 2 && pt.edges < n - 1; ++pass) {
    for (int c : procOrder) {
      if (pt.edges == n - 1) break;
      if (pt.degree[std::size_t(c)] >= 2) continue;
      int best = -1;
      std::int64_t bestDist = std::numeric_limits<std::int64_t>::max();
      const auto cs = cand.of(c);
      const auto ds = cand.distOf(c);  // annotation == inst.dist(c, o)
      for (std::size_t i = 0; i < cs.size(); ++i) {
        const int o = cs[i];
        if (!pt.canAdd(c, o)) continue;
        if (ds[i] < bestDist) {
          bestDist = ds[i];
          best = o;
        }
      }
      if (best != -1) pt.add(c, best);
    }
  }
  procOrder = std::vector<int>();  // free it before the stitch allocates
  return stitchFragments(inst, pt);
}

namespace {
// 2-d coordinates -> position on a Hilbert curve of order `bits`.
std::uint64_t hilbertD(std::uint32_t x, std::uint32_t y, int bits) {
  std::uint64_t rx, ry, d = 0;
  for (std::uint64_t s = 1ULL << (bits - 1); s > 0; s /= 2) {
    rx = (x & s) > 0 ? 1 : 0;
    ry = (y & s) > 0 ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    // Rotate quadrant.
    if (ry == 0) {
      if (rx == 1) {
        x = static_cast<std::uint32_t>(s - 1 - x);
        y = static_cast<std::uint32_t>(s - 1 - y);
      }
      std::swap(x, y);
    }
  }
  return d;
}
}  // namespace

std::vector<int> christofidesLikeTour(const Instance& inst) {
  const int n = inst.n();
  // 1. Minimum spanning tree over all cities (dense Prim).
  std::vector<std::int64_t> minCost(static_cast<std::size_t>(n),
                                    std::numeric_limits<std::int64_t>::max());
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<bool> inTree(static_cast<std::size_t>(n), false);
  minCost[0] = 0;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int iter = 0; iter < n; ++iter) {
    int u = -1;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int v = 0; v < n; ++v)
      if (!inTree[std::size_t(v)] && minCost[std::size_t(v)] < best) {
        best = minCost[std::size_t(v)];
        u = v;
      }
    inTree[std::size_t(u)] = true;
    if (parent[std::size_t(u)] != -1) {
      adj[std::size_t(u)].push_back(parent[std::size_t(u)]);
      adj[std::size_t(parent[std::size_t(u)])].push_back(u);
    }
    for (int v = 0; v < n; ++v) {
      if (inTree[std::size_t(v)]) continue;
      const auto w = inst.dist(u, v);
      if (w < minCost[std::size_t(v)]) {
        minCost[std::size_t(v)] = w;
        parent[std::size_t(v)] = u;
      }
    }
  }

  // 2. Greedy nearest-pair matching on the odd-degree vertices.
  std::vector<int> odd;
  for (int v = 0; v < n; ++v)
    if (adj[std::size_t(v)].size() % 2 == 1) odd.push_back(v);
  if (inst.hasCoords() && odd.size() > 64) {
    std::vector<Point> pts;
    pts.reserve(odd.size());
    for (int v : odd) pts.push_back(inst.point(v));
    KdTree tree(pts);
    for (std::size_t i = 0; i < odd.size(); ++i) {
      if (!tree.isActive(static_cast<int>(i))) continue;
      tree.deactivate(static_cast<int>(i));
      const int j = tree.nearestActive(pts[i]);
      if (j == -1) break;
      tree.deactivate(j);
      adj[std::size_t(odd[i])].push_back(odd[std::size_t(j)]);
      adj[std::size_t(odd[std::size_t(j)])].push_back(odd[i]);
    }
  } else {
    std::vector<bool> used(odd.size(), false);
    for (std::size_t i = 0; i < odd.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      std::size_t best = i;
      std::int64_t bestDist = std::numeric_limits<std::int64_t>::max();
      for (std::size_t j = i + 1; j < odd.size(); ++j) {
        if (used[j]) continue;
        const auto d = inst.dist(odd[i], odd[j]);
        if (d < bestDist) {
          bestDist = d;
          best = j;
        }
      }
      if (best == i) break;
      used[best] = true;
      adj[std::size_t(odd[i])].push_back(odd[best]);
      adj[std::size_t(odd[best])].push_back(odd[i]);
    }
  }

  // 3. Euler tour of the MST+matching multigraph (Hierholzer), then
  //    shortcut repeated cities.
  std::vector<std::size_t> edgeCursor(static_cast<std::size_t>(n), 0);
  std::vector<int> stack{0};
  std::vector<int> euler;
  euler.reserve(2 * static_cast<std::size_t>(n));
  // Mark consumed edges with -1 (multigraph: duplicates are distinct slots).
  while (!stack.empty()) {
    const int u = stack.back();
    auto& cursor = edgeCursor[std::size_t(u)];
    auto& edges = adj[std::size_t(u)];
    while (cursor < edges.size() && edges[cursor] == -1) ++cursor;
    if (cursor == edges.size()) {
      euler.push_back(u);
      stack.pop_back();
      continue;
    }
    const int v = edges[cursor];
    edges[cursor] = -1;  // consume u->v
    // Consume the reverse slot v->u.
    auto& back = adj[std::size_t(v)];
    for (auto& w : back) {
      if (w == u) {
        w = -1;
        break;
      }
    }
    stack.push_back(v);
  }

  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (int v : euler) {
    if (!seen[std::size_t(v)]) {
      seen[std::size_t(v)] = true;
      order.push_back(v);
    }
  }
  // Greedy matching can leave one odd vertex unmatched (odd count is always
  // even, but kd greedy pairs nearest-first and never strands one); still,
  // guard against any city missing from a disconnected walk.
  for (int v = 0; v < n; ++v)
    if (!seen[std::size_t(v)]) order.push_back(v);
  return order;
}

std::vector<int> spaceFillingTour(const Instance& inst) {
  if (!inst.hasCoords())
    throw std::invalid_argument("spaceFillingTour: needs coordinates");
  const int n = inst.n();
  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = xmax;
  for (int i = 0; i < n; ++i) {
    xmin = std::min(xmin, inst.point(i).x);
    xmax = std::max(xmax, inst.point(i).x);
    ymin = std::min(ymin, inst.point(i).y);
    ymax = std::max(ymax, inst.point(i).y);
  }
  const double sx = xmax > xmin ? xmax - xmin : 1.0;
  const double sy = ymax > ymin ? ymax - ymin : 1.0;
  constexpr int kBits = 16;
  constexpr double kGrid = (1 << kBits) - 1;
  std::vector<std::pair<std::uint64_t, int>> keyed(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto gx = static_cast<std::uint32_t>(
        (inst.point(i).x - xmin) / sx * kGrid);
    const auto gy = static_cast<std::uint32_t>(
        (inst.point(i).y - ymin) / sy * kGrid);
    keyed[std::size_t(i)] = {hilbertD(gx, gy, kBits), i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> order(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

}  // namespace distclk
