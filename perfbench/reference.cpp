#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Graph = std::vector<std::vector<int>>;

double dist(const distclk::Instance& inst, int i, int j) {
  const auto& a = inst.point(i);
  const auto& b = inst.point(j);
  const double dx = a.x - b.x, dy = a.y - b.y;
  return double(std::llround(std::sqrt(dx * dx + dy * dy)));
}

// k nearest neighbours through a uniform bucket grid, symmetrised.
Graph nearestGraph(const distclk::Instance& inst, int k) {
  const int n = inst.n();
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  for (const auto& p : inst.points()) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  const int g = std::max(1, static_cast<int>(std::sqrt(n / 2.0)));
  const double cw = std::max(xmax - xmin, 1.0) / g;
  const double ch = std::max(ymax - ymin, 1.0) / g;
  auto cellX = [&](double x) { return std::min(g - 1, int((x - xmin) / cw)); };
  auto cellY = [&](double y) { return std::min(g - 1, int((y - ymin) / ch)); };
  std::vector<std::vector<int>> cells(std::size_t(g) * std::size_t(g));
  for (int i = 0; i < n; ++i)
    cells[std::size_t(cellY(inst.point(i).y) * g + cellX(inst.point(i).x))]
        .push_back(i);

  Graph adj(static_cast<std::size_t>(n));
  std::vector<std::pair<double, int>> cand;
  for (int i = 0; i < n; ++i) {
    const auto& p = inst.point(i);
    const int x0 = cellX(p.x), y0 = cellY(p.y);
    cand.clear();
    // Grow square rings until k candidates are known and the ring is
    // farther than the k-th of them.
    for (int r = 0; r <= g; ++r) {
      for (int y = y0 - r; y <= y0 + r; ++y)
        for (int x = x0 - r; x <= x0 + r; ++x) {
          if (x < 0 || y < 0 || x >= g || y >= g) continue;
          if (std::max(std::abs(x - x0), std::abs(y - y0)) != r) continue;
          for (int j : cells[std::size_t(y * g + x)]) {
            if (j == i) continue;
            const double dx = p.x - inst.point(j).x, dy = p.y - inst.point(j).y;
            cand.emplace_back(dx * dx + dy * dy, j);
          }
        }
      if (int(cand.size()) >= k) {
        std::nth_element(cand.begin(), cand.begin() + (k - 1), cand.end());
        const double reach = r * std::min(cw, ch);
        if (reach * reach >= cand[std::size_t(k - 1)].first) break;
      }
    }
    std::sort(cand.begin(), cand.end());
    for (int t = 0; t < k && t < int(cand.size()); ++t) {
      adj[std::size_t(i)].push_back(cand[std::size_t(t)].second);
      adj[std::size_t(cand[std::size_t(t)].second)].push_back(i);
    }
  }
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return adj;
}

// Borůvka rounds over connected components: each component gains the
// shortest edge to any other component until one component remains.
// Brute force per round, fine for the few-thousand-city instances this
// reference is computed for.
void connect(const distclk::Instance& inst, Graph& adj) {
  const int n = inst.n();
  for (;;) {
    std::vector<int> comp(std::size_t(n), -1);
    int comps = 0;
    for (int s = 0; s < n; ++s) {
      if (comp[std::size_t(s)] >= 0) continue;
      std::vector<int> stack{s};
      comp[std::size_t(s)] = comps;
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int v : adj[std::size_t(u)])
          if (comp[std::size_t(v)] < 0) {
            comp[std::size_t(v)] = comps;
            stack.push_back(v);
          }
      }
      ++comps;
    }
    if (comps <= 1) return;
    std::vector<std::pair<double, std::pair<int, int>>> best(
        std::size_t(comps), {std::numeric_limits<double>::infinity(), {-1, -1}});
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (comp[std::size_t(i)] == comp[std::size_t(j)]) continue;
        const double d = dist(inst, i, j);
        auto& b = best[std::size_t(comp[std::size_t(i)])];
        if (d < b.first) b = {d, {i, j}};
      }
    for (const auto& [d, e] : best) {
      adj[std::size_t(e.first)].push_back(e.second);
      adj[std::size_t(e.second)].push_back(e.first);
    }
  }
}

// Minimum 1-tree over the graph under potentials `pi`: Prim's tree over
// cities 1..n-1 plus the two cheapest graph edges at city 0. Returns the
// modified weight and fills `degree`.
double oneTree(const distclk::Instance& inst, const Graph& adj,
               const std::vector<double>& pi, std::vector<int>& degree) {
  const int n = inst.n();
  std::fill(degree.begin(), degree.end(), 0);
  std::vector<double> key(std::size_t(n), std::numeric_limits<double>::infinity());
  std::vector<int> parent(std::size_t(n), -1);
  std::vector<char> done(std::size_t(n), 0);
  auto w = [&](int a, int b) {
    return dist(inst, a, b) + pi[std::size_t(a)] + pi[std::size_t(b)];
  };
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  key[1] = 0.0;
  heap.emplace(0.0, 1);
  double total = 0.0;
  while (!heap.empty()) {
    const auto [k, u] = heap.top();
    heap.pop();
    if (done[std::size_t(u)] || k != key[std::size_t(u)]) continue;
    done[std::size_t(u)] = 1;
    total += k;
    if (parent[std::size_t(u)] >= 0) {
      ++degree[std::size_t(u)];
      ++degree[std::size_t(parent[std::size_t(u)])];
    }
    for (int v : adj[std::size_t(u)]) {
      if (v == 0 || done[std::size_t(v)]) continue;
      const double c = w(u, v);
      if (c < key[std::size_t(v)]) {
        key[std::size_t(v)] = c;
        parent[std::size_t(v)] = u;
        heap.emplace(c, v);
      }
    }
  }
  double m1 = std::numeric_limits<double>::infinity(), m2 = m1;
  int a = -1, b = -1;
  for (int v : adj[0]) {
    const double c = w(0, v);
    if (c < m1) {
      m2 = m1;
      b = a;
      m1 = c;
      a = v;
    } else if (c < m2) {
      m2 = c;
      b = v;
    }
  }
  if (b < 0) {  // city 0 has a single graph neighbour: take the next nearest
    for (int v = 1; v < n; ++v)
      if (v != a && w(0, v) < m2) {
        m2 = w(0, v);
        b = v;
      }
  }
  degree[0] = 2;
  ++degree[std::size_t(a)];
  ++degree[std::size_t(b)];
  return total + m1 + m2;
}

}  // namespace

double heldKarpReference(const distclk::Instance& inst, int iterations) {
  const int n = inst.n();
  if (n < 3) return 1.0;
  Graph adj = nearestGraph(inst, std::min(10, n - 1));
  connect(inst, adj);
  std::vector<double> pi(std::size_t(n), 0.0);
  std::vector<int> degree(std::size_t(n), 0);
  double lagrangian = oneTree(inst, adj, pi, degree);
  double best = lagrangian;
  // Polyak steps toward a target 10% above the plain 1-tree (a Euclidean
  // tour is typically 10-25% longer than its minimum spanning tree); the
  // step factor halves after ten iterations without a new best.
  const double target = 1.10 * lagrangian;
  double lambda = 2.0;
  int sinceBest = 0;
  for (int it = 0; it < iterations; ++it) {
    double norm2 = 0.0;
    for (int d : degree) norm2 += double(d - 2) * double(d - 2);
    if (norm2 == 0.0) break;  // the 1-tree is a tour
    const double step = lambda * std::max(target - lagrangian, 1e-9) / norm2;
    for (int i = 0; i < n; ++i)
      pi[std::size_t(i)] += step * double(degree[std::size_t(i)] - 2);
    const double piSum = std::accumulate(pi.begin(), pi.end(), 0.0);
    lagrangian = oneTree(inst, adj, pi, degree) - 2.0 * piSum;
    if (lagrangian > best) {
      best = lagrangian;
      sinceBest = 0;
    } else if (++sinceBest >= 10) {
      lambda = std::max(0.5 * lambda, 1e-4);
      sinceBest = 0;
    }
  }
  return best;
}

double bhhEstimate(int n, double side) {
  return 0.7124 * std::sqrt(double(n) * side * side);
}

}  // namespace perfbench
