#include "tsp/kdtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tsp/gen.h"
#include "util/rng.h"

namespace distclk {
namespace {

std::vector<int> bruteKnn(std::span<const Point> pts, const Point& q, int k,
                          int exclude) {
  std::vector<std::pair<double, int>> d;
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    if (i == exclude) continue;
    const double dx = pts[std::size_t(i)].x - q.x;
    const double dy = pts[std::size_t(i)].y - q.y;
    d.emplace_back(dx * dx + dy * dy, i);
  }
  std::sort(d.begin(), d.end());
  std::vector<int> out;
  for (int i = 0; i < k && i < static_cast<int>(d.size()); ++i)
    out.push_back(d[std::size_t(i)].second);
  return out;
}

class KdTreeSizes : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeSizes, KnnMatchesBruteForceDistances) {
  const int n = GetParam();
  const Instance inst = uniformSquare("k", n, std::uint64_t(n) + 3);
  KdTree tree(inst.points());
  for (int q = 0; q < std::min(n, 25); ++q) {
    const auto got = tree.knn(q, 8);
    const auto want = bruteKnn(inst.points(), inst.point(q), 8, q);
    ASSERT_EQ(got.size(), want.size());
    // Compare by distance (ties may order differently).
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto d = [&](int c) {
        const double dx = inst.point(c).x - inst.point(q).x;
        const double dy = inst.point(c).y - inst.point(q).y;
        return dx * dx + dy * dy;
      };
      EXPECT_DOUBLE_EQ(d(got[i]), d(want[i])) << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeSizes,
                         ::testing::Values(4, 16, 17, 100, 1000));

TEST(KdTree, KnnExcludesQueryPoint) {
  const Instance inst = uniformSquare("k", 50, 1);
  KdTree tree(inst.points());
  for (int q = 0; q < 50; ++q) {
    const auto got = tree.knn(q, 5);
    EXPECT_EQ(std::count(got.begin(), got.end(), q), 0);
  }
}

TEST(KdTree, KnnOrderedAscending) {
  const Instance inst = uniformSquare("k", 300, 2);
  KdTree tree(inst.points());
  const auto got = tree.knn(7, 12);
  ASSERT_EQ(got.size(), 12u);
  auto dist2 = [&](int c) {
    const double dx = inst.point(c).x - inst.point(7).x;
    const double dy = inst.point(c).y - inst.point(7).y;
    return dx * dx + dy * dy;
  };
  for (std::size_t i = 1; i < got.size(); ++i)
    EXPECT_LE(dist2(got[i - 1]), dist2(got[i]));
}

TEST(KdTree, KnnClampsKToSize) {
  const Instance inst = uniformSquare("k", 5, 3);
  KdTree tree(inst.points());
  EXPECT_EQ(tree.knn(0, 100).size(), 4u);
}

TEST(KdTree, KnnAtArbitraryLocation) {
  const Instance inst = uniformSquare("k", 200, 4);
  KdTree tree(inst.points());
  const Point q{123456.0, 654321.0};
  const auto got = tree.knn(q, 3);
  const auto want = bruteKnn(inst.points(), q, 3, -1);
  EXPECT_EQ(got, want);
}

TEST(KdTree, NearestActiveMatchesBruteForceUnderDeletions) {
  const Instance inst = uniformSquare("k", 400, 5);
  KdTree tree(inst.points());
  Rng rng(99);
  std::vector<bool> active(400, true);
  for (int round = 0; round < 300; ++round) {
    const int kill = static_cast<int>(rng.below(400));
    tree.deactivate(kill);
    active[std::size_t(kill)] = false;
    const Point q{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)};
    const int got = tree.nearestActive(q);
    // Brute force.
    int want = -1;
    double best = 1e30;
    for (int i = 0; i < 400; ++i) {
      if (!active[std::size_t(i)]) continue;
      const double dx = inst.point(i).x - q.x, dy = inst.point(i).y - q.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < best) {
        best = d2;
        want = i;
      }
    }
    if (want == -1) {
      EXPECT_EQ(got, -1);
    } else {
      ASSERT_NE(got, -1);
      const double dx = inst.point(got).x - q.x, dy = inst.point(got).y - q.y;
      EXPECT_DOUBLE_EQ(dx * dx + dy * dy, best);
    }
  }
}

TEST(KdTree, NearestActiveHonorsExclude) {
  const Instance inst = uniformSquare("k", 50, 6);
  KdTree tree(inst.points());
  const int nn = tree.nearestActive(inst.point(0), 0);
  EXPECT_NE(nn, 0);
  EXPECT_NE(nn, -1);
}

TEST(KdTree, ActiveCountTracksDeactivations) {
  const Instance inst = uniformSquare("k", 20, 7);
  KdTree tree(inst.points());
  EXPECT_EQ(tree.activeCount(), 20);
  tree.deactivate(3);
  tree.deactivate(3);  // idempotent
  tree.deactivate(7);
  EXPECT_EQ(tree.activeCount(), 18);
  EXPECT_FALSE(tree.isActive(3));
  EXPECT_TRUE(tree.isActive(4));
}

TEST(KdTree, ReactivateAllRestores) {
  const Instance inst = uniformSquare("k", 30, 8);
  KdTree tree(inst.points());
  for (int i = 0; i < 30; ++i) tree.deactivate(i);
  EXPECT_EQ(tree.nearestActive({0, 0}), -1);
  tree.reactivateAll();
  EXPECT_EQ(tree.activeCount(), 30);
  EXPECT_NE(tree.nearestActive({0, 0}), -1);
}

TEST(KdTree, AllDeactivatedReturnsMinusOne) {
  const Instance inst = uniformSquare("k", 5, 9);
  KdTree tree(inst.points());
  for (int i = 0; i < 5; ++i) tree.deactivate(i);
  EXPECT_EQ(tree.nearestActive({1, 1}), -1);
  EXPECT_EQ(tree.activeCount(), 0);
}

TEST(KdTree, HandlesDuplicatePoints) {
  std::vector<Point> pts(20, Point{5.0, 5.0});
  pts.push_back({6.0, 6.0});
  KdTree tree(pts);
  const auto got = tree.knn(Point{5.0, 5.0}, 20);
  EXPECT_EQ(got.size(), 20u);
  const int nn = tree.nearestActive({5.9, 5.9});
  EXPECT_EQ(nn, 20);
}

// Integer points on a small lattice: duplicates and exact distance ties
// everywhere, so the lowest-index tie rule is actually exercised.
std::vector<Point> latticePoints(int n, int side, Rng& rng) {
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (auto& p : pts)
    p = {static_cast<double>(rng.below(std::uint64_t(side))),
         static_cast<double>(rng.below(std::uint64_t(side)))};
  return pts;
}

double dist2(const Point& a, const Point& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return dx * dx + dy * dy;
}

TEST(KdTree, NearestActiveTwoExclusionsMatchesBruteForce) {
  Rng rng(11);
  for (const int n : {1, 2, 17, 300, 2000}) {
    const auto pts = latticePoints(n, n < 100 ? 4 : 25, rng);
    KdTree tree(pts);
    std::vector<bool> active(std::size_t(n), true);
    for (int round = 0; round < 2 * n + 4; ++round) {
      if (round % 3 == 2) {
        const int kill = static_cast<int>(rng.below(std::uint64_t(n)));
        tree.deactivate(kill);
        active[std::size_t(kill)] = false;
      }
      const int at = static_cast<int>(rng.below(std::uint64_t(n)));
      const Point q = round % 2 ? pts[std::size_t(at)]
                                : Point{rng.uniform(-1.0, 26.0),
                                        rng.uniform(-1.0, 26.0)};
      const int ex1 = round % 4 == 0 ? -1 : at;
      const int ex2 = round % 5 == 0
                          ? -1
                          : static_cast<int>(rng.below(std::uint64_t(n)));
      int want = -1;
      double best = 0.0;
      for (int i = 0; i < n; ++i) {
        if (!active[std::size_t(i)] || i == ex1 || i == ex2) continue;
        const double d2 = dist2(pts[std::size_t(i)], q);
        if (want == -1 || d2 < best) {
          best = d2;
          want = i;
        }
      }
      ASSERT_EQ(tree.nearestActive(q, ex1, ex2), want)
          << "n=" << n << " round=" << round;
    }
  }
}

TEST(KdTree, ActiveWithinMatchesBruteForce) {
  Rng rng(12);
  for (const int n : {1, 17, 300, 2000}) {
    const auto pts = latticePoints(n, n < 100 ? 4 : 25, rng);
    KdTree tree(pts);
    std::vector<bool> active(std::size_t(n), true);
    std::vector<int> got;
    for (int round = 0; round < 2 * n + 4; ++round) {
      if (round % 2 == 1) {
        const int kill = static_cast<int>(rng.below(std::uint64_t(n)));
        tree.deactivate(kill);
        active[std::size_t(kill)] = false;
      }
      const Point q = pts[rng.below(std::uint64_t(n))];
      // Integer squared radii put lattice points exactly on the boundary,
      // which the query must include.
      const auto r2 = static_cast<double>(rng.below(40));
      got.clear();
      tree.activeWithin(q, r2, got);
      std::sort(got.begin(), got.end());
      std::vector<int> want;
      for (int i = 0; i < n; ++i)
        if (active[std::size_t(i)] && dist2(pts[std::size_t(i)], q) <= r2)
          want.push_back(i);
      ASSERT_EQ(got, want) << "n=" << n << " round=" << round;
    }
  }
}

TEST(KdTree, ActiveWithinAppendsAndSkipsEmptyTrees) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {5, 5}};
  KdTree tree(pts);
  std::vector<int> out{42};
  tree.activeWithin({0, 0}, 1.0, out);
  std::sort(out.begin() + 1, out.end());
  EXPECT_EQ(out, (std::vector<int>{42, 0, 1}));
  for (int i = 0; i < 3; ++i) tree.deactivate(i);
  out.clear();
  tree.activeWithin({0, 0}, 1e9, out);
  EXPECT_TRUE(out.empty());
  const KdTree empty(std::span<const Point>{});
  empty.activeWithin({0, 0}, 1e9, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace distclk
