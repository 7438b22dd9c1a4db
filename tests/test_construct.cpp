#include "construct/construct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "tsp/gen.h"
#include "tsp/tour.h"

namespace distclk {
namespace {

bool isPermutation(const std::vector<int>& order, int n) {
  if (static_cast<int>(order.size()) != n) return false;
  std::vector<bool> seen(std::size_t(n), false);
  for (int c : order) {
    if (c < 0 || c >= n || seen[std::size_t(c)]) return false;
    seen[std::size_t(c)] = true;
  }
  return true;
}

// FNV-1a over a city order: pins a whole construction tour in one value.
std::uint64_t orderHash(const std::vector<int>& order) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int c : order) {
    h ^= static_cast<std::uint32_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Generator points re-read under another planar metric.
Instance withMetric(const Instance& base, EdgeWeightType type) {
  return Instance(base.name(),
                  std::vector<Point>(base.points().begin(),
                                     base.points().end()),
                  type);
}

Instance family(const std::string& name, int n) {
  if (name == "uniform") return uniformSquare(name, n, std::uint64_t(n) + 1);
  if (name == "clustered")
    return clustered(name, n, 10, std::uint64_t(n) + 2);
  return drillPlate(name, n, std::uint64_t(n) + 3);
}

constexpr EdgeWeightType kPlanarMetrics[] = {
    EdgeWeightType::kEuc2D, EdgeWeightType::kCeil2D, EdgeWeightType::kAtt,
    EdgeWeightType::kMan2D, EdgeWeightType::kMax2D};

class ConstructionTest : public ::testing::TestWithParam<int> {
 protected:
  Instance inst() const {
    return uniformSquare("c", GetParam(), std::uint64_t(GetParam()) + 7);
  }
};

TEST_P(ConstructionTest, RandomTourIsPermutation) {
  const Instance i = inst();
  Rng rng(1);
  EXPECT_TRUE(isPermutation(randomTour(i, rng), i.n()));
}

TEST_P(ConstructionTest, NearestNeighborIsPermutation) {
  const Instance i = inst();
  EXPECT_TRUE(isPermutation(nearestNeighborTour(i, 0), i.n()));
}

TEST_P(ConstructionTest, GreedyIsPermutation) {
  const Instance i = inst();
  const CandidateLists cand(i, 8);
  EXPECT_TRUE(isPermutation(greedyTour(i, cand), i.n()));
}

TEST_P(ConstructionTest, QuickBoruvkaIsPermutation) {
  const Instance i = inst();
  const CandidateLists cand(i, 8);
  EXPECT_TRUE(isPermutation(quickBoruvkaTour(i, cand), i.n()));
}

TEST_P(ConstructionTest, SpaceFillingIsPermutation) {
  const Instance i = inst();
  EXPECT_TRUE(isPermutation(spaceFillingTour(i), i.n()));
}

TEST_P(ConstructionTest, HeuristicsBeatRandomTours) {
  const Instance i = inst();
  const CandidateLists cand(i, 8);
  Rng rng(2);
  // Average a few random tours as the reference.
  std::int64_t randomTotal = 0;
  for (int r = 0; r < 3; ++r)
    randomTotal += i.tourLength(randomTour(i, rng));
  const std::int64_t randomAvg = randomTotal / 3;
  EXPECT_LT(i.tourLength(nearestNeighborTour(i, 0)), randomAvg);
  EXPECT_LT(i.tourLength(greedyTour(i, cand)), randomAvg);
  EXPECT_LT(i.tourLength(quickBoruvkaTour(i, cand)), randomAvg);
  EXPECT_LT(i.tourLength(spaceFillingTour(i)), randomAvg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConstructionTest,
                         ::testing::Values(8, 33, 100, 500));

// Construction tours pinned at scale. The hashes were recorded from the
// quadratic endpoint-scan stitcher that the kd-tree stitcher replaced; the
// kd-tree search must reproduce its tours byte for byte on every planar
// metric (DESIGN.md §13).
struct PinnedConstruction {
  const char* family;
  int n;
  EdgeWeightType type;
  std::uint64_t quickBoruvka;
  std::uint64_t greedy;
};

constexpr PinnedConstruction kPinnedConstructions[] = {
    {"uniform", 20000, EdgeWeightType::kEuc2D, 0xd7c92809b9fd2da7ULL, 0xa99590d0b4d51d77ULL},
    {"uniform", 20000, EdgeWeightType::kCeil2D, 0xd7c92809b9fd2da7ULL, 0xa99590d0b4d51d77ULL},
    {"uniform", 20000, EdgeWeightType::kAtt, 0xd7c92809b9fd2da7ULL, 0x3f7a6480159417e3ULL},
    {"uniform", 20000, EdgeWeightType::kMan2D, 0xb4f47c7e05215323ULL, 0x2df1a39f6f4b799dULL},
    {"uniform", 20000, EdgeWeightType::kMax2D, 0x6e3a76983c1c5cadULL, 0xb2220db36f637f09ULL},
    {"uniform", 50000, EdgeWeightType::kEuc2D, 0xdd9afe11d5fb1e0bULL, 0x1ccc3d44784b9d6dULL},
    {"uniform", 50000, EdgeWeightType::kCeil2D, 0xdd9afe11d5fb1e0bULL, 0xe89f814af489cf2dULL},
    {"uniform", 50000, EdgeWeightType::kAtt, 0xdd9afe11d5fb1e0bULL, 0x73e16a215ee9681bULL},
    {"uniform", 50000, EdgeWeightType::kMan2D, 0x8667fd9bb6aa1e97ULL, 0xc0860ba214b7262dULL},
    {"uniform", 50000, EdgeWeightType::kMax2D, 0xbaef66f4fb6d7d17ULL, 0x410e91d87147728bULL},
    {"clustered", 20000, EdgeWeightType::kEuc2D, 0x1aa8ffe85181489fULL, 0x1d72ccccca855805ULL},
    {"clustered", 20000, EdgeWeightType::kCeil2D, 0x1aa8ffe85181489fULL, 0xdd37f18ff488e017ULL},
    {"clustered", 20000, EdgeWeightType::kAtt, 0x1aa8ffe85181489fULL, 0xa228655b6ada87fbULL},
    {"clustered", 20000, EdgeWeightType::kMan2D, 0x77eefff87809d1f1ULL, 0x4e1c5af23f5fceebULL},
    {"clustered", 20000, EdgeWeightType::kMax2D, 0xaad18a8c1199ee95ULL, 0x27d438d6c0a22475ULL},
    {"clustered", 50000, EdgeWeightType::kEuc2D, 0xdc82cc79a34fb1a9ULL, 0x9257ca09d16073d9ULL},
    {"clustered", 50000, EdgeWeightType::kCeil2D, 0xdc82cc79a34fb1a9ULL, 0x63adbeebd7920393ULL},
    {"clustered", 50000, EdgeWeightType::kAtt, 0x66d901bbcad0a679ULL, 0x3e409f90f2199a2bULL},
    {"clustered", 50000, EdgeWeightType::kMan2D, 0xd1a106deb378ca9ULL, 0xc428f4d9047da9e5ULL},
    {"clustered", 50000, EdgeWeightType::kMax2D, 0x430936a532b0a783ULL, 0xcae2b0d6773906f7ULL},
    {"drill", 20000, EdgeWeightType::kEuc2D, 0xfeaf882d1794d8f3ULL, 0xd9e080a09b9872d3ULL},
    {"drill", 20000, EdgeWeightType::kCeil2D, 0xfeaf882d1794d8f3ULL, 0xd9e080a09b9872d3ULL},
    {"drill", 20000, EdgeWeightType::kAtt, 0xfeaf882d1794d8f3ULL, 0xd9e080a09b9872d3ULL},
    {"drill", 20000, EdgeWeightType::kMan2D, 0xbfc1ae15f9386355ULL, 0x9dbbabb10f097d15ULL},
    {"drill", 20000, EdgeWeightType::kMax2D, 0xba923ea2447f7e47ULL, 0x6afe690103a23e97ULL},
    {"drill", 50000, EdgeWeightType::kEuc2D, 0xe46e7547f4a23779ULL, 0x945a00d347ae7a1bULL},
    {"drill", 50000, EdgeWeightType::kCeil2D, 0xe46e7547f4a23779ULL, 0x945a00d347ae7a1bULL},
    {"drill", 50000, EdgeWeightType::kAtt, 0xe46e7547f4a23779ULL, 0x82b13d6afcc8c2fbULL},
    {"drill", 50000, EdgeWeightType::kMan2D, 0xdfcf905c77caf599ULL, 0xb58ae4164bc70409ULL},
    {"drill", 50000, EdgeWeightType::kMax2D, 0x4cb138335edd65f3ULL, 0xb84bd528c271245bULL},
};

TEST(Construct, PinnedTourHashesAtScale) {
  for (const auto& row : kPinnedConstructions) {
    const Instance inst = withMetric(family(row.family, row.n), row.type);
    const CandidateLists cand(inst, 10);
    const auto qb = orderHash(quickBoruvkaTour(inst, cand));
    const auto gr = orderHash(greedyTour(inst, cand));
    EXPECT_TRUE(qb == row.quickBoruvka && gr == row.greedy)
        << row.family << " n=" << row.n << " " << toString(row.type)
        << std::hex << " quickBoruvka=0x" << qb << " greedy=0x" << gr;
  }
}

// The same instance as an EXPLICIT matrix: the stitcher must fall back to
// the endpoint scan there, while the planar original takes the kd-tree.
Instance explicitTwin(const Instance& planar) {
  const int n = planar.n();
  std::vector<std::int64_t> m(std::size_t(n) * std::size_t(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      m[std::size_t(i) * std::size_t(n) + std::size_t(j)] = planar.dist(i, j);
  return Instance(planar.name() + "-explicit", n, std::move(m));
}

// Integer lattice points drawn with replacement: many exact duplicates and
// equal rounded distances, the worst case for the stitcher's tie rule.
Instance tieHeavyGrid(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts(static_cast<std::size_t>(n));
  for (auto& p : pts)
    p = {static_cast<double>(rng.below(60)),
         static_cast<double>(rng.below(60))};
  return Instance("grid", std::move(pts));
}

TEST(Construct, KdStitchMatchesExplicitScan) {
  // greedyTour builds its fragments from the candidate lists alone, so a
  // planar instance and its EXPLICIT twin fed the same lists reach the
  // stitcher with identical fragments. The planar stitch searches a
  // kd-tree and the explicit one scans; their tours must be identical.
  for (int n : {200, 1500}) {
    std::vector<Instance> bases = {family("uniform", n),
                                   family("clustered", n),
                                   family("drill", n),
                                   tieHeavyGrid(n, std::uint64_t(n))};
    for (const Instance& base : bases) {
      for (const EdgeWeightType type : kPlanarMetrics) {
        const Instance planar = withMetric(base, type);
        const Instance twin = explicitTwin(planar);
        for (const auto kind : {CandidateLists::Kind::kNearest,
                                CandidateLists::Kind::kQuadrant}) {
          const CandidateLists cand(planar, 5, kind);
          const auto order = greedyTour(planar, cand);
          EXPECT_TRUE(isPermutation(order, n));
          EXPECT_EQ(order, greedyTour(twin, cand))
              << base.name() << " n=" << n << " " << toString(type)
              << " kind=" << static_cast<int>(kind);
        }
      }
    }
  }
}

TEST(Construct, NearestNeighborStartsAtGivenCity) {
  const Instance i = uniformSquare("c", 30, 5);
  EXPECT_EQ(nearestNeighborTour(i, 17)[0], 17);
}

TEST(Construct, NearestNeighborExplicitMatrixPath) {
  const std::vector<std::int64_t> m{0, 1, 4, 9,  //
                                    1, 0, 2, 9,  //
                                    4, 2, 0, 3,  //
                                    9, 9, 3, 0};
  const Instance inst("m", 4, m);
  const auto order = nearestNeighborTour(inst, 0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Construct, GreedyPrefersShortEdgesOnChain) {
  // Four collinear cities: greedy must produce the natural chain order.
  const Instance inst("line", {{0, 0}, {1, 0}, {2, 0}, {10, 0}},
                      EdgeWeightType::kEuc2D);
  const CandidateLists cand(inst, 3);
  const Tour t(inst, greedyTour(inst, cand));
  EXPECT_EQ(t.length(), inst.tourLength(std::vector<int>{0, 1, 2, 3}));
}

TEST(Construct, QuickBoruvkaDeterministic) {
  const Instance i = uniformSquare("c", 200, 6);
  const CandidateLists cand(i, 8);
  EXPECT_EQ(quickBoruvkaTour(i, cand), quickBoruvkaTour(i, cand));
}

TEST(Construct, QuickBoruvkaQualityNearGreedy) {
  // QB is expected to be in the same quality ballpark as greedy (both are
  // within ~15-25% of optimal on uniform instances).
  const Instance i = uniformSquare("c", 600, 8);
  const CandidateLists cand(i, 10);
  const auto qb = i.tourLength(quickBoruvkaTour(i, cand));
  const auto gr = i.tourLength(greedyTour(i, cand));
  EXPECT_LT(static_cast<double>(qb), static_cast<double>(gr) * 1.35);
}

TEST(Construct, SpaceFillingThrowsWithoutCoords) {
  const std::vector<std::int64_t> m{0, 1, 2, 1, 0, 3, 2, 3, 0};
  const Instance inst("m", 3, m);
  EXPECT_THROW(spaceFillingTour(inst), std::invalid_argument);
}

TEST(Construct, SpaceFillingLocality) {
  // On a uniform instance the Hilbert tour must be dramatically shorter
  // than random (it visits spatially coherent runs).
  const Instance i = uniformSquare("c", 1000, 9);
  Rng rng(1);
  const auto sf = i.tourLength(spaceFillingTour(i));
  const auto rnd = i.tourLength(randomTour(i, rng));
  EXPECT_LT(static_cast<double>(sf), static_cast<double>(rnd) * 0.2);
}

TEST(Construct, ChristofidesLikeIsPermutation) {
  for (int n : {8, 50, 301}) {
    const Instance i = uniformSquare("c", n, std::uint64_t(n) + 77);
    EXPECT_TRUE(isPermutation(christofidesLikeTour(i), i.n())) << n;
  }
}

TEST(Construct, ChristofidesLikeQualityCompetitive) {
  // MST + matching + shortcut lands in the same quality band as greedy
  // (both are within ~15-25% of optimal on uniform instances).
  const Instance i = uniformSquare("c", 500, 78);
  const CandidateLists cand(i, 10);
  const auto chr = i.tourLength(christofidesLikeTour(i));
  const auto gr = i.tourLength(greedyTour(i, cand));
  EXPECT_LT(static_cast<double>(chr), static_cast<double>(gr) * 1.35);
}

TEST(Construct, ChristofidesLikeExplicitMatrixPath) {
  const std::vector<std::int64_t> m{0, 1, 4, 9,  //
                                    1, 0, 2, 9,  //
                                    4, 2, 0, 3,  //
                                    9, 9, 3, 0};
  const Instance inst("m", 4, m);
  EXPECT_TRUE(isPermutation(christofidesLikeTour(inst), 4));
}

TEST(Construct, WorksOnClusteredGeometry) {
  const Instance i = clustered("c", 300, 10, 10);
  const CandidateLists cand(i, 8);
  EXPECT_TRUE(isPermutation(quickBoruvkaTour(i, cand), i.n()));
  EXPECT_TRUE(isPermutation(greedyTour(i, cand), i.n()));
}

}  // namespace
}  // namespace distclk
