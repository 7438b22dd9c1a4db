#include "bound/alpha.h"
#include "bound/exact.h"
#include "bound/held_karp.h"
#include "bound/onetree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tsp/gen.h"
#include "tsp/neighbors.h"

namespace distclk {
namespace {

TEST(OneTree, HasExactlyNEdgesAndDegreeSum2N) {
  const Instance inst = uniformSquare("b", 60, 21);
  const std::vector<double> pi(60, 0.0);
  const OneTree t = minimumOneTree(inst, pi);
  EXPECT_EQ(t.edges.size(), 60u);
  int degSum = 0;
  for (int d : t.degree) degSum += d;
  EXPECT_EQ(degSum, 120);
  EXPECT_EQ(t.degree[0], 2);  // special city always has exactly two edges
}

TEST(OneTree, WeightMatchesEdgeSum) {
  const Instance inst = uniformSquare("b", 40, 22);
  std::vector<double> pi(40);
  for (int i = 0; i < 40; ++i) pi[std::size_t(i)] = i * 0.5;
  const OneTree t = minimumOneTree(inst, pi);
  double sum = 0;
  for (const auto& [a, b] : t.edges)
    sum += static_cast<double>(inst.dist(a, b)) + pi[std::size_t(a)] +
           pi[std::size_t(b)];
  EXPECT_NEAR(t.weight, sum, 1e-6);
}

TEST(OneTree, LowerBoundsOptimalTour) {
  // With pi = 0, the minimum 1-tree length <= optimal tour length.
  const Instance inst = uniformSquare("b", 11, 23);
  const std::vector<double> pi(11, 0.0);
  const OneTree t = minimumOneTree(inst, pi);
  const ExactResult opt = solveExactDp(inst);
  EXPECT_LE(t.weight, static_cast<double>(opt.length) + 1e-9);
}

TEST(OneTree, IsConnectedSpanningStructure) {
  const Instance inst = clustered("b", 80, 5, 24);
  const std::vector<double> pi(80, 0.0);
  const OneTree t = minimumOneTree(inst, pi);
  // Union-find over the edges must leave a single component.
  std::vector<int> parent(80);
  for (int i = 0; i < 80; ++i) parent[std::size_t(i)] = i;
  auto find = [&](int x) {
    while (parent[std::size_t(x)] != x) x = parent[std::size_t(x)];
    return x;
  };
  for (const auto& [a, b] : t.edges) parent[std::size_t(find(a))] = find(b);
  for (int i = 1; i < 80; ++i) EXPECT_EQ(find(i), find(0));
}

TEST(OneTree, CandidateVersionMatchesExactOnEuclidean) {
  const Instance inst = uniformSquare("b", 300, 25);
  const std::vector<double> pi(300, 0.0);
  const CandidateLists cand(inst, 12);
  const OneTree exact = minimumOneTree(inst, pi);
  const OneTree approx = candidateOneTree(inst, pi, cand);
  // kNN graphs with k=12 contain the Euclidean MST almost surely.
  EXPECT_NEAR(exact.weight, approx.weight, exact.weight * 1e-6);
}

TEST(OneTree, RejectsWrongPiSize) {
  const Instance inst = uniformSquare("b", 10, 26);
  EXPECT_THROW(minimumOneTree(inst, std::vector<double>(3)),
               std::invalid_argument);
}

class ExactSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverTest, DpMatchesBruteForce) {
  const int n = GetParam();
  const Instance inst = uniformSquare("e", n, std::uint64_t(n) * 3 + 1);
  const ExactResult dp = solveExactDp(inst);
  const ExactResult bf = solveExactBruteForce(inst);
  EXPECT_EQ(dp.length, bf.length);
  EXPECT_EQ(inst.tourLength(dp.order), dp.length);
  EXPECT_EQ(inst.tourLength(bf.order), bf.length);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExactSolverTest,
                         ::testing::Values(4, 5, 6, 7, 8, 9, 10));

TEST(Exact, DpRejectsLargeN) {
  const Instance inst = uniformSquare("e", 21, 1);
  EXPECT_THROW(solveExactDp(inst), std::invalid_argument);
}

TEST(Exact, BruteForceRejectsLargeN) {
  const Instance inst = uniformSquare("e", 12, 1);
  EXPECT_THROW(solveExactBruteForce(inst), std::invalid_argument);
}

TEST(HeldKarp, BoundIsBelowOptimum) {
  for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const Instance inst = uniformSquare("h", 12, seed);
    const ExactResult opt = solveExactDp(inst);
    const HeldKarpResult hk = heldKarpBound(inst);
    EXPECT_LE(hk.bound, static_cast<double>(opt.length) + 1e-6) << seed;
    EXPECT_TRUE(hk.exact);
  }
}

TEST(HeldKarp, BoundIsTight) {
  // On small instances subgradient gets within a couple percent of opt.
  const Instance inst = uniformSquare("h", 14, 34);
  const ExactResult opt = solveExactDp(inst);
  HeldKarpOptions o;
  o.iterations = 500;
  const HeldKarpResult hk = heldKarpBound(inst, o);
  EXPECT_GT(hk.bound, static_cast<double>(opt.length) * 0.95);
}

TEST(HeldKarp, MoreIterationsNeverHurt) {
  const Instance inst = uniformSquare("h", 50, 35);
  HeldKarpOptions few, many;
  few.iterations = 5;
  many.iterations = 200;
  EXPECT_LE(heldKarpBound(inst, few).bound, heldKarpBound(inst, many).bound);
}

TEST(HeldKarp, CandidateModeFlaggedNotExact) {
  const Instance inst = uniformSquare("h", 120, 36);
  HeldKarpOptions o;
  o.exactLimit = 50;  // force the candidate path
  o.iterations = 30;
  const HeldKarpResult hk = heldKarpBound(inst, o);
  EXPECT_FALSE(hk.exact);
  EXPECT_GT(hk.bound, 0.0);
}

TEST(Alpha, TreeEdgesHaveZeroAlphaRank) {
  // Every city's alpha list must start with cities connected to it in the
  // minimum 1-tree (their alpha is 0).
  const Instance inst = uniformSquare("a", 50, 37);
  const std::vector<double> pi(50, 0.0);
  const OneTree t = minimumOneTree(inst, pi);
  const CandidateLists alpha = alphaCandidates(inst, pi, 5);
  std::vector<std::vector<int>> treeAdj(50);
  for (const auto& [a, b] : t.edges) {
    treeAdj[std::size_t(a)].push_back(b);
    treeAdj[std::size_t(b)].push_back(a);
  }
  for (int c = 0; c < 50; ++c) {
    const auto list = alpha.of(c);
    for (int nb : treeAdj[std::size_t(c)]) {
      // Each tree neighbor must appear in the list (alpha = 0, k=5 >= deg).
      if (treeAdj[std::size_t(c)].size() <= 5) {
        EXPECT_NE(std::find(list.begin(), list.end(), nb), list.end())
            << "city " << c << " tree-neighbor " << nb;
      }
    }
  }
}

TEST(Alpha, ListSizesAreK) {
  const Instance inst = uniformSquare("a", 40, 38);
  const std::vector<double> pi(40, 0.0);
  const CandidateLists alpha = alphaCandidates(inst, pi, 6);
  for (int c = 0; c < 40; ++c) EXPECT_EQ(alpha.of(c).size(), 6u);
}

TEST(Alpha, RejectsWrongPiSize) {
  const Instance inst = uniformSquare("a", 10, 39);
  EXPECT_THROW(alphaCandidates(inst, std::vector<double>(2), 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace distclk
