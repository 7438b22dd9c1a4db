// Self-test of the benchmark's own checks: the tour validator must accept
// a correct tour and reject a corrupted length, a repeated city, an
// out-of-range city and a short tour; the tail rule must keep ten samples
// above the reported percentile. Exit code 0 = all checks passed.
#include <cstdio>
#include <numeric>
#include <vector>

#include "common.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::tourProblem;
  const distclk::Instance inst = perfbench::uniformCities(50, 7);
  std::vector<int> order(50);
  std::iota(order.begin(), order.end(), 0);
  const std::int64_t len = inst.tourLength(order);

  expect(perfbench::recomputedLength(inst, order) == len,
         "recomputed length matches the library's EUC_2D length");
  expect(tourProblem(inst, order, len).empty(), "valid tour accepted");
  expect(!tourProblem(inst, order, len + 1).empty(),
         "tour with a corrupted length rejected");

  std::vector<int> repeated = order;
  repeated[10] = repeated[11];
  expect(!tourProblem(inst, repeated, inst.tourLength(repeated)).empty(),
         "non-permutation (repeated city) rejected");

  std::vector<int> outOfRange = order;
  outOfRange[3] = 50;
  expect(!tourProblem(inst, outOfRange, len).empty(),
         "out-of-range city rejected");

  std::vector<int> shorter(order.begin(), order.end() - 1);
  expect(!tourProblem(inst, shorter, inst.tourLength(shorter)).empty(),
         "tour missing a city rejected");

  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);
  const auto tail = perfbench::tailOf(samples);
  expect(tail && tail->percentile == 90 && tail->value == 90.0,
         "tail of 1..100 is p90 = 90 with ten samples above");
  expect(!perfbench::tailOf(std::vector<double>(19, 1.0)),
         "no tail percentile from fewer than 20 samples");

  if (failures == 0) std::printf("validator self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
