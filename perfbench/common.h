// Shared vocabulary of the end-to-end benchmark driver: run options,
// workload outcomes, the span recorder of the traced run, order
// statistics, the output validator, and the benchmark's own instance
// generators. Nothing here is part of the library under test; the
// validator and the generators deliberately do not call into it, so a
// change to the library cannot change what the benchmark feeds it or how
// the benchmark judges its answers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "tsp/instance.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool tiny = false;      ///< smoke-test sizes (benchmark tests only)
  std::string outDir;     ///< where the run record and spans are written
};

/// What one workload run hands back to the driver. `metrics` holds the
/// end-to-end metrics (trace off) or the per-layer ones (trace on);
/// `info` holds exact counts, sample counts and other provenance that is
/// printed but not gated.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output-correctness failures only (invalid tour, determinism
  /// mismatch); SLO misses count in `failed` but not here.
  std::int64_t incorrect = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> problems;  ///< first few failure reasons

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void fail(const std::string& why, bool wrongOutput);
};

// ---------------------------------------------------------------------------
// Time and spans.

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double nowSeconds();

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on the driver's main thread around calls into the library; spans that
/// the library reports after the fact (a pool job's queue/setup/solve) are
/// added with explicit times. Written out once, at the end of the run.
class SpanLog {
 public:
  /// Opens a span whose parent is the innermost open span.
  int open(std::string name);
  void close(int id);
  /// Records a finished span with an explicit parent (-1: root).
  int add(std::string name, int parent, double start, double end);

  /// Per span name: count, total time and self time (duration minus the
  /// union of its children's intervals), in milliseconds.
  struct SelfTime {
    std::string name;
    std::int64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };
  std::vector<SelfTime> selfTimes() const;
  /// JSON document {"spans":[...],"self":[...]}.
  std::string toJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a (possibly null) log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Order statistics.

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// 100 * (length / reference - 1).
double excessPct(double length, double reference);
/// printf-style formatting of one number.
std::string fmt(const char* format, double v);
/// Highest whole percentile with at least ten samples above it, and the
/// nearest-rank value there. Empty when fewer than 20 samples exist (the
/// percentile would fall below the median).
struct Tail {
  int percentile = 0;
  double value = 0.0;
};
std::optional<Tail> tailOf(std::vector<double> v);
/// Linear interpolation inside the bucket holding quantile q (0..1).
double histogramQuantile(const distclk::obs::HistogramData& h, double q);

// ---------------------------------------------------------------------------
// Output validation.

/// Tour length recomputed from the coordinates with the EUC_2D rounding
/// rule (nearest integer of the Euclidean distance), independently of the
/// library's distance code.
std::int64_t recomputedLength(const distclk::Instance& inst,
                              std::span<const int> order);
/// Empty when `order` is a permutation of 0..n-1 whose recomputed length
/// equals `reported`; otherwise a one-line reason.
std::string tourProblem(const distclk::Instance& inst,
                        std::span<const int> order, std::int64_t reported);

// ---------------------------------------------------------------------------
// Inputs, generated by the benchmark from its seed.

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);
/// n cities uniform in [0, side]^2.
distclk::Instance uniformCities(int n, std::uint64_t seed, double side = 1e6);
/// n cities normally spread around n/100 (at least 4) uniform centres.
distclk::Instance clusteredCities(int n, std::uint64_t seed,
                                  double side = 1e6);
/// Drill-plate layout: 90% of the holes in dense rasters on a coarse grid
/// of blocks, the rest uniform (the shape of TSPLIB's fl instances).
distclk::Instance drillCities(int n, std::uint64_t seed, double side = 1e6);

/// Calls fn(0), ..., fn(count - 1) on at most four threads; for work kept
/// outside the timed phases (references).
void parallelFor(std::size_t count, const std::function<void(std::size_t)>& fn);

// ---------------------------------------------------------------------------
// Process probes.

double peakRssMb();
std::string loadAverage();
/// Host-wide CPU jiffies from /proc/stat: {total, steal}.
std::pair<std::int64_t, std::int64_t> cpuJiffies();

// ---------------------------------------------------------------------------
// Trace capture for the per-layer run.

/// Thread-safe in-memory JSONL sink owned by the benchmark.
class MemorySink final : public distclk::obs::TraceSink {
 public:
  void write(std::string_view line) override;
  std::vector<std::string> lines() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// Counters and histograms of each run's final metrics record (the one
/// just before its run-end record), summed over all runs of a trace.
struct RunMetrics {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, distclk::obs::HistogramData> histograms;

  std::int64_t counter(const std::string& name) const;
  /// Empty histogram when absent.
  distclk::obs::HistogramData histogram(const std::string& name) const;
};
RunMetrics finalRunMetrics(const std::vector<std::string>& lines);

}  // namespace perfbench
