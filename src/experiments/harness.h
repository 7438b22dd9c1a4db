// Shared experiment plumbing for the bench binaries: a tiny CLI-flag
// parser, wrappers that run one ABCC-CLK / DistCLK experiment and return an
// anytime curve, and reference-quality helpers (Held-Karp bounds, excess
// percentages). Every table/figure bench is a thin composition of these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "core/trace.h"
#include "experiments/instances.h"
#include "lk/chained_lk.h"
#include "tsp/instance.h"
#include "tsp/instance_context.h"
#include "tsp/neighbors.h"

namespace distclk {

/// Minimal `--flag value` / `--flag` parser for the bench mains.
class Args {
 public:
  Args(int argc, char** argv);

  bool has(const std::string& flag) const;
  int getInt(const std::string& flag, int def) const;
  double getDouble(const std::string& flag, double def) const;
  std::string getString(const std::string& flag, const std::string& def) const;

 private:
  std::vector<std::string> argv_;
};

/// Scaled experiment configuration shared by the benches. The defaults
/// reproduce the paper's shape at laptop scale; --full switches to the
/// paper's instance sizes, --runs/--budget adjust repetition and time.
struct BenchConfig {
  int runs = 2;              ///< repetitions per cell (paper: 10)
  double clkBudget = 1.0;    ///< ABCC-CLK seconds (paper: 1e4 / 1e5)
  double distBudget = 0.1;   ///< DistCLK seconds/node (paper keeps 10:1)
  int nodes = 8;
  int maxN = 1600;           ///< instances are scaled down to at most this n
  bool full = false;         ///< run the paper's true sizes/budgets
  std::uint64_t seed = 12345;
  std::string csvDir;        ///< when set, benches mirror tables to CSV

  static BenchConfig fromArgs(const Args& args);
  /// Instance size used for a spec under this config.
  int sizeFor(const PaperInstance& spec) const;
  /// CLK budget for a spec (paper rule: 10x for >= 10^4 cities).
  double clkBudgetFor(const PaperInstance& spec) const;
  double distBudgetFor(const PaperInstance& spec) const;
};

/// One ABCC-CLK run; returns the anytime curve of champion improvements.
struct ClkRunSummary {
  std::int64_t finalLength = 0;
  bool hitTarget = false;
  double targetTime = 0.0;
  AnytimeCurve curve;
};
ClkRunSummary runClkExperiment(const Instance& inst,
                               const CandidateLists& cand, KickStrategy kick,
                               double seconds, std::int64_t target,
                               std::uint64_t seed);
/// Context-based variant: starts from the context's cached construction
/// order. The (Instance, CandidateLists) overload wraps its references in
/// a borrowed context and forwards here — one preprocessing build path.
ClkRunSummary runClkExperiment(const InstanceContext& ctx, KickStrategy kick,
                               double seconds, std::int64_t target,
                               std::uint64_t seed);

/// One DistCLK run under the discrete-event simulator, with EA step costs
/// scaled for laptop budgets (see scaledNodeParams).
RunResult runDistExperiment(const Instance& inst, const CandidateLists& cand,
                            KickStrategy kick, int nodes, double secondsPerNode,
                            std::int64_t target, std::uint64_t seed);

/// Node parameters with the inner-CLK kick budget scaled to the instance
/// (n/16 kicks per EA step instead of linkern's n), so scaled runs perform
/// many EA iterations. Benches that build RunConfig directly start here.
DistParams scaledNodeParams(const Instance& inst);

/// Shared distributed-run CLI: builds a RunConfig from the flags every
/// dist-capable binary accepts, with scaledNodeParams(inst) as the node
/// baseline. Used by examples/distclk_cli and examples/distributed_solve so
/// the flag set (and its parsing quirks) exists exactly once.
///
///   --runtime R           sim | threads (default sim)
///   --nodes K             node count (default 8)
///   --topology T          hypercube|ring|grid|complete|star
///   --seconds S           time budget per node (default 2)
///   --seed S              solver seed (default 1)
///   --kick K              inner-CLK kick strategy (default Random-walk)
///   --latency S           sim link latency in seconds
///   --modeled-work R      charge modeled cost (R units/s) instead of
///                         measured wall time (sim only; deterministic)
///   --metrics-interval S  periodic metric snapshots in the trace (also
///                         paces node-best series and --metrics-out)
///   --metrics-out FILE    live Prometheus-style snapshot, atomically
///                         renamed into FILE every metrics interval
///   --stall S             stall detector: log a stall event after S
///                         seconds without improvement (0 = off)
///   --fail N:T[,N:T...]   failure schedule (node N dies at time T)
///   --join N:T[,N:T...]   churn schedule (node N joins at time T)
///   --speeds S0,S1,...    relative node speeds (one per node)
///
/// Throws std::invalid_argument on malformed values.
RunConfig runConfigFromArgs(const Args& args, const Instance& inst);

/// Preprocessing parameters from the shared CLI flags:
///   --candidates K      candidate-list size (default 10)
///   --quadrant          quadrant-neighbor candidates instead of nearest
///   --prep-threads T    preprocessing build parallelism (kd-tree,
///                       candidate shards); default 1 = the exact serial
///                       path, any T produces byte-identical
///                       preprocessing (DESIGN.md §13)
PreprocessParams preprocessParamsFromArgs(const Args& args);

/// THE per-instance preprocessing build path for drivers that own their
/// instance: moves it into shared ownership and builds the context
/// (candidates + kd-tree + construction tour in one place). Examples and
/// benches go through here (or InstanceContext::build directly) rather
/// than constructing CandidateLists / Quick-Borůvka tours ad hoc.
std::shared_ptr<const InstanceContext> makeContext(
    Instance inst, const PreprocessParams& params = {});

/// Parses a "--fail"/"--join" style schedule: "N:T[,N:T...]".
std::vector<std::pair<int, double>> parseSchedule(const std::string& spec,
                                                  const std::string& flag);

/// Reference length for excess computations: the calibrated presumed
/// optimum when available, else a Held-Karp bound computed (and cached per
/// process) for the given instance. NOTE: on heavily clustered families the
/// HK duality gap is large (several percent — verified against exact DP),
/// so quality tables should prefer calibrateReference().
double referenceLength(const PaperInstance& spec, const Instance& inst);

/// Presumed optimum by calibration: a cooperative DistCLK run on a complete
/// topology with the given per-node budget. Plays the role of the paper's
/// known optima for the synthetic stand-ins; combine with observed run
/// results via std::min for the tightest reference.
std::int64_t calibrateReference(const Instance& inst,
                                const CandidateLists& cand,
                                double secondsPerNode, std::uint64_t seed);

/// (length / reference) - 1, the paper's "distance to optimum".
double excess(std::int64_t length, double reference);

}  // namespace distclk
