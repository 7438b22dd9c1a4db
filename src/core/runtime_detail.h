// Internal entry points of the runtime layer, for tests and benches that
// pin the simulator's worker count. runtime.h does not include this
// header, and no RunConfig field, CLI flag or job field exposes the count:
// it changes wall time only, never a result.
#pragma once

#include "core/runtime.h"

namespace distclk::detail {

/// The simulator with an explicit worker count (values < 1 count as 1; the
/// scheduler thread is one of the workers). runDistributed uses min(nodes,
/// hardware threads) under CostModel::kModeled and 1 under kMeasured. For
/// a kModeled run every count yields the same RunResult, events, trace
/// records and metric counters.
RunResult runSimWorkers(const InstanceContext& ctx, const RunConfig& cfg,
                        int workers);

}  // namespace distclk::detail
