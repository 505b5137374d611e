// Per-layer measurements of the traced run, taken around public calls:
// unit-by-unit forwards (Sequential::forward_range on the session model and
// on a hook-free float clone), the unit's analog MVMs called directly
// (AnalogLayerSim::mvm_real_batch / mvm_batch), the pieces of one ADMM step
// (forward, backward, proximal gradient, SGD, dual update, hard prune),
// copy-mode artifact loads, and the recorder's own cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "deploy.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

/// How far the unit rows' sum may stray from the standalone forward, as a
/// share of it.
constexpr double kUnitSumTolerance = 0.10;

/// unit.<u>.{analog,float,mvm_real,kernel}_ms, unit.other.ms, the
/// standalone forward they must add up to, and the tracing overhead on
/// that loop. Gates that the unit rows sum to the standalone forward within
/// kUnitSumTolerance. `dep` must be a deployment no fleet serves (its
/// simulators' counters move).
void measure_units(MetricList& out, Tracer& tracer, Gates& gates,
                   const tinyadc::artifact::Deployment& dep,
                   const std::vector<Tensor>& pool, std::size_t images,
                   std::uint64_t seed);

/// nn.fwd_ms, nn.bwd_ms, nn.sgd_ms, core.prox_grad_ms,
/// core.update_duals_ms and core.hard_prune_ms at the workload's shapes
/// (batch 32 of `train`), medians over `steps` steps.
void measure_admm_step(MetricList& out, Tracer& tracer,
                       const data::Dataset& train, int steps);

/// Median wall time of `reps` copy-mode artifact loads (ms).
double measure_copy_load(const std::string& path, int reps);

/// Cost of recording one span (open + close), in ns.
double measure_span_cost();

}  // namespace perfbench
