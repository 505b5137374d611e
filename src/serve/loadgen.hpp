// Closed-loop load generator over one FleetServer tenant.
//
// Submits single-image requests drawn round-robin from a dataset, paced
// to a target QPS (0 = as fast as the fleet accepts them), with a bound
// on outstanding requests (closed loop: the generator blocks on the
// oldest future once the window is full, so it never outruns the fleet
// unboundedly). Collects per-request results, verifies labels against
// the dataset, and digests every result (logits bytes + predicted label,
// in arrival order) so deterministic-mode runs can be compared
// byte-for-byte across worker counts.
// run_fleet_loadgen() is the multi-tenant variant: one *open-loop*
// submitter thread per tenant, paced to a per-tenant QPS mix with optional
// square-wave burst patterns (rate × burst_factor for the first half of
// every burst period). Open loop means arrivals are scheduled by the
// clock, not by completions — overload shows up as queue growth and (with
// a per-tenant max_queue) admission rejections, which the per-tenant
// report counts separately from completions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "serve/fleet.hpp"

namespace tinyadc::serve {

struct LoadgenConfig {
  std::int64_t requests = 256;   ///< total requests to issue
  double target_qps = 0.0;       ///< pacing rate; 0 = max speed
  std::size_t max_outstanding = 64;  ///< closed-loop window
};

struct LoadgenReport {
  ServeStats stats;             ///< tenant snapshot after the run drained
  double achieved_qps = 0.0;    ///< completed requests / loadgen wall time
  double accuracy = 0.0;        ///< predicted label vs dataset label
  std::uint64_t output_digest = 0;  ///< FNV over (logits, label) by seq

  /// Stats JSON extended with the loadgen-level fields.
  std::string to_json() const;
};

/// Runs the load against tenant index `tenant` of `fleet` and drains the
/// fleet (wait_idle) before snapshotting that tenant's stats. Throws
/// CheckError when the tenant's class count differs from the dataset's.
LoadgenReport run_loadgen(FleetServer& fleet, int tenant,
                          const data::Dataset& ds,
                          const LoadgenConfig& config);

/// One tenant's traffic mix for the multi-tenant load generator.
struct TenantLoadSpec {
  std::string name;                   ///< registered FleetServer tenant
  const data::Dataset* dataset = nullptr;  ///< images + oracle labels
  std::int64_t requests = 256;        ///< total requests to issue
  double qps = 0.0;                   ///< base pacing rate; 0 = max speed
  /// Square-wave burst pattern: the arrival rate is qps × burst_factor
  /// during the first half of every burst_period_s window and qps during
  /// the second half. burst_period_s == 0 (or factor 1) disables bursts.
  double burst_factor = 1.0;
  double burst_period_s = 0.0;
};

/// One tenant's outcome of a fleet loadgen run.
struct TenantLoadReport {
  std::string name;
  std::int64_t submitted = 0;   ///< requests issued (incl. rejected)
  std::int64_t completed = 0;   ///< requests served
  std::int64_t rejected = 0;    ///< admission-rejected submits
  double achieved_qps = 0.0;    ///< completed / tenant wall time
  double accuracy = 0.0;        ///< predicted label vs dataset label
  /// FNV over (logits, label) of every completed request in submission
  /// order — rejected submits are skipped, so under deterministic
  /// batching with no rejections the digest is byte-stable across worker
  /// counts and co-tenant load.
  std::uint64_t output_digest = 0;
};

struct FleetLoadgenReport {
  FleetStats fleet;  ///< registry snapshot after the run drained
  std::vector<TenantLoadReport> tenants;

  /// FleetStats JSON extended with a per-tenant loadgen array.
  std::string to_json() const;
};

/// Runs every tenant's open-loop traffic concurrently, drains the fleet
/// and snapshots it. Every spec's tenant must already be registered.
FleetLoadgenReport run_fleet_loadgen(FleetServer& fleet,
                                     const std::vector<TenantLoadSpec>& specs);

}  // namespace tinyadc::serve
