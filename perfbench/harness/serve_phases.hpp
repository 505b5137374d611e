// Serving phases driven through the public FleetServer API.
//
// Open-loop phases follow a seeded Poisson schedule from one generator
// thread and time every request from when it was due, so a stall also
// charges the requests queued behind it; the generator's own lateness is
// recorded separately. The closed-loop phase keeps a bounded window of
// requests outstanding from one thread. Every response is checked against
// the oracle of the model version that served it, outside the timed path
// (futures are harvested after the phase).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deploy.hpp"
#include "phase.hpp"
#include "serve/fleet.hpp"
#include "trace.hpp"

namespace perfbench {

/// Everything a phase needs: the fleet, its tenant, the request pool, the
/// oracle of every version ordinal the tenant has served, and the running
/// expectation for the tenant's ADC/DAC counters.
struct ServeCtx {
  tinyadc::serve::FleetServer* fleet = nullptr;
  std::string tenant;
  const std::vector<Tensor>* pool = nullptr;
  std::uint64_t seed = 0;
  Gates* gates = nullptr;
  Tracer* tracer = nullptr;
  /// oracles[ordinal] for every version ordinal (index 0 unused).
  std::vector<const Oracle*> oracles;
  msim::MsimStats expected;  ///< Σ oracle counts of every served request
  std::int64_t served = 0;   ///< requests the fleet has answered
  std::uint64_t next_request = 1;  ///< trace request ids
};

/// Runs an open-loop phase at `rate` for `seconds`. `alongside`, when set,
/// runs on the calling thread while the generator thread sends.
Phase run_open_loop(ServeCtx& ctx, const std::string& name, double rate,
                    double seconds,
                    const std::function<void()>& alongside = {});

/// Closed loop from one thread: keeps `window` requests outstanding for
/// `seconds`, then drains.
Phase run_closed_loop(ServeCtx& ctx, const std::string& name, double seconds,
                      std::size_t window);

/// Checks the tenant's accumulated ADC/DAC counters against the oracle sum
/// of every request it served.
void check_counters(ServeCtx& ctx);

}  // namespace perfbench
