#include "serve_phases.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <optional>
#include <thread>

#include "schedule.hpp"
#include "stats.hpp"
#include "steal.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using tinyadc::serve::InferenceResult;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One request as the client saw it.
struct Sent {
  std::uint32_t image = 0;
  Clock::time_point due;
  Clock::time_point submit0;  ///< just before submit()
  Clock::time_point submit1;  ///< submit() returned
  std::future<InferenceResult> future;  ///< invalid when submit() threw
  std::optional<InferenceResult> result;  ///< empty: refused or failed
};

/// Waits for a request's outcome.
void collect(Sent& s) {
  if (!s.future.valid()) return;
  try {
    s.result = s.future.get();
  } catch (const std::exception&) {
  }
}

/// Checks one harvested response against its version's oracle and folds
/// it into the phase; returns false when the response is wrong.
bool verify(ServeCtx& ctx, const InferenceResult& r, std::uint32_t image) {
  if (r.version == 0 || r.version >= ctx.oracles.size() ||
      ctx.oracles[r.version] == nullptr)
    return false;
  const Oracle& o = *ctx.oracles[r.version];
  const auto& want = o.logits[image];
  if (r.logits.size() != want.size() ||
      std::memcmp(r.logits.data(), want.data(),
                  want.size() * sizeof(float)) != 0 ||
      r.label != o.labels[image])
    return false;
  ctx.expected.adc_conversions += o.counts[image].adc_conversions;
  ctx.expected.adc_clip_events += o.counts[image].adc_clip_events;
  ctx.expected.dac_cycles += o.counts[image].dac_cycles;
  return true;
}

/// Checks every collected response of a phase (after the load ended) and
/// fills the phase's samples and counts.
void record(ServeCtx& ctx, Phase& ph, const std::vector<Sent>& sent,
            Clock::time_point t0) {
  Tracer& tr = *ctx.tracer;
  std::int64_t wrong = 0;
  Clock::time_point last = t0;
  const std::int64_t phase_span = tr.open("phase." + ph.name);
  for (const Sent& s : sent) {
    ++ph.sent;
    if (!s.result) {
      ++ph.failed;
      continue;
    }
    const InferenceResult& r = *s.result;
    ++ctx.served;
    if (!verify(ctx, r, s.image)) {
      ++wrong;
      ++ph.failed;
      continue;
    }
    ++ph.ok;
    // latency_us runs from a point inside submit(), after the fleet took
    // its lock; counting from submit()'s return keeps time blocked in
    // submit() in this request's latency (and adds only the enqueue).
    const auto done = s.submit1 + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::micro>(
                                          r.latency_us));
    last = std::max(last, done);
    ph.due_s.push_back(std::chrono::duration<double>(s.due - t0).count());
    ph.latency_ms.push_back(ms_between(s.due, done));
    ph.late_ms.push_back(ms_between(s.due, s.submit0));
    ph.batch.push_back(static_cast<double>(r.batch_size));
    if (tr.enabled()) {
      const std::uint64_t id = ctx.next_request++;
      const std::int64_t due_ns = tr.to_ns(s.due);
      const std::int64_t done_ns = tr.to_ns(done);
      const std::int64_t req =
          tr.record("request", due_ns, done_ns, phase_span, id);
      tr.record("generator.late", due_ns, tr.to_ns(s.submit0), req, id);
      tr.record("fleet.submit", tr.to_ns(s.submit0), tr.to_ns(s.submit1), req,
                id);
      tr.record("fleet.serve", tr.to_ns(s.submit1), done_ns, req, id);
    }
  }
  tr.close(phase_span);
  ph.wall_s = std::chrono::duration<double>(last - t0).count();
  ctx.gates->check("responses." + ph.name, wrong == 0,
                   std::to_string(wrong) + " responses differ from the oracle");
}

void submit(ServeCtx& ctx, int tenant, Sent& s) {
  s.submit0 = Clock::now();
  try {
    s.future = ctx.fleet->submit(tenant, (*ctx.pool)[s.image]);
  } catch (const std::exception&) {
  }
  s.submit1 = Clock::now();
}

}  // namespace

Phase run_open_loop(ServeCtx& ctx, const std::string& name, double rate,
                    double seconds, const std::function<void()>& alongside) {
  Phase ph;
  ph.name = name;
  ph.rate = rate;
  ph.seconds = seconds;
  const auto schedule =
      make_schedule(ctx.seed, name, rate, seconds,
                    static_cast<std::uint32_t>(ctx.pool->size()));
  std::vector<Sent> sent(schedule.size());
  const int tenant = ctx.fleet->tenant_id(ctx.tenant);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    sent[i].image = schedule[i].image;
    sent[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(schedule[i].due_s));
  }
  const StealMeter steal;
  std::thread generator([&ctx, &sent, tenant] {
    // Busy-waits for each due time: waking a sleeping thread on a shared
    // host can take milliseconds, which would swamp the lateness measured.
    for (Sent& s : sent) {
      while (Clock::now() < s.due) {
      }
      submit(ctx, tenant, s);
    }
  });
  if (alongside) {
    try {
      alongside();
    } catch (const std::exception& e) {
      ctx.gates->check("phase." + name, false, e.what());
    }
  }
  generator.join();
  for (Sent& s : sent) collect(s);
  record(ctx, ph, sent, t0);
  ph.steal_pct = steal.pct();
  ph.steal_res_pct = steal.resolution_pct();
  return ph;
}

Phase run_closed_loop(ServeCtx& ctx, const std::string& name, double seconds,
                      std::size_t window) {
  Phase ph;
  ph.name = name;
  ph.seconds = seconds;
  const int tenant = ctx.fleet->tenant_id(ctx.tenant);
  SplitMix64 rng(stream_key(ctx.seed, name));
  std::vector<Sent> sent;
  std::deque<std::size_t> outstanding;  // indices into `sent`, oldest first
  const StealMeter steal;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    if (outstanding.size() >= window) {
      collect(sent[outstanding.front()]);
      outstanding.pop_front();
    }
    Sent& s = sent.emplace_back();
    s.image = static_cast<std::uint32_t>(rng.next() % ctx.pool->size());
    s.due = Clock::now();
    submit(ctx, tenant, s);
    outstanding.push_back(sent.size() - 1);
  }
  for (const std::size_t i : outstanding) collect(sent[i]);
  record(ctx, ph, sent, t0);
  ph.steal_pct = steal.pct();
  ph.steal_res_pct = steal.resolution_pct();
  return ph;
}

void check_counters(ServeCtx& ctx) {
  const auto stats = ctx.fleet->stats();
  const auto& s =
      stats.tenants[static_cast<std::size_t>(ctx.fleet->tenant_id(ctx.tenant))]
          .stats;
  ctx.gates->check(
      "msim.counters",
      s.adc_conversions == ctx.expected.adc_conversions &&
          s.adc_clip_events == ctx.expected.adc_clip_events &&
          s.dac_cycles == ctx.expected.dac_cycles &&
          static_cast<std::int64_t>(s.requests) == ctx.served,
      "fleet adc " + std::to_string(s.adc_conversions) + " vs oracle " +
          std::to_string(ctx.expected.adc_conversions) + ", dac " +
          std::to_string(s.dac_cycles) + " vs " +
          std::to_string(ctx.expected.dac_cycles));
}

}  // namespace perfbench
