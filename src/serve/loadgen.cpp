#include "serve/loadgen.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>

namespace tinyadc::serve {

namespace {

/// Copies example `index` of `ds` into a standalone (C, H, W) tensor.
Tensor extract_image(const data::Dataset& ds, std::int64_t index) {
  const std::int64_t chw = ds.images.numel() / ds.images.dim(0);
  Tensor image({ds.images.dim(1), ds.images.dim(2), ds.images.dim(3)});
  std::memcpy(image.data(), ds.images.data() + index * chw,
              static_cast<std::size_t>(chw) * sizeof(float));
  return image;
}

}  // namespace

LoadgenReport run_loadgen(FleetServer& fleet, int tenant,
                          const data::Dataset& ds,
                          const LoadgenConfig& config) {
  TINYADC_CHECK(ds.size() > 0, "loadgen needs a non-empty dataset");
  TINYADC_CHECK(config.requests > 0, "loadgen needs requests > 0");
  using Clock = std::chrono::steady_clock;

  struct Outstanding {
    std::int64_t index = 0;  ///< dataset row (for the label check)
    std::future<InferenceResult> future;
  };

  LoadgenReport report;
  std::int64_t correct = 0;
  std::int64_t completed = 0;
  std::uint64_t digest = fnv1a(nullptr, 0);
  std::deque<Outstanding> window;

  auto drain_one = [&] {
    Outstanding o = std::move(window.front());
    window.pop_front();
    const InferenceResult r = o.future.get();
    TINYADC_CHECK(r.logits.size() == static_cast<std::size_t>(ds.num_classes),
                  "tenant serves " << r.logits.size() << " classes, dataset has "
                                   << ds.num_classes);
    digest = fnv1a(r.logits.data(), r.logits.size() * sizeof(float), digest);
    digest = fnv1a(&r.label, sizeof(r.label), digest);
    if (r.label == ds.labels[static_cast<std::size_t>(o.index)]) ++correct;
    ++completed;
  };

  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < config.requests; ++i) {
    if (config.target_qps > 0.0) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(i) / config.target_qps));
      std::this_thread::sleep_until(due);
    }
    const std::int64_t index = i % ds.size();
    Outstanding o;
    o.index = index;
    o.future = fleet.submit(tenant, extract_image(ds, index));
    window.push_back(std::move(o));
    while (window.size() > config.max_outstanding) drain_one();
  }
  fleet.wait_idle();  // releases deterministic partial batches
  while (!window.empty()) drain_one();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  report.achieved_qps =
      wall > 0.0 ? static_cast<double>(completed) / wall : 0.0;
  report.accuracy = completed
                        ? static_cast<double>(correct) /
                              static_cast<double>(completed)
                        : 0.0;
  report.output_digest = digest;
  report.stats = fleet.stats().tenants[static_cast<std::size_t>(tenant)].stats;
  return report;
}

FleetLoadgenReport run_fleet_loadgen(
    FleetServer& fleet, const std::vector<TenantLoadSpec>& specs) {
  TINYADC_CHECK(!specs.empty(), "fleet loadgen needs at least one tenant");
  using Clock = std::chrono::steady_clock;

  struct Outstanding {
    std::int64_t index = 0;  ///< dataset row (for the label check)
    std::future<InferenceResult> future;
  };
  struct Run {
    const TenantLoadSpec* spec = nullptr;
    int tenant = -1;
    std::vector<Outstanding> window;
    double wall_s = 0.0;
    std::thread thread;
  };

  std::vector<Run> runs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TenantLoadSpec& spec = specs[i];
    TINYADC_CHECK(spec.dataset != nullptr && spec.dataset->size() > 0,
                  "tenant '" << spec.name << "' needs a non-empty dataset");
    TINYADC_CHECK(spec.requests > 0, "tenant '" << spec.name
                                                << "' needs requests > 0");
    TINYADC_CHECK(spec.burst_factor > 0.0, "burst_factor must be > 0");
    runs[i].spec = &spec;
    runs[i].tenant = fleet.tenant_id(spec.name);  // throws on unknown names
    runs[i].window.reserve(static_cast<std::size_t>(spec.requests));
  }

  // One open-loop submitter per tenant: arrivals follow the clock (base
  // rate, or rate × burst_factor during the first half of each burst
  // period); futures are harvested after the fleet drains, so a slow
  // tenant never throttles its own or anyone else's arrival process.
  for (Run& run : runs) {
    run.thread = std::thread([&fleet, &run] {
      const TenantLoadSpec& spec = *run.spec;
      const data::Dataset& ds = *spec.dataset;
      const auto t0 = Clock::now();
      double due_s = 0.0;  ///< next arrival offset from t0
      for (std::int64_t i = 0; i < spec.requests; ++i) {
        if (spec.qps > 0.0) {
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s)));
          double rate = spec.qps;
          if (spec.burst_period_s > 0.0 && spec.burst_factor != 1.0) {
            const double phase =
                due_s - std::floor(due_s / spec.burst_period_s) *
                            spec.burst_period_s;
            if (phase < spec.burst_period_s * 0.5)
              rate = spec.qps * spec.burst_factor;
          }
          due_s += 1.0 / rate;
        }
        const std::int64_t index = i % ds.size();
        Outstanding o;
        o.index = index;
        o.future = fleet.submit(run.tenant, extract_image(ds, index));
        run.window.push_back(std::move(o));
      }
      run.wall_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
    });
  }
  for (Run& run : runs) run.thread.join();
  fleet.wait_idle();  // releases deterministic partial batches everywhere

  FleetLoadgenReport report;
  for (Run& run : runs) {
    TenantLoadReport tr;
    tr.name = run.spec->name;
    tr.submitted = static_cast<std::int64_t>(run.window.size());
    std::uint64_t digest = fnv1a(nullptr, 0);
    std::int64_t correct = 0;
    const data::Dataset& ds = *run.spec->dataset;
    for (Outstanding& o : run.window) {
      InferenceResult r;
      try {
        r = o.future.get();
      } catch (const std::exception&) {
        ++tr.rejected;  // admission rejection (or a failed forward)
        continue;
      }
      digest = fnv1a(r.logits.data(), r.logits.size() * sizeof(float),
                     digest);
      digest = fnv1a(&r.label, sizeof(r.label), digest);
      if (r.label == ds.labels[static_cast<std::size_t>(o.index)]) ++correct;
      ++tr.completed;
    }
    tr.achieved_qps = run.wall_s > 0.0
                          ? static_cast<double>(tr.completed) / run.wall_s
                          : 0.0;
    tr.accuracy = tr.completed ? static_cast<double>(correct) /
                                     static_cast<double>(tr.completed)
                               : 0.0;
    tr.output_digest = digest;
    report.tenants.push_back(std::move(tr));
  }
  report.fleet = fleet.stats();
  return report;
}

std::string FleetLoadgenReport::to_json() const {
  std::ostringstream out;
  std::string inner = fleet.to_json();
  inner.pop_back();  // strip the closing brace; extend the same object
  out << inner << ", \"loadgen\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantLoadReport& t = tenants[i];
    out << (i ? ", " : "") << "{\"name\": \"" << json_escape(t.name)
        << "\", \"submitted\": " << t.submitted
        << ", \"completed\": " << t.completed
        << ", \"rejected\": " << t.rejected
        << ", \"achieved_qps\": " << t.achieved_qps
        << ", \"accuracy\": " << t.accuracy << ", \"output_digest\": \""
        << std::hex << t.output_digest << std::dec << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string LoadgenReport::to_json() const {
  std::ostringstream out;
  std::string inner = stats.to_json();
  inner.pop_back();  // strip the closing brace; extend the same object
  out << inner << ", \"achieved_qps\": " << achieved_qps
      << ", \"accuracy\": " << accuracy << ", \"output_digest\": \""
      << std::hex << output_digest << "\"}";
  return out.str();
}

}  // namespace tinyadc::serve
