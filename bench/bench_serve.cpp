// Serving throughput bench: sequential per-image evaluation vs a
// dynamically batched one-tenant FleetServer at 1/2/4 shared workers (the
// `serve_engine` rows), then cold starts and a two-tenant fleet with a
// hot-swap.
//
// Inner operator parallelism is pinned to 1 thread, so the worker rows
// measure request-level parallelism plus batching: each worker session
// runs its forwards inline and N workers scale with the machine's cores.
//
// All fleet runs use deterministic mode, so every row's output digest
// (logits bytes + predicted label, in arrival order) must match the
// sequential baseline byte for byte — the bench exits nonzero on any
// mismatch, making it a determinism check as well as a timing table.
// Rows are emitted in the kernel-sweep JSON schema (threads = workers)
// for tools/bench_compare.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "artifact/artifact.hpp"
#include "bench_util.hpp"
#include "msim/analog_network.hpp"
#include "runtime/parallel.hpp"
#include "serve/loadgen.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Copies test example `i` into a standalone (C, H, W) tensor.
Tensor extract_image(const data::Dataset& ds, std::int64_t i) {
  const Tensor& all = ds.images;
  const std::int64_t chw = all.numel() / all.dim(0);
  Tensor img({all.dim(1), all.dim(2), all.dim(3)});
  std::memcpy(img.data(), all.data() + i * chw,
              static_cast<std::size_t>(chw) * sizeof(float));
  return img;
}

int run(int argc, char** argv) {
  const std::int64_t requests = quick_mode() ? 24 : 96;

  data::SyntheticSpec spec = data::tier_by_name("cifar10");
  spec.image_size = 8;
  spec.num_classes = 4;
  spec.train_per_class = 8;
  spec.test_per_class = 8;
  const auto data = data::make_synthetic(spec);

  nn::ModelConfig mc;
  mc.num_classes = spec.num_classes;
  mc.image_size = 8;
  mc.width_mult = 0.125F;
  const auto model = nn::resnet18(mc);
  project_cp_inplace(*model, 8, {32, 32});

  xbar::MappingConfig map_cfg;
  map_cfg.dims = {32, 32};
  const auto net = xbar::map_model(*model, map_cfg);
  msim::AnalogNetwork analog(*model, net, msim::MsimConfig{});
  analog.calibrate(data.train, 8);

  // Request-level parallelism only: forwards run inline per worker.
  runtime::set_thread_count(1);

  // Warm-up pass: fault in the session workspaces and the allocator's
  // arena before any timed row (the first forwards are otherwise ~50%
  // slower and would bias whichever row runs first).
  {
    msim::AnalogSession warm(analog);
    for (std::int64_t i = 0; i < 4; ++i) {
      const Tensor img = extract_image(data.test, i % data.test.size());
      Tensor batch({1, img.dim(0), img.dim(1), img.dim(2)});
      std::memcpy(batch.data(), img.data(),
                  static_cast<std::size_t>(img.numel()) * sizeof(float));
      warm.forward(batch);
    }
  }

  std::printf("serving bench: %lld requests, resnet18 w=0.125, 32x32 xbars\n",
              static_cast<long long>(requests));
  hr(64);
  std::printf("%-24s %10s %10s %9s\n", "path", "ms", "qps", "speedup");
  hr(64);

  std::vector<KernelTiming> rows;

  // Sequential baseline: one image per forward pass, no queue, no batching.
  std::uint64_t seq_digest = serve::fnv1a(nullptr, 0);
  double seq_ms = 0.0;
  {
    msim::AnalogSession session(analog);
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < requests; ++i) {
      const Tensor img = extract_image(data.test, i % data.test.size());
      Tensor batch({1, img.dim(0), img.dim(1), img.dim(2)});
      std::memcpy(batch.data(), img.data(),
                  static_cast<std::size_t>(img.numel()) * sizeof(float));
      const Tensor logits = session.forward(batch);
      const std::int64_t label = argmax_range(logits, 0, logits.numel());
      seq_digest = serve::fnv1a(logits.data(),
                                static_cast<std::size_t>(logits.numel()) *
                                    sizeof(float),
                                seq_digest);
      seq_digest = serve::fnv1a(&label, sizeof(label), seq_digest);
    }
    seq_ms = ms_since(t0);
  }
  const double seq_qps = 1000.0 * static_cast<double>(requests) / seq_ms;
  std::printf("%-24s %10.1f %10.1f %8.2fx\n", "sequential (batch 1)", seq_ms,
              seq_qps, 1.0);
  rows.push_back({"serve_seq", 1, seq_ms, true});

  bool all_identical = true;
  // The rows keep the name "serve_engine" so the committed baseline still
  // gates them; each times the load through a one-tenant fleet.
  for (const int workers : {1, 2, 4}) {
    serve::FleetServer fleet(serve::FleetConfig{workers});
    serve::TenantConfig tc;
    tc.name = "serve";
    tc.max_batch = 8;
    tc.deterministic = true;
    const int tenant = fleet.add_tenant(tc, analog);
    serve::LoadgenConfig lc;
    lc.requests = requests;
    lc.max_outstanding = 32;
    const auto t0 = Clock::now();
    const serve::LoadgenReport report =
        serve::run_loadgen(fleet, tenant, data.test, lc);
    const double ms = ms_since(t0);
    fleet.shutdown();
    const bool identical = report.output_digest == seq_digest;
    all_identical = all_identical && identical;
    char name[48];
    std::snprintf(name, sizeof(name), "fleet (%d worker%s)", workers,
                  workers == 1 ? "" : "s");
    std::printf("%-24s %10.1f %10.1f %8.2fx%s\n", name, ms,
                1000.0 * static_cast<double>(requests) / ms, seq_ms / ms,
                identical ? "" : "  DIGEST MISMATCH");
    rows.push_back({"serve_engine", workers, ms, identical});
  }
  // Cold-start phase: time-to-first-response for a fresh serving process.
  // "inprocess" pays the full pipeline (build + prune-project + map +
  // plan-compile + calibrate); "artifact" deserializes the deployment file
  // and must produce a bit-identical first response without touching the
  // plan compiler or the calibration pass.
  const std::string artifact_path = "bench_serve_coldstart.tadc";
  {
    artifact::ArtifactMeta meta;
    meta.arch = "resnet18";
    meta.model_name = model->name();
    meta.model_config = mc;
    artifact::ArtifactInputs inputs{meta, *model, net, analog, {}, {}};
    artifact::save_artifact(artifact_path, inputs);
  }
  const Tensor first_img = extract_image(data.test, 0);
  const auto first_response_digest = [&](msim::AnalogNetwork& an) {
    serve::FleetServer fleet(serve::FleetConfig{1});
    serve::TenantConfig tc;
    tc.name = "coldstart";
    const int tenant = fleet.add_tenant(tc, an);
    const serve::InferenceResult r = fleet.submit(tenant, first_img).get();
    fleet.shutdown();
    return serve::fnv1a(r.logits.data(), r.logits.size() * sizeof(float));
  };

  double scratch_ms = 0.0, artifact_ms = 0.0, mapped_ms = 0.0;
  std::uint64_t scratch_digest = 0, artifact_digest = 0, mapped_digest = 0;
  std::int64_t scratch_rss = 0, artifact_rss = 0, mapped_rss = 0;
  artifact::LoadPhases mapped_phases;
  {
    const auto t0 = Clock::now();
    const auto cold_model = nn::resnet18(mc);
    project_cp_inplace(*cold_model, 8, {32, 32});
    const auto cold_net = xbar::map_model(*cold_model, map_cfg);
    msim::AnalogNetwork cold(*cold_model, cold_net, msim::MsimConfig{});
    cold.calibrate(data.train, 8);
    scratch_digest = first_response_digest(cold);
    scratch_ms = ms_since(t0);
    scratch_rss = serve::peak_rss_kb();
  }
  {
    const auto plans_before = msim::AnalogLayerSim::plan_compilations();
    const auto calib_before = msim::AnalogNetwork::calibration_runs();
    const auto t0 = Clock::now();
    artifact::Deployment dep = artifact::load_artifact(artifact_path);
    artifact_digest = first_response_digest(*dep.analog);
    artifact_ms = ms_since(t0);
    artifact_rss = serve::peak_rss_kb();
    if (msim::AnalogLayerSim::plan_compilations() != plans_before ||
        msim::AnalogNetwork::calibration_runs() != calib_before) {
      std::fprintf(stderr,
                   "FAIL: artifact cold-start invoked the plan compiler or "
                   "the calibration pass\n");
      return 1;
    }
  }
  {
    // Zero-copy path: mmap the artifact, serve the first response off the
    // mapped spans while the async streamer pages the cold sections in.
    // Same hard gates: bit-identical first response, no compiler, no
    // calibration.
    const auto plans_before = msim::AnalogLayerSim::plan_compilations();
    const auto calib_before = msim::AnalogNetwork::calibration_runs();
    const auto t0 = Clock::now();
    artifact::Deployment dep =
        artifact::load_artifact_mapped(artifact_path, /*async_stream=*/true);
    mapped_digest = first_response_digest(*dep.analog);
    mapped_ms = ms_since(t0);
    mapped_rss = serve::peak_rss_kb();
    dep.finish_streaming();
    mapped_phases = dep.load_phases;
    if (msim::AnalogLayerSim::plan_compilations() != plans_before ||
        msim::AnalogNetwork::calibration_runs() != calib_before) {
      std::fprintf(stderr,
                   "FAIL: mapped cold-start invoked the plan compiler or "
                   "the calibration pass\n");
      return 1;
    }
  }
  const bool cold_identical = scratch_digest == artifact_digest;
  const bool mapped_identical = scratch_digest == mapped_digest;
  all_identical = all_identical && cold_identical && mapped_identical;
  // Peak RSS is table-only (process-wide high-water mark at each phase);
  // the JSON rows keep the fixed kernel-sweep schema for bench_compare.
  std::printf("%-24s %10.1f %10s %9s  peak-rss %lld kb\n",
              "coldstart (scratch)", scratch_ms, "-", "-",
              static_cast<long long>(scratch_rss));
  std::printf("%-24s %10.1f %10s %8.2fx  peak-rss %lld kb%s\n",
              "coldstart (artifact)", artifact_ms, "-",
              scratch_ms / artifact_ms, static_cast<long long>(artifact_rss),
              cold_identical ? "" : "  DIGEST MISMATCH");
  std::printf("%-24s %10.1f %10s %8.2fx  peak-rss %lld kb%s\n",
              "coldstart (mapped)", mapped_ms, "-", scratch_ms / mapped_ms,
              static_cast<long long>(mapped_rss),
              mapped_identical ? "" : "  DIGEST MISMATCH");
  std::printf("%-24s map %.2f  validate %.2f  stream %.2f\n",
              "  mapped load (ms)", mapped_phases.map_ms,
              mapped_phases.validate_ms, mapped_phases.stream_ms);
  rows.push_back({"serve_coldstart_inprocess", 1, scratch_ms, true});
  rows.push_back(
      {"serve_coldstart_artifact", 1, artifact_ms, cold_identical});
  rows.push_back({"serve_coldstart_mapped", 1, mapped_ms, mapped_identical});

  // Fleet phase: two deterministic tenants (weights 2:1) served from the
  // cold-start artifact by one shared 2-worker pool, timed through the
  // open-loop fleet loadgen. Each tenant replays the sequential baseline's
  // request stream, so both per-tenant digests are hard-gated against
  // seq_digest; then tenant "a" hot-swaps to a fresh (mmap) load of the
  // same artifact — the swap must not invoke the plan compiler or the
  // calibration pass, and the post-swap replay must still reproduce the
  // sequential bytes on version 2.
  {
    serve::FleetConfig fc;
    fc.workers = 2;
    serve::FleetServer fleet(fc);
    serve::TenantConfig ta;
    ta.name = "a";
    ta.max_batch = 8;
    ta.deterministic = true;
    ta.weight = 2.0;
    fleet.add_tenant(ta, artifact_path);
    serve::TenantConfig tb = ta;
    tb.name = "b";
    tb.weight = 1.0;
    fleet.add_tenant(tb, artifact_path);

    std::vector<serve::TenantLoadSpec> specs(2);
    specs[0].name = "a";
    specs[0].dataset = &data.test;
    specs[0].requests = requests;
    specs[1] = specs[0];
    specs[1].name = "b";

    auto t0 = Clock::now();
    serve::FleetLoadgenReport report = serve::run_fleet_loadgen(fleet, specs);
    const double fleet_ms = ms_since(t0);
    bool fleet_identical = true;
    for (const auto& t : report.tenants)
      fleet_identical = fleet_identical && t.output_digest == seq_digest;
    std::printf("%-24s %10.1f %10.1f %8.2fx%s\n", "fleet (2 tenants)",
                fleet_ms,
                1000.0 * static_cast<double>(2 * requests) / fleet_ms,
                2.0 * seq_ms / fleet_ms,
                fleet_identical ? "" : "  DIGEST MISMATCH");
    rows.push_back({"serve_fleet", 2, fleet_ms, fleet_identical});

    const auto plans_before = msim::AnalogLayerSim::plan_compilations();
    const auto calib_before = msim::AnalogNetwork::calibration_runs();
    fleet.swap_tenant("a", artifact_path, /*mmap=*/true);
    if (msim::AnalogLayerSim::plan_compilations() != plans_before ||
        msim::AnalogNetwork::calibration_runs() != calib_before) {
      std::fprintf(stderr,
                   "FAIL: fleet hot-swap invoked the plan compiler or the "
                   "calibration pass\n");
      return 1;
    }
    t0 = Clock::now();
    report = serve::run_fleet_loadgen(fleet, specs);
    const double post_ms = ms_since(t0);
    bool post_identical = true;
    for (const auto& t : report.tenants)
      post_identical = post_identical && t.output_digest == seq_digest;
    std::printf("%-24s %10.1f %10.1f %8.2fx%s\n", "fleet (post-swap)",
                post_ms, 1000.0 * static_cast<double>(2 * requests) / post_ms,
                2.0 * seq_ms / post_ms,
                post_identical ? "" : "  DIGEST MISMATCH");
    rows.push_back({"serve_fleet_postswap", 2, post_ms, post_identical});
    all_identical = all_identical && fleet_identical && post_identical;
  }
  std::remove(artifact_path.c_str());

  hr(64);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: deterministic serving digest differs from the "
                 "sequential baseline\n");
    return 1;
  }
  std::printf("all digests match the sequential baseline\n");

  const std::string json = bench_json_path(argc, argv);
  if (!json.empty() && !write_bench_json(json, "serve", rows)) return 1;
  return 0;
}

}  // namespace
}  // namespace tinyadc::bench

int main(int argc, char** argv) { return tinyadc::bench::run(argc, argv); }
