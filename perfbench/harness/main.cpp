// The repository benchmark harness. One invocation runs one workload:
//
//   perfbench --workload <serve_8px|prune_deploy> --seed <n> --seconds <s>
//             --trace <0|1> --out <result.json> --work-dir <dir>
//
// and writes every metric, the per-phase sent/ok/failed counts and the
// correctness gates to the result file (perfbench/run.py prints them). It
// exits 1 when any gate fails, 2 on bad arguments. See perfbench/README.md
// for the workloads and the metric definitions.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "artifact/artifact.hpp"
#include "layers.hpp"
#include "runtime/parallel.hpp"
#include "serve/stats.hpp"
#include "serve_phases.hpp"
#include "stats.hpp"
#include "steal.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace artifact = tinyadc::artifact;
namespace serve = tinyadc::serve;

// Offered open-loop rates (req/s), fixed in absolute terms so that a faster
// or slower build is measured at the same load. Sized against the seed's
// saturation on the 4-core reference host (see README.md): light ≈ 27 %,
// heavy ≈ 70 %, and the ladder runs from below saturation to about 1.5
// times it, so a faster build still finds a rung it fails. The rungs,
// light and heavy included, form the qps_at_slo ladder. Each gets its
// share of --seconds, split over kRounds interleaved segments.
struct Rung {
  const char* name;
  double qps;
  double share;
};
constexpr Rung kRungs[] = {
    {"light", 600.0, 0.18},        {"heavy", 1500.0, 0.12},
    {"ladder.1800", 1800.0, 0.06}, {"ladder.2100", 2100.0, 0.06},
    {"ladder.2400", 2400.0, 0.06}, {"ladder.2700", 2700.0, 0.05},
    {"ladder.3000", 3000.0, 0.04}, {"ladder.3300", 3300.0, 0.04},
};
constexpr int kLight = 0;
constexpr int kHeavy = 1;
constexpr double kSaturationShare = 0.14;
constexpr double kSwapShare = 0.08;
// Every repeated measurement is spread over kRounds rounds across the run.
// The swap time pools the swaps of the kSwapKeep swap segments the
// hypervisor disturbed least, plus ties (see steal.hpp).
constexpr int kRounds = 12;
constexpr std::size_t kSwapKeep = kRounds / 4;
constexpr int kSetupsPerRound = 2;
constexpr int kColdstartsPerRound = 3;
constexpr int kSwapsPerRound = 2;
constexpr int kProjectionsPerRound = 3;
constexpr int kPipelineEveryRounds = 2;
// Each rung's latency figures are medians over kBlocks blocks of
// consecutive rounds. A block pools its least disturbed segments, at least
// kKeepPerBlock of them and enough for kTailSamples samples: ten beyond
// the p99.
constexpr std::size_t kBlocks = 3;
constexpr std::size_t kKeepPerBlock = 2;
constexpr std::size_t kTailSamples = 1000;
// The qps_at_slo limits: p99 latency (from due time) within kSloMs, about
// five times the seed's light-load p99 on a quiet host, and completions
// keeping up with arrivals to within kMinKeepUp (see keep_up). The p99
// limit sits above the 20-40 ms stalls that a host stealing 5-15 % of the
// CPU puts into every rung's tail; at 25 ms those stalls alone failed the
// light rung.
constexpr double kSloMs = 40.0;
constexpr double kMinKeepUp = 0.98;
constexpr std::size_t kClosedWindow = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string work_dir = ".";
};

struct RunState {
  Args args;
  Tracer tracer;
  Gates gates;
  MetricList e2e;
  MetricList layers;
  std::vector<Phase> phases;
  std::vector<Phase> segments;  ///< every per-round segment, for the record
  std::vector<RungResult> rungs;
  double steal_pct = 0.0;  ///< over the whole run
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int workers = 1;

  explicit RunState(Args a) : args(std::move(a)), tracer(args.trace) {}
};

/// The two versions a workload deploys and swaps between.
struct Versions {
  std::string path[2];
  Oracle oracle[2];
  std::vector<double> save_ms;
  std::uint64_t file_bytes = 0;
  std::vector<double> map_ms, compile_ms, calibrate_ms;
};

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool same_logits(const Tensor& logits, const std::vector<float>& want) {
  return static_cast<std::size_t>(logits.numel()) == want.size() &&
         std::equal(want.begin(), want.end(), logits.data());
}

/// Checks one built version, runs its oracle and saves it as version
/// `idx`; version 0 is also checked against the dense datapath.
void deploy_version(RunState& st, Versions& v, int idx, Built built,
                    const data::DatasetPair& data,
                    const std::vector<Tensor>& pool) {
  v.compile_ms.push_back(built.compile_ms);
  v.calibrate_ms.push_back(built.calibrate_ms);
  check_pruned(st.gates, built);
  v.oracle[idx] = make_oracle(*built.analog, pool);
  if (idx == 0)
    check_dense_path(st.gates, built, data.train, v.oracle[0], pool, 4);
  v.path[idx] = st.args.work_dir + "/version" + std::to_string(idx) + ".tadc";
  v.save_ms.push_back(save(v.path[idx], built));
  v.file_bytes = std::filesystem::file_size(v.path[idx]);
}

serve::TenantConfig tenant_config() {
  serve::TenantConfig tc;
  tc.name = "resnet18";
  tc.max_batch = 8;  // deadline flush at the default max_wait_us
  return tc;
}

/// One serving set-up: fleet, mmap-loaded tenant, first response. Returns
/// its wall time in ms.
double serve_setup_once(RunState& st, const Versions& v,
                        const std::vector<Tensor>& pool, std::size_t image) {
  const auto t0 = Clock::now();
  serve::FleetServer fleet(serve::FleetConfig{st.workers});
  fleet.add_tenant(tenant_config(), v.path[0], /*mmap=*/true);
  const serve::InferenceResult r = fleet.submit(0, pool[image]).get();
  const double ms = ms_since(t0);
  ++st.attempted;
  if (!st.gates.check("setup.first_response",
                      r.logits == v.oracle[0].logits[image]))
    ++st.failed;
  return ms;
}

/// Mapped load to first response through a fresh session; fills `phases`.
double coldstart_once(RunState& st, const Versions& v,
                      const std::vector<Tensor>& pool, std::size_t image,
                      artifact::LoadPhases& phases) {
  const auto t0 = Clock::now();
  artifact::Deployment dep =
      artifact::load_artifact_mapped(v.path[0], /*async_stream=*/true);
  msim::AnalogSession session(*dep.analog);
  const Tensor logits = session.forward(as_batch(pool[image]));
  const double ms = ms_since(t0);
  dep.finish_streaming();
  phases = dep.load_phases;
  ++st.attempted;
  if (!st.gates.check("coldstart.first_response",
                      same_logits(logits, v.oracle[0].logits[image])))
    ++st.failed;
  return ms;
}

/// Standalone session forward time per batch size 1..8 (ms, medians).
std::vector<double> forward_ms_by_batch(const Versions& v,
                                        const std::vector<Tensor>& pool) {
  artifact::Deployment dep = artifact::load_artifact(v.path[0]);
  msim::AnalogSession session(*dep.analog);
  std::vector<double> out(9, 0.0);
  const Tensor& first = pool[0];
  for (std::int64_t b = 1; b <= 8; ++b) {
    Tensor batch({b, first.dim(0), first.dim(1), first.dim(2)});
    for (std::int64_t i = 0; i < b; ++i)
      std::copy(pool[static_cast<std::size_t>(i) % pool.size()].data(),
                pool[static_cast<std::size_t>(i) % pool.size()].data() +
                    first.numel(),
                batch.data() + i * first.numel());
    std::vector<double> ms;
    for (int r = 0; r < 24; ++r) {
      const auto t0 = Clock::now();
      session.forward(batch);
      if (r >= 4) ms.push_back(ms_since(t0));
    }
    out[static_cast<std::size_t>(b)] = median(ms);
  }
  return out;
}

void add_phase(RunState& st, Phase ph) {
  st.attempted += ph.sent;
  st.failed += ph.failed;
  st.phases.push_back(std::move(ph));
}

/// One timed repetition and the CPU share stolen while it ran.
struct Rep {
  double ms = 0.0;
  double steal_pct = 0.0;
  double steal_res_pct = 0.0;
};

Rep timed_rep(const std::function<double()>& run) {
  const StealMeter steal;
  const double ms = run();
  return {ms, steal.pct(), steal.resolution_pct()};
}

double median_ms(const std::vector<Rep>& reps) {
  std::vector<double> ms;
  for (const Rep& r : reps) ms.push_back(r.ms);
  return median(ms);
}

/// What a workload repeats in every round besides serving: its set-up and
/// its dense-to-mapped pruning. Each returns its wall time in ms.
struct Repeats {
  std::function<double()> setup;
  std::function<double()> prune;
  int prunes_per_round = 1;
  int prune_every_rounds = 1;
  std::vector<double> setup_ms;  ///< filled by serve_rounds
  std::vector<Rep> prunes;       ///< seeded by the caller, filled too
};

/// Serves the two versions from one fleet for kRounds rounds. Each round
/// runs the workload's set-ups and prunings, mapped cold starts, every
/// open-loop rung (light, heavy and the ladder between and above them), a
/// closed-loop saturation segment, and hot-swaps under light traffic.
void serve_rounds(RunState& st, Versions& v, const std::vector<Tensor>& pool,
                  Repeats& reps) {
  const double S = st.args.seconds;
  const auto plans0 = msim::AnalogLayerSim::plan_compilations();
  const auto calib0 = msim::AnalogNetwork::calibration_runs();

  serve::FleetServer fleet(serve::FleetConfig{st.workers});
  fleet.add_tenant(tenant_config(), v.path[0], /*mmap=*/true);
  ServeCtx ctx;
  ctx.fleet = &fleet;
  ctx.tenant = tenant_config().name;
  ctx.pool = &pool;
  ctx.seed = st.args.seed;
  ctx.gates = &st.gates;
  ctx.tracer = &st.tracer;
  ctx.oracles = {nullptr, &v.oracle[0]};
  add_phase(st, run_closed_loop(ctx, "warmup", 0.3, kClosedWindow));

  std::vector<double> cold_ms, map_ms, validate_ms, stream_ms;
  std::vector<Rep> swap_reps;  // each swap, with its segment's stolen share
  std::vector<std::vector<Phase>> rungs(std::size(kRungs));
  std::vector<Phase> sat, swaps;
  std::uint64_t heavy_requests = 0, heavy_batches = 0;
  int swaps_done = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string tag = "#" + std::to_string(round);
    for (int r = 0; r < kSetupsPerRound; ++r)
      reps.setup_ms.push_back(reps.setup());
    if (round % reps.prune_every_rounds == 0)
      for (int r = 0; r < reps.prunes_per_round; ++r)
        reps.prunes.push_back(timed_rep(reps.prune));
    for (int r = 0; r < kColdstartsPerRound; ++r) {
      artifact::LoadPhases lp;
      cold_ms.push_back(
          coldstart_once(st, v, pool, cold_ms.size() % pool.size(), lp));
      map_ms.push_back(lp.map_ms);
      validate_ms.push_back(lp.validate_ms);
      stream_ms.push_back(lp.stream_ms);
    }
    for (std::size_t i = 0; i < std::size(kRungs); ++i) {
      const Rung& rung = kRungs[i];
      const auto before = fleet.stats().tenants[0].stats;
      rungs[i].push_back(run_open_loop(ctx, rung.name + tag, rung.qps,
                                       rung.share * S / kRounds));
      const auto after = fleet.stats().tenants[0].stats;
      if (i == kHeavy) {
        heavy_requests += after.requests - before.requests;
        heavy_batches += after.batches - before.batches;
      }
    }
    sat.push_back(run_closed_loop(ctx, "saturation" + tag,
                                  kSaturationShare * S / kRounds,
                                  kClosedWindow));
    const double swap_s = kSwapShare * S / kRounds;
    std::vector<double> swap_ms;
    swaps.push_back(run_open_loop(ctx, "swap" + tag, kRungs[kLight].qps,
                                  swap_s, [&] {
      const auto t0 = Clock::now();
      for (int k = 0; k < kSwapsPerRound; ++k) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(swap_s * (k + 0.5) /
                                                   kSwapsPerRound)));
        const int to = (++swaps_done) % 2;  // v1 → v2 → v1 ...
        ScopedSpan span(st.tracer, "fleet.swap_tenant");
        const auto s0 = Clock::now();
        const std::uint64_t ordinal =
            fleet.swap_tenant(ctx.tenant, v.path[to], /*mmap=*/true);
        swap_ms.push_back(ms_since(s0));
        if (ctx.oracles.size() <= ordinal) ctx.oracles.resize(ordinal + 1);
        ctx.oracles[ordinal] = &v.oracle[to];
      }
    }));
    for (const double ms : swap_ms)
      swap_reps.push_back(
          {ms, swaps.back().steal_pct, swaps.back().steal_res_pct});
  }
  const std::int64_t swaps_planned = kRounds * kSwapsPerRound;
  st.attempted += swaps_planned;
  st.failed += swaps_planned - static_cast<std::int64_t>(swap_reps.size());

  fleet.wait_idle();
  check_counters(ctx);
  st.gates.check("loads.no_compile",
                 msim::AnalogLayerSim::plan_compilations() == plans0);
  st.gates.check("loads.no_calibrate",
                 msim::AnalogNetwork::calibration_runs() == calib0);
  const serve::FleetStats fs = fleet.stats();
  const serve::ServeStats& ts = fs.tenants[0].stats;

  std::vector<std::vector<std::vector<Phase>>> kept;
  for (std::size_t i = 0; i < std::size(kRungs); ++i) {
    kept.push_back(
        kept_blocks(rungs[i], kBlocks, kKeepPerBlock, kTailSamples));
    st.rungs.push_back(judge_rung(kRungs[i].name, kRungs[i].qps, rungs[i],
                                  kept.back(), {kSloMs, kMinKeepUp}));
  }
  const auto& light = kept[kLight];
  const auto& heavy = kept[kHeavy];
  st.e2e = {
      {"setup_s", median(reps.setup_ms) / 1e3, "s"},
      {"p50_ms.light", block_percentile(light, 50.0), "ms"},
      {"qps_at_slo", qps_at_slo(st.rungs), "req/s"},
      {"qps_sat", pooled_rate(sat), "req/s"},
      {"prune_s", median_ms(least_disturbed(reps.prunes,
                                            reps.prunes.size() / 2)) / 1e3,
       "s"},
      {"coldstart_ms", median(cold_ms), "ms"},
  };

  for (const auto& group : rungs)
    st.segments.insert(st.segments.end(), group.begin(), group.end());
  for (const auto* group : {&sat, &swaps})
    st.segments.insert(st.segments.end(), group->begin(), group->end());
  for (std::size_t i = 0; i < std::size(kRungs); ++i)
    add_phase(st, merge(kRungs[i].name, rungs[i]));
  add_phase(st, merge("saturation", sat));
  add_phase(st, merge("swap", swaps));
  if (!st.args.trace) return;

  // Queueing: latency minus the standalone forward at the batch size that
  // served the request, over the heavy rung.
  const std::vector<double> fwd = forward_ms_by_batch(v, pool);
  const Phase all_heavy = merge("heavy", rungs[kHeavy]);
  std::vector<double> wait;
  for (std::size_t i = 0; i < all_heavy.latency_ms.size(); ++i)
    wait.push_back(all_heavy.latency_ms[i] -
                   fwd[std::min<std::size_t>(8, all_heavy.batch[i])]);
  std::vector<double> late;  // every open-loop phase
  for (const Phase& p : st.phases)
    if (p.rate > 0)
      late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
  const double served = double(ts.requests);
  // The heavy rate's latency, the tails and the swap time follow the host's
  // stolen CPU share too closely to hold a bound (see README.md); they are
  // reported unbounded.
  const MetricList layers = {
      {"serve.p90_ms.light", block_percentile(light, 90.0), "ms"},
      {"serve.p50_ms.heavy", block_percentile(heavy, 50.0), "ms"},
      {"serve.p90_ms.heavy", block_percentile(heavy, 90.0), "ms"},
      {"serve.p99_ms.heavy", block_percentile(heavy, 99.0), "ms"},
      {"serve.swap_ms",
       median_ms(least_disturbed(swap_reps, kSwapKeep * kSwapsPerRound)), "ms"},
      {"serve.wait_ms.p50", median(wait), "ms"},
      {"serve.batch_mean",
       heavy_batches ? double(heavy_requests) / heavy_batches : 0.0, "count"},
      {"serve.queue_depth_max", double(ts.max_queue_depth), "count"},
      {"serve.rejected", double(ts.rejected), "count"},
      {"loadgen.late_ms.p99", percentile(late, 99.0), "ms"},
      {"msim.adc_conv_per_img", ts.adc_conversions / served, "count"},
      {"msim.dac_cycles_per_img", ts.dac_cycles / served, "count"},
      {"msim.adc_clips", double(ts.adc_clip_events), "count"},
      {"artifact.map_ms", median(map_ms), "ms"},
      {"artifact.validate_ms", median(validate_ms), "ms"},
      {"artifact.stream_ms", median(stream_ms), "ms"},
      {"artifact.load_copy_ms", measure_copy_load(v.path[0], 9), "ms"},
      {"artifact.save_ms", median(v.save_ms), "ms"},
      {"artifact.file_bytes", double(v.file_bytes), "bytes"},
      {"xbar.map_ms", median(v.map_ms), "ms"},
      {"msim.compile_ms", median(v.compile_ms), "ms"},
      {"msim.calibrate_ms", median(v.calibrate_ms), "ms"},
  };
  st.layers.insert(st.layers.end(), layers.begin(), layers.end());
}

/// Per-layer blocks measured outside serving (traced runs only): the unit
/// split of the forward on a private copy of version 0, the ADMM step
/// pieces, and the recorder's own cost.
void measure_layer_blocks(RunState& st, const Versions& v,
                          const std::vector<Tensor>& pool,
                          const data::Dataset& train,
                          std::int64_t pipeline_steps) {
  {
    const artifact::Deployment dep = artifact::load_artifact(v.path[0]);
    measure_units(st.layers, st.tracer, st.gates, dep, pool, 96,
                  st.args.seed);
  }
  constexpr int kSteps = 12;
  measure_admm_step(st.layers, st.tracer, train, kSteps);
  st.layers.push_back(
      {"train.steps", double(pipeline_steps + kSteps + 2), "count"});
  st.layers.push_back({"trace.span_ns", measure_span_cost(), "ns"});
  st.layers.push_back(
      {"trace.spans", double(st.tracer.spans().size()), "count"});
}

/// Seeded CP projection of a fresh fixed-seed model plus map_model (the
/// serve models' pruning). The model, its mapping and its specs go to the
/// `*_out` pointers when given. Returns the projection + mapping wall time
/// in ms.
double project_once(std::uint64_t init_seed, Versions& v,
                    std::unique_ptr<nn::Model>* model_out = nullptr,
                    std::unique_ptr<xbar::MappedNetwork>* net_out = nullptr,
                    std::vector<core::LayerPruneSpec>* specs_out = nullptr) {
  auto model = nn::resnet18(model_config(init_seed));
  auto specs = cp_specs(*model);
  const auto t0 = Clock::now();
  project_cp(*model, specs);
  const auto m0 = Clock::now();
  auto net = std::make_unique<xbar::MappedNetwork>(
      xbar::map_model(*model, mapping_config()));
  v.map_ms.push_back(ms_since(m0));
  const double ms = ms_since(t0);
  if (model_out) *model_out = std::move(model);
  if (net_out) *net_out = std::move(net);
  if (specs_out) *specs_out = std::move(specs);
  return ms;
}

/// serve_8px: seeded CP projections of two fixed-seed models, served.
void run_serve_8px(RunState& st) {
  const data::DatasetPair data = make_data(st.args.seed, 4, 26);
  const std::vector<Tensor> pool = pool_images(data.test);
  Versions v;
  Repeats reps;
  for (int idx = 0; idx < 2; ++idx) {
    std::unique_ptr<nn::Model> model;
    std::unique_ptr<xbar::MappedNetwork> net;
    std::vector<core::LayerPruneSpec> specs;
    reps.prunes.push_back(timed_rep(
        [&] { return project_once(42 + idx, v, &model, &net, &specs); }));
    Built built = compile(model_config(42 + idx), std::move(model),
                          std::move(net), data.train);
    built.specs = std::move(specs);
    deploy_version(st, v, idx, std::move(built), data, pool);
  }
  reps.setup = [&] {
    return serve_setup_once(st, v, pool, reps.setup_ms.size() % pool.size());
  };
  reps.prune = [&] { return project_once(42, v); };
  reps.prunes_per_round = kProjectionsPerRound;
  serve_rounds(st, v, pool, reps);
  if (st.args.trace) measure_layer_blocks(st, v, pool, data.train, 0);
}

/// The pruning schedule: bench_pipeline's rates at 4/3/3 epochs.
core::PipelineConfig prune_schedule(int rep) {
  core::PipelineConfig cfg;
  cfg.xbar = kDims;
  cfg.pretrain.epochs = 4;
  cfg.pretrain.batch_size = 32;
  cfg.pretrain.sgd.lr = 0.05F;
  cfg.pretrain.sgd.total_epochs = cfg.pretrain.epochs;
  cfg.admm.epochs = 3;
  cfg.admm.batch_size = 32;
  cfg.admm.sgd.lr = 0.02F;
  cfg.admm.sgd.total_epochs = cfg.admm.epochs;
  cfg.admm_params.rho = 0.1F;
  cfg.retrain.epochs = 3;
  cfg.retrain.batch_size = 32;
  cfg.retrain.sgd.lr = 0.01F;
  cfg.retrain.sgd.total_epochs = cfg.retrain.epochs;
  // Each repetition trains on its own data order, so the two deployed
  // versions differ; the work per repetition is identical.
  for (nn::TrainConfig* t : {&cfg.pretrain, &cfg.admm, &cfg.retrain})
    t->seed += static_cast<std::uint64_t>(rep);
  return cfg;
}

/// One repetition of the paper's flow: run_pipeline on a fresh model, then
/// map_model with its selections. Like serving, it runs with one runtime
/// thread: at these shapes nproc threads buy ~15 %, while every parallel
/// step then waits for its most delayed thread, which on a shared host made
/// repetitions up to 3.6 times slower. Returns the built network when
/// `built` is given, and the wall time in ms.
double prune_once(RunState& st, const data::DatasetPair& data, int rep,
                  Versions& v, std::int64_t& steps, Built* built = nullptr) {
  const nn::ModelConfig mc = model_config(42);
  auto model = nn::resnet18(mc);
  auto specs = cp_specs(*model);
  const core::PipelineConfig cfg = prune_schedule(rep);
  steps += (data.train.size() + 31) / 32 *
           (cfg.pretrain.epochs + cfg.admm.epochs + cfg.retrain.epochs);
  const auto t0 = Clock::now();
  core::PipelineResult res;
  {
    ScopedSpan span(st.tracer, "core.run_pipeline");
    res = core::run_pipeline(*model, data.train, data.test, specs, cfg);
  }
  const auto m0 = Clock::now();
  std::unique_ptr<xbar::MappedNetwork> net;
  {
    ScopedSpan span(st.tracer, "xbar.map_model");
    net = std::make_unique<xbar::MappedNetwork>(
        xbar::map_model(*model, mapping_config(), res.selections));
  }
  v.map_ms.push_back(ms_since(m0));
  const double ms = ms_since(t0);
  if (built) {
    *built = compile(mc, std::move(model), std::move(net), data.train);
    built->specs = std::move(specs);
    built->selections = std::move(res.selections);
  }
  return ms;
}

/// prune_deploy: the paper's pipeline, mapped, saved, cold-started, served
/// and hot-swapped.
void run_prune_deploy(RunState& st) {
  const data::DatasetPair data = make_data(st.args.seed, 24, 8);
  const std::vector<Tensor> pool = pool_images(data.test);
  Versions v;
  Repeats reps;
  std::int64_t steps = 0;
  for (int idx = 0; idx < 2; ++idx) {
    Built built;
    reps.prunes.push_back(timed_rep(
        [&] { return prune_once(st, data, idx, v, steps, &built); }));
    deploy_version(st, v, idx, std::move(built), data, pool);
  }
  reps.setup = [&] {
    const auto t0 = Clock::now();
    const data::DatasetPair d = make_data(st.args.seed, 24, 8);
    const auto m = nn::resnet18(model_config(42));
    return ms_since(t0);
  };
  reps.prune = [&] {
    return prune_once(st, data, static_cast<int>(reps.prunes.size()), v,
                      steps);
  };
  reps.prune_every_rounds = kPipelineEveryRounds;
  serve_rounds(st, v, pool, reps);
  if (st.args.trace) measure_layer_blocks(st, v, pool, data.train, steps);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_metrics(std::ofstream& out, const MetricList& list) {
  out << "[";
  for (std::size_t i = 0; i < list.size(); ++i)
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << list[i].name
        << "\", \"value\": " << json_number(list[i].value)
        << ", \"unit\": \"" << list[i].unit << "\"}";
  out << "]";
}

bool write_result(const RunState& st, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"workload\": \"" << st.args.workload << "\",\n"
      << "  \"seed\": " << st.args.seed << ",\n"
      << "  \"seconds\": " << json_number(st.args.seconds) << ",\n"
      << "  \"trace\": " << (st.args.trace ? 1 : 0) << ",\n"
      << "  \"correct\": " << (st.gates.all_ok() ? "true" : "false") << ",\n"
      << "  \"attempted\": " << st.attempted << ",\n"
      << "  \"failed\": " << st.failed << ",\n"
      << "  \"gate_checks\": " << st.gates.checked() << ",\n"
      << "  \"gate_failures\": [";
  const auto& fails = st.gates.failures();
  for (std::size_t i = 0; i < fails.size(); ++i)
    out << (i ? ", " : "") << "\"" << fails[i] << "\"";
  out << "],\n  \"build\": {\"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"tinyadc_native\": false},\n"
      << "  \"workers\": " << st.workers << ",\n"
      << "  \"steal_pct\": " << json_number(st.steal_pct) << ",\n"
      << "  \"rungs\": [";
  for (std::size_t i = 0; i < st.rungs.size(); ++i) {
    const RungResult& r = st.rungs[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << r.name
        << "\", \"offered\": " << json_number(r.offered)
        << ", \"kept\": " << r.kept << ", \"samples\": " << r.samples
        << ", \"achieved_qps\": " << json_number(r.rate)
        << ", \"p99_ms\": " << json_number(r.p99_ms)
        << ", \"keep_up\": " << json_number(r.keep_up)
        << ", \"load\": " << json_number(r.load)
        << ", \"pass\": " << (r.pass ? "true" : "false") << "}";
  }
  out << "],\n  \"phases\": [";
  for (std::size_t i = 0; i < st.phases.size(); ++i) {
    const Phase& p = st.phases[i];
    const std::vector<double>& lat = p.latency_ms;
    const std::vector<double>& late = p.late_ms;
    const double tail = highest_supported_percentile(lat.size());
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << p.name
        << "\", \"rate\": " << json_number(p.rate)
        << ", \"seconds\": " << json_number(p.seconds)
        << ", \"sent\": " << p.sent << ", \"ok\": " << p.ok
        << ", \"failed\": " << p.failed
        << ", \"achieved_qps\": " << json_number(p.achieved_qps())
        << ", \"p50_ms\": " << json_number(percentile(lat, 50.0))
        << ", \"tail_pct\": " << json_number(tail)
        << ", \"tail_ms\": " << json_number(percentile(lat, tail))
        << ", \"late_p99_ms\": " << json_number(percentile(late, 99.0))
        << "}";
  }
  out << "],\n  \"segments\": [";
  for (std::size_t i = 0; i < st.segments.size(); ++i) {
    const Phase& p = st.segments[i];
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << p.name
        << "\", \"sent\": " << p.sent << ", \"ok\": " << p.ok
        << ", \"failed\": " << p.failed
        << ", \"achieved_qps\": " << json_number(p.achieved_qps())
        << ", \"p50_ms\": " << json_number(percentile(p.latency_ms, 50.0))
        << ", \"p90_ms\": " << json_number(percentile(p.latency_ms, 90.0))
        << ", \"p95_ms\": " << json_number(percentile(p.latency_ms, 95.0))
        << ", \"p99_ms\": " << json_number(percentile(p.latency_ms, 99.0))
        << ", \"late_p99_ms\": " << json_number(percentile(p.late_ms, 99.0))
        << ", \"keep_up\": " << json_number(keep_up({p}))
        << ", \"steal_pct\": " << json_number(p.steal_pct) << "}";
  }
  out << "],\n  \"end_to_end\": ";
  write_metrics(out, st.e2e);
  out << ",\n  \"per_layer\": ";
  write_metrics(out, st.layers);
  out << "\n}\n";
  return static_cast<bool>(out);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], val = argv[i + 1];
    if (k == "--workload") a.workload = val;
    else if (k == "--seed") a.seed = std::stoull(val);
    else if (k == "--seconds") a.seconds = std::stod(val);
    else if (k == "--trace") a.trace = val == "1";
    else if (k == "--out") a.out = val;
    else if (k == "--work-dir") a.work_dir = val;
    else return false;
  }
  return (argc % 2) == 1 && !a.out.empty() && a.seconds > 0 &&
         (a.workload == "serve_8px" || a.workload == "prune_deploy");
}

int run(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_8px|prune_deploy "
                 "--seed N --seconds S --trace 0|1 --out FILE "
                 "[--work-dir DIR]\n");
    return 2;
  }
  RunState st(args);
  const StealMeter run_steal;
  // Serving parallelism is between requests (nproc - 1 fleet workers); the
  // runtime's intra-op pool stays at one thread for everything timed.
  tinyadc::runtime::set_thread_count(1);
  st.workers = std::max(1, hardware_threads() - 1);
  if (args.workload == "serve_8px")
    run_serve_8px(st);
  else
    run_prune_deploy(st);
  st.e2e.push_back({"rss_mb", serve::peak_rss_kb() / 1024.0, "MB"});
  st.steal_pct = run_steal.pct();
  if (args.trace) {
    const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    if (!st.tracer.write_json(trace_path))
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  if (!write_result(st, args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return st.gates.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
