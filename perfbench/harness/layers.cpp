#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "core/admm.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Runs root units [u, u+1) one at a time, timing each (the spans, when
/// traced, sit outside the timed calls); returns the output. `columns`, when
/// given, receives each unit's output pixel count — the per-image MVM count
/// of the unit's layers.
Tensor forward_by_unit(nn::Model& model,
                       const std::vector<nn::StageUnit>& units, Tensor x,
                       std::vector<std::vector<double>>& ms, Tracer* tracer,
                       const std::string& suffix,
                       std::vector<std::int64_t>* columns = nullptr) {
  const std::int64_t parent =
      tracer ? tracer->open("forward." + suffix) : -1;
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::int64_t span =
        tracer ? tracer->open("unit." + units[u].name + "." + suffix, parent)
               : -1;
    const auto t0 = Clock::now();
    x = model.root().forward_range(x, u, u + 1, /*training=*/false);
    ms[u].push_back(ms_since(t0));
    if (tracer) tracer->close(span);
    if (columns) (*columns)[u] = x.ndim() == 4 ? x.dim(2) * x.dim(3) : 1;
  }
  if (tracer) tracer->close(parent);
  return x;
}

/// Seeded activations shaped like post-ReLU inputs: half zeros, the rest
/// uniform over the quantizer's range (both signs for signed layers).
std::vector<float> real_inputs(SplitMix64& rng, std::size_t n, float max_value,
                               bool signed_input) {
  std::vector<float> xs(n);
  for (float& v : xs) {
    const double u = rng.uniform();
    v = u < 0.5 ? 0.0F : static_cast<float>((u - 0.5) * 2.0 * max_value);
    if (signed_input && (rng.next() & 1U)) v = -v;
  }
  return xs;
}

std::vector<std::int32_t> code_inputs(SplitMix64& rng, std::size_t n,
                                      int bits) {
  std::vector<std::int32_t> xs(n);
  const std::uint64_t levels = std::uint64_t{1} << bits;
  for (auto& v : xs)
    v = rng.uniform() < 0.5 ? 0
                            : static_cast<std::int32_t>(rng.next() % levels);
  return xs;
}

}  // namespace

void measure_units(MetricList& out, Tracer& tracer, Gates& gates,
                   const tinyadc::artifact::Deployment& dep,
                   const std::vector<Tensor>& pool, std::size_t images,
                   std::uint64_t seed) {
  msim::AnalogSession session(*dep.analog);
  nn::Model flt = dep.model->clone();  // clones carry no MVM hooks
  const auto units = session.model().stage_units();
  const std::size_t n_units = units.size();
  std::vector<std::vector<double>> analog(n_units), floating(n_units),
      untraced(n_units);
  std::vector<double> fwd_ms, loop_traced_ms, loop_untraced_ms;
  std::vector<std::int64_t> columns(n_units, 1);

  for (std::size_t i = 0; i < 8; ++i)  // warm workspaces and the allocator
    session.forward(as_batch(pool[i % pool.size()]));
  for (std::size_t i = 0; i < images; ++i) {
    const Tensor x = as_batch(pool[i % pool.size()]);
    auto t0 = Clock::now();
    session.forward(x);
    fwd_ms.push_back(ms_since(t0));

    t0 = Clock::now();
    forward_by_unit(session.model(), units, x, untraced, nullptr, "analog");
    loop_untraced_ms.push_back(ms_since(t0));

    t0 = Clock::now();
    forward_by_unit(session.model(), units, x, analog, &tracer, "analog",
                    &columns);
    loop_traced_ms.push_back(ms_since(t0));

    forward_by_unit(flt, units, x, floating, &tracer, "float");
  }

  // Direct MVM calls at each layer's real per-image column count.
  SplitMix64 rng(stream_key(seed, "unit.mvm"));
  std::vector<double> mvm_real(n_units, 0.0), kernel(n_units, 0.0);
  const int reps = static_cast<int>(std::max<std::size_t>(8, images / 4));
  for (std::size_t u = 0; u < n_units; ++u) {
    for (const std::size_t p : units[u].prunable) {
      auto& sim = *dep.analog->sims()[p];
      const xbar::MappedLayer& layer = dep.mapping->layers[p];
      const xbar::QuantParams q = dep.analog->activation_quant()[p];
      const bool sgn = dep.analog->signed_input()[p];
      const std::int64_t batch = columns[u];
      const std::size_t n = static_cast<std::size_t>(layer.rows * batch);
      const float max_value =
          q.scale * static_cast<float>((1 << (q.bits - (sgn ? 1 : 0))) - 1);
      const auto xs = real_inputs(rng, n, max_value, sgn);
      const auto codes = code_inputs(rng, n, layer.config.input_bits);
      std::vector<double> real_ms, kernel_ms;
      for (int r = 0; r < reps; ++r) {
        {
          ScopedSpan span(tracer, "msim.mvm_real_batch." + layer.name);
          const auto t0 = Clock::now();
          sim.mvm_real_batch(xs, batch, q, sgn);
          real_ms.push_back(ms_since(t0));
        }
        {
          ScopedSpan span(tracer, "msim.mvm_batch." + layer.name);
          const auto t0 = Clock::now();
          sim.mvm_batch(codes, batch);
          kernel_ms.push_back(ms_since(t0));
        }
      }
      mvm_real[u] += median(real_ms);
      kernel[u] += median(kernel_ms);
    }
  }

  double other_ms = 0.0, sum_ms = 0.0;
  for (std::size_t u = 0; u < n_units; ++u) {
    const double a = median(analog[u]);
    sum_ms += a;
    if (units[u].prunable.empty()) {
      other_ms += a;
      continue;
    }
    const std::string base = "unit." + units[u].name;
    out.push_back({base + ".analog_ms", a, "ms"});
    out.push_back({base + ".float_ms", median(floating[u]), "ms"});
    out.push_back({base + ".mvm_real_ms", mvm_real[u], "ms"});
    out.push_back({base + ".kernel_ms", kernel[u], "ms"});
  }
  out.push_back({"unit.other.ms", other_ms, "ms"});
  const double fwd = median(fwd_ms);
  out.push_back({"fwd.analog_ms", fwd, "ms"});
  out.push_back({"unit.sum_ms", sum_ms, "ms"});
  const double ratio = fwd > 0 ? sum_ms / fwd : 0.0;
  out.push_back({"unit.sum_ratio", ratio, "ratio"});
  gates.check("unit.sum_ratio", std::abs(ratio - 1.0) <= kUnitSumTolerance,
              "unit rows sum to " + std::to_string(ratio) +
                  " of the standalone forward");
  const double plain = median(loop_untraced_ms);
  out.push_back(
      {"trace.overhead_pct",
       plain > 0 ? 100.0 * (median(loop_traced_ms) - plain) / plain : 0.0,
       "%"});
}

void measure_admm_step(MetricList& out, Tracer& tracer,
                       const data::Dataset& train, int steps) {
  const nn::ModelConfig mc = model_config(42);
  auto model = nn::resnet18(mc);
  auto specs = cp_specs(*model);
  core::AdmmConfig admm;
  admm.rho = 0.1F;
  core::AdmmPruner pruner(*model, specs, kDims, admm);
  pruner.initialize();
  nn::SgdConfig sgd;
  sgd.lr = 0.02F;
  nn::Sgd opt(sgd);
  tinyadc::Rng rng(123);
  data::BatchIterator it(train, 32, &rng);
  data::Batch batch;
  std::vector<double> fwd, bwd, prox, step, duals, hard;
  std::vector<std::int64_t> step_spans;
  const auto timed = [&tracer](const char* name, std::int64_t parent,
                               std::vector<double>* into, auto&& fn) {
    ScopedSpan span(tracer, name, parent);
    const auto t0 = Clock::now();
    fn();
    if (into) into->push_back(ms_since(t0));
  };
  for (int s = 0; s < steps + 2; ++s) {  // the first two steps warm up
    if (!it.next(batch)) {
      it.reset();
      it.next(batch);
    }
    const bool keep = s >= 2;
    ScopedSpan span(tracer, "train.step");
    if (keep) step_spans.push_back(span.id());
    const auto params = model->params();
    nn::Sgd::zero_grad(params);
    Tensor logits;
    timed("nn.fwd", span.id(), keep ? &fwd : nullptr,
          [&] { logits = model->forward(batch.images, /*training=*/true); });
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
    timed("nn.bwd", span.id(), keep ? &bwd : nullptr,
          [&] { model->backward(loss.grad_logits); });
    timed("core.prox_grad", span.id(), keep ? &prox : nullptr,
          [&] { pruner.add_proximal_gradient(); });
    timed("nn.sgd", span.id(), keep ? &step : nullptr,
          [&] { opt.step(params, 0); });
  }
  for (int r = 0; r < 5; ++r)
    timed("core.update_duals", -1, &duals, [&] { pruner.update_duals(); });
  for (int r = 0; r < 3; ++r)
    timed("core.hard_prune", -1, &hard, [&] { pruner.hard_prune(); });
  // The rest of a step (zero_grad, the loss, parameter listing) is the
  // step span's self time.
  const auto self = self_times_ns(tracer.spans());
  std::vector<double> rest;
  for (const std::int64_t id : step_spans)
    if (id >= 0) rest.push_back(self[static_cast<std::size_t>(id)] / 1e6);
  out.insert(out.end(), {
                            {"nn.fwd_ms", median(fwd), "ms"},
                            {"nn.bwd_ms", median(bwd), "ms"},
                            {"nn.sgd_ms", median(step), "ms"},
                            {"core.prox_grad_ms", median(prox), "ms"},
                            {"core.update_duals_ms", median(duals), "ms"},
                            {"core.hard_prune_ms", median(hard), "ms"},
                            {"train.step_rest_ms", median(rest), "ms"},
                        });
}

double measure_copy_load(const std::string& path, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const auto dep = tinyadc::artifact::load_artifact(path);
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

double measure_span_cost() {
  Tracer scratch(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("probe"));
  return 1e6 * ms_since(t0) / kSpans;
}

}  // namespace perfbench
