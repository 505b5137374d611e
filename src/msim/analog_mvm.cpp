#include "msim/analog_mvm.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "artifact/format.hpp"
#include "runtime/parallel.hpp"
#include "tensor/check.hpp"

// Software prefetch of upcoming plan streams (DESIGN.md §12). Read-only,
// low temporal locality hint; compiles away off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define TINYADC_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define TINYADC_PREFETCH(addr) ((void)0)
#endif

namespace tinyadc::msim {

namespace {

std::atomic<std::int64_t> g_plan_compilations{0};

// Minimum per-call plan work (weighted row slots, see finalize_plan) before
// the pair sweep is worth handing to the thread pool. Below this the pool's
// wake + chunk dispatch costs more than the sweep itself — the packed-plan
// bench showed a small CP-16 plan at 0.16 ms serial but 0.39 ms on two
// threads — so tiny plans run the sweep inline. The inline sweep is the
// runtime's serial reference path, so outputs and counters stay
// bit-identical either way.
constexpr std::int64_t kMinParallelPlanWork = 1 << 15;

// Lanes per fused tile: each row slot scales kLaneTile contiguous codes, so
// the per-slot stream loads and loop overhead amortize over a SIMD-wide
// multiply-accumulate, while the two per-polarity partial arrays stay in
// L1 (2 × 64 × 8 bytes at most).
constexpr std::size_t kLaneTile = 64;

/// The ideal-datapath predicate of build_plan, shared with deserialize so
/// a loaded plan provably dispatches through the same inner loop.
bool plan_ideal_for(const xbar::MappedLayer& layer, const MsimConfig& config,
                    bool has_variation) {
  std::int64_t max_rows = 0;
  for (const auto& b : layer.blocks) max_rows = std::max(max_rows, b.rows);
  const auto& cfg = layer.config;
  const double worst_plane_sum =
      static_cast<double>((1 << cfg.cell_bits) - 1) *
      static_cast<double>((1 << cfg.dac_bits) - 1) *
      static_cast<double>(max_rows);
  return !has_variation && config.ir_drop_alpha <= 0.0 &&
         worst_plane_sum < 9007199254740992.0;  // 2^53
}

/// Integer-domain ADC conversion, inlined for the plan fast paths. The
/// ideal datapath's analog sum is an exact non-negative integer, so
/// Adc::convert's llround is the identity and only the saturation remains.
/// Counters are bulk-added by the caller (conversions) / here (clips).
inline std::int64_t adc_code_int(std::int64_t isum, int bits,
                                 std::int64_t full_scale,
                                 std::int64_t& clip_events) {
  if (bits == 0) return 0;
  if (isum > full_scale) {
    ++clip_events;
    return full_scale;
  }
  return isum;
}

}  // namespace

void serialize(const MsimConfig& config, artifact::SectionWriter& w) {
  w.pod(static_cast<std::int32_t>(config.adc_bits_override));
  w.pod(config.variation_sigma);
  w.pod(config.ir_drop_alpha);
  w.pod(config.seed);
  w.pod(static_cast<std::uint8_t>(config.use_plan ? 1 : 0));
}

MsimConfig deserialize_msim_config(artifact::SectionReader& r) {
  MsimConfig config;
  config.adc_bits_override = r.pod<std::int32_t>();
  config.variation_sigma = r.pod<double>();
  config.ir_drop_alpha = r.pod<double>();
  config.seed = r.pod<std::uint64_t>();
  config.use_plan = r.pod<std::uint8_t>() != 0;
  TINYADC_CHECK(config.adc_bits_override >= -1 &&
                    config.adc_bits_override <= 32,
                "implausible ADC override " << config.adc_bits_override);
  TINYADC_CHECK(std::isfinite(config.variation_sigma) &&
                    config.variation_sigma >= 0.0 &&
                    std::isfinite(config.ir_drop_alpha) &&
                    config.ir_drop_alpha >= 0.0,
                "implausible msim non-ideality configuration");
  return config;
}

std::int64_t AnalogLayerSim::plan_compilations() {
  return g_plan_compilations.load(std::memory_order_relaxed);
}

void AnalogLayerSim::check_accumulator_headroom() const {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);

  // Overflow guard: the shift-and-add stage accumulates
  //   Σ ± code · 2^(s·cell_bits + t·dac_bits)
  // over 2·slices·cycles conversions per (block, column), and per-column
  // block partials then add across the block-grid rows. The worst shifted
  // code therefore needs adc_bits + max_shift bits, plus headroom for the
  // number of summed terms; anything past 62 bits can silently wrap the
  // int64 accumulator, so refuse the configuration up front.
  const int max_shift =
      (slices - 1) * cfg.cell_bits + (cycles - 1) * cfg.dac_bits;
  const auto terms = static_cast<std::uint64_t>(2 * slices * cycles) *
                     static_cast<std::uint64_t>(
                         std::max<std::int64_t>(1, layer_.block_grid_rows));
  const int headroom = std::bit_width(terms);
  TINYADC_CHECK(
      adc_.bits() + max_shift + headroom <= 62,
      "shift-and-add accumulator overflow: " << adc_.bits() << " ADC bits + "
          << max_shift << " max shift + " << headroom
          << " headroom bits exceed int64 (layer " << layer_.name << ")");
}

AnalogLayerSim::AnalogLayerSim(const xbar::MappedLayer& layer,
                               MsimConfig config)
    : layer_(layer),
      config_(config),
      adc_(config.adc_bits_override >= 0 ? config.adc_bits_override
                                         : layer.required_adc_bits()),
      stats_mu_(std::make_unique<std::mutex>()) {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  check_accumulator_headroom();

  if (config_.variation_sigma > 0.0) {
    Rng rng(config_.seed);
    variation_.reserve(layer_.blocks.size());
    for (const auto& b : layer_.blocks) {
      std::vector<float> v(
          static_cast<std::size_t>(b.rows * b.cols * slices));
      for (auto& f : v)
        f = std::exp(rng.normal(0.0F,
                                static_cast<float>(config_.variation_sigma)));
      variation_.push_back(std::move(v));
    }
  }
  if (config_.use_plan) build_plan();
}

void AnalogLayerSim::build_plan() {
  g_plan_compilations.fetch_add(1, std::memory_order_relaxed);
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  TINYADC_CHECK(layer_.rows <= INT32_MAX,
                "layer too tall for packed plan row indices");

  // The ideal (no variation, no IR drop) datapath sums exact integers, so
  // the plan may accumulate in int64 and cast once — bit-identical to the
  // dense path's double accumulation as long as every partial plane sum is
  // exactly representable in a double (< 2^53; true for any physical
  // configuration, checked anyway).
  plan_ideal_ = plan_ideal_for(layer_, config_, !variation_.empty());

  // Stream sizing straight from the mapping's per-column occupancy census:
  // every active weight owns exactly one row slot in one polarity segment,
  // so the census sum is the exact stream length (not an upper bound).
  // Compilation accumulates into local vectors and assigns the ArrayRef
  // members once at the end (compiled plans always own their storage).
  const auto slots = static_cast<std::size_t>(layer_.census_nonzeros());
  std::vector<std::int32_t> soa_row;
  std::vector<std::int32_t> soa_mag;
  std::vector<std::int32_t> soa_level;
  std::vector<float> soa_var;
  std::vector<double> soa_denom;
  soa_row.reserve(slots);
  soa_mag.reserve(slots);
  soa_denom.reserve(slots);
  soa_level.reserve(slots * static_cast<std::size_t>(slices));
  soa_var.reserve(slots * static_cast<std::size_t>(slices));

  std::size_t npairs = 0;
  for (const auto& b : layer_.blocks)
    npairs += static_cast<std::size_t>(b.cols);
  std::vector<std::int64_t> soa_out;
  std::vector<std::uint64_t> soa_seg;
  soa_out.reserve(npairs);
  soa_seg.reserve(2 * npairs + 1);
  soa_seg.push_back(0);

  std::vector<std::int64_t> seg_rows;  // block-local rows of one segment
  for (std::size_t bi = 0; bi < layer_.blocks.size(); ++bi) {
    const auto& b = layer_.blocks[bi];
    const float* var = variation_.empty() ? nullptr : variation_[bi].data();
    for (std::int64_t c = 0; c < b.cols; ++c) {
      soa_out.push_back(
          layer_.kept_cols[static_cast<std::size_t>(b.col0 + c)]);

      // Column load for the IR-drop model, from the live codes (matches the
      // dense path's per-call count; the census is equal at map time but
      // kept separate so a stale census can never skew the analog model).
      double column_load = 0.0;
      if (config_.ir_drop_alpha > 0.0) {
        std::int64_t active = 0;
        for (std::int64_t r = 0; r < b.rows; ++r) active += (b.at(r, c) != 0);
        column_load =
            static_cast<double>(active) / static_cast<double>(b.rows);
      }

      // Two polarity segments per pair (+ then −), each the column's active
      // rows of that sign in ascending block-row order — exactly the
      // operands (and order) of the dense inner loop.
      for (int polarity : {+1, -1}) {
        seg_rows.clear();
        for (std::int64_t r = 0; r < b.rows; ++r) {
          const std::int32_t q = b.at(r, c);
          if (q == 0 || (q > 0 ? 1 : -1) != polarity) continue;
          seg_rows.push_back(r);
          soa_row.push_back(static_cast<std::int32_t>(layer_.kept_rows[
              static_cast<std::size_t>(b.row0 + r)]));
          soa_mag.push_back(std::abs(q));
          double denom = 1.0;
          if (config_.ir_drop_alpha > 0.0) {
            const double depth = static_cast<double>(r + 1) /
                                 static_cast<double>(b.rows);
            denom = 1.0 + config_.ir_drop_alpha * depth * column_load;
          }
          soa_denom.push_back(denom);
        }
        // Slice-resolved rectangle, slice-major within the segment. Zero
        // levels are kept (they add nothing to the integer paths; the
        // general path skips them like the dense scan does) so every slice
        // streams contiguously. Variation slots at zero levels store the
        // exact multiplicative identity.
        for (int s = 0; s < slices; ++s) {
          for (const std::int64_t r : seg_rows) {
            const auto sl = xbar::slice_magnitude(std::abs(b.at(r, c)),
                                                  cfg.cell_bits, slices);
            const std::int32_t level = sl[static_cast<std::size_t>(s)];
            soa_level.push_back(level);
            soa_var.push_back(
                var == nullptr || level == 0
                    ? 1.0F
                    : var[static_cast<std::size_t>((r * b.cols + c) * slices +
                                                   s)]);
          }
        }
        soa_seg.push_back(soa_row.size());
      }
    }
  }
  soa_out_ = std::move(soa_out);
  soa_seg_ = std::move(soa_seg);
  soa_row_ = std::move(soa_row);
  soa_mag_ = std::move(soa_mag);
  soa_level_ = std::move(soa_level);
  soa_var_ = std::move(soa_var);
  soa_denom_ = std::move(soa_denom);
  finalize_plan();
}

void AnalogLayerSim::finalize_plan() {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const std::int64_t chunk_max = (1 << cfg.dac_bits) - 1;
  const std::int64_t code_max = (std::int64_t{1} << cfg.input_bits) - 1;

  // Worst-case sums for the fast-path predicates, exact from the streams:
  // worst_plane_sum_ bounds any single (pair, polarity, slice, cycle)
  // conversion; worst_fused_sum_ bounds a fused per-polarity partial.
  worst_plane_sum_ = 0;
  worst_fused_sum_ = 0;
  const std::size_t nseg = soa_seg_.empty() ? 0 : soa_seg_.size() - 1;
  for (std::size_t k = 0; k < nseg; ++k) {
    const std::size_t i0 = soa_seg_[k], i1 = soa_seg_[k + 1];
    const std::size_t len = i1 - i0;
    const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
    std::int64_t fused = 0;
    for (std::size_t i = i0; i < i1; ++i) fused += soa_mag_[i];
    worst_fused_sum_ = std::max(worst_fused_sum_, fused * code_max);
    for (int s = 0; s < slices; ++s) {
      std::int64_t plane = 0;
      const std::int32_t* lv =
          soa_level_.data() + lbase + static_cast<std::size_t>(s) * len;
      for (std::size_t i = 0; i < len; ++i) plane += lv[i];
      worst_plane_sum_ = std::max(worst_plane_sum_, plane * chunk_max);
    }
  }

  // Execution-path resolution (DESIGN.md §12): one path per datapath
  // regime. The fused collapse requires the clip-free guarantee; an ideal
  // datapath that may clip runs the vector sweep, a non-ideal one the
  // general sweep.
  const bool clip_free = plan_ideal_ && worst_plane_sum_ <= adc_.full_scale();
  exec_path_ = clip_free     ? ExecPath::kFused
               : plan_ideal_ ? ExecPath::kVector
                             : ExecPath::kGeneral;

  // Per-MVM work estimate for the parallel dispatch threshold: row slots,
  // weighted by the per-slot inner-loop cost of the resolved path. The
  // fused path touches each slot about once per polarity sweep; the other
  // paths revisit each slot per (slice, cycle) plane.
  const auto total_slots =
      soa_seg_.empty() ? std::uint64_t{0} : soa_seg_.back();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const std::int64_t per_slot =
      exec_path_ == ExecPath::kFused
          ? 1
          : static_cast<std::int64_t>(slices) * cycles;
  plan_work_ = static_cast<std::int64_t>(total_slots) * per_slot;
}

void AnalogLayerSim::dac_split(const std::int32_t* x,
                               std::int32_t* chunks) const {
  const auto& cfg = layer_.config;
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const std::int32_t mask = (1 << cfg.dac_bits) - 1;
  const auto n = static_cast<std::size_t>(layer_.rows);
  for (std::size_t r = 0; r < n; ++r) {
    std::int32_t rest = x[r];
    TINYADC_CHECK(rest >= 0 && rest < (std::int64_t{1} << cfg.input_bits),
                  "activation code " << x[r] << " exceeds " << cfg.input_bits
                                     << " bits");
    if (chunks == nullptr) continue;
    for (int t = 0; t < cycles; ++t) {
      chunks[static_cast<std::size_t>(t) * n + r] = rest & mask;
      rest >>= cfg.dac_bits;
    }
  }
}

std::vector<std::int64_t> AnalogLayerSim::mvm(
    const std::vector<std::int32_t>& x) {
  return config_.use_plan ? mvm_packed(x) : mvm_dense(x);
}

template <typename Acc, std::size_t kLanes>
void AnalogLayerSim::fused_sweep(const std::int32_t* codes, std::size_t ld,
                                 std::size_t l0, std::size_t lanes,
                                 std::int64_t p0, std::int64_t p1,
                                 std::int64_t* dst, std::size_t dst_ld,
                                 bool by_column) const {
  // Every term |q|·x is non-negative and every per-polarity partial is
  // bounded by worst_fused_sum_, so the Acc sums cannot overflow and the
  // lane order of the additions cannot change them: the result is the
  // per-sample dot product, exactly. A compile-time lane count lets the
  // one-lane sweep keep its partials in registers.
  const std::size_t n = kLanes != 0 ? kLanes : lanes;
  Acc part[2][kLanes != 0 ? kLanes : kLaneTile];
  const std::uint64_t* seg = soa_seg_.data();
  const std::int32_t* row = soa_row_.data();
  const std::int32_t* mag = soa_mag_.data();
  for (std::int64_t pi = p0; pi < p1; ++pi) {
    const std::size_t k0 = 2 * static_cast<std::size_t>(pi);
    if (pi + 1 < p1) {
      // One pair ahead (~2–4 cache lines of stream data) hides the
      // stream-load latency behind the current pair's arithmetic.
      TINYADC_PREFETCH(mag + seg[k0 + 2]);
      TINYADC_PREFETCH(row + seg[k0 + 2]);
    }
    for (std::size_t pol = 0; pol < 2; ++pol) {
      Acc* acc = part[pol];
      std::fill_n(acc, n, Acc{0});
      for (std::uint64_t i = seg[k0 + pol]; i < seg[k0 + pol + 1]; ++i) {
        const Acc m = mag[i];
        const std::int32_t* src =
            codes + static_cast<std::size_t>(row[i]) * ld + l0;
        for (std::size_t l = 0; l < n; ++l) acc[l] += m * src[l];
      }
    }
    const auto out = static_cast<std::size_t>(by_column ? soa_out_[
        static_cast<std::size_t>(pi)] : pi);
    std::int64_t* d = dst + out * dst_ld + l0;
    for (std::size_t l = 0; l < n; ++l)
      d[l] += static_cast<std::int64_t>(part[0][l]) -
              static_cast<std::int64_t>(part[1][l]);
  }
}

void AnalogLayerSim::fused_pairs(const std::int32_t* codes, std::size_t ld,
                                 std::size_t l0, std::size_t n,
                                 std::int64_t p0, std::int64_t p1,
                                 std::int64_t* dst, std::size_t dst_ld,
                                 bool by_column) const {
  // int32 partials double the SIMD width; they are exact whenever the
  // largest possible partial fits.
  const bool narrow = worst_fused_sum_ <= INT32_MAX;
  using Sweep = decltype(&AnalogLayerSim::fused_sweep<std::int32_t, 0>);
  const Sweep sweep =
      narrow ? (n == 1 ? &AnalogLayerSim::fused_sweep<std::int32_t, 1>
                       : &AnalogLayerSim::fused_sweep<std::int32_t, 0>)
             : (n == 1 ? &AnalogLayerSim::fused_sweep<std::int64_t, 1>
                       : &AnalogLayerSim::fused_sweep<std::int64_t, 0>);
  (this->*sweep)(codes, ld, l0, n, p0, p1, dst, dst_ld, by_column);
}

template <typename Load, typename Store>
void AnalogLayerSim::fused_tiles(std::int64_t lanes, int phases,
                                 const Load& load, const Store& store) {
  const auto& cfg = layer_.config;
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const auto nl = static_cast<std::size_t>(lanes);
  const auto rows = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const auto npairs = static_cast<std::int64_t>(soa_out_.size());
  const std::size_t width = std::min(kLaneTile, nl);

  // Lane tiles write disjoint lanes of the output, so they run on any
  // worker. Pairs never split across workers here: several blocks add into
  // one output column.
  const auto run_tiles = [&](std::int64_t t0, std::int64_t t1) {
    std::vector<std::int32_t> codes(rows * width);
    std::vector<std::int64_t> sums(static_cast<std::size_t>(phases) * cols *
                                   width);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::size_t l0 = static_cast<std::size_t>(t) * kLaneTile;
      const std::size_t n = std::min(kLaneTile, nl - l0);
      std::fill(sums.begin(), sums.end(), 0);
      for (int ph = 0; ph < phases; ++ph) {
        load(l0, n, ph, codes.data());
        fused_pairs(codes.data(), n, 0, n, 0, npairs,
                    sums.data() + static_cast<std::size_t>(ph) * cols * n, n,
                    /*by_column=*/true);
      }
      store(l0, n, sums.data());
    }
  };
  const auto ntiles =
      static_cast<std::int64_t>((nl + kLaneTile - 1) / kLaneTile);
  if (phases * lanes * plan_work_ < kMinParallelPlanWork)
    run_tiles(0, ntiles);
  else
    runtime::parallel_for(0, ntiles, 1, run_tiles);

  // Exact multiples of the single-sample fused counts: 2·slices·cycles
  // conversions per pair per lane and phase, zero clips by the fused
  // predicate, one DAC pass per lane and phase.
  AdcCounters call_counters;
  call_counters.conversions =
      phases * lanes * npairs * 2 * cfg.slices() * cycles;
  merge_stats(call_counters,
              static_cast<std::int64_t>(cycles) * phases * lanes);
}

void AnalogLayerSim::exec_pairs(const std::int32_t* x,
                                const std::int32_t* chunks, std::int64_t p0,
                                std::int64_t p1, std::int64_t* pair_acc,
                                AdcCounters& counters) const {
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const auto n = static_cast<std::size_t>(layer_.rows);
  const int bits = adc_.bits();
  const std::int64_t full_scale = adc_.full_scale();
  const std::int64_t conv_per_pair = std::int64_t{2} * slices * cycles;

  switch (exec_path_) {
    case ExecPath::kFused:
      // Clip-free ideal datapath: every conversion returns its plane sum
      // exactly, so the shift-and-add telescopes into Σ ± |q_i|·x_i per
      // polarity (DESIGN.md §12). One lane; each pair owns its slot, so
      // pair ranges may run on different workers.
      fused_pairs(x, 1, 0, 1, p0, p1, pair_acc, 1, /*by_column=*/false);
      counters.conversions += conv_per_pair * (p1 - p0);
      return;
    case ExecPath::kVector: {
      // Ideal datapath that may clip: gather one cycle's chunks per
      // segment, then a contiguous multiply-accumulate per slice over the
      // rectangular level stream (zeros contribute nothing, so the
      // rectangle is exact), saturating each conversion.
      std::size_t max_len = 0;
      for (std::size_t k = 0; k + 1 < soa_seg_.size(); ++k)
        max_len = std::max(max_len, soa_seg_[k + 1] - soa_seg_[k]);
      std::vector<std::int32_t> g(std::max<std::size_t>(max_len, 1));
      const bool narrow = worst_plane_sum_ <= INT32_MAX;
      for (std::int64_t pi = p0; pi < p1; ++pi) {
        std::int64_t acc = 0;
        for (int pol = 0; pol < 2; ++pol) {
          const std::size_t k =
              2 * static_cast<std::size_t>(pi) + static_cast<std::size_t>(pol);
          const std::size_t i0 = soa_seg_[k], len = soa_seg_[k + 1] - i0;
          const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
          for (int t = 0; t < cycles; ++t) {
            const std::int32_t* ch = chunks + static_cast<std::size_t>(t) * n;
            for (std::size_t i = 0; i < len; ++i) g[i] = ch[soa_row_[i0 + i]];
            for (int s = 0; s < slices; ++s) {
              const std::int32_t* lv =
                  soa_level_.data() + lbase +
                  static_cast<std::size_t>(s) * len;
              std::int64_t isum;
              if (narrow) {
                std::int32_t s32 = 0;
                for (std::size_t i = 0; i < len; ++i) s32 += lv[i] * g[i];
                isum = s32;
              } else {
                std::int64_t s64 = 0;
                for (std::size_t i = 0; i < len; ++i)
                  s64 += static_cast<std::int64_t>(lv[i]) * g[i];
                isum = s64;
              }
              const std::int64_t code =
                  adc_code_int(isum, bits, full_scale, counters.clip_events);
              acc += (pol == 0 ? 1 : -1) *
                     (code << (s * cfg.cell_bits + t * cfg.dac_bits));
            }
          }
        }
        pair_acc[pi] = acc;
        counters.conversions += conv_per_pair;
      }
      return;
    }
    case ExecPath::kGeneral: {
      // Non-ideal datapath: float accumulation in exactly the dense scan's
      // operand order — ascending active rows, skipping zero levels, one
      // variation multiply and one IR-drop divide per operand (both exact
      // identities when the corresponding non-ideality is off).
      for (std::int64_t pi = p0; pi < p1; ++pi) {
        std::int64_t acc = 0;
        for (int pol = 0; pol < 2; ++pol) {
          const std::size_t k =
              2 * static_cast<std::size_t>(pi) + static_cast<std::size_t>(pol);
          const std::size_t i0 = soa_seg_[k], len = soa_seg_[k + 1] - i0;
          const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
          for (int s = 0; s < slices; ++s) {
            const std::size_t sbase =
                lbase + static_cast<std::size_t>(s) * len;
            const std::int32_t* lv = soa_level_.data() + sbase;
            const float* vv = soa_var_.data() + sbase;
            for (int t = 0; t < cycles; ++t) {
              const std::int32_t* ch =
                  chunks + static_cast<std::size_t>(t) * n;
              double analog = 0.0;
              for (std::size_t i = 0; i < len; ++i) {
                const std::int32_t level = lv[i];
                if (level == 0) continue;
                double contrib = static_cast<double>(level) *
                                 ch[soa_row_[i0 + i]];
                contrib *= vv[i];
                contrib /= soa_denom_[i0 + i];
                analog += contrib;
              }
              const std::int64_t code = adc_.convert(analog, counters);
              acc += (pol == 0 ? 1 : -1) *
                     (code << (s * cfg.cell_bits + t * cfg.dac_bits));
            }
          }
        }
        pair_acc[pi] = acc;
      }
      return;
    }
    case ExecPath::kDense:
      return;  // mvm() routes dense sims to mvm_dense
  }
}

std::vector<std::int64_t> AnalogLayerSim::mvm_packed(
    const std::vector<std::int32_t>& x) {
  TINYADC_CHECK(static_cast<std::int64_t>(x.size()) == layer_.rows,
                "input length " << x.size() << " != layer rows "
                                << layer_.rows);
  const auto& cfg = layer_.config;
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);
  const std::size_t n = x.size();
  const bool needs_chunks = exec_path_ != ExecPath::kFused;

  // DAC chunks flattened into one contiguous buffer: chunk t of row r sits
  // at [t*n + r], so plan entries index a cycle's chunks directly by their
  // packed row index. The fused path reads the codes directly and skips
  // the split (validation still runs).
  std::vector<std::int32_t> chunks;
  if (needs_chunks) chunks.resize(static_cast<std::size_t>(cycles) * n);
  dac_split(x.data(), needs_chunks ? chunks.data() : nullptr);

  const auto npairs = static_cast<std::int64_t>(soa_out_.size());
  std::vector<std::int64_t> pair_acc(soa_out_.size(), 0);

  // Each (block, logical column) pair converts independently — in hardware
  // all crossbar arrays fire in parallel. Per-pair sums land in fixed
  // slots; counters accumulate per worker chunk and merge under a local
  // mutex (integer sums, so the grand total is partition-independent).
  AdcCounters call_counters;
  const auto run_range = [&](std::int64_t p0, std::int64_t p1,
                             AdcCounters& counters) {
    exec_pairs(x.data(), chunks.data(), p0, p1, pair_acc.data(), counters);
  };
  if (plan_work_ < kMinParallelPlanWork) {
    // Tiny plan: the sweep costs less than waking the pool. Run it inline
    // (the exact serial path, so bit-identical to any partitioning).
    run_range(0, npairs, call_counters);
  } else {
    std::mutex counters_mu;
    runtime::parallel_for(0, npairs, 1,
                          [&](std::int64_t p0, std::int64_t p1) {
                            AdcCounters local;
                            run_range(p0, p1, local);
                            std::lock_guard<std::mutex> lk(counters_mu);
                            call_counters.conversions += local.conversions;
                            call_counters.clip_events += local.clip_events;
                          });
  }

  std::vector<std::int64_t> y(static_cast<std::size_t>(layer_.cols), 0);
  for (std::size_t pi = 0; pi < soa_out_.size(); ++pi)
    y[static_cast<std::size_t>(soa_out_[pi])] += pair_acc[pi];
  merge_stats(call_counters, cycles);
  return y;
}

std::vector<std::int64_t> AnalogLayerSim::mvm_dense(
    const std::vector<std::int32_t>& x) {
  TINYADC_CHECK(static_cast<std::int64_t>(x.size()) == layer_.rows,
                "input length " << x.size() << " != layer rows "
                                << layer_.rows);
  const auto& cfg = layer_.config;
  const int slices = cfg.slices();
  const int cycles = dac_cycles(cfg.input_bits, cfg.dac_bits);

  // Pre-split every activation into DAC chunks: chunk[t][row].
  std::vector<std::vector<std::int32_t>> chunk(
      static_cast<std::size_t>(cycles),
      std::vector<std::int32_t>(x.size()));
  for (std::size_t r = 0; r < x.size(); ++r) {
    const auto ch = dac_chunks(x[r], cfg.input_bits, cfg.dac_bits);
    for (int t = 0; t < cycles; ++t)
      chunk[static_cast<std::size_t>(t)][r] =
          ch[static_cast<std::size_t>(t)];
  }

  // Each (block, logical column) pair converts independently — in hardware
  // all crossbar arrays fire in parallel. Accumulate every pair's digital
  // sum and ADC counters separately, then merge serially in a fixed order
  // so y and the statistics are bit-identical at any thread count.
  std::vector<std::pair<std::size_t, std::int64_t>> pairs;  // (block, col)
  for (std::size_t bi = 0; bi < layer_.blocks.size(); ++bi)
    for (std::int64_t c = 0; c < layer_.blocks[bi].cols; ++c)
      pairs.emplace_back(bi, c);
  std::vector<std::int64_t> pair_acc(pairs.size(), 0);
  std::vector<AdcCounters> pair_counters(pairs.size());

  runtime::parallel_for(
      0, static_cast<std::int64_t>(pairs.size()), 1,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t pi = p0; pi < p1; ++pi) {
          const auto [bi, c] = pairs[static_cast<std::size_t>(pi)];
          const auto& b = layer_.blocks[bi];
          const float* var =
              variation_.empty() ? nullptr : variation_[bi].data();
          AdcCounters& counters = pair_counters[static_cast<std::size_t>(pi)];
          // Decompose the column once: per-row slice values by polarity.
          // sliced[r*slices + s] holds the s-th slice of |q(r,c)|; sign[r]
          // its polarity.
          std::vector<std::int32_t> sliced(
              static_cast<std::size_t>(b.rows * slices), 0);
          std::vector<int> sign(static_cast<std::size_t>(b.rows), 0);
          for (std::int64_t r = 0; r < b.rows; ++r) {
            const std::int32_t q = b.at(r, c);
            if (q == 0) continue;
            sign[static_cast<std::size_t>(r)] = q > 0 ? 1 : -1;
            const auto sl = xbar::slice_magnitude(std::abs(q), cfg.cell_bits,
                                                  slices);
            for (int s = 0; s < slices; ++s)
              sliced[static_cast<std::size_t>(r * slices + s)] =
                  sl[static_cast<std::size_t>(s)];
          }
          // Column load for the IR-drop model: the fraction of this
          // column's wordlines that actually inject current.
          double column_load = 0.0;
          if (config_.ir_drop_alpha > 0.0) {
            std::int64_t active = 0;
            for (std::int64_t r = 0; r < b.rows; ++r)
              active += (sign[static_cast<std::size_t>(r)] != 0);
            column_load = static_cast<double>(active) /
                          static_cast<double>(b.rows);
          }
          std::int64_t acc = 0;
          for (int polarity : {+1, -1}) {
            for (int s = 0; s < slices; ++s) {
              for (int t = 0; t < cycles; ++t) {
                double analog = 0.0;
                const auto& ch = chunk[static_cast<std::size_t>(t)];
                for (std::int64_t r = 0; r < b.rows; ++r) {
                  if (sign[static_cast<std::size_t>(r)] != polarity) continue;
                  const std::int32_t level =
                      sliced[static_cast<std::size_t>(r * slices + s)];
                  if (level == 0) continue;
                  const std::int64_t orig_r = layer_.kept_rows[
                      static_cast<std::size_t>(b.row0 + r)];
                  double contrib = static_cast<double>(level) *
                                   ch[static_cast<std::size_t>(orig_r)];
                  if (var != nullptr)
                    contrib *= var[static_cast<std::size_t>(
                        (r * b.cols + c) * slices + s)];
                  if (config_.ir_drop_alpha > 0.0) {
                    const double depth = static_cast<double>(r + 1) /
                                         static_cast<double>(b.rows);
                    contrib /=
                        1.0 + config_.ir_drop_alpha * depth * column_load;
                  }
                  analog += contrib;
                }
                const std::int64_t code = adc_.convert(analog, counters);
                acc += polarity *
                       (code << (s * cfg.cell_bits + t * cfg.dac_bits));
              }
            }
          }
          pair_acc[static_cast<std::size_t>(pi)] = acc;
        }
      });

  std::vector<std::int64_t> y(static_cast<std::size_t>(layer_.cols), 0);
  AdcCounters call_counters;
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const auto [bi, c] = pairs[pi];
    const auto& b = layer_.blocks[bi];
    y[static_cast<std::size_t>(
        layer_.kept_cols[static_cast<std::size_t>(b.col0 + c)])] +=
        pair_acc[pi];
    call_counters.conversions += pair_counters[pi].conversions;
    call_counters.clip_events += pair_counters[pi].clip_events;
  }
  merge_stats(call_counters, cycles);
  return y;
}

std::vector<std::int64_t> AnalogLayerSim::mvm_batch(
    const std::vector<std::int32_t>& xs, std::int64_t batch) {
  TINYADC_CHECK(batch >= 0, "negative batch");
  TINYADC_CHECK(static_cast<std::int64_t>(xs.size()) == batch * layer_.rows,
                "batched input holds " << xs.size() << " codes, expected "
                                       << batch * layer_.rows);
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  std::vector<std::int64_t> y(static_cast<std::size_t>(batch) * cols, 0);
  if (batch == 0) return y;

  if (exec_path_ == ExecPath::kFused) {
    // Samples become lanes: each tile gathers its samples' codes
    // lane-major and scatters the sums back. Validation first, in one
    // min/max reduction; the scan naming the offending code only runs on
    // failure.
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    if (*lo < 0 || *hi >= (std::int64_t{1} << layer_.config.input_bits))
      for (std::size_t si = 0; si < static_cast<std::size_t>(batch); ++si)
        dac_split(xs.data() + si * n, nullptr);
    fused_tiles(
        batch, 1,
        [&](std::size_t l0, std::size_t w, int, std::int32_t* codes) {
          for (std::size_t r = 0; r < n; ++r)
            for (std::size_t l = 0; l < w; ++l)
              codes[r * w + l] = xs[(l0 + l) * n + r];
        },
        [&](std::size_t l0, std::size_t w, const std::int64_t* sums) {
          for (std::size_t c = 0; c < cols; ++c)
            for (std::size_t l = 0; l < w; ++l)
              y[(l0 + l) * cols + c] = sums[c * w + l];
        });
    return y;
  }

  // Generic fallback: per-sample executors run inline under a
  // sample-parallel loop (nested parallel_for serializes). Each sample
  // merges its own statistics — integer counter sums, so the totals are
  // identical to `batch` sequential mvm() calls at any thread count. A
  // batch of tiny plans is still tiny work overall, so the samples fan
  // out only when the whole batch clears the plan-work threshold. Dense
  // (use_plan == false) batches have no plan estimate and always fan out
  // — the dense scan is O(rows·cols) per sample and dwarfs the dispatch
  // cost.
  const auto run_samples = [&](std::int64_t b0, std::int64_t b1) {
    std::vector<std::int32_t> x(n);
    for (std::int64_t si = b0; si < b1; ++si) {
      const std::int32_t* src = xs.data() + static_cast<std::size_t>(si) * n;
      x.assign(src, src + n);
      const auto yi = mvm(x);
      std::copy(yi.begin(), yi.end(),
                y.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(si) * cols));
    }
  };
  if (config_.use_plan && batch * plan_work_ < kMinParallelPlanWork)
    run_samples(0, batch);
  else
    runtime::parallel_for(0, batch, 1, run_samples);
  return y;
}

void AnalogLayerSim::merge_stats(const AdcCounters& counters,
                                 std::int64_t dac_cycles) {
  std::lock_guard<std::mutex> lk(*stats_mu_);
  adc_.absorb(counters);
  stats_.dac_cycles += dac_cycles;
  stats_.adc_conversions = adc_.conversions();
  stats_.adc_clip_events = adc_.clip_events();
}

std::vector<float> AnalogLayerSim::mvm_real(
    const std::vector<float>& x_real, const xbar::QuantParams& x_quant) {
  std::vector<std::int32_t> codes(x_real.size());
  for (std::size_t i = 0; i < x_real.size(); ++i)
    codes[i] = xbar::quantize_unsigned(x_real[i], x_quant);
  const auto y = mvm(codes);
  const float scale = x_quant.scale * layer_.quant.scale;
  std::vector<float> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    out[i] = static_cast<float>(y[i]) * scale;
  return out;
}

std::vector<float> AnalogLayerSim::mvm_real_signed(
    const std::vector<float>& x_real, const xbar::QuantParams& x_quant) {
  std::vector<float> pos(x_real.size()), neg(x_real.size());
  for (std::size_t i = 0; i < x_real.size(); ++i) {
    pos[i] = x_real[i] > 0.0F ? x_real[i] : 0.0F;
    neg[i] = x_real[i] < 0.0F ? -x_real[i] : 0.0F;
  }
  auto yp = mvm_real(pos, x_quant);
  const auto yn = mvm_real(neg, x_quant);
  for (std::size_t i = 0; i < yp.size(); ++i) yp[i] -= yn[i];
  return yp;
}

std::vector<float> AnalogLayerSim::mvm_real_batch(
    const std::vector<float>& xs, std::int64_t batch,
    const xbar::QuantParams& x_quant, bool signed_input) {
  TINYADC_CHECK(batch >= 0, "negative batch");
  TINYADC_CHECK(static_cast<std::int64_t>(xs.size()) == batch * layer_.rows,
                "batched input holds " << xs.size() << " values, expected "
                                       << batch * layer_.rows);
  const float scale = x_quant.scale * layer_.quant.scale;
  if (!signed_input) {
    std::vector<std::int32_t> codes(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      codes[i] = xbar::quantize_unsigned(xs[i], x_quant);
    const auto y = mvm_batch(codes, batch);
    std::vector<float> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      out[i] = static_cast<float>(y[i]) * scale;
    return out;
  }
  // Two-phase signed scheme, element-for-element the mvm_real_signed split:
  // quantize the positive and negative parts separately (v and −v: the
  // unsigned quantizer sends negatives to 0), stream each, and subtract
  // the *scaled* results (same float rounding as the per-sample path).
  std::vector<std::int32_t> pos(xs.size()), neg(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    pos[i] = xbar::quantize_unsigned(xs[i], x_quant);
    neg[i] = xbar::quantize_unsigned(-xs[i], x_quant);
  }
  const auto yp = mvm_batch(pos, batch);
  const auto yn = mvm_batch(neg, batch);
  // Round each product through its vector store before subtracting — the
  // per-sample path scales inside mvm_real and subtracts afterwards, so
  // writing `p*scale - n*scale` as one expression here would let
  // -ffp-contract=fast fuse the first product into the subtract on FMA
  // targets and skip a rounding, breaking batched-vs-per-sample identity.
  std::vector<float> out(yp.size()), yns(yn.size());
  for (std::size_t i = 0; i < yp.size(); ++i)
    out[i] = static_cast<float>(yp[i]) * scale;
  for (std::size_t i = 0; i < yn.size(); ++i)
    yns[i] = static_cast<float>(yn[i]) * scale;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= yns[i];
  return out;
}

void AnalogLayerSim::mvm_real_lanes(const float* x, std::int64_t lanes,
                                    const xbar::QuantParams& x_quant,
                                    bool signed_input, float* y) {
  TINYADC_CHECK(lanes >= 0, "negative lane count");
  const auto n = static_cast<std::size_t>(layer_.rows);
  const auto cols = static_cast<std::size_t>(layer_.cols);
  const auto nl = static_cast<std::size_t>(lanes);
  if (exec_path_ != ExecPath::kFused) {
    // Per-sample execution behind one transpose each way.
    std::vector<float> xs(n * nl);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t l = 0; l < nl; ++l) xs[l * n + r] = x[r * nl + l];
    const auto ys = mvm_real_batch(xs, lanes, x_quant, signed_input);
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t l = 0; l < nl; ++l) y[c * nl + l] = ys[l * cols + c];
    return;
  }

  // Per tile: one quantize pass over the tile's lanes of every row (the
  // signed scheme streams v and −v as two phases, exactly the
  // mvm_real_batch split), the fused sweep, then dequantize. Codes from a
  // quantizer wider than the DAC input are validated up front.
  const auto& cfg = layer_.config;
  const std::int32_t qmax = (1 << x_quant.bits) - 1;
  const float sign[2] = {1.0F, -1.0F};
  const int phases = signed_input ? 2 : 1;
  if (x_quant.bits > cfg.input_bits)
    for (std::size_t i = 0; i < n * nl; ++i)
      for (int ph = 0; ph < phases; ++ph) {
        const std::int32_t code =
            xbar::quantize_code(sign[ph] * x[i], x_quant.scale, 0, qmax);
        TINYADC_CHECK(code < (std::int64_t{1} << cfg.input_bits),
                      "activation code " << code << " exceeds "
                                         << cfg.input_bits << " bits");
      }
  const float scale = x_quant.scale * layer_.quant.scale;
  fused_tiles(
      lanes, phases,
      [&](std::size_t l0, std::size_t w, int ph, std::int32_t* codes) {
        const float sg = sign[ph];
        for (std::size_t r = 0; r < n; ++r) {
          const float* src = x + r * nl + l0;
          std::int32_t* dst = codes + r * w;
          for (std::size_t l = 0; l < w; ++l)
            dst[l] = xbar::quantize_code(sg * src[l], x_quant.scale, 0, qmax);
        }
      },
      [&](std::size_t l0, std::size_t w, const std::int64_t* sums) {
        for (std::size_t c = 0; c < cols; ++c)
          for (std::size_t l = 0; l < w; ++l)
            y[c * nl + l0 + l] = static_cast<float>(sums[c * w + l]) * scale;
        if (!signed_input) return;
        // Scale the negative phase through its own store before
        // subtracting (see mvm_real_batch: no FMA contraction may skip
        // that rounding).
        const std::int64_t* neg = sums + cols * w;
        std::vector<float> yn(cols * w);
        for (std::size_t i = 0; i < yn.size(); ++i)
          yn[i] = static_cast<float>(neg[i]) * scale;
        for (std::size_t c = 0; c < cols; ++c)
          for (std::size_t l = 0; l < w; ++l)
            y[c * nl + l0 + l] -= yn[c * w + l];
      });
}

void AnalogLayerSim::reset_stats() {
  stats_ = MsimStats{};
  adc_.reset_stats();
}

MsimStats AnalogLayerSim::stats_snapshot() const {
  std::lock_guard<std::mutex> lk(*stats_mu_);
  return stats_;
}

AnalogLayerSim::AnalogLayerSim(const xbar::MappedLayer& layer,
                               MsimConfig config, RestoredState&& restored)
    : layer_(layer),
      config_(config),
      adc_(restored.adc_bits),
      variation_(std::move(restored.variation)),
      soa_out_(std::move(restored.out)),
      soa_seg_(std::move(restored.seg)),
      soa_row_(std::move(restored.row)),
      soa_mag_(std::move(restored.mag)),
      soa_level_(std::move(restored.level)),
      soa_var_(std::move(restored.var)),
      soa_denom_(std::move(restored.denom)),
      plan_ideal_(restored.plan_ideal),
      stats_mu_(std::make_unique<std::mutex>()) {
  check_accumulator_headroom();
  // Path resolution is recomputed from the loaded streams — never a plan
  // compilation.
  if (config_.use_plan) finalize_plan();
}

void AnalogLayerSim::serialize(artifact::SectionWriter& w) const {
  w.pod(static_cast<std::int32_t>(adc_.bits()));
  w.pod(static_cast<std::uint8_t>(plan_ideal_ ? 1 : 0));
  w.pod(static_cast<std::uint64_t>(variation_.size()));
  for (const auto& v : variation_) w.vec(v);
  w.pod(static_cast<std::uint8_t>(config_.use_plan ? 1 : 0));
  if (!config_.use_plan) return;
  // The canonical SoA streams as 64-byte-aligned arrays (vec_aligned), so
  // a mapped load can hand the executors read-only spans over the file
  // instead of copies.
  w.pod(static_cast<std::uint64_t>(soa_out_.size()));
  w.vec_aligned(soa_out_);
  w.vec_aligned(soa_seg_);
  w.vec_aligned(soa_row_);
  w.vec_aligned(soa_mag_);
  w.vec_aligned(soa_level_);
  w.vec_aligned(soa_var_);
  w.vec_aligned(soa_denom_);
}

std::unique_ptr<AnalogLayerSim> AnalogLayerSim::deserialize(
    const xbar::MappedLayer& layer, MsimConfig config,
    artifact::SectionReader& r) {
  const auto& cfg = layer.config;
  const int slices = cfg.slices();
  RestoredState s;

  s.adc_bits = r.pod<std::int32_t>();
  const int expected_bits = config.adc_bits_override >= 0
                                ? config.adc_bits_override
                                : layer.required_adc_bits();
  TINYADC_CHECK(s.adc_bits == expected_bits,
                "layer " << layer.name << ": artifact ADC has " << s.adc_bits
                         << " bits, configuration requires " << expected_bits);
  s.plan_ideal = r.pod<std::uint8_t>() != 0;

  const auto nvar = r.pod<std::uint64_t>();
  TINYADC_CHECK((nvar > 0) == (config.variation_sigma > 0.0),
                "layer " << layer.name
                         << ": variation state disagrees with "
                            "variation_sigma");
  TINYADC_CHECK(nvar == 0 || nvar == layer.blocks.size(),
                "layer " << layer.name << ": " << nvar
                         << " variation blocks, mapping has "
                         << layer.blocks.size());
  s.variation.reserve(static_cast<std::size_t>(nvar));
  for (std::uint64_t i = 0; i < nvar; ++i) {
    auto v = r.vec<float>();
    const auto& b = layer.blocks[static_cast<std::size_t>(i)];
    TINYADC_CHECK(v.size() == static_cast<std::size_t>(b.rows * b.cols *
                                                       slices),
                  "layer " << layer.name << ": variation block " << i
                           << " holds " << v.size() << " draws, expected "
                           << b.rows * b.cols * slices);
    for (const float f : v)
      TINYADC_CHECK(std::isfinite(f) && f > 0.0F,
                    "layer " << layer.name
                             << ": non-finite variation factor");
    s.variation.push_back(std::move(v));
  }

  const bool has_plan = r.pod<std::uint8_t>() != 0;
  TINYADC_CHECK(has_plan == config.use_plan,
                "layer " << layer.name
                         << ": artifact plan presence disagrees with "
                            "MsimConfig::use_plan");
  if (has_plan) {
    TINYADC_CHECK(s.plan_ideal ==
                      plan_ideal_for(layer, config, nvar > 0),
                  "layer " << layer.name
                           << ": stored ideal-path flag disagrees with the "
                              "configuration");
    std::size_t npairs_expected = 0;
    for (const auto& b : layer.blocks)
      npairs_expected += static_cast<std::size_t>(b.cols);
    const auto npairs = r.pod<std::uint64_t>();
    TINYADC_CHECK(npairs == npairs_expected,
                  "layer " << layer.name << ": plan has " << npairs
                           << " conversion pairs, mapping needs "
                           << npairs_expected);
    // 64-byte-aligned SoA streams. On a mapped artifact these come back as
    // borrowed spans over the file (zero-copy); on a copied load
    // arr_aligned degrades to an owned copy. Either way the validation
    // below re-checks every structural invariant — and, on a mapped load,
    // doubles as the page-touch warm-up of the hot streams.
    s.out = r.arr_aligned<std::int64_t>("plan outs");
    s.seg = r.arr_aligned<std::uint64_t>("plan segment table");
    s.row = r.arr_aligned<std::int32_t>("plan row stream");
    s.mag = r.arr_aligned<std::int32_t>("plan magnitude stream");
    s.level = r.arr_aligned<std::int32_t>("plan level stream");
    s.var = r.arr_aligned<float>("plan variation stream");
    s.denom = r.arr_aligned<double>("plan IR-divisor stream");

    // Structural validation over the restored streams, spans and copies
    // alike. Anything inconsistent with the mapping is a CheckError, never
    // UB.
    TINYADC_CHECK(s.out.size() == npairs,
                  "layer " << layer.name << ": plan out table holds "
                           << s.out.size() << " pairs, expected " << npairs);
    for (std::size_t pi = 0; pi < s.out.size(); ++pi)
      TINYADC_CHECK(s.out[pi] >= 0 && s.out[pi] < layer.cols,
                    "layer " << layer.name << ": plan pair " << pi
                             << " targets output column " << s.out[pi]);
    TINYADC_CHECK(s.seg.size() == 2 * npairs + 1,
                  "layer " << layer.name << ": plan segment table holds "
                           << s.seg.size() << " offsets, expected "
                           << 2 * npairs + 1);
    TINYADC_CHECK(s.seg[0] == 0,
                  "layer " << layer.name
                           << ": plan segment table does not start at 0");
    for (std::size_t i = 1; i < s.seg.size(); ++i)
      TINYADC_CHECK(s.seg[i] >= s.seg[i - 1],
                    "layer " << layer.name
                             << ": plan segments are not monotone");
    const auto slots = static_cast<std::size_t>(s.seg[s.seg.size() - 1]);
    TINYADC_CHECK(
        s.row.size() == slots && s.mag.size() == slots &&
            s.denom.size() == slots &&
            s.level.size() == slots * static_cast<std::size_t>(slices) &&
            s.var.size() == slots * static_cast<std::size_t>(slices),
        "layer " << layer.name
                 << ": plan stream lengths disagree with the segment "
                    "table (" << slots << " row slots)");
    const std::int32_t max_level = (1 << cfg.cell_bits) - 1;
    const std::int32_t max_mag =
        static_cast<std::int32_t>(
            (std::int64_t{1} << (slices * cfg.cell_bits)) - 1);
    for (std::size_t k = 0; k + 1 < s.seg.size(); ++k) {
      const auto i0 = static_cast<std::size_t>(s.seg[k]);
      const auto i1 = static_cast<std::size_t>(s.seg[k + 1]);
      const std::size_t len = i1 - i0;
      const std::size_t lbase = i0 * static_cast<std::size_t>(slices);
      for (std::size_t i = 0; i < len; ++i) {
        const std::int32_t row = s.row[i0 + i];
        TINYADC_CHECK(row >= 0 && static_cast<std::int64_t>(row) <
                                      layer.rows,
                      "layer " << layer.name << ": plan slot reads "
                               << "activation row " << row);
        TINYADC_CHECK(i == 0 || s.row[i0 + i - 1] < row,
                      "layer " << layer.name
                               << ": plan segment rows are not ascending");
        const std::int32_t mag = s.mag[i0 + i];
        TINYADC_CHECK(mag > 0 && mag <= max_mag,
                      "layer " << layer.name
                               << ": plan slot holds magnitude " << mag);
        std::int32_t recomposed = 0;
        for (int sl = 0; sl < slices; ++sl) {
          const std::int32_t level =
              s.level[lbase + static_cast<std::size_t>(sl) * len + i];
          TINYADC_CHECK(level >= 0 && level <= max_level,
                        "layer " << layer.name
                                 << ": plan slot holds cell level "
                                 << level);
          const float vf =
              s.var[lbase + static_cast<std::size_t>(sl) * len + i];
          TINYADC_CHECK(std::isfinite(vf) && vf > 0.0F,
                        "layer " << layer.name
                                 << ": non-finite plan variation factor");
          recomposed += level << (sl * cfg.cell_bits);
        }
        TINYADC_CHECK(recomposed == mag,
                      "layer " << layer.name
                               << ": plan slot slices recompose to "
                               << recomposed << ", magnitude says " << mag);
        TINYADC_CHECK(std::isfinite(s.denom[i0 + i]) &&
                          s.denom[i0 + i] > 0.0,
                      "layer " << layer.name
                               << ": non-finite plan IR divisor");
      }
    }
  }
  return std::unique_ptr<AnalogLayerSim>(
      new AnalogLayerSim(layer, config, std::move(s)));
}

std::vector<AnalogLayerSim> make_network_sims(const xbar::MappedNetwork& net,
                                              const MsimConfig& config) {
  std::vector<AnalogLayerSim> sims;
  sims.reserve(net.layers.size());
  for (const auto& layer : net.layers) sims.emplace_back(layer, config);
  return sims;
}

}  // namespace tinyadc::msim
