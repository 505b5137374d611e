// Functional simulation of bit-serial analog matrix-vector multiplication.
//
// Pipeline per MVM (mirroring ISAAC's datapath):
//   1. DAC: each unsigned activation code streams in v-bit chunks.
//   2. Crossbar: per cycle, every (block, logical column, slice plane,
//      polarity) produces an analog sum Σ_rows chunk[r] · cell_level[r]
//      in LSB units; zero weights contribute nothing (their cells sit at
//      G_off), which is how CP pruning deactivates rows.
//   3. Sample & hold + ADC: each analog sum is digitized by the block's ADC
//      (Eq. 1-sized by default, overridable to study clipping).
//   4. Shift & add: digital accumulation re-weights codes by input-cycle
//      (·2^{t·v}), slice plane (·2^{s·cell_bits}) and polarity (±).
//
// With variation_sigma == 0 the result equals the integer reference MVM
// exactly whenever the ADC satisfies Eq. 1 (property P2). With variation,
// each cell's level is perturbed once at construction (a programmed chip)
// and the ADC's nearest-code rounding either absorbs the error (< ½ LSB per
// column) or not — the basis of the robustness analyses.
//
// Execution cost: CP pruning guarantees at most l ≪ r active rows per
// column, and the cell programming is static, so the per-column
// decomposition (signs, slice levels, variation, IR-drop attenuation) is
// hoisted into a packed execution plan at construction. The plan is stored
// as column-blocked SoA streams — one contiguous segment of active rows per
// (block, column, polarity), with separate row-index / magnitude /
// per-slice level / variation / IR-divisor arrays — so the inner loops are
// flat array sweeps the compiler can vectorize. The execution path is a
// pure function of the layer and the configuration, one per datapath
// regime (see DESIGN.md §12):
//
//   fused     ideal datapath whose ADC provably never clips: the
//             shift-and-add over (slice, cycle) telescopes exactly into
//             one sparse integer dot product Σ |q_i|·x_i per polarity.
//             Batches run lane-major: many input vectors (e.g. every
//             patch column of a conv batch) share one plan walk, each
//             row slot scaling a contiguous tile of lanes.
//   vector    ideal datapath that may clip (an ADC below Eq. 1): per-cycle
//             chunk gather + per-slice integer multiply-accumulate over
//             the rectangular level stream, saturating each conversion.
//   general   non-ideal (variation / IR drop): ordered sweep skipping
//             zero levels, bit-identical to the dense float accumulation.
//
// plus the dense row scan (MsimConfig::use_plan = false), the reference
// oracle. All paths are bit-identical — outputs AND ADC counters — to that
// oracle, at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "artifact/array_ref.hpp"
#include "msim/adc.hpp"
#include "msim/dac.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::artifact {
class SectionWriter;
class SectionReader;
}  // namespace tinyadc::artifact

namespace tinyadc::msim {

/// Which inner loop executes a layer's MVMs (AnalogLayerSim::exec_path()).
/// Resolved once per layer from the datapath's properties, never chosen.
enum class ExecPath : std::uint8_t {
  kFused = 0,    ///< ideal datapath whose ADC provably never clips
  kVector = 1,   ///< ideal datapath that may clip
  kGeneral = 2,  ///< non-ideal datapath (variation / IR drop)
  kDense = 3,    ///< MsimConfig::use_plan == false: the dense oracle
};

/// Simulation knobs.
struct MsimConfig {
  int adc_bits_override = -1;    ///< −1: per-layer Eq. 1 sizing; ≥0: forced
  double variation_sigma = 0.0;  ///< relative conductance spread (paper: 0.1)
  /// Wire-resistance (IR-drop) coefficient: a cell `r` rows down the
  /// bitline sees its contribution attenuated by 1 / (1 + α·(r+1)/rows·L),
  /// where L is the column's share of the total current (here: the number
  /// of active cells above it, normalized). α = 0 is the ideal wire. CP
  /// pruning reduces the current each bitline aggregates, so pruned
  /// columns suffer proportionally less IR drop — an analog-domain benefit
  /// on top of the ADC saving.
  double ir_drop_alpha = 0.0;
  std::uint64_t seed = 99;       ///< variation draw seed
  /// Execute through the sparsity-packed per-column plan built at
  /// construction (O(l) work per column, l = active rows). `false` keeps
  /// the legacy dense row scan (O(r) per column) — the golden reference the
  /// packed plan is verified against bit-for-bit (outputs *and* ADC
  /// counters) by tests/msim_plan_test.cpp.
  bool use_plan = true;
};

/// Artifact (de)serialization of the simulation knobs (PLANS section).
void serialize(const MsimConfig& config, artifact::SectionWriter& w);
MsimConfig deserialize_msim_config(artifact::SectionReader& r);

/// Aggregate statistics from a simulation run.
struct MsimStats {
  std::int64_t adc_conversions = 0;
  std::int64_t adc_clip_events = 0;
  std::int64_t dac_cycles = 0;
};

/// Simulates one mapped layer's analog MVM datapath.
///
/// Construction snapshots the layer into a sparsity-packed execution plan
/// (see MsimConfig::use_plan), so the mapped layer must not be mutated for
/// the lifetime of the sim. Construction also verifies that the largest
/// shifted ADC code the shift-and-add stage can produce fits the int64
/// accumulator (throws CheckError on overflow-prone configurations instead
/// of silently wrapping).
class AnalogLayerSim {
 public:
  AnalogLayerSim(const xbar::MappedLayer& layer, MsimConfig config);

  /// Writes the compiled execution state — ADC sizing, programmed variation
  /// draws, and the canonical SoA plan streams — into a deployment
  /// artifact, so a redeployment can *load* the plan instead of recompiling
  /// it.
  void serialize(artifact::SectionWriter& w) const;

  /// Reconstructs a simulator from state written by serialize(). Never
  /// invokes the plan compiler (build_plan) or redraws variation: the
  /// restored sim executes exactly the serialized operands, and every
  /// structural invariant of the plan is re-validated against `layer`.
  static std::unique_ptr<AnalogLayerSim> deserialize(
      const xbar::MappedLayer& layer, MsimConfig config,
      artifact::SectionReader& r);

  /// Process-wide count of plan compilations (build_plan runs). Lets tests
  /// and benches prove that artifact loading touches no compilation path.
  static std::int64_t plan_compilations();

  /// Integer-domain MVM: unsigned activation codes in, signed column sums
  /// out (same contract as xbar::reference_mvm). Crossbar blocks convert in
  /// parallel ("all arrays in parallel", like the hardware) with a
  /// fixed-order merge, so results and statistics are bit-identical at any
  /// thread count; concurrent mvm() calls on one sim are also safe (the
  /// statistics merge is the only shared mutation and is locked).
  std::vector<std::int64_t> mvm(const std::vector<std::int32_t>& x);

  /// Batched integer MVM: `xs` holds `batch` row-major samples of
  /// layer-rows codes each; the result holds `batch` rows of layer-cols
  /// sums. Equivalent to `batch` mvm() calls (outputs and statistics
  /// bit-identical, dac_cycles advances once per sample). On the fused
  /// path the samples are transposed into lanes and share one plan walk
  /// per lane tile.
  std::vector<std::int64_t> mvm_batch(const std::vector<std::int32_t>& xs,
                                      std::int64_t batch);

  /// Real-domain MVM: quantizes `x_real` with `x_quant`, runs the analog
  /// datapath, and rescales the digital result to real units. Inputs must
  /// be non-negative (post-ReLU activations).
  std::vector<float> mvm_real(const std::vector<float>& x_real,
                              const xbar::QuantParams& x_quant);

  /// Signed-input variant: splits the input into its positive and negative
  /// parts, streams each through the crossbar separately, and subtracts
  /// digitally — the standard two-phase scheme for pre-activation inputs
  /// (e.g. the first conv layer's raw pixels).
  std::vector<float> mvm_real_signed(const std::vector<float>& x_real,
                                     const xbar::QuantParams& x_quant);

  /// Batched real-domain MVM over `batch` row-major samples; handles the
  /// signed two-phase split internally. Bit-identical to per-sample
  /// mvm_real / mvm_real_signed calls.
  std::vector<float> mvm_real_batch(const std::vector<float>& xs,
                                    std::int64_t batch,
                                    const xbar::QuantParams& x_quant,
                                    bool signed_input);

  /// Lane-major real-domain MVM, the conv hook's entry point: `x` is a
  /// row-major (layer rows × lanes) matrix whose columns ("lanes") are
  /// independent input vectors — e.g. the im2col patch columns of a whole
  /// batch — and `y` (caller-allocated, layer cols × lanes) receives one
  /// result column per lane. Outputs and statistics are bit-identical to
  /// mvm_real_batch over the transposed samples. The fused path quantizes
  /// and executes lane-major directly; every other path transposes into
  /// mvm_real_batch and back.
  void mvm_real_lanes(const float* x, std::int64_t lanes,
                      const xbar::QuantParams& x_quant, bool signed_input,
                      float* y);

  /// The ADC resolution in use.
  int adc_bits() const { return adc_.bits(); }
  /// The inner loop this layer's MVMs run through.
  ExecPath exec_path() const { return exec_path_; }
  /// Statistics accumulated over all mvm() calls. Unsynchronized view —
  /// only read while no mvm() is in flight.
  const MsimStats& stats() const { return stats_; }
  /// Locked copy of the statistics; safe to call while concurrent mvm()
  /// calls are running (used by the fleet's live stats snapshot).
  MsimStats stats_snapshot() const;
  /// Zeroes statistics.
  void reset_stats();

 private:
  // Execution state restored from an artifact (see deserialize()): the
  // canonical SoA streams documented at the soa_* members below. The
  // stream arrays are ArrayRefs: a payload read from a mapped artifact
  // restores them as borrowed spans over the mapping (zero-copy — the
  // SectionReader's keeper holds the MappedFile alive), while copied loads
  // restore owned vectors. Either way the executors see the same bytes.
  struct RestoredState {
    int adc_bits = 0;
    bool plan_ideal = false;
    std::vector<std::vector<float>> variation;
    artifact::ArrayRef<std::int64_t> out;
    artifact::ArrayRef<std::uint64_t> seg;
    artifact::ArrayRef<std::int32_t> row;
    artifact::ArrayRef<std::int32_t> mag;
    artifact::ArrayRef<std::int32_t> level;
    artifact::ArrayRef<float> var;
    artifact::ArrayRef<double> denom;
  };

  AnalogLayerSim(const xbar::MappedLayer& layer, MsimConfig config,
                 RestoredState&& restored);
  void check_accumulator_headroom() const;

  void build_plan();
  // Computes the worst-case sums from the SoA streams and resolves the
  // execution path from them. Shared by build_plan and deserialize so a
  // loaded plan provably dispatches through the same inner loops.
  void finalize_plan();

  // Per-sample executors: read layer_rows codes at `x`, add column sums
  // into the caller's per-pair slots. All executors convert pairs
  // [p0, p1) and accumulate that range's ADC counters.
  void exec_pairs(const std::int32_t* x, const std::int32_t* chunks,
                  std::int64_t p0, std::int64_t p1, std::int64_t* pair_acc,
                  AdcCounters& counters) const;

  // The fused plan loop (DESIGN.md §12). For lanes [l0, l0 + lanes) of a
  // lane-major code matrix (row r of lane l at codes[r·ld + l]; at most
  // one lane tile) it adds every pair pi ∈ [p0, p1)'s
  // Σ|q|·x(+) − Σ|q|·x(−) into row (by_column ? soa_out_[pi] : pi) of the
  // dst_ld-wide int64 matrix `dst`, at the same columns. Acc is the
  // per-polarity partial's type (int32 whenever worst_fused_sum_ fits
  // it); kLanes fixes the lane count at compile time (0: `lanes` at run
  // time). fused_pairs picks both.
  template <typename Acc, std::size_t kLanes>
  void fused_sweep(const std::int32_t* codes, std::size_t ld, std::size_t l0,
                   std::size_t lanes, std::int64_t p0, std::int64_t p1,
                   std::int64_t* dst, std::size_t dst_ld,
                   bool by_column) const;
  void fused_pairs(const std::int32_t* codes, std::size_t ld, std::size_t l0,
                   std::size_t n, std::int64_t p0, std::int64_t p1,
                   std::int64_t* dst, std::size_t dst_ld,
                   bool by_column) const;
  // Fused execution of `lanes` input vectors, one lane tile at a time
  // (tiles fan out over the pool). Per tile and phase (signed inputs run
  // two), load(l0, n, phase, codes) fills the tile's (rows × n) codes;
  // after all phases, store(l0, n, sums) receives each phase's (cols × n)
  // sums at sums[phase·cols·n]. Only tile-sized buffers are allocated;
  // counters merge in bulk. Defined in analog_mvm.cpp.
  template <typename Load, typename Store>
  void fused_tiles(std::int64_t lanes, int phases, const Load& load,
                   const Store& store);
  std::vector<std::int64_t> mvm_packed(const std::vector<std::int32_t>& x);
  std::vector<std::int64_t> mvm_dense(const std::vector<std::int32_t>& x);
  // Validates one sample's codes and splits them into the flat per-cycle
  // chunk buffer ([t*n + r] layout) when `chunks` is non-null.
  void dac_split(const std::int32_t* x, std::int32_t* chunks) const;
  void merge_stats(const AdcCounters& counters, std::int64_t dac_cycles);

  const xbar::MappedLayer& layer_;
  MsimConfig config_;
  Adc adc_;
  // Per-block per-cell multiplicative variation factors for the magnitude
  // slices, laid out [block][r * cols * slices + c * slices + s].
  std::vector<std::vector<float>> variation_;

  // --- Canonical SoA execution plan (built when config_.use_plan) ---------
  // For every (block, logical column) conversion pair pi and polarity pol,
  // segment k = 2·pi + pol holds that plane-group's active rows in
  // ascending order: soa_seg_ is the CSR offset table over the row slots,
  // soa_row_[i] the flat DAC-chunk (activation) index, soa_mag_[i] the
  // whole weight magnitude |q| (= Σ_s level·2^{s·cell_bits}), and
  // soa_denom_[i] the per-row IR-drop divisor. Slice-resolved streams are
  // rectangular (zeros included) and slice-major per segment:
  // soa_level_/soa_var_ at [soa_seg_[k]·slices + s·len_k + local_i]. The
  // rectangle is bit-safe for the integer paths (zero levels add nothing)
  // and lets every slice of a segment stream contiguously.
  // The streams are ArrayRefs (artifact/array_ref.hpp): plan compilation
  // produces owned vectors, while a mapped artifact load restores them
  // as read-only spans over the file mapping (zero-copy; the ArrayRef's
  // keeper pins the MappedFile). Executors only read, so both storage
  // modes run the same inner loops on the same bytes.
  artifact::ArrayRef<std::int64_t> soa_out_;   // pair → original output col
  artifact::ArrayRef<std::uint64_t> soa_seg_;  // 2·pairs + 1 slot offsets
  artifact::ArrayRef<std::int32_t> soa_row_;   // slot → flat DAC-chunk index
  artifact::ArrayRef<std::int32_t> soa_mag_;   // slot → weight magnitude |q|
  artifact::ArrayRef<std::int32_t> soa_level_; // slot×slice → level (rect.)
  artifact::ArrayRef<float> soa_var_;          // slot×slice → variation
  artifact::ArrayRef<double> soa_denom_;       // slot → IR-drop divisor

  bool plan_ideal_ = false;  // no variation and no IR drop: integer datapath
  // Fused-path predicate: the worst-case plane sum (all chunks at full
  // scale) over every (pair, polarity, slice) plane. When it fits the
  // ADC's full scale no conversion can ever clip, so the shift-and-add
  // telescopes exactly (DESIGN.md §12).
  std::int64_t worst_plane_sum_ = 0;
  // Largest worst-case fused per-polarity partial Σ |q|·x — when it fits
  // int32 the fused dot accumulates in 32-bit lanes (twice the SIMD width).
  std::int64_t worst_fused_sum_ = 0;
  ExecPath exec_path_ = ExecPath::kDense;
  // Approximate per-MVM inner-loop work (weighted row slots; see
  // finalize_plan). Plans below the parallel threshold execute their pair
  // sweep inline — the pool's dispatch overhead dominates tiny plans, and
  // the serial sweep is the reference path, so results stay bit-identical.
  std::int64_t plan_work_ = 0;

  MsimStats stats_;
  // Guards stats_/adc_ counter merges under concurrent mvm() calls (held in
  // a unique_ptr so the sim stays movable for make_network_sims).
  std::unique_ptr<std::mutex> stats_mu_;
};

/// Convenience: simulate every layer of a mapped network on one shared
/// config, returning per-layer simulators.
std::vector<AnalogLayerSim> make_network_sims(const xbar::MappedNetwork& net,
                                              const MsimConfig& config);

}  // namespace tinyadc::msim
