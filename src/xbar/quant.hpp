// Fixed-point weight/activation quantization and MLC bit-slicing.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace tinyadc::xbar {

/// Symmetric linear quantizer parameters: real ≈ q · scale with
/// q ∈ [−(2^(bits−1)−1), 2^(bits−1)−1] for signed, [0, 2^bits−1] unsigned.
struct QuantParams {
  int bits = 8;
  float scale = 1.0F;
};

/// Chooses a scale so that `max_abs` maps to the largest signed code.
QuantParams fit_signed(float max_abs, int bits);
/// Chooses a scale so that `max_value` maps to the largest unsigned code.
QuantParams fit_unsigned(float max_value, int bits);

/// The one quantizer: v / scale rounded to nearest with ties away from
/// zero (std::lround's rounding), saturated to [lo, hi] (lo <= 0 <= hi).
/// Saturation happens in the floating domain *before* narrowing, so values
/// far out of range — including ±inf — clamp to the nearest bound instead
/// of wrapping through a 64→32-bit conversion, and NaN maps to 0. The body
/// is branch-free: the batch quantize passes of msim inline it into loops
/// the compiler vectorizes.
inline std::int32_t quantize_code(float v, float scale, std::int32_t lo,
                                  std::int32_t hi) {
  float q = v / scale;
  q = q == q ? q : 0.0F;  // NaN → 0
  const auto flo = static_cast<float>(lo);
  const auto fhi = static_cast<float>(hi);
  q = q < flo ? flo : q;
  q = q > fhi ? fhi : q;
  // Code ranges are at most 16 bits wide, so |q| <= 2^16 here: the
  // truncation is exact, and so is the fraction (a float's fractional part
  // is always representable).
  const auto t = static_cast<std::int32_t>(q);
  const float frac = q - static_cast<float>(t);
  return t + static_cast<std::int32_t>(frac >= 0.5F) -
         static_cast<std::int32_t>(frac <= -0.5F);
}

/// Quantizes one value to a signed code (round-to-nearest, saturating).
inline std::int32_t quantize_signed(float v, const QuantParams& p) {
  const std::int32_t qmax = (1 << (p.bits - 1)) - 1;
  return quantize_code(v, p.scale, -qmax, qmax);
}
/// Quantizes one value to an unsigned code (negative inputs clamp to 0).
inline std::int32_t quantize_unsigned(float v, const QuantParams& p) {
  return quantize_code(v, p.scale, 0, (1 << p.bits) - 1);
}
/// Reconstructs the real value of a code.
float dequantize(std::int32_t q, const QuantParams& p);

/// Number of `cell_bits` cells needed for a (bits−1)-bit magnitude.
int cells_per_weight(int weight_bits, int cell_bits);

/// Splits a non-negative magnitude into `num_slices` little-endian
/// `cell_bits`-wide slices: magnitude = Σ slice[j] · 2^(j·cell_bits).
std::vector<int> slice_magnitude(std::int32_t magnitude, int cell_bits,
                                 int num_slices);

/// Inverse of slice_magnitude.
std::int32_t unslice_magnitude(const std::vector<int>& slices, int cell_bits);

}  // namespace tinyadc::xbar
