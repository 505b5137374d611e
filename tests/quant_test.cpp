// Quantization and MLC slicing round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "xbar/quant.hpp"

namespace tinyadc::xbar {
namespace {

TEST(Quant, SignedFitMapsExtremes) {
  const auto p = fit_signed(2.0F, 8);
  EXPECT_EQ(quantize_signed(2.0F, p), 127);
  EXPECT_EQ(quantize_signed(-2.0F, p), -127);
  EXPECT_EQ(quantize_signed(0.0F, p), 0);
}

TEST(Quant, SignedSaturates) {
  const auto p = fit_signed(1.0F, 8);
  EXPECT_EQ(quantize_signed(5.0F, p), 127);
  EXPECT_EQ(quantize_signed(-5.0F, p), -127);
}

TEST(Quant, UnsignedFitMapsRange) {
  const auto p = fit_unsigned(1.0F, 8);
  EXPECT_EQ(quantize_unsigned(1.0F, p), 255);
  EXPECT_EQ(quantize_unsigned(0.0F, p), 0);
  EXPECT_EQ(quantize_unsigned(-0.5F, p), 0);  // negatives clamp
}

TEST(Quant, ZeroRangeUsesUnitScale) {
  const auto p = fit_signed(0.0F, 8);
  EXPECT_FLOAT_EQ(p.scale, 1.0F);
}

TEST(Quant, DequantizeInvertsWithinHalfStep) {
  const auto p = fit_signed(3.0F, 8);
  for (float v : {-3.0F, -1.7F, 0.0F, 0.4F, 2.99F}) {
    const float back = dequantize(quantize_signed(v, p), p);
    EXPECT_NEAR(back, v, p.scale * 0.5F + 1e-6F);
  }
}

TEST(Quant, BitBoundsValidated) {
  EXPECT_THROW(fit_signed(1.0F, 1), tinyadc::CheckError);
  EXPECT_THROW(fit_signed(1.0F, 17), tinyadc::CheckError);
  EXPECT_THROW(fit_unsigned(1.0F, 0), tinyadc::CheckError);
}

QuantParams unit_scale(int bits) {
  QuantParams p;
  p.bits = bits;
  p.scale = 1.0F;
  return p;
}

TEST(Quant, RoundsTiesAwayFromZero) {
  const auto p = unit_scale(8);
  for (int k = 0; k < 127; ++k) {
    const float tie = static_cast<float>(k) + 0.5F;
    EXPECT_EQ(quantize_unsigned(tie, p), k + 1) << tie;
    EXPECT_EQ(quantize_signed(tie, p), k + 1) << tie;
    EXPECT_EQ(quantize_signed(-tie, p), -(k + 1)) << -tie;
  }
  // The largest float below 0.5: adding 0.5 and truncating would round
  // it up; lround (and the quantizer) must not.
  EXPECT_EQ(quantize_unsigned(0.49999997F, p), 0);
  EXPECT_EQ(quantize_signed(0.49999997F, p), 0);
  EXPECT_EQ(quantize_signed(-0.49999997F, p), 0);
}

TEST(Quant, HalfStepsAroundQmax) {
  const auto p = unit_scale(8);
  EXPECT_EQ(quantize_unsigned(254.5F, p), 255);
  EXPECT_EQ(quantize_unsigned(254.49F, p), 254);
  EXPECT_EQ(quantize_unsigned(255.5F, p), 255);
  EXPECT_EQ(quantize_signed(126.5F, p), 127);
  EXPECT_EQ(quantize_signed(126.49F, p), 126);
  EXPECT_EQ(quantize_signed(127.5F, p), 127);
  EXPECT_EQ(quantize_signed(-126.5F, p), -127);
  EXPECT_EQ(quantize_signed(-127.5F, p), -127);
}

TEST(Quant, NegativeInputs) {
  const auto p = unit_scale(8);
  EXPECT_EQ(quantize_unsigned(-3.7F, p), 0);
  EXPECT_EQ(quantize_unsigned(-0.0F, p), 0);
  EXPECT_EQ(quantize_signed(-3.7F, p), -4);
  EXPECT_EQ(quantize_signed(-3.2F, p), -3);
}

TEST(Quant, SaturatesFarOutOfRangeWithoutWrapping) {
  // v / scale = 3e9 overflows int32: narrowing before clamping used to
  // wrap it negative (unsigned → 0, signed → −qmax).
  QuantParams p = unit_scale(8);
  p.scale = 0.5F;
  EXPECT_EQ(quantize_unsigned(1.5e9F, p), 255);
  EXPECT_EQ(quantize_signed(1.5e9F, p), 127);
  EXPECT_EQ(quantize_unsigned(-1.5e9F, p), 0);
  EXPECT_EQ(quantize_signed(-1.5e9F, p), -127);
  EXPECT_EQ(quantize_unsigned(1e30F, p), 255);
  EXPECT_EQ(quantize_signed(1e30F, p), 127);
  EXPECT_EQ(quantize_signed(-1e30F, p), -127);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quantize_unsigned(inf, p), 255);
  EXPECT_EQ(quantize_signed(inf, p), 127);
  EXPECT_EQ(quantize_unsigned(-inf, p), 0);
  EXPECT_EQ(quantize_signed(-inf, p), -127);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(quantize_unsigned(nan, p), 0);
  EXPECT_EQ(quantize_signed(nan, p), 0);
}

TEST(Quant, MatchesLroundAcrossTheFloatLine) {
  // Strided sweep over every float bit pattern: wherever v / scale fits a
  // long, the quantizer must equal std::lround clamped to the code range.
  for (const int bits : {1, 4, 8, 16}) {
    for (const float scale : {1.0F, 0.043F, 3.7F}) {
      QuantParams p;
      p.bits = bits;
      p.scale = scale;
      const long umax = (1L << bits) - 1;
      const long smax = (1L << (bits - 1)) - 1;
      std::int64_t checked = 0;
      for (std::uint64_t u = 0; u <= 0xFFFFFFFFULL; u += 4093) {
        const auto v = std::bit_cast<float>(static_cast<std::uint32_t>(u));
        const float q = v / scale;
        if (!std::isfinite(q) || std::fabs(q) >= 1e18F) continue;
        const long r = std::lround(q);
        ASSERT_EQ(quantize_unsigned(v, p), std::clamp(r, 0L, umax))
            << "v=" << v << " bits=" << bits << " scale=" << scale;
        if (bits >= 2) {
          ASSERT_EQ(quantize_signed(v, p), std::clamp(r, -smax, smax))
              << "v=" << v << " bits=" << bits << " scale=" << scale;
        }
        ++checked;
      }
      // Dense pass over the code range itself, where rounding matters.
      for (long k = -umax - 2; k <= umax + 2; ++k)
        for (const float f : {0.0F, 0.25F, 0.49999997F, 0.5F, 0.50000006F,
                              0.75F}) {
          for (const float v : {(static_cast<float>(k) + f) * scale,
                                (static_cast<float>(k) - f) * scale}) {
            const long r = std::lround(v / scale);
            ASSERT_EQ(quantize_unsigned(v, p), std::clamp(r, 0L, umax))
                << "v=" << v;
            if (bits >= 2) {
              ASSERT_EQ(quantize_signed(v, p), std::clamp(r, -smax, smax))
                  << "v=" << v;
            }
          }
        }
      EXPECT_GT(checked, 500000);
    }
  }
}

TEST(CellsPerWeight, PaperConfiguration) {
  // 8-bit weights (7-bit magnitude + differential sign) on 2-bit MLCs → 4.
  EXPECT_EQ(cells_per_weight(8, 2), 4);
  EXPECT_EQ(cells_per_weight(8, 3), 3);
  EXPECT_EQ(cells_per_weight(4, 2), 2);
  EXPECT_EQ(cells_per_weight(2, 1), 1);
}

TEST(Slice, RoundTripsAllMagnitudes) {
  for (std::int32_t mag = 0; mag <= 127; ++mag) {
    const auto slices = slice_magnitude(mag, 2, 4);
    EXPECT_EQ(unslice_magnitude(slices, 2), mag);
  }
}

TEST(Slice, LittleEndianOrder) {
  const auto slices = slice_magnitude(0b01'10'11, 2, 3);
  EXPECT_EQ(slices[0], 0b11);
  EXPECT_EQ(slices[1], 0b10);
  EXPECT_EQ(slices[2], 0b01);
}

TEST(Slice, OverflowDetected) {
  EXPECT_THROW(slice_magnitude(128, 2, 3), tinyadc::CheckError);  // needs 4
  EXPECT_THROW(slice_magnitude(-1, 2, 4), tinyadc::CheckError);
}

/// Sweep: slicing round trip for every (cell_bits, magnitude) combination.
class SliceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SliceSweep, RoundTrip) {
  const int cell_bits = GetParam();
  const int slices = cells_per_weight(8, cell_bits);
  for (std::int32_t mag = 0; mag <= 127; mag += 3) {
    EXPECT_EQ(unslice_magnitude(slice_magnitude(mag, cell_bits, slices),
                                cell_bits),
              mag);
  }
}

INSTANTIATE_TEST_SUITE_P(CellBits, SliceSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tinyadc::xbar
