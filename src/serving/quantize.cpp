#include "serving/quantize.h"

#include <algorithm>
#include <cmath>

namespace cav::serving {

const char* quantization_name(Quantization q) {
  switch (q) {
    case Quantization::kNone: return "f32";
    case Quantization::kFloat16: return "f16";
    case Quantization::kInt8: return "int8";
  }
  return "?";
}

std::uint16_t f16_encode(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000U);
  const std::uint32_t abs = bits & 0x7FFFFFFFU;

  if (abs >= 0x7F800000U) {  // inf / nan
    const std::uint16_t mant = abs > 0x7F800000U ? 0x200U : 0U;  // keep nan-ness
    return static_cast<std::uint16_t>(sign | 0x7C00U | mant);
  }
  if (abs >= 0x477FF000U) {  // rounds to >= 2^16: overflow to inf
    return static_cast<std::uint16_t>(sign | 0x7C00U);
  }
  if (abs < 0x38800000U) {  // subnormal half (|x| < 2^-14), incl. zero
    if (abs < 0x33000000U) return sign;  // below 2^-25: rounds to zero
    // |x| = mant · 2^(e - 150) with the implicit bit restored, and the half
    // subnormal unit is 2^-24, so the half mantissa is mant >> shift with
    // shift = 126 - e, which is 14..24 on [2^-25, 2^-14).
    const std::uint32_t shift = 126U - (abs >> 23);
    const std::uint32_t mant = (abs & 0x7FFFFFU) | 0x800000U;
    const std::uint32_t rounded = mant >> shift;
    const std::uint32_t rem = mant & ((1U << shift) - 1U);
    const std::uint32_t half = 1U << (shift - 1);
    std::uint32_t out = rounded;
    // RNE; a carry out of 0x3FF lands on 0x400, the smallest normal: exact.
    if (rem > half || (rem == half && (rounded & 1U))) ++out;
    return static_cast<std::uint16_t>(sign | out);
  }
  // Normal range: re-bias exponent, round mantissa to 10 bits (RNE).
  std::uint32_t out = ((abs >> 13) & 0x3FFU) | ((((abs >> 23) - 112U) & 0x1FU) << 10);
  const std::uint32_t rem = abs & 0x1FFFU;
  if (rem > 0x1000U || (rem == 0x1000U && (out & 1U))) ++out;  // may carry into exponent: exact
  return static_cast<std::uint16_t>(sign | out);
}

std::vector<std::uint16_t> f16_quantize(std::span<const float> values) {
  std::vector<std::uint16_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = f16_encode(values[i]);
  return out;
}

std::vector<float> f16_dequantize(std::span<const std::uint16_t> values) {
  std::vector<float> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = f16_decode(values[i]);
  return out;
}

Int8Blocks int8_quantize(std::span<const float> values, std::size_t block_elems) {
  Int8Blocks out;
  out.block_elems = block_elems;
  out.values.resize(values.size());
  const std::size_t num_blocks = (values.size() + block_elems - 1) / block_elems;
  out.scale_offset.resize(2 * num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t begin = b * block_elems;
    const std::size_t end = std::min(values.size(), begin + block_elems);
    float lo = values[begin];
    float hi = values[begin];
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    const float scale = (hi - lo) / 255.0F;
    out.scale_offset[2 * b] = scale;
    out.scale_offset[2 * b + 1] = lo;
    for (std::size_t i = begin; i < end; ++i) {
      const float q = scale > 0.0F ? (values[i] - lo) / scale : 0.0F;
      out.values[i] = static_cast<std::uint8_t>(
          std::clamp(std::lround(q), 0L, 255L));
    }
  }
  return out;
}

std::vector<float> int8_dequantize(std::span<const std::uint8_t> values,
                                   std::span<const float> scale_offset,
                                   std::size_t block_elems) {
  std::vector<float> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t b = i / block_elems;
    out[i] = scale_offset[2 * b + 1] + scale_offset[2 * b] * static_cast<float>(values[i]);
  }
  return out;
}

}  // namespace cav::serving
