// The software binary16 codec behind f16 table images
// (serving/quantize.h): pinned encodings across the subnormal range,
// where rounding works on the shifted float mantissa, and an exhaustive
// round trip over every finite half.
#include "serving/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace cav::serving {
namespace {

TEST(F16CodecTest, SubnormalEncodingsArePinned) {
  // The half subnormal unit is 2^-24.
  const struct {
    float value;
    std::uint16_t half;
  } pins[] = {
      {std::ldexp(1.0F, -15), 0x0200},
      {std::ldexp(1.0F, -24), 0x0001},
      {std::ldexp(1.5F, -16), 0x0180},
      {std::ldexp(1.0F, -25), 0x0000},     // half a unit: tie to even (0)
      {std::ldexp(1.5F, -24), 0x0002},     // tie to even (2)
      {std::ldexp(2.5F, -24), 0x0002},     // tie to even (2)
      {std::ldexp(1023.0F, -24), 0x03FF},  // largest subnormal
      {std::ldexp(1023.5F, -24), 0x0400},  // tie carries into the exponent
      {-std::ldexp(1.0F, -15), 0x8200},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(f16_encode(pin.value), pin.half) << std::hexfloat << pin.value;
  }
}

TEST(F16CodecTest, EveryFiniteHalfRoundTrips) {
  int finite = 0;
  int failures = 0;
  for (std::uint32_t h = 0; h <= 0xFFFFU; ++h) {
    if ((h & 0x7C00U) == 0x7C00U) continue;  // inf / nan
    ++finite;
    const auto half = static_cast<std::uint16_t>(h);
    if (f16_encode(f16_decode(half)) != half && ++failures <= 5) {
      ADD_FAILURE() << std::hex << "half 0x" << h << " re-encodes to 0x"
                    << f16_encode(f16_decode(half));
    }
  }
  EXPECT_EQ(finite, 63488);
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace cav::serving
