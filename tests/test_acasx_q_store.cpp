// The owned Q store's storage: QStore(count) is the solvers' write target,
// prefaulted in one call (util/pages.h) and still all zeros, whether the
// allocator maps fresh pages or hands back a block freed earlier.
#include "acasx/q_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/pages.h"

namespace cav::acasx {
namespace {

constexpr std::size_t kTwoMiBFloats = (std::size_t{2} << 20) / sizeof(float);

bool all_zero(const QStore& store) {
  return std::all_of(store.values(), store.values() + store.size(),
                     [](float q) { return q == 0.0F; });
}

TEST(QStoreTest, FreshStoreIsZeroBelowAndAboveTwoMiB) {
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{1000}, kTwoMiBFloats - 1, kTwoMiBFloats + 1,
        5 * kTwoMiBFloats}) {
    const QStore store(count);
    ASSERT_EQ(store.size(), count);
    EXPECT_FALSE(store.is_mapped());
    EXPECT_TRUE(all_zero(store)) << count << " floats";
  }
}

TEST(QStoreTest, FreshStoreIsZeroInAReusedBlock) {
  for (const std::size_t count :
       {kTwoMiBFloats / 2, kTwoMiBFloats + 1, 5 * kTwoMiBFloats}) {
    // A block of the same size full of nonzero values, freed just before
    // the store asks for one: the allocator may hand it straight back.
    { const std::vector<float> garbage(count, -1.5F); }
    const QStore store(count);
    EXPECT_TRUE(all_zero(store)) << count << " floats";
  }
}

TEST(PagesTest, ResizePrefaultedKeepsElementsAndZeroesTheRest) {
  std::vector<std::uint32_t> v{7, 8, 9};
  resize_prefaulted(v, kTwoMiBFloats + 3);
  ASSERT_EQ(v.size(), kTwoMiBFloats + 3);
  EXPECT_EQ(v[0], 7U);
  EXPECT_EQ(v[2], 9U);
  EXPECT_TRUE(std::all_of(v.begin() + 3, v.end(), [](std::uint32_t x) { return x == 0; }));
}

TEST(PagesTest, PrefaultLeavesContentsUnchanged) {
  std::vector<double> v(3 * 4096, 2.5);
  prefault_writable(v.data(), v.size() * sizeof(double));
  prefault_writable(v.data() + 1, 3);  // less than a page: nothing to do
  EXPECT_TRUE(std::all_of(v.begin(), v.end(), [](double x) { return x == 2.5; }));
}

}  // namespace
}  // namespace cav::acasx
