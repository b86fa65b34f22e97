// XXH64, the 64-bit xxHash of Yann Collet (reference: the xxHash
// specification, "XXH64 algorithm description"): the TableImage checksum
// (serving/table_image.h).
//
// Four independent multiply-rotate lanes over 32-byte stripes run at
// memory speed, so an image open can afford to hash every byte of the
// file.  A word-wise FNV would be fast too, but weak: its multiply only
// carries a difference upward, so two flips of the same high bit cancel.
// Input words are read in host byte order; on the little-endian hosts the
// fleet runs on this is the specified XXH64.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cav::serving {

/// Streaming XXH64 with seed 0: update() any number of times, then
/// digest().  Splitting the input differently gives the same digest.
class Xxh64 {
 public:
  Xxh64();

  void update(const void* data, std::size_t bytes);
  std::uint64_t digest() const;

 private:
  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  unsigned char stripe_[32];  ///< a partial stripe waiting for more input
  std::size_t buffered_ = 0;
};

}  // namespace cav::serving
