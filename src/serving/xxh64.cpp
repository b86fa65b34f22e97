#include "serving/xxh64.h"

#include <algorithm>
#include <cstring>

namespace cav::serving {
namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  return rotl(acc + input * kP2, 31) * kP1;
}

constexpr std::uint64_t merge_round(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ lane_round(0, lane)) * kP1 + kP4;
}

/// Fold whole 32-byte stripes into the lanes; returns the bytes consumed.
std::size_t consume_stripes(std::uint64_t (&lanes)[4], const unsigned char* p,
                            std::size_t bytes) {
  std::uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2], v4 = lanes[3];
  const std::size_t whole = bytes / 32 * 32;
  for (const unsigned char* end = p + whole; p != end; p += 32) {
    v1 = lane_round(v1, read64(p));
    v2 = lane_round(v2, read64(p + 8));
    v3 = lane_round(v3, read64(p + 16));
    v4 = lane_round(v4, read64(p + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
  return whole;
}

}  // namespace

Xxh64::Xxh64() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64::update(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += bytes;
  if (buffered_ > 0) {
    const std::size_t take = std::min(bytes, sizeof stripe_ - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    bytes -= take;
    if (buffered_ < sizeof stripe_) return;
    consume_stripes(lanes_, stripe_, sizeof stripe_);
    buffered_ = 0;
  }
  const std::size_t consumed = consume_stripes(lanes_, p, bytes);
  buffered_ = bytes - consumed;
  if (buffered_ > 0) std::memcpy(stripe_, p + consumed, buffered_);
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t h;
  if (total_ >= 32) {
    const auto [v1, v2, v3, v4] = lanes_;
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kP5;
  }
  h += total_;

  const unsigned char* p = stripe_;
  std::size_t left = buffered_;
  for (; left >= 8; p += 8, left -= 8) h = rotl(h ^ lane_round(0, read64(p)), 27) * kP1 + kP4;
  if (left >= 4) {
    h = rotl(h ^ (read32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) h = rotl(h ^ (*p * kP5), 11) * kP1;

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace cav::serving
