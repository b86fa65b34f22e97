// Length-prefixed frame protocol between dist drivers and cav_worker
// processes (pipes), plus the little-endian-host byte codec the payloads
// use.
//
// Frame layout on the wire:
//
//   u32 magic "CAVW" | u32 MsgType | u64 payload_bytes | payload ...
//
// The protocol is strictly request/response over private pipes, so there
// is no resync: any malformed byte — bad magic, unknown type, an
// over-limit length, or EOF inside a frame — is a ProtocolError and the
// peer is abandoned (the driver requeues its work; the worker exits).
// A clean EOF at a frame boundary is not an error: it is how a worker
// observes driver shutdown, and how the driver observes worker death
// (read_frame returns nullopt).
//
// Fields and payloads are host byte order, like every other artifact in
// this codebase (serving/table_image.h): the fleet is homogeneous
// little-endian.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace cav::dist {

/// Malformed frame or payload.  Deliberately distinct from
/// serving::TableIoError: protocol errors mean "abandon this peer", not
/// "this file is bad".
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error("dist: " + what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x57564143;  // "CAVW" little-endian
/// Per-frame payload ceiling.  Large enough for a full joint slab of the
/// standard table (~tens of MB); small enough that a corrupted length
/// field fails fast instead of triggering a giant allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 31;

enum class MsgType : std::uint32_t {
  // driver -> worker
  kCampaignSetup = 1,   ///< model + MC config + system name + CAS specs
  kRunStripe = 2,       ///< one EncounterStripe
  kPairSolveSetup = 3,  ///< "STEN" stencil image path
  kPairSweep = 4,       ///< tau layer slice: [begin, end) + full v_prev
  kJointSolveSetup = 5, ///< "STE2" stencil image path
  kJointSlab = 6,       ///< one (delta_bin, sense) slab
  kShutdown = 7,        ///< orderly exit; no response
  // worker -> driver
  kHello = 10,          ///< first frame after exec: protocol version + pid
  kStripeResult = 11,
  kPairSweepResult = 12,
  kJointSlabResult = 13,
  kWorkerError = 14,    ///< human-readable failure; worker exits after
};

/// Raised whenever a payload encoding or the meaning of a spec changes, so a
/// worker built from other sources is refused at hello instead of
/// mis-decoding a spec or answering it differently.  The random streams are
/// part of a spec's meaning: a worker drawing other numbers for the same
/// seeds would silently mix two generators into one merged result.
inline constexpr std::uint32_t kProtocolVersion = 3;

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::vector<std::byte> payload;
};

/// Write one frame; throws ProtocolError on any short/failed write
/// (EINTR is retried).  SIGPIPE must be ignored by the process (both
/// driver and worker do) so a dead peer surfaces as EPIPE here.
void write_frame(int fd, MsgType type, std::span<const std::byte> payload);

/// Read one frame.  Returns nullopt on clean EOF at a frame boundary;
/// throws ProtocolError on bad magic, unknown length, or EOF mid-frame.
std::optional<Frame> read_frame(int fd);

/// Payload builder: append-only little scalar/string/array codec.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    raw(values.data(), values.size_bytes());
  }

  std::span<const std::byte> bytes() const { return buf_; }

 private:
  void raw(const void* data, std::size_t n);
  std::vector<std::byte> buf_;
};

/// Payload parser: every read is bounds-checked and throws ProtocolError
/// on overrun, so a truncated or garbage payload can never read past the
/// frame.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str();
  template <typename T>
  std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(T)) throw ProtocolError("array overruns payload");
    std::vector<T> out(static_cast<std::size_t>(n));
    raw(out.data(), out.size() * sizeof(T));
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Assert the payload was consumed exactly — catches both truncated
  /// writers and trailing garbage.
  void expect_end() const {
    if (pos_ != data_.size()) throw ProtocolError("trailing bytes in payload");
  }

 private:
  template <typename T>
  T scalar() {
    T v;
    raw(&v, sizeof v);
    return v;
  }
  void raw(void* out, std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace cav::dist
