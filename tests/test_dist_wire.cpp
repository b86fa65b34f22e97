// dist/wire.h frame + payload codec: round-trips, clean-EOF semantics,
// and the malformed-input contract (truncated/garbage frames must surface
// as ProtocolError, never as a silent short read or a giant allocation).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dist/spec_codec.h"
#include "dist/wire.h"

namespace cav::dist {
namespace {

/// A pipe pair that closes what is left open at scope exit.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void close_write() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
  int r() const { return fds[0]; }
  int w() const { return fds[1]; }
};

std::vector<std::byte> as_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(DistWireTest, FrameRoundTrip) {
  Pipe pipe;
  const std::vector<std::byte> payload = as_bytes("hello stripe");
  write_frame(pipe.w(), MsgType::kRunStripe, payload);
  auto frame = read_frame(pipe.r());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kRunStripe);
  EXPECT_EQ(frame->payload, payload);
}

TEST(DistWireTest, EmptyPayloadRoundTrip) {
  Pipe pipe;
  write_frame(pipe.w(), MsgType::kShutdown, {});
  auto frame = read_frame(pipe.r());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kShutdown);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(DistWireTest, CleanEofAtBoundaryIsNullopt) {
  Pipe pipe;
  pipe.close_write();
  EXPECT_FALSE(read_frame(pipe.r()).has_value());
}

TEST(DistWireTest, EofMidHeaderThrows) {
  Pipe pipe;
  const std::uint32_t magic = kFrameMagic;
  ASSERT_EQ(::write(pipe.w(), &magic, 2), 2);  // half a magic, then EOF
  pipe.close_write();
  EXPECT_THROW(read_frame(pipe.r()), ProtocolError);
}

TEST(DistWireTest, EofMidPayloadThrows) {
  Pipe pipe;
  // A valid header promising 100 bytes, followed by only 3.
  std::uint32_t head[2] = {kFrameMagic, static_cast<std::uint32_t>(MsgType::kRunStripe)};
  std::uint64_t len = 100;
  ASSERT_EQ(::write(pipe.w(), head, sizeof head), static_cast<ssize_t>(sizeof head));
  ASSERT_EQ(::write(pipe.w(), &len, sizeof len), static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::write(pipe.w(), "abc", 3), 3);
  pipe.close_write();
  EXPECT_THROW(read_frame(pipe.r()), ProtocolError);
}

TEST(DistWireTest, BadMagicThrows) {
  Pipe pipe;
  std::uint32_t head[2] = {0xDEADBEEF, 1};
  std::uint64_t len = 0;
  ASSERT_EQ(::write(pipe.w(), head, sizeof head), static_cast<ssize_t>(sizeof head));
  ASSERT_EQ(::write(pipe.w(), &len, sizeof len), static_cast<ssize_t>(sizeof len));
  pipe.close_write();
  EXPECT_THROW(read_frame(pipe.r()), ProtocolError);
}

TEST(DistWireTest, OversizedLengthThrowsWithoutAllocating) {
  // 16 EB must be rejected, not new[]'d; one byte over the cap is
  // rejected the same way, on the read side and the write side.
  for (const std::uint64_t len : {~std::uint64_t{0}, kMaxPayloadBytes + 1}) {
    Pipe pipe;
    std::uint32_t head[2] = {kFrameMagic, static_cast<std::uint32_t>(MsgType::kRunStripe)};
    ASSERT_EQ(::write(pipe.w(), head, sizeof head), static_cast<ssize_t>(sizeof head));
    ASSERT_EQ(::write(pipe.w(), &len, sizeof len), static_cast<ssize_t>(sizeof len));
    pipe.close_write();
    EXPECT_THROW(read_frame(pipe.r()), ProtocolError) << "length " << len;
  }
  Pipe pipe;
  const std::vector<std::byte> over(kMaxPayloadBytes + 1);
  EXPECT_THROW(write_frame(pipe.w(), MsgType::kRunStripe, over), ProtocolError);
}

// Byte-level fuzz: truncate a valid frame at every prefix length.  Every
// truncation must yield nullopt (EOF at boundary, i.e. length 0) or a
// ProtocolError — never a successful parse, never anything else.
TEST(DistWireTest, TruncationFuzz) {
  ByteWriter payload;
  payload.u64(42);
  payload.str("fuzz");
  // Serialize one whole frame through a pipe to capture the exact bytes.
  std::vector<std::byte> wire_bytes;
  {
    Pipe pipe;
    write_frame(pipe.w(), MsgType::kStripeResult, payload.bytes());
    pipe.close_write();
    std::byte buf[256];
    ssize_t n = 0;
    while ((n = ::read(pipe.r(), buf, sizeof buf)) > 0) {
      wire_bytes.insert(wire_bytes.end(), buf, buf + n);
    }
  }
  ASSERT_GT(wire_bytes.size(), 16u);

  for (std::size_t cut = 0; cut < wire_bytes.size(); ++cut) {
    Pipe pipe;
    ASSERT_EQ(::write(pipe.w(), wire_bytes.data(), cut), static_cast<ssize_t>(cut));
    pipe.close_write();
    if (cut == 0) {
      EXPECT_FALSE(read_frame(pipe.r()).has_value()) << "cut=" << cut;
    } else {
      EXPECT_THROW(read_frame(pipe.r()), ProtocolError) << "cut=" << cut;
    }
  }
}

// Garbage fuzz: deterministic pseudo-random bytes must never parse as a
// frame (the magic check catches them) and must throw, not crash.
TEST(DistWireTest, GarbageFuzz) {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint8_t>(state);
  };
  for (int round = 0; round < 64; ++round) {
    std::vector<std::uint8_t> junk(1 + round * 3);
    for (auto& b : junk) b = next();
    // Avoid the 1-in-2^32 case where junk starts with the real magic.
    if (junk.size() >= 4 && std::memcmp(junk.data(), &kFrameMagic, 4) == 0) junk[0] ^= 0xFF;
    Pipe pipe;
    ASSERT_EQ(::write(pipe.w(), junk.data(), junk.size()), static_cast<ssize_t>(junk.size()));
    pipe.close_write();
    EXPECT_THROW(read_frame(pipe.r()), ProtocolError) << "round=" << round;
  }
}

TEST(DistByteCodecTest, ScalarAndArrayRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xCAFEBABE);
  w.u64(1ull << 60);
  w.f64(-0.25);
  w.str("système");
  const std::vector<float> floats{1.5f, -2.5f, 3.25f};
  w.array<float>(floats);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xCAFEBABE);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.f64(), -0.25);
  EXPECT_EQ(r.str(), "système");
  EXPECT_EQ(r.array<float>(), floats);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(DistByteCodecTest, OverrunsThrow) {
  ByteWriter w;
  w.u32(5);
  {
    ByteReader r(w.bytes());
    r.u32();
    EXPECT_THROW(r.u32(), ProtocolError);  // past the end
  }
  {
    ByteReader r(w.bytes());
    EXPECT_THROW(r.str(), ProtocolError);  // length 5 > remaining 0
  }
  {
    ByteReader r(w.bytes());
    EXPECT_THROW(r.array<double>(), ProtocolError);  // count 5 > remaining/8
  }
}

TEST(DistByteCodecTest, TrailingBytesDetected) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.expect_end(), ProtocolError);
}

TEST(DistSpecCodecTest, StripeRoundTripAndValidation) {
  core::EncounterStripe stripe{1234, 128, 256};
  ByteWriter w;
  encode_stripe(w, stripe);
  ByteReader r(w.bytes());
  const core::EncounterStripe back = decode_stripe(r);
  EXPECT_EQ(back.seed, stripe.seed);
  EXPECT_EQ(back.begin, stripe.begin);
  EXPECT_EQ(back.end, stripe.end);

  ByteWriter bad;
  bad.u64(1);
  bad.u64(10);
  bad.u64(5);  // end < begin
  ByteReader rb(bad.bytes());
  EXPECT_THROW(decode_stripe(rb), ProtocolError);
}

TEST(DistSpecCodecTest, StripeResultRoundTrip) {
  core::StripeResult result;
  result.first_cell = 3;
  result.cells = {{2, 5, 123.5, 0.25}, {0, 1, -4.0, 0.125}};
  ByteWriter w;
  encode_stripe_result(w, result);
  ByteReader r(w.bytes());
  const core::StripeResult back = decode_stripe_result(r);
  EXPECT_EQ(back.first_cell, result.first_cell);
  ASSERT_EQ(back.cells.size(), result.cells.size());
  for (std::size_t i = 0; i < back.cells.size(); ++i) {
    EXPECT_EQ(back.cells[i].nmacs, result.cells[i].nmacs);
    EXPECT_EQ(back.cells[i].alerts, result.cells[i].alerts);
    EXPECT_EQ(back.cells[i].sep_sum, result.cells[i].sep_sum);
    EXPECT_EQ(back.cells[i].wall_s, result.cells[i].wall_s);
  }
}

TEST(DistSpecCodecTest, CampaignSpecRoundTrip) {
  CampaignSpec spec;
  spec.model.gs_mean_mps = 47.0;
  spec.config.encounters = 321;
  spec.config.intruders = 2;
  spec.config.seed = 777;
  spec.config.equipage_fraction = 0.75;
  spec.config.unequipped_behavior = core::UnequippedBehavior::kManeuverAtCpa;
  spec.config.sim.record_trajectory = true;
  spec.config.own_fault.emplace();
  spec.config.own_fault->coordination_silent = true;
  spec.system_name = "acasx-sharded";
  spec.own_cas = CasSpec::acas_xu("/tmp/pair.img", "/tmp/joint.img");
  spec.intruder_cas = CasSpec::svo();

  ByteWriter w;
  encode_campaign_spec(w, spec);
  ByteReader r(w.bytes());
  const CampaignSpec back = decode_campaign_spec(r);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(back.model.gs_mean_mps, spec.model.gs_mean_mps);
  EXPECT_EQ(back.config.encounters, spec.config.encounters);
  EXPECT_EQ(back.config.intruders, spec.config.intruders);
  EXPECT_EQ(back.config.seed, spec.config.seed);
  EXPECT_EQ(back.config.equipage_fraction, spec.config.equipage_fraction);
  EXPECT_EQ(back.config.unequipped_behavior, spec.config.unequipped_behavior);
  EXPECT_EQ(back.config.sim.record_trajectory, spec.config.sim.record_trajectory);
  ASSERT_TRUE(back.config.own_fault.has_value());
  EXPECT_TRUE(back.config.own_fault->coordination_silent);
  EXPECT_FALSE(back.config.intruder_fault.has_value());
  EXPECT_EQ(back.system_name, spec.system_name);
  EXPECT_EQ(back.own_cas.kind, CasKind::kAcasXu);
  EXPECT_EQ(back.own_cas.pair_image, "/tmp/pair.img");
  EXPECT_EQ(back.own_cas.joint_image, "/tmp/joint.img");
  EXPECT_EQ(back.intruder_cas.kind, CasKind::kSvo);

  // The interaction radius alone selects the airspace engine (+inf is the
  // dense all-pairs one), so a finite radius and +inf must both survive.
  for (const double radius : {2000.0, std::numeric_limits<double>::infinity()}) {
    spec.config.sim.airspace.interaction_radius_m = radius;
    ByteWriter wr;
    encode_campaign_spec(wr, spec);
    ByteReader rd(wr.bytes());
    EXPECT_EQ(decode_campaign_spec(rd).config.sim.airspace.interaction_radius_m, radius);
    EXPECT_NO_THROW(rd.expect_end());
  }
}

// Truncation fuzz over a full campaign-spec payload: every prefix must
// throw (the payload is consumed field-by-field through the bounds-checked
// reader, so a cut anywhere surfaces as ProtocolError).
TEST(DistSpecCodecTest, CampaignSpecTruncationFuzz) {
  CampaignSpec spec;
  spec.system_name = "fuzz";
  ByteWriter w;
  encode_campaign_spec(w, spec);
  const auto full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    ByteReader r(full.subspan(0, cut));
    EXPECT_THROW(
        {
          CampaignSpec s = decode_campaign_spec(r);
          r.expect_end();
          (void)s;
        },
        ProtocolError)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace cav::dist
