#include "sim/coordination.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cav::sim {
namespace {

/// Every aircraft but `sender`, ascending — the neighbor list the dense
/// (infinite-radius) index hands to post().
std::vector<int> everyone_but(int sender, int num_agents) {
  std::vector<int> receivers;
  for (int r = 0; r < num_agents; ++r) {
    if (r != sender) receivers.push_back(r);
  }
  return receivers;
}

/// The dense channel the sparse link state replaced, reimplemented as the
/// fuzz reference: three K×K arrays allocated up front, and a tick() that
/// sweeps (and saturates) every link age.
class DenseReferenceChannel {
 public:
  DenseReferenceChannel(const CoordinationConfig& config, std::size_t num_agents)
      : config_(config),
        num_agents_(num_agents),
        delivered_(num_agents * num_agents, acasx::Sense::kNone),
        age_cycles_(num_agents * num_agents, 0),
        link_bad_(num_agents * num_agents, 0) {}

  void post(int sender, acasx::Sense sense, RngStream& rng, const std::vector<bool>* deaf,
            const std::vector<int>& receivers) {
    if (!config_.enabled) return;
    for (const int receiver : receivers) {
      if (receiver == sender) continue;
      const std::size_t link = index(receiver, sender);
      double loss = config_.message_loss_prob;
      if (config_.burst_model_active()) {
        if (link_bad_[link]) {
          if (rng.chance(config_.burst_exit_prob)) link_bad_[link] = 0;
        } else if (rng.chance(config_.burst_enter_prob)) {
          link_bad_[link] = 1;
        }
        if (link_bad_[link]) loss = config_.burst_loss_prob;
      }
      if (loss > 0.0 && rng.chance(loss)) continue;
      if (deaf != nullptr && (*deaf)[static_cast<std::size_t>(receiver)]) continue;
      delivered_[link] = sense;
      age_cycles_[link] = 0;
    }
  }

  void tick() {
    for (int& age : age_cycles_) {
      if (age < kMaxAge) ++age;
    }
  }

  acasx::Sense forbidden_for(int receiver, int threat) const {
    if (!config_.enabled) return acasx::Sense::kNone;
    const std::size_t link = index(receiver, threat);
    if (config_.staleness_ttl_cycles > 0 && age_cycles_[link] > config_.staleness_ttl_cycles) {
      return acasx::Sense::kNone;
    }
    return delivered_[link];
  }

  bool link_in_burst(int receiver, int sender) const {
    return link_bad_[index(receiver, sender)] != 0;
  }

 private:
  static constexpr int kMaxAge = 1 << 28;

  std::size_t index(int receiver, int sender) const {
    return static_cast<std::size_t>(receiver) * num_agents_ + static_cast<std::size_t>(sender);
  }

  CoordinationConfig config_;
  std::size_t num_agents_;
  std::vector<acasx::Sense> delivered_;
  std::vector<int> age_cycles_;
  std::vector<std::uint8_t> link_bad_;
};

TEST(Coordination, ForbidsOtherAircraftsSense) {
  CoordinationChannel channel;
  RngStream rng(1);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  EXPECT_EQ(channel.forbidden_for(0, 1), acasx::Sense::kNone);  // own message doesn't bind self
}

TEST(Coordination, LatestAnnouncementWins) {
  CoordinationChannel channel;
  RngStream rng(2);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kDescend);
}

TEST(Coordination, BothDirectionsIndependent) {
  CoordinationChannel channel;
  RngStream rng(3);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  channel.post(1, acasx::Sense::kDescend, rng, nullptr, {0});
  EXPECT_EQ(channel.forbidden_for(0, 1), acasx::Sense::kDescend);
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
}

TEST(Coordination, DisabledChannelIsSilent) {
  CoordinationConfig config;
  config.enabled = false;
  CoordinationChannel channel(config);
  RngStream rng(4);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
}

TEST(Coordination, TotalLossNeverDelivers) {
  CoordinationConfig config;
  config.message_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(6);
  for (int i = 0; i < 32; ++i) channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
}

TEST(Coordination, PartialLossEventuallyDelivers) {
  CoordinationConfig config;
  config.message_loss_prob = 0.5;
  CoordinationChannel channel(config);
  RngStream rng(7);
  bool delivered = false;
  for (int i = 0; i < 64 && !delivered; ++i) {
    channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1});
    delivered = channel.forbidden_for(1, 0) == acasx::Sense::kDescend;
  }
  EXPECT_TRUE(delivered);
}

TEST(Coordination, UniformLossIsBitIdenticalToPreBurstChannel) {
  // The Gilbert–Elliott channel with burst_enter_prob == 0 must consume
  // exactly the draws the pre-burst uniform channel consumed and deliver
  // exactly the same messages.  Reference: the original loop, reimplemented
  // here, fed a stream with the identical seed.
  CoordinationConfig config;
  config.message_loss_prob = 0.37;
  CoordinationChannel channel(config, /*num_agents=*/4);
  RngStream rng(42);

  constexpr std::size_t kAgents = 4;
  std::vector<acasx::Sense> reference(kAgents * kAgents, acasx::Sense::kNone);
  RngStream ref_rng(42);

  const acasx::Sense senses[] = {acasx::Sense::kClimb, acasx::Sense::kDescend,
                                 acasx::Sense::kNone};
  for (int round = 0; round < 200; ++round) {
    const int sender = round % kAgents;
    const acasx::Sense sense = senses[round % 3];
    channel.post(sender, sense, rng, nullptr, everyone_but(sender, static_cast<int>(kAgents)));
    for (std::size_t receiver = 0; receiver < kAgents; ++receiver) {
      if (receiver == static_cast<std::size_t>(sender)) continue;
      if (config.message_loss_prob > 0.0 && ref_rng.chance(config.message_loss_prob)) continue;
      reference[receiver * kAgents + static_cast<std::size_t>(sender)] = sense;
    }
  }
  for (std::size_t receiver = 0; receiver < kAgents; ++receiver) {
    for (std::size_t sender = 0; sender < kAgents; ++sender) {
      if (receiver == sender) continue;
      EXPECT_EQ(channel.forbidden_for(static_cast<int>(receiver), static_cast<int>(sender)),
                reference[receiver * kAgents + sender])
          << "link " << receiver << "<-" << sender;
    }
  }
  // And the streams must be in lockstep: same next draw.
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

TEST(Coordination, BurstStateBlocksDeliveryUntilExit) {
  // Force the link into the BAD state (burst_enter_prob = 1) with total
  // burst loss and no exit: nothing is ever delivered.
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 0.0;
  config.burst_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(9);
  for (int i = 0; i < 32; ++i) channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  EXPECT_TRUE(channel.link_in_burst(1, 0));
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
}

TEST(Coordination, BurstExitsAndRecovers) {
  // Certain entry but certain exit on the next attempt: the link oscillates
  // and deliveries get through on the GOOD visits (message_loss 0).
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 1.0;
  config.burst_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(10);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});   // GOOD -> BAD, lost
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1}); // BAD -> GOOD, delivered
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kDescend);
  EXPECT_FALSE(channel.link_in_burst(1, 0));
}

TEST(Coordination, BurstLossBelowOneLeaksDeliveries) {
  // A BAD state with burst_loss_prob < 1 is lossy, not silent.
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 0.0;
  config.burst_loss_prob = 0.5;
  CoordinationChannel channel(config);
  RngStream rng(11);
  bool delivered = false;
  for (int i = 0; i < 64 && !delivered; ++i) {
    channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
    delivered = channel.forbidden_for(1, 0) == acasx::Sense::kClimb;
  }
  EXPECT_TRUE(delivered);
}

TEST(Coordination, StalenessTtlDecaysConstraintToNone) {
  CoordinationConfig config;
  config.staleness_ttl_cycles = 3;
  CoordinationChannel channel(config);
  RngStream rng(12);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  for (int cycle = 0; cycle < 3; ++cycle) {
    channel.tick();
    EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb) << "cycle " << cycle;
  }
  channel.tick();  // age 4 > ttl 3: decayed
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
}

TEST(Coordination, DeliveryResetsStalenessClock) {
  CoordinationConfig config;
  config.staleness_ttl_cycles = 2;
  CoordinationChannel channel(config);
  RngStream rng(13);
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1});
  channel.tick();
  channel.tick();
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1});  // refreshes the link
  channel.tick();
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kDescend);
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);
}

TEST(Coordination, InfiniteTtlNeverDecays) {
  // ttl == 0 is the pre-fault behavior: a delivered sense persists through
  // arbitrarily many silent cycles.
  CoordinationChannel channel;
  RngStream rng(14);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  for (int cycle = 0; cycle < 1000; ++cycle) channel.tick();
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
}

TEST(Coordination, DeafReceiverGetsNothingButLinkStateEvolves) {
  CoordinationConfig config;
  CoordinationChannel channel(config, /*num_agents=*/3);
  RngStream rng(15);
  std::vector<bool> deaf = {false, true, false};
  channel.post(0, acasx::Sense::kClimb, rng, &deaf, {1, 2});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);  // blacked out
  EXPECT_EQ(channel.forbidden_for(2, 0), acasx::Sense::kClimb);
}

TEST(Coordination, LostUpdateKeepsPreviousAnnouncement) {
  // Deliver a climb reliably, then lose every subsequent update: receivers
  // keep acting on the last thing they heard (stale-coordination hazard).
  CoordinationConfig lossless;
  CoordinationChannel channel(lossless);
  RngStream rng(8);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1});
  ASSERT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  // The channel has no config swap; emulate staleness by simply not
  // posting again — the announcement persists.
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
}

TEST(Coordination, SparseChannelMatchesDenseReference) {
  // Fuzz the sparse link state against the dense arrays it replaced:
  // random fleet sizes, range-limited receiver subsets, deaf masks, loss
  // and burst parameters (including the uniform burst_enter_prob == 0
  // channel), TTLs, and tick()s interleaved with posts.  Every ordered
  // link must read the same sense and burst state after every step, and
  // both channels must consume the same draws.
  RngStream fuzz(2016);
  const double loss_choices[] = {0.0, 0.3, 1.0};
  const double enter_choices[] = {0.0, 0.0, 0.25, 1.0};
  const double exit_choices[] = {0.0, 0.4, 1.0};
  const double burst_loss_choices[] = {0.0, 0.6, 1.0};
  const int ttl_choices[] = {0, 1, 3};
  const acasx::Sense senses[] = {acasx::Sense::kNone, acasx::Sense::kClimb,
                                 acasx::Sense::kDescend};
  for (int trial = 0; trial < 300; ++trial) {
    const int k = fuzz.uniform_int(2, 12);
    CoordinationConfig config;
    config.enabled = fuzz.uniform_int(0, 15) != 0;
    config.message_loss_prob = loss_choices[fuzz.uniform_int(0, 2)];
    config.burst_enter_prob = enter_choices[fuzz.uniform_int(0, 3)];
    config.burst_exit_prob = exit_choices[fuzz.uniform_int(0, 2)];
    config.burst_loss_prob = burst_loss_choices[fuzz.uniform_int(0, 2)];
    config.staleness_ttl_cycles = ttl_choices[fuzz.uniform_int(0, 2)];

    CoordinationChannel sparse(config, static_cast<std::size_t>(k));
    DenseReferenceChannel dense(config, static_cast<std::size_t>(k));
    const std::uint64_t stream_seed = fuzz.next_u64();
    RngStream sparse_rng(stream_seed);
    RngStream dense_rng(stream_seed);

    for (int step = 0; step < 80; ++step) {
      if (fuzz.chance(0.3)) {
        sparse.tick();
        dense.tick();
      } else {
        const int sender = fuzz.uniform_int(0, k - 1);
        const acasx::Sense sense = senses[fuzz.uniform_int(0, 2)];
        // Ascending receiver subset; the sender itself may appear (post
        // skips it), as it does in a caller's neighbor list.
        const double reach = fuzz.uniform(0.0, 1.0);
        std::vector<int> receivers;
        for (int r = 0; r < k; ++r) {
          if (fuzz.chance(reach)) receivers.push_back(r);
        }
        std::vector<bool> deaf(static_cast<std::size_t>(k), false);
        const bool use_deaf = fuzz.chance(0.5);
        for (int r = 0; r < k; ++r) deaf[static_cast<std::size_t>(r)] = fuzz.chance(0.2);
        const std::vector<bool>* mask = use_deaf ? &deaf : nullptr;
        sparse.post(sender, sense, sparse_rng, mask, receivers);
        dense.post(sender, sense, dense_rng, mask, receivers);
      }
      for (int receiver = 0; receiver < k; ++receiver) {
        for (int sender = 0; sender < k; ++sender) {
          if (receiver == sender) continue;
          ASSERT_EQ(sparse.forbidden_for(receiver, sender), dense.forbidden_for(receiver, sender))
              << "trial " << trial << " step " << step << " link " << receiver << "<-" << sender;
          ASSERT_EQ(sparse.link_in_burst(receiver, sender), dense.link_in_burst(receiver, sender))
              << "trial " << trial << " step " << step << " link " << receiver << "<-" << sender;
        }
      }
    }
    ASSERT_EQ(sparse_rng.next_u64(), dense_rng.next_u64()) << "trial " << trial;
  }
}

TEST(Coordination, LinkStateSurvivesLeavingTheReceiverSet) {
  // A pair that leaves the interaction radius keeps its link: when it comes
  // back, the old sense, the burst flag and the staleness clock (still
  // counting from the last delivery, not from the departure) are intact.
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;  // the first attempt enters BAD ...
  config.burst_exit_prob = 0.0;   // ... for good
  config.burst_loss_prob = 0.0;   // and BAD still delivers
  config.staleness_ttl_cycles = 5;
  CoordinationChannel channel(config, /*num_agents=*/3);
  RngStream rng(16);

  channel.tick();
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1, 2});  // delivered at cycle 1
  ASSERT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  ASSERT_TRUE(channel.link_in_burst(1, 0));

  // Three cycles out of range: aircraft 1 hears nothing from 0.
  for (int cycle = 0; cycle < 3; ++cycle) {
    channel.tick();
    channel.post(0, acasx::Sense::kDescend, rng, nullptr, {2});
    EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb) << "cycle " << cycle;
    EXPECT_TRUE(channel.link_in_burst(1, 0)) << "cycle " << cycle;
    EXPECT_EQ(channel.forbidden_for(2, 0), acasx::Sense::kDescend);
  }

  // Back in range, but blacked out: the attempt draws, delivers nothing.
  channel.tick();  // age 4
  const std::vector<bool> deaf = {false, true, false};
  channel.post(0, acasx::Sense::kDescend, rng, &deaf, {1, 2});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  EXPECT_TRUE(channel.link_in_burst(1, 0));
  channel.tick();  // age 5 == TTL: still binding
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  channel.tick();  // age 6 > TTL: decayed
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);

  // A delivery restarts the clock on the same link.
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1, 2});
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kDescend);
  EXPECT_TRUE(channel.link_in_burst(1, 0));
}

TEST(Coordination, LinksMaterializeOnAttemptOnly) {
  // Links exist only over pairs someone posted on — lost and deaf attempts
  // included — and a never-attempted link reads kNone in the GOOD state.
  CoordinationConfig config;
  config.message_loss_prob = 1.0;
  CoordinationChannel channel(config, /*num_agents=*/5);
  RngStream rng(17);
  EXPECT_EQ(channel.num_links(), 0U);
  channel.post(0, acasx::Sense::kClimb, rng, nullptr, {1, 3});
  const std::vector<bool> deaf = {false, false, true, false, false};
  channel.post(4, acasx::Sense::kClimb, rng, &deaf, {2});
  channel.post(0, acasx::Sense::kDescend, rng, nullptr, {1});  // existing link
  EXPECT_EQ(channel.num_links(), 3U);
  EXPECT_EQ(channel.forbidden_for(3, 0), acasx::Sense::kNone);
  EXPECT_EQ(channel.forbidden_for(0, 3), acasx::Sense::kNone);  // never attempted
  EXPECT_FALSE(channel.link_in_burst(0, 3));
}

}  // namespace
}  // namespace cav::sim
