// Maneuver coordination between UAVs (§VI.C): "if the own-ship chooses a
// 'climb' maneuver, it will send a coordination command to the intruder to
// require it not to choose maneuvers in the same direction."
//
// Generalized to N aircraft with per-pair (per-link) bookkeeping: a post is
// a broadcast, but delivery is tracked per receiver link, so message loss
// affects each receiver independently and a reader asks for the constraint
// imposed on it by a *specific* threat aircraft.  For the two-aircraft case
// this reduces exactly to the original channel (one link per post, the
// constraint is whatever the other aircraft last delivered).
//
// Loss model: each link is a two-state Gilbert–Elliott channel.  In the
// GOOD state a delivery is lost with `message_loss_prob` (the original
// uniform model); in the BAD state with `burst_loss_prob` (1.0 = total
// outage).  State transitions are drawn per delivery attempt.  With
// `burst_enter_prob == 0` no link ever leaves GOOD, no transition draw is
// made, and the channel is bit-identical to the pre-burst uniform channel —
// uniform loss is the degenerate case, not a second code path the caller
// selects.
//
// Staleness: `forbidden_for` returns the last *delivered* sense.  With the
// default `staleness_ttl_cycles == 0` (infinite TTL) a silent or
// blacked-out sender constrains its receivers forever; a positive TTL
// decays a link's constraint to kNone once `tick()` has been called more
// than TTL times since the last delivery on that link.
//
// State is sparse.  The channel keeps one cycle counter; `tick()` only
// increments it, and each link stamps the counter value at its last
// delivery, so a link's age is `now - stamp` and no per-link clock is ever
// swept.  A link slot (sense, burst flag, stamp) is created on the first
// delivery *attempt* over a (receiver, sender) pair — lost and deaf
// attempts still move the Gilbert–Elliott state — and kept for the rest of
// the run; a pair that has never had an attempt reads kNone in the GOOD
// state.  Senders post only to their airspace neighbors, so memory is
// O(K + links ever near) instead of K², and every lookup is a binary
// search over the receiver's sender-sorted slots.
//
// This channel is the engine's serial seam: agent i's decision reads the
// senses agents j < i posted *this* cycle, and every delivery attempt
// draws from one shared coordination stream, so the decide-and-post sweep
// runs strictly in index order even under `AirspaceConfig::parallel` —
// the LP event loops synchronize around it (see simulation.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "acasx/advisory.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::sim {

struct CoordinationConfig {
  bool enabled = true;
  /// Per-link loss probability in the GOOD channel state (the uniform
  /// model; the only loss knob before fault injection existed).
  double message_loss_prob = 0.0;
  /// Gilbert–Elliott burst loss.  `burst_enter_prob > 0` activates the
  /// two-state model; 0 (default) keeps the uniform channel bit-identical
  /// to the pre-burst engine (no transition draws).
  double burst_enter_prob = 0.0;  ///< GOOD -> BAD per delivery attempt
  double burst_exit_prob = 0.2;   ///< BAD -> GOOD per delivery attempt
  double burst_loss_prob = 1.0;   ///< loss probability while BAD
  /// Decision-cycle TTL on delivered senses: 0 means infinite (a silent
  /// sender's constraint never expires — the pre-fault behavior); a
  /// positive value decays a link to kNone once more than this many
  /// tick()s pass without a delivery on it.
  int staleness_ttl_cycles = 0;

  bool burst_model_active() const { return burst_enter_prob > 0.0; }
};

class CoordinationChannel {
 public:
  explicit CoordinationChannel(const CoordinationConfig& config = {}, std::size_t num_agents = 2)
      : config_(config), links_(num_agents) {
    expect(num_agents >= 2, "coordination needs at least two aircraft");
  }

  /// Aircraft `sender` announces the sense of its chosen maneuver to
  /// `receivers` (ascending agent ids, the sender's airspace neighbors).
  /// Links to out-of-range aircraft make no draws — a datalink has finite
  /// reach, so only in-range links exist this cycle.  Each link draws its
  /// own loss (and, when the burst model is active, its own state
  /// transition); a lost delivery leaves the previously delivered
  /// announcement in place on that link (receivers work with the last
  /// thing they heard).  Receivers are visited in list order, so the draw
  /// sequence is deterministic.  `deaf`, when non-null, marks receivers
  /// whose comms are blacked out: their links still draw (the channel
  /// state evolves), but nothing is delivered to them.
  void post(int sender, acasx::Sense sense, RngStream& rng, const std::vector<bool>* deaf,
            const std::vector<int>& receivers) {
    if (!config_.enabled) return;
    for (const int receiver : receivers) {
      if (receiver == sender) continue;
      post_to(sender, receiver, sense, rng, deaf);
    }
  }

  /// Advance the staleness clock one decision cycle (call once per cycle,
  /// before the cycle's posts).
  void tick() { ++now_; }

  /// The sense forbidden to aircraft `receiver` by aircraft `threat`:
  /// whatever `threat` last delivered on that link (kNone when
  /// coordination is disabled, the link has been silent, or the delivery
  /// is older than the staleness TTL).
  acasx::Sense forbidden_for(int receiver, int threat) const {
    if (!config_.enabled) return acasx::Sense::kNone;
    const Link* link = find(receiver, threat);
    if (link == nullptr) return acasx::Sense::kNone;
    if (config_.staleness_ttl_cycles > 0 &&
        now_ - link->delivered_cycle > static_cast<std::uint64_t>(config_.staleness_ttl_cycles)) {
      return acasx::Sense::kNone;
    }
    return link->delivered;
  }

  /// Whether the link receiver<-sender is currently in the BAD (bursty)
  /// Gilbert–Elliott state.  Exposed for tests.
  bool link_in_burst(int receiver, int sender) const {
    const Link* link = find(receiver, sender);
    return link != nullptr && link->bad;
  }

  /// Materialized links: (receiver, sender) pairs that have seen at least
  /// one delivery attempt.  K(K-1) at most; under a finite interaction
  /// radius at most twice the pairs ever near at a decision time.
  std::size_t num_links() const {
    std::size_t total = 0;
    for (const std::vector<Link>& row : links_) total += row.size();
    return total;
  }

 private:
  struct Link {
    std::uint64_t delivered_cycle = 0;  ///< tick count at the last delivery
    int sender = -1;
    acasx::Sense delivered = acasx::Sense::kNone;
    bool bad = false;  ///< Gilbert–Elliott BAD state
  };

  static bool sender_below(const Link& link, int sender) { return link.sender < sender; }

  const Link* find(int receiver, int sender) const {
    const std::vector<Link>& row = links_[static_cast<std::size_t>(receiver)];
    const auto it = std::lower_bound(row.begin(), row.end(), sender, sender_below);
    return it != row.end() && it->sender == sender ? &*it : nullptr;
  }

  /// The link receiver<-sender, created (kNone, GOOD, stamped at cycle 0 —
  /// the state of a link nobody ever posted on) on the first attempt.
  Link& find_or_create(int receiver, int sender) {
    std::vector<Link>& row = links_[static_cast<std::size_t>(receiver)];
    auto it = std::lower_bound(row.begin(), row.end(), sender, sender_below);
    if (it == row.end() || it->sender != sender) {
      Link fresh;
      fresh.sender = sender;
      it = row.insert(it, fresh);
    }
    return *it;
  }

  void post_to(int sender, int receiver, acasx::Sense sense, RngStream& rng,
               const std::vector<bool>* deaf) {
    Link& link = find_or_create(receiver, sender);
    double loss = config_.message_loss_prob;
    if (config_.burst_model_active()) {
      if (link.bad) {
        if (rng.chance(config_.burst_exit_prob)) link.bad = false;
      } else if (rng.chance(config_.burst_enter_prob)) {
        link.bad = true;
      }
      if (link.bad) loss = config_.burst_loss_prob;
    }
    if (loss > 0.0 && rng.chance(loss)) return;
    if (deaf != nullptr && (*deaf)[static_cast<std::size_t>(receiver)]) return;
    link.delivered = sense;
    link.delivered_cycle = now_;
  }

  CoordinationConfig config_;
  std::uint64_t now_ = 0;  ///< tick()s so far; a link's age is now_ - delivered_cycle
  /// Per receiver, the links it has been posted on, sorted by sender.  A
  /// link lives for the whole run once created, so a pair that leaves the
  /// interaction radius and comes back sees its old sense, burst state and
  /// staleness clock.
  std::vector<std::vector<Link>> links_;
};

}  // namespace cav::sim
