// Serializable descriptions of validation campaigns, and their wire
// codec (dist/wire.h payload layer).
//
// The in-process campaign API (core/validation_campaign.h) takes CAS
// FACTORIES — closures over shared logic tables — which cannot cross a
// process boundary.  The distributed layer instead ships a CasSpec: the
// system KIND plus the table-image paths it needs, which the worker
// materializes by mmap'ing the same images (serving::TableImage pages are
// shared physical memory across the whole worker fleet).  Within one
// process, own-ship and intruder naming the same files share one table.
//
// Every config field crosses the wire explicitly, field by field — no
// struct memcpy — so the codec breaks loudly (decode_* throws
// ProtocolError via the bounds-checked ByteReader) instead of silently
// when a config struct gains a field.  Keep encode/decode pairs in
// lockstep when MonteCarloConfig or its nested structs change.
#pragma once

#include <cstdint>
#include <string>

#include "core/validation_campaign.h"
#include "dist/wire.h"
#include "encounter/statistical_model.h"
#include "sim/cas.h"

namespace cav::dist {

enum class CasKind : std::uint32_t {
  kUnequipped = 0,  ///< nullptr factory: the aircraft just flies its plan
  kTcasLike = 1,    ///< baselines::TcasLikeCas, default config
  kSvo = 2,         ///< baselines::SvoCas, default config
  kAcasXu = 3,      ///< sim::AcasXuCas over mmap'd table image(s)
};

/// Which CAS a campaign participant runs, by value.  For kAcasXu,
/// `pair_image` names an f32 "PAIR" TableImage (LogicTable::open_mapped);
/// a non-empty `joint_image` additionally equips the joint-threat table.
struct CasSpec {
  CasKind kind = CasKind::kUnequipped;
  std::string pair_image;
  std::string joint_image;

  static CasSpec unequipped() { return {}; }
  static CasSpec tcas_like() { return {CasKind::kTcasLike, "", ""}; }
  static CasSpec svo() { return {CasKind::kSvo, "", ""}; }
  static CasSpec acas_xu(std::string pair_image, std::string joint_image = "") {
    return {CasKind::kAcasXu, std::move(pair_image), std::move(joint_image)};
  }

  bool operator==(const CasSpec&) const = default;
};

/// Build the factory a spec describes (mmap'ing its images).  Throws
/// serving::TableIoError on unreadable/mismatched images.  Returns an
/// empty factory for kUnequipped — the same convention ValidationCampaign
/// uses for unequipped flight.
sim::CasFactory materialize_cas(const CasSpec& spec);

/// Everything a worker needs to reconstruct a ValidationCampaign.
struct CampaignSpec {
  encounter::StatisticalModelConfig model;
  core::MonteCarloConfig config;
  std::string system_name;
  CasSpec own_cas;
  CasSpec intruder_cas;
};

/// Construct the equivalent in-process campaign (materializing both CAS
/// specs) — used by the worker on kCampaignSetup, and by the driver for
/// its in-process fallback path, so both run the identical kernel.  When
/// own-ship and intruder specs are equal they share one factory, so their
/// images are opened and mapped once.
core::ValidationCampaign materialize_campaign(const CampaignSpec& spec);

void encode_campaign_spec(ByteWriter& out, const CampaignSpec& spec);
CampaignSpec decode_campaign_spec(ByteReader& in);

void encode_stripe(ByteWriter& out, const core::EncounterStripe& stripe);
core::EncounterStripe decode_stripe(ByteReader& in);

void encode_stripe_result(ByteWriter& out, const core::StripeResult& result);
core::StripeResult decode_stripe_result(ByteReader& in);

}  // namespace cav::dist
