/// \file calibration_store.hpp
/// Automated calibration campaigns and the per-(probe, protocol) curve
/// cache. A campaign is the virtual analogue of what a wet lab does before a
/// clinical deployment: repeated blanks (Eq. 5) plus a concentration sweep
/// over the probe's specified linear range, measured through the same
/// engine + front-end class the deployment will use, fitted into a
/// dsp::CalibrationCurve and inverted into a quant::Quantifier.
///
/// Determinism: every campaign derives its run ids from the target alone
/// (disjoint blocks) and owns its probes and front end, so curves are
/// bitwise reproducible no matter in which order, from which thread, or at
/// which parallelism level the store builds them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "afe/frontend.hpp"
#include "bio/library.hpp"
#include "fault/sensor_state.hpp"
#include "quant/quantifier.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace idp::quant {

/// Everything a calibration campaign (and the scenario runner that must
/// measure *the same way*) needs to know about the acquisition setup.
struct CampaignConfig {
  std::uint64_t seed = 0x1d9b;   ///< engine noise seed for campaign runs
  int calibration_points = 6;    ///< concentrations per sweep (>= 3)
  int blank_measurements = 8;    ///< Eq. 5 blank repeats (>= 2)
  double ca_duration_s = 30.0;   ///< chronoamperometry window
  double sample_rate_hz = 10.0;  ///< ADC rate
  double probe_area_m2 = 0.23e-6;
  /// Sensitivity gain applied to CYP drug films (the paper's Section III
  /// nanostructuration headroom; planar CYP baselines produce currents too
  /// small for the integrated readout otherwise).
  double cyp_sensitivity_gain = 50.0;
  QuantifierOptions quantifier;
};

/// Probe configured exactly as campaigns measure it (area + family gain).
bio::ProbePtr make_campaign_probe(const CampaignConfig& config,
                                  bio::TargetId target);

/// Lab-grade acquisition chain used by campaigns and scenario scans.
afe::AfeConfig campaign_frontend_config(const CampaignConfig& config,
                                        std::uint64_t seed);

/// The protocol a target is measured with by default: chronoamperometry at
/// the Table I potential for oxidase/direct probes (+250 mV overdrive for
/// direct oxidisers), a cathodic sweep past the Table II reduction potential
/// for CYP probes.
sim::ChannelProtocol default_protocol_for(const CampaignConfig& config,
                                          bio::TargetId target);

/// Scalar response of one measurement: tail-window mean for amperograms,
/// baseline-corrected reduction response at the target's potential for
/// voltammograms. This is the quantity calibration curves are built from,
/// so quantification must read scans back with the same function.
double panel_response(bio::TargetId target, const sim::Trace& ca,
                      const sim::CvCurve& cv);

/// Value-identity key of a protocol (two protocols with equal parameters
/// share one cached curve).
std::string protocol_key(const sim::ChannelProtocol& protocol);

/// One campaign product: the fitted calibration data set plus the
/// quantifier inverting it.
struct Calibration {
  dsp::CalibrationCurve curve;
  Quantifier quantifier;
};

/// Builds and caches calibration curves + quantifiers per
/// (target, protocol). Thread-safe: lookups lock briefly; campaign runs
/// execute outside the lock, and concurrent builders of the same key agree
/// bitwise (first insert wins). Cached entries have stable addresses.
class CalibrationStore {
 public:
  /// Run-id block size of one campaign: cached campaigns own block
  /// [target * kRunsPerCampaignBlock, ...), and recalibrate() callers must
  /// space their blocks by the same stride (validated there).
  static constexpr std::uint64_t kRunsPerCampaignBlock = 4096;

  explicit CalibrationStore(CampaignConfig config = {});

  const CampaignConfig& config() const { return config_; }

  /// Curve / quantifier under the target's default protocol.
  const Quantifier& quantifier(bio::TargetId target);
  const dsp::CalibrationCurve& curve(bio::TargetId target);

  /// Curve / quantifier under an explicit protocol.
  const Quantifier& quantifier(bio::TargetId target,
                               const sim::ChannelProtocol& protocol);
  const dsp::CalibrationCurve& curve(bio::TargetId target,
                                     const sim::ChannelProtocol& protocol);

  /// Run the campaigns for several targets concurrently (0 = hardware
  /// concurrency, 1 = sequential); resulting curves are bitwise identical
  /// to on-demand sequential builds.
  void prepare(std::span<const bio::TargetId> targets,
               std::size_t parallelism = 0);

  /// Number of cached (target, protocol) entries.
  std::size_t cached_count() const;

  /// Run a *recalibration* campaign: the same blanks + sweep as a cached
  /// campaign, but measured through a sensor in the given degraded state --
  /// the field-servicing step the adaptive RecalibrationPolicy schedules
  /// when drift detection trips. Results are never cached (they belong to
  /// one sensor at one age). `run_id_block` is the caller-owned run-id
  /// block (the campaign consumes blank_measurements + calibration_points
  /// consecutive ids starting at run_id_block + 1, and derives its
  /// front-end seed from the block), so concurrent recalibrations of
  /// different sensors stay bitwise deterministic. Thread-safe and const.
  Calibration recalibrate(bio::TargetId target,
                          const sim::ChannelProtocol& protocol,
                          const fault::SensorState& sensor,
                          std::uint64_t run_id_block) const;

 private:
  using Entry = Calibration;
  using Key = std::pair<bio::TargetId, std::string>;

  /// Shared campaign core: blanks + concentration sweep as one lane group
  /// (MeasurementEngine::run_campaign) through one front end, fitted and
  /// inverted (no cache interaction).
  Calibration build_calibration(bio::TargetId target,
                                const sim::ChannelProtocol& protocol,
                                const fault::SensorState& sensor,
                                std::uint64_t first_run_id,
                                std::uint64_t frontend_seed) const;
  /// The cached pristine-sensor campaign for one key.
  Entry build_entry(bio::TargetId target,
                    const sim::ChannelProtocol& protocol) const;
  const Entry& entry(bio::TargetId target,
                     const sim::ChannelProtocol& protocol);

  CampaignConfig config_;
  sim::MeasurementEngine engine_;  ///< used through const _seeded calls only
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<Entry>> cache_;
};

}  // namespace idp::quant
