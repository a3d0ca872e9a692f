/// \file health.hpp
/// Fleet health scoring and fault root-cause attribution.
///
/// A FleetHealthAnalyzer consumes the observability streams the rest of
/// the stack already produces -- serve QC-check responses (standardised
/// blank + standard residuals with sensor age), plus per-session network
/// fault rates from the cluster replay metrics -- and reduces each
/// monitored (session, channel) sensor to a SensorHealthFeatures row:
///
/// - blank residual level/trend/spike count   (AFE drift vs storms)
/// - standard residual trend and total drop   (signal attenuation)
/// - trajectory curvature                     (fouling vs enzyme decay:
///   the residual series is an affine image of the attenuation curve, so
///   its normalised late-minus-early slope difference is exactly the
///   attenuation curve's -- exp(-k*age) stays near-linear over a
///   deployment while 1/(1+f*age) bends hard early)
/// - first-difference volatility              (reference random walk)
/// - EWMA/CUSUM drift statistics              (health score input)
/// - retry / reroute / failover rates         (network faults)
///
/// A fixed-order threshold decision tree (HealthThresholds) attributes a
/// dominant root cause per sensor -- network fault, interference storm,
/// reference drift, AFE drift, fouling, enzyme decay, healthy -- and a
/// deterministic health score in (0, 1] ranks the fleet sickest-first.
/// Ground truth for the attribution accuracy drill comes from
/// fault::DegradationModel parameters and the netsim fault schedule
/// (tests/obs/health_test.cpp); the ranked report exports through the
/// same canonical CSV machinery as every other surface and is pinned by
/// a golden fixture.
///
/// Known aliasing, by design: a *ramp*-dominated reference drift shifts
/// the baseline exactly like AFE offset drift and is attributed as AFE
/// drift; the walk component is what identifies the reference electrode.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace idp::quant {
class DriftDetector;
}

namespace idp::obs {

class MetricsRegistry;
struct MetricLabels;

/// Attributable root causes, in decision-tree order (first match wins).
enum class RootCause : std::uint8_t {
  kHealthy = 0,
  kNetworkFault = 1,        ///< retries / reroutes / failovers on the shard
  kInterferenceStorm = 2,   ///< sporadic blank-residual spikes
  kReferenceDrift = 3,      ///< high residual random-walk volatility
  kAfeDrift = 4,            ///< sustained blank-residual trend
  kFouling = 5,             ///< attenuation, concave (early-bending) curve
  kEnzymeDecay = 6,         ///< attenuation, near-log-linear curve
};

inline constexpr std::size_t kRootCauseCount = 7;

const char* to_string(RootCause cause);

/// One QC observation of a monitored sensor: standardised residuals at a
/// sensor age. Extracted from serve kQcCheck responses.
struct QcObservation {
  double age_days = 0.0;
  double blank_residual = 0.0;     ///< standardised blank residual
  double standard_residual = 0.0;  ///< standardised mid-range standard residual
};

/// Network-layer fault evidence for a session's shard, normalised per
/// routed request (from FaultStats / the metrics registry).
struct NetworkFeatures {
  double retry_rate = 0.0;     ///< retries per routed request
  double reroute_rate = 0.0;   ///< failover reroutes per routed request
  double failovers = 0.0;      ///< up->down declarations on the shard
};

/// The feature row one sensor reduces to. Every field is a pure function
/// of the observation series (sorted by age) and the network evidence.
struct SensorHealthFeatures {
  std::size_t observations = 0;
  double duration_days = 0.0;   ///< age span of the series

  double blank_mean = 0.0;
  double blank_trend = 0.0;     ///< sigma / day
  double blank_spikes = 0.0;    ///< count of |blank - median| > spike_sigma

  double standard_mean = 0.0;
  double standard_trend = 0.0;  ///< sigma / day
  double standard_drop = 0.0;   ///< total attenuation over the series, sigma
  double curvature = 0.0;       ///< (late slope - early slope) / |overall|

  double volatility = 0.0;      ///< stddev of standard-residual first diffs
  double ewma = 0.0;            ///< drift-detector EWMA over standard residuals
  double cusum = 0.0;           ///< two-sided CUSUM over standard residuals

  NetworkFeatures network;
};

/// Decision-tree thresholds. Defaults are tuned against the degradation
/// drill in tests/obs/health_test.cpp (>= 90% attribution accuracy).
struct HealthThresholds {
  double retry_rate = 0.5;          ///< retries per request -> network fault
  double reroute_rate = 0.25;       ///< reroutes per request -> network fault
  double blank_spike_sigma = 6.0;   ///< |blank - median| that counts a spike
  double storm_spikes = 3.0;        ///< spike count -> interference storm
  double volatility = 1.5;          ///< diff stddev (sigma) -> reference drift
  double blank_trend = 0.15;        ///< |sigma/day| -> AFE drift
  double attenuation_drop = 6.0;    ///< total sigma drop -> degradation
  double fouling_curvature = 0.45;  ///< curvature above -> fouling, below -> decay
};

/// Publish one drift detector's change-detection statistics under the
/// quant.drift.* names (ewma / cusum / cusum_pos / cusum_neg gauges plus
/// an observation counter), labeled with the caller's sensor coordinates.
/// This is the registry bridge for quant::DriftDetector -- the quant layer
/// itself stays observability-free.
void publish_drift(MetricsRegistry& registry,
                   const quant::DriftDetector& detector,
                   const MetricLabels& labels);

/// Reduce one sensor's QC series (any order; sorted internally by age)
/// plus its network evidence to the feature row. Only blank_spike_sigma
/// is consulted from the thresholds (the spike *count* is a feature; what
/// counts as a spike is tuning).
SensorHealthFeatures extract_features(std::span<const QcObservation> series,
                                      const NetworkFeatures& network = {},
                                      const HealthThresholds& thresholds = {});

/// The fixed-order rule classifier (see RootCause for the order).
RootCause classify(const SensorHealthFeatures& features,
                   const HealthThresholds& thresholds = {});

/// Deterministic health score in (0, 1]: 1 when no threshold is exceeded,
/// shrinking as 1 / (1 + total exceedance) with each feature's severity
/// measured relative to its threshold.
double health_score(const SensorHealthFeatures& features,
                    const HealthThresholds& thresholds = {});

/// One ranked fleet-report row.
struct SensorHealthRecord {
  serve::SessionKey session;
  std::uint32_t channel = 0;
  SensorHealthFeatures features;
  RootCause cause = RootCause::kHealthy;
  double score = 1.0;
};

/// The fleet, ranked sickest-first (score ascending, then session key and
/// channel for a total deterministic order).
struct FleetHealthReport {
  std::vector<SensorHealthRecord> sensors;

  /// Rows attributed to `cause`.
  std::size_t count_of(RootCause cause) const;

  /// Canonical CSV schema: tenant, patient, device, channel, cause, score,
  /// then every feature column.
  static const std::vector<std::string>& columns();
  void to_csv(const std::string& path) const;
};

/// Accumulates QC responses and network evidence across a fleet, then
/// reduces to the ranked report. Not thread-safe; feed it from the merged
/// (deterministic) response log, not from live workers.
class FleetHealthAnalyzer {
 public:
  explicit FleetHealthAnalyzer(HealthThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// Ingest one response; only kQcCheck responses contribute (others are
  /// ignored, so the whole merged log can be streamed through).
  void add_response(const serve::Response& response);

  /// Attach network fault evidence to every sensor of a session.
  void note_network(const serve::SessionKey& session,
                    const NetworkFeatures& network);

  /// Sensors with at least one QC observation.
  std::size_t sensor_count() const { return series_.size(); }

  const HealthThresholds& thresholds() const { return thresholds_; }

  /// Extract, classify, score and rank every monitored sensor.
  FleetHealthReport report() const;

 private:
  struct SensorId {
    serve::SessionKey session;
    std::uint32_t channel = 0;
    friend auto operator<=>(const SensorId&, const SensorId&) = default;
  };

  HealthThresholds thresholds_;
  std::map<SensorId, std::vector<QcObservation>> series_;
  std::map<serve::SessionKey, NetworkFeatures> network_;
};

}  // namespace idp::obs
