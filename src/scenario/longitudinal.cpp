/// \file longitudinal.cpp
/// Longitudinal scenario engine implementation: deterministic parallel
/// cohort sweep with sensor aging, QC-driven drift detection, adaptive
/// recalibration, per-channel quantification, population aggregation and
/// CSV export.

#include "scenario/longitudinal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/batch.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace idp::scenario {

namespace {

/// Domain tag separating front-end noise seeds from the cohort-jitter
/// seeds, which use the same (patient, channel) packing: with the tag, a
/// user reusing one seed for CohortSpec::seed and engine_seed still gets
/// independent jitter and noise streams.
constexpr std::uint64_t kFrontEndSeedDomain = 0x517cc1b727220a95ULL;
/// QC checks digitise through their *own* front ends (seeded from this
/// domain, same (patient, channel) packing): the diagnostic front end
/// carries a persistent electronic-noise stream that every sample
/// advances, so sharing it would let the QC reads shift the scan noise.
constexpr std::uint64_t kQcFrontEndSeedDomain = 0x6a09e667f3bcc909ULL;

/// Run-id domains for the QC checks and recalibration campaigns. They are
/// disjoint from the diagnostic-scan ids ((p*T + t)*C + c + 1, small) and
/// from the factory-campaign blocks (target * block, small); together with
/// the dedicated QC front ends this is what makes enabling monitoring
/// leave the diagnostic-scan noise streams untouched.
constexpr std::uint64_t kQcRunDomain = 1ULL << 40;
constexpr std::uint64_t kRecalRunDomain = 1ULL << 41;

/// p10/p50/p90 band of an unsorted sample set (one sort, three reads via
/// the shared util::percentiles_of helper).
PercentileBand band_of(std::vector<double>& values) {
  constexpr double kBandQs[] = {0.10, 0.50, 0.90};
  const std::vector<double> ps = util::percentiles_of(values, kBandQs);
  return PercentileBand{ps[0], ps[1], ps[2]};
}

/// Scalar response of one seeded measurement under either protocol.
double measure_response(const sim::MeasurementEngine& engine,
                        std::uint64_t run_id, const sim::Channel& channel,
                        const sim::ChannelProtocol& protocol,
                        afe::AnalogFrontEnd& fe, bio::TargetId target) {
  const sim::MeasurementResult result =
      engine.run({run_id, channel, protocol, &fe});
  return quant::panel_response(target, result.amperogram, result.voltammogram);
}

/// Per-channel monitoring state of one patient's sensor: which calibration
/// currently inverts the responses, what the QC checks should read, and the
/// drift statistics accumulated against that expectation.
struct ChannelMonitor {
  const quant::Quantifier* quantifier = nullptr;  ///< active calibration
  quant::Calibration owned;      ///< storage once recalibrated
  quant::DriftDetector detector;
  double qc_concentration = 0.0; ///< the QC kit's standard [mM], fixed
  double expected_blank = 0.0;   ///< predicted blank response
  double expected_qc = 0.0;      ///< predicted QC-standard response
  double sigma = 1.0;            ///< standardisation scale
  double last_recal_h = -std::numeric_limits<double>::infinity();
  std::uint32_t epoch = 0;

  /// Re-derive the QC expectations from the active calibration. The sigma
  /// floor (1 fA -- far below any physical response sigma) keeps the
  /// standardised residuals finite even for a noise-free campaign: a
  /// noiseless calibration then yields an immediately-tripping huge z
  /// instead of an infinity that DriftDetector::observe rejects.
  void rebase() {
    expected_blank = quantifier->blank_mean();
    expected_qc = util::evaluate(quantifier->fit(), qc_concentration);
    sigma = std::max(quantifier->response_sigma(), 1e-15);
  }
};

}  // namespace

std::size_t CohortReport::sample_count() const {
  std::size_t n = 0;
  for (const PatientTimeCourse& p : patients) {
    for (const auto& channel : p.channels) n += channel.size();
  }
  return n;
}

std::size_t CohortReport::flag_count(quant::QuantFlag flags) const {
  std::size_t n = 0;
  for (const PatientTimeCourse& p : patients) {
    for (const auto& channel : p.channels) {
      for (const ChannelSample& s : channel) {
        if ((s.estimate.flags & flags) != quant::QuantFlag::kNone) ++n;
      }
    }
  }
  return n;
}

double CohortReport::rms_error_mM(std::size_t channel) const {
  return rms_error_mM(channel, -std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity());
}

double CohortReport::rms_error_mM(std::size_t channel, double t_low_h,
                                  double t_high_h) const {
  util::require(channel < targets.size(), "channel index out of range");
  double ss = 0.0;
  std::size_t n = 0;
  for (const PatientTimeCourse& p : patients) {
    for (const ChannelSample& s : p.channels[channel]) {
      if (s.time_h < t_low_h || s.time_h >= t_high_h) continue;
      const double e = s.estimate.value - s.truth_mM;
      ss += e * e;
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::sqrt(ss / static_cast<double>(n));
}

double CohortReport::ci_coverage() const {
  std::size_t covered = 0, n = 0;
  for (const PatientTimeCourse& p : patients) {
    for (const auto& channel : p.channels) {
      for (const ChannelSample& s : channel) {
        ++n;
        if (s.estimate.ci_low <= s.truth_mM &&
            s.truth_mM <= s.estimate.ci_high) {
          ++covered;
        }
      }
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(n);
}

double CohortReport::max_drift_metric(std::size_t channel) const {
  util::require(channel < targets.size(), "channel index out of range");
  double worst = 0.0;
  for (const PatientTimeCourse& p : patients) {
    for (const ChannelSample& s : p.channels[channel]) {
      worst = std::max(worst, s.drift_metric);
    }
  }
  return worst;
}

void CohortReport::to_csv(const std::string& path) const {
  util::CsvWriter csv(
      path, {"patient", "channel", "time_h", "truth_mM", "estimate_mM",
             "ci_low_mM", "ci_high_mM", "flags", "sensor_age_days",
             "drift_metric", "qc_residual", "calibration_epoch",
             "recalibrated"});
  for (const PatientTimeCourse& p : patients) {
    for (std::size_t c = 0; c < p.channels.size(); ++c) {
      for (const ChannelSample& s : p.channels[c]) {
        const double row[] = {
            static_cast<double>(p.patient_id),
            static_cast<double>(c),
            s.time_h,
            s.truth_mM,
            s.estimate.value,
            s.estimate.ci_low,
            s.estimate.ci_high,
            static_cast<double>(static_cast<std::uint32_t>(s.estimate.flags)),
            s.sensor_age_days,
            s.drift_metric,
            s.qc_residual,
            static_cast<double>(s.calibration_epoch),
            s.recalibrated ? 1.0 : 0.0};
        csv.write_row(row);
      }
    }
  }
}

void CohortReport::publish_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("scenario.cohort.patients")
      .set(patients.size());
  registry.counter("scenario.cohort.samples").set(sample_count());
  // No unlabeled recalibration total: the per-channel series sum to it
  // (MetricsSnapshot::sum), and publishing both would double-count.
  for (std::size_t c = 0; c < targets.size(); ++c) {
    obs::MetricLabels labels;
    labels.channel = static_cast<std::int32_t>(c);
    std::uint64_t recals = 0;
    for (const RecalibrationEvent& e : recalibrations) {
      if (e.channel == c) ++recals;
    }
    registry.counter("scenario.cohort.recalibrations", labels).set(recals);
    registry.gauge("quant.drift.max_cusum", labels)
        .set(max_drift_metric(c));
    registry.gauge("scenario.cohort.rms_error_mM", labels)
        .set(rms_error_mM(c));
  }
}

LongitudinalRunner::LongitudinalRunner(quant::CalibrationStore& store,
                                       LongitudinalConfig config)
    : store_(store), config_(std::move(config)) {
  util::require(!config_.sample_times_h.empty(),
                "scenario needs at least one sample time");
  util::require(std::is_sorted(config_.sample_times_h.begin(),
                               config_.sample_times_h.end()),
                "sample times must be sorted");
  config_.recalibration.validate();
}

CohortReport LongitudinalRunner::run(
    std::span<const AnalytePlan> plans,
    std::span<const VirtualPatient> cohort) const {
  util::require(!plans.empty(), "scenario needs at least one analyte plan");
  util::require(plans.size() <= kMaxAnalytesPerPatient,
                "more channels than the front-end seed packing supports");
  util::require(!cohort.empty(), "scenario needs at least one patient");
  for (const VirtualPatient& p : cohort) {
    util::require(p.analytes.size() == plans.size(),
                  "cohort was generated for a different plan set");
  }

  const quant::CampaignConfig& campaign = store_.config();
  const std::size_t n_channels = plans.size();
  const std::size_t n_times = config_.sample_times_h.size();
  const quant::RecalibrationPolicy& policy = config_.recalibration;

  // Calibrate (or fetch) every channel up front -- outside the patient
  // fan-out, so runs never contend on campaign construction -- and keep
  // stable pointers into the store's cache.
  std::vector<sim::ChannelProtocol> protocols;
  std::vector<const quant::Quantifier*> quantifiers;
  protocols.reserve(n_channels);
  quantifiers.reserve(n_channels);
  for (const AnalytePlan& plan : plans) {
    protocols.push_back(quant::default_protocol_for(campaign, plan.target));
    quantifiers.push_back(&store_.quantifier(plan.target, protocols.back()));
  }

  sim::EngineConfig engine_config;
  engine_config.seed = config_.engine_seed;
  const sim::MeasurementEngine engine(engine_config);

  CohortReport report;
  report.targets.reserve(n_channels);
  for (const AnalytePlan& plan : plans) report.targets.push_back(plan.target);
  report.sample_times_h = config_.sample_times_h;
  report.patients.resize(cohort.size());

  // One job per patient: each owns its probes, front ends and monitoring
  // state, its timeline runs in order, and every measurement's noise
  // derives from the global (patient, timepoint, channel) index plus a
  // per-purpose run-id domain -- deterministic at any parallelism.
  const sim::BatchRunner runner(config_.parallelism);
  runner.run(cohort.size(), [&](std::size_t p) {
    const VirtualPatient& patient = cohort[p];
    PatientTimeCourse course;
    course.patient_id = patient.id;
    course.channels.assign(n_channels, {});

    std::vector<bio::ProbePtr> probes;
    std::vector<afe::AnalogFrontEnd> frontends;
    std::vector<afe::AnalogFrontEnd> qc_frontends;
    std::vector<ChannelMonitor> monitors(n_channels);
    probes.reserve(n_channels);
    frontends.reserve(n_channels);
    if (policy.enabled) qc_frontends.reserve(n_channels);
    for (std::size_t c = 0; c < n_channels; ++c) {
      probes.push_back(quant::make_campaign_probe(campaign, plans[c].target));
      frontends.emplace_back(quant::campaign_frontend_config(
          campaign,
          config_.engine_seed + kFrontEndSeedDomain +
              (p * kMaxAnalytesPerPatient + c + 1) * kScenarioSeedStride));
      if (policy.enabled) {
        qc_frontends.emplace_back(quant::campaign_frontend_config(
            campaign,
            config_.engine_seed + kQcFrontEndSeedDomain +
                (p * kMaxAnalytesPerPatient + c + 1) * kScenarioSeedStride));
      }
      course.channels[c].reserve(n_times);

      ChannelMonitor& monitor = monitors[c];
      monitor.quantifier = quantifiers[c];
      if (policy.enabled) {
        monitor.detector = quant::DriftDetector(policy.detector);
        // The QC kit ships one standard per channel, mixed to a fixed
        // fraction of the *factory* calibrated window.
        monitor.qc_concentration =
            quantifiers[c]->c_low() +
            policy.qc_fraction *
                (quantifiers[c]->c_high() - quantifiers[c]->c_low());
        monitor.rebase();
      }
    }

    for (std::size_t t = 0; t < n_times; ++t) {
      const double time_h = config_.sample_times_h[t];
      const double age_days =
          std::max(0.0, (time_h - config_.sensor_install_h) / 24.0);
      for (std::size_t c = 0; c < n_channels; ++c) {
        ChannelMonitor& monitor = monitors[c];
        const fault::SensorState sensor = config_.degradation.state_at(
            age_days, fault::SensorSite{patient.id, c});
        const sim::Channel channel{probes[c].get(), nullptr, sensor};
        const std::string target_name = bio::to_string(plans[c].target);

        double drift_metric = 0.0;
        double qc_residual = 0.0;
        bool recalibrated_now = false;
        if (policy.enabled) {
          // QC checks through the aged sensor: a blank and the standard,
          // standardised against the active calibration's prediction.
          const std::uint64_t qc_base =
              kQcRunDomain + ((p * n_times + t) * n_channels + c) * 2;
          probes[c]->set_bulk_concentration(target_name, 0.0);
          const double r_blank =
              measure_response(engine, qc_base + 1, channel, protocols[c],
                               qc_frontends[c], plans[c].target);
          monitor.detector.observe((r_blank - monitor.expected_blank) /
                                   monitor.sigma);
          probes[c]->set_bulk_concentration(target_name,
                                            monitor.qc_concentration);
          const double r_qc =
              measure_response(engine, qc_base + 2, channel, protocols[c],
                               qc_frontends[c], plans[c].target);
          qc_residual = (r_qc - monitor.expected_qc) / monitor.sigma;
          monitor.detector.observe(qc_residual);
          drift_metric = monitor.detector.cusum();
          const double ewma_now = monitor.detector.ewma();

          const bool interval_ok =
              time_h - monitor.last_recal_h >= policy.min_interval_h;
          const bool budget_ok =
              monitor.epoch <
              static_cast<std::uint32_t>(policy.max_recalibrations);
          if (policy.triggered(monitor.detector) && interval_ok &&
              budget_ok) {
            // Field recalibration: rerun the campaign on this sensor in
            // its *current* state, from a run-id block owned by
            // (patient, channel, epoch).
            const std::uint64_t block =
                kRecalRunDomain +
                ((p * kMaxAnalytesPerPatient + c) *
                     (static_cast<std::uint64_t>(policy.max_recalibrations) +
                      1) +
                 monitor.epoch) *
                    quant::CalibrationStore::kRunsPerCampaignBlock;
            monitor.owned = store_.recalibrate(plans[c].target, protocols[c],
                                               sensor, block);
            monitor.quantifier = &monitor.owned.quantifier;
            monitor.epoch += 1;
            monitor.last_recal_h = time_h;
            monitor.rebase();
            monitor.detector.reset();
            recalibrated_now = true;
            course.recalibrations.push_back(RecalibrationEvent{
                patient.id, c, time_h, age_days, drift_metric, ewma_now,
                monitor.epoch});
          }
        }

        ChannelSample sample;
        sample.time_h = time_h;
        sample.truth_mM = patient.true_concentration_mM(plans[c], c, time_h);
        sample.sensor_age_days = age_days;
        sample.drift_metric = drift_metric;
        sample.qc_residual = qc_residual;
        sample.calibration_epoch = monitor.epoch;
        sample.recalibrated = recalibrated_now;
        probes[c]->set_bulk_concentration(target_name, sample.truth_mM);

        const std::uint64_t run_id = (p * n_times + t) * n_channels + c + 1;
        sample.response = measure_response(engine, run_id, channel,
                                           protocols[c], frontends[c],
                                           plans[c].target);
        sample.estimate = monitor.quantifier->quantify(sample.response);
        course.channels[c].push_back(sample);
      }
    }
    report.patients[p] = std::move(course);
  });

  // Population aggregates (sequential -- cheap compared to the scans).
  report.estimate_percentiles.assign(n_channels, {});
  report.truth_percentiles.assign(n_channels, {});
  for (std::size_t c = 0; c < n_channels; ++c) {
    report.estimate_percentiles[c].resize(n_times);
    report.truth_percentiles[c].resize(n_times);
    for (std::size_t t = 0; t < n_times; ++t) {
      std::vector<double> est, truth;
      est.reserve(cohort.size());
      truth.reserve(cohort.size());
      for (const PatientTimeCourse& p : report.patients) {
        est.push_back(p.channels[c][t].estimate.value);
        truth.push_back(p.channels[c][t].truth_mM);
      }
      report.estimate_percentiles[c][t] = band_of(est);
      report.truth_percentiles[c][t] = band_of(truth);
    }
  }
  // Flatten the per-patient recalibration logs in patient order (the jobs
  // ran concurrently; the merge restores a deterministic order).
  for (const PatientTimeCourse& p : report.patients) {
    report.recalibrations.insert(report.recalibrations.end(),
                                 p.recalibrations.begin(),
                                 p.recalibrations.end());
  }
  return report;
}

}  // namespace idp::scenario
