/// \file library.cpp
/// Probe data library implementation: Tables I, II and III of the paper
/// encoded as records, plus calibrated probe factories.

#include "bio/library.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>

#include "bio/cyp_probe.hpp"
#include "bio/direct_probe.hpp"
#include "bio/oxidase_probe.hpp"
#include "chem/species.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace idp::bio {

using util::sensitivity_from_uA_per_mM_cm2;

std::string to_string(TargetId id) {
  switch (id) {
    case TargetId::kGlucose: return "glucose";
    case TargetId::kLactate: return "lactate";
    case TargetId::kGlutamate: return "glutamate";
    case TargetId::kCholesterol: return "cholesterol";
    case TargetId::kBenzphetamine: return "benzphetamine";
    case TargetId::kAminopyrine: return "aminopyrine";
    case TargetId::kClozapine: return "clozapine";
    case TargetId::kErythromycin: return "erythromycin";
    case TargetId::kIndinavir: return "indinavir";
    case TargetId::kBupropion: return "bupropion";
    case TargetId::kLidocaine: return "lidocaine";
    case TargetId::kTorsemide: return "torsemide";
    case TargetId::kDiclofenac: return "diclofenac";
    case TargetId::kPNitrophenol: return "p-nitrophenol";
    case TargetId::kDopamine: return "dopamine";
    case TargetId::kEtoposide: return "etoposide";
  }
  return "?";
}

TargetId target_from_string(const std::string& name) {
  for (int i = 0; i < kTargetCount; ++i) {
    const auto id = static_cast<TargetId>(i);
    if (to_string(id) == name) return id;
  }
  throw std::invalid_argument("unknown target: " + name);
}

std::string to_string(ProbeFamily f) {
  switch (f) {
    case ProbeFamily::kOxidase: return "oxidase";
    case ProbeFamily::kCytochromeP450: return "cytochrome P450";
    case ProbeFamily::kDirectOxidation: return "direct oxidation";
  }
  return "?";
}

namespace {

// Sensitivities/LODs/ranges from Table III; potentials from Tables I and II.
// Targets without a Table III row carry representative defaults
// (performance_from_paper = false).
const std::vector<TargetSpec>& target_specs() {
  static const std::vector<TargetSpec> specs = {
      {TargetId::kGlucose, "Metabolic compound as energy source",
       ProbeFamily::kOxidase, "GLUCOSE OXIDASE", +0.550, 27.7, 575.0, 0.5, 4.0,
       true, 10.0},
      {TargetId::kLactate, "Metabolic compound as marker of cell suffering",
       ProbeFamily::kOxidase, "LACTATE OXIDASE", +0.650, 40.1, 366.0, 0.5, 2.5,
       true, 6.0},
      {TargetId::kGlutamate, "Excitatory neurotransmitter",
       ProbeFamily::kOxidase, "L-GLUTAMATE OXIDASE", +0.600, 25.5, 1574.0, 0.5,
       2.0, true, 5.0},
      {TargetId::kCholesterol,
       "Metabolite able to establish proper cell membrane permeability",
       ProbeFamily::kCytochromeP450, "CYP11A1", -0.400, 112.0, -1.0, 0.01,
       0.08, true, 0.2},
      {TargetId::kBenzphetamine, "Used in the treatment of obesity",
       ProbeFamily::kCytochromeP450, "CYP2B4", -0.250, 0.28, 200.0, 0.2, 1.2,
       true, 3.0, false},
      {TargetId::kAminopyrine,
       "Analgesic, anti-inflammatory, and antipyretic drug",
       ProbeFamily::kCytochromeP450, "CYP2B4", -0.400, 2.8, 400.0, 0.8, 8.0,
       true, 20.0, false},
      {TargetId::kClozapine,
       "Antipsychotic used in the treatment of schizophrenia",
       ProbeFamily::kCytochromeP450, "CYP1A2", -0.265, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      {TargetId::kErythromycin, "Broad-spectrum antibiotic",
       ProbeFamily::kCytochromeP450, "CYP3A4", -0.625, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      {TargetId::kIndinavir,
       "Used in the treatment of HIV infection and AIDS",
       ProbeFamily::kCytochromeP450, "CYP3A4", -0.750, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      {TargetId::kBupropion, "Antidepressant", ProbeFamily::kCytochromeP450,
       "CYP2B6", -0.450, 2.0, 300.0, 0.1, 2.0, false, 5.0, false},
      {TargetId::kLidocaine, "Anesthetic and antiarrhythmic",
       ProbeFamily::kCytochromeP450, "CYP2B6", -0.450, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      {TargetId::kTorsemide, "Diuretic", ProbeFamily::kCytochromeP450,
       "CYP2C9", -0.019, 2.0, 300.0, 0.1, 2.0, false, 5.0, false},
      {TargetId::kDiclofenac, "Anti-inflammatory",
       ProbeFamily::kCytochromeP450, "CYP2C9", -0.041, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      {TargetId::kPNitrophenol,
       "Intermediate in the synthesis of paracetamol",
       ProbeFamily::kCytochromeP450, "CYP2E1", -0.300, 2.0, 300.0, 0.1, 2.0,
       false, 5.0, false},
      // Direct oxidizers (Section II-C): diffusion-limited sensing on a bare
      // electrode; sensitivities follow n F D / delta for the default
      // 50 um stagnant layer. Not characterised in the paper's Table III.
      {TargetId::kDopamine, "Neurotransmitter, oxidises on bare electrodes",
       ProbeFamily::kDirectOxidation, "BARE ELECTRODE", +0.200, 200.0, 5.0,
       0.005, 0.1, false, 1.0e9},
      {TargetId::kEtoposide, "Chemotherapy drug, oxidises on bare electrodes",
       ProbeFamily::kDirectOxidation, "BARE ELECTRODE", +0.550, 150.0, 5.0,
       0.005, 0.1, false, 1.0e9},
  };
  return specs;
}

const chem::Species& species_of(TargetId id) {
  using namespace chem::species;
  switch (id) {
    case TargetId::kGlucose: return glucose;
    case TargetId::kLactate: return lactate;
    case TargetId::kGlutamate: return glutamate;
    case TargetId::kCholesterol: return cholesterol;
    case TargetId::kBenzphetamine: return benzphetamine;
    case TargetId::kAminopyrine: return aminopyrine;
    case TargetId::kClozapine: return clozapine;
    case TargetId::kErythromycin: return erythromycin;
    case TargetId::kIndinavir: return indinavir;
    case TargetId::kBupropion: return bupropion;
    case TargetId::kLidocaine: return lidocaine;
    case TargetId::kTorsemide: return torsemide;
    case TargetId::kDiclofenac: return diclofenac;
    case TargetId::kPNitrophenol: return p_nitrophenol;
    case TargetId::kDopamine: return dopamine;
    case TargetId::kEtoposide: return etoposide;
  }
  return glucose;
}

/// Intrinsic blank noise calibrated so that Vb + 3 sigma_b lands at the
/// paper's LOD (Eq. 5): sigma = S * A * LOD / 3. Rows whose LOD the paper
/// does not report get a noise level consistent with their linear range
/// (detectable at half the lowest calibrated concentration).
double blank_noise_for(const TargetSpec& s, double area) {
  const double s_si = sensitivity_from_uA_per_mM_cm2(s.sensitivity_uA_mM_cm2);
  const double fallback_uM = std::min(300.0, 0.5 * s.linear_lo_mM * 1e3);
  const double lod_mol_m3 =
      (s.lod_uM > 0.0 ? s.lod_uM : fallback_uM) * 1e-3;
  return s_si * area * lod_mol_m3 / 3.0;
}

}  // namespace

std::span<const TargetSpec> all_targets() { return target_specs(); }

const TargetSpec& spec(TargetId id) {
  for (const auto& s : target_specs()) {
    if (s.id == id) return s;
  }
  throw std::invalid_argument("no probe spec for target " + to_string(id) +
                              " (interferent-only molecule?)");
}

bool same_probe(TargetId a, TargetId b) {
  return spec(a).probe_name == spec(b).probe_name;
}

std::span<const Table1Row> table1_oxidases() {
  static const std::vector<Table1Row> rows = {
      {"GLUCOSE OXIDASE", TargetId::kGlucose,
       "Metabolic compound as energy source", +0.550},
      {"LACTATE OXIDASE", TargetId::kLactate,
       "Metabolic compound as marker of cell suffering", +0.650},
      {"L-GLUTAMATE OXIDASE", TargetId::kGlutamate,
       "Excitatory neurotransmitter", +0.600},
      {"CHOLESTEROL OXIDASE", TargetId::kCholesterol,
       "Establishes proper membrane permeability and fluidity", +0.700},
  };
  return rows;
}

std::span<const Table2Row> table2_cyps() {
  static const std::vector<Table2Row> rows = {
      {"CYP1A2", TargetId::kClozapine,
       "Antipsychotic used in the treatment of schizophrenia", -0.265},
      {"CYP3A4", TargetId::kErythromycin, "Broad-spectrum antibiotic", -0.625},
      {"CYP3A4", TargetId::kIndinavir,
       "Used in the treatment of HIV infection and AIDS", -0.750},
      {"CYP11A1", TargetId::kCholesterol,
       "Metabolite able to establish proper cell membrane permeability",
       -0.400},
      {"CYP2B4", TargetId::kBenzphetamine,
       "Used in the treatment of obesity", -0.250},
      {"CYP2B4", TargetId::kAminopyrine,
       "Analgesic, anti-inflammatory, and antipyretic drug", -0.400},
      {"CYP2B6", TargetId::kBupropion, "Antidepressant", -0.450},
      {"CYP2B6", TargetId::kLidocaine, "Anesthetic and antiarrhythmic",
       -0.450},
      {"CYP2C9", TargetId::kTorsemide, "Diuretic", -0.019},
      {"CYP2C9", TargetId::kDiclofenac, "Anti-inflammatory", -0.041},
      {"CYP2E1", TargetId::kPNitrophenol,
       "Intermediate in the synthesis of paracetamol", -0.300},
  };
  return rows;
}

std::span<const Table3Row> table3_performance() {
  static const std::vector<Table3Row> rows = {
      {TargetId::kGlucose, "glucose oxidase", 27.7, 575.0, 0.5, 4.0},
      {TargetId::kLactate, "lactate oxidase", 40.1, 366.0, 0.5, 2.5},
      {TargetId::kGlutamate, "glutamate oxidase", 25.5, 1574.0, 0.5, 2.0},
      {TargetId::kBenzphetamine, "CYP2B4", 0.28, 200.0, 0.2, 1.2},
      {TargetId::kAminopyrine, "CYP2B4", 2.8, 400.0, 0.8, 8.0},
      {TargetId::kCholesterol, "CYP11A1", 112.0, -1.0, 0.01, 0.08},
  };
  return rows;
}

namespace {

ProbePtr make_oxidase(const TargetSpec& s, double area, double gain) {
  OxidaseProbeParams p;
  p.name = s.probe_name;
  p.target = to_string(s.id);
  p.area = area;
  p.applied_potential = s.operating_potential;
  p.sensitivity = sensitivity_from_uA_per_mM_cm2(s.sensitivity_uA_mM_cm2);
  p.km = s.km_mM;  // mM == mol/m^3
  p.calibration_mid_concentration = 0.5 * (s.linear_lo_mM + s.linear_hi_mM);
  // Outer-film permeability sized so transport supports ~1.6x the target
  // sensitivity: the enzyme layer controls the remaining headroom, which is
  // where the Michaelis-Menten linear-range limit comes from.
  p.d_substrate_membrane = 1.6 * p.sensitivity * p.membrane_thickness /
                           (2.0 * util::kFaraday);
  p.d_substrate_bulk = species_of(s.id).diffusivity;
  p.blank_noise_rms = blank_noise_for(s, area);
  p.loading_gain = gain;
  return std::make_unique<OxidaseProbe>(std::move(p));
}

CypTargetParams cyp_target(const TargetSpec& s, double gain) {
  CypTargetParams t;
  t.drug = to_string(s.id);
  t.e0_red = s.operating_potential;
  t.sensitivity =
      gain * sensitivity_from_uA_per_mM_cm2(s.sensitivity_uA_mM_cm2);
  t.km = s.km_mM;
  t.d_drug = species_of(s.id).diffusivity;
  t.calibration_mid_concentration = 0.5 * (s.linear_lo_mM + s.linear_hi_mM);
  return t;
}

}  // namespace

namespace {

ProbePtr make_direct(const TargetSpec& s, double area) {
  DirectProbeParams p;
  p.name = s.probe_name + " (" + to_string(s.id) + ")";
  p.target = to_string(s.id);
  p.area = area;
  p.applied_potential = s.operating_potential + 0.25;  // overpotential
  p.couple = chem::RedoxCouple{.name = p.target + " (direct)",
                               .n = 2,
                               .e0 = s.operating_potential,
                               .k0 = 1.0e-5,
                               .alpha = 0.5};
  p.d_target = species_of(s.id).diffusivity;
  p.blank_noise_rms = blank_noise_for(s, area);
  return std::make_unique<DirectProbe>(std::move(p));
}

/// Everything a factory build depends on. Area and gain are keyed by bit
/// pattern: equal bits give bit-identical builds, and NaN cannot break the
/// ordering.
struct PrototypeKey {
  std::vector<TargetId> ids;
  std::uint64_t area_bits;
  std::uint64_t gain_bits;
  auto operator<=>(const PrototypeKey&) const = default;
};

struct PrototypeCache {
  std::mutex mutex;
  std::map<PrototypeKey, ProbePtr> prototypes;  ///< never stepped, never erased
};

PrototypeCache& prototype_cache() {
  static PrototypeCache cache;
  return cache;
}

/// Clone of the calibrated prototype for (ids, area, gain), built by `build`
/// on the first request. Callers validate their inputs first, so a cached
/// key can never mask an argument error. The build runs outside the lock;
/// a concurrent builder of the same key produces a bitwise identical probe,
/// the first insert wins and the duplicate is discarded. A build that throws
/// caches nothing.
template <typename Build>
ProbePtr clone_prototype(std::span<const TargetId> ids, double area,
                         double gain, Build build) {
  PrototypeCache& cache = prototype_cache();
  PrototypeKey key{{ids.begin(), ids.end()},
                   std::bit_cast<std::uint64_t>(area),
                   std::bit_cast<std::uint64_t>(gain)};
  const Probe* prototype = nullptr;
  {
    const std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.prototypes.find(key);
    if (it != cache.prototypes.end()) prototype = it->second.get();
  }
  if (prototype == nullptr) {
    ProbePtr built = build();
    const std::lock_guard<std::mutex> lock(cache.mutex);
    prototype =
        cache.prototypes.try_emplace(std::move(key), std::move(built))
            .first->second.get();
  }
  // Prototypes are only ever read after insertion, so cloning needs no lock.
  return prototype->clone();
}

}  // namespace

ProbePtr make_probe(TargetId id, double area, double sensitivity_gain) {
  util::require(sensitivity_gain > 0.0, "gain must be positive");
  const TargetSpec& s = spec(id);
  const std::array<TargetId, 1> one = {id};
  if (s.family == ProbeFamily::kCytochromeP450) {
    return make_cyp_probe(one, area, sensitivity_gain);
  }
  return clone_prototype(one, area, sensitivity_gain, [&] {
    return s.family == ProbeFamily::kOxidase
               ? make_oxidase(s, area, sensitivity_gain)
               : make_direct(s, area);  // diffusion-limited: gain inapplicable
  });
}

ProbePtr make_cyp_probe(std::span<const TargetId> ids, double area,
                        double sensitivity_gain) {
  util::require(!ids.empty(), "need at least one target");
  util::require(sensitivity_gain > 0.0, "gain must be positive");
  const TargetSpec& first = spec(ids.front());
  util::require(first.family == ProbeFamily::kCytochromeP450,
                "not a CYP-sensed target: " + to_string(ids.front()));
  for (TargetId id : ids) {
    util::require(spec(id).probe_name == first.probe_name,
                  "targets use different CYP isoforms: " + to_string(id));
  }
  return clone_prototype(ids, area, sensitivity_gain, [&] {
    CypProbeParams p;
    p.isoform = first.probe_name;
    p.area = area;
    double noise = 0.0;
    for (TargetId id : ids) {
      const TargetSpec& s = spec(id);
      p.targets.push_back(cyp_target(s, sensitivity_gain));
      noise = std::max(noise, blank_noise_for(s, area));
    }
    p.blank_noise_rms = noise;
    return ProbePtr(std::make_unique<CypProbe>(std::move(p)));
  });
}

ProbePtr make_table1_probe(const Table1Row& row, double area) {
  if (row.target != TargetId::kCholesterol) {
    return make_probe(row.target, area);
  }
  // Cholesterol oxidase has no Table III row (the platform uses CYP11A1);
  // build it with representative oxidase defaults at the Table I potential.
  OxidaseProbeParams p;
  p.name = row.oxidase;
  p.target = to_string(row.target);
  p.area = area;
  p.applied_potential = row.applied_potential;
  p.sensitivity = sensitivity_from_uA_per_mM_cm2(15.0);
  p.km = 0.2;
  p.d_substrate_bulk = chem::species::cholesterol.diffusivity;
  p.blank_noise_rms = 1.0e-9;
  return std::make_unique<OxidaseProbe>(std::move(p));
}

}  // namespace idp::bio
