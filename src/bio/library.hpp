/// \file library.hpp
/// The probe data library: Tables I, II and III of the paper encoded as
/// data, plus factories that build calibrated probe models from them.
///
/// Rows marked `performance_from_paper == false` have no Table III entry;
/// they carry representative defaults so the platform explorer can still
/// reason about them (documented in EXPERIMENTS.md).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "bio/library_ids.hpp"
#include "bio/probe.hpp"

namespace idp::bio {

/// Which recognition mechanism senses a target in the paper's platform.
/// kDirectOxidation covers molecules that oxidise on a bare electrode
/// (dopamine, etoposide -- Section II-C); they need no enzyme but also give
/// no selectivity.
enum class ProbeFamily { kOxidase, kCytochromeP450, kDirectOxidation };

std::string to_string(ProbeFamily f);

/// Everything the platform needs to know about sensing one target.
struct TargetSpec {
  TargetId id;
  std::string description;        ///< paper's description column
  ProbeFamily family;
  std::string probe_name;         ///< "GLUCOSE OXIDASE", "CYP2B4", ...
  double operating_potential;     ///< Table I applied / Table II reduction [V]
  double sensitivity_uA_mM_cm2;   ///< Table III sensitivity (or default)
  double lod_uM;                  ///< Table III LOD; < 0 when not reported
  double linear_lo_mM;
  double linear_hi_mM;
  bool performance_from_paper;    ///< true iff a Table III row exists
  double km_mM;                   ///< apparent Michaelis constant we assign
  /// True when the quoted sensitivity already comes from a nanostructured
  /// electrode (CNT for glucose/lactate/glutamate/cholesterol [8][15]);
  /// false when it was measured on a planar electrode (Rh-graphite for
  /// CYP2B4 [16]) so nanostructuration can still raise it -- exactly the
  /// enhancement the paper's Section III closing remark proposes.
  bool nanostructured_baseline = true;
};

/// All known targets.
std::span<const TargetSpec> all_targets();

/// Spec for one target (throws std::invalid_argument if unknown).
const TargetSpec& spec(TargetId id);

/// True if both targets are sensed by the same physical probe (same enzyme
/// on the same electrode), e.g. CYP2B4 for benzphetamine + aminopyrine.
bool same_probe(TargetId a, TargetId b);

// --- verbatim paper tables ---------------------------------------------------

/// Row of the paper's Table I (oxidase-developed biosensors).
struct Table1Row {
  std::string oxidase;
  TargetId target;
  std::string description;
  double applied_potential;  ///< vs Ag/AgCl [V]
};
std::span<const Table1Row> table1_oxidases();

/// Row of the paper's Table II (CYP-developed biosensors).
struct Table2Row {
  std::string isoform;
  TargetId target;
  std::string description;
  double reduction_potential;  ///< vs Ag/AgCl [V]
};
std::span<const Table2Row> table2_cyps();

/// Row of the paper's Table III (per-electrode performance).
struct Table3Row {
  TargetId target;
  std::string probe;
  double sensitivity_uA_mM_cm2;
  double lod_uM;      ///< < 0 encodes the paper's "--" for cholesterol
  double linear_lo_mM;
  double linear_hi_mM;
};
std::span<const Table3Row> table3_performance();

// --- probe factories ---------------------------------------------------------
//
// A factory probe's calibration (the oxidase enzyme-loading search, the CYP
// turnover search) depends only on the target ids, the area and the gain, so
// each factory calibrates a design once per process and memoises it as a
// prototype keyed on exactly those three values (area and gain by bit
// pattern). Every call returns a fresh clone() of that prototype: a deep
// copy the caller owns, bit-identical to a newly calibrated probe, that
// shares no state with the prototype or with other clones. Stepping, aging
// or re-concentrating a returned probe never affects a later call. The cache
// is thread-safe and never evicts (one prototype per distinct design). Input
// errors are checked before the cache is consulted and a failed build is
// never cached, so an invalid call throws std::invalid_argument every time.

/// Build a calibrated probe for a single target on an electrode of the given
/// geometric area. Oxidase targets yield an OxidaseProbe, CYP targets a
/// single-target CypProbe. `sensitivity_gain` scales the calibrated
/// sensitivity (> 1 models nanostructuration of a planar-baseline probe).
ProbePtr make_probe(TargetId id, double area = 0.23e-6,
                    double sensitivity_gain = 1.0);

/// Build one CYP film sensing several drugs at once; all targets must map to
/// the same isoform (throws otherwise). This is the paper's dual-target
/// CYP2B4 electrode.
ProbePtr make_cyp_probe(std::span<const TargetId> ids, double area = 0.23e-6,
                        double sensitivity_gain = 1.0);

/// Build the Table I chronoamperometric probe for a Table1Row (used by the
/// Table I bench; cholesterol oxidase gets defaults since Table III
/// characterises cholesterol via CYP11A1 instead).
ProbePtr make_table1_probe(const Table1Row& row, double area = 0.23e-6);

}  // namespace idp::bio
