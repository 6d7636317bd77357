// The device-aging abstraction: the one interface every report and
// lifetime evaluation goes through. The paper notes its duty-cycle
// balancing is orthogonal to the device model; a DeviceAgingModel owns all
// three evaluation styles of one device model:
//
//  * degradation-at-duty under an explicit EnvironmentSpec (the histogram
//    / report evaluation hook),
//  * the years-to-failure inversion the lifetime solver drives, and
//  * piecewise-constant environment-timeline integration: a cell's stress
//    history is a sequence of (duty, weight, environment) segments and the
//    model composes per-segment degradation via equivalent time.
//
// Composition semantics: *duty* time-averages within one environment (the
// paper's long-term-average NBTI argument, ref [14]), so consecutive
// equal-environment phases are merged by the caller before evaluation;
// *environments* compose via equivalent time (the degradation reached so
// far is converted to the years that would have produced it under the next
// segment's environment, then the segment's share of the horizon is
// appended). A timeline with a single segment short-circuits to the plain
// single-operating-point formula, which is what keeps the default engine
// bit-identical to the paper's evaluation.
//
// Models are created through a name-based AgingModelRegistry (see
// aging/model_registry.hpp), so external device models plug in without
// touching the report or lifetime layers.
#pragma once

#include <span>
#include <string_view>

#include "aging/environment.hpp"

namespace dnnlife::aging {

/// Calibration anchors of the paper's SNM-degradation power law
///
///     snm(d, t) = S_max * s^alpha * (t / t_ref)^beta,  s = max(d, 1 - d)
///
/// the stress ratio of the most-stressed PMOS. The paper quantifies aging
/// via SNM degradation after 7 years (device model of its refs [21][25]):
/// 10.82 % at 50 % duty (both PMOS equally stressed) and 26.12 % at 0 % /
/// 100 % (one PMOS always stressed). The two anchors determine
/// alpha = log2(S_max / S_mid) ~ 1.2715, a mildly convex curve matching
/// the shape of the paper's Fig. 2b.
struct SnmParams {
  double snm_at_balanced = 10.82;     ///< % at duty 0.5, t = t_ref
  double snm_at_full_stress = 26.12;  ///< % at duty 0 or 1, t = t_ref
  double t_ref_years = 7.0;
  double time_exponent = 1.0 / 6.0;   ///< reaction-diffusion n
};

/// Strategy interface for one device-aging model. Implementations must be
/// immutable after construction (models are shared across threads by the
/// parallel experiment runner).
class DeviceAgingModel {
 public:
  virtual ~DeviceAgingModel() = default;

  /// The model's registry name (diagnostics and report labels).
  virtual std::string_view name() const noexcept = 0;

  /// The model's calibration horizon t_ref in years (the time at which
  /// its anchors are stated).
  virtual double reference_years() const noexcept = 0;

  /// SNM degradation (percent of nominal SNM) of a cell holding duty-cycle
  /// `duty` for `years` years in the constant environment `env`.
  /// Precondition: `env` satisfies validate_environment — enforced at the
  /// framework's ingestion boundaries (spec parsing, workload phases,
  /// segment checks), not re-checked per call (this sits inside the
  /// per-cell report and solver hot loops).
  virtual double degradation(double duty, double years,
                             const EnvironmentSpec& env) const = 0;

  /// Time derivative of degradation() at (duty, years, env), in percent
  /// per year. Drives the Newton iteration of years_to_reach; the default
  /// is a central finite difference over degradation(), and models whose
  /// curve has a cheap analytic derivative (the power-law family, the
  /// smooth convex PBTI+HCI sum) override it. May return 0, +inf or NaN
  /// where the derivative is undefined (e.g. a sublinear power law at
  /// t = 0) — the solver falls back to a bisection step there.
  virtual double degradation_slope(double duty, double years,
                                   const EnvironmentSpec& env) const;

  /// Inverse of degradation() in time: the years at (duty, env) until the
  /// degradation reaches `target` percent. This is both the
  /// years-to-failure inversion and the equivalent-time primitive of the
  /// timeline composition. Returns +inf when the target is unreachable
  /// (e.g. a fully power-gated segment accumulates no stress). The default
  /// implementation brackets the crossing and runs safeguarded Newton on
  /// degradation() / degradation_slope() (util::invert_monotone — the
  /// legacy bracketing bisection remains the fallback safeguard);
  /// power-law models override it with the closed form.
  virtual double years_to_reach(double duty, double target,
                                const EnvironmentSpec& env) const;

  /// Degradation after `years` of the piecewise-constant stress history
  /// `timeline` (segment weights are normalised to lifetime shares;
  /// zero-weight segments are skipped; composition is equivalent-time, in
  /// segment order). Exactly one positive-weight segment short-circuits to
  /// degradation(), bit-identically.
  virtual double degradation_on_timeline(std::span<const StressSegment> timeline,
                                         double years) const;

  /// Years until degradation_on_timeline(timeline, ·) reaches `threshold`
  /// — the lifetime of a cell whose stress history is `timeline`. Single
  /// positive-weight timelines short-circuit to years_to_reach(),
  /// bit-identically. Returns +inf when the threshold is unreachable.
  virtual double years_to_failure(std::span<const StressSegment> timeline,
                                  double threshold) const;
};

/// Family of models of the separable power-law form
///
///     degradation(d, t, env) = amplitude(d, env) * (t / t_ref)^beta
///
/// with one shared time exponent: the inversion and the timeline
/// composition have closed forms. Equivalent-time composition of segments
/// with amplitudes g_i and lifetime shares w_i collapses to an effective
/// amplitude g_eff = (sum_i w_i * g_i^(1/beta))^beta — still a pure power
/// law in t, so lifetime solving never iterates.
class PowerLawDeviceModel : public DeviceAgingModel {
 public:
  PowerLawDeviceModel(double t_ref_years, double time_exponent);

  /// Degradation at the reference horizon (the power-law amplitude), in
  /// percent. Must be >= 0; 0 means the segment accumulates no stress.
  virtual double amplitude(double duty, const EnvironmentSpec& env) const = 0;

  double reference_years() const noexcept final { return t_ref_years_; }
  double time_exponent() const noexcept { return time_exponent_; }

  double degradation(double duty, double years,
                     const EnvironmentSpec& env) const final;
  /// Analytic: amplitude * (beta / t_ref) * (t / t_ref)^(beta - 1).
  double degradation_slope(double duty, double years,
                           const EnvironmentSpec& env) const final;
  double years_to_reach(double duty, double target,
                        const EnvironmentSpec& env) const final;
  double degradation_on_timeline(std::span<const StressSegment> timeline,
                                 double years) const final;
  double years_to_failure(std::span<const StressSegment> timeline,
                          double threshold) const final;

 private:
  /// The collapsed multi-segment amplitude g_eff (weights normalised by
  /// `total_weight`; zero-weight segments skipped).
  double effective_amplitude(std::span<const StressSegment> timeline,
                             double total_weight) const;

  double t_ref_years_;
  double time_exponent_;
};

/// The default engine: the paper's calibrated NBTI → SNM power law over
/// SnmParams (alpha = log2(S_max / S_mid)). The model is deliberately
/// pinned to the calibration's operating point — it responds to activity
/// scaling (a power-gated cell accumulates no PMOS stress) but not to
/// temperature or vdd; select "arrhenius-nbti" for thermal/DVFS
/// timelines.
class CalibratedNbtiDeviceModel : public PowerLawDeviceModel {
 public:
  explicit CalibratedNbtiDeviceModel(SnmParams params = {});

  std::string_view name() const noexcept override { return "calibrated-nbti"; }
  double amplitude(double duty, const EnvironmentSpec& env) const override;

  const SnmParams& params() const noexcept { return params_; }
  /// The derived stress exponent alpha = log2(S_max / S_mid).
  double stress_exponent() const noexcept { return alpha_; }

 private:
  SnmParams params_;
  double alpha_;
};

/// Temperature / supply-voltage acceleration knobs of the Arrhenius model.
struct ThermalParams {
  /// Apparent activation energy of the SNM-degradation acceleration [eV].
  double activation_energy_ev = 0.08;
  /// Exponent of the (vdd / nominal)^gamma voltage-acceleration factor.
  double vdd_exponent = 2.0;
};

/// Arrhenius temperature-accelerated NBTI: the calibrated amplitude scaled
/// by exp((Ea/k)(1/T_ref - 1/T)) and (vdd/nominal)^gamma. At the nominal
/// environment both factors are exactly 1, so the model coincides with the
/// default engine bit-for-bit — scenarios switch to it only to make
/// temperature corners and DVFS phases matter.
class ArrheniusNbtiDeviceModel final : public CalibratedNbtiDeviceModel {
 public:
  explicit ArrheniusNbtiDeviceModel(SnmParams params = {},
                                    ThermalParams thermal = {});

  std::string_view name() const noexcept override { return "arrhenius-nbti"; }
  double amplitude(double duty, const EnvironmentSpec& env) const override;

  const ThermalParams& thermal() const noexcept { return thermal_; }

 private:
  ThermalParams thermal_;
};

/// NMOS-side PBTI + hot-carrier-injection variant with a different stress
/// mapping. The PBTI component keeps a residual stress floor even at
/// balanced duty (PBTI recovery is weaker than NBTI's), flattening the
/// duty-cycle contrast; the HCI component is driven by switching activity,
/// not duty, and follows a steeper time exponent than reaction-diffusion
/// BTI. Two time exponents make the total a non-power-law — this model
/// exercises the safeguarded Newton inversion and the equivalent-time
/// composition paths of DeviceAgingModel.
class PbtiHciDeviceModel final : public DeviceAgingModel {
 public:
  struct Params {
    SnmParams pbti{};               ///< anchors of the PBTI power-law term
    /// Residual PBTI stress fraction at balanced duty, in [0, 1).
    double recovery_floor = 0.2;
    /// HCI SNM degradation at t_ref under full activity [percent].
    double hci_amplitude = 2.0;
    /// HCI time exponent (empirically ~0.45, vs BTI's ~1/6).
    double hci_time_exponent = 0.45;
    /// Shared Arrhenius activation energy of both terms [eV].
    double activation_energy_ev = 0.06;
    /// Exponent of the (vdd / nominal)^gamma voltage-acceleration factor.
    double vdd_exponent = 2.0;
  };

  PbtiHciDeviceModel() : PbtiHciDeviceModel(Params{}) {}
  explicit PbtiHciDeviceModel(Params params);

  std::string_view name() const noexcept override { return "pbti-hci"; }
  double reference_years() const noexcept override {
    return params_.pbti.t_ref_years;
  }
  double degradation(double duty, double years,
                     const EnvironmentSpec& env) const override;
  /// Analytic derivative of the two-exponent sum — the PBTI+HCI total is
  /// smooth and convex in its inverse, so Newton converges quadratically.
  double degradation_slope(double duty, double years,
                           const EnvironmentSpec& env) const override;
  /// The generic safeguarded Newton solve with amplitude_terms() evaluated
  /// once per solve instead of once per iterate; bit-identical to
  /// DeviceAgingModel::years_to_reach.
  double years_to_reach(double duty, double target,
                        const EnvironmentSpec& env) const override;

  const Params& params() const noexcept { return params_; }

 private:
  /// The shared duty/environment factors of degradation() and its slope.
  struct Terms {
    double scale = 0.0;  ///< Arrhenius x vdd acceleration
    double pbti = 0.0;   ///< PBTI amplitude at t_ref [percent]
    double hci = 0.0;    ///< HCI amplitude at t_ref [percent]
  };
  Terms amplitude_terms(double duty, const EnvironmentSpec& env) const;
  /// degradation() and degradation_slope() at `years` on given terms.
  double curve(const Terms& terms, double years) const;
  double slope(const Terms& terms, double years) const;

  Params params_;
  double alpha_;
};

/// Combined NBTI + PBTI cell aging (paper footnote 1). In each inverter
/// the PMOS is NBTI-stressed while the output is high and the NMOS is
/// PBTI-stressed while it is low, so inverter 1 (output = cell value,
/// duty d) degrades as nbti(d) + pbti(1-d) and inverter 2 as
/// nbti(1-d) + pbti(d); the cell is as old as its worse inverter. PBTI is
/// weaker than NBTI at these nodes (`pbti_ratio` < 1): the model is still
/// symmetric around duty 0.5, but PBTI flattens the duty-cycle contrast.
/// Pinned to the nominal operating point except for activity scaling,
/// like the default engine.
class DualBtiDeviceModel final : public PowerLawDeviceModel {
 public:
  struct Params {
    SnmParams nbti{};          ///< anchors of the NBTI-only component
    double pbti_ratio = 0.3;   ///< PBTI amplitude relative to NBTI
  };

  DualBtiDeviceModel() : DualBtiDeviceModel(Params{}) {}
  explicit DualBtiDeviceModel(Params params);

  std::string_view name() const noexcept override { return "dual-bti"; }
  double amplitude(double duty, const EnvironmentSpec& env) const override;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  double alpha_;
};

}  // namespace dnnlife::aging
