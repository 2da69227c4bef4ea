"""Color-erasure detection stage and the two-detector intensity interferometer.

A single erasure stage is the pipeline

    beamsplit -> pumped conversion -> beamsplit -> bandpass -> detect

which maps a superposition of two input colors onto one output color, so a
click no longer identifies the input wavelength.  Two such stages watching
two sources of different colors recover the interference term in their
coincidence rate; this module computes the exact state-vector amplitudes and
evaluates the one analytic fringe of `fitting` for a G2Model.

Every step of a stage is linear in the state, and the path delay only
multiplies each source configuration by a phase.  The coincidence amplitude
at a delay is therefore alpha' r1 + beta' r2: the delayed source weights of
`HbtScenario.delayed_weights` times the stages' responses r1 and r2 to the
two undelayed configurations, which are computed once per scenario, not
once per delay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .elements import (
    ArmModes,
    ArmPair,
    ConversionSettings,
    _finite_delay,
    bs_unitary,
    delay_phase_factor,
    evolve,
    sfg_unitary,
    spectral_filter,
)
from .fitting import tau_fringe
from .fock import (
    BRANCHES,
    ModeRegistry,
    StateVector,
    apply_creation,
    frequency_of_wavelength,
)

@dataclass(frozen=True)
class ModeFrequencies:
    """Center frequencies (Hz) of the two inputs, the target, and the two shifted lines."""

    f1: float
    f2: float
    f3: float
    f1_shift: float
    f2_shift: float

    @classmethod
    def from_wavelengths(cls, lambda1_m: float, lambda2_m: float, lambda3_m: float) -> "ModeFrequencies":
        f1 = frequency_of_wavelength(lambda1_m)
        f2 = frequency_of_wavelength(lambda2_m)
        f3 = frequency_of_wavelength(lambda3_m)
        # The "wrong pump" in each waveguide displaces the other color by the
        # complementary pump frequency.
        return cls(f1=f1, f2=f2, f3=f3, f1_shift=f1 + (f3 - f2), f2_shift=f2 + (f3 - f1))

    @classmethod
    def nominal(cls) -> "ModeFrequencies":
        """Default line set: 1064.4 nm and 1063.6 nm inputs, 630.8 nm target."""
        return cls.from_wavelengths(1064.4e-9, 1063.6e-9, 630.8e-9)

    @property
    def delta_f21(self) -> float:
        """Input color difference f2 - f1 in Hz."""
        return self.f2 - self.f1


# the five colors in declaration order, which is the order of each arm's modes
COLOR_LABELS = tuple(f.name for f in fields(ModeFrequencies))


def _register_arms(registry: ModeRegistry, freqs: ModeFrequencies, prefix: str) -> ArmPair:
    """One stage's two arms, branches a and b, each mode labeled prefix + branch + "." + color."""
    arms = [
        ArmModes(**{
            label: registry.register(f"{prefix}{branch}.{label}", getattr(freqs, label), branch)
            for label in COLOR_LABELS
        })
        for branch in BRANCHES
    ]
    return ArmPair(*arms)


def build_erasure_registry(freqs: ModeFrequencies | None = None) -> tuple[ModeRegistry, ArmPair]:
    """Registry for one erasure stage: five colors on each of two arms."""
    registry = ModeRegistry(n_max=2)
    return registry, _register_arms(registry, freqs or ModeFrequencies.nominal(), "")


def build_hbt_registry(freqs: ModeFrequencies | None = None) -> tuple[ModeRegistry, ArmPair, ArmPair]:
    """Registry for the two-detector interferometer: arm pairs for stages A and B."""
    freqs = freqs or ModeFrequencies.nominal()
    registry = ModeRegistry(n_max=2)
    return registry, _register_arms(registry, freqs, "A."), _register_arms(registry, freqs, "B.")


@dataclass(frozen=True)
class ErasureDetectorConfig:
    """One erasure stage: its conversion settings; its bandpass keeps f3."""

    settings: ConversionSettings
    label: str = "A"

    @classmethod
    def ideal(cls, label: str = "A") -> "ErasureDetectorConfig":
        return cls(settings=ConversionSettings.ideal(), label=label)

    def is_ideal_tuning(self) -> bool:
        """True when theta_31 sits a quarter cycle in (mod full cycles), theta_32 on
        a full cycle, and both conversion phases vanish, each to within 1e-12."""
        s = self.settings
        tol = 1e-12
        two_pi = 2.0 * math.pi
        on_quarter = abs(math.remainder(s.theta_31 - math.pi / 2.0, two_pi)) <= tol
        on_full = abs(math.remainder(s.theta_32, two_pi)) <= tol
        return on_quarter and on_full and abs(s.phi_31) <= tol and abs(s.phi_32) <= tol


@dataclass
class ErasureRun:
    """Intermediate and final states of one erasure pipeline pass."""

    stages: dict[str, StateVector]
    detection_amplitude: complex
    discarded_probability: float

    @property
    def detection_probability(self) -> float:
        return abs(self.detection_amplitude) ** 2


def run_erasure_pipeline(
    state: StateVector,
    registry: ModeRegistry,
    arms: ArmPair,
    config: ErasureDetectorConfig,
) -> ErasureRun:
    """Drive a state through one erasure stage, recording each step.

    Both beamsplitters act on the same pairs, so one unitary serves both.
    The splitter (keyed by `arms`) and the conversion unitary (keyed by
    `(arms, config.settings)`) come from the registry's memo, so each is
    built and checked for unitarity once per tuning and registry size, not
    once per call; `registry.register` clears the memo.
    """
    splitter = registry._stage_unitary(arms, lambda: bs_unitary(registry, arms.bs_pairs()))
    conversion = registry._stage_unitary(
        (arms, config.settings), lambda: sfg_unitary(registry, config.settings, arms)
    )
    stages = {"input": state}
    state = evolve(state, splitter)
    stages["after_first_beamsplitter"] = state
    state = evolve(state, conversion)
    stages["after_conversion"] = state
    state = evolve(state, splitter)
    stages["after_second_beamsplitter"] = state
    keep = arms.arm_a.f3
    state, discarded = spectral_filter(state, keep, arms.arm_a.all())
    stages["after_filter"] = state
    amplitude = state.amplitude_of({keep: 1})
    return ErasureRun(stages=stages, detection_amplitude=amplitude, discarded_probability=discarded)


def run_two_color_erasure(
    freqs: ModeFrequencies, alpha: complex, beta: complex, config: ErasureDetectorConfig
) -> tuple[ErasureRun, ArmPair]:
    """One erasure stage fed alpha*f1 + beta*f2 on arm a, and the arms its states refer to."""
    registry, arms = build_erasure_registry(freqs)
    vacuum = StateVector.vacuum(registry)
    state = apply_creation(vacuum, arms.arm_a.f1).scaled(alpha).plus(
        apply_creation(vacuum, arms.arm_a.f2).scaled(beta)
    )
    return run_erasure_pipeline(state, registry, arms, config), arms


def _weight_norm2(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2 as one hypot times itself: inf where abs(z) ** 2 would
    raise OverflowError, NaN for a NaN weight, and `not norm2 <= bound` refuses both."""
    norm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)
    return norm * norm


def erase_and_detect(alpha: complex, beta: complex, config: ErasureDetectorConfig) -> complex:
    """Detection amplitude of one erasure stage fed alpha*f1 + beta*f2.

    For ideal tuning this equals (alpha + beta) / 2 exactly; in general it is
    (alpha e^{i phi_31} sin(theta_31) + beta e^{i phi_32} cos(theta_32)) / 2.
    """
    norm2 = _weight_norm2(alpha, beta)
    if not norm2 <= 1.0 + 1e-9:
        raise ValueError(f"input weights exceed unit norm: |alpha|^2 + |beta|^2 = {norm2!r} > 1")
    return run_two_color_erasure(ModeFrequencies.nominal(), alpha, beta, config)[0].detection_amplitude


def erasure_amplitude_closed_form(alpha: complex, beta: complex, settings: ConversionSettings) -> complex:
    """Closed form of the detection amplitude, for cross-checks and reporting."""
    return 0.5 * (
        alpha * cmath.exp(1j * settings.phi_31) * math.sin(settings.theta_31)
        + beta * cmath.exp(1j * settings.phi_32) * math.cos(settings.theta_32)
    )


@dataclass(frozen=True)
class HbtScenario:
    """Two single-photon sources of different colors watched by two erasure stages.

    alpha weighs the (f1 at A, f2 at B) configuration and beta the swapped
    one.  The path delay acts on everything heading to stage A; paths to
    stage B are fixed.  The delay must be finite.
    """

    alpha: complex
    beta: complex
    detector_a: ErasureDetectorConfig
    detector_b: ErasureDetectorConfig
    t_delay: float = 0.0
    erasure_enabled: bool = True
    freqs: ModeFrequencies = ModeFrequencies.nominal()

    def __post_init__(self):
        norm2 = _weight_norm2(self.alpha, self.beta)
        if not abs(norm2 - 1.0) <= 1e-9:
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm2!r}")
        _finite_delay(self.t_delay)

    @classmethod
    def balanced(cls, t_delay: float = 0.0, erasure_enabled: bool = True) -> "HbtScenario":
        s = 1.0 / math.sqrt(2.0)
        return cls(
            alpha=s,
            beta=s,
            detector_a=ErasureDetectorConfig.ideal("A"),
            detector_b=ErasureDetectorConfig.ideal("B"),
            t_delay=t_delay,
            erasure_enabled=erasure_enabled,
        )

    def with_delay(self, t_delay: float) -> "HbtScenario":
        return replace(self, t_delay=t_delay)

    def delayed_weights(self) -> tuple[complex, complex]:
        """Source weights including the phases from the delay on the A path."""
        alpha = self.alpha * delay_phase_factor(self.freqs.f1, self.t_delay)
        beta = self.beta * delay_phase_factor(self.freqs.f2, self.t_delay)
        return alpha, beta


@dataclass(frozen=True)
class HbtCoincidence:
    """Joint-detection content of the final two-photon state.

    components are the two source configurations' amplitudes alpha' r1 and
    beta' r2.  With erasure they add into one interfering amplitude; without
    it they stay orthogonal and only their separate weights survive.
    """

    interfering: bool
    amplitude: complex | None
    components: tuple[complex, complex]

    def probability(self) -> float:
        if self.interfering:
            return abs(self.amplitude) ** 2
        a, b = self.components
        return abs(a) ** 2 + abs(b) ** 2


def _coincidence_response(scenario: HbtScenario) -> tuple[complex, complex]:
    """Exact coincidence amplitudes (r1, r2) of the two undelayed source
    configurations, (f1 at A, f2 at B) and (f2 at A, f1 at B), each run
    once through both stages; the amplitude at a delay is alpha' r1 + beta' r2
    (see the module docstring)."""
    registry, arms_a, arms_b = build_hbt_registry(scenario.freqs)
    keep = {arms_a.arm_a.f3: 1, arms_b.arm_a.f3: 1}
    responses = []
    for color_at_a, color_at_b in (("f1", "f2"), ("f2", "f1")):
        pair = apply_creation(StateVector.vacuum(registry), getattr(arms_a.arm_a, color_at_a))
        pair = apply_creation(pair, getattr(arms_b.arm_a, color_at_b))
        after_a = run_erasure_pipeline(pair, registry, arms_a, scenario.detector_a).stages["after_filter"]
        after_b = run_erasure_pipeline(after_a, registry, arms_b, scenario.detector_b).stages["after_filter"]
        responses.append(after_b.amplitude_of(keep))
    return responses[0], responses[1]


def hbt_coincidence_amplitude(scenario: HbtScenario) -> HbtCoincidence:
    """Exact two-photon simulation of the interferometer.

    With erasure enabled the coincidence amplitude is alpha' r1 + beta' r2
    (see the module docstring); with erasure disabled the same two photon
    configurations remain distinguishable and never interfere.
    """
    alpha_d, beta_d = scenario.delayed_weights()
    r1, r2 = _coincidence_response(scenario)
    c1, c2 = alpha_d * r1, beta_d * r2
    amplitude = c1 + c2 if scenario.erasure_enabled else None
    return HbtCoincidence(interfering=scenario.erasure_enabled, amplitude=amplitude, components=(c1, c2))


def predicted_g2_curve(scenario: HbtScenario, t_delays: np.ndarray) -> np.ndarray:
    """Coincidence fringe normalized to its own delay average.

    The erasure stages are linear and independent of the delay, which only
    phases the two source configurations.  So both stages run once per
    configuration, and each delay costs its delayed weights alpha', beta'
    and the sum alpha' r1 + beta' r2.  With erasure disabled the curve is
    exactly flat at 1.  Every delay must be finite, with erasure or without.
    """
    t_delays = np.asarray(t_delays, dtype=float)
    for t_delay in t_delays:
        _finite_delay(t_delay)
    if not scenario.erasure_enabled:
        return np.ones_like(t_delays)
    r1, r2 = _coincidence_response(scenario)
    weights = (scenario.with_delay(t).delayed_weights() for t in t_delays)
    probs = np.array([abs(alpha_d * r1 + beta_d * r2) ** 2 for alpha_d, beta_d in weights])
    mean = probs.mean()
    if mean == 0.0:
        return np.ones_like(probs)
    return probs / mean


@dataclass(frozen=True)
class G2Model:
    """Analytic coincidence fringe: g2 = 1 + (v/2) * envelope * cos(phase term).

    Without a linewidth the fringe is scanned against the controller delay at
    `frequency` = the input color difference; with a linewidth it is scanned
    against the post-processing shift tau at `frequency` = the residual output
    color difference, damped by exp(-(linewidth*tau)^2).
    """

    visibility: float
    phase: float
    frequency: float  # Hz
    linewidth: float | None = None  # Hz

    def __post_init__(self):
        # each check written so that NaN fails it
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        for name in ("phase", "frequency"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.linewidth is not None and not 0.0 <= self.linewidth < math.inf:
            raise ValueError(f"linewidth must be >= 0 and finite, got {self.linewidth}")


def g2_zero_model(model: G2Model, t_delay: float | np.ndarray) -> float | np.ndarray:
    """Zero-shift fringe vs controller delay: the shift fringe at linewidth 0,
    1 + (v/2) cos(phase + 2 pi f t)."""
    return g2_tau_model(replace(model, linewidth=0.0), t_delay)


def g2_tau_model(model: G2Model, tau: float | np.ndarray) -> float | np.ndarray:
    """Shift fringe: 1 + (v/2) exp(-(linewidth*tau)^2) cos(phase + 2 pi f tau)."""
    if model.linewidth is None:
        raise ValueError("model has no linewidth; use g2_zero_model for delay scans")
    params = (model.visibility, model.linewidth, model.phase, model.frequency)
    out = tau_fringe(params, np.asarray(tau, dtype=float))
    return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out


def visibility_from_counts(
    n1a: float, n2a: float, n1b: float, n2b: float, nda: float = 0.0, ndb: float = 0.0
) -> float:
    """Fringe visibility from per-source and stray counts at each detector.

    4*sqrt(n1a*n2a*n1b*n2b) / ((n1a+n2a+nda) * (n1b+n2b+ndb)); bounded by 1,
    degraded by count imbalance and stray counts.
    """
    counts = (n1a, n2a, n1b, n2b, nda, ndb)
    if any(not 0 <= c < math.inf for c in counts):
        raise ValueError(f"counts must be >= 0 and finite, got {counts}")
    denom_a = n1a + n2a + nda
    denom_b = n1b + n2b + ndb
    if denom_a <= 0 or denom_b <= 0:
        raise ValueError("visibility undefined: a detector has zero total counts")
    return 4.0 * math.sqrt(n1a * n2a * n1b * n2b) / (denom_a * denom_b)
