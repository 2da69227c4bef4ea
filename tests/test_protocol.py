import cmath
import dataclasses
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromatic_hbt import elements, fock, protocol
from chromatic_hbt.elements import ArmPair, ConversionSettings
from chromatic_hbt.protocol import (
    ErasureDetectorConfig,
    G2Model,
    HbtScenario,
    ModeFrequencies,
    build_erasure_registry,
    build_hbt_registry,
    erase_and_detect,
    g2_tau_model,
    g2_zero_model,
    hbt_coincidence_amplitude,
    predicted_g2_curve,
    run_erasure_pipeline,
    visibility_from_counts,
)

from oracles import fresh_erasure_pipeline, per_delay_g2_curve

SQ2 = 1.0 / math.sqrt(2.0)
DETUNED_A = ErasureDetectorConfig(ConversionSettings.from_angles(0.3, 1.1, 0.7, 2.0, 0.1, -0.4, 0.9, 0.2), "A")
DETUNED_B = ErasureDetectorConfig(ConversionSettings.from_angles(1.3, 0.4, 2.7, 1.0, -0.6, 0.4, 0.3, 1.2), "B")


# a weight alpha and the norm its refusal shows: abs(1e200) ** 2 raises
# OverflowError, and a NaN norm passes any `>` bound
NAN_OR_OVERFLOWING_WEIGHTS = pytest.mark.parametrize("alpha, shown", [
    (math.nan, "nan"), (complex(0.0, math.nan), "nan"), (1e200, "inf"),
], ids=["nan", "nan_imag", "overflow"])


angles = st.floats(0.0, 2.0 * math.pi)
phases = st.floats(-math.pi, math.pi)


@st.composite
def tunings(draw):
    """A general conversion tuning: every angle and phase drawn at random."""
    return ConversionSettings.from_angles(
        *(draw(angles) for _ in range(4)), *(draw(phases) for _ in range(4))
    )


@st.composite
def unit_weights(draw):
    """Source weights (alpha, beta) with |alpha|^2 + |beta|^2 = 1."""
    weight = draw(st.floats(0.0, 1.0))
    alpha = weight * cmath.exp(1j * draw(phases))
    beta = math.sqrt(1.0 - weight**2) * cmath.exp(1j * draw(phases))
    return alpha, beta


@st.composite
def general_scenarios(draw):
    """Random source weights and general (non-ideal) tunings at both detectors."""
    alpha, beta = draw(unit_weights())
    return HbtScenario(
        alpha=alpha,
        beta=beta,
        detector_a=ErasureDetectorConfig(settings=draw(tunings()), label="A"),
        detector_b=ErasureDetectorConfig(settings=draw(tunings()), label="B"),
    )


def two_color_input(registry, arm, alpha, beta):
    vacuum = fock.StateVector.vacuum(registry)
    return fock.apply_creation(vacuum, arm.f1).scaled(alpha).plus(
        fock.apply_creation(vacuum, arm.f2).scaled(beta)
    )


def stage_json(stages):
    # JSON floats round-trip exactly, so equal text means bit-identical states
    return {name: json.dumps(state.to_json_dict()) for name, state in stages.items()}


def random_unit_pair(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    return complex(z[0]), complex(z[1])


class TestModeFrequencies:
    def test_nominal_color_difference_near_212_ghz(self):
        freqs = ModeFrequencies.nominal()
        assert freqs.delta_f21 == pytest.approx(212e9, rel=2e-3)

    def test_shifted_lines(self):
        freqs = ModeFrequencies.nominal()
        assert freqs.f1_shift == pytest.approx(freqs.f1 + (freqs.f3 - freqs.f2))
        assert freqs.f2_shift == pytest.approx(freqs.f2 + (freqs.f3 - freqs.f1))


class TestEraseAndDetect:
    def test_single_source(self):
        amp = erase_and_detect(1.0, 0.0, ErasureDetectorConfig.ideal())
        assert amp == pytest.approx(0.5, abs=1e-12)

    def test_destructive_interference(self):
        amp = erase_and_detect(SQ2, -SQ2, ErasureDetectorConfig.ideal())
        assert abs(amp) < 1e-12

    def test_detuned_first_pair(self):
        # theta_31 = pi/3: amplitude (alpha*sin(pi/3) + beta)/2
        settings = ConversionSettings.from_angles(theta_31=math.pi / 3, theta_32=2 * math.pi)
        amp = erase_and_detect(SQ2, SQ2, ErasureDetectorConfig(settings=settings))
        expected = (math.sqrt(3) / 2 + 1) / (2 * math.sqrt(2))
        assert amp == pytest.approx(expected, abs=1e-12)

    def test_ideal_identity_on_thousand_random_pairs(self):
        rng = np.random.default_rng(101)
        config = ErasureDetectorConfig.ideal()
        for _ in range(1000):
            alpha, beta = random_unit_pair(rng)
            amp = erase_and_detect(alpha, beta, config)
            assert abs(amp - (alpha + beta) / 2.0) < 1e-12

    def test_overweight_input_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            erase_and_detect(1.0, 1.0, ErasureDetectorConfig.ideal())

    @NAN_OR_OVERFLOWING_WEIGHTS
    def test_nan_or_overflowing_weight_rejected(self, alpha, shown):
        with pytest.raises(ValueError, match=rf"unit norm: \|alpha\|\^2 \+ \|beta\|\^2 = {shown} > 1$"):
            erase_and_detect(alpha, 0.0, ErasureDetectorConfig.ideal())

    def test_ideal_tuning_predicate(self):
        assert ErasureDetectorConfig.ideal().is_ideal_tuning()
        off = ErasureDetectorConfig(settings=ConversionSettings.from_angles(math.pi / 3, 2 * math.pi))
        assert not off.is_ideal_tuning()


class TestStageUnitaryMemo:
    @settings(max_examples=50)
    @given(st.lists(tunings(), min_size=2, max_size=3), unit_weights())
    def test_alternating_tunings_match_fresh_unitaries(self, tuning_list, weights):
        # one registry, two stages and several tunings taking turns: a memo
        # key that ignored the arms or the settings would hand a call the
        # unitary of another stage or tuning
        registry, arms_a, arms_b = build_hbt_registry()
        for _ in range(2):
            for tuning in tuning_list:
                config = ErasureDetectorConfig(settings=tuning)
                for arms in (arms_a, arms_b):
                    state = two_color_input(registry, arms.arm_a, *weights)
                    run = run_erasure_pipeline(state, registry, arms, config)
                    stages, amplitude = fresh_erasure_pipeline(state, registry, arms, config)
                    assert stage_json(run.stages) == stage_json(stages)
                    assert repr(run.detection_amplitude) == repr(amplitude)

    def test_register_clears_the_memo(self):
        registry, arms = build_erasure_registry()
        config = ErasureDetectorConfig(settings=ConversionSettings.from_angles(1.0, 2.0))
        run_erasure_pipeline(two_color_input(registry, arms.arm_a, 0.6, 0.8), registry, arms, config)
        extra = registry.register("extra", 3e14, "b")
        state = fock.apply_creation(two_color_input(registry, arms.arm_a, 0.6, 0.8), extra)
        run = run_erasure_pipeline(state, registry, arms, config)
        assert all(
            len(basis) == len(registry) == 11
            for stage in run.stages.values()
            for basis in stage.amplitudes
        )
        stages, amplitude = fresh_erasure_pipeline(state, registry, arms, config)
        assert stage_json(run.stages) == stage_json(stages)
        assert run.detection_amplitude == amplitude

    def test_equal_arm_pair_hits_the_memo(self, monkeypatch):
        # a pair rebuilt from its arms, or through pickle, is the same memo key
        registry, arms = build_erasure_registry()
        config = ErasureDetectorConfig.ideal()
        state = two_color_input(registry, arms.arm_a, 0.6, 0.8)
        first = run_erasure_pipeline(state, registry, arms, config)
        built = []
        monkeypatch.setattr(elements.ModeUnitary, "__post_init__", built.append)
        for twin in (ArmPair(arms.arm_a, arms.arm_b), pickle.loads(pickle.dumps(arms))):
            assert twin == arms and hash(twin) == hash(arms)
            run = run_erasure_pipeline(state, registry, twin, config)
            assert repr(run.detection_amplitude) == repr(first.detection_amplitude)
        assert built == []

    def test_repeated_tuning_builds_no_unitary(self, monkeypatch):
        built = []
        check = elements.ModeUnitary.__post_init__

        def spy(unitary, registry):
            built.append(unitary)
            check(unitary, registry)

        monkeypatch.setattr(elements.ModeUnitary, "__post_init__", spy)
        registry, arms = build_erasure_registry()
        state = two_color_input(registry, arms.arm_a, 0.6, 0.8)

        def general():
            # a new but equal settings object on every call
            return ErasureDetectorConfig(settings=ConversionSettings.from_angles(1.0, 2.0))

        run_erasure_pipeline(state, registry, arms, general())
        assert len(built) == 2
        run_erasure_pipeline(state, registry, arms, general())
        assert len(built) == 2
        run_erasure_pipeline(state, registry, arms, ErasureDetectorConfig.ideal())
        assert len(built) == 3
        run_erasure_pipeline(state, registry, arms, general())
        assert len(built) == 3


class TestHbtCoincidence:
    def test_balanced_zero_delay(self):
        result = hbt_coincidence_amplitude(HbtScenario.balanced())
        assert result.interfering
        assert result.amplitude == pytest.approx(0.25 * (SQ2 + SQ2), abs=1e-12)
        assert abs(result.amplitude) == pytest.approx(0.3536, abs=1e-4)

    def test_single_source_quarter_any_delay(self):
        scenario = HbtScenario(
            alpha=1.0, beta=0.0,
            detector_a=ErasureDetectorConfig.ideal("A"),
            detector_b=ErasureDetectorConfig.ideal("B"),
        )
        for t in (0.0, 0.7e-12, 3.1e-12):
            result = hbt_coincidence_amplitude(scenario.with_delay(t))
            assert abs(result.amplitude) == pytest.approx(0.25, abs=1e-12)

    def test_coincidence_matches_delayed_weights(self):
        rng = np.random.default_rng(7)
        base = HbtScenario.balanced()
        for _ in range(25):
            alpha, beta = random_unit_pair(rng)
            t = rng.uniform(0.0, 10e-12)
            scenario = HbtScenario(
                alpha=alpha, beta=beta,
                detector_a=ErasureDetectorConfig.ideal("A"),
                detector_b=ErasureDetectorConfig.ideal("B"),
                t_delay=t,
            )
            result = hbt_coincidence_amplitude(scenario)
            a_d, b_d = scenario.delayed_weights()
            assert result.amplitude == pytest.approx(0.25 * (a_d + b_d), abs=1e-12)

    def test_erasure_disabled_reports_components(self):
        scenario = HbtScenario.balanced(erasure_enabled=False)
        result = hbt_coincidence_amplitude(scenario)
        assert not result.interfering
        assert result.amplitude is None
        # each configuration's coincidence amplitude: its weight times the stages' 1/4
        a_d, b_d = result.components
        assert abs(a_d) == pytest.approx(SQ2 / 4)
        assert abs(b_d) == pytest.approx(SQ2 / 4)
        # no cross term: probability is the incoherent sum
        assert result.probability() == pytest.approx((0.5 + 0.5) / 16.0)

    def test_disabled_probability_of_an_unconverted_source_is_zero(self):
        # theta_31 = 0 converts no f1 to f3 at either stage, so the one source
        # configuration (f1 at A) never clicks A, with erasure or without
        unconverted = ConversionSettings.from_angles(0.0, 2.0 * math.pi)
        scenario = HbtScenario(
            alpha=1.0, beta=0.0,
            detector_a=ErasureDetectorConfig(unconverted, "A"),
            detector_b=ErasureDetectorConfig(unconverted, "B"),
        )
        assert hbt_coincidence_amplitude(scenario).probability() <= 1e-15
        disabled = dataclasses.replace(scenario, erasure_enabled=False)
        assert hbt_coincidence_amplitude(disabled).probability() <= 1e-15

    @settings(max_examples=5)
    @given(general_scenarios(), st.floats(0.0, 10e-12))
    def test_disabled_probability_is_the_enabled_components_weights(self, scenario, t_delay):
        # without erasure the configurations pass the same stages and keep
        # their separate weights; with it they add into one amplitude
        enabled = hbt_coincidence_amplitude(scenario.with_delay(t_delay))
        disabled = hbt_coincidence_amplitude(
            dataclasses.replace(scenario, t_delay=t_delay, erasure_enabled=False)
        )
        c1, c2 = enabled.components
        assert enabled.amplitude == c1 + c2
        assert disabled.amplitude is None and disabled.components == (c1, c2)
        assert abs(disabled.probability() - (abs(c1) ** 2 + abs(c2) ** 2)) <= 1e-15

    @pytest.mark.parametrize("t_delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, t_delay):
        # a NaN delay gave a NaN amplitude
        with pytest.raises(ValueError, match=f"^t_delay must be finite, got {t_delay}$"):
            HbtScenario.balanced(t_delay=t_delay)
        with pytest.raises(ValueError, match=f"^t_delay must be finite, got {t_delay}$"):
            HbtScenario.balanced().with_delay(t_delay)

    @pytest.mark.parametrize("erasure_enabled", [True, False])
    def test_curve_with_a_non_finite_delay_rejected(self, erasure_enabled):
        # one NaN delay made the whole normalized curve NaN
        delays = np.array([0.0, 1e-12, math.nan, 3e-12])
        with pytest.raises(ValueError, match="^t_delay must be finite, got nan$"):
            predicted_g2_curve(HbtScenario.balanced(erasure_enabled=erasure_enabled), delays)

    def test_curve_registry_freed_on_return(self, monkeypatch):
        # the registry's stage unitaries name its modes, not the registry, so
        # no reference cycle keeps it for the cycle collector
        built = []

        def spy(freqs):
            registry, arms_a, arms_b = build_hbt_registry(freqs)
            built.append(weakref.ref(registry))
            return registry, arms_a, arms_b

        monkeypatch.setattr(protocol, "build_hbt_registry", spy)
        gc.disable()
        try:
            predicted_g2_curve(HbtScenario.balanced(), np.linspace(0.0, 10e-12, 7))
            assert len(built) == 1 and built[0]() is None
        finally:
            gc.enable()

    def test_disabled_curve_is_flat_one(self):
        scenario = HbtScenario.balanced(erasure_enabled=False)
        delays = np.linspace(0.0, 10e-12, 7)
        curve = predicted_g2_curve(scenario, delays)
        assert np.all(curve == 1.0)

    def test_fringe_shape_matches_zero_model(self):
        # simulated coincidence probability over a delay grid, normalized to
        # its mean, equals the analytic fringe with twice the modeled swing
        # (the count-based visibility halves the single-pair fringe)
        freqs = ModeFrequencies.nominal()
        scenario = HbtScenario.balanced()
        delays = np.linspace(0.0, 2.0 / freqs.delta_f21, 100, endpoint=False)
        probs = np.array(
            [hbt_coincidence_amplitude(scenario.with_delay(t)).probability() for t in delays]
        )
        normalized = probs / probs.mean()
        epsilon = visibility_from_counts(1.0, 1.0, 1.0, 1.0)
        model = G2Model(visibility=epsilon, phase=0.0, frequency=freqs.delta_f21)
        expected = 1.0 + 2.0 * (g2_zero_model(model, delays) - 1.0)
        assert np.abs(normalized - expected).max() < 1e-10

    @given(general_scenarios())
    # one weight 0: that configuration still runs through both stages, times a zero weight
    @example(HbtScenario(alpha=1.0, beta=0.0, detector_a=DETUNED_A, detector_b=DETUNED_B))
    @example(HbtScenario(alpha=0.0, beta=-1j, detector_a=DETUNED_A, detector_b=DETUNED_B))
    def test_curve_matches_per_delay_oracle(self, scenario):
        delays = np.linspace(0.0, 2.0 / scenario.freqs.delta_f21, 9)
        expected = per_delay_g2_curve(scenario, delays)
        assert np.abs(predicted_g2_curve(scenario, delays) - expected).max() < 1e-12

    def test_pruning_moves_coincidence_amplitude_below_bound(self, monkeypatch):
        # fock.PRUNE_TOL's comment bounds the effect of pruning on this chain
        # by 4e-13; rerun it with nothing pruned and compare
        rng = np.random.default_rng(11)
        scenarios = []
        for _ in range(5):
            alpha, beta = random_unit_pair(rng)
            settings = [
                ConversionSettings.from_angles(
                    *rng.uniform(0.0, 2.0 * math.pi, 4), *rng.uniform(-math.pi, math.pi, 4)
                )
                for _ in range(2)
            ]
            scenarios.append(HbtScenario(
                alpha=alpha, beta=beta,
                detector_a=ErasureDetectorConfig(settings[0], "A"),
                detector_b=ErasureDetectorConfig(settings[1], "B"),
                t_delay=rng.uniform(0.0, 10e-12),
            ))
        pruned = [hbt_coincidence_amplitude(s).amplitude for s in scenarios]
        monkeypatch.setattr(fock, "PRUNE_TOL", 0.0)
        exact = [hbt_coincidence_amplitude(s).amplitude for s in scenarios]
        assert max(abs(a - b) for a, b in zip(pruned, exact)) < 4e-13

    def test_unnormalized_scenario_rejected(self):
        with pytest.raises(ValueError, match="must be 1"):
            HbtScenario(
                alpha=1.0, beta=1.0,
                detector_a=ErasureDetectorConfig.ideal("A"),
                detector_b=ErasureDetectorConfig.ideal("B"),
            )

    @NAN_OR_OVERFLOWING_WEIGHTS
    def test_nan_or_overflowing_weight_rejected(self, alpha, shown):
        with pytest.raises(ValueError, match=rf"must be 1, got {shown}$"):
            HbtScenario(
                alpha=alpha, beta=0.0,
                detector_a=ErasureDetectorConfig.ideal("A"),
                detector_b=ErasureDetectorConfig.ideal("B"),
            )


class TestG2Models:
    def test_zero_visibility_flat(self):
        model = G2Model(visibility=0.0, phase=0.3, frequency=210.1e9)
        for t in (0.0, 1e-12, 5e-12):
            assert g2_zero_model(model, t) == pytest.approx(1.0)

    def test_delay_fringe_at_reference_parameters(self):
        model = G2Model(visibility=0.59, phase=-0.16, frequency=210.1e9)
        assert g2_zero_model(model, 0.0) == pytest.approx(1.0 + 0.295 * math.cos(-0.16))
        assert g2_zero_model(model, 0.0) == pytest.approx(1.2912, abs=5e-4)

    def test_half_period_flips_fringe(self):
        model = G2Model(visibility=0.59, phase=-0.16, frequency=210.1e9)
        t = 0.8e-12
        half = 0.5 / model.frequency
        lhs = g2_zero_model(model, t + half) - 1.0
        rhs = -(g2_zero_model(model, t) - 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_period_in_delay(self):
        model = G2Model(visibility=0.4, phase=0.2, frequency=210.1e9)
        t = 1.3e-12
        period = 1.0 / model.frequency
        assert g2_zero_model(model, t + period) == pytest.approx(g2_zero_model(model, t), abs=1e-12)

    def test_argmax_at_minus_phase_over_angular_frequency(self):
        model = G2Model(visibility=0.59, phase=-0.16, frequency=210.1e9)
        period = 1.0 / model.frequency
        delays = np.linspace(0.0, period, 20001)
        best = delays[np.argmax(g2_zero_model(model, delays))]
        expected = (-model.phase / (2 * math.pi * model.frequency)) % period
        assert best == pytest.approx(expected, abs=period / 10000)

    def test_tau_fringe_at_zero(self):
        model = G2Model(visibility=0.576, phase=-0.434, frequency=1.32e6, linewidth=0.118e6)
        assert g2_tau_model(model, 0.0) == pytest.approx(1.0 + 0.288 * math.cos(-0.434))
        assert g2_tau_model(model, 0.0) == pytest.approx(1.2613, abs=5e-4)

    def test_tau_fringe_dies_in_gaussian_tail(self):
        model = G2Model(visibility=0.576, phase=-0.434, frequency=1.32e6, linewidth=0.118e6)
        tau = 10.0 / model.linewidth
        assert abs(g2_tau_model(model, tau) - 1.0) < 1e-40 * model.visibility

    def test_model_bounds_hold_everywhere(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            v = rng.uniform(0.0, 1.0)
            zero = G2Model(visibility=v, phase=rng.uniform(-math.pi, math.pi), frequency=10 ** rng.uniform(6, 12))
            taus = rng.uniform(-1e-6, 1e-6, size=50)
            damped = G2Model(visibility=v, phase=zero.phase, frequency=zero.frequency,
                             linewidth=10 ** rng.uniform(4, 7))
            for values in (g2_zero_model(zero, taus), g2_tau_model(damped, taus)):
                assert np.all(values >= 1.0 - v / 2.0 - 1e-12)
                assert np.all(values <= 1.0 + v / 2.0 + 1e-12)

    def test_tau_model_requires_linewidth(self):
        model = G2Model(visibility=0.5, phase=0.0, frequency=1e6)
        with pytest.raises(ValueError, match="linewidth"):
            g2_tau_model(model, 0.0)

    def test_invalid_visibility_rejected(self):
        with pytest.raises(ValueError, match="visibility"):
            G2Model(visibility=1.2, phase=0.0, frequency=1e6)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["phase", "frequency"])
    def test_non_finite_phase_or_frequency_rejected(self, name, value):
        # a NaN phase once reached the fig3 sampler, which drew no B click
        fields = dict(visibility=0.5, phase=0.0, frequency=1e6, linewidth=1e5)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            G2Model(**{**fields, name: value})

    @pytest.mark.parametrize("linewidth", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_linewidth_rejected(self, linewidth):
        with pytest.raises(ValueError, match=f"^linewidth must be >= 0 and finite, got {linewidth}$"):
            G2Model(visibility=0.5, phase=0.0, frequency=1e6, linewidth=linewidth)


class TestVisibilityFromCounts:
    def test_balanced_noiseless_is_one(self):
        assert visibility_from_counts(5.0, 5.0, 5.0, 5.0) == pytest.approx(1.0)

    def test_equal_stray_counts_four_ninths(self):
        n = 123.0
        assert visibility_from_counts(n, n, n, n, n, n) == pytest.approx(4.0 / 9.0)

    def test_missing_source_gives_zero(self):
        assert visibility_from_counts(10.0, 0.0, 10.0, 10.0) == 0.0

    def test_bounded_by_one_on_random_counts(self):
        rng = np.random.default_rng(37)
        for _ in range(10000):
            n1a, n2a, n1b, n2b, nda, ndb = rng.uniform(0.0, 1e6, size=6)
            eps = visibility_from_counts(n1a, n2a, n1b, n2b, nda, ndb)
            assert 0.0 <= eps <= 1.0 + 1e-12

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            visibility_from_counts(0.0, 0.0, 1.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            visibility_from_counts(-1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("counts", [(math.nan, 1, 1, 1), (math.inf, 1, 1, 1), (1, 1, 1, 1, 0, math.inf)])
    def test_non_finite_counts_rejected(self, counts):
        # NaN passed `c < 0` and gave nan, as did an infinite source count; an infinite stray count gave 0.0
        with pytest.raises(ValueError, match=r"^counts must be >= 0 and finite, got \("):
            visibility_from_counts(*counts)
