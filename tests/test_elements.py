import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_hbt.elements import (
    ArmModes,
    ConversionSettings,
    ModeUnitary,
    beamsplitter,
    bs_unitary,
    delay_phase_factor,
    evolve,
    phase_delay,
    sfg_unitary,
    spectral_filter,
)
from chromatic_hbt.fock import ModeRegistry, StateVector, apply_creation, single_photon
from chromatic_hbt.protocol import COLOR_LABELS, ModeFrequencies, build_erasure_registry, build_hbt_registry

from oracles import (
    evolve_by_expm,
    expm_series,
    generator_spectral_filter,
    ladder_evolve,
    quadratic_mixer_generator,
)


@pytest.fixture
def stage():
    registry, arms = build_erasure_registry()
    return registry, arms


def random_settings(rng):
    return ConversionSettings.from_angles(
        theta_31=rng.uniform(0.0, 2.0 * math.pi),
        theta_32=rng.uniform(0.0, 2.0 * math.pi),
        theta_2p2=rng.uniform(0.0, 2.0 * math.pi),
        theta_1p1=rng.uniform(0.0, 2.0 * math.pi),
        phi_31=rng.uniform(-math.pi, math.pi),
        phi_32=rng.uniform(-math.pi, math.pi),
        phi_2p2=rng.uniform(-math.pi, math.pi),
        phi_1p1=rng.uniform(-math.pi, math.pi),
    )


def random_state(registry, rng):
    basis = registry.enumerate_basis()
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    return StateVector(registry, {b: complex(a) for b, a in zip(basis, amps)})


def random_unitary(registry, rng):
    """A random unitary of the registry's one-photon sector: QR of a complex
    Gaussian matrix, with the phases of R's diagonal folded into Q."""
    z = rng.normal(size=(len(registry),) * 2) + 1j * rng.normal(size=(len(registry),) * 2)
    q, r = np.linalg.qr(z)
    return ModeUnitary(registry, q * (np.diag(r) / np.abs(np.diag(r))))


@st.composite
def generators_and_bunched_states(draw):
    """A Hermitian one-photon generator with some zero couplings, and a
    superposition of n_max = 3 basis states that each put 2 or 3 photons
    in one mode."""
    n_modes = draw(st.integers(2, 4))
    registry = ModeRegistry(n_max=3)
    for k in range(n_modes):
        registry.register(f"m{k}", 1e14 * (k + 1), "a")
    coupling = st.floats(-2.0, 2.0)
    h = np.zeros((n_modes, n_modes), dtype=complex)
    for i in range(n_modes):
        h[i, i] = draw(coupling)
        for j in range(i + 1, n_modes):
            if draw(st.booleans()):
                h[j, i] = complex(draw(coupling), draw(coupling))
                h[i, j] = h[j, i].conjugate()
    bunched = [b for b in registry.enumerate_basis() if max(b) >= 2]
    chosen = draw(st.lists(st.sampled_from(bunched), min_size=1, max_size=4, unique=True))
    amplitude = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    amps = draw(st.lists(amplitude, min_size=len(chosen), max_size=len(chosen)))
    return h, StateVector(registry, dict(zip(chosen, amps)))


@st.composite
def mixed_states(draw):
    """A superposition of basis states of every photon number, the vacuum
    included: on the erasure registry at n_max = 2, or on a registry of 2 to
    4 modes at n_max = 3.  Amplitude parts span [-1, 1], and often are a
    signed zero.  Also the registry's arms, None for the small one."""
    if draw(st.booleans()):
        registry, arms = build_erasure_registry()
    else:
        registry, arms = ModeRegistry(n_max=3), None
        for k in range(draw(st.integers(2, 4))):
            registry.register(f"m{k}", 1e14 * (k + 1), "a")
    basis = registry.enumerate_basis()
    chosen = []
    for photons in range(registry.n_max + 1):
        group = [b for b in basis if sum(b) == photons]
        chosen += draw(st.lists(st.sampled_from(group), max_size=3, unique=True))
    chosen = draw(st.permutations(chosen))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
    amplitude = st.builds(complex, part, part)
    amps = draw(st.lists(amplitude, min_size=len(chosen), max_size=len(chosen)))
    return StateVector(registry, dict(zip(chosen, amps))), arms


@st.composite
def states_and_unitaries(draw):
    """A mixed state and a splitter, a conversion at random angles (on the
    erasure registry) or a random unitary of its registry."""
    state, arms = draw(mixed_states())
    registry = state.registry
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["splitter", "random"] + (["conversion"] if arms else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "splitter":
        modes = list(registry)
        pairs = arms.bs_pairs() if arms else [(modes[0], modes[1])]
        return state, bs_unitary(registry, pairs)
    if kind == "conversion":
        return state, sfg_unitary(registry, random_settings(rng), arms)
    return state, random_unitary(registry, rng)


def plain(result):
    """A result as values that compare with ==: a state's amplitudes, a
    unitary's matrix entries, the parts of a tuple."""
    if isinstance(result, StateVector):
        return result.amplitudes
    if isinstance(result, ModeUnitary):
        return result.matrix.tolist()
    if isinstance(result, tuple):
        return tuple(map(plain, result))
    return result


def repr_items(state):
    # repr tells the sign of a zero part, which == does not
    return [(occ, repr(a)) for occ, a in state.amplitudes.items()]


class TestEvolveMatchesLadder:
    """evolve sends a one-photon basis state through its unitary column and
    every other one up the ladder; the result is the ladder's, bit for bit."""

    @given(states_and_unitaries())
    def test_same_keys_order_and_amplitudes_as_the_ladder(self, case):
        state, unitary = case
        got, want = evolve(state, unitary), ladder_evolve(state, unitary)
        assert list(got.amplitudes.items()) == list(want.amplitudes.items())
        assert repr_items(got) == repr_items(want)

    @pytest.mark.parametrize("amp", [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.5),
                                     complex(-0.5, -0.0)])
    def test_signed_zero_parts_come_out_as_the_ladders(self, stage, amp):
        # a part of amp * u that is -0.0 is +0.0 after the sum that starts at 0.0
        registry, arms = stage
        state = StateVector(registry, {occ: amp for occ in registry.enumerate_basis() if sum(occ) < 2})
        splitter = bs_unitary(registry, arms.bs_pairs())
        for unitary in (splitter, sfg_unitary(registry, ConversionSettings.ideal(), arms)):
            assert repr_items(evolve(state, unitary)) == repr_items(ladder_evolve(state, unitary))

    @given(mixed_states(), st.data())
    def test_filter_equals_the_generator_form(self, case, data):
        state, arms = case
        modes = list(state.registry)
        beam = arms.arm_a.all() if arms else data.draw(
            st.lists(st.sampled_from(modes), min_size=1, unique=True)
        )
        keep = data.draw(st.sampled_from(beam))
        (got, got_discarded), (want, want_discarded) = (
            spectral_filter(state, keep, beam), generator_spectral_filter(state, keep, beam)
        )
        assert list(got.amplitudes.items()) == list(want.amplitudes.items())
        assert repr_items(got) == repr_items(want)
        assert repr(got_discarded) == repr(want_discarded)


class TestOnePhotonTableFollowsRegister:
    """Every reader of the registry's one-photon table gives the oracles'
    results, on a registry grown by register after the table was built."""

    @settings(max_examples=6)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_grown_registry_matches_the_oracles(self, before, added, seed):
        rng = np.random.default_rng(seed)
        registry, modes = ModeRegistry(n_max=2), []
        # the second pass grows the registry after the first built its table
        for size in (before, before + added):
            modes += [registry.register(f"m{k}", 1e14 * (k + 1), "a") for k in range(len(modes), size)]
            # the vacuum and states of one and two photons
            state = random_state(registry, rng)
            unitary = random_unitary(registry, rng)
            evolved = evolve(state, unitary)
            assert repr_items(evolved) == repr_items(ladder_evolve(state, unitary))
            beam, keep = modes[1:] or modes, modes[-1]
            (got, got_discarded), (want, want_discarded) = (
                spectral_filter(evolved, keep, beam), generator_spectral_filter(evolved, keep, beam)
            )
            assert repr_items(got) == repr_items(want)
            assert repr(got_discarded) == repr(want_discarded)
            vacuum = StateVector.vacuum(registry)
            for mode in modes:
                occ = tuple(int(k == mode.index) for k in range(len(registry)))
                assert repr_items(apply_creation(vacuum, mode)) == [(occ, repr(1 + 0j))]
                assert repr(evolved.amplitude_of({mode: 1})) == repr(complex(evolved.amplitudes.get(occ, 0)))


class TestArmModes:
    def test_fields_are_the_color_labels(self):
        # protocol registers each arm's modes by these labels, ArmModes(**modes)
        assert tuple(f.name for f in dataclasses.fields(ArmModes)) == COLOR_LABELS

    def test_all_lists_the_fields_in_order(self, stage):
        _, arms = stage
        for arm in (arms.arm_a, arms.arm_b):
            assert arm.all() == tuple(getattr(arm, label) for label in COLOR_LABELS)
            assert len(set(arm.all())) == 5


class TestConversionSettings:
    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError, match="theta_31"):
            ConversionSettings(theta_31=-1.0, theta_32=0.0)

    def test_from_angles_is_the_constructor(self):
        # one default for the shifted-line angles, whichever name builds it
        s = ConversionSettings(theta_31=1.0, theta_32=2.0)
        assert s == ConversionSettings.from_angles(theta_31=1.0, theta_32=2.0)
        assert s.theta_2p2 == s.theta_1p1 == 2.0 * math.pi

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, value):
        with pytest.raises(ValueError, match="phi_2p2 must be finite"):
            ConversionSettings(theta_31=1.0, theta_32=1.0, phi_2p2=value)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_invalid_angle_named(self, value):
        with pytest.raises(ValueError, match="theta_32 must be finite and >= 0"):
            ConversionSettings.from_angles(theta_31=1.0, theta_32=value)

    def test_ideal_angles(self):
        s = ConversionSettings.ideal()
        assert s.theta_31 == pytest.approx(math.pi / 2)
        assert s.theta_32 == pytest.approx(2 * math.pi)


class TestBeamsplitter:
    def test_single_photon_splits_evenly(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f1)
        out = beamsplitter(state, arms.bs_pairs())
        s = 1 / math.sqrt(2)
        assert out.amplitude_of({arms.arm_a.f1: 1}) == pytest.approx(s)
        assert out.amplitude_of({arms.arm_b.f1: 1}) == pytest.approx(s)

    def test_two_color_superposition(self, stage):
        # alpha/beta weights distribute over both arms with a common 1/sqrt2
        registry, arms = stage
        alpha, beta = 0.6, 0.8j
        state = single_photon(registry, arms.arm_a.f1, alpha).plus(
            single_photon(registry, arms.arm_a.f2, beta)
        )
        out = beamsplitter(state, arms.bs_pairs())
        s = 1 / math.sqrt(2)
        for arm in (arms.arm_a, arms.arm_b):
            assert out.amplitude_of({arm.f1: 1}) == pytest.approx(alpha * s)
            assert out.amplitude_of({arm.f2: 1}) == pytest.approx(beta * s)
        assert out.norm2() == pytest.approx(1.0, abs=1e-14)

    def test_applying_twice_restores_input(self, stage):
        # the (x+y), (x-y) convention is an involution
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f1)
        out = beamsplitter(beamsplitter(state, arms.bs_pairs()), arms.bs_pairs())
        assert out.allclose(state, tol=1e-14)

    def test_overlapping_pairs_rejected(self, stage):
        registry, arms = stage
        pairs = arms.bs_pairs()
        bad = pairs + [(arms.arm_a.f1, arms.arm_b.f2)]
        state = single_photon(registry, arms.arm_a.f1)
        with pytest.raises(ValueError, match="more than one"):
            beamsplitter(state, bad)

    def test_same_mode_pair_rejected(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f1)
        with pytest.raises(ValueError, match="distinct"):
            beamsplitter(state, [(arms.arm_a.f1, arms.arm_a.f1)])


class TestSfgUnitary:
    def test_full_conversion_at_quarter_cycle(self, stage):
        registry, arms = stage
        u = sfg_unitary(registry, ConversionSettings.ideal(), arms)
        state = evolve(single_photon(registry, arms.arm_a.f1), u)
        assert state.amplitude_of({arms.arm_a.f3: 1}) == pytest.approx(1.0)

    def test_full_cycle_is_identity_on_standard_pairs(self, stage):
        # 2*pi interaction returns the f1:f3, f2:f2', f1:f1' pairs to identity
        registry, arms = stage
        settings = ConversionSettings.from_angles(
            theta_31=2 * math.pi, theta_32=2 * math.pi,
            theta_2p2=2 * math.pi, theta_1p1=2 * math.pi,
        )
        u = sfg_unitary(registry, settings, arms).matrix
        for mode in (arms.arm_a.f1, arms.arm_a.f3, arms.arm_a.f2, arms.arm_a.f2_shift,
                     arms.arm_b.f1, arms.arm_b.f1_shift):
            assert u[mode.index, mode.index] == pytest.approx(1.0, abs=1e-15)

    def test_f2_to_f3_pair_full_conversion_at_full_cycle(self, stage):
        # the second waveguide's pair converts completely at theta_32 = 2*pi
        registry, arms = stage
        settings = ConversionSettings.from_angles(theta_31=0.0, theta_32=2 * math.pi)
        state = evolve(single_photon(registry, arms.arm_b.f2), sfg_unitary(registry, settings, arms))
        assert state.amplitude_of({arms.arm_b.f3: 1}) == pytest.approx(1.0)

    def test_half_rotation_splits_equally(self, stage):
        # pi/4 on (f1, f3): amplitudes 1/sqrt2 each, cross-checked below by
        # the series-summed exponential of the same mixer
        registry, arms = stage
        settings = ConversionSettings.from_angles(theta_31=math.pi / 4, theta_32=2 * math.pi)
        state = evolve(single_photon(registry, arms.arm_a.f1), sfg_unitary(registry, settings, arms))
        s = 1 / math.sqrt(2)
        assert state.amplitude_of({arms.arm_a.f1: 1}) == pytest.approx(s)
        assert state.amplitude_of({arms.arm_a.f3: 1}) == pytest.approx(s)

        blocks = [(arms.arm_a.f1.index, arms.arm_a.f3.index, math.pi / 4, 0.0)]
        h = quadratic_mixer_generator(len(registry), blocks)
        ref = evolve_by_expm(single_photon(registry, arms.arm_a.f1), h)
        assert state.allclose(ref, tol=1e-12)

    def test_block_structure_exact_zeros(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(3)
        u = sfg_unitary(registry, random_settings(rng), arms).matrix
        coupled = set()
        a, b = arms.arm_a, arms.arm_b
        for low, high in ((a.f1, a.f3), (a.f2, a.f2_shift), (b.f2, b.f3), (b.f1, b.f1_shift)):
            coupled |= {(low.index, low.index), (high.index, high.index),
                        (low.index, high.index), (high.index, low.index)}
        n = len(registry)
        for i in range(n):
            for j in range(n):
                if (i, j) not in coupled and i != j:
                    assert u[i, j] == 0.0

    def test_unitarity_over_random_settings(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(11)
        eye = np.eye(len(registry))
        for _ in range(100):
            u = sfg_unitary(registry, random_settings(rng), arms).matrix
            assert np.abs(u.conj().T @ u - eye).max() < 1e-12

    def test_missing_modes_listed(self, stage):
        registry, arms = stage
        other_registry, other_arms = build_erasure_registry()
        small = ModeRegistry(n_max=2)
        small.register("only", 1e14, "a")
        with pytest.raises(ValueError, match="not registered"):
            sfg_unitary(small, ConversionSettings.ideal(), arms)


class TestEvolve:
    def test_identity_leaves_state(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(5)
        state = random_state(registry, rng)
        out = evolve(state, ModeUnitary(registry, np.eye(len(registry))))
        assert out.allclose(state, tol=1e-15)

    def test_nan_amplitude_survives_pruning(self, stage):
        # a NaN must reach the caller, not vanish as a negligible amplitude
        registry, arms = stage
        photon = next(iter(single_photon(registry, arms.arm_a.f1).amplitudes))
        state = StateVector(registry, {photon: complex(math.nan, 0.0)})
        out = evolve(state, ModeUnitary(registry, np.eye(len(registry))))
        assert any(cmath.isnan(a) for a in out.amplitudes.values())

    def test_norm_preserved_random(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(17)
        for _ in range(1000):
            state = random_state(registry, rng)
            u = sfg_unitary(registry, random_settings(rng), arms)
            assert evolve(state, u).norm2() == pytest.approx(1.0, abs=1e-12)

    def test_two_photon_full_conversion(self, stage):
        # photons in f1 and f2 on arm a: the pi/2 block moves f1 to f3
        registry, arms = stage
        state = apply_creation(single_photon(registry, arms.arm_a.f1), arms.arm_a.f2)
        settings = ConversionSettings.from_angles(theta_31=math.pi / 2, theta_32=2 * math.pi,
                                                  theta_2p2=2 * math.pi)
        out = evolve(state, sfg_unitary(registry, settings, arms))
        amp = out.amplitude_of({arms.arm_a.f3: 1, arms.arm_a.f2: 1})
        assert abs(amp) == pytest.approx(1.0, abs=1e-12)

        blocks = [
            (arms.arm_a.f1.index, arms.arm_a.f3.index, math.pi / 2, 0.0),
            (arms.arm_a.f2.index, arms.arm_a.f2_shift.index, 2 * math.pi, 0.0),
        ]
        ref = evolve_by_expm(state, quadratic_mixer_generator(len(registry), blocks))
        assert out.allclose(ref, tol=1e-10)

    def test_agrees_with_expm_oracle_on_two_photon_basis(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(23)
        a, b = arms.arm_a, arms.arm_b
        for _ in range(20):
            settings = random_settings(rng)
            state = random_state(registry, rng)
            out = evolve(state, sfg_unitary(registry, settings, arms))
            blocks = [
                (a.f1.index, a.f3.index, settings.theta_31, settings.phi_31),
                (a.f2.index, a.f2_shift.index, settings.theta_2p2, settings.phi_2p2),
                (b.f2.index, b.f3.index, math.pi / 2 - settings.theta_32, settings.phi_32),
                (b.f1.index, b.f1_shift.index, settings.theta_1p1, settings.phi_1p1),
            ]
            ref = evolve_by_expm(state, quadratic_mixer_generator(len(registry), blocks))
            assert out.allclose(ref, tol=1e-10)

    @given(generators_and_bunched_states())
    def test_agrees_with_expm_oracle_on_bunched_states(self, case):
        # exp(-iH) on the lifted Fock space against evolve with the one-photon
        # matrix exp(-ih): multiply occupied modes exercise the ladder factors
        h, state = case
        unitary = ModeUnitary(state.registry, expm_series(-1j * h))
        assert evolve(state, unitary).allclose(evolve_by_expm(state, h), tol=1e-12)

    def test_matrix_is_a_read_only_copy(self, stage):
        registry, _ = stage
        source = np.eye(len(registry), dtype=complex)
        unitary = ModeUnitary(registry, source)
        with pytest.raises(ValueError, match="read-only"):
            unitary.matrix[0, 0] = -1.0
        source[0, 0] = -1.0
        assert unitary.matrix[0, 0] == 1.0
        assert unitary.columns[0] == ((0, 1.0),)

    def test_nan_matrix_rejected(self, stage):
        registry, _ = stage
        matrix = np.eye(len(registry), dtype=complex)
        matrix[3, 3] = math.nan
        with pytest.raises(ValueError, match="not unitary"):
            ModeUnitary(registry, matrix)

    def test_matrix_of_the_wrong_size_rejected(self, stage):
        registry, _ = stage
        with pytest.raises(ValueError, match=r"unitary dimension \(3, 3\) does not match registry size 10"):
            ModeUnitary(registry, np.eye(3))

    def test_dimension_mismatch_rejected(self, stage):
        registry, arms = stage
        other = ModeRegistry(n_max=2)
        other.register("x", 1e14, "a")
        state = single_photon(registry, arms.arm_a.f1)
        with pytest.raises(ValueError, match="match"):
            evolve(state, ModeUnitary(other, np.eye(len(other))))

    def test_unitary_of_a_smaller_registry_rejected(self, stage):
        # built before register grew the registry: its modes are fewer, though
        # it is the same registry
        registry, arms = stage
        unitary = sfg_unitary(registry, ConversionSettings.ideal(), arms)
        extra = registry.register("extra", 3e14, "b")
        state = apply_creation(single_photon(registry, arms.arm_a.f1), extra)
        with pytest.raises(ValueError, match="^unitary modes do not match the state's registry$"):
            evolve(state, unitary)

    def test_unitary_over_equal_modes_under_another_n_max(self, stage):
        # a one-photon-sector unitary does not depend on the truncation
        registry, arms = stage
        wider = ModeRegistry(n_max=4)
        for mode in registry:
            wider.register(mode.label, mode.frequency, mode.branch)
        unitary = sfg_unitary(wider, ConversionSettings.ideal(), arms)
        state = apply_creation(single_photon(registry, arms.arm_a.f1), arms.arm_b.f2)
        expected = evolve(state, sfg_unitary(registry, ConversionSettings.ideal(), arms))
        assert evolve(state, unitary).amplitudes == expected.amplitudes

    def test_hom_bunching_on_beamsplitter(self, stage):
        # two same-color photons on the two arms never split after mixing
        registry, arms = stage
        state = apply_creation(single_photon(registry, arms.arm_a.f1), arms.arm_b.f1)
        out = beamsplitter(state, arms.bs_pairs())
        assert abs(out.amplitude_of({arms.arm_a.f1: 1, arms.arm_b.f1: 1})) < 1e-14
        assert abs(out.amplitude_of({arms.arm_a.f1: 2})) == pytest.approx(1 / math.sqrt(2))
        assert abs(out.amplitude_of({arms.arm_b.f1: 2})) == pytest.approx(1 / math.sqrt(2))


class TestSpectralFilter:
    def test_target_color_passes(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f3)
        out, discarded = spectral_filter(state, arms.arm_a.f3, arms.arm_a.all())
        assert out.allclose(state, tol=1e-15)
        assert discarded == 0.0

    def test_other_color_blocked(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f2_shift)
        out, discarded = spectral_filter(state, arms.arm_a.f3, arms.arm_a.all())
        assert out.norm2() == 0.0
        assert discarded == pytest.approx(1.0)

    def test_other_arm_untouched(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_b.f1)
        out, discarded = spectral_filter(state, arms.arm_a.f3, arms.arm_a.all())
        assert out.allclose(state, tol=1e-15)
        assert discarded == 0.0

    def test_keep_mode_outside_the_beam_rejected(self, stage):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f3)
        with pytest.raises(ValueError, match="keep mode 'b.f3' is not part of the filtered beam"):
            spectral_filter(state, arms.arm_b.f3, arms.arm_a.all())


class TestPhaseDelay:
    @pytest.mark.parametrize("t_delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, stage, t_delay):
        registry, arms = stage
        state = single_photon(registry, arms.arm_a.f1)
        with pytest.raises(ValueError, match=f"t_delay must be finite, got {t_delay}"):
            phase_delay(state, arms.arm_a.all(), t_delay)

    def test_zero_delay_identity(self, stage):
        registry, arms = stage
        rng = np.random.default_rng(29)
        state = random_state(registry, rng)
        assert phase_delay(state, arms.arm_a.all(), 0.0).allclose(state, tol=1e-15)

    def test_full_beat_period_restores_relative_phase(self, stage):
        registry, arms = stage
        freqs = ModeFrequencies.nominal()
        t = 1.0 / freqs.delta_f21
        alpha, beta = 0.6, 0.8
        state = single_photon(registry, arms.arm_a.f1, alpha).plus(
            single_photon(registry, arms.arm_a.f2, beta)
        )
        out = phase_delay(state, arms.arm_a.all(), t)
        a1 = out.amplitude_of({arms.arm_a.f1: 1})
        a2 = out.amplitude_of({arms.arm_a.f2: 1})
        relative = (a2 / beta) / (a1 / alpha)
        # one full beat period: relative phase advances by 2*pi exactly
        assert cmath.phase(relative) == pytest.approx(0.0, abs=1e-9)

    def test_path_length_phase_value(self):
        # 1.0 mm of extra path at a 210.1 GHz color difference
        delta_f = 210.1e9
        t = 1.0e-3 / 299792458.0
        delta_phi = 2 * math.pi * delta_f * t
        assert delta_phi == pytest.approx(4.403, abs=5e-4)

        reg = ModeRegistry(n_max=1)
        m1 = reg.register("c1", 2.0e14, "a")
        m2 = reg.register("c2", 2.0e14 + delta_f, "a")
        state = single_photon(reg, m1, 1 / math.sqrt(2)).plus(single_photon(reg, m2, 1 / math.sqrt(2)))
        out = phase_delay(state, [m1, m2], t)
        rel = out.amplitude_of({m2: 1}) / out.amplitude_of({m1: 1})
        # relative phase is -delta_phi, wrapped into (-pi, pi]
        assert cmath.phase(rel) == pytest.approx(2 * math.pi - delta_phi, abs=1e-6)

    def test_two_photon_delay_accumulates_both(self, stage):
        registry, arms = stage
        state = apply_creation(single_photon(registry, arms.arm_a.f1), arms.arm_a.f2)
        t = 1.7e-12
        out = phase_delay(state, arms.arm_a.all(), t)
        amp = out.amplitude_of({arms.arm_a.f1: 1, arms.arm_a.f2: 1})
        freqs = ModeFrequencies.nominal()
        expected = cmath.exp(-2j * math.pi * (arms.arm_a.f1.frequency + arms.arm_a.f2.frequency) * t)
        assert amp == pytest.approx(expected, abs=1e-9)

    def test_two_photons_in_one_delayed_mode_pick_up_the_factor_twice(self, stage):
        # evolve lifts the one-photon phase to |2>: (a^dag e^{i phi})^2 |0> / sqrt(2)
        registry, arms = stage
        f1 = arms.arm_a.f1
        state = apply_creation(single_photon(registry, f1), f1).scaled(1 / math.sqrt(2))
        t = 3.1e-12
        out = phase_delay(state, [f1], t)
        assert abs(out.amplitude_of({f1: 2}) - delay_phase_factor(f1.frequency, t) ** 2) <= 1e-15

    def test_mode_outside_the_registry_rejected(self, stage):
        # the HBT registry's B.a.f1 has index 10, past the erasure registry's ten modes
        registry, arms = stage
        _, _, hbt_arms_b = build_hbt_registry()
        with pytest.raises(ValueError, match=r"not registered in this registry: \['B.a.f1'\]"):
            phase_delay(single_photon(registry, arms.arm_a.f1), [hbt_arms_b.arm_a.f1], 1e-12)

    @pytest.mark.parametrize("operation, message", [
        (lambda state, arms: phase_delay(state, [arms.arm_a.f1], 1e-12),
         r"^delayed modes not registered in this registry: \['a.f1'\]$"),
        (lambda state, arms: apply_creation(state, arms.arm_a.f1),
         r"^mode 'a.f1' does not belong to this registry$"),
        (lambda state, arms: sfg_unitary(state.registry, ConversionSettings.ideal(), arms),
         r"^arm modes not registered in this registry: \['a.f1', 'b.f1'\]$"),
        (lambda state, arms: state.amplitude_of({arms.arm_a.f1: 1}),
         r"^mode 'a.f1' does not belong to this registry$"),
        (lambda state, arms: bs_unitary(state.registry, arms.bs_pairs()),
         r"^beamsplitter modes not registered in this registry: \['a.f1', 'b.f1'\]$"),
        (lambda state, arms: spectral_filter(state, arms.arm_a.f3, arms.arm_a.all()),
         r"^filtered modes not registered in this registry: \['a.f1'\]$"),
    ], ids=["phase_delay", "apply_creation", "sfg_unitary", "amplitude_of", "bs_unitary", "spectral_filter"])
    def test_mode_of_another_registry_at_an_index_in_range_rejected(self, stage, operation, message):
        # a second erasure registry whose f1 is 1 % higher: its a.f1 has the
        # index of the state's a.f1 but another frequency
        registry, arms = stage
        nominal = ModeFrequencies.nominal()
        _, foreign = build_erasure_registry(dataclasses.replace(nominal, f1=1.01 * nominal.f1))
        state = single_photon(registry, arms.arm_a.f1)
        with pytest.raises(ValueError, match=message):
            operation(state, foreign)
        # an equal registry's modes act as the state's own
        _, equal = build_erasure_registry()
        assert plain(operation(state, equal)) == plain(operation(state, arms))


class TestFilterProjectComposition:
    def test_reproduces_closed_form_for_random_parameters(self, stage):
        from chromatic_hbt.protocol import ErasureDetectorConfig, erase_and_detect, erasure_amplitude_closed_form

        rng = np.random.default_rng(31)
        for _ in range(50):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            alpha, beta = complex(z[0]), complex(z[1])
            settings = random_settings(rng)
            amp = erase_and_detect(alpha, beta, ErasureDetectorConfig(settings=settings))
            expected = erasure_amplitude_closed_form(alpha, beta, settings)
            assert amp == pytest.approx(expected, abs=1e-12)
