import json
import math
import re

import numpy as np
import pytest

from chromatic_hbt.fock import (
    SPEED_OF_LIGHT,
    ModeRegistry,
    StateVector,
    apply_creation,
    frequency_of_wavelength,
    inner_product,
    single_photon,
)


def two_mode_registry(n_max=2):
    reg = ModeRegistry(n_max=n_max)
    m1 = reg.register("g1", frequency_of_wavelength(1064.4e-9), "a")
    m2 = reg.register("g2", frequency_of_wavelength(1063.6e-9), "a")
    return reg, m1, m2


def random_state(reg, rng):
    basis = reg.enumerate_basis()
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    amps /= np.linalg.norm(amps)
    return StateVector(reg, {b: complex(a) for b, a in zip(basis, amps)})


class TestRegistry:
    def test_empty_registry_has_size_zero(self):
        assert len(ModeRegistry()) == 0

    def test_register_returns_fresh_handle(self):
        reg = ModeRegistry()
        mode = reg.register("g1", frequency_of_wavelength(1064.4e-9), "a")
        assert mode.index == 0
        assert mode.label == "g1"
        # f = c / lambda for 1064.4 nm
        assert mode.frequency == pytest.approx(SPEED_OF_LIGHT / 1064.4e-9)
        assert mode.frequency == pytest.approx(281.654e12, rel=1e-4)
        assert len(reg) == 1

    def test_duplicate_label_rejected_naming_label(self):
        reg = ModeRegistry()
        reg.register("g1", 2.8e14, "a")
        with pytest.raises(ValueError, match="g1"):
            reg.register("g1", 2.9e14, "b")

    def test_invalid_frequency_and_branch(self):
        reg = ModeRegistry()
        with pytest.raises(ValueError):
            reg.register("bad", -1.0, "a")
        with pytest.raises(ValueError):
            reg.register("bad", 1.0e14, "c")

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf, 0.0])
    def test_frequency_not_finite_and_positive_rejected(self, frequency):
        # `frequency <= 0` is false for NaN, and delay_phase_factor(nan, t) is nan+nanj
        with pytest.raises(ValueError, match=rf"^mode 'x': frequency must be > 0 and finite, got {frequency}$"):
            ModeRegistry().register("x", frequency, "a")

    def test_nan_frequency_refused_from_json(self):
        reg, m1, _ = two_mode_registry()
        data = single_photon(reg, m1).to_json_dict()
        data["registry"][0]["frequency"] = json.loads("NaN")  # what a file's NaN reads as
        with pytest.raises(ValueError, match=r"^mode 'g1': frequency must be > 0 and finite, got nan$"):
            StateVector.from_json_dict(data)

    def test_equality_with_a_non_registry_is_not_implemented(self):
        reg = ModeRegistry()
        assert reg.__eq__(object()) is NotImplemented
        assert reg != object()

    def test_n_max_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            ModeRegistry(n_max=0)

    @pytest.mark.parametrize("n_max", [2.7, 2.0, True, "3", None])
    def test_n_max_not_an_int_rejected(self, n_max):
        # int() would truncate 2.7 to 2 and read True as 1
        with pytest.raises(ValueError, match=rf"^n_max must be an int, got {re.escape(repr(n_max))}$"):
            ModeRegistry(n_max=n_max)

    def test_n_max_not_an_int_refused_from_json(self):
        reg, m1, _ = two_mode_registry()
        data = single_photon(reg, m1).to_json_dict()
        data["n_max"] = 2.7
        with pytest.raises(ValueError, match=r"^n_max must be an int, got 2\.7$"):
            StateVector.from_json_dict(data)

    def test_zero_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength must be > 0, got 0"):
            frequency_of_wavelength(0)

    def test_basis_enumeration_is_deterministic(self):
        reg, _, _ = two_mode_registry()
        basis = reg.enumerate_basis()
        assert basis == reg.enumerate_basis()
        assert (0, 0) in basis
        # total photon number <= 2 over two modes: 6 states
        assert len(basis) == 6
        assert all(sum(b) <= 2 for b in basis)


class TestCreation:
    def test_vacuum_ladder(self):
        reg, m1, _ = two_mode_registry()
        state = apply_creation(StateVector.vacuum(reg), m1)
        assert state.amplitude_of({m1: 1}) == pytest.approx(1.0)

    def test_double_creation_sqrt2(self):
        reg, m1, _ = two_mode_registry()
        state = apply_creation(apply_creation(StateVector.vacuum(reg), m1), m1)
        assert state.amplitude_of({m1: 2}) == pytest.approx(math.sqrt(2.0))

    def test_superposition_norm(self):
        # |alpha|^2 + |beta|^2 = 1 keeps the one-photon state normalized
        reg, m1, m2 = two_mode_registry()
        alpha, beta = 0.6, 0.8j
        state = single_photon(reg, m1, alpha).plus(single_photon(reg, m2, beta))
        assert state.norm2() == pytest.approx(1.0, abs=1e-15)

    def test_ladder_scaling_brute_force(self):
        # sqrt(n+1) scaling on every basis state, up to n_max = 4
        reg = ModeRegistry(n_max=4)
        m1 = reg.register("m1", 1e14, "a")
        m2 = reg.register("m2", 1e14, "b")
        for basis_state in reg.enumerate_basis():
            if sum(basis_state) + 1 > reg.n_max:
                continue
            src = StateVector(reg, {basis_state: 1.0})
            out = apply_creation(src, m1)
            i = m1.index
            n = basis_state[i]
            bumped = basis_state[:i] + (n + 1,) + basis_state[i + 1 :]
            assert out.amplitude(bumped) == pytest.approx(math.sqrt(n + 1))

    def test_mode_past_the_registry_rejected(self):
        reg, _, _ = two_mode_registry()
        larger, _, _ = two_mode_registry()
        m3 = larger.register("g3", frequency_of_wavelength(630.8e-9), "a")
        with pytest.raises(ValueError, match="mode 'g3' does not belong to this registry"):
            apply_creation(StateVector.vacuum(reg), m3)

    def test_truncation_overflow_names_state(self):
        reg, m1, _ = two_mode_registry(n_max=2)
        two = apply_creation(apply_creation(StateVector.vacuum(reg), m1), m1)
        with pytest.raises(ValueError, match=r"\|2,0>"):
            apply_creation(two, m1)


class TestInnerProduct:
    def test_vacuum_normalized(self):
        reg, _, _ = two_mode_registry()
        vac = StateVector.vacuum(reg)
        assert inner_product(vac, vac) == pytest.approx(1.0)

    def test_orthogonal_modes(self):
        reg, m1, m2 = two_mode_registry()
        assert inner_product(single_photon(reg, m1), single_photon(reg, m2)) == 0

    def test_one_photon_superposition_normalized(self):
        reg, m1, m2 = two_mode_registry()
        alpha, beta = 1 / math.sqrt(3), math.sqrt(2 / 3) * 1j
        psi = single_photon(reg, m1, alpha).plus(single_photon(reg, m2, beta))
        assert inner_product(psi, psi) == pytest.approx(1.0)

    def test_conjugate_symmetry_and_positivity(self):
        reg, _, _ = two_mode_registry()
        rng = np.random.default_rng(7)
        for _ in range(50):
            s1, s2 = random_state(reg, rng), random_state(reg, rng)
            lhs = inner_product(s1, s2)
            rhs = inner_product(s2, s1)
            assert lhs == pytest.approx(rhs.conjugate(), abs=1e-14)
            self_ip = inner_product(s1, s1)
            assert self_ip.imag == pytest.approx(0.0, abs=1e-14)
            assert self_ip.real >= 0.0

    def test_registry_mismatch_rejected(self):
        reg1, _, _ = two_mode_registry()
        reg2 = ModeRegistry()
        reg2.register("other", 1e14, "a")
        with pytest.raises(ValueError, match="registries"):
            inner_product(StateVector.vacuum(reg1), StateVector.vacuum(reg2))


class TestProjection:
    def test_project_own_mode(self):
        reg, m1, _ = two_mode_registry()
        assert single_photon(reg, m1).amplitude_of({m1: 1}) == pytest.approx(1.0)

    def test_project_absent_component_is_zero(self):
        # two-color input state has no component on the third color
        reg, m1, m2 = two_mode_registry()
        m3 = reg.register("g3", frequency_of_wavelength(630.8e-9), "a")
        psi = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8))
        assert psi.amplitude_of({m3: 1}) == 0.0

    def test_counts_of_every_photon_number_read_their_basis_state(self):
        reg, m1, m2 = two_mode_registry()
        rng = np.random.default_rng(5)
        state = random_state(reg, rng)
        for occ, amp in state.amplitudes.items():
            counts = {m1: occ[0], m2: occ[1]}
            assert repr(state.amplitude_of(counts)) == repr(amp), occ
            # a mode left out holds no photon
            assert state.amplitude_of({m: n for m, n in counts.items() if n}) == amp, occ

    @pytest.mark.parametrize("counts", [
        {"g1": -1},
        {"g1": 7},  # past n_max = 2
        {"g1": 2, "g2": 1},  # 3 photons in all
        {"g1": 1.0},
        {"g1": True},
        {"g1": None},
    ], ids=["negative", "past_n_max", "past_n_max_in_all", "float", "bool", "none"])
    def test_counts_not_an_occupation_refused(self, counts):
        # -1 and 7 read 0j, and 1.0 and True the one-photon amplitude, if let through
        reg, m1, m2 = two_mode_registry()
        modes = {"g1": m1, "g2": m2}
        psi = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8))
        message = (r"^counts must be non-negative ints with at most n_max=2 photons in all, "
                   rf"got {re.escape(repr(counts))}$")
        with pytest.raises(ValueError, match=message):
            psi.amplitude_of({modes[label]: n for label, n in counts.items()})

    def test_foreign_mode_refused_before_its_count(self):
        reg, m1, _ = two_mode_registry()
        other, _, _ = two_mode_registry()
        other.register("g3", 1e14, "a")
        alien = other.register("g4", 1e14, "a")
        with pytest.raises(ValueError, match=r"^mode 'g4' does not belong to this registry$"):
            single_photon(reg, m1).amplitude_of({m1: -1, alien: 1})


class TestSerialization:
    def test_round_trip_bit_exact(self):
        reg, m1, m2 = two_mode_registry()
        rng = np.random.default_rng(13)
        state = random_state(reg, rng)
        text = json.dumps(state.to_json_dict())
        back = StateVector.from_json_dict(json.loads(text))
        assert back.registry == state.registry
        assert back.amplitudes == dict(state.amplitudes)
        # serializing again reproduces the exact same bytes
        assert json.dumps(back.to_json_dict()) == text

    def test_serialization_order_is_stable(self):
        reg, m1, m2 = two_mode_registry()
        a = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8))
        b = single_photon(reg, m2, 0.8).plus(single_photon(reg, m1, 0.6))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    @pytest.mark.parametrize("occ", [
        [0, 1],  # too few entries: would evolve into a 2-mode state
        [0, 1, 0, 0],
        [1, 1, 1],  # 3 photons past n_max = 2
        [-1, 1, 0],  # negative: factorial() would refuse it only in evolve
        [True, 0, 0],
        [1.0, 0, 0],
        "100",
    ], ids=["short", "long", "past_n_max", "negative", "bool", "float", "string"])
    def test_occupation_not_of_the_registry_refused_by_position(self, occ):
        reg, m1, m2 = two_mode_registry()
        reg.register("g3", frequency_of_wavelength(630.8e-9), "a")
        data = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8)).to_json_dict()
        data["amplitudes"][1]["occ"] = occ
        message = (r"^amplitude 1: occ must be 3 non-negative ints with at most n_max=2 "
                   rf"photons in all, got {re.escape(repr(occ))}$")
        with pytest.raises(ValueError, match=message):
            StateVector.from_json_dict(data)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["0.8", True, None], ids=["string", "bool", "null"])
    def test_amplitude_part_not_a_number_refused_by_position(self, part, value):
        # complex("0.8", 0.0) raises TypeError, and complex(True, 0.0) is 1
        reg, m1, m2 = two_mode_registry()
        data = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8)).to_json_dict()
        data["amplitudes"][1][part] = value
        re_im = re.escape(f"{data['amplitudes'][1]['re']!r} and {data['amplitudes'][1]['im']!r}")
        with pytest.raises(ValueError, match=rf"^amplitude 1: re and im must be numbers, got {re_im}$"):
            StateVector.from_json_dict(data)

    def test_integer_and_nan_amplitude_parts_load(self):
        # JSON numbers without a fraction are ints; NaN is a number, kept and visible
        reg, m1, _ = two_mode_registry()
        data = single_photon(reg, m1).to_json_dict()
        data["amplitudes"][0].update(re=1, im=math.nan)
        amplitude = StateVector.from_json_dict(data).amplitude_of({m1: 1})
        assert amplitude.real == 1.0 and math.isnan(amplitude.imag)

    def test_repeated_occupation_refused_by_position(self):
        # a dump of 0.6|1,0> + 0.8|0,1> whose two entries name one basis state:
        # keeping the last amplitude would drop the other one unseen
        reg, m1, m2 = two_mode_registry()
        data = single_photon(reg, m1, 0.6).plus(single_photon(reg, m2, 0.8)).to_json_dict()
        data["amplitudes"][1]["occ"] = data["amplitudes"][0]["occ"]
        repeated = re.escape(repr(data["amplitudes"][0]["occ"]))
        with pytest.raises(ValueError, match=rf"^amplitude 1: occ {repeated} repeats an earlier amplitude's$"):
            StateVector.from_json_dict(data)

    def test_pruning_drops_negligible_amplitudes(self):
        reg, m1, m2 = two_mode_registry()
        tiny = single_photon(reg, m2, 1e-16)
        state = single_photon(reg, m1, 1.0).plus(tiny)
        occupied = {s for s in state.amplitudes}
        assert (0, 1) not in occupied
