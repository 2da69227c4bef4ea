"""Elementary optical transformations on truncated Fock states.

Four building blocks: 50-50 beamsplitters, the pumped-waveguide frequency
conversion step set by its interaction angles, spectral filtering, and a
path-delay phase shift.  The beamsplitter, conversion and delay are all
single-photon-sector unitaries lifted to the full (multi-photon) state by
`evolve`; filtering is a projection that reports the discarded probability
mass.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .fock import ModeId, ModeRegistry, StateVector, _pruned

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class ConversionSettings:
    """Interaction angles and phases of the four pumped conversion processes.

    Each process mixes one mode pair: on arm "a" the pair (f1, f3) by the
    angle theta_31 and the pair (f2, f2') by theta_2p2; on arm "b" the pair
    (f2, f3) by theta_32 and the pair (f1, f1') by theta_1p1.  An angle is
    the interaction time times the process's coupling rate, theta = t * xi.
    """

    theta_31: float
    theta_32: float
    theta_2p2: float = 2.0 * math.pi
    theta_1p1: float = 2.0 * math.pi
    phi_31: float = 0.0
    phi_32: float = 0.0
    phi_2p2: float = 0.0
    phi_1p1: float = 0.0

    def __post_init__(self):
        for name in ("theta_31", "theta_32", "theta_2p2", "theta_1p1"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("phi_31", "phi_32", "phi_2p2", "phi_1p1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @classmethod
    def from_angles(cls, *args, **kwargs) -> "ConversionSettings":
        """The constructor, under a name that says its arguments are angles."""
        return cls(*args, **kwargs)

    @classmethod
    def ideal(cls) -> "ConversionSettings":
        """Tuning at which both input colors convert fully: theta_31 = pi/2, theta_32 = 2*pi."""
        return cls(theta_31=math.pi / 2.0, theta_32=2.0 * math.pi)


@dataclass(frozen=True)
class ArmModes:
    """The five colors of one spatial arm."""

    f1: ModeId
    f2: ModeId
    f3: ModeId
    f1_shift: ModeId
    f2_shift: ModeId

    def all(self) -> tuple[ModeId, ...]:
        return _arm_colors(self)


# an arm's five colors in field order; fields() on each call costs 20 times this
_arm_colors = operator.attrgetter(*(f.name for f in fields(ArmModes)))


@dataclass(frozen=True)
class ArmPair:
    """Two arms mixed by the beamsplitters of one erasure stage."""

    arm_a: ArmModes
    arm_b: ArmModes

    def __post_init__(self):
        # the registry's stage memo hashes the pair twice per pipeline call,
        # and a dataclass hash walks all ten ModeIds each time.  Equal pairs
        # have equal mode indices, and an int tuple hashes alike in every
        # process, so the cached value survives a pickle round trip.
        object.__setattr__(self, "_hash", hash(tuple(m.index for m in self.all_modes())))

    def __hash__(self) -> int:
        return self._hash

    def bs_pairs(self) -> list[tuple[ModeId, ModeId]]:
        return list(zip(self.arm_a.all(), self.arm_b.all()))

    def all_modes(self) -> tuple[ModeId, ...]:
        return self.arm_a.all() + self.arm_b.all()


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """Single-photon-sector unitary over all modes of a registry.

    matrix[j, i] is the amplitude for a photon entering mode i to leave in
    mode j.  Checked to be unitary entrywise at construction, then held as a
    read-only copy.  modes is the registry's mode tuple at construction; the
    unitary keeps no reference to the registry itself, so a registry's memo
    of its stage unitaries makes no reference cycle.  columns[i] lists the
    nonzero (j, matrix[j, i]) entries of input column i, the only ones
    `evolve` needs: a one-photon basis state in mode i maps to column i
    itself, and each ladder step of a photon in mode i walks it.
    """

    registry: InitVar[ModeRegistry]
    matrix: np.ndarray
    modes: tuple[ModeId, ...] = field(init=False, repr=False)
    columns: tuple[tuple[tuple[int, complex], ...], ...] = field(init=False, repr=False)

    def __post_init__(self, registry: ModeRegistry):
        n = len(registry)
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (n, n):
            raise ValueError(f"unitary dimension {matrix.shape} does not match registry size {n}")
        deviation = np.abs(matrix.conj().T @ matrix - np.eye(n)).max()
        if not deviation <= UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max deviation {deviation:.3e})")
        matrix.flags.writeable = False
        columns = tuple(
            [
                tuple([(j, coeff) for j, coeff in enumerate(column) if coeff])
                for column in matrix.T.tolist()
            ]
        )
        object.__setattr__(self, "matrix", matrix)
        modes, _, _, _, _ = registry._per_size()
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "columns", columns)


def bs_unitary(registry: ModeRegistry, pairs: list[tuple[ModeId, ModeId]]) -> ModeUnitary:
    """50-50 beamsplitter on each (x, y) pair: x -> (x+y)/sqrt2, y -> (x-y)/sqrt2."""
    registry.refuse_foreign([m for pair in pairs for m in pair], "beamsplitter")
    seen: set[int] = set()
    for x, y in pairs:
        if x.index == y.index:
            raise ValueError(f"beamsplitter pair must use two distinct modes, got {x.label!r} twice")
        for m in (x, y):
            if m.index in seen:
                raise ValueError(f"mode {m.label!r} appears in more than one beamsplitter pair")
            seen.add(m.index)
    u = np.eye(len(registry), dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    for x, y in pairs:
        u[x.index, x.index] = s
        u[y.index, x.index] = s
        u[x.index, y.index] = s
        u[y.index, y.index] = -s
    return ModeUnitary(registry, u)


def beamsplitter(state: StateVector, pairs: list[tuple[ModeId, ModeId]]) -> StateVector:
    """Apply 50-50 beamsplitters to each listed mode pair simultaneously."""
    return evolve(state, bs_unitary(state.registry, pairs))


def _rotation_block(
    u: np.ndarray, low: ModeId, high: ModeId, keep: float, convert: float, phi: float
) -> None:
    """Write a two-mode mixing block: low -> keep*low + e^{i phi}*convert*high.

    keep and convert must satisfy keep^2 + convert^2 = 1; the conjugate
    column follows from unitarity.
    """
    phase = cmath.exp(1j * phi)
    u[low.index, low.index] = keep
    u[high.index, low.index] = convert * phase
    u[low.index, high.index] = -convert * phase.conjugate()
    u[high.index, high.index] = keep


def sfg_unitary(
    registry: ModeRegistry, settings: ConversionSettings, arms: ArmPair
) -> ModeUnitary:
    """Single-photon unitary of the two pumped waveguides acting on one arm pair.

    The four coupled pairs are disjoint, so the matrix is block 2x2 rotations
    and exactly identity elsewhere.  Conversion amplitudes:

      arm a, f1 -> f3:       e^{i phi_31} * sin(theta_31)
      arm a, f2 -> f2':      e^{i phi_2p2} * sin(theta_2p2)
      arm b, f2 -> f3:       e^{i phi_32} * cos(theta_32)
      arm b, f1 -> f1':      e^{i phi_1p1} * sin(theta_1p1)

    The second waveguide's f2 -> f3 pair is parameterized a quarter cycle
    off the others: it reaches full conversion at theta_32 in {0, 2*pi, ...},
    so the tuning theta_31 = pi/2, theta_32 = 2*pi converts both input
    colors completely.  This convention is fixed package-wide.
    """
    registry.refuse_foreign(arms.all_modes(), "arm")
    u = np.eye(len(registry), dtype=complex)
    a, b = arms.arm_a, arms.arm_b
    _rotation_block(u, a.f1, a.f3, math.cos(settings.theta_31), math.sin(settings.theta_31), settings.phi_31)
    _rotation_block(u, a.f2, a.f2_shift, math.cos(settings.theta_2p2), math.sin(settings.theta_2p2), settings.phi_2p2)
    _rotation_block(u, b.f2, b.f3, math.sin(settings.theta_32), math.cos(settings.theta_32), settings.phi_32)
    _rotation_block(u, b.f1, b.f1_shift, math.cos(settings.theta_1p1), math.sin(settings.theta_1p1), settings.phi_1p1)
    return ModeUnitary(registry, u)


def evolve(state: StateVector, unitary: ModeUnitary) -> StateVector:
    """Second-quantized action of a mode unitary on a truncated Fock state.

    Each occupied basis state is rebuilt from the vacuum with transformed
    creation operators, a_i^dag -> sum_j u[j, i] a_j^dag, walking only the
    nonzero entries of column i; the ladder factors make this exact for any
    photon number within the truncation.  Norm is preserved to machine
    precision.

    A basis state that holds one photon, in mode i, goes straight through
    column i: amp * u[j, i] is added at the one-photon state of each mode j,
    in column order.  The ladder adds 0.0 + (amp / sqrt(1)) * u[j, i] *
    sqrt(1) there, which equals amp * u[j, i] in every nonzero component, and
    both sums start at 0.0, so a zero comes out as +0.0 either way: the
    result is bit for bit the ladder's.  The registry's one-photon
    occupations and their index dict (see `ModeRegistry`) find a one-photon
    source and its mode i with one dict lookup, and hold each target tuple,
    so no tuple is built for it.
    Every other basis state, the vacuum included, runs the ladder.

    The unitary must name the state registry's modes, the same tuple or an
    equal one (see `ModeUnitary`), whatever either registry's n_max: a
    unitary built before the registry grew by `register` is refused.
    """
    registry = state.registry
    modes, vacuum, ones, one_photon, _ = registry._per_size()
    if unitary.modes is not modes and unitary.modes != modes:
        raise ValueError("unitary modes do not match the state's registry")
    columns = unitary.columns
    out: dict[tuple[int, ...], complex] = {}
    for source, amp in state.amplitudes.items():
        i = one_photon.get(source)
        if i is not None:
            for j, coeff in columns[i]:
                target = ones[j]
                out[target] = out.get(target, 0.0) + amp * coeff
            continue
        occupied = [(i, n) for i, n in enumerate(source) if n]
        factor = math.prod([math.factorial(n) for _, n in occupied])
        image: dict[tuple[int, ...], complex] = {vacuum: amp / math.sqrt(factor)}
        for i, n in occupied:
            for _ in range(n):
                next_image: dict[tuple[int, ...], complex] = {}
                for occ, a in image.items():
                    for j, coeff in columns[i]:
                        target = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
                        next_image[target] = (
                            next_image.get(target, 0.0) + a * coeff * math.sqrt(occ[j] + 1)
                        )
                image = next_image
        for occ, a in image.items():
            out[occ] = out.get(occ, 0.0) + a
    return StateVector(registry, _pruned(out))


def spectral_filter(
    state: StateVector, keep: ModeId, beam: list[ModeId] | tuple[ModeId, ...]
) -> tuple[StateVector, float]:
    """Bandpass on one beam: absorb photons in every beam mode except `keep`.

    Returns the surviving (sub-normalized) state and the discarded
    probability mass.  Post-selection probabilities stay explicit this way.
    A one-photon basis state is tested by its mode index, from the
    registry's one-photon index dict (see `ModeRegistry`).
    """
    state.registry.refuse_foreign(beam, "filtered")
    # the beam's modes are the registry's own, so a mode equal to one of them is too
    if keep not in beam:
        raise ValueError(f"keep mode {keep.label!r} is not part of the filtered beam")
    blocked = {m.index for m in beam if m.index != keep.index}
    _, _, _, one_photon, _ = state.registry._per_size()
    kept: dict[tuple[int, ...], complex] = {}
    discarded = 0.0
    for occ, amp in state.amplitudes.items():
        photon = one_photon.get(occ)  # its mode index, if occ holds one photon
        if (photon in blocked) if photon is not None else any([occ[i] for i in blocked]):
            discarded += abs(amp) ** 2
        else:
            kept[occ] = amp
    return StateVector(state.registry, _pruned(kept)), discarded


def _finite_delay(t_delay: float) -> None:
    """Refuse a delay that is not finite: the one delay rule of `phase_delay`,
    `protocol.HbtScenario` and `protocol.predicted_g2_curve`."""
    if not math.isfinite(t_delay):
        raise ValueError(f"t_delay must be finite, got {t_delay}")


def delay_phase_factor(frequency: float, t_delay: float) -> complex:
    """Phase e^{-2*pi*i*f*t} one photon of frequency f picks up over a delay t."""
    return cmath.exp(-2j * math.pi * (frequency * t_delay))


def phase_delay(
    state: StateVector, modes: list[ModeId] | tuple[ModeId, ...], t_delay: float
) -> StateVector:
    """Extra path delay on the selected modes.

    Every photon in a selected mode of frequency f acquires the phase
    e^{-2*pi*i*f*t_delay}, so two colors f1, f2 pick up a relative phase of
    2*pi*(f2-f1)*t_delay.
    """
    _finite_delay(t_delay)
    registry = state.registry
    registry.refuse_foreign(modes, "delayed")
    u = np.eye(len(registry), dtype=complex)
    for m in modes:
        u[m.index, m.index] = delay_phase_factor(m.frequency, t_delay)
    return evolve(state, ModeUnitary(registry, u))
