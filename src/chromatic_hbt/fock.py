"""Truncated multimode Fock space: modes and state vectors.

Every optical mode is a monochromatic line identified by a label, a center
frequency and a spatial branch tag ("a" or "b", the two arms mixed by a
beamsplitter).  A basis state is an occupation tuple, one photon number per
registered mode in registration order.  States are sparse maps from those
tuples to complex amplitudes, truncated at a small total photon number (two
photons are enough for intensity interferometry; four are supported for
cross-checks).

All objects are treated as immutable values: operations return new states and
never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .elements import ModeUnitary

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

# Amplitudes below this magnitude are dropped after each elementary operation.
# One prune removes a vector of norm below sqrt(D) * PRUNE_TOL, D the number of
# basis states, and no operation grows norms (unitaries, phases, filters), so
# K pruning operations in a row move any amplitude by less than
# K * sqrt(D) * PRUNE_TOL, and a sum of unit-weighted results adds the bounds.
# The two-detector coincidence amplitude (D = 231 at 20 modes and n_max = 2;
# two source terms of at most 12 operations each) moves by less than 4e-13,
# under the 1e-12 tolerances used throughout; tests/test_protocol.py reruns
# that chain with nothing pruned.
PRUNE_TOL = 1e-15

BRANCHES = ("a", "b")


def _is_occupation(counts: Iterable[object], n_max: int) -> bool:
    """Whether `counts` are the photon numbers of a basis state: non-negative
    ints (not bools), at most `n_max` photons in all."""
    counts = list(counts)
    return all([type(n) is int and n >= 0 for n in counts]) and sum(counts) <= n_max


@dataclass(frozen=True)
class ModeId:
    """Handle for one registered optical mode."""

    index: int
    label: str
    frequency: float  # Hz
    branch: str


# ModeRegistry._per_size(): the mode tuple, the vacuum's occupation, the
# one-photon occupations in mode order, each one's mode index, and the
# stage-unitary memo
_PerSize = tuple[
    tuple[ModeId, ...],
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
    dict[tuple[int, ...], int],
    dict[Hashable, "ModeUnitary"],
]


class ModeRegistry:
    """Ordered collection of modes sharing one truncated Fock space.

    Parameters
    ----------
    n_max:
        Maximum total photon number across all modes (default 2).

    The modes are held in a list.  Everything that depends on the registry
    size is one private tuple (`_per_size`), built at its first read after
    a `register` and dropped there in one assignment, so building a
    registry of n modes discards no state of fewer, and nothing outlives the
    size it was built for:

    - the mode tuple.  An `elements.ModeUnitary` keeps the mode tuple it was
      built for, not the registry, so no reference cycle forms;
    - the vacuum's occupation tuple, which `vacuum_occupation` returns;
    - the one-photon occupation tuples in mode order, and a dict from each
      of them to its mode index (about 5 kB at 20 modes).  `apply_creation`
      on the vacuum, `elements.evolve`, `elements.spectral_filter` and
      `amplitude_of` of one photon read them, and the one-photon states of
      the registry share their tuples;
    - the stage unitaries that `protocol.run_erasure_pipeline` builds for
      it (`_stage_unitary`): the beamsplitter keyed by the stage's
      `ArmPair`, the conversion unitary keyed by `(arms, settings)`.  It has
      no size limit: it holds one splitter per arm pair and one conversion
      unitary per distinct tuning run on the registry (about 10 kB each at
      20 modes).

    Each reader unpacks the tuple once per call.
    """

    def __init__(self, n_max: int = 2):
        if type(n_max) is not int:
            raise ValueError(f"n_max must be an int, got {n_max!r}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = n_max
        self._mode_list: list[ModeId] = []
        # None until built: a plain attribute, since a cached_property keeps
        # the registry's attributes in a dict of their own, which slowed the
        # protocol pipelines by 3-5 %
        self._sized: _PerSize | None = None

    def __len__(self) -> int:
        return len(self._mode_list)

    def __iter__(self) -> Iterator[ModeId]:
        return iter(self._mode_list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegistry):
            return NotImplemented
        return self.n_max == other.n_max and self._mode_list == other._mode_list

    def __contains__(self, mode: ModeId) -> bool:
        """Whether `mode` is the mode registered at its index here, the same
        object or an equal one (same index, label, frequency and branch).  A
        mode of another registry whose index is in range is not."""
        if not 0 <= mode.index < len(self._mode_list):
            return False
        own = self._mode_list[mode.index]
        return own is mode or own == mode

    def refuse_foreign(self, modes: Iterable[ModeId], noun: str) -> None:
        """Refuse, by label in order, each of `modes` not registered here (see
        `__contains__`): "{noun} modes not registered in this registry: [...]"."""
        missing = [m.label for m in modes if m not in self]
        if missing:
            raise ValueError(f"{noun} modes not registered in this registry: {missing}")

    def register(self, label: str, frequency: float, branch: str) -> ModeId:
        """Register a new mode; rejects duplicate labels naming the conflict."""
        if any(m.label == label for m in self._mode_list):
            raise ValueError(f"mode label {label!r} is already registered")
        # written so that NaN fails it, as inf does
        if not 0 < frequency < math.inf:
            raise ValueError(f"mode {label!r}: frequency must be > 0 and finite, got {frequency}")
        if branch not in BRANCHES:
            raise ValueError(f"mode {label!r}: branch must be one of {BRANCHES}, got {branch!r}")
        mode = ModeId(index=len(self._mode_list), label=label, frequency=float(frequency), branch=branch)
        self._mode_list.append(mode)
        # the last size's state goes; it is built again at its first read
        self._sized = None
        return mode

    def _per_size(self) -> _PerSize:
        """This size's state (see the class docstring): built at the first
        call after the last `register`, then shared."""
        sized = self._sized
        if sized is None:
            vacuum = (0,) * len(self._mode_list)
            ones = tuple([vacuum[:i] + (1,) + vacuum[i + 1 :] for i in range(len(vacuum))])
            sized = self._sized = (
                tuple(self._mode_list), vacuum, ones, {occ: i for i, occ in enumerate(ones)}, {}
            )
        return sized

    def _stage_unitary(self, key: Hashable, build: Callable[[], ModeUnitary]) -> ModeUnitary:
        """The memoized stage unitary under `key`, calling `build()` on a miss."""
        _, _, _, _, memo = self._per_size()
        unitary = memo.get(key)
        if unitary is None:
            unitary = memo[key] = build()
        return unitary

    def vacuum_occupation(self) -> tuple[int, ...]:
        """The vacuum's occupation tuple, one tuple shared by every caller,
        built at its first read after a `register`."""
        _, vacuum, _, _, _ = self._per_size()
        return vacuum

    def enumerate_basis(self) -> list[tuple[int, ...]]:
        """All occupation tuples with total photon number <= n_max.

        Ordering is lexicographic and therefore deterministic for a fixed
        registry.
        """
        states: list[tuple[int, ...]] = []

        def extend(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
            if remaining == 0:
                states.append(prefix)
                return
            for n in range(budget + 1):
                extend(prefix + (n,), remaining - 1, budget - n)

        extend((), len(self._mode_list), self.n_max)
        states.sort()
        return states


@dataclass(frozen=True, eq=False)
class StateVector:
    """Sparse complex amplitudes over the truncated Fock basis.

    `amplitudes` maps occupation tuples (one photon number per registered
    mode) to complex amplitudes; absent tuples have amplitude zero.
    """

    registry: ModeRegistry
    amplitudes: Mapping[tuple[int, ...], complex]

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "StateVector":
        return cls(registry, {registry.vacuum_occupation(): 1.0 + 0.0j})

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return complex(self.amplitudes.get(occ, 0.0))

    def amplitude_of(self, counts: Mapping[ModeId, int]) -> complex:
        """Amplitude of the basis state with the given per-mode photon counts,
        modes absent from `counts` holding none.  The counts must be an
        occupation (see `_is_occupation`); any other is refused."""
        registry = self.registry
        for mode in counts:
            if mode not in registry:
                raise ValueError(f"mode {mode.label!r} does not belong to this registry")
        if not _is_occupation(counts.values(), registry.n_max):
            shown = {mode.label: n for mode, n in counts.items()}
            raise ValueError(
                f"counts must be non-negative ints with at most n_max={registry.n_max} "
                f"photons in all, got {shown!r}"
            )
        _, vacuum, ones, _, _ = registry._per_size()
        occupied = [(mode.index, n) for mode, n in counts.items() if n]
        if len(occupied) == 1 and occupied[0][1] == 1:
            return self.amplitude(ones[occupied[0][0]])
        occ = list(vacuum)
        for i, n in occupied:
            occ[i] = n
        return self.amplitude(tuple(occ))

    def norm2(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector(self.registry, {s: factor * a for s, a in self.amplitudes.items()})

    def plus(self, other: "StateVector") -> "StateVector":
        _check_same_registry(self, other)
        out = dict(self.amplitudes)
        for s, a in other.amplitudes.items():
            out[s] = out.get(s, 0.0) + a
        return StateVector(self.registry, _pruned(out))

    def allclose(self, other: "StateVector", tol: float = 1e-12) -> bool:
        _check_same_registry(self, other)
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(abs(self.amplitude(k) - other.amplitude(k)) <= tol for k in keys)

    def to_json_dict(self) -> dict:
        return {
            "registry": [
                {"label": m.label, "frequency": m.frequency, "branch": m.branch}
                for m in self.registry
            ],
            "n_max": self.registry.n_max,
            "amplitudes": [
                {"occ": list(occ), "re": a.real, "im": a.imag}
                for occ, a in sorted(self.amplitudes.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        """The state of a `to_json_dict` payload.  Each amplitude's `occ` must
        be an occupation tuple of the registry it names: one non-negative int
        (not a bool) per mode, at most n_max photons in all, none an earlier
        amplitude's, and its `re` and `im` must be JSON numbers (an int or a
        float, not a bool); any other is refused by the amplitude's position."""
        registry = ModeRegistry(n_max=data["n_max"])
        for entry in data["registry"]:
            registry.register(entry["label"], entry["frequency"], entry["branch"])
        amps = {}
        for position, e in enumerate(data["amplitudes"]):
            occ = e["occ"]
            if not (
                isinstance(occ, list)
                and len(occ) == len(registry)
                and _is_occupation(occ, registry.n_max)
            ):
                raise ValueError(
                    f"amplitude {position}: occ must be {len(registry)} non-negative ints "
                    f"with at most n_max={registry.n_max} photons in all, got {occ!r}"
                )
            if tuple(occ) in amps:
                raise ValueError(f"amplitude {position}: occ {occ!r} repeats an earlier amplitude's")
            re_im = (e["re"], e["im"])
            if not all(type(x) in (int, float) for x in re_im):
                raise ValueError(f"amplitude {position}: re and im must be numbers, got {re_im[0]!r} and {re_im[1]!r}")
            amps[tuple(occ)] = complex(*re_im)
        return cls(registry, amps)


def _pruned(amps: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    # written so that a NaN amplitude is kept, and stays visible downstream
    return {s: a for s, a in amps.items() if not abs(a) < PRUNE_TOL}


def _check_same_registry(s1: StateVector, s2: StateVector) -> None:
    if s1.registry is not s2.registry and s1.registry != s2.registry:
        raise ValueError("states belong to different mode registries")


def apply_creation(state: StateVector, mode: ModeId) -> StateVector:
    """Apply the bosonic creation operator for `mode`.

    Each basis state gains one photon in `mode` and its amplitude is scaled
    by sqrt(n + 1); the vacuum becomes the registry's one-photon tuple of
    `mode` (see `ModeRegistry`).  Raises if any resulting state would exceed
    the registry's photon-number truncation.
    """
    registry = state.registry
    if mode not in registry:
        raise ValueError(f"mode {mode.label!r} does not belong to this registry")
    i = mode.index
    out: dict[tuple[int, ...], complex] = {}
    _, vacuum, ones, _, _ = registry._per_size()
    for occ, amp in state.amplitudes.items():
        if sum(occ) + 1 > registry.n_max:
            raise ValueError(
                f"creation on {mode.label!r} overflows truncation "
                f"n_max={registry.n_max} from basis state |{','.join(map(str, occ))}>"
            )
        if occ == vacuum:
            target = ones[i]
        else:
            target = occ[:i] + (occ[i] + 1,) + occ[i + 1 :]
        out[target] = out.get(target, 0.0) + amp * (occ[i] + 1) ** 0.5
    return StateVector(registry, _pruned(out))


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    _check_same_registry(s1, s2)
    return complex(sum(s1.amplitudes[k].conjugate() * s2.amplitude(k) for k in s1.amplitudes))


def single_photon(registry: ModeRegistry, mode: ModeId, amplitude: complex = 1.0) -> StateVector:
    """Convenience: amplitude * a_mode^dagger |vacuum>."""
    return apply_creation(StateVector.vacuum(registry), mode).scaled(amplitude)


def frequency_of_wavelength(wavelength_m: float) -> float:
    """Center frequency in Hz of a vacuum wavelength in meters."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength_m}")
    return SPEED_OF_LIGHT / wavelength_m
