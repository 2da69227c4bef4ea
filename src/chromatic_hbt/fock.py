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


@dataclass(frozen=True)
class ModeId:
    """Handle for one registered optical mode."""

    index: int
    label: str
    frequency: float  # Hz
    branch: str


class ModeRegistry:
    """Ordered collection of modes sharing one truncated Fock space.

    Parameters
    ----------
    n_max:
        Maximum total photon number across all modes (default 2).

    Each registry also keeps a private memo of the stage unitaries that
    `protocol.run_erasure_pipeline` builds for it: the beamsplitter keyed by
    the stage's `ArmPair`, the conversion unitary keyed by
    `(arms, settings)`.  `register` clears it, so a unitary never outlives
    the registry size it was built for; otherwise it lives as long as the
    registry.  It has no size limit: it holds one splitter per arm pair and
    one conversion unitary per distinct tuning run on the registry (about
    10 kB each at 20 modes).
    """

    def __init__(self, n_max: int = 2):
        if type(n_max) is not int:
            raise ValueError(f"n_max must be an int, got {n_max!r}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = n_max
        self._modes: list[ModeId] = []
        self._stage_unitaries: dict[Hashable, ModeUnitary] = {}

    def __len__(self) -> int:
        return len(self._modes)

    def __iter__(self) -> Iterator[ModeId]:
        return iter(self._modes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegistry):
            return NotImplemented
        return self.n_max == other.n_max and self._modes == other._modes

    def __contains__(self, mode: ModeId) -> bool:
        """Whether `mode` is the mode registered at its index here, the same
        object or an equal one (same index, label, frequency and branch).  A
        mode of another registry whose index is in range is not."""
        if not 0 <= mode.index < len(self._modes):
            return False
        own = self._modes[mode.index]
        return own is mode or own == mode

    def refuse_foreign(self, modes: Iterable[ModeId], noun: str) -> None:
        """Refuse, by label in order, each of `modes` not registered here (see
        `__contains__`): "{noun} modes not registered in this registry: [...]"."""
        missing = [m.label for m in modes if m not in self]
        if missing:
            raise ValueError(f"{noun} modes not registered in this registry: {missing}")

    def register(self, label: str, frequency: float, branch: str) -> ModeId:
        """Register a new mode; rejects duplicate labels naming the conflict."""
        if any(m.label == label for m in self._modes):
            raise ValueError(f"mode label {label!r} is already registered")
        if frequency <= 0:
            raise ValueError(f"mode {label!r}: frequency must be > 0, got {frequency}")
        if branch not in BRANCHES:
            raise ValueError(f"mode {label!r}: branch must be one of {BRANCHES}, got {branch!r}")
        mode = ModeId(index=len(self._modes), label=label, frequency=float(frequency), branch=branch)
        self._modes.append(mode)
        self._stage_unitaries.clear()
        return mode

    def _stage_unitary(self, key: Hashable, build: Callable[[], ModeUnitary]) -> ModeUnitary:
        """The memoized stage unitary under `key`, calling `build()` on a miss."""
        unitary = self._stage_unitaries.get(key)
        if unitary is None:
            unitary = self._stage_unitaries[key] = build()
        return unitary

    def vacuum_occupation(self) -> tuple[int, ...]:
        return (0,) * len(self._modes)

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

        extend((), len(self._modes), self.n_max)
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
        """Amplitude of the basis state with the given per-mode photon counts."""
        occ = list(self.registry.vacuum_occupation())
        for mode, n in counts.items():
            if mode not in self.registry:
                raise ValueError(f"mode {mode.label!r} does not belong to this registry")
            occ[mode.index] = n
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
        amplitude's; any other is refused by the amplitude's position."""
        registry = ModeRegistry(n_max=data["n_max"])
        for entry in data["registry"]:
            registry.register(entry["label"], entry["frequency"], entry["branch"])
        amps = {}
        for position, e in enumerate(data["amplitudes"]):
            occ = e["occ"]
            if not (
                isinstance(occ, list)
                and len(occ) == len(registry)
                and all([type(n) is int and n >= 0 for n in occ])
                and sum(occ) <= registry.n_max
            ):
                raise ValueError(
                    f"amplitude {position}: occ must be {len(registry)} non-negative ints "
                    f"with at most n_max={registry.n_max} photons in all, got {occ!r}"
                )
            if tuple(occ) in amps:
                raise ValueError(f"amplitude {position}: occ {occ!r} repeats an earlier amplitude's")
            amps[tuple(occ)] = complex(e["re"], e["im"])
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
    by sqrt(n + 1).  Raises if any resulting state would exceed the
    registry's photon-number truncation.
    """
    registry = state.registry
    if mode not in registry:
        raise ValueError(f"mode {mode.label!r} does not belong to this registry")
    i = mode.index
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.amplitudes.items():
        if sum(occ) + 1 > registry.n_max:
            raise ValueError(
                f"creation on {mode.label!r} overflows truncation "
                f"n_max={registry.n_max} from basis state |{','.join(map(str, occ))}>"
            )
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
