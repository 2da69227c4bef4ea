"""Independent brute-force references used to cross-check the package.

Everything here is deliberately written against the obvious definitions
(full-basis matrices, series-summed exponentials, pairwise loops) rather
than reusing any package shortcut, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from chromatic_hbt.elements import bs_unitary, evolve, phase_delay, sfg_unitary, spectral_filter
from chromatic_hbt.fock import ModeRegistry, StateVector, _pruned, apply_creation
from chromatic_hbt.protocol import build_hbt_registry, g2_tau_model, run_erasure_pipeline
from chromatic_hbt.streams import _KERNEL_CAP, CHANNEL_LETTERS, _bernoulli_bins


def basis_list(registry: ModeRegistry) -> list[tuple[int, ...]]:
    return registry.enumerate_basis()


def state_to_vector(state: StateVector, basis: list[tuple[int, ...]]) -> np.ndarray:
    index = {b: i for i, b in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=complex)
    for s, a in state.amplitudes.items():
        vec[index[s]] = a
    return vec


def vector_to_state(vec: np.ndarray, registry: ModeRegistry, basis: list[tuple[int, ...]]) -> StateVector:
    return StateVector(registry, {b: complex(vec[i]) for i, b in enumerate(basis) if vec[i] != 0})


def lift_quadratic_hamiltonian(h: np.ndarray, basis: list[tuple[int, ...]]) -> np.ndarray:
    """Matrix of sum_ij h[i,j] a_i^dag a_j on the truncated number basis."""
    n_modes = h.shape[0]
    index = {b: k for k, b in enumerate(basis)}
    big = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, occ in enumerate(basis):
        for j in range(n_modes):
            if occ[j] == 0 or not np.any(h[:, j]):
                continue
            for i in range(n_modes):
                if h[i, j] == 0:
                    continue
                lowered = list(occ)
                amp = math.sqrt(lowered[j])
                lowered[j] -= 1
                amp *= math.sqrt(lowered[i] + 1)
                lowered[i] += 1
                big[index[tuple(lowered)], col] += h[i, j] * amp
    return big


def expm_series(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaled-and-squared Taylor series."""
    norm = np.abs(m).sum(axis=1).max()
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    scaled = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def quadratic_mixer_generator(
    n_modes: int, blocks: list[tuple[int, int, float, float]]
) -> np.ndarray:
    """Hermitian single-particle generator for disjoint two-mode mixers.

    Each block (low, high, angle, phase) contributes the anti-Hermitian-style
    coupling whose exponential rotates low -> cos(angle) low +
    e^{i phase} sin(angle) high.
    """
    h = np.zeros((n_modes, n_modes), dtype=complex)
    for low, high, angle, phase in blocks:
        h[high, low] += 1j * angle * np.exp(1j * phase)
        h[low, high] += -1j * angle * np.exp(-1j * phase)
    return h


def evolve_by_expm(state: StateVector, h_single: np.ndarray) -> StateVector:
    """Evolve a state by exp(-i H) with H the second-quantized lift of h_single."""
    basis = basis_list(state.registry)
    big_h = lift_quadratic_hamiltonian(h_single, basis)
    u = expm_series(-1j * big_h)
    vec = u @ state_to_vector(state, basis)
    return vector_to_state(vec, state.registry, basis)


def ladder_evolve(state: StateVector, unitary) -> StateVector:
    """elements.evolve with every basis state, one photon or more, rebuilt
    photon by photon from the vacuum: each a_i^dag becomes sum_j u[j, i] a_j^dag
    over the nonzero entries of column i, with its ladder factor sqrt(n_j + 1),
    and the start is scaled by 1/sqrt(prod n_i!)."""
    registry = state.registry
    vacuum = registry.vacuum_occupation()
    out: dict[tuple[int, ...], complex] = {}
    for source, amp in state.amplitudes.items():
        occupied = [(i, n) for i, n in enumerate(source) if n]
        factor = math.prod([math.factorial(n) for _, n in occupied])
        image: dict[tuple[int, ...], complex] = {vacuum: amp / math.sqrt(factor)}
        for i, n in occupied:
            for _ in range(n):
                next_image: dict[tuple[int, ...], complex] = {}
                for occ, a in image.items():
                    for j, coeff in unitary.columns[i]:
                        target = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
                        next_image[target] = (
                            next_image.get(target, 0.0) + a * coeff * math.sqrt(occ[j] + 1)
                        )
                image = next_image
        for occ, a in image.items():
            out[occ] = out.get(occ, 0.0) + a
    return StateVector(registry, _pruned(out))


def generator_spectral_filter(state: StateVector, keep, beam) -> tuple[StateVector, float]:
    """elements.spectral_filter testing each basis state's blocked modes with a
    generator: a state with a photon in a beam mode other than keep is discarded."""
    blocked = {m.index for m in beam if m.index != keep.index}
    kept: dict[tuple[int, ...], complex] = {}
    discarded = 0.0
    for occ, amp in state.amplitudes.items():
        if any(occ[i] > 0 for i in blocked):
            discarded += abs(amp) ** 2
        else:
            kept[occ] = amp
    return StateVector(state.registry, _pruned(kept)), discarded


def fresh_erasure_pipeline(state, registry, arms, config) -> tuple[dict[str, StateVector], complex]:
    """One erasure stage, step by step, building the splitter and conversion
    unitaries afresh at every use: (stages, detection amplitude)."""
    stages = {"input": state}
    state = evolve(state, bs_unitary(registry, arms.bs_pairs()))
    stages["after_first_beamsplitter"] = state
    state = evolve(state, sfg_unitary(registry, config.settings, arms))
    stages["after_conversion"] = state
    state = evolve(state, bs_unitary(registry, arms.bs_pairs()))
    stages["after_second_beamsplitter"] = state
    keep = arms.arm_a.f3
    state, _ = spectral_filter(state, keep, arms.arm_a.all())
    stages["after_filter"] = state
    return stages, state.amplitude_of({keep: 1})


def per_delay_g2_curve(scenario, t_delays) -> np.ndarray:
    """Normalized coincidence fringe, running the delayed two-source state
    through both erasure stages afresh at every delay."""
    registry, arms_a, arms_b = build_hbt_registry(scenario.freqs)
    vacuum = StateVector.vacuum(registry)
    f1_at_a = apply_creation(apply_creation(vacuum, arms_a.arm_a.f1), arms_b.arm_a.f2)
    f2_at_a = apply_creation(apply_creation(vacuum, arms_a.arm_a.f2), arms_b.arm_a.f1)
    source = f1_at_a.scaled(scenario.alpha).plus(f2_at_a.scaled(scenario.beta))
    keep_a, keep_b = arms_a.arm_a.f3, arms_b.arm_a.f3
    probs = []
    for t in t_delays:
        state = phase_delay(source, arms_a.arm_a.all(), t)
        state = run_erasure_pipeline(state, registry, arms_a, scenario.detector_a).stages["after_filter"]
        state = run_erasure_pipeline(state, registry, arms_b, scenario.detector_b).stages["after_filter"]
        probs.append(abs(state.amplitude_of({keep_a: 1, keep_b: 1})) ** 2)
    probs = np.array(probs)
    return probs / probs.mean() if probs.mean() > 0 else np.ones_like(probs)


def pairwise_coincidences(
    times_a: np.ndarray, times_b: np.ndarray, tau_ps: int, bin_width_ps: int
) -> int:
    """Count bins hit by both channels after shifting B, by explicit pair loops."""
    hit_bins = set()
    for ta in times_a:
        for tb in times_b:
            if ta // bin_width_ps == (tb + tau_ps) // bin_width_ps:
                hit_bins.add(ta // bin_width_ps)
    return len(hit_bins)


def occupied_bin_tallies(
    times_a, times_b, tau_ps: int, bin_width_ps: int, duration_ps: int
) -> tuple[int, int, int]:
    """(coincident, A, B) occupied-bin counts over the whole bins of [0, duration), by sets."""
    top_ps = duration_ps // bin_width_ps * bin_width_ps
    bins_a = {t // bin_width_ps for t in times_a if 0 <= t < top_ps}
    bins_b = {(t + tau_ps) // bin_width_ps for t in times_b if 0 <= t + tau_ps < top_ps}
    return len(bins_a & bins_b), len(bins_a), len(bins_b)


def text_stream_bytes(stream) -> bytes:
    """A stream's text file by string formatting: the three header lines,
    then one '<letter> <time>' line a record, in time order and A ahead of
    B on equal times."""
    records = sorted([(int(t), 0) for t in stream.times_a] + [(int(t), 1) for t in stream.times_b])
    letters = [CHANNEL_LETTERS[channel] for _, channel in records]
    header = (f"#binwidth_ps={stream.meta.bin_width_ps}\n#duration_ps={stream.meta.duration_ps}\n"
              f"#seed={stream.meta.seed}\n")
    return (header + "".join(map("{} {}\n".format, letters, (t for t, _ in records)))).encode("ascii")


def bin_dtype(n_bins: int):
    """The samplers' dtype for bins in [0, n_bins): int32 below 2^30 bins,
    where every bin moved by less than n_bins still fits it."""
    return np.int32 if n_bins < 2**30 else np.int64


def bernoulli_bins_by_parts(rng, n_bins: int, p: float, chunk: int) -> np.ndarray:
    """streams._bernoulli_bins with its parts of at most `chunk` gaps each
    drawn by one rng.geometric call, kept in a list and joined by one
    concatenation once the segment is covered, then cast to bin_dtype: the
    same draws, each part's gaps clipped and summed the same way."""
    if p <= 0 or n_bins <= 0:
        return np.empty(0, dtype=bin_dtype(n_bins))
    parts = []
    last = -1
    while last < n_bins - 1:
        room = n_bins - last
        mean = (room - 1) * p
        size = min(int(mean + 5.0 * math.sqrt(mean)) + 16, chunk, (2**63 - 1 - last) // room)
        bins = rng.geometric(p, size=size)
        np.minimum(bins, room, out=bins)
        np.cumsum(bins, out=bins)
        bins += last
        parts.append(bins)
        last = int(bins[-1])
    bins = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return bins[: np.searchsorted(bins, n_bins)].astype(bin_dtype(n_bins))


def whole_segment_kernel(rng, n_bins, p_a, p_b, model, bin_width) -> tuple[np.ndarray, np.ndarray]:
    """streams._segment_kernel over the whole segment at once: each
    candidate's kernel sum by a loop over the A clicks in its window, in
    time order, then one uniform per candidate from a single rng.random
    call.  A and the candidates come from streams._bernoulli_bins, so the
    generator is consumed in the same order as by the package."""
    reach = int(math.ceil(5.0 / (model.linewidth * bin_width)))
    deltas = np.arange(-reach, reach + 1)
    kernel = (g2_tau_model(model, deltas * bin_width) - 1.0) / (1.0 - p_a)
    mean_shift = p_a * kernel.sum()
    a_bins = _bernoulli_bins(rng, n_bins, p_a)
    if p_b <= 0:
        return a_bins, np.empty(0, dtype=bin_dtype(n_bins))
    envelope_prob = min(_KERNEL_CAP * p_b, 0.5)
    candidates = _bernoulli_bins(rng, n_bins, envelope_prob)
    weights, a_list = kernel.tolist(), a_bins.tolist()
    sums = np.zeros(candidates.size)
    for i, c in enumerate(candidates.tolist()):
        total = 0.0  # one add per pair in time order, as np.bincount does
        for a in a_list[np.searchsorted(a_bins, c - reach) : np.searchsorted(a_bins, c + reach + 1)]:
            total += weights[a - c + reach]
        sums[i] = total
    prob = p_b * np.clip(1.0 + sums - mean_shift, 0.0, _KERNEL_CAP)
    accept = rng.random(candidates.size) < prob / envelope_prob
    return a_bins, candidates[accept]


def per_shift_coincidences(bins_a: np.ndarray, bins_b: np.ndarray, shifts) -> list[int]:
    """Bins shared by A and B shifted by s, for each s, by set intersection."""
    return [np.intersect1d(bins_a, bins_b + s).size for s in shifts]


def guess_grid(x: np.ndarray) -> np.ndarray:
    """The guess's frequency grid: from half a cycle over the span of x to the
    Nyquist rate of the median sample spacing, four points per 1/span, 256 to
    8192 points."""
    span = x.max() - x.min()
    f_low = 0.5 / span
    f_high = max(0.5 / np.median(np.diff(np.sort(x))), 2.0 * f_low)
    return np.linspace(f_low, f_high, int(np.clip(4.0 * span * (f_high - f_low), 256, 8192)))


def profiled_fringe_start(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, envelope: np.ndarray
) -> tuple[float, float, float]:
    """(frequency, c, s) minimizing sum(weights^2 (y - 1 - envelope (c cos + s sin))^2)
    over guess_grid(x), by one np.linalg.lstsq solve per grid frequency."""
    target = weights * (y - 1.0)
    best = (-math.inf, 0.0, 0.0, 0.0)
    for freq in guess_grid(x):
        arg = 2.0 * math.pi * freq * x
        basis = (weights * envelope)[:, None] * np.column_stack([np.cos(arg), np.sin(arg)])
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        drop = float(target @ (basis @ coef))  # chi2 at (0, 0) minus chi2 at coef
        if drop > best[0]:
            best = (drop, float(freq), float(coef[0]), float(coef[1]))
    return best[1:]
