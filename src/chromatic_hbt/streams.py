"""Synthetic detector click streams with tunable pair correlations.

Two single-photon detectors A and B are modeled as Bernoulli trials per
timing bin.  Clicks on B are conditioned on nearby clicks on A so that the
empirical coincidence ratio realizes a configured analytic fringe model,
while both singles rates stay exact.  Undamped models correlate same-bin
only; damped models spread the correlation over a kernel covering five
envelope widths.  Generation is event-based: the bins between two clicks of
a Bernoulli process are a geometric gap, so clicks are drawn as cumulative
sums of geometric gaps and bins are never materialized.  Output is
deterministic for a given seed.  simulate_segments yields the schedule's
steps one at a time, each from its own child seed, so a delay scan can count
one step's stream while the next is not yet drawn; simulate_stream plays
them back to back as one stream.  A stream holds each channel's sorted click
times; interleaved (channel, time) records exist only in the two file
formats, a simple text one and a compact binary one, which round-trip
bit-exactly.

Bin numbers in [0, n_bins), the samplers' draws and the bins that the
shift scan floors, are int32 while 2 * n_bins < 2^31 and int64 otherwise
(_bin_dtype): then a bin moved by any shift of less than n_bins, in
(-n_bins, 2 * n_bins), fits the same dtype, so each binary search takes
keys of its array's dtype and casts nothing.  They become int64 picosecond
times once, in simulate_segments.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .protocol import G2Model, g2_tau_model, g2_zero_model

PS_PER_SECOND = 1_000_000_000_000
MAX_RATE_BIN_PRODUCT = 0.1
BINARY_MAGIC = b"TDC1"

CHANNEL_A = 0
CHANNEL_B = 1
CHANNEL_LETTERS = ("A", "B")


class StreamFormatError(ValueError):
    """A stream file does not parse."""


@dataclass(frozen=True)
class StreamConfig:
    """Recipe for one synthetic acquisition.

    delay_schedule lists (controller delay, dwell seconds) segments played
    back to back; rates are per-channel singles rates of correlated signal,
    dark rates add independent uncorrelated clicks.
    """

    bin_width: float  # seconds, must be an integer number of ps
    rate_a: float  # Hz
    rate_b: float  # Hz
    seed: int
    model: G2Model | None = None
    delay_schedule: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    dark_rate_a: float = 0.0
    dark_rate_b: float = 0.0

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")
        bw_ps = self.bin_width * PS_PER_SECOND
        if not math.isfinite(bw_ps) or abs(bw_ps - round(bw_ps)) > 1e-6:
            raise ValueError(f"bin_width must be a whole number of picoseconds, got {self.bin_width}")
        for name, rate in (("rate_a", self.rate_a), ("rate_b", self.rate_b),
                           ("dark_rate_a", self.dark_rate_a), ("dark_rate_b", self.dark_rate_b)):
            # written so that NaN fails it, as inf does
            if not 0 <= rate < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {rate}")
        # the damped sampler's kernel reaches 5 / linewidth; the delay model has no linewidth
        if self.model is not None and self.model.linewidth is not None:
            if not self.model.linewidth > 0:
                raise ValueError(f"a damped stream needs a linewidth > 0, got {self.model.linewidth}")
            reach = _kernel_reach(self.model.linewidth, self.bin_width)
            if reach > _KERNEL_REACH_MAX:
                floor = 5.0 / (_KERNEL_REACH_MAX * self.bin_width)
                raise ValueError(
                    f"linewidth {self.model.linewidth:g} Hz needs a sampler kernel of {reach:.3g} bins each "
                    f"side, at most {_KERNEL_REACH_MAX} are built: the linewidth must be >= {floor:.4g} Hz"
                )
        ceiling = 1.0 + (0.0 if self.model is None else self.model.visibility / 2.0)
        worst = max((self.rate_a + self.dark_rate_a), (self.rate_b + self.dark_rate_b) * ceiling)
        if worst * self.bin_width >= MAX_RATE_BIN_PRODUCT:
            raise ValueError(
                "rate * bin_width must stay below "
                f"{MAX_RATE_BIN_PRODUCT} for the per-bin model to hold; got {worst * self.bin_width:.3g}"
            )
        if not self.delay_schedule:
            raise ValueError("delay_schedule must contain at least one (delay, dwell) entry")
        for t_delay, dwell in self.delay_schedule:
            if not math.isfinite(t_delay):
                raise ValueError(f"delay must be finite, got {t_delay}")
            if dwell < 0:
                raise ValueError(f"dwell must be >= 0, got {dwell}")
            n_bins = dwell / self.bin_width
            if not math.isfinite(n_bins) or abs(n_bins - round(n_bins)) > 1e-6:
                raise ValueError(
                    f"dwell {dwell} is not a whole number of bins of {self.bin_width}"
                )
        # the seed and the schedule's length in ps must fit the stream header
        StreamMeta(bin_width_ps=self.bin_width_ps, duration_ps=self.duration_ps, seed=self.seed)

    @property
    def bin_width_ps(self) -> int:
        return round(self.bin_width * PS_PER_SECOND)

    @property
    def duration_ps(self) -> int:
        return self.bin_width_ps * sum(
            round(dwell / self.bin_width) for _, dwell in self.delay_schedule
        )


@dataclass(frozen=True)
class StreamMeta:
    """The provenance fields the file format carries, each in the range
    its header field can hold."""

    bin_width_ps: int
    duration_ps: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.bin_width_ps < 2**63:
            raise ValueError(f"bin width {self.bin_width_ps} ps is not in [1, 2^63) ps")
        if not 0 <= self.duration_ps < 2**63:
            raise ValueError(f"duration {self.duration_ps} ps is not in [0, 2^63) ps, the int64 clock")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} is not an unsigned 64-bit integer")


@dataclass
class TdcStream:
    """Click times of both channels, one array per channel.

    times_a and times_b are int64 bin-start timestamps in ps; each is
    non-decreasing and lies in [0, max(duration_ps, 1)).
    """

    times_a: np.ndarray
    times_b: np.ndarray
    meta: StreamMeta
    segments: tuple[tuple[float, int, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        self.times_a = np.asarray(self.times_a, dtype=np.int64)
        self.times_b = np.asarray(self.times_b, dtype=np.int64)
        top = max(self.meta.duration_ps, 1)
        for letter, t in zip(CHANNEL_LETTERS, (self.times_a, self.times_b)):
            if t.size > 1 and np.any(t[1:] < t[:-1]):
                k = int(np.argmax(t[1:] < t[:-1]))
                raise ValueError(f"channel {letter} timestamps are not sorted: {t[k + 1]} after {t[k]}")
            if t.size and (t[0] < 0 or t[-1] >= top):
                bad = t[0] if t[0] < 0 else t[-1]
                raise ValueError(f"channel {letter} timestamp {bad} is not in [0, {top})")

    def __len__(self) -> int:
        return int(self.times_a.size + self.times_b.size)

    def channel_times(self, channel: int) -> np.ndarray:
        return (self.times_a, self.times_b)[channel]

    def __eq__(self, other: object) -> bool:
        """Same meta and click times; the segment bookkeeping is not compared."""
        if not isinstance(other, TdcStream):
            return NotImplemented
        return (
            self.meta == other.meta
            and np.array_equal(self.times_a, other.times_a)
            and np.array_equal(self.times_b, other.times_b)
        )

    # the arrays are mutable, so a stream cannot be a dict key or set member
    __hash__ = None

    def split_segments(self) -> list[tuple[float, "TdcStream"]]:
        """Per-schedule-step sub-streams, timestamps rebased to each window."""
        if not self.segments:
            raise ValueError("stream carries no segment bookkeeping to split on")
        out = []
        for t_delay, start_ps, stop_ps in self.segments:
            a, b = (t[slice(*np.searchsorted(t, (start_ps, stop_ps)))] - start_ps
                    for t in (self.times_a, self.times_b))
            meta = StreamMeta(bin_width_ps=self.meta.bin_width_ps,
                              duration_ps=stop_ps - start_ps, seed=self.meta.seed)
            out.append((t_delay, TdcStream(times_a=a, times_b=b, meta=meta)))
        return out


def _dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array: values itself if none repeats."""
    if values.size <= 1:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values if keep.all() else values[keep]


def _bin_dtype(n_bins: int) -> type:
    """int32 while 2 * n_bins < 2^31, else int64: the dtype of an array of
    bins in [0, n_bins), which then holds each of them moved by a shift of
    less than n_bins too."""
    return np.int32 if 2 * n_bins < 2**31 else np.int64


# geometric gaps per part.  The parts' sizes fix how many draws a call
# consumes, and so where the next draw starts: every simulated stream's bytes.
_GAP_CHUNK = 1 << 20
# gaps per rng.geometric call within a part (128 kB of int64).  PCG64 gives
# the same draws whether a part is drawn at once or piece by piece, and each
# piece is clipped, summed and copied into the one buffer of bins as it is
# drawn, so a draw peaks at its result plus one piece, not plus a part of
# up to 8 MB.  With the bins int32, simulate_stream of the
# default fig3 stream (12 s, 28.8 MB of times) traced 37.1 MB, against
# 73.2 MB with int64 parts and bins (one Xeon vCPU, numpy 2.4.6).
_GAP_PIECE = 1 << 14


def _bernoulli_bins(rng: np.random.Generator, n_bins: int, p: float) -> np.ndarray:
    """Sorted bins of an independent Bernoulli(p) trial per bin of [0, n_bins),
    of _bin_dtype(n_bins).

    The gaps between successive successes are iid geometric(p), so the
    clicks are a cumulative sum of geometric draws cut at n_bins.  The gaps
    come in parts of at most _GAP_CHUNK, each sized from what is left of the
    segment, and each part in pieces of at most _GAP_PIECE.  The clicks go
    into one buffer of the first part's uncapped estimate, mean + 5 sd + 16
    clicks of the whole segment, which grows only if the draws outrun it.
    The part that reaches past the segment is still drawn to its end, so the
    generator's state does not depend on the piece size.
    """
    dtype = _bin_dtype(n_bins)
    if p <= 0 or n_bins <= 0:
        return np.empty(0, dtype=dtype)
    out, kept = None, 0  # the clicks so far
    last = -1  # every bin up to and including `last` is decided
    while last < n_bins - 1:
        room = n_bins - last  # a gap of `room` or more lands past the segment
        mean = (room - 1) * p
        estimate = int(mean + 5.0 * math.sqrt(mean)) + 16
        if out is None:
            out = np.empty(estimate, dtype=dtype)
        # the last bound keeps the running sum of clipped gaps below 2^63
        size = min(estimate, _GAP_CHUNK, (2**63 - 1 - last) // room)
        for start in range(0, size, _GAP_PIECE):
            bins = rng.geometric(p, size=min(_GAP_PIECE, size - start))
            if last >= n_bins - 1:
                continue  # past the segment: drawn only to end the part
            # rng.geometric saturates at 2^63 - 1 for p below about 1e-19, so
            # the sum could wrap; a clipped gap still lands past the segment
            np.minimum(bins, room, out=bins)
            np.cumsum(bins, out=bins)
            bins += last
            last = int(bins[-1])
            inside = int(np.searchsorted(bins, n_bins))
            if kept + inside > out.size:
                grown = np.empty(2 * (kept + inside), dtype=dtype)
                grown[:kept] = out[:kept]
                out = grown
            out[kept : kept + inside] = bins[:inside]
            kept += inside
    return out[:kept]


def _complement_bins(excluded: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Bin numbers, of excluded's dtype, of the index-th bins outside the
    sorted distinct `excluded`.

    excluded[j] has excluded[j] - j free bins below it, so it lies below the
    index-th free bin exactly when excluded[j] - j <= index.
    """
    dtype = excluded.dtype
    below = excluded - np.arange(excluded.size, dtype=dtype)
    index = index.astype(dtype, copy=False)  # keys of another dtype would cast `below`
    return np.add(index, np.searchsorted(below, index, side="right"), dtype=dtype, casting="unsafe")


# centers per block of _window_ranks, and candidates per block of the
# _segment_kernel thinning.  The scratch arrays hold a few numbers per center
# of one block (window starts, counts, order, kernel sums, probabilities),
# whatever the acquisition length.  On one Xeon vCPU (numpy 2.4.6, int32
# bins) the fig3 sampler took 29.3 ms per 0.5 s of stream at 2^13, 28.5 ms
# at 2^14, 28.8 ms at 2^15 and 33.0 ms at 2^12, and scan_tau 9.8, 9.4, 9.4
# and 10.9 ms.  But each doubling past 2^13 adds its scratch to the
# sampler's traced peak: 0.80 MiB at 2^14 and 2.39 MiB at 2^15 on that
# 2.03 MiB peak, so 2^13 is kept.
_CENTER_BLOCK = 1 << 13


def _rank_passes(positions: np.ndarray, starts: np.ndarray, origins: np.ndarray, ranked: np.ndarray):
    """Rank k's offsets positions[starts + k] - origins over the first
    ranked[k] entries, for k = 0, 1, ...; starts is advanced in place."""
    for n in ranked.tolist():
        head = starts[:n]
        yield positions[head] - origins[:n]
        head += 1


def _merge_ranks(positions: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(positions, keys) of sorted int32 or int64 positions
    and sorted, nonempty int64 keys that the positions' dtype holds and that
    span less than 2^63, by one stable merge.

    Only the positions in [keys[0], keys[-1]) lie between two keys; two
    scalar searches find them.  The keys and then those positions go into
    one buffer as offsets from keys[0], int32 while the keys span less than
    2^31 and int64 otherwise, and its stable argsort merges the two sorted
    runs in one linear pass.  Stability puts each key before the positions
    equal to it, the left side, so a key's index in the merged order minus
    its own index counts the positions below it.
    """
    # keys of another dtype would cast all the positions
    start, stop = np.searchsorted(positions, keys[[0, -1]].astype(positions.dtype))
    origin = keys[0]
    buffer = np.empty(keys.size + stop - start, dtype=np.int32 if keys[-1] - origin < 2**31 else np.int64)
    np.subtract(keys, origin, out=buffer[: keys.size], casting="unsafe")
    # int32 positions take an int32 loop into an int32 buffer, the fast one,
    # where origin and every difference fit; any other pair an int64 loop
    loop = np.promote_types(positions.dtype, buffer.dtype)
    np.subtract(positions[start:stop], origin, out=buffer[keys.size :], dtype=loop, casting="unsafe")
    # in place, so that the sampler's peak stays that of a binary search
    ranks = np.flatnonzero(np.argsort(buffer, kind="stable") < keys.size)
    ranks -= np.arange(keys.size)
    ranks += start
    return ranks


def _window_ranks(positions: np.ndarray, centers: np.ndarray, lo: int, hi: int):
    """The offsets position - (center + lo) of every position within
    [center + lo, center + hi] of each center, one neighbour rank at a time.

    positions and centers are sorted int32 or int64 arrays, and each
    window bound, center + lo and center + hi + 1, fits the positions'
    dtype.  Per block of _CENTER_BLOCK centers this yields (base, order,
    passes).  order lists the block's centers, counted from centers[base],
    most positions first (a stable sort, so ties keep center order).  Pass
    k of passes holds the k-th position of the window of each of the first
    n_k centers of order, where n_k counts the centers with more than k:
    each pass is a prefix of the one before it, and a center's offsets come
    in position order, as int64.

    Each block's window starts and ends come from two merges of its
    centers with the positions that their windows can reach (_merge_ranks),
    so a block costs time linear in its centers plus the positions within
    its reach, not a binary search of all positions per center.  Where the
    positions are much denser than the centers, the merge walks every
    position in reach: at 0.3 s of the fig3 config with rate_b = 1.5 kHz
    (about 33 A clicks per sampler candidate and 100 per histogram center)
    the sampler took 3.0 ms against 2.5 ms by binary search and scan_tau
    2.4 against 1.9 ms, while with rate_a = 1.5 kHz they took 13.8 and
    3.5 ms against 14.6 and 3.8 ms (one Xeon vCPU, numpy 2.4.6).
    """
    for base in range(0, centers.size, _CENTER_BLOCK):
        block = centers[base : base + _CENTER_BLOCK].astype(np.int64)
        first = _merge_ranks(positions, block + lo)
        counts = _merge_ranks(positions, block + hi + 1) - first
        # the positions within the block's reach, int64 like its window
        # origins, so that each pass gathers and subtracts in one dtype and
        # its offsets index as intp: no pass casts
        start = first[0]
        near = positions[start : first[-1] + counts[-1]].astype(np.int64, copy=False)
        first -= start
        top = int(counts.max())
        # numpy's stable sort of 16-bit keys is a radix sort: 33 us for the
        # 2^13 window counts of a fig3 block, against 200 us as int64 (one
        # Xeon vCPU, numpy 2.4); -counts fit an int16 while counts stay below 2^15
        keys = np.negative(counts).astype(np.int16 if top < 2**15 else np.int64)
        order = np.argsort(keys, kind="stable")
        # ranked[k] = centers with more than k positions, k = 0 .. top - 1
        ranked = np.cumsum(np.bincount(counts)[:0:-1])[::-1]
        yield base, order, _rank_passes(near, first[order], block[order] + lo, ranked)


def _segment_same_bin(
    rng: np.random.Generator, n_bins: int, p_a: float, p_b: float, g2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks correlated within one bin: P(B|A) = p_b * g2, singles exact.

    A clicks are geometric gaps over all bins.  B clicks on A bins are
    thinned A clicks; B clicks off A bins are geometric gaps over the
    free bins, mapped back past the A bins.
    """
    a_bins = _bernoulli_bins(rng, n_bins, p_a)
    if p_b <= 0:
        return a_bins, np.empty(0, dtype=a_bins.dtype)
    joint = p_b * g2
    if joint >= 1.0:
        raise ValueError(f"p_b * g2 = {joint:.3g} is not a probability; lower the rates")
    b_on = a_bins[rng.random(a_bins.size) < joint]
    off_prob = p_b * (1.0 - p_a * g2) / (1.0 - p_a)
    b_off = _complement_bins(a_bins, _bernoulli_bins(rng, n_bins - a_bins.size, off_prob))
    return a_bins, np.sort(np.concatenate([b_on, b_off]))


# B-click probabilities are clipped to [0, CAP * p_b].  This is measured,
# not bounded: at the default fig3 config about 0.04 % of candidates are
# clipped (all at 0; kernel-sum sd 0.26 over 12.7 A clicks per window),
# moving the mean acceptance by about 4e-5.  The sum's spread, and with it
# the clipped share, grows like sqrt(rate_a * bin_width * reach).
_KERNEL_CAP = 3.0
# The kernel table holds 2 * reach + 1 float64 entries, built from an int64
# arange as long; StreamConfig bounds the reach before any table exists, to
# a 2^22-entry table of 64 MB with its arange.  At 20 ns bins that refuses
# linewidths below about 119 Hz; the default fig3 kernel reaches 2119 bins.
_KERNEL_REACH_MAX = (1 << 21) - 1


def _kernel_reach(linewidth: float, bin_width: float) -> float:
    """The kernel's reach in bins, 5 envelope widths; inf where linewidth * bin_width underflows."""
    width = linewidth * bin_width
    return 5.0 / width if width > 0 else math.inf


def _segment_kernel(
    rng: np.random.Generator,
    n_bins: int,
    p_a: float,
    p_b: float,
    model: G2Model,
    bin_width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Clicks correlated over a damped oscillating kernel of +-5 envelope widths."""
    reach = int(math.ceil(_kernel_reach(model.linewidth, bin_width)))
    # table offset d = (A bin - B bin); the shift estimator pairs clicks with
    # t_A - t_B = tau, so offset d carries the model at tau = d * bin_width
    deltas = np.arange(-reach, reach + 1)
    kernel = (g2_tau_model(model, deltas * bin_width) - 1.0) / (1.0 - p_a)
    mean_shift = p_a * kernel.sum()

    a_bins = _bernoulli_bins(rng, n_bins, p_a)
    envelope_prob = min(_KERNEL_CAP * p_b, 0.5)
    candidates = _bernoulli_bins(rng, n_bins, envelope_prob)
    # the accepted clicks are compacted to the front of candidates: a block's
    # passes are read before its accepted clicks are written, and those
    # never outnumber the candidates of this and earlier blocks
    kept = 0
    # PCG64 yields the same doubles whether random() is called once or block
    # by block, so the accepted clicks do not depend on the block size
    for base, order, passes in _window_ranks(a_bins, candidates, -reach, reach):
        block = candidates[base : base + order.size]
        # each candidate's kernel terms are added from 0.0 in time order
        part = np.zeros(block.size)
        for offset in passes:
            part[: offset.size] += kernel[offset]
        sums = np.empty(block.size)
        sums[order] = part
        prob = p_b * np.clip(1.0 + sums - mean_shift, 0.0, _KERNEL_CAP)
        accepted = block[rng.random(block.size) < prob / envelope_prob]
        candidates[kept : kept + accepted.size] = accepted
        kept += accepted.size
    # a copy, so that the candidates are freed on return
    return a_bins, candidates[:kept].copy()


def _merge_channel(signal: np.ndarray, dark: np.ndarray) -> np.ndarray:
    if dark.size == 0:
        return signal
    return _dedupe_sorted(np.sort(np.concatenate([signal, dark])))


def simulate_segments(config: StreamConfig) -> Iterator[tuple[float, TdcStream]]:
    """Each schedule step's acquisition as (controller delay, stream), in
    schedule order, with times counted from the step's start.

    Each segment draws from an independent child seed of (seed, segment
    index), so output does not depend on how segments are batched or
    parallelized, and a consumer that takes one segment at a time holds one
    segment's arrays, however long the schedule.
    """
    bw_ps = config.bin_width_ps
    p_a = config.rate_a * config.bin_width
    p_b = config.rate_b * config.bin_width
    dark_a = config.dark_rate_a * config.bin_width
    dark_b = config.dark_rate_b * config.bin_width
    for index, (t_delay, dwell) in enumerate(config.delay_schedule):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))
        )
        n_bins = round(dwell / config.bin_width)
        meta = StreamMeta(bin_width_ps=bw_ps, duration_ps=n_bins * bw_ps, seed=config.seed)
        if config.model is not None and config.model.linewidth is not None:
            a_bins, b_bins = _segment_kernel(rng, n_bins, p_a, p_b, config.model, config.bin_width)
        else:
            g2 = 1.0 if config.model is None else float(g2_zero_model(config.model, t_delay))
            a_bins, b_bins = _segment_same_bin(rng, n_bins, p_a, p_b, g2)
        a_bins = _merge_channel(a_bins, _bernoulli_bins(rng, n_bins, dark_a))
        b_bins = _merge_channel(b_bins, _bernoulli_bins(rng, n_bins, dark_b))
        # rebound, so that each channel's bins are freed once its times exist
        a_bins = np.multiply(a_bins, bw_ps, dtype=np.int64)
        b_bins = np.multiply(b_bins, bw_ps, dtype=np.int64)
        yield t_delay, TdcStream(times_a=a_bins, times_b=b_bins, meta=meta)


def simulate_stream(config: StreamConfig) -> TdcStream:
    """The schedule's segments of simulate_segments played back to back as
    one stream, with the step windows in its segment bookkeeping.

    A one-segment schedule is that segment's stream; a longer one is one
    concatenation per channel, each segment's offset then added in place.
    """
    parts = list(simulate_segments(config))
    segments: list[tuple[float, int, int]] = []
    start_ps = 0
    for t_delay, part in parts:
        segments.append((t_delay, start_ps, start_ps + part.meta.duration_ps))
        start_ps += part.meta.duration_ps
    if len(parts) == 1:
        stream = parts[0][1]
        stream.segments = tuple(segments)
        return stream
    # each channel's segment arrays follow one another, so they concatenate sorted
    channels = []
    for channel in (CHANNEL_A, CHANNEL_B):
        pieces = [part.channel_times(channel) for _, part in parts]
        times = np.concatenate(pieces)
        start = 0
        for (_, offset_ps, _), piece in zip(segments, pieces):
            times[start : start + piece.size] += offset_ps
            start += piece.size
        channels.append(times)
    meta = StreamMeta(bin_width_ps=config.bin_width_ps, duration_ps=start_ps, seed=config.seed)
    return TdcStream(times_a=channels[0], times_b=channels[1], meta=meta, segments=tuple(segments))


# records per block of the file writer and reader.  A block's scratch
# arrays take at most about 110 bytes a record (1.7 MB, the text writer's),
# however long the stream.  On one Xeon vCPU (numpy 2.4.6) the files-offgrid
# benchmark operation peaked at 2.76 MB traced with blocks of 2^12 to 2^14
# records, where the sampler of `simulate` sets its peak, but at 3.70 MB
# at 2^15 and 4.96 MB at 2^16, where the text writer's block does.  At
# 1.2M records (best of 5) 2^12 to 2^16 wrote and read a binary file in
# 22-37 ms each and wrote a text file in 190-240 ms; the text reader took
# 193, 141 and 117 ms at 2^12, 2^13 and 2^14, and 81 ms at 2^16.
_BLOCK = 1 << 14
# 10^1 .. 10^18: a time of k digits is at or above the first k - 1 of them
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# the magic, then the bin width, the duration and the seed, little-endian
# like the records' times, so a file reads the same on every host
_BINARY_HEADER = struct.Struct("<4sqqQ")
_BINARY_RECORD = np.dtype([("ch", "u1"), ("t", "<u8")])


def _record_blocks(stream: TdcStream) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Both channels as (channel, time) records sorted by (time, channel),
    one block of at most _BLOCK records at a time.

    Two cursors walk the channels.  A block takes every record before a stop
    time: the time of the first record past the next half block of either
    channel, whichever is earlier.  So equal times stay in one block, and a
    stable sort of the block's A times followed by its B times, one merge
    of two sorted runs, keeps A ahead of B on equal times.  Only a time that
    one channel repeats more than half a block in a row makes a longer
    block: all the records of that time.
    """
    a, b = stream.times_a, stream.times_b
    half = _BLOCK // 2
    i = j = 0
    while i < a.size or j < b.size:
        stops = [t[k + half] for t, k in ((a, i), (b, j)) if k + half < t.size]
        if not stops:
            stop_a, stop_b = a.size, b.size
        else:
            stop = min(stops)
            stop_a, stop_b = np.searchsorted(a, stop), np.searchsorted(b, stop)
            if stop_a == i and stop_b == j:
                stop_a, stop_b = np.searchsorted(a, stop, "right"), np.searchsorted(b, stop, "right")
        times = np.concatenate([a[i:stop_a], b[j:stop_b]])
        order = np.argsort(times, kind="stable")
        yield (order >= stop_a - i).astype(np.uint8), times[order]
        i, j = stop_a, stop_b


def _text_lines(channels: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The bytes of the text records '<A|B> <time>' and a newline, one uint8 array.

    Each line is as long as its time has digits, so the lines are laid out by
    a cumulative sum of their lengths; the digits are written from the last
    one back, one divmod by 10 per column, for the times that have digits left.
    """
    widths = 1 + np.searchsorted(_POWERS_OF_TEN, times, side="right")
    ends = np.cumsum(widths + 3)  # one past each line's newline
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    starts = ends - (widths + 3)
    out[starts] = channels + ord("A")
    out[starts + 1] = ord(" ")
    out[ends - 1] = ord("\n")
    position, left = ends - 2, times
    while left.size:
        left, digit = np.divmod(left, 10)
        out[position] = digit + ord("0")
        more = left > 0
        position, left = position[more] - 1, left[more]
    return out


def _binary_records(channels: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The binary records, a channel byte and a little-endian uint64 time each."""
    records = np.empty(times.size, dtype=_BINARY_RECORD)
    records["ch"] = channels
    records["t"] = times
    return records


def write_stream(stream: TdcStream, path, binary: bool = False) -> None:
    """Persist a stream; the two formats round-trip bit-exactly.  The records
    are laid out and written one block of _record_blocks at a time."""
    meta = stream.meta
    with open(path, "wb") as fh:
        if binary:
            fh.write(_BINARY_HEADER.pack(BINARY_MAGIC, meta.bin_width_ps, meta.duration_ps, meta.seed))
        else:
            fh.write(f"#binwidth_ps={meta.bin_width_ps}\n#duration_ps={meta.duration_ps}\n"
                     f"#seed={meta.seed}\n".encode("ascii"))
        layout = _binary_records if binary else _text_lines
        for channels, times in _record_blocks(stream):
            fh.write(layout(channels, times))


def _header_meta(path, bin_width_ps: int, duration_ps: int, seed: int) -> StreamMeta:
    """The meta of a parsed file's header; a field out of its range is a format error."""
    try:
        return StreamMeta(bin_width_ps=bin_width_ps, duration_ps=duration_ps, seed=seed)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: invalid header ({exc})") from None


def _file_pieces(fh, size: int, cut) -> Iterator[memoryview]:
    """The rest of an open file, read through one buffer of `size` bytes.

    Each fill of the buffer is handed out up to cut(buffer, end), and the
    bytes after that open the next fill.  A fill with nothing to cut is
    handed out whole, and so is what is left at the end of the file.
    """
    buffer = bytearray(size)
    view = memoryview(buffer)
    held = 0
    while got := fh.readinto(view[held:]):
        end = held + got
        stop = cut(buffer, end) or end
        yield view[:stop]
        held = end - stop
        buffer[:held] = buffer[stop:end]
    if held:
        yield view[:held]


def _read_records(path, meta: StreamMeta, blocks: Iterator) -> TdcStream:
    """The stream of a file's record blocks, each (name, times, is_a): the
    uint64 times, their A mask, and name(k) naming the block's k-th record.

    The blocks raise their own form errors.  A time at or past the
    duration, found on the unsigned times before the int64 view, is refused
    once every later block has been checked for form, and records out of
    order once both channels are joined.  Each channel's blocks are freed as
    soon as it is joined, so the read peaks while the second channel is
    joined, at both channels' times and that channel's blocks: 1.5x the
    times it returns on balanced channels.
    """
    top = max(meta.duration_ps, 1)
    channels = ([], [])
    late_error = None
    for name, times, is_a in blocks:
        if late_error is None:
            late = times >= top
            if late.any():
                bad = int(np.argmax(late))
                late_error = f"{name(bad)}: time {times[bad]} ps is past the duration"
            else:
                times = times.view(np.int64)
                channels[0].append(times[is_a])
                channels[1].append(times[~is_a])
    if late_error:
        raise StreamFormatError(f"{path}: {late_error}")
    # the last block, and with it the file buffer that it views, is dropped before the join
    name = times = is_a = late = None
    joined = []
    for parts in channels:
        joined.append(np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
        parts.clear()
    try:
        return TdcStream(times_a=joined[0], times_b=joined[1], meta=meta)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None


def _binary_blocks(fh, path) -> Iterator[tuple]:
    """The record blocks of a binary stream whose header has been read.

    As if the whole file were checked at once, a truncated record is
    refused before the first invalid channel, and that channel before a
    time at or past the duration: an invalid channel ends the blocks, and
    is refused once every later record has been checked for truncation.
    """
    size = _BINARY_RECORD.itemsize
    channel_error = None
    done = 0  # records before this block
    for piece in _file_pieces(fh, size * _BLOCK, lambda buffer, end: end - end % size):
        records = np.frombuffer(piece, dtype=_BINARY_RECORD, count=len(piece) // size)
        if len(piece) % size:
            offset = _BINARY_HEADER.size + (done + records.size) * size
            raise StreamFormatError(f"{path}: truncated record at byte offset {offset}")
        name = lambda k, first=done: f"record {first + k}"
        channels = records["ch"]
        if channel_error is None and channels.max() > CHANNEL_B:
            bad = int(np.argmax(channels > CHANNEL_B))
            channel_error = f"{name(bad)}: invalid channel {channels[bad]}"
        elif channel_error is None:
            yield name, records["t"], channels == CHANNEL_A
        done += records.size
    if channel_error:
        raise StreamFormatError(f"{path}: {channel_error}")


# a header line is one of the writer's three keys, '=', digits and a newline
_HEADER_LINE = re.compile(rb"#(binwidth_ps|duration_ps|seed)=([0-9]+)\n")
_HEADER_KEYS = ("binwidth_ps", "duration_ps", "seed")
# bytes of a malformed line that its error quotes, and the most of a header
# line that is read: the writer's longest header line is 33 bytes
_LINE_QUOTE = 40


def _parse_header(line: bytes, lineno: int, headers: dict[str, int], path) -> None:
    """Add one '#key=digits' line, its newline included, to headers.  Any
    other line, or a key seen before, is a bad header."""
    match = _HEADER_LINE.fullmatch(line)
    if match is None or match[1].decode() in headers:
        raise StreamFormatError(f"{path}: line {lineno}: bad header {line!r}")
    headers[match[1].decode()] = int(match[2])


def _text_times(body: np.ndarray) -> tuple[np.ndarray, np.ndarray] | int:
    r"""The times, as uint64, and the A mask of the records '[AB] [0-9]{1,19}\n'
    that make up body, a uint8 array that ends at a newline or holds none;
    or, if any line is not such a record, the offset in body of the first
    line that is not.

    Each check tests every line at once, and only a check that fails lists
    the lines that fail it, so a piece of records costs no per-line fault
    mask.  The digits accumulate into uint64 column by column (Horner's
    rule, shorter times padded with leading zeros): 19 digits stay below
    10^19 < 2^64, so no time wraps.
    """
    ends = np.flatnonzero(body == ord("\n"))
    if ends.size == 0:
        return 0  # a line longer than the buffer, or text after the file's last newline
    widths = np.diff(ends, prepend=-1) - 3  # digits per line
    starts = ends - widths - 2  # one past the newline before each line
    faults = []  # per line, of each check that fails
    shortest, longest = int(widths.min()), int(widths.max())
    if shortest < 1 or longest > 19:
        faults.append((widths < 1) | (widths > 19))
    letters = body[starts]
    is_a = letters == ord("A")
    # clipped: the byte after a blank last line is past the piece
    form = (is_a | (letters == ord("B"))) & (body.take(starts + 1, mode="clip") == ord(" "))
    if not form.all():
        faults.append(~form)
    times = np.zeros(ends.size, dtype=np.uint64)
    for column in range(min(longest, 19), 0, -1):
        # the column-th byte before each newline; bytes other than digits wrap to 10 and above
        digit = body.take(ends - column, mode="clip") - np.uint8(ord("0"))
        if column > shortest:
            digit[widths < column] = 0
        if digit.max() > 9:
            faults.append(digit > 9)
        times *= 10
        times += digit
    if faults:
        return int(starts[np.argmax(np.logical_or.reduce(faults))])
    return times, is_a


def _text_blocks(fh, path, lineno: int) -> Iterator[tuple]:
    r"""The record blocks of a text stream whose `lineno` header lines have
    been read.  The records are read through one buffer, cut at its last
    newline; a malformed line is refused as soon as it is found, since no
    earlier line can be, with its first _LINE_QUOTE bytes quoted.
    """
    # 16 bytes a record of a block, about the writer's usual 14-16 byte line,
    # so a fill holds at most 4 * _BLOCK records of the shortest form 'A 0\n'
    # (a file of 2^16 such lines peaks at 3.0 MB traced; on the writer's
    # files the channels' join sets the read peak); and at least a whole
    # record (22 bytes at most) or the bytes that an error quotes of a
    # longer line
    size = max(16 * _BLOCK, _LINE_QUOTE)
    for piece in _file_pieces(fh, size, lambda buffer, end: buffer.rfind(b"\n", 0, end) + 1):
        name = lambda k, first=lineno + 1: f"line {first + k}"
        body = np.frombuffer(piece, dtype=np.uint8)
        records = _text_times(body)
        if isinstance(records, int):
            quote = bytes(piece[records : records + _LINE_QUOTE])
            quote = quote[: quote.find(b"\n") + 1 or None]
            bad = np.count_nonzero(body[:records] == ord("\n"))
            raise StreamFormatError(f"{path}: {name(bad)}: malformed record {quote!r}")
        times, is_a = records
        yield name, times, is_a
        lineno += times.size


def read_stream(path) -> TdcStream:
    r"""Load a stream file, recognizing the binary format by its magic bytes.

    The file is read one block at a time, and only the click times are kept.
    A text file is read in the one form the writer makes: '#key=digits'
    header lines for its three keys, then one record '[AB] [0-9]{1,19}\n' a
    line; any other file is refused at its first bad line.
    """
    with open(path, "rb") as fh:
        if fh.peek(len(BINARY_MAGIC))[: len(BINARY_MAGIC)] == BINARY_MAGIC:
            header = fh.read(_BINARY_HEADER.size)
            if len(header) < _BINARY_HEADER.size:
                raise StreamFormatError(f"{path}: truncated header at byte offset {len(header)}")
            meta = _header_meta(path, *_BINARY_HEADER.unpack(header)[1:])
            return _read_records(path, meta, _binary_blocks(fh, path))
        headers: dict[str, int] = {}
        lineno = 0
        while fh.peek(1)[:1] == b"#":
            lineno += 1
            # a line longer than _LINE_QUOTE is cut before its newline: a bad header
            _parse_header(fh.readline(_LINE_QUOTE), lineno, headers, path)
        for key in _HEADER_KEYS:
            if key not in headers:
                raise StreamFormatError(f"{path}: missing required header #{key}=")
        meta = _header_meta(path, *(headers[key] for key in _HEADER_KEYS))
        return _read_records(path, meta, _text_blocks(fh, path, lineno))
