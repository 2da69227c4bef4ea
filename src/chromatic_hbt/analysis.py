"""Coincidence counting and g2 estimation from click streams.

Counting uses the stream's own bin, over the stream's whole bins.  A
coincidence is a bin hit by both channels after channel B's timestamps
are shifted by the post-processing delay tau.  The estimator

    g2 = n_coincidence * n_bin / (n_A * n_B)

counts n_A and n_B as bins hit by each channel, like the coincidences, so
it is 1 for uncorrelated streams; its error bar is Poisson-dominated,
sigma = g2 / sqrt(n_coincidence).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .streams import (
    CHANNEL_A,
    CHANNEL_B,
    PS_PER_SECOND,
    TdcStream,
    _bin_dtype,
    _dedupe_sorted,
    _window_ranks,
)

# both scan variables are in seconds
X_KINDS = ("t_delay", "tau")
# widest span of whole-bin shifts the all-shifts pass takes, one int64 a bin
_MAX_SHIFT_SPAN = 50_000_000
# The all-shifts pass pairs each B bin with about span * n_A / n_bin A bins;
# a per-tau count looks each of B's bins up in A's occupancy.  On
# one Xeon vCPU (numpy 2.4.6, 0.2 s and 0.8 s default-rate streams, 209
# taus) the two broke even at about 1.5 pairs per tau; the all-shifts pass
# takes up to this many.
_PAIRS_PER_TAU = 1.25


def _count_distinct_sorted(values: np.ndarray) -> int:
    """Number of distinct values in a sorted array."""
    if values.size == 0:
        return 0
    return 1 + int(np.count_nonzero(values[1:] != values[:-1]))


@dataclass(frozen=True)
class CoincidenceCounts:
    """Raw tallies of one counting pass."""

    n_coincidence: int
    n_a: int
    n_b: int
    n_bin: int
    tau: float  # seconds

    def __post_init__(self):
        if self.n_bin <= 0:
            raise ValueError(f"n_bin must be > 0, got {self.n_bin}")
        if self.n_coincidence > min(self.n_a, self.n_b):
            raise ValueError("more coincidences than singles; counting is inconsistent")


def _whole_bins(stream: TdcStream) -> tuple[int, int]:
    """(bin width in ps, number of whole bins) of a stream; both counters
    drop clicks past the last whole bin."""
    bw_ps = stream.meta.bin_width_ps
    n_bin = stream.meta.duration_ps // bw_ps
    if n_bin <= 0:
        raise ValueError("stream is shorter than one bin")
    return bw_ps, n_bin


# times or bins the per-tau count takes at a time, in a scan's preparation
# and at each tau, so its temporaries stay a few MB however long the stream
_COUNT_CHUNK = 1 << 16


def _inside(times: np.ndarray, tau_ps: int, top_ps: int) -> np.ndarray:
    """The sorted times that fall in [0, top_ps) once shifted by tau_ps."""
    return times[np.searchsorted(times, -tau_ps) : np.searchsorted(times, top_ps - tau_ps)]


@dataclass(eq=False)
class _Occupancy:
    """Both channels' bins, prepared for the per-tau counts of one scan.

    times are A's clicks inside the stream's whole bins.  n_a and bitmap
    come from their distinct bins, by _distinct_bins, the all-shifts pass's
    rule.  bitmap holds one bit per group of 2^shift bins, set where A has a
    click in the group, packed eight groups a byte; shift is the smallest
    that keeps the bitmap no larger than twice A's times array.  A B bin
    whose group bit is set is confirmed by one binary search into times, so
    no copy of A's bins is kept.

    A tau of whole bins and a sub-bin offset o moves a B time t to bin
    floor((t + o) / bin) + whole, so bins_b are B's distinct bins at one
    offset, key, and a tau of that offset adds its whole-bin shift to them.
    An offset below carry_from, bin - max(t mod bin), carries no B click
    into the next bin and takes the bins at offset 0; on a B on the grid,
    as every simulated stream's is, every offset does.  One offset's bins
    are held at a time; tally builds them when a tau needs another's.
    """

    times: np.ndarray
    n_a: int
    shift: int
    bitmap: np.ndarray
    carry_from: int
    key: int | None = None
    bins_b: np.ndarray | None = None

    @classmethod
    def of(cls, stream: TdcStream) -> "_Occupancy":
        bw_ps, n_bin = _whole_bins(stream)
        times_a = stream.channel_times(CHANNEL_A)
        times = _inside(times_a, 0, n_bin * bw_ps)
        limit = max(2 * times_a.nbytes, 1)
        shift = 0
        while (n_bin - 1) >> (shift + 3) >= limit:
            shift += 1
        bitmap = np.zeros(((n_bin - 1) >> (shift + 3)) + 1, dtype=np.uint8)
        bins_a = _distinct_bins(times, bw_ps, n_bin)
        for lo in range(0, bins_a.size, _COUNT_CHUNK):
            groups = bins_a[lo : lo + _COUNT_CHUNK] >> shift
            bits = np.left_shift(np.uint8(1), groups.astype(np.uint8) & 7)
            groups >>= 3
            # the chunk's bytes are sorted, so each byte's bits are one run
            starts = np.flatnonzero(np.diff(groups, prepend=-1))
            bitmap[groups[starts]] |= np.bitwise_or.reduceat(bits, starts)
        times_b = stream.channel_times(CHANNEL_B)
        rest = max((int(np.remainder(times_b[lo : lo + _COUNT_CHUNK], bw_ps).max())
                    for lo in range(0, times_b.size, _COUNT_CHUNK)), default=0)
        return cls(times, bins_a.size, shift, bitmap, bw_ps - rest)

    def tally(self, times_b: np.ndarray, tau_ps: int, bw_ps: int, n_bin: int) -> tuple[int, int]:
        """(n_B, n_coincidence) at a shift of tau_ps: the distinct bins of
        B's clicks that fall in the whole bins once shifted, and how many of
        them A occupies."""
        whole, offset = divmod(tau_ps, bw_ps)
        key = offset if offset >= self.carry_from else 0
        if key != self.key:
            self.bins_b = None  # the last offset's bins go before these are built
            self.bins_b, self.key = _distinct_bins(times_b, bw_ps, n_bin, key), key
        # keys of another dtype would cast all of bins_b on every call
        lo, hi = np.searchsorted(self.bins_b, np.array([-whole, n_bin - whole], dtype=self.bins_b.dtype))
        step = self.bins_b.dtype.type(whole)
        n_coincidence = 0
        for start in range(lo, hi, _COUNT_CHUNK):
            n_coincidence += self._occupied(self.bins_b[start : min(start + _COUNT_CHUNK, hi)] + step, bw_ps)
        return int(hi - lo), n_coincidence

    def _occupied(self, bins: np.ndarray, bw_ps: int) -> int:
        """How many of the bins A occupies."""
        groups = bins >> self.shift
        low = groups.astype(np.uint8) & 7
        groups >>= 3
        # each bin's group bit, shifted down to bit 0 of its byte
        bit = self.bitmap.take(groups)
        bit >>= low
        bit &= 1
        # the 0/1 bytes viewed as bool: flatnonzero took 6 us on 22k of them
        # against 42 us on the uint8 bytes
        candidates = bins[np.flatnonzero(bit.view(bool))].astype(np.int64, copy=False)
        # A's first click at or after the bin's start, if any, is in the bin
        first = self.times.take(np.searchsorted(self.times, candidates * bw_ps), mode="clip")
        return int(np.count_nonzero(first // bw_ps == candidates))


def count_coincidences(
    stream: TdcStream, tau: float = 0.0, occupancy: _Occupancy | None = None
) -> CoincidenceCounts:
    """Count bins hit by both channels after shifting B by tau.

    Without an occupancy, the coincident bins follow from distinct counts
    of the two channels' bins and of their union: n_coincidence = n_a +
    n_b - |A union B|.  Both channels' bins go into the two halves of one
    buffer; each half is sorted already, so its distinct bins are counted
    first, and then the buffer is sorted and its distinct bins counted.  A
    distinct count does not care which of two equal bins comes first, so
    the sort needs no stability and takes numpy's default quicksort, not
    the stable timsort that merges the two runs.  Every bin lies in [0,
    n_bin), so the buffer is int32 unless n_bin reaches 2^31, and numpy's
    vectorized 32-bit sort is the fast one: on one Xeon vCPU (numpy 2.4),
    sorting the 45k bins of a files-offgrid call took 150 us as int32
    quicksort, 280 us as int64 timsort and 380 us as int64 quicksort.

    scan_tau counts many taus of one stream, so it prepares both channels
    as an _Occupancy of this stream, and passes it on each call.  Then A
    is not floored or sorted again, and B only once per sub-bin offset
    that needs its own bins: the tau's whole-bin shift is added to B's
    distinct bins at its offset, n_B is read off them by two binary
    searches, and their shifted bins are looked up in A's group bitmap, a
    chunk of _COUNT_CHUNK bins at a time; the few whose group bit is set
    are confirmed by a binary search into A's times.  The bitmap is
    at most twice A's times array, B's bins are one int32 a distinct bin
    while 2 * n_bin < 2^31, and the chunks keep the count's temporaries
    under a few MB.  scan_delay counts one tau per stream, where the
    preparation would not pay, and keeps the sort.
    """
    bw_ps, n_bin = _whole_bins(stream)
    if not math.isfinite(tau):
        raise ValueError(f"tau {tau} is not finite")
    tau_ps = round(tau * PS_PER_SECOND)
    if abs(tau_ps) >= stream.meta.duration_ps:
        raise ValueError(f"shift {tau} s reaches beyond the stream duration")

    times_b = stream.channel_times(CHANNEL_B)
    if occupancy is not None:
        n_a = occupancy.n_a
        n_b, n_coincidence = occupancy.tally(times_b, tau_ps, bw_ps, n_bin)
    else:
        top_ps = n_bin * bw_ps
        times_a = stream.channel_times(CHANNEL_A)
        sel_a = _inside(times_a, 0, top_ps)
        sel_b = _inside(times_b, tau_ps, top_ps)
        merged = np.empty(sel_a.size + sel_b.size, dtype=np.int32 if n_bin < 2**31 else np.int64)
        bins_a, bins_b = merged[: sel_a.size], merged[sel_a.size :]
        np.floor_divide(sel_a, bw_ps, out=bins_a, casting="unsafe")
        np.floor_divide(sel_b + tau_ps, bw_ps, out=bins_b, casting="unsafe")
        n_a = _count_distinct_sorted(bins_a)
        n_b = _count_distinct_sorted(bins_b)
        merged.sort()
        n_coincidence = n_a + n_b - _count_distinct_sorted(merged)
    return CoincidenceCounts(
        n_coincidence=n_coincidence,
        n_a=n_a,
        n_b=n_b,
        n_bin=int(n_bin),
        tau=tau_ps / PS_PER_SECOND,
    )


def estimate_g2(counts: CoincidenceCounts) -> tuple[float, float]:
    """(g2, sigma) from raw tallies.

    sigma = g2 / sqrt(n_coincidence); with zero coincidences g2 is 0 and
    sigma is reported at the one-count scale as an upper bound.
    """
    if counts.n_a <= 0 or counts.n_b <= 0:
        raise ValueError("g2 undefined: a channel has zero counts")
    scale = counts.n_bin / (counts.n_a * counts.n_b)
    g2 = counts.n_coincidence * scale
    sigma = scale * math.sqrt(max(counts.n_coincidence, 1))
    return g2, sigma


# the curve file's header, the only one G2Curve.from_csv reads
KIND_LINE = "# x_kind={} x_unit=s\n"
CURVE_COLUMNS = ("x", "g2", "sigma")
COLUMN_LINE = ",".join(CURVE_COLUMNS) + "\n"
# a curve row as write_csv_columns writes it: three float reprs, each of the
# form of 1.5, 1e-05 or 1.5e+300 (inf and nan too, refused by line)
_REPR = r"(-?(?:\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+|inf|nan))"
_ROW = re.compile(f"{_REPR},{_REPR},{_REPR}\n")


def write_csv_columns(path, x_kind: str, columns: dict[str, Sequence[float]]) -> None:
    """Write equal-length columns as CSV under KIND_LINE, each value as its float repr."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(KIND_LINE.format(x_kind) + ",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(repr(float(value)) for value in row) + "\n")


@dataclass
class G2Curve:
    """g2 samples against a named scan variable, with per-point error bars."""

    x: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray
    x_kind: str

    def __post_init__(self):
        for name in CURVE_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x_kind not in X_KINDS:
            raise ValueError(f"x_kind must be one of {X_KINDS}, got {self.x_kind!r}")
        if not (self.x.shape == self.g2.shape == self.sigma.shape):
            raise ValueError("x, g2 and sigma must have identical shape")
        for name in CURVE_COLUMNS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"every curve point needs a finite {name}")
        if np.any(self.sigma <= 0):
            raise ValueError("every curve point needs a positive sigma")

    def __len__(self) -> int:
        return int(self.x.size)

    def to_csv(self, path) -> None:
        write_csv_columns(path, self.x_kind, {name: getattr(self, name) for name in CURVE_COLUMNS})

    @classmethod
    def from_csv(cls, path) -> "G2Curve":
        """Read only what to_csv writes: KIND_LINE, COLUMN_LINE, then one row of
        three float reprs a line.  Any other line (CRLF too), a kind not in
        X_KINDS and a value that is not finite are refused by line number."""
        with open(path, "r", encoding="ascii", errors="replace", newline="") as fh:
            lines = fh.readlines() or [""]
        prefix, suffix = KIND_LINE.split("{}")
        x_kind = lines[0].removeprefix(prefix).removesuffix(suffix)
        if lines[0] != KIND_LINE.format(x_kind):
            raise ValueError(f"{path}: line 1: expected {KIND_LINE.format('<kind>')!r}, got {lines[0]!r}")
        if x_kind not in X_KINDS:
            raise ValueError(f"{path}: line 1: x_kind must be one of {X_KINDS}, got {x_kind!r}")
        if lines[1:2] != [COLUMN_LINE]:
            raise ValueError(f"{path}: line 2: expected {COLUMN_LINE!r}, got {''.join(lines[1:2])!r}")
        rows = []
        for lineno, line in enumerate(lines[2:], start=3):
            match = _ROW.fullmatch(line)
            if match is None:
                row = line.removesuffix("\n")
                if row.count(",") != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 3 columns, got {row!r}")
                raise ValueError(f"{path}: line {lineno}: expected 3 float reprs and a newline, got {line!r}")
            rows.append(tuple(map(float, match.groups())))
        if not rows:
            raise ValueError(f"{path}: no curve points found")
        points = np.array(rows)
        bad = np.argwhere(~np.isfinite(points))
        if bad.size:
            row, column = bad[0]
            raise ValueError(f"{path}: line {row + 3}: every curve point needs a finite {CURVE_COLUMNS[column]}")
        return cls(*points.T, x_kind)


def _tally_curve(x_kind: str, points: Iterable[tuple[float, CoincidenceCounts]]) -> G2Curve:
    """A curve from (x, tallies) points, each tally through estimate_g2;
    a lazy source of points holds one tally at a time."""
    rows = [(x, *estimate_g2(counts)) for x, counts in points]
    return G2Curve(*map(np.array, zip(*rows)), x_kind)


def scan_delay(delay_streams: Iterable[tuple[float, TdcStream]]) -> G2Curve:
    """One zero-shift g2 point per controller delay setting.

    The (delay, stream) pairs are taken once, in order, and each stream is
    counted as it comes, so a lazy source holds one stream at a time.  A
    repeated delay is refused when it appears, fewer than 3 settings once
    the source is done.
    """

    def points() -> Iterator[tuple[float, CoincidenceCounts]]:
        seen: set[float] = set()
        for t_delay, stream in delay_streams:
            if t_delay in seen:
                raise ValueError("duplicate delay settings in scan")
            seen.add(t_delay)
            yield t_delay, count_coincidences(stream)
        if len(seen) < 3:
            raise ValueError(f"a delay scan needs >= 3 settings, got {len(seen)}")

    return _tally_curve("t_delay", points())


def _multi_shift_coincidences(
    bins_a: np.ndarray, bins_b: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Coincident-bin counts for many shifts in one pass.

    bins_a and bins_b are sorted duplicate-free; a coincidence at shift s is
    a pair with bins_a - bins_b = s, which is unique per bin, so the pair
    histogram over differences equals the per-shift bin intersections.
    The differences come one neighbour rank at a time, and each rank pass is
    scatter-added into the histogram in place.
    """
    s_min, s_max = int(shifts.min()), int(shifts.max())
    histogram = np.zeros(s_max - s_min + 1, dtype=np.int64)
    for _, _, passes in _window_ranks(bins_a, bins_b, s_min, s_max):
        for diffs in passes:
            np.add.at(histogram, diffs, 1)
    return histogram[shifts - s_min]


def _distinct_bins(times: np.ndarray, bw_ps: int, n_bin: int, offset: int = 0) -> np.ndarray:
    """The distinct bins floor((t + offset) / bw_ps) of sorted times, of
    _bin_dtype(n_bin), floored straight into one buffer of that dtype.  At
    offset 0 that takes no int64 temporary.  Another offset, 0 < offset <
    bw_ps, takes one of _COUNT_CHUNK times at a time, as floor((t - (bw_ps -
    offset)) / bw_ps) + 1: that cannot wrap int64, and it is one division
    where a quotient and a remainder are two."""
    bins = np.empty(times.size, dtype=_bin_dtype(n_bin))
    if offset == 0:
        np.floor_divide(times, bw_ps, out=bins, casting="unsafe")
    else:
        for lo in range(0, times.size, _COUNT_CHUNK):
            np.floor_divide(times[lo : lo + _COUNT_CHUNK] - (bw_ps - offset), bw_ps,
                            out=bins[lo : lo + _COUNT_CHUNK], casting="unsafe")
        bins += 1
    return _dedupe_sorted(bins)


def _all_shift_tallies(stream: TdcStream, shifts: np.ndarray) -> Iterator[CoincidenceCounts]:
    """Tallies at whole-bin shifts from one sweep over the A - B bin
    differences within the shifts' span; each equals count_coincidences at
    tau = shift * bin width.  Every shift is above -n_bin and below n_bin
    (scan_tau refuses the rest), so the binary searches' keys, in (-n_bin,
    2 * n_bin), fit the bins' dtype."""
    bw_ps, n_bin = _whole_bins(stream)
    bins_a = _distinct_bins(stream.channel_times(CHANNEL_A), bw_ps, n_bin)
    bins_a = bins_a[: np.searchsorted(bins_a, bins_a.dtype.type(n_bin))]
    bins_b = _distinct_bins(stream.channel_times(CHANNEL_B), bw_ps, n_bin)
    n_c = _multi_shift_coincidences(bins_a, bins_b, shifts)
    # B bins whose shifted position stays inside the acquisition
    n_b = (np.searchsorted(bins_b, (n_bin - shifts).astype(bins_b.dtype))
           - np.searchsorted(bins_b, (-shifts).astype(bins_b.dtype)))
    for shift, n_coinc, n_b_shift in zip(shifts.tolist(), n_c.tolist(), n_b.tolist()):
        yield CoincidenceCounts(
            n_coincidence=n_coinc,
            n_a=bins_a.size,
            n_b=n_b_shift,
            n_bin=int(n_bin),
            tau=shift * bw_ps / PS_PER_SECOND,
        )


def scan_tau(stream: TdcStream, taus: Sequence[float]) -> G2Curve:
    """g2 against the post-processing shift, all points from one stream.

    The taus are checked as floats, then each is rounded once to whole ps,
    as count_coincidences rounds it; one that reaches the stream's whole
    bins is refused.  Taus whose ps are all multiples of the bin take the
    all-shifts pass while their span is at most _MAX_SHIFT_SPAN bins and
    span * n_A / n_bin is at most _PAIRS_PER_TAU per tau, where it is the
    cheaper path.  Any other taus are counted one at a time against both
    channels, prepared for the scan as an _Occupancy: A's bitmap, and B's
    distinct bins at a tau's sub-bin offset, which the tau moves by its
    whole-bin shift.  The taus are counted in stable order of offset, so B
    is prepared once per offset that needs its own bins (none but offset
    0's when every B time is on the bin grid, as every simulated stream's
    is), and their tallies kept in tau order.  All paths give the same
    tallies for the same tau.
    """
    taus = np.array(taus, dtype=float)
    if taus.size == 0:
        raise ValueError("tau list is empty")
    finite = np.isfinite(taus)
    if not finite.all():
        raise ValueError(f"tau {taus[~finite][0]} is not finite")
    bw_ps, n_bin = _whole_bins(stream)
    # a tau past about 1.8e296 s overflows to inf ps, refused with the rest
    with np.errstate(over="ignore"):
        taus_ps = np.round(taus * PS_PER_SECOND)
    beyond = np.abs(taus_ps) >= n_bin * bw_ps
    if beyond.any():
        raise ValueError(f"tau {taus[beyond][0]} s reaches beyond the stream's {n_bin} whole bins of {bw_ps} ps")
    shifts, offsets = np.divmod(taus_ps.astype(np.int64), bw_ps)
    span = shifts.max() - shifts.min()
    pairs = span * stream.channel_times(CHANNEL_A).size / n_bin
    if not offsets.any() and span <= _MAX_SHIFT_SPAN and pairs <= _PAIRS_PER_TAU * taus.size:
        tallies = _all_shift_tallies(stream, shifts)
    else:
        occupancy = _Occupancy.of(stream)
        tallies = [None] * taus.size
        for i in np.argsort(offsets, kind="stable").tolist():
            tallies[i] = count_coincidences(stream, taus[i].item(), occupancy)
    return _tally_curve("tau", ((counts.tau, counts) for counts in tallies))
