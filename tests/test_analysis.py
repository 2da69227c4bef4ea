import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromatic_hbt import analysis, streams
from chromatic_hbt.analysis import (
    CoincidenceCounts,
    G2Curve,
    _all_shift_tallies,
    _multi_shift_coincidences,
    count_coincidences,
    estimate_g2,
    scan_delay,
    scan_tau,
)
from chromatic_hbt.config import RunConfig
from chromatic_hbt.protocol import G2Model
from chromatic_hbt.streams import (
    PS_PER_SECOND,
    StreamConfig,
    StreamMeta,
    TdcStream,
    simulate_segments,
    simulate_stream,
)

from oracles import occupied_bin_tallies, pairwise_coincidences, per_shift_coincidences


# clicks on both sides of 2^31 and 2^32 ps, with a repeated B time
INT32_TIMES_A = [7, 2**31 - 1, 2**31, 2**31 + 7, 2**32 + 7, 2**32 + 12]
INT32_TIMES_B = [2, 7, 2**31 - 1, 2**32 + 7, 2**32 + 7, 2**33 - 5]


def toy_stream(times_a, times_b, bin_width_ps=1000, duration_ps=None):
    times_a = np.asarray(times_a, dtype=np.int64)
    times_b = np.asarray(times_b, dtype=np.int64)
    if duration_ps is None:
        top = max(times_a.max(initial=0), times_b.max(initial=0))
        duration_ps = (top // bin_width_ps + 1) * bin_width_ps
    return TdcStream(
        times_a=times_a,
        times_b=times_b,
        meta=StreamMeta(bin_width_ps=bin_width_ps, duration_ps=int(duration_ps), seed=0),
    )


@st.composite
def counter_cases(draw):
    """A toy stream with repeated timestamps, possibly an empty channel, a
    duration that need not be a whole number of bins, and a shift of either
    sign, all in ps; times and shift each on the stream's bin grid or off
    it, so that B on the grid also meets a shift off it."""
    stream_bw = draw(st.integers(1, 50))
    duration = draw(st.integers(stream_bw, 60 * stream_bw))
    # on the grid, clicks land exactly on bin edges
    step = stream_bw if draw(st.booleans()) else 1
    clicks = st.lists(st.integers(0, (duration - 1) // step), max_size=30)
    times_a = sorted(t * step for t in draw(clicks))
    times_b = sorted(t * step for t in draw(clicks))
    tau_step = stream_bw if draw(st.booleans()) else 1
    tau_ps = tau_step * draw(st.integers(-((duration - 1) // tau_step), (duration - 1) // tau_step))
    return stream_bw, duration, times_a, times_b, tau_ps


@st.composite
def off_grid_scans(draw):
    """A small simulated stream, whose times lie on its bin grid, with
    off-grid taus in ps and the whole-bin shift below each."""
    bw_ps = draw(st.integers(2, 2000))
    n_bins = draw(st.integers(200, 2000))
    bin_width = bw_ps / PS_PER_SECOND
    # a damped fringe a few bins wide, so g2 varies with the shift
    model = G2Model(visibility=0.5, phase=0.3, frequency=0.05 / bin_width, linewidth=0.2 / bin_width)
    cfg = StreamConfig(bin_width=bin_width, rate_a=0.06 / bin_width, rate_b=0.06 / bin_width,
                       seed=draw(st.integers(0, 2**64 - 1)), model=model,
                       delay_schedule=((0.0, n_bins * bin_width),))
    # at least 100 bins of B stay inside the stream, so a channel is rarely empty
    shifts = draw(st.lists(st.integers(100 - n_bins, n_bins - 100), min_size=1, max_size=10))
    taus_ps = [k * bw_ps + draw(st.integers(1, bw_ps - 1)) for k in shifts]
    return simulate_stream(cfg), taus_ps, shifts


def scan_outcome(stream, taus):
    """(g2, sigma) lists of a shift scan, or its error message."""
    try:
        curve = scan_tau(stream, taus)
    except ValueError as exc:
        return str(exc)
    return curve.g2.tolist(), curve.sigma.tolist()


class TestCountCoincidences:
    def test_same_bin_counts_one(self):
        stream = toy_stream([0], [0])
        counts = count_coincidences(stream, tau=0.0)
        assert counts.n_coincidence == 1
        assert counts.n_a == 1 and counts.n_b == 1

    def test_shifted_out_of_coincidence(self):
        stream = toy_stream([0], [0], bin_width_ps=1000, duration_ps=100_000)
        counts = count_coincidences(stream, tau=10e-9)
        assert counts.n_coincidence == 0

    def test_constant_lag_recovered_by_opposite_shift(self):
        # B clicks lag A by exactly 5 ns; tau = -5 ns rebins them together
        bw_ps = 1000
        times_a = np.arange(10, dtype=np.int64) * 50_000
        times_b = times_a + 5_000
        stream = toy_stream(times_a, times_b, bin_width_ps=bw_ps)
        counts = count_coincidences(stream, tau=-5e-9)
        assert counts.n_coincidence == times_a.size
        assert count_coincidences(stream, tau=0.0).n_coincidence == 0

    @pytest.mark.parametrize("bw_ps", [1000, 3000, 7001])
    def test_shift_covariance_exact(self, bw_ps):
        # shifting B by tau counts like a stream whose B clicks are tau later
        rng = np.random.default_rng(3)
        times_a = np.sort(rng.choice(10_000, size=300, replace=False)) * 1000
        times_b = np.sort(rng.choice(10_000, size=300, replace=False)) * 1000
        tau = 17e-9
        stream = toy_stream(times_a, times_b, bin_width_ps=bw_ps, duration_ps=10_017_000)
        shifted = toy_stream(times_a, times_b + 17_000, bin_width_ps=bw_ps, duration_ps=10_017_000)
        a = count_coincidences(stream, tau=tau)
        b = count_coincidences(shifted, tau=0.0)
        assert (a.n_coincidence, a.n_a, a.n_b) == (b.n_coincidence, b.n_a, b.n_b)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(50, 400))
            times_a = np.sort(rng.choice(500_000, size=n, replace=False)).astype(np.int64)
            times_b = np.sort(rng.choice(500_000, size=n, replace=False)).astype(np.int64)
            bw_ps = int(rng.choice([100, 250, 1000, 7001]))
            tau_ps = int(rng.integers(-5000, 5000))
            stream = toy_stream(times_a, times_b, bin_width_ps=bw_ps, duration_ps=600_000)
            counts = count_coincidences(stream, tau=tau_ps * 1e-12)
            in_range = (times_b + tau_ps >= 0) & (times_b + tau_ps < (600_000 // bw_ps) * bw_ps)
            expected = pairwise_coincidences(times_a, times_b[in_range], tau_ps, bw_ps)
            assert counts.n_coincidence == expected

    @given(counter_cases())
    @example((10, 395, [0, 20, 20, 130, 390], [], -7))  # B empty, a click past the last whole bin
    def test_matches_set_oracle(self, case):
        stream_bw, duration, times_a, times_b, tau_ps = case
        stream = toy_stream(times_a, times_b, bin_width_ps=stream_bw, duration_ps=duration)
        counts = count_coincidences(stream, tau=tau_ps / PS_PER_SECOND)
        assert (counts.n_coincidence, counts.n_a, counts.n_b) == occupied_bin_tallies(
            times_a, times_b, tau_ps, stream_bw, duration)

    # 1 ps bins put n_bin past 2^31, so the bins take an int64 buffer; at
    # 10^10 bins, clicks 2^32 apart would share one bin if cast to int32
    @pytest.mark.parametrize("duration_ps", [3_000_000_000, 10_000_000_000])
    @pytest.mark.parametrize("tau_ps", [0, 5, 2**31, 1 - 2**31, -(2**31 + 5)])
    def test_bins_past_int32_match_set_oracle(self, duration_ps, tau_ps):
        times_a = [7, 2**31 - 1, 2**31, 2**31 + 7, 2**32 + 7, 2**32 + 12]
        times_b = [2, 7, 2**31 - 1, 2**32 + 7, 2**32 + 7, 2**33 - 5]
        times_a = [t for t in times_a if t < duration_ps]
        times_b = [t for t in times_b if t < duration_ps]
        stream = toy_stream(times_a, times_b, bin_width_ps=1, duration_ps=duration_ps)
        counts = count_coincidences(stream, tau=tau_ps / PS_PER_SECOND)
        assert counts.n_bin == duration_ps
        assert (counts.n_coincidence, counts.n_a, counts.n_b) == occupied_bin_tallies(
            times_a, times_b, tau_ps, 1, duration_ps)

    # pad_bins more empty bins at the end: A's few clicks in up to 5060
    # bins make its bitmap group up to 2^10 bins a bit
    @given(counter_cases(), st.integers(0, 5000), st.integers(1, 8))
    @example((10, 395, [0, 20, 20, 130, 390], [], -7), 0, 2)  # B empty, a click past the last whole bin
    @example((10, 400, [], [5, 15, 15], 3), 0, 1)  # A empty
    # runs of equal bins in both channels across the edges of 2-click chunks
    @example((1, 40, [3, 3, 3, 7, 7], [0, 3, 3, 3, 3, 7, 7], 0), 0, 2)
    # 64-bin groups: B's bin 1234 matches A's, twice across a chunk edge;
    # bin 1240 shares A's group but not its bin
    @example((10, 50_000, [12_340], [12_345, 12_349, 12_400, 40_000], 0), 0, 1)
    # 1 ps bins past 2^31 and 2^32, a group of 2^24 bins
    @example((1, 10**10, INT32_TIMES_A, INT32_TIMES_B, -(2**31 + 5)), 0, 2)
    @example((1, 10**10, INT32_TIMES_A, INT32_TIMES_B, 2**31), 0, 1)
    @example((1, 3 * 10**9, INT32_TIMES_A[:4], INT32_TIMES_B[:3], 1 - 2**31), 0, 3)
    # B on the grid, shifted off it: tau = 2 bins + w - 1 ps takes B's bin 39 past the last
    @example((10, 400, [20, 40, 60], [0, 20, 40, 390], 29), 0, 2)
    # tau = -1 ps moves B's bin 0 to bin -1, out of the count
    @example((10, 400, [0, 20], [0, 10, 10, 30], -1), 0, 2)
    # a B click in the last whole bin, and one in the partial bin shifted into it
    @example((10, 405, [380, 390], [390, 400], -5), 0, 1)
    # the partial bin's B click shifted by -(n_bin + 1) bins, to bin -1
    @example((10, 405, [0], [400], -404), 0, 1)
    # repeated B times across the edges of 1- and 2-click chunks
    @example((10, 300, [20, 30], [0, 10, 10, 10, 20, 20], 13), 0, 1)
    @example((10, 300, [20, 30], [0, 10, 10, 10, 20, 20], 13), 0, 2)
    # the widest n_bin whose shifted keys, up to 2 * n_bin, fit int32, and the next
    @example((1, 2**30 - 1, [0], [2**30 - 2], 2 - 2**30), 0, 1)
    @example((1, 2**30, [0], [2**30 - 1], 1 - 2**30), 0, 1)
    # B off the grid only at its last click: the alignment check finds it in a later 1-click chunk
    @example((10, 400, [20, 40], [0, 10, 20, 35], 0), 0, 1)
    def test_prepared_count_matches_sort_and_set_oracle(self, case, pad_bins, chunk):
        stream_bw, duration, times_a, times_b, tau_ps = case
        duration += pad_bins * stream_bw
        stream = toy_stream(times_a, times_b, bin_width_ps=stream_bw, duration_ps=duration)
        tau = tau_ps / PS_PER_SECOND
        with mock.patch.object(analysis, "_COUNT_CHUNK", chunk):
            occupancy = analysis._Occupancy.of(stream)
            prepared = count_coincidences(stream, tau, occupancy)
        # the smallest shift whose bitmap is at most twice A's times array
        limit = max(2 * stream.times_a.nbytes, 1)
        assert occupancy.bitmap.nbytes <= limit
        assert occupancy.shift == 0 or ((duration // stream_bw - 1) >> (occupancy.shift + 2)) + 1 > limit
        # B's distinct bins are prepared only on the grid, as int32 while 2 * n_bin < 2^31
        if any(t % stream_bw for t in times_b):
            assert occupancy.bins_b is None
        else:
            assert occupancy.bins_b.dtype == (np.int32 if 2 * (duration // stream_bw) < 2**31 else np.int64)
            assert occupancy.bins_b.tolist() == sorted({t // stream_bw for t in times_b})
        assert prepared == count_coincidences(stream, tau)
        assert (prepared.n_coincidence, prepared.n_a, prepared.n_b) == occupied_bin_tallies(
            times_a, times_b, tau_ps, stream_bw, duration)

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_non_finite_tau_rejected(self, tau):
        # checked as a float before it is rounded to whole ps
        with pytest.raises(ValueError, match=f"^tau {tau} is not finite$"):
            count_coincidences(toy_stream([0], [0]), tau=tau)

    @pytest.mark.parametrize("tau", [10.5e-9, -10.5e-9])
    def test_shift_of_the_whole_duration_rejected(self, tau):
        # the public counter's bound is the duration, partial last bin included
        stream = toy_stream([0], [0], duration_ps=10_500)
        with pytest.raises(ValueError, match=f"^shift {tau} s reaches beyond the stream duration$"):
            count_coincidences(stream, tau=tau)

    @pytest.mark.parametrize("count", [count_coincidences, lambda stream: scan_tau(stream, [0.0])],
                             ids=["count_coincidences", "scan_tau"])
    def test_stream_shorter_than_one_bin_rejected(self, count):
        stream = toy_stream([0, 400], [10], bin_width_ps=1000, duration_ps=500)
        with pytest.raises(ValueError, match="shorter than one bin"):
            count(stream)


class TestEstimateG2:
    def test_uncorrelated_expectation_is_one(self):
        counts = CoincidenceCounts(n_coincidence=25, n_a=500, n_b=500, n_bin=10_000, tau=0.0)
        g2, _ = estimate_g2(counts)
        assert g2 == pytest.approx(25 * 10_000 / (500 * 500))
        assert g2 == pytest.approx(1.0)

    def test_zero_coincidences_upper_bound_sigma(self):
        counts = CoincidenceCounts(n_coincidence=0, n_a=100, n_b=100, n_bin=1000, tau=0.0)
        g2, sigma = estimate_g2(counts)
        assert g2 == 0.0
        assert sigma == pytest.approx(1000 / (100 * 100))

    def test_zero_singles_rejected(self):
        counts = CoincidenceCounts(n_coincidence=0, n_a=0, n_b=10, n_bin=1000, tau=0.0)
        with pytest.raises(ValueError, match="zero counts"):
            estimate_g2(counts)

    def test_peak_delay_g2_reaches_one_plus_half_visibility(self):
        # at the fringe maximum the estimator sits at 1 + v/2 within 3 sigma
        model = G2Model(visibility=0.59, phase=-0.16, frequency=210.1e9)
        peak_delay = -model.phase / (2 * np.pi * model.frequency)
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e7, rate_b=1e7, seed=4242,
                           model=model, delay_schedule=((peak_delay, 0.02),))
        stream = simulate_stream(cfg)
        g2, sigma = estimate_g2(count_coincidences(stream))
        assert abs(g2 - (1.0 + model.visibility / 2.0)) < 3.0 * sigma
        assert g2 == pytest.approx(1.295, abs=0.05)

    def test_normalization_over_thirty_seeds(self):
        # uncorrelated million-bin streams: mean g2 within one percent of 1
        values = []
        for seed in range(30):
            cfg = StreamConfig(bin_width=1e-9, rate_a=5e7, rate_b=5e7, seed=seed,
                               model=None, delay_schedule=((0.0, 1e-3),))
            stream = simulate_stream(cfg)
            g2, _ = estimate_g2(count_coincidences(stream))
            values.append(g2)
        assert 0.99 < np.mean(values) < 1.01


class TestScans:
    def test_scan_delay_needs_three_settings(self):
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e6, rate_b=1e6, seed=1,
                           delay_schedule=((0.0, 1e-4),))
        stream = simulate_stream(cfg)
        with pytest.raises(ValueError, match=">= 3"):
            scan_delay([(0.0, stream), (1e-12, stream)])

    def test_scan_delay_rejects_duplicates(self):
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e6, rate_b=1e6, seed=1,
                           delay_schedule=((0.0, 1e-4),))
        stream = simulate_stream(cfg)
        with pytest.raises(ValueError, match="duplicate"):
            scan_delay([(0.0, stream), (0.0, stream), (1e-12, stream)])

    @staticmethod
    def delay_pairs(steps):
        cfg = StreamConfig(bin_width=1e-9, rate_a=2e7, rate_b=2e7, seed=8,
                           model=G2Model(visibility=0.5, phase=0.3, frequency=210.1e9),
                           delay_schedule=tuple((k * 1e-12, 2e-4) for k in range(steps)))
        return list(simulate_segments(cfg))

    def test_scan_delay_over_a_generator_matches_the_list(self):
        pairs = self.delay_pairs(5)
        from_list = scan_delay(pairs)
        from_generator = scan_delay(pair for pair in pairs)
        for name in ("x", "g2", "sigma"):
            assert np.array_equal(getattr(from_generator, name), getattr(from_list, name))

    def test_scan_delay_generator_needs_three_settings(self):
        pairs = self.delay_pairs(2)
        with pytest.raises(ValueError, match=">= 3"):
            scan_delay(pair for pair in pairs)

    def test_scan_delay_generator_refuses_a_duplicate_when_it_appears(self):
        (_, first), (_, second), (_, third) = self.delay_pairs(3)
        taken = []

        def source():
            for pair in ((0.0, first), (1e-12, second), (0.0, third), (2e-12, first)):
                taken.append(pair[0])
                yield pair

        with pytest.raises(ValueError, match="duplicate"):
            scan_delay(source())
        assert taken == [0.0, 1e-12, 0.0]

    def test_flat_scan_for_zero_visibility(self):
        model = G2Model(visibility=0.0, phase=0.0, frequency=210.1e9)
        streams = []
        for k in range(5):
            cfg = StreamConfig(bin_width=1e-9, rate_a=2e7, rate_b=2e7, seed=100 + k,
                               model=model, delay_schedule=((k * 1e-12, 2e-3),))
            streams.append((k * 1e-12, simulate_stream(cfg)))
        curve = scan_delay(streams)
        assert curve.x_kind == "t_delay"
        assert np.all(np.abs(curve.g2 - 1.0) < 5.0 * curve.sigma)

    def test_scan_tau_zero_point_matches_direct_estimate(self):
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e7, rate_b=1e7, seed=21,
                           delay_schedule=((0.0, 1e-3),))
        stream = simulate_stream(cfg)
        curve = scan_tau(stream, [0.0, 5e-9, -5e-9])
        direct, _ = estimate_g2(count_coincidences(stream, tau=0.0))
        assert curve.g2[0] == direct
        assert curve.x_kind == "tau"

    def test_scan_tau_beyond_window_rejected(self):
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e6, rate_b=1e6, seed=2,
                           delay_schedule=((0.0, 1e-5),))
        stream = simulate_stream(cfg)
        with pytest.raises(ValueError, match="beyond"):
            scan_tau(stream, [2e-5])

    @pytest.mark.parametrize("taus", [[k * 1e-9 for k in range(11)], [0.0, 1.5e-9, 10.2e-9]],
                             ids=["whole-bins", "off-grid"])
    def test_scan_tau_past_the_whole_bins_rejected_on_both_paths(self, taus):
        # 10 whole bins of a 10 500 ps stream: 10 ns would take the all-shifts
        # pass and 10.2 ns the per-tau count; each is refused by the same rule
        stream = toy_stream([0, 2000, 5000], [0, 3000, 5000], duration_ps=10_500)
        message = f"^tau {taus[-1]} s reaches beyond the stream's 10 whole bins of 1000 ps$"
        with pytest.raises(ValueError, match=message):
            scan_tau(stream, taus)

    def test_scan_tau_empty_list_rejected(self):
        cfg = StreamConfig(bin_width=1e-9, rate_a=1e6, rate_b=1e6, seed=2,
                           delay_schedule=((0.0, 1e-5),))
        stream = simulate_stream(cfg)
        with pytest.raises(ValueError, match="empty"):
            scan_tau(stream, [])

    def test_scan_tau_fast_path_matches_per_point_counts(self):
        # whole-bin shifts use the one-pass histogram; must agree exactly
        # with the single-shift counter on every point
        cfg = StreamConfig(bin_width=1e-9, rate_a=2e7, rate_b=2e7, seed=33,
                           model=G2Model(visibility=0.5, phase=0.3, frequency=210.1e9),
                           delay_schedule=((0.0, 5e-4),))
        stream = simulate_stream(cfg)
        taus = [k * 1e-9 for k in range(-20, 21, 3)]
        curve = scan_tau(stream, taus)
        for tau, g2, sigma in zip(curve.x, curve.g2, curve.sigma):
            counts = count_coincidences(stream, tau=tau)
            g2_ref, sigma_ref = estimate_g2(counts)
            assert g2 == g2_ref
            assert sigma == sigma_ref

    @given(st.sets(st.integers(0, 300), max_size=80), st.sets(st.integers(0, 300), max_size=80),
           st.lists(st.integers(-60, 60), min_size=1, max_size=12),
           st.one_of(st.just(1), st.just(3), st.integers(1, 100)))
    @example(set(), {1, 2, 3}, [0, 5], 1)  # an empty A channel
    # up to 121 differences for each of 3000 centers in one block: 121 rank
    # passes, each scatter-added into the histogram
    @example(set(range(3000)), set(range(3000)), [-60, 0, 60], 1 << 13)
    # repeated and unsorted shifts each read their own histogram bin
    @example(set(range(0, 300, 2)), set(range(0, 300, 3)), [5, -3, 5, 60, 0, -3, -60], 7)
    def test_shift_histogram_blocks_match_per_shift_intersections(self, a, b, shifts, block):
        bins_a = np.array(sorted(a), dtype=np.int64)
        bins_b = np.array(sorted(b), dtype=np.int64)
        shifts = np.array(shifts, dtype=np.int64)
        with mock.patch.object(streams, "_CENTER_BLOCK", block):
            counts = _multi_shift_coincidences(bins_a, bins_b, shifts)
        assert counts.tolist() == per_shift_coincidences(bins_a, bins_b, shifts.tolist())

    def test_scan_tau_fast_path_drops_partial_last_bin(self):
        # the per-tau counter ignores clicks past the last whole bin of a
        # stream whose duration is not a whole number of bins
        stream = toy_stream([0, 2000, 9500], [0, 3000, 9600], duration_ps=9700)
        curve = scan_tau(stream, [0.0, 1e-9])
        for tau, g2 in zip(curve.x, curve.g2):
            assert g2 == estimate_g2(count_coincidences(stream, tau=tau))[0]

    @given(off_grid_scans())
    def test_off_grid_taus_count_as_floored_whole_bins(self, case):
        # on-grid times make floor((t_b + tau) / bin) = t_b / bin + floor(tau / bin):
        # off-grid taus, counted one at a time, give the same g2 and sigma as
        # the whole-bin shifts below them through the all-shifts pass, which
        # these dense toy streams take only with its cost rule lifted
        stream, taus_ps, shifts = case
        bw_ps = stream.meta.bin_width_ps
        off_grid = scan_outcome(stream, [t / PS_PER_SECOND for t in taus_ps])
        with mock.patch.object(analysis, "_PAIRS_PER_TAU", math.inf):
            whole = scan_outcome(stream, [k * bw_ps / PS_PER_SECOND for k in shifts])
        assert off_grid == whole

    def test_off_grid_tau_on_off_grid_times_is_not_a_floored_shift(self):
        # the equivalence above needs B times on the bin grid: B at 195 000 ps
        # shifted by 5000 ps meets A's bin, but the floored shift 0 leaves it
        # in the bin before, so the per-tau counter and the histogram differ
        stream = toy_stream([200_000], [195_000], bin_width_ps=20_000)
        assert count_coincidences(stream, tau=5e-9).n_coincidence == 1
        assert count_coincidences(stream, tau=0.0).n_coincidence == 0
        assert scan_tau(stream, [5e-9]).g2[0] > 0.0
        assert scan_tau(stream, [0.0]).g2[0] == 0.0

    def test_scan_tau_takes_the_all_shifts_pass_only_where_it_is_cheaper(self, monkeypatch):
        # a far +-16 ms pair on a 0.2 s default-rate stream spans 1.6M bins:
        # about 4800 A bins per B bin, 23 per tau, so each tau is counted alone
        config = RunConfig.load()
        stream = simulate_stream(dataclasses.replace(config.tau_stream, delay_schedule=((0.0, 0.2),)))
        calls = []

        def counted(stream, tau=0.0, occupancy=None):
            calls.append(tau)
            return count_coincidences(stream, tau, occupancy)

        monkeypatch.setattr(analysis, "count_coincidences", counted)
        taus = sorted(config.tau_scan.taus() + [16e-3, -16e-3])
        curve = scan_tau(stream, taus)
        assert len(calls) == 209
        shifts = np.round(np.array(taus) / config.tau_scan.bin_width).astype(np.int64)
        histogram = [estimate_g2(counts) for counts in _all_shift_tallies(stream, shifts)]
        assert list(zip(curve.g2.tolist(), curve.sigma.tolist())) == histogram
        # the default taus span 4400 bins: 13 A bins per B bin, 0.06 per tau
        calls.clear()
        scan_tau(stream, config.tau_scan.taus())
        assert calls == []

    def test_all_shifts_scan_holds_each_channels_bins_once_as_int32(self):
        # 2 s of the default fig3 stream, 0.6M records, scanned at the default
        # taus on the all-shifts path (a second scan, so that first-call
        # allocations are not counted).  Each channel's bins are floored
        # straight into one int32 buffer, 4 bytes a click, and kept as they
        # are when no bin repeats; the windowed histogram's scratch, measured
        # at 88 B a center, is bounded at 128 B.  An int64 floor temporary
        # adds 8 bytes a click of a channel, and a deduplicated copy 4.
        config = RunConfig.load()
        stream = simulate_stream(dataclasses.replace(config.tau_stream, delay_schedule=((0.0, 2.0),)))
        taus = config.tau_scan.taus()
        scan_tau(stream, taus)
        tracemalloc.start()  # the stream, allocated before, is not traced
        try:
            scan_tau(stream, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 4 * len(stream) + 128 * streams._CENTER_BLOCK
        assert peak < bound, f"peak {peak / 1e6:.2f} MB beyond the stream's {len(stream)} records"

    def test_scan_tau_fractional_shift_uses_general_path(self):
        cfg = StreamConfig(bin_width=2e-9, rate_a=2e7, rate_b=2e7, seed=34,
                           delay_schedule=((0.0, 1e-4),))
        stream = simulate_stream(cfg)
        taus = [0.0, 1e-9, 3e-9]  # half-bin shifts
        curve = scan_tau(stream, taus)
        for tau, g2 in zip(curve.x, curve.g2):
            counts = count_coincidences(stream, tau=tau)
            g2_ref, _ = estimate_g2(counts)
            assert g2 == g2_ref


# the smallest subnormal, the smallest normal and the largest float, each
# signed, and -0.0; the first three are positive
EXTREME_FLOATS = (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -5e-324, -2.2250738585072014e-308, -1.7976931348623157e308, -0.0)


@st.composite
def curve_columns(draw):
    """x, g2 and sigma of 1-20 points: finite floats of any exponent, sigma > 0."""
    n = draw(st.integers(1, 20))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_FLOATS)
    positive = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from(EXTREME_FLOATS[:3])
    return [draw(st.lists(values, min_size=n, max_size=n)) for values in (finite, finite, positive)]


class TestG2Curve:
    def test_csv_round_trip(self, tmp_path):
        curve = G2Curve(
            x=np.array([0.0, 1e-12, 2e-12]),
            g2=np.array([1.2, 0.9, 1.05]),
            sigma=np.array([0.02, 0.02, 0.03]),
            x_kind="t_delay",
        )
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        back = G2Curve.from_csv(path)
        assert back.x_kind == "t_delay"
        assert np.array_equal(back.x, curve.x)
        assert np.array_equal(back.g2, curve.g2)
        assert np.array_equal(back.sigma, curve.sigma)

    @given(columns=curve_columns(), x_kind=st.sampled_from(analysis.X_KINDS))
    def test_csv_round_trip_is_bit_exact(self, tmp_path_factory, columns, x_kind):
        curve = G2Curve(*map(np.array, columns), x_kind)
        path = tmp_path_factory.mktemp("curve") / "curve.csv"
        curve.to_csv(path)
        back = G2Curve.from_csv(path)
        assert back.x_kind == x_kind
        for name in ("x", "g2", "sigma"):
            assert getattr(back, name).tobytes() == getattr(curve, name).tobytes()

    def test_columns_of_unequal_shape_rejected(self):
        with pytest.raises(ValueError, match="identical shape"):
            G2Curve(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.1]), "t_delay")

    def test_csv_without_the_column_line_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(analysis.KIND_LINE.format("tau") + "0.0,1.0,0.1\n")
        with pytest.raises(ValueError) as refused:
            G2Curve.from_csv(path)
        assert str(refused.value) == f"{path}: line 2: expected 'x,g2,sigma\\n', got '0.0,1.0,0.1\\n'"

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            G2Curve(np.array([0.0]), np.array([1.0]), np.array([0.0]), "t_delay")

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            CoincidenceCounts(n_coincidence=5, n_a=2, n_b=9, n_bin=100, tau=0.0)
