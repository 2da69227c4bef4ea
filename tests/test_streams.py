import math
import re
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chromatic_hbt import streams
from chromatic_hbt.analysis import scan_delay
from chromatic_hbt.protocol import G2Model
from chromatic_hbt.streams import (
    _GAP_CHUNK,
    BINARY_MAGIC,
    CHANNEL_A,
    CHANNEL_B,
    PS_PER_SECOND,
    StreamConfig,
    StreamFormatError,
    StreamMeta,
    TdcStream,
    _bernoulli_bins,
    _complement_bins,
    _merge_ranks,
    _segment_kernel,
    _window_ranks,
    read_stream,
    simulate_segments,
    simulate_stream,
    write_stream,
)

from oracles import bernoulli_bins_by_parts, text_stream_bytes, whole_segment_kernel

ZERO_MODEL = G2Model(visibility=0.59, phase=-0.16, frequency=210.1e9)
TAU_MODEL = G2Model(visibility=0.576, phase=-0.434, frequency=1.32e6, linewidth=0.118e6)


def basic_config(**overrides):
    defaults = dict(
        bin_width=1e-9,
        rate_a=2e6,
        rate_b=2e6,
        seed=12345,
        model=ZERO_MODEL,
        delay_schedule=((0.0, 2e-3),),
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


class TestStreamConfig:
    def test_rate_bin_product_guard(self):
        with pytest.raises(ValueError, match="rate \\* bin_width"):
            basic_config(rate_a=2e8)

    def test_non_integer_picosecond_bin_rejected(self):
        with pytest.raises(ValueError, match="picoseconds"):
            basic_config(bin_width=0.5e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_b"):
            basic_config(rate_b=-1.0)

    @pytest.mark.parametrize("name", ["rate_a", "rate_b", "dark_rate_a", "dark_rate_b"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, name, rate):
        # NaN passed `rate < 0`; inf was refused only as a rate * bin_width
        with pytest.raises(ValueError, match=f"^{name} must be >= 0 and finite, got {rate}$"):
            basic_config(**{name: rate})

    @pytest.mark.parametrize("schedule, message", [
        ((), "delay_schedule must contain at least one"),
        (((0.0, 1e-3), (1e-12, -1e-3)), "dwell must be >= 0, got -0.001"),
    ])
    def test_empty_schedule_or_negative_dwell_rejected(self, schedule, message):
        with pytest.raises(ValueError, match=message):
            basic_config(delay_schedule=schedule)

    @pytest.mark.parametrize("t_delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, t_delay):
        # the one finite-delay rule of elements._finite_delay, by its message
        with pytest.raises(ValueError, match=f"^t_delay must be finite, got {t_delay}$"):
            basic_config(delay_schedule=((0.0, 1e-3), (t_delay, 1e-3)))

    def test_duration_sums_schedule(self):
        cfg = basic_config(delay_schedule=((0.0, 1e-3), (1e-12, 3e-3)))
        assert cfg.duration_ps == 4_000_000_000

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            basic_config(seed=-1)

    def test_zero_linewidth_rejected(self):
        # the delay model is the fringe at linewidth 0, but the damped
        # sampler's kernel reaches 5 / linewidth
        with pytest.raises(ValueError, match="linewidth > 0"):
            basic_config(model=G2Model(visibility=0.576, phase=-0.434, frequency=1.32e6, linewidth=0.0))

    @pytest.mark.parametrize("linewidth", [1e-300, 5e-324, 1.0, 119.0])
    def test_kernel_too_wide_to_build_rejected(self, linewidth):
        # refused as a float reach, before any int or table; at 1e-300 Hz
        # the reach is inf, at 5e-324 Hz linewidth * bin_width underflows to 0
        with pytest.raises(ValueError, match="sampler kernel"):
            basic_config(bin_width=20e-9, model=replace(TAU_MODEL, linewidth=linewidth))

    def test_narrowest_accepted_kernel_stays_within_its_bound(self):
        linewidth = 5.0 / (streams._KERNEL_REACH_MAX * 20e-9)
        basic_config(bin_width=20e-9, model=replace(TAU_MODEL, linewidth=linewidth))
        assert math.ceil(streams._kernel_reach(linewidth, 20e-9)) <= streams._KERNEL_REACH_MAX
        with pytest.raises(ValueError, match="sampler kernel"):
            basic_config(bin_width=20e-9, model=replace(TAU_MODEL, linewidth=linewidth * (1 - 1e-9)))

    def test_silent_channels_allowed(self):
        # the config refuses a scan channel that never clicks; library callers may build one
        assert basic_config(rate_a=0.0, rate_b=0.0).rate_a == 0.0


class BoundedGeometric:
    """A generator's geometric draws, failing the test past a number of
    calls instead of looping for ever."""

    def __init__(self, rng: np.random.Generator, draws: int):
        self.rng, self.left = rng, draws

    def geometric(self, p, size):
        self.left -= 1
        assert self.left >= 0, "the draw does not end"
        return self.rng.geometric(p, size=size)


class UnitGaps:
    """Geometric draws whose gaps are all 1, whatever p, with the size of
    each call recorded."""

    def __init__(self):
        self.sizes = []

    def geometric(self, p, size):
        self.sizes.append(size)
        return np.ones(size, dtype=np.int64)


class TestBernoulliBins:
    @given(st.integers(0, 2**32), st.integers(1, 500), st.floats(1e-4, 0.5), st.sampled_from([1, 2, 7, 64]))
    def test_parts_in_one_buffer_match_the_joined_parts(self, seed, n_bins, p, chunk):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(streams, "_GAP_CHUNK", chunk):
            bins = _bernoulli_bins(rng, n_bins, p)
        expected = bernoulli_bins_by_parts(oracle_rng, n_bins, p, chunk)
        assert np.array_equal(bins, expected) and bins.dtype == expected.dtype
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(st.integers(0, 2**32), st.integers(1, 3000), st.floats(1e-4, 0.5),
           st.sampled_from([7, 64, _GAP_CHUNK]), st.sampled_from([1, 7, 64]))
    def test_any_piece_size_draws_the_same_bins_and_state(self, seed, n_bins, p, chunk, piece):
        # a part is one rng.geometric call in the oracle and pieces of at most
        # `piece` gaps here; the part that reaches past the segment is drawn
        # to its end, so the next draw starts at the same state
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(streams, "_GAP_CHUNK", chunk), mock.patch.object(streams, "_GAP_PIECE", piece):
            bins = _bernoulli_bins(rng, n_bins, p)
        expected = bernoulli_bins_by_parts(oracle_rng, n_bins, p, chunk)
        assert np.array_equal(bins, expected) and bins.dtype == expected.dtype
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("n_bins, dtype", [
        (1, np.int32), (2**30 - 1, np.int32),  # 2 * n_bins < 2^31
        (2**30, np.int64), (2**40, np.int64),
    ])
    def test_bins_are_int32_while_twice_the_bins_stay_below_2_31(self, n_bins, dtype):
        # about one click per 2^28 bins: a few gaps end the draw
        for p in (2.0**-28, 0.0):
            bins = _bernoulli_bins(BoundedGeometric(np.random.default_rng(6), draws=10), n_bins, p)
            assert bins.dtype == dtype
            assert bins.size == 0 or (bins[0] >= 0 and bins[-1] < n_bins)

    def test_draws_that_outrun_the_estimate_grow_the_buffer(self):
        # every bin clicks: 1000 bins against a buffer of the 41 clicks
        # (mean + 5 sd + 16) that p = 0.01 makes likely, grown several times
        gaps, oracle_gaps = UnitGaps(), UnitGaps()
        with mock.patch.object(streams, "_GAP_CHUNK", 7):
            bins = _bernoulli_bins(gaps, 1000, 0.01)
        assert np.array_equal(bins, bernoulli_bins_by_parts(oracle_gaps, 1000, 0.01, 7))
        assert np.array_equal(bins, np.arange(1000))
        assert gaps.sizes == oracle_gaps.sizes

    @given(st.integers(0, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, max(n - 1, 0)), max_size=n))))
    def test_complement_map_lists_the_free_bins(self, case):
        n, excluded = case
        a = np.array(sorted(excluded), dtype=np.int64)
        free = _complement_bins(a, np.arange(n - a.size))
        assert np.array_equal(free, np.setdiff1d(np.arange(n), a))

    @pytest.mark.parametrize("n_bins, p", [(1000, 0.0), (0, 0.3)])
    def test_empty_when_nothing_can_click(self, n_bins, p):
        assert _bernoulli_bins(np.random.default_rng(1), n_bins, p).size == 0

    @pytest.mark.parametrize("n_bins, p", [(40, 0.5), (3 * _GAP_CHUNK, 0.5), (10**9, 1e-4)])
    def test_sorted_in_range_and_count_within_5_sigma(self, n_bins, p):
        bins = _bernoulli_bins(np.random.default_rng(8), n_bins, p)
        assert np.all(np.diff(bins) > 0)
        assert bins.size == 0 or (bins[0] >= 0 and bins[-1] < n_bins)
        mean = n_bins * p
        assert abs(bins.size - mean) < 5.0 * math.sqrt(mean * (1.0 - p))

    # p = 2e-20 is a 1e-12 Hz dark rate in 20 ns bins; at 2^62 bins and more
    # one clipped gap is as much as the running sum can hold
    @given(st.integers(1, 10_000), st.floats(5e-324, 1e-3, allow_subnormal=True))
    @example(1, 5e-324)
    @example(25_000_000, 2e-20)
    @example(2**62, 1e-300)
    @example(2**63 - 1024, 5e-324)
    def test_tiny_probabilities_end_sorted_and_in_range(self, n_bins, p):
        bins = _bernoulli_bins(BoundedGeometric(np.random.default_rng(4), draws=10), n_bins, p)
        assert np.all(np.diff(bins) > 0)
        assert bins.size == 0 or (bins[0] >= 0 and bins[-1] < n_bins)


sorted_ints = st.lists(st.integers(0, 200), max_size=40).map(sorted)


# block sizes of one and three centers, and any size up to past the inputs
center_blocks = st.one_of(st.just(1), st.just(3), st.integers(1, 400))


# small values with repeats, or values near 2^62 that span past 2^31
rank_values = st.one_of(st.integers(-40, 40), st.integers(2**62 - 40, 2**62 + 40))


class TestMergeRanks:
    @given(st.lists(rank_values, max_size=40).map(sorted),
           st.lists(rank_values, min_size=1, max_size=40).map(sorted))
    @example([], [3])  # no positions
    @example([], [-5, 2**62])
    @example([5, 5, 5, 7, 7], [4, 5, 5, 7, 7, 8])  # keys tied with repeated positions
    @example([0, 1, 2], [-10, 10])  # keys past both ends
    @example([0, 1, 2, 2**62, 2**62 + 1], [-1, 1, 2**62, 2**62 + 2])  # an int64 span
    @example([2**31 - 2, 2**31 - 1], [0, 2**31 - 1])  # the widest int32 span
    @example([2**31 - 1, 2**31], [0, 2**31])  # the narrowest int64 span
    def test_ranks_equal_the_left_searchsorted(self, positions, keys):
        positions = np.array(positions, dtype=np.int64)
        keys = np.array(keys, dtype=np.int64)
        assert _merge_ranks(positions, keys).tolist() == np.searchsorted(positions, keys).tolist()

    @given(st.lists(st.integers(2**30 - 40, 2**30 + 40), max_size=40).map(sorted),
           st.lists(st.integers(2**30 - 50, 2**30 + 50), min_size=1, max_size=40).map(sorted))
    @example([2**31 - 2, 2**31 - 1], [0, 2**31 - 1])  # the widest int32 span
    # keys spanning 2^32 - 1 over int32 positions: an int64 buffer
    @example([-(2**31), -5, 0, 2**31 - 1], [-(2**31), 3, 2**31 - 1])
    def test_int32_positions_rank_as_int64(self, positions, keys):
        wide = np.array(positions, dtype=np.int64)
        keys = np.array(keys, dtype=np.int64)
        expected = np.searchsorted(wide, keys).tolist()
        assert _merge_ranks(wide.astype(np.int32), keys).tolist() == _merge_ranks(wide, keys).tolist() == expected


class TestWindowRanks:
    @given(sorted_ints, sorted_ints, st.integers(-20, 20), st.integers(0, 30), center_blocks)
    # windows of 2^15 + 1 and 2^15 - 1 positions in one block: the block
    # sorts int64 keys, since -(2^15 + 1) would wrap as an int16 and put the
    # smaller window first
    @example(list(range((1 << 15) + 1)), [0, 2], 0, 1 << 15, 3)
    # many positions for 2 centers, and many centers for 2 positions, at
    # blocks of one and three centers
    @example(list(range(3000)), [1000, 1003], -700, 1500, 1)
    @example(list(range(3000)), [1000, 1003], -700, 1500, 3)
    @example([50, 52], list(range(300)), -30, 40, 1)
    @example([50, 52], list(range(300)), -30, 40, 3)
    def test_ranks_list_each_window_in_position_order(self, positions, centers, lo, width, block):
        hi = lo + width
        expected = [[p - c - lo for p in positions if lo <= p - c <= hi] for c in centers]
        got = [[] for _ in centers]
        with mock.patch.object(streams, "_CENTER_BLOCK", block):
            ranks = _window_ranks(np.array(positions, dtype=np.int64),
                                  np.array(centers, dtype=np.int64), lo, hi)
            for base, order, passes in ranks:
                assert base % block == 0 and order.size == min(block, len(centers) - base)
                counts = [len(expected[base + i]) for i in order.tolist()]
                # most positions first; equal counts keep center order
                keys = [(-n, i) for n, i in zip(counts, order.tolist())]
                assert keys == sorted(keys)
                rows = [offsets.tolist() for offsets in passes]
                # pass k covers exactly the centers with more than k positions;
                # counted by numpy, since a window may take 2^15 passes
                covered = np.array(counts) > np.arange(max(counts))[:, None]
                assert [len(row) for row in rows] == covered.sum(axis=1).tolist()
                # pass k holds one offset for each of order[:len(row k)]
                for j, i in enumerate(order.tolist()):
                    got[base + i].extend(row[j] for row in rows if j < len(row))
        assert got == expected

    @given(st.lists(st.integers(2**30 - 200, 2**30 + 200), max_size=60).map(sorted),
           st.lists(st.integers(2**30 - 200, 2**30 + 200), max_size=60).map(sorted),
           st.integers(-20, 20), st.integers(0, 30), center_blocks)
    # a window bound center + hi + 1 of 2^31 - 1, the largest int32
    @example([2**31 - 3, 2**31 - 2], [2**31 - 40, 2**31 - 36], 0, 34, 1)
    def test_int32_inputs_yield_the_int64_passes(self, positions, centers, lo, width, block):
        with mock.patch.object(streams, "_CENTER_BLOCK", block):
            narrow = _window_ranks(np.array(positions, dtype=np.int32), np.array(centers, dtype=np.int32),
                                   lo, lo + width)
            wide = _window_ranks(np.array(positions, dtype=np.int64), np.array(centers, dtype=np.int64),
                                 lo, lo + width)
            for (base, order, passes), (wide_base, wide_order, wide_passes) in zip(narrow, wide, strict=True):
                assert base == wide_base and np.array_equal(order, wide_order)
                rows = list(passes)
                # offsets index as intp, with no cast per pass
                assert all(offsets.dtype == np.intp for offsets in rows)
                assert [r.tolist() for r in rows] == [r.tolist() for r in wide_passes]


# no clicks, or clicks at any rate the per-bin model allows
click_probs = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))
# reach = 20 bins, so a kernel window of 41 bins spans many blocks of 1 or 3
NARROW_MODEL = G2Model(visibility=0.576, phase=-0.434, frequency=3e7, linewidth=0.25e9)


class TestKernelBlocks:
    @given(st.integers(0, 2**32), st.integers(1, 4000), click_probs, click_probs, center_blocks)
    @example(7, 3000, 0.0, 0.05, 3)  # no A clicks: every kernel sum is 0
    @example(7, 5, 0.05, 1e-6, 1)  # no candidates
    @example(7, 4000, 0.1, 0.1, 1)  # one center per block
    @example(7, 3000, 0.05, 0.0, 3)  # p_b = 0: no candidates, no uniforms drawn
    def test_blocks_match_the_whole_segment_oracle(self, seed, n_bins, p_a, p_b, block):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(streams, "_CENTER_BLOCK", block):
            a_bins, b_bins = _segment_kernel(rng, n_bins, p_a, p_b, NARROW_MODEL, 1e-9)
        a_ref, b_ref = whole_segment_kernel(oracle_rng, n_bins, p_a, p_b, NARROW_MODEL, 1e-9)
        assert np.array_equal(a_bins, a_ref)
        assert np.array_equal(b_bins, b_ref) and b_bins.dtype == b_ref.dtype
        # the same draws were consumed, so the dark clicks drawn next match too
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSimulateMemory:
    def test_kernel_stream_peak_stays_near_its_output(self):
        # 2 s at the default fig3 bin, rates and kernel: about 0.6M records
        cfg = StreamConfig(bin_width=20e-9, rate_a=150e3, rate_b=150e3, seed=1, model=TAU_MODEL,
                           delay_schedule=((0.0, 2.0),))
        tracemalloc.start()
        try:
            stream = simulate_stream(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = stream.times_a.nbytes + stream.times_b.nbytes
        # The output is 8 bytes a click; the sampler's bins are int32, 4 bytes
        # a click.  Live at the peak, the copy of B on return: A (0.25x the
        # output), the candidates (drawn at 3 p_b, so 0.75x) with the accepted
        # B clicks compacted into their front, and that copy (0.25x): 1.25x,
        # as much as B's bins and both channels' times when the bins become
        # times.  Beyond it, the last block's scratch was measured at 41 B a
        # center (6.34 MB in all); inside the block loop, with no copy yet,
        # the peak was 1x plus 116 B a center.  The bound allows 96 B a
        # center, 0.45 MB of margin.  int64 A alone peaks near 1.5x the
        # output, int64 candidates near 2x and int64 bins near 2.5x.
        bound = 1.25 * output + 96 * streams._CENTER_BLOCK
        assert peak < bound, f"peak {peak / 1e6:.1f} MB for {output / 1e6:.1f} MB of output"

    def test_a_draw_of_many_parts_peaks_near_its_result(self):
        # about 20 parts of 2^12 gaps, each copied into one buffer of the
        # result as it is drawn: the draw holds that buffer and a part.  A
        # draw that joins its parts at the end holds the result twice
        n_bins, part = 20 * (1 << 13), 8 * (1 << 12)
        with mock.patch.object(streams, "_GAP_CHUNK", 1 << 12):
            bins = _bernoulli_bins(np.random.default_rng(3), n_bins, 0.5)
            peak = traced_peak(_bernoulli_bins, np.random.default_rng(3), n_bins, 0.5)
        assert peak - 2 * part < 1.1 * bins.nbytes, f"peak {peak / 1e6:.3f} MB for {bins.nbytes / 1e6:.3f} MB"

    def test_delay_scan_peak_does_not_grow_with_the_schedule(self):
        # 1 ms steps at 20 MHz per channel: about 40k records a step.  A scan
        # that counts each step as it is drawn holds one or two steps at a
        # time; one that holds the whole acquisition peaks near 4x at 40 steps
        def peak(steps):
            cfg = basic_config(rate_a=2e7, rate_b=2e7, seed=3,
                               delay_schedule=tuple((k * 1e-13, 1e-3) for k in range(steps)))
            tracemalloc.start()
            try:
                scan_delay(simulate_segments(cfg))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # first-call allocations are not the scan's
        short, long = peak(10), peak(40)
        assert long < 1.2 * short, f"peak {long / 1e6:.2f} MB at 40 steps, {short / 1e6:.2f} MB at 10"


class TestSimulateStream:
    def test_deterministic_for_seed(self):
        cfg = basic_config()
        s1 = simulate_stream(cfg)
        s2 = simulate_stream(cfg)
        assert s1 == s2

    def test_different_seeds_differ(self):
        s1 = simulate_stream(basic_config(seed=1))
        s2 = simulate_stream(basic_config(seed=2))
        assert s1 != s2

    def test_zero_duration_empty(self):
        cfg = basic_config(delay_schedule=((0.0, 0.0),))
        stream = simulate_stream(cfg)
        assert len(stream) == 0

    def test_singles_counts_within_5_sigma(self):
        cfg = basic_config()
        stream = simulate_stream(cfg)
        expected = cfg.rate_a * cfg.duration_ps / PS_PER_SECOND
        for n in (stream.times_a.size, stream.times_b.size):
            assert abs(n - expected) < 5.0 * math.sqrt(expected)

    def test_timestamps_sorted_and_in_range(self):
        stream = simulate_stream(basic_config())
        for ch in (CHANNEL_A, CHANNEL_B):
            t = stream.channel_times(ch)
            assert t.max() < stream.meta.duration_ps
            assert t.min() >= 0
            assert np.all(np.diff(t) > 0)

    def test_uncorrelated_coincidence_rate(self):
        # visibility 0: joint rate = p_a * p_b per bin within 5 sigma
        cfg = basic_config(model=G2Model(visibility=0.0, phase=0.0, frequency=210.1e9),
                           rate_a=5e6, rate_b=5e6, delay_schedule=((0.0, 4e-3),))
        stream = simulate_stream(cfg)
        bw = cfg.bin_width_ps
        a = np.unique(stream.channel_times(CHANNEL_A) // bw)
        b = np.unique(stream.channel_times(CHANNEL_B) // bw)
        observed = np.intersect1d(a, b, assume_unique=True).size
        n_bins = cfg.duration_ps // bw
        expected = n_bins * (cfg.rate_a * cfg.bin_width) * (cfg.rate_b * cfg.bin_width)
        assert abs(observed - expected) < 5.0 * math.sqrt(expected)

    def test_fringe_injected_at_scheduled_delays(self):
        # chi2 per dof of empirical g2 against the model across a schedule
        model = ZERO_MODEL
        period = 1.0 / model.frequency
        schedule = tuple((k * period / 8.0, 4e-3) for k in range(12))
        cfg = basic_config(rate_a=8e6, rate_b=8e6, delay_schedule=schedule, seed=77)
        stream = simulate_stream(cfg)
        bw = cfg.bin_width_ps
        chi2 = 0.0
        from chromatic_hbt.protocol import g2_zero_model

        for t_delay, sub in stream.split_segments():
            a = np.unique(sub.channel_times(CHANNEL_A) // bw)
            b = np.unique(sub.channel_times(CHANNEL_B) // bw)
            n_c = np.intersect1d(a, b, assume_unique=True).size
            n_bins = sub.meta.duration_ps // bw
            g2 = n_c * n_bins / (a.size * b.size)
            sigma = g2 / math.sqrt(n_c)
            chi2 += ((g2 - g2_zero_model(model, t_delay)) / sigma) ** 2
        assert chi2 / len(schedule) < 2.0

    def test_kernel_model_injects_oscillating_correlation(self):
        cfg = StreamConfig(
            bin_width=20e-9, rate_a=1.5e5, rate_b=1.5e5, seed=99,
            model=TAU_MODEL, delay_schedule=((0.0, 4.0),),
        )
        stream = simulate_stream(cfg)
        bw = cfg.bin_width_ps
        a = np.unique(stream.channel_times(CHANNEL_A) // bw)
        b = np.unique(stream.channel_times(CHANNEL_B) // bw)
        n_bins = cfg.duration_ps // bw
        from chromatic_hbt.protocol import g2_tau_model

        chi2 = 0.0
        n_points = 0
        for tau_s in (0.0, 0.3e-6, -0.3e-6, 2.0e-6, 8.0e-6, 40e-6):
            shift_bins = round(tau_s / cfg.bin_width)
            n_c = np.intersect1d(a, b + shift_bins, assume_unique=True).size
            g2 = n_c * n_bins / (a.size * b.size)
            sigma = g2 / math.sqrt(max(n_c, 1))
            chi2 += ((g2 - g2_tau_model(TAU_MODEL, tau_s)) / sigma) ** 2
            n_points += 1
        assert chi2 / n_points < 2.0

    def test_dark_counts_increase_singles_not_coincidences(self):
        quiet = basic_config(seed=5)
        noisy = basic_config(seed=5, dark_rate_a=2e6, dark_rate_b=2e6)
        s_quiet = simulate_stream(quiet)
        s_noisy = simulate_stream(noisy)
        for name in ("times_a", "times_b"):
            assert getattr(s_noisy, name).size > getattr(s_quiet, name).size * 1.7

    def test_b_without_signal_holds_only_its_dark_clicks(self):
        # rate_b = 0: the same-bin sampler gives B no clicks, so B's dark
        # clicks are all it holds, at their rate and uncorrelated with A,
        # where ZERO_MODEL would put g2(0) near 1.29
        cfg = basic_config(rate_a=2e7, rate_b=0.0, dark_rate_b=2e7)
        stream = simulate_stream(cfg)
        n_bins = cfg.duration_ps // 1000
        a = np.unique(stream.channel_times(CHANNEL_A) // 1000)
        b = np.unique(stream.channel_times(CHANNEL_B) // 1000)
        expected_b = n_bins * 0.02
        assert abs(b.size - expected_b) < 5.0 * math.sqrt(expected_b)
        g2 = np.intersect1d(a, b, assume_unique=True).size * n_bins / (a.size * b.size)
        assert abs(g2 - 1.0) < 5.0 * g2 / math.sqrt(a.size * b.size / n_bins)

    def test_segment_bookkeeping(self):
        cfg = basic_config(delay_schedule=((0.0, 1e-3), (2e-12, 1e-3)))
        stream = simulate_stream(cfg)
        parts = stream.split_segments()
        assert len(parts) == 2
        assert parts[0][0] == 0.0
        assert parts[1][0] == 2e-12
        total = sum(len(sub) for _, sub in parts)
        assert total == len(stream)


@st.composite
def schedules(draw):
    """1 to 6 (delay, dwell) steps of 0 to 3000 bins of 1 ns."""
    steps = st.tuples(st.floats(-1e-11, 1e-11), st.integers(0, 3000).map(lambda n: n * 1e-9))
    return tuple(draw(st.lists(steps, min_size=1, max_size=6)))


class TestSimulateSegments:
    @given(schedules(), st.integers(0, 2**32), st.sampled_from([0.0, 3e6]), st.sampled_from([0.0, 1e6]),
           st.sampled_from([None, ZERO_MODEL, NARROW_MODEL]))
    def test_segments_match_the_split_stream(self, schedule, seed, dark_a, dark_b, model):
        cfg = basic_config(rate_a=2e7, rate_b=2e7, seed=seed, model=model, delay_schedule=schedule,
                           dark_rate_a=dark_a, dark_rate_b=dark_b)
        got = list(simulate_segments(cfg))
        expected = simulate_stream(cfg).split_segments()
        assert len(got) == len(expected) == len(schedule)
        for (t_delay, sub), (t_ref, ref) in zip(got, expected):
            assert t_delay == t_ref
            assert sub.meta == ref.meta
            assert np.array_equal(sub.times_a, ref.times_a) and sub.times_a.dtype == np.int64
            assert np.array_equal(sub.times_b, ref.times_b) and sub.times_b.dtype == np.int64

    def test_zero_dwell_step_of_a_damped_schedule(self):
        # a step of no bins draws no clicks, and each step draws from its own
        # child seed: the steps around it are those of a middle step that dwells
        def steps(middle_dwell):
            schedule = ((0.0, 2e-6), (1e-12, middle_dwell), (2e-12, 3e-6))
            cfg = basic_config(rate_a=2e7, rate_b=2e7, model=NARROW_MODEL, delay_schedule=schedule,
                               dark_rate_a=3e6, dark_rate_b=1e6)
            return list(simulate_segments(cfg))

        empty, dwelling = steps(0.0), steps(1e-6)
        t_delay, middle = empty[1]
        assert t_delay == 1e-12
        assert middle.meta == StreamMeta(bin_width_ps=1000, duration_ps=0, seed=12345)
        for times in (middle.times_a, middle.times_b):
            assert times.size == 0 and times.dtype == np.int64
        for (t_got, got), (t_ref, ref) in zip(empty[::2], dwelling[::2]):
            assert t_got == t_ref and got.meta == ref.meta
            assert got.times_a.tobytes() == ref.times_a.tobytes() and got.times_a.size > 0
            assert got.times_b.tobytes() == ref.times_b.tobytes() and got.times_b.size > 0


@st.composite
def valid_streams(draw):
    """Any valid stream: channels may be empty, repeat a time or share one."""
    bin_width = draw(st.integers(1, 1000))
    duration = bin_width * draw(st.integers(1, 50))
    clicks = st.lists(st.integers(0, duration - 1), max_size=30).map(sorted)
    meta = StreamMeta(bin_width_ps=bin_width, duration_ps=duration, seed=draw(st.integers(0, 2**64 - 1)))
    return TdcStream(times_a=draw(clicks), times_b=draw(clicks), meta=meta)


@st.composite
def wide_streams(draw):
    """Streams on a 1 ps grid whose times take any of the 1 to 19 digits of
    the int64 picosecond clock."""
    clicks = st.lists(st.integers(0, 2**63 - 2), max_size=20).map(sorted)
    meta = StreamMeta(bin_width_ps=1, duration_ps=2**63 - 1, seed=draw(st.integers(0, 2**64 - 1)))
    return TdcStream(times_a=draw(clicks), times_b=draw(clicks), meta=meta)


# time 0 and the first and last time of every digit count
EVERY_WIDTH = TdcStream(
    times_a=[0] + [10**k - 1 for k in range(1, 19)] + [2**63 - 2],
    times_b=[10**k for k in range(19)],
    meta=StreamMeta(bin_width_ps=1, duration_ps=2**63 - 1, seed=7),
)


def text_records(path):
    lines = path.read_text().splitlines()
    return [(int(t), letter) for letter, t in (line.split() for line in lines if not line.startswith("#"))]


TEXT_HEADER = "#binwidth_ps=1000\n#duration_ps=5000\n#seed=1\n"
BINARY_HEADER = BINARY_MAGIC + np.array([1000, 5000, 1], dtype="<i8").tobytes()
RECORD = [("ch", "u1"), ("t", "<u8")]
binary_records = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=8)
stream_file_bytes = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda raw: BINARY_MAGIC + raw),
    st.text("AB#=_+- 0123456789\r\n", max_size=200).map(lambda s: (TEXT_HEADER + s).encode()),
    binary_records.map(lambda recs: BINARY_HEADER + np.array(recs, dtype=RECORD).tobytes()),
)


CANONICAL = TEXT_HEADER + "A 0\nB 7\nA 1000\nB 1000\nA 4999\n"
CANONICAL_STREAM = TdcStream(times_a=[0, 1000, 4999], times_b=[7, 1000], meta=StreamMeta(1000, 5000, 1))
# the writer's form: the header lines, then records of 1 to 19 digits
WRITTEN_FORM = re.compile(rb"(?:#[^\n]*\n)*((?:[AB] [0-9]{1,19}\n)*)")


class TestTextFormat:
    @given(st.one_of(valid_streams(), wide_streams()), st.integers(1, 8))
    @example(EVERY_WIDTH, 5)
    def test_writer_bytes_match_string_formatting(self, tmp_path_factory, stream, block):
        path = tmp_path_factory.getbasetemp() / "oracle.txt"
        with mock.patch.object(streams, "_BLOCK", block):
            write_stream(stream, path)
        assert path.read_bytes() == text_stream_bytes(stream)

    @given(st.one_of(valid_streams(), wide_streams()))
    @example(EVERY_WIDTH)
    def test_written_files_round_trip(self, tmp_path_factory, stream):
        path = tmp_path_factory.getbasetemp() / "written"
        for binary in (False, True):
            write_stream(stream, path, binary=binary)
            assert read_stream(path) == stream

    @given(stream_file_bytes)
    def test_accepted_files_hold_only_records_after_the_headers(self, tmp_path_factory, raw):
        assume(not raw.startswith(BINARY_MAGIC))
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(raw)
        try:
            stream = read_stream(path)
        except StreamFormatError:
            return
        form = WRITTEN_FORM.fullmatch(raw)
        assert form is not None, raw
        records = [line.split(b" ") for line in form[1].splitlines()]
        assert stream.times_a.tolist() == [int(t) for letter, t in records if letter == b"A"]
        assert stream.times_b.tolist() == [int(t) for letter, t in records if letter == b"B"]

    @pytest.mark.parametrize("text", [
        CANONICAL,
        CANONICAL.replace("B 7", "B 007"),  # leading zeros
        CANONICAL.replace("B 7", "B 0000000000000000007"),  # 19 digits
    ])
    def test_canonical_files_are_read(self, tmp_path, text):
        path = tmp_path / "canonical.txt"
        path.write_bytes(text.encode())
        assert read_stream(path) == CANONICAL_STREAM

    # lines 1-3 are the headers, 4-8 the records "A 0" .. "A 4999"
    @pytest.mark.parametrize("text, problem", [
        pytest.param(CANONICAL.replace("\n", "\r\n"), "line 1: bad header", id="crlf"),
        pytest.param(CANONICAL.replace("B 7\n", "B 7\n\n"), "line 6: malformed record", id="blank-line"),
        pytest.param(CANONICAL.replace("B 7\n", "B 7\n#seed=9\n"), "line 6: malformed record",
                     id="header-among-records"),
        pytest.param(CANONICAL.replace("B 7", "B +7"), "line 5: malformed record", id="plus-sign"),
        pytest.param(CANONICAL.replace("A 1000", "A 1_000"), "line 6: malformed record", id="underscore"),
        pytest.param(CANONICAL.replace("A 4999", "A 5000"), "line 8: time 5000 ps is past the duration",
                     id="time-at-duration"),
        pytest.param(CANONICAL.replace("A 4999", "A 1000000000000000000"),
                     "line 8: time 1000000000000000000 ps is past the duration", id="19-digits-past-duration"),
        pytest.param(CANONICAL.replace("A 4999", "A 9999999999999999999"),
                     "line 8: time 9999999999999999999 ps is past the duration", id="19-digits-past-int64"),
        pytest.param(CANONICAL.replace("A 4999", "A 10000000000000000000"), "line 8: malformed record", id="20-digits"),
        pytest.param(CANONICAL.replace("B 7", "B -7"), "line 5: malformed record", id="minus-sign"),
        pytest.param(CANONICAL.replace("B 7", "B\t7"), "line 5: malformed record", id="tab"),
        pytest.param(CANONICAL.replace("B 7", "C 7"), "line 5: malformed record", id="channel-C"),
        pytest.param(CANONICAL.replace("A 1000", "A 1000 5"), "line 6: malformed record", id="third-field"),
        pytest.param(CANONICAL.replace("A 1000", "A 100é"), "line 6: malformed record", id="non-ascii"),
        pytest.param(CANONICAL.replace("#seed=1\n", "#seed=1\r#seed=2\n"), "line 3: bad header",
                     id="header-broken-at-cr"),
        pytest.param(CANONICAL.replace("#seed=1", "#seed=x"), "line 3: bad header", id="bad-header"),
        # a header is '#<key>=<digits>\n' for each of the writer's three keys, once
        pytest.param(CANONICAL.replace("=1000", "=+1000"), "line 1: bad header b'#binwidth_ps=+1000\\n'",
                     id="header-sign"),
        pytest.param(CANONICAL.replace("=1000", "= 1000 "), "line 1: bad header", id="header-spaces"),
        pytest.param(CANONICAL.replace("=1000", "=1_000"), "line 1: bad header", id="header-underscore"),
        pytest.param(CANONICAL.replace("#seed=1\n", "#seed=1\n#seed=2\n"), "line 4: bad header b'#seed=2\\n'",
                     id="header-repeated"),
        pytest.param(CANONICAL.replace("#seed=1\n", "#gain=5\n#seed=1\n"), "line 3: bad header b'#gain=5\\n'",
                     id="header-unknown"),
        pytest.param(CANONICAL.replace("#seed=1\n", ""), "missing required header #seed=", id="missing-header"),
        pytest.param(CANONICAL[:-1], "line 8: malformed record b'A 4999'", id="no-last-newline"),
        pytest.param(TEXT_HEADER[:-1], "line 3: bad header b'#seed=1'", id="header-without-newline"),
        # the search for the bad line matches the records thousands at a time
        pytest.param(TEXT_HEADER + "A 1\n" * 10_000 + "A x\n", "line 10004: malformed record",
                     id="10000-records-first"),
    ])
    def test_other_files_are_refused_at_their_first_bad_line(self, tmp_path, text, problem):
        path = tmp_path / "mutated.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(StreamFormatError, match=f"mutated.txt: {re.escape(problem)}"):
            read_stream(path)

    def test_a_header_line_is_read_no_further_than_its_quote(self, tmp_path):
        # '#' and 1 MB with no newline
        path = tmp_path / "long.txt"
        path.write_bytes(b"#" + b"9" * (1 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(StreamFormatError, match="long.txt: line 1: bad header b'#999") as refused:
                read_stream(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(refused.value).encode()) < 200
        assert peak < path.stat().st_size / 16, f"peak {peak / 1e6:.2f} MB for a 1 MB header line"


class TestTdcStreamEquality:
    def test_equal_streams_compare_equal(self):
        meta = StreamMeta(10, 50, 3)
        one = TdcStream(times_a=[0, 20], times_b=[20, 40], meta=meta)
        assert one == TdcStream(times_a=np.array([0, 20]), times_b=[20, 40], meta=StreamMeta(10, 50, 3))
        assert not one != TdcStream(times_a=[0, 20], times_b=[20, 40], meta=meta)

    @pytest.mark.parametrize("change", [
        dict(meta=StreamMeta(10, 50, 4)),
        dict(meta=StreamMeta(5, 50, 3)),
        dict(times_a=[0, 30]),
        dict(times_a=[0]),
        dict(times_b=[20, 30]),
        dict(times_b=[]),
    ])
    def test_any_difference_compares_unequal(self, change):
        fields = dict(times_a=[0, 20], times_b=[20, 40], meta=StreamMeta(10, 50, 3))
        one = TdcStream(**fields)
        other = TdcStream(**{**fields, **change})
        assert one != other
        assert not one == other

    def test_other_types_unequal_and_unhashable(self):
        stream = TdcStream(times_a=[0], times_b=[0], meta=StreamMeta(10, 50, 3))
        assert stream != (stream.times_a, stream.times_b)
        with pytest.raises(TypeError):
            hash(stream)


class TestTdcStreamRefusals:
    @pytest.mark.parametrize("times_a, times_b, message", [
        ([-1, 0], [], r"channel A timestamp -1 is not in \[0, 50\)"),
        ([0], [10, 50], r"channel B timestamp 50 is not in \[0, 50\)"),
    ])
    def test_time_outside_the_duration_rejected(self, times_a, times_b, message):
        with pytest.raises(ValueError, match=message):
            TdcStream(times_a=times_a, times_b=times_b, meta=StreamMeta(10, 50, 3))

    def test_split_without_segments_rejected(self):
        stream = TdcStream(times_a=[0], times_b=[10], meta=StreamMeta(10, 50, 3))
        with pytest.raises(ValueError, match="no segment bookkeeping"):
            stream.split_segments()


class TestStreamIO:
    @given(valid_streams())
    # an empty channel, a repeat within a channel, a time on both channels,
    # clicks in the first and the last bin
    @example(TdcStream(times_a=[], times_b=[0, 40, 40, 49], meta=StreamMeta(10, 50, 2**64 - 1)))
    @example(TdcStream(times_a=[0, 20, 20, 40], times_b=[20, 40, 40], meta=StreamMeta(10, 50, 0)))
    @example(TdcStream(times_a=[], times_b=[], meta=StreamMeta(1, 1, 3)))
    def test_round_trip_any_valid_stream(self, tmp_path_factory, stream):
        base = tmp_path_factory.getbasetemp()
        for name, binary in (("rt.txt", False), ("rt.tdc", True)):
            one, two = base / f"one_{name}", base / f"two_{name}"
            write_stream(stream, one, binary=binary)
            back = read_stream(one)
            assert back == stream
            write_stream(back, two, binary=binary)
            assert one.read_bytes() == two.read_bytes()
        records = text_records(base / "one_rt.txt")
        assert records == sorted(records)  # by time, A ahead of B on equal times

    @given(stream_file_bytes)
    def test_reader_raises_only_format_errors(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz"
        path.write_bytes(raw)
        try:
            stream = read_stream(path)
        except StreamFormatError:
            return
        assert isinstance(stream, TdcStream)

    def test_text_round_trip(self, tmp_path):
        stream = simulate_stream(basic_config(delay_schedule=((0.0, 2e-4),)))
        path = tmp_path / "clicks.txt"
        write_stream(stream, path)
        back = read_stream(path)
        assert back == stream

    def test_binary_round_trip(self, tmp_path):
        stream = simulate_stream(basic_config(delay_schedule=((0.0, 2e-4),)))
        path = tmp_path / "clicks.tdc"
        write_stream(stream, path, binary=True)
        back = read_stream(path)
        assert back == stream

    def test_binary_header_is_little_endian_on_every_host(self, tmp_path):
        # a seed above 2^63 checks that the last field is unsigned
        meta = StreamMeta(bin_width_ps=20_000, duration_ps=3 * 2**40, seed=2**63 + 7)
        stream = TdcStream(times_a=np.array([0]), times_b=np.array([20_000]), meta=meta)
        path = tmp_path / "clicks.tdc"
        write_stream(stream, path, binary=True)
        expected = struct.pack("<4sqqQ", b"TDC1", meta.bin_width_ps, meta.duration_ps, meta.seed)
        assert path.read_bytes()[: len(expected)] == expected
        assert read_stream(path) == stream

    def test_write_read_write_is_byte_identical(self, tmp_path):
        stream = simulate_stream(basic_config(delay_schedule=((0.0, 1e-4),)))
        p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
        write_stream(stream, p1)
        write_stream(read_stream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_stream_header_only(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("#binwidth_ps=1000\n#duration_ps=0\n#seed=1\n")
        stream = read_stream(path)
        assert len(stream) == 0
        assert stream.meta == StreamMeta(bin_width_ps=1000, duration_ps=0, seed=1)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#binwidth_ps=1000\n#duration_ps=10000\n#seed=1\nA 100\nC 200\n")
        with pytest.raises(StreamFormatError, match="line 5"):
            read_stream(path)

    @pytest.mark.parametrize("records, duration, problem", [
        ("A -5\n", 10000, "line 4: malformed record"),
        ("A 9000\n", 5000, "line 4: time 9000 ps is past the duration"),
        ("A 3000\nA 1000\n", 10000, "channel A timestamps are not sorted: 1000 after 3000"),
    ])
    def test_bad_record_content_names_file(self, tmp_path, records, duration, problem):
        path = tmp_path / "content.txt"
        path.write_text(f"#binwidth_ps=1000\n#duration_ps={duration}\n#seed=1\n{records}")
        with pytest.raises(StreamFormatError, match=f"content.txt: {problem}"):
            read_stream(path)

    def test_binary_time_past_int64_names_record(self, tmp_path):
        path = tmp_path / "late.tdc"
        records = np.array([(0, 100), (1, 2**63 + 5)], dtype=RECORD)
        path.write_bytes(BINARY_HEADER + records.tobytes())
        with pytest.raises(StreamFormatError, match=f"late.tdc: record 1: time {2**63 + 5} ps"):
            read_stream(path)

    def test_bad_timestamp_names_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("#binwidth_ps=1000\n#duration_ps=10000\n#seed=1\nA xyz\n")
        with pytest.raises(StreamFormatError, match="line 4"):
            read_stream(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("A 100\n")
        with pytest.raises(StreamFormatError, match="missing required header"):
            read_stream(path)

    def test_negative_seed_header_rejected(self, tmp_path):
        path = tmp_path / "badseed.txt"
        path.write_text("#binwidth_ps=1000\n#duration_ps=10000\n#seed=-5\n")
        with pytest.raises(StreamFormatError, match="seed"):
            read_stream(path)

    def test_nonsense_binwidth_header_rejected(self, tmp_path):
        path = tmp_path / "badbw.txt"
        path.write_text("#binwidth_ps=0\n#duration_ps=10000\n#seed=5\n")
        with pytest.raises(StreamFormatError, match="invalid header"):
            read_stream(path)

    @pytest.mark.parametrize("name, header, problem", [
        ("zero_bin.tdc", BINARY_MAGIC + np.array([0, 5000, 1], dtype="<i8").tobytes(), "bin width 0 ps"),
        ("negative.tdc", BINARY_MAGIC + np.array([1000, -5000, 1], dtype="<i8").tobytes(), "duration -5000 ps"),
        ("big_seed.txt", f"#binwidth_ps=1000\n#duration_ps=5000\n#seed={2**64}\n".encode(), f"seed {2**64}"),
        # a bin width the binary header's int64 field cannot hold
        ("big_bin.txt", f"#binwidth_ps={2**63}\n#duration_ps=5000\n#seed=1\n".encode(), f"bin width {2**63} ps"),
    ], ids=["binary-bin-width-0", "binary-negative-duration", "text-seed-2^64", "text-bin-width-2^63"])
    def test_header_out_of_range_names_file(self, tmp_path, name, header, problem):
        # each file also holds a record, past the negative duration in one case: the header is refused first
        record = b"A 100\n" if name.endswith(".txt") else np.array([(0, 100)], dtype=RECORD).tobytes()
        path = tmp_path / name
        path.write_bytes(header + record)
        with pytest.raises(StreamFormatError, match=f"{name}: invalid header \\({problem}"):
            read_stream(path)

    def test_truncated_binary_names_offset(self, tmp_path):
        stream = simulate_stream(basic_config(delay_schedule=((0.0, 1e-4),)))
        path = tmp_path / "trunc.tdc"
        write_stream(stream, path, binary=True)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(StreamFormatError, match="byte offset"):
            read_stream(path)


# from blocks of one record, where each block holds one time's records, to a few records
FILE_BLOCKS = [1, 2, 3, 7]
# every time on both channels, a time that A repeats for more than half a
# block of 7, and runs of equal times on either side of every cut
TIED = TdcStream(times_a=[0, 3, 3, 3, 3, 3, 3, 3, 3, 5, 9, 9], times_b=[0, 1, 3, 5, 5, 9, 9],
                 meta=StreamMeta(1, 10, 4))


def refusal(path):
    with pytest.raises(StreamFormatError) as info:
        read_stream(path)
    return str(info.value)


def refused_at_every_block(path, problem):
    """The reader refuses path with `problem` at the default block and at every FILE_BLOCKS size."""
    assert refusal(path) == f"{path}: {problem}"
    for block in FILE_BLOCKS:
        with mock.patch.object(streams, "_BLOCK", block):
            assert refusal(path) == f"{path}: {problem}", block


LONG_HEADER = "#binwidth_ps=1\n#duration_ps=1000000\n#seed=1\n"
# lines 4 to 43, the records 'A 0', 'B 10', 'A 20', ...
LONG_RECORDS = ["AB"[k % 2] + f" {10 * k}\n" for k in range(40)]
LONG_BINARY_HEADER = BINARY_MAGIC + np.array([1, 1_000_000, 1], dtype="<i8").tobytes()
LONG_BINARY = np.array([(k % 2, 10 * k) for k in range(40)], dtype=RECORD)


def long_text(changes: dict[int, str]) -> bytes:
    """The long text file with the records of the given indices replaced by the given lines."""
    records = list(LONG_RECORDS)
    for index, line in changes.items():
        records[index] = line
    return (LONG_HEADER + "".join(records)).encode()


def long_binary(changes: dict[int, tuple[int, int]]) -> bytes:
    """The long binary file with the records of the given indices replaced by (channel, time)."""
    records = LONG_BINARY.copy()
    for index, record in changes.items():
        records[index] = record
    return LONG_BINARY_HEADER + records.tobytes()


class TestFileBlocks:
    @given(st.one_of(valid_streams(), wide_streams()), st.sampled_from(FILE_BLOCKS))
    @example(TIED, 1)
    @example(TIED, 2)
    @example(TIED, 3)
    @example(TIED, 7)
    def test_any_block_writes_and_reads_the_same_files(self, tmp_path_factory, stream, block):
        base = tmp_path_factory.getbasetemp()
        whole, cut = base / "whole", base / "cut"
        with mock.patch.object(streams, "_BLOCK", block):
            blocks = list(streams._record_blocks(stream))
            # at most a block of records, or the records of one time
            assert all(times.size <= block or times[0] == times[-1] for _, times in blocks)
            for binary in (False, True):
                write_stream(stream, cut, binary=binary)
                assert read_stream(cut) == stream
                with mock.patch.object(streams, "_BLOCK", 1 << 14):
                    write_stream(stream, whole, binary=binary)
                assert cut.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("name, raw, problem", [
        ("text", long_text({30: "A 3x0\n"}), "line 34: malformed record b'A 3x0\\n'"),
        ("text", long_text({39: "B 390"}), "line 43: malformed record b'B 390'"),
        ("text", long_text({33: "B 2000000\n"}), "line 37: time 2000000 ps is past the duration"),
        # a malformed line is refused before a time past the duration on an earlier line
        ("text", long_text({2: "A 2000000\n", 36: "A -360\n"}), "line 40: malformed record b'A -360\\n'"),
        ("text", long_text({38: "A 350\n"}), "channel A timestamps are not sorted: 350 after 360"),
        ("text", (LONG_HEADER + "".join(LONG_RECORDS[:20]) + "A " + "1" * 60 + "\n").encode(),
         f"line 24: malformed record b'A {'1' * 38}'"),
        ("binary", long_binary({30: (2, 300)}), "record 30: invalid channel 2"),
        ("binary", long_binary({33: (1, 2**63 + 5)}), f"record 33: time {2**63 + 5} ps is past the duration"),
        # an invalid channel is refused before an earlier time past the duration,
        # and a truncated record before both
        ("binary", long_binary({2: (0, 2_000_000), 36: (3, 360)}), "record 36: invalid channel 3"),
        ("binary", long_binary({30: (2, 300)})[:-4], f"truncated record at byte offset {28 + 39 * 9}"),
        ("binary", long_binary({38: (0, 350)}), "channel A timestamps are not sorted: 350 after 360"),
    ], ids=["text-bad-line", "text-no-last-newline", "text-late", "text-bad-line-after-late", "text-unsorted",
            "text-long-line", "binary-channel", "binary-late", "binary-channel-after-late", "binary-truncated",
            "binary-unsorted"])
    def test_an_error_in_a_later_block_is_named_as_in_one_block(self, tmp_path, name, raw, problem):
        path = tmp_path / f"late_error.{name}"
        path.write_bytes(raw)
        assert refusal(path) == f"{path}: {problem}"
        for block in FILE_BLOCKS:
            with mock.patch.object(streams, "_BLOCK", block):
                assert refusal(path) == f"{path}: {problem}", block

    @given(valid_streams().filter(len), st.data())
    def test_record_k_is_named_line_k_plus_4_and_record_k(self, tmp_path_factory, stream, data):
        k = data.draw(st.integers(0, len(stream) - 1), label="k")
        late = data.draw(st.integers(stream.meta.duration_ps, 10**19 - 1), label="late")
        bad_line = data.draw(st.sampled_from([b"C 0\n", b"A x\n", b"\n"]), label="bad_line")
        path = tmp_path_factory.getbasetemp() / "named"
        write_stream(stream, path)
        lines = path.read_bytes().splitlines(keepends=True)
        write_stream(stream, path, binary=True)
        raw = path.read_bytes()
        header, records = raw[: len(BINARY_HEADER)], np.frombuffer(raw, dtype=RECORD, offset=len(BINARY_HEADER))
        cases = []
        # the three header lines come first, so record k is line k + 4
        for line, problem in ((lines[k + 3][:2] + b"%d\n" % late, f"time {late} ps is past the duration"),
                              (bad_line, f"malformed record {bad_line!r}")):
            cases.append((b"".join(lines[: k + 3] + [line] + lines[k + 4 :]), f"line {k + 4}: {problem}"))
        for record, problem in (((records[k]["ch"], late), f"time {late} ps is past the duration"),
                                ((2, records[k]["t"]), "invalid channel 2")):
            changed = records.copy()
            changed[k] = record
            cases.append((header + changed.tobytes(), f"record {k}: {problem}"))
        for content, problem in cases:
            path.write_bytes(content)
            refused_at_every_block(path, problem)

    @given(valid_streams().filter(len), st.integers(0, 29), st.one_of(
        st.from_regex(r"[ABC\t ]{0,3}[0-9x+-]{0,21}", fullmatch=True),
        st.text("AB 0123456789C-+\t\ré", max_size=60),
    ), st.booleans())
    # a line longer than the 40-byte buffer of every FILE_BLOCKS size; a last line with no newline
    @example(TIED, 3, "A " + "1" * 100, True)
    @example(TIED, len(TIED) - 1, "B 9", False)
    @example(TIED, 5, "A ", True)
    def test_the_first_line_out_of_form_is_named_and_quoted(self, tmp_path_factory, stream, index, text, newline):
        path = tmp_path_factory.getbasetemp() / "located.txt"
        write_stream(stream, path)
        lines = path.read_bytes().splitlines(keepends=True)
        k = 4 + index % len(stream)  # a record line; lines 1-3 are the headers
        line = text.encode() + (b"\n" if newline or k < len(lines) else b"")
        path.write_bytes(b"".join(lines[: k - 1] + [line] + lines[k:]))
        assume(WRITTEN_FORM.fullmatch(path.read_bytes()) is None)
        refused_at_every_block(path, f"line {k}: malformed record {line[:40]!r}")


def spread_stream(n: int) -> TdcStream:
    """n records of 1 to 9 digits, split at random between the channels."""
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.integers(1, 1000, n))
    is_a = rng.random(n) < 0.5
    return TdcStream(times_a=times[is_a], times_b=times[~is_a], meta=StreamMeta(1, int(times[-1]) + 1, 5))


def traced_peak(call, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFileMemory:
    @pytest.mark.parametrize("binary", [False, True])
    def test_writer_peak_does_not_grow_with_the_stream(self, tmp_path, binary):
        # a writer that interleaves the whole stream at once holds about 25
        # bytes a record: its peak rose by 11-12 MB from 2^16 to 2^19 records
        path = tmp_path / "written"
        short, long = spread_stream(1 << 16), spread_stream(1 << 19)
        write_stream(short, path, binary=binary)  # first-call allocations are not the writer's
        peaks = [traced_peak(write_stream, stream, path, binary=binary) for stream in (short, long)]
        assert peaks[1] - peaks[0] < 1e6, f"peaks {peaks[0] / 1e6:.2f} and {peaks[1] / 1e6:.2f} MB"

    @pytest.mark.parametrize("binary", [False, True])
    def test_reader_peak_stays_near_the_stream_it_returns(self, tmp_path, binary):
        # the channels' blocks, then each joined channel while the other's
        # blocks are held: 1.5x on balanced channels, plus one block of
        # scratch.  A reader that holds the whole file and its per-record
        # arrays at once peaked at 4.6x (binary) and 6.1x (text).
        stream = spread_stream(1 << 19)
        path = tmp_path / "read"
        write_stream(stream, path, binary=binary)
        read_stream(path)
        output = stream.times_a.nbytes + stream.times_b.nbytes
        peak = traced_peak(read_stream, path)
        assert peak < 2.2 * output + 2e6, f"peak {peak / 1e6:.2f} MB for {output / 1e6:.2f} MB of times"
