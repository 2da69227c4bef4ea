import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic_hbt.fitting import (
    canonicalize,
    delay_fringe,
    delay_fringe_jacobian,
    fit_delay_model,
    fit_tau_model,
    initial_guess,
    tau_fringe,
    tau_fringe_jacobian,
)

from oracles import guess_grid, profiled_fringe_start


@dataclass
class Curve:
    x: np.ndarray
    g2: np.ndarray
    sigma: np.ndarray


def make_curve(x, y, sigma=None):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if sigma is None:
        sigma = np.full_like(y, 0.01)
    return Curve(x=x, g2=y, sigma=np.asarray(sigma, dtype=float))


def at_one_and_two_blas_threads(probe):
    """What probe prints in two fresh interpreters, at 1 and 2 OpenBLAS threads."""
    # on one CPU, OpenBLAS runs one thread whatever the environment asks for
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 CPUs in the affinity mask to run OpenBLAS on 2 threads")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    ]
    try:
        outputs = [run.communicate(timeout=60)[0] for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0]
    return outputs


def central_difference(fn, params, x, index, h):
    up = params.copy()
    down = params.copy()
    up[index] += h
    down[index] -= h
    return (fn(up, x) - fn(down, x)) / (2.0 * h)


class TestJacobians:
    @pytest.mark.parametrize(
        "fn,jac,n_params",
        [(delay_fringe, delay_fringe_jacobian, 3), (tau_fringe, tau_fringe_jacobian, 4)],
    )
    def test_matches_central_differences(self, fn, jac, n_params):
        rng = np.random.default_rng(41)
        x = np.linspace(-3.0, 3.0, 25)
        for _ in range(100):
            if n_params == 3:
                params = np.array([rng.uniform(0.1, 1.0), rng.uniform(-3, 3), rng.uniform(0.3, 2.0)])
            else:
                params = np.array([
                    rng.uniform(0.1, 1.0), rng.uniform(0.2, 1.0),
                    rng.uniform(-3, 3), rng.uniform(0.3, 2.0),
                ])
            analytic = jac(params, x)
            for k in range(n_params):
                h = 1e-6 * max(1.0, abs(params[k]))
                numeric = central_difference(fn, params, x, k, h)
                scale = np.abs(analytic[:, k]).max() + 1e-9
                assert np.abs(analytic[:, k] - numeric).max() / scale < 1e-6


    @given(
        st.floats(-2.0, 2.0),
        st.floats(-10.0, 10.0),
        st.floats(-50.0, 50.0),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    )
    def test_delay_fringe_is_tau_fringe_at_zero_linewidth(self, v, phase, freq, xs):
        x = np.array(xs)
        own, full = np.array([v, phase, freq]), np.array([v, 0.0, phase, freq])
        assert np.array_equal(delay_fringe(own, x), tau_fringe(full, x))
        assert np.array_equal(
            delay_fringe_jacobian(own, x), tau_fringe_jacobian(full, x)[:, [0, 2, 3]]
        )


class TestCanonicalGauge:
    def test_negative_visibility_absorbed_into_phase(self):
        p = canonicalize("delay", np.array([-0.5, 0.2, 1.0]))
        assert p[0] == pytest.approx(0.5)
        # the absorbed pi lands back in (-pi, pi]
        assert p[1] == pytest.approx(0.2 - math.pi)
        x = np.linspace(0, 3, 7)
        assert np.allclose(delay_fringe(p, x), delay_fringe(np.array([-0.5, 0.2, 1.0]), x))

    def test_negative_frequency_conjugates_phase(self):
        p = canonicalize("delay", np.array([0.5, 0.7, -1.3]))
        assert p[2] == pytest.approx(1.3)
        assert p[1] == pytest.approx(-0.7)
        x = np.linspace(0, 3, 7)
        assert np.allclose(delay_fringe(p, x), delay_fringe(np.array([0.5, 0.7, -1.3]), x))

    def test_phase_wrapped_into_half_open_interval(self):
        p = canonicalize("delay", np.array([0.5, 5 * math.pi, 1.0]))
        assert -math.pi < p[1] <= math.pi

    def test_negative_linewidth_folded(self):
        p = canonicalize("tau", np.array([0.5, -0.3, 0.1, 1.0]))
        assert p[1] == pytest.approx(0.3)

    @given(
        st.sampled_from(["delay", "tau"]),
        st.floats(-2.0, 2.0),
        st.floats(-3.0, 3.0),
        st.floats(-50.0, 50.0),
        st.floats(-5.0, 5.0),
    )
    def test_idempotent_and_leaves_fringe_unchanged(self, model, v, width, phase, freq):
        raw = np.array([v, phase, freq] if model == "delay" else [v, width, phase, freq])
        fringe = delay_fringe if model == "delay" else tau_fringe
        p = canonicalize(model, raw)
        assert np.array_equal(canonicalize(model, p), p)
        x = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(fringe(p, x), fringe(raw, x), rtol=0.0, atol=1e-9)


class TestInitialGuess:
    def test_frequency_within_ten_percent_on_clean_sinusoid(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            freq = rng.uniform(0.5, 3.0)
            phase = rng.uniform(-math.pi, math.pi)
            x = np.linspace(0.0, 4.0, 40)
            y = 1.0 + 0.3 * np.cos(phase + 2 * math.pi * freq * x)
            assert initial_guess(x, y, "delay")[2] == pytest.approx(freq, rel=0.10)

    def test_flat_curve_gives_small_visibility(self):
        x = np.linspace(0, 5, 30)
        y = np.ones_like(x)
        guess = initial_guess(x, y, "delay")
        assert guess[0] == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="4 points"):
            initial_guess(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "delay")

    @pytest.mark.parametrize(
        "x, model, message",
        [
            (np.linspace(0.0, 1.0, 6), "shift", "unknown model kind 'shift'"),
            (np.full(6, 2.0), "delay", "two distinct x values"),
        ],
        ids=["unknown-model", "one-x-value"],
    )
    def test_unusable_input_rejected(self, x, model, message):
        with pytest.raises(ValueError, match=message):
            initial_guess(x, np.ones_like(x), model)

    def test_flat_curve_holds_the_envelope_at_half_the_widest_x(self):
        # no deviation to take a half-maximum width from: the width falls
        # back to 0.5 / max(|x|, 1), and the start lands on a flat fringe
        x = np.linspace(-8.0, 8.0, 30)
        guess = initial_guess(x, np.ones_like(x), "tau")
        assert guess[1] == 0.5 / 8.0
        assert guess[0] == pytest.approx(0.0, abs=1e-12)

    @given(
        st.sampled_from(["delay", "tau"]),
        st.integers(12, 60),
        st.sampled_from([1e-11, 1e-6, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_profiled_start_matches_lstsq_oracle(self, model, n, scale, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0 if model == "delay" else -1.0, 1.0, n)) * scale
        span = x.max() - x.min()
        truth = [rng.uniform(0.05, 1.0), rng.uniform(0.5, 4.0) / np.abs(x).max(),
                 rng.uniform(-math.pi, math.pi), rng.uniform(1.0, n / 4.0) / span]
        if model == "delay":
            del truth[1]
        fringe = delay_fringe if model == "delay" else tau_fringe
        sigma = rng.uniform(0.005, 0.1, n)
        y = fringe(np.array(truth), x) + sigma * rng.normal(size=n)
        weights = 1.0 / sigma
        guess = initial_guess(x, y, model, weights)
        # the tau envelope is held at the guess's own width during the scan
        envelope = np.ones(n) if model == "delay" else np.exp(-((guess[1] * x) ** 2))
        freq, c, s = profiled_fringe_start(x, y, weights, envelope)
        v, phase = guess[0], guess[-2]
        assert guess[-1] == freq
        assert 0.5 * v * math.cos(phase) == pytest.approx(c, abs=1e-9)
        assert -0.5 * v * math.sin(phase) == pytest.approx(s, abs=1e-9)

    @staticmethod
    def fine_shift_scan():
        """A fig3-like tau curve at half the default step: 401 taus in +-12 us
        and 6 far ones, so the guess grid has 2931 frequencies, summed over
        19 blocks of 22 taus."""
        rng = np.random.default_rng(16)
        x = np.concatenate([np.arange(-200, 201) * 0.06e-6, np.array([-44, -41, -38, 38, 41, 44]) * 1e-6])
        x.sort()
        sigma = rng.uniform(0.01, 0.05, x.size)
        y = tau_fringe(np.array([0.576, 0.118e6, -0.434, 1.32e6]), x) + sigma * rng.normal(size=x.size)
        return x, y, 1.0 / sigma

    def test_multi_block_start_matches_lstsq_oracle(self):
        x, y, weights = self.fine_shift_scan()
        guess = initial_guess(x, y, "tau", weights)
        freq, c, s = profiled_fringe_start(x, y, weights, np.exp(-((guess[1] * x) ** 2)))
        assert guess[-1] == freq
        # not bitwise: BLAS row sums depend on how the rows are partitioned
        assert 0.5 * guess[0] * math.cos(guess[2]) == pytest.approx(c, abs=1e-9)
        assert -0.5 * guess[0] * math.sin(guess[2]) == pytest.approx(s, abs=1e-9)

    def test_start_scratch_is_one_block(self):
        x, y, weights = self.fine_shift_scan()
        tracemalloc.start()
        try:
            initial_guess(x, y, "tau", weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two whole 2931 x 407 float64 arrays would take 19 MB
        assert peak < 4e6

    @staticmethod
    def edge_curve(case):
        """(model, x, y, weights) of a curve at one edge of the start's grid."""
        rng = np.random.default_rng(18)
        far = np.array([-44, -41, -38, 38, 41, 44]) * 1e-6
        model, truth = "tau", [0.576, 0.118e6, -0.434, 1.32e6]
        if case == "floor":
            x = np.linspace(-3.0, 3.0, 24)
            truth = [0.4, 0.3, 0.5, 1.1]
        elif case == "ragged":
            x = np.sort(np.concatenate([np.arange(-100, 101) * 0.12e-6, far]))
        elif case == "delay":
            x = np.linspace(0.0, 5.0, 200)
            model, truth = "delay", [0.59, -0.16, 7.3]
        else:  # "cap"
            x = np.sort(np.concatenate([np.arange(-600, 601) * 0.02e-6, far]))
        fringe = delay_fringe if model == "delay" else tau_fringe
        sigma = rng.uniform(0.01, 0.05, x.size)
        y = fringe(np.array(truth), x) + sigma * rng.normal(size=x.size)
        return model, x, y, 1.0 / sigma

    @pytest.mark.parametrize(
        "case, n_grid",
        [
            ("floor", 256),  # the 256-frequency floor, 16 x 16 rows, one block of taus
            ("ragged", 1464),  # the default fig3 taus: 38 x 39 rows, the last 18 dropped
            ("delay", 396),  # 20 x 20 rows, the last 4 dropped, 2 blocks of taus
            ("cap", 8192),  # the 1207-tau fine-step curve: 91 x 91 rows, 173 blocks of 7 taus
        ],
    )
    def test_grid_edges_match_lstsq_oracle(self, case, n_grid):
        model, x, y, weights = self.edge_curve(case)
        assert guess_grid(x).size == n_grid
        guess = initial_guess(x, y, model, weights)
        envelope = np.ones(x.size) if model == "delay" else np.exp(-((guess[1] * x) ** 2))
        freq, c, s = profiled_fringe_start(x, y, weights, envelope)
        assert guess[-1] == freq
        assert 0.5 * guess[0] * math.cos(guess[-2]) == pytest.approx(c, abs=1e-9)
        assert -0.5 * guess[0] * math.sin(guess[-2]) == pytest.approx(s, abs=1e-9)

    def test_start_does_not_depend_on_the_blas_thread_count(self):
        # each of the start's matrix products is small enough that OpenBLAS
        # runs it on one thread; one product over all 40 000 taus would not be
        probe = """
import numpy as np
from chromatic_hbt.fitting import initial_guess, tau_fringe
far = np.array([-44, -41, -38, 38, 41, 44]) * 1e-6
for n in (207, 1207, 5000, 40_000):
    rng = np.random.default_rng(n)
    x = np.sort(np.concatenate([np.linspace(-12e-6, 12e-6, n - 6), far]))
    sigma = rng.uniform(0.01, 0.05, n)
    y = tau_fringe(np.array([0.576, 0.118e6, -0.434, 1.32e6]), x) + sigma * rng.normal(size=n)
    print(n, initial_guess(x, y, "tau", 1.0 / sigma).tobytes().hex())
"""
        outputs = at_one_and_two_blas_threads(probe)
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    def test_fit_leaves_numpy_ma_unimported(self):
        # np.median imports numpy.ma on its first call, and the module stays
        # allocated for the life of the process; the start takes its median
        # sample spacing without it
        probe = """
import sys
import numpy as np
from chromatic_hbt.analysis import G2Curve
from chromatic_hbt.fitting import delay_fringe, fit_delay_model
x = np.linspace(0.0, 5.0 / 210.1e9, 24)
curve = G2Curve(x, delay_fringe(np.array([0.59, -0.16, 210.1e9]), x), np.full(x.size, 0.01), "t_delay")
assert fit_delay_model(curve).converged
print("numpy.ma" in sys.modules)
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_tau_guess_linewidth_scale(self):
        width = 0.4
        x = np.linspace(-8, 8, 160)
        y = 1.0 + 0.3 * np.exp(-((width * x) ** 2)) * np.cos(2 * math.pi * 1.1 * x)
        guess = initial_guess(x, y, "tau")
        assert 0.05 < guess[1] < 2.0


class TestDelayFit:
    def test_noiseless_recovery_to_1e8(self):
        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.linspace(0.0, 5.0 / truth[2], 20)
        y = delay_fringe(truth, x)
        result = fit_delay_model(make_curve(x, y), weighted=False)
        assert result.converged
        for name, expected in zip(("visibility", "phase", "frequency"), truth):
            assert result.value(name) == pytest.approx(expected, rel=1e-8)
        # residual at the optimum is numerically zero
        assert result.chi2 < 1e-12

    def test_noiseless_recovery_many_random_truths(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            truth = np.array([
                rng.uniform(0.2, 0.9),
                rng.uniform(-math.pi / 2, math.pi / 2),
                rng.uniform(0.7, 1.4),
            ])
            x = np.linspace(0.0, 4.0, 24)
            y = delay_fringe(truth, x)
            result = fit_delay_model(make_curve(x, y), weighted=False)
            assert result.converged
            assert result.value("visibility") == pytest.approx(truth[0], rel=1e-8, abs=1e-10)
            assert result.value("phase") == pytest.approx(truth[1], rel=1e-8, abs=1e-10)
            assert result.value("frequency") == pytest.approx(truth[2], rel=1e-8)

    def test_chi2_monotone_over_accepted_steps(self):
        rng = np.random.default_rng(53)
        truth = np.array([0.6, 0.4, 1.1])
        x = np.linspace(0.0, 4.0, 30)
        y = delay_fringe(truth, x) + rng.normal(0.0, 0.02, size=x.size)
        result = fit_delay_model(make_curve(x, y, 0.02 * np.ones_like(x)))
        trace = np.array(result.chi2_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(59)
        truth = np.array([0.59, -0.16, 1.0])
        x = np.linspace(0.0, 5.0, 20)
        sigma = 0.02
        y = delay_fringe(truth, x) + rng.normal(0.0, sigma, size=x.size)
        result = fit_delay_model(make_curve(x, y, sigma * np.ones_like(x)))
        assert result.converged
        for name, expected in zip(("visibility", "phase", "frequency"), truth):
            err = result.stderr(name)
            assert err is not None and err > 0
            assert abs(result.value(name) - expected) < 3.0 * err

    def test_gradient_stop_test_does_not_depend_on_units(self):
        # (v, phase) start at their optimum for a frequency 0.03 error bars
        # off; in seconds the raw frequency gradient is about 1e-11 of the
        # others, which a unit-dependent stop test takes for convergence
        rng = np.random.default_rng(72)
        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.linspace(0.0, 5.0 / truth[2], 20)
        sigma = 0.1
        y = delay_fringe(truth, x) + rng.normal(0.0, sigma, size=x.size)
        curve = make_curve(x, y, sigma * np.ones_like(x))
        best = fit_delay_model(curve, initial=truth)
        f_start = best.value("frequency") - 0.03 * best.stderr("frequency")
        basis = np.column_stack([np.cos(2 * math.pi * f_start * x), np.sin(2 * math.pi * f_start * x)])
        (c, s), *_ = np.linalg.lstsq(basis, y - 1.0, rcond=None)
        start = np.array([2.0 * math.hypot(c, s), math.atan2(-s, c), f_start])
        result = fit_delay_model(curve, initial=start)
        assert result.converged
        for name in ("visibility", "phase", "frequency"):
            assert abs(result.value(name) - best.value(name)) < 1e-4 * best.stderr(name)

    def test_start_at_zero_visibility_recovers(self):
        # at v = 0 the phase and frequency columns of the Jacobian vanish, so
        # the unit-diagonal scaling must leave their zero curvature unscaled
        truth = np.array([0.5, 0.3, 1.0])
        x = np.linspace(0.0, 5.0, 40)
        result = fit_delay_model(make_curve(x, delay_fringe(truth, x)), initial=np.array([0.0, 0.3, 1.0]))
        assert result.converged and not result.degenerate
        assert result.value("visibility") == pytest.approx(truth[0], rel=1e-8)

    def test_flat_curve_flagged_degenerate(self):
        x = np.linspace(0.0, 5.0, 20)
        y = np.ones_like(x)
        result = fit_delay_model(make_curve(x, y), initial=np.array([0.0, 0.1, 1.0]), weighted=False)
        assert result.degenerate
        assert all(err is None for _, err in result.params.values())

    def test_too_short_span_rejected(self):
        x = np.linspace(0.0, 0.1, 10)
        y = 1.0 + 0.3 * np.cos(2 * math.pi * 1.0 * x)
        with pytest.raises(ValueError, match="period"):
            fit_delay_model(make_curve(x, y), initial=np.array([0.3, 0.0, 1.0]))

    def test_automatic_start_takes_a_scan_under_half_a_period(self):
        # the delays of [delay_scan] steps = 4, scan_periods = 0.1 (0.075
        # periods of the beat); the span check runs only on an explicit start,
        # since the automatic one's grid begins at 0.5 / span and fails it by rounding
        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.arange(4) * (0.1 * (1.0 / truth[2]) / 4)
        result = fit_delay_model(make_curve(x, delay_fringe(truth, x)))
        assert result.model == "delay"

    def test_too_few_points_rejected(self):
        x = np.linspace(0, 2, 3)
        with pytest.raises(ValueError, match=">= 4"):
            fit_delay_model(make_curve(x, np.ones(3)))

    def test_weighted_fit_requires_positive_sigma(self):
        x = np.linspace(0, 4, 10)
        with pytest.raises(ValueError, match="sigma"):
            fit_delay_model(make_curve(x, np.ones(10), np.zeros(10)))


class TestTauFit:
    TRUTH = np.array([0.576, 0.118e6, -0.434, 1.32e6])

    def test_noiseless_recovery_to_1e8(self):
        x = np.linspace(-20e-6, 20e-6, 161)
        y = tau_fringe(self.TRUTH, x)
        result = fit_tau_model(make_curve(x, y), weighted=False)
        assert result.converged
        for name, expected in zip(("visibility", "linewidth", "phase", "frequency"), self.TRUTH):
            assert result.value(name) == pytest.approx(expected, rel=1e-8)
        assert result.chi2 < 1e-12

    def test_noisy_recovery_within_three_sigma(self):
        rng = np.random.default_rng(61)
        x = np.linspace(-20e-6, 20e-6, 161)
        sigma = 0.01
        y = tau_fringe(self.TRUTH, x) + rng.normal(0.0, sigma, size=x.size)
        result = fit_tau_model(make_curve(x, y, sigma * np.ones_like(x)))
        assert result.converged
        for name, expected in zip(("visibility", "linewidth", "phase", "frequency"), self.TRUTH):
            err = result.stderr(name)
            assert err is not None
            assert abs(result.value(name) - expected) < 3.0 * err

    def test_undamped_data_flags_weak_linewidth(self):
        # no envelope decay visible: error bar on the linewidth covers zero
        x = np.linspace(-2.0, 2.0, 80)
        y = 1.0 + 0.3 * np.cos(0.2 + 2 * math.pi * 1.0 * x)
        result = fit_tau_model(make_curve(x, y, 0.005 * np.ones_like(x)))
        err = result.stderr("linewidth")
        weakly_flagged = any("weakly identified" in note for note in result.notes)
        assert weakly_flagged or err is None or err >= result.value("linewidth")

    def test_short_span_with_explicit_guess_rejected(self):
        x = np.linspace(-1e-6, 1e-6, 50)
        y = tau_fringe(self.TRUTH, x)
        with pytest.raises(ValueError, match="envelope"):
            fit_tau_model(make_curve(x, y), initial=self.TRUTH)

    def test_each_trial_evaluates_the_fringe_once(self, monkeypatch):
        # the start's chi2 takes one evaluation and each damped trial (one
        # solve) one more; an accepted trial's residual is the next gradient's
        import chromatic_hbt.fitting as fitting

        calls = {"fringe": 0, "solve": 0}
        fringe, solve = fitting.tau_fringe, np.linalg.solve

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(fitting, "tau_fringe", counted("fringe", fringe))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
        rng = np.random.default_rng(67)
        x = np.linspace(-20e-6, 20e-6, 161)
        y = tau_fringe(self.TRUTH, x) + rng.normal(0.0, 0.01, size=x.size)
        result = fit_tau_model(make_curve(x, y), initial=1.05 * self.TRUTH)
        assert result.converged and result.iterations > 2
        assert calls["fringe"] == 1 + calls["solve"]

    def test_fit_does_not_depend_on_the_blas_thread_count(self):
        # J^T J, J^T r and r . r are summed over blocks of rows small enough
        # that OpenBLAS runs each on one thread; whole products would not be
        probe = """
import numpy as np
from chromatic_hbt.fitting import fit_tau_model, tau_fringe
from chromatic_hbt.analysis import G2Curve
truth = np.array([0.576, 0.118e6, -0.434, 1.32e6])
far = np.array([-44, -41, -38, 38, 41, 44]) * 1e-6
for n in (20_000, 65_536):
    rng = np.random.default_rng(n)
    x = np.sort(np.concatenate([np.linspace(-12e-6, 12e-6, n - 6), far]))
    sigma = rng.uniform(0.01, 0.05, n)
    curve = G2Curve(x, tau_fringe(truth, x) + sigma * rng.normal(size=n), sigma, "tau")
    print(fit_tau_model(curve, initial=1.01 * truth).to_json())
"""
        outputs = at_one_and_two_blas_threads(probe)
        assert outputs[0].count('"converged": true') == 2
        assert outputs[0] == outputs[1]

    def test_result_serializes_to_json(self):
        x = np.linspace(-20e-6, 20e-6, 161)
        y = tau_fringe(self.TRUTH, x)
        result = fit_tau_model(make_curve(x, y), weighted=False)
        text = result.to_json()
        assert '"converged": true' in text
        assert '"visibility"' in text
