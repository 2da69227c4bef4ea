"""Nonlinear least-squares fitting of coincidence fringes.

One fringe, over (visibility, linewidth, phase, frequency):

    g2(x) = 1 + (v/2) * exp(-(linewidth*x)^2) * cos(phase + 2*pi*frequency*x).

The tau model fits it against the post-processing shift; the delay model
fits it against the controller delay with the linewidth held at 0, so its
parameters are (visibility, phase, frequency).  tau_fringe is the only copy
of the formula: protocol.g2_zero_model and g2_tau_model evaluate it.

The fringe is linear in (c, s) = (v/2) * (cos(phase), -sin(phase)) once the
frequency and the linewidth are fixed.  initial_guess profiles (c, s) out: on
a frequency grid it solves their 2x2 weighted linear least squares and keeps
the frequency that lowers the fit's own chi2 the most (Golub & Pereyra, SIAM
J. Numer. Anal. 10, 413 (1973); with a flat envelope, a weighted Lomb-Scargle
periodogram about g2 = 1, cf. Zechmeister & Kuerster, A&A 496, 577 (2009)).
The grid is uniform, so each grid frequency's phase is a giant-step phase
times a baby-step phase (the trigonometric recurrence of fast periodograms,
Press & Rybicki, ApJ 338, 277 (1989), here kept exact), and the scan's sums
are two complex matrix products of those tables: about 2 sqrt(grid size)
cosines and sines a point instead of two per grid frequency.  The products run
over blocks of points of at most _GUESS_BLOCK multiply-adds each, so the
scratch does not grow with the points and the start does not change with the
BLAS thread count.
Damped Gauss-Newton with a Levenberg-Marquardt damping schedule and the
analytic Jacobian then refines the fit (More, LNM 630 (1978)); its sums run
over blocks of _LM_BLOCK points for the same reason.  Parameter errors come
from the inverse curvature matrix scaled by sqrt(chi2/dof).  Results are
reported in the canonical gauge: visibility >= 0, phase in (-pi, pi],
frequency >= 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

PARAM_NAMES = ("visibility", "linewidth", "phase", "frequency")

# the parameters each model fits, in PARAM_NAMES order; the delay model
# holds the linewidth at 0
_MODELS = {"delay": ("visibility", "phase", "frequency"), "tau": PARAM_NAMES}
_SLOTS = {model: [PARAM_NAMES.index(name) for name in names] for model, names in _MODELS.items()}

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-12
STEP_TOL = 1e-13
CHI2_REL_TOL = 1e-14
CONDITION_LIMIT = 1e13
# complex multiply-adds of each of initial_guess's matrix products.  OpenBLAS
# runs a zgemm this small on one thread; with OpenBLAS 0.3.31, larger ones
# gave different bits at 1 and 2 threads
_GUESS_BLOCK = 2**16
# rows of each of the LM loop's products (J^T J, J^T r, r . r); with OpenBLAS
# 0.3.31, fits were the same at 1 and 2 threads up to 8192 rows, not at 16384
_LM_BLOCK = 2048


@dataclass
class FitResult:
    """Outcome of one least-squares fit.

    params maps each parameter name to (value, standard error); the error is
    None when the curvature matrix was too ill-conditioned to invert safely.
    """

    model: str  # "delay" | "tau"
    params: dict[str, tuple[float, float | None]]
    chi2: float
    dof: int
    converged: bool
    iterations: int
    degenerate: bool = False
    notes: tuple[str, ...] = ()
    chi2_trace: tuple[float, ...] = field(default=(), repr=False)

    def value(self, name: str) -> float:
        return self.params[name][0]

    def stderr(self, name: str) -> float | None:
        return self.params[name][1]

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {
                name: {"value": value, "stderr": stderr}
                for name, (value, stderr) in self.params.items()
            },
            "chi2": self.chi2,
            "dof": self.dof,
            "converged": self.converged,
            "iterations": self.iterations,
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        unit = {"frequency": "Hz", "linewidth": "Hz"}
        lines = []
        for name, (value, stderr) in self.params.items():
            err = "---" if stderr is None else f"{stderr:.6g}"
            suffix = f" {unit[name]}" if name in unit else ""
            lines.append(f"{name:>10s} = {value:.6g} +/- {err}{suffix}")
        lines.append(
            f"  chi2/dof = {self.chi2:.6g}/{self.dof}"
            f"   converged={self.converged} iterations={self.iterations}"
        )
        if self.degenerate:
            lines.append("  WARNING: degenerate fit, errors unreliable")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return lines


def tau_fringe(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The fringe at (visibility, linewidth, phase, frequency)."""
    v, width, phase, freq = params
    envelope = np.exp(-((width * x) ** 2))
    return 1.0 + 0.5 * v * envelope * np.cos(phase + 2.0 * math.pi * freq * x)


def tau_fringe_jacobian(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d tau_fringe / d params, one column per parameter of PARAM_NAMES."""
    v, width, phase, freq = params
    envelope = np.exp(-((width * x) ** 2))
    arg = phase + 2.0 * math.pi * freq * x
    cos_a, sin_a = np.cos(arg), np.sin(arg)
    jac = np.empty((x.size, 4))
    jac[:, 0] = 0.5 * envelope * cos_a
    jac[:, 1] = -v * width * (x**2) * envelope * cos_a
    jac[:, 2] = -0.5 * v * envelope * sin_a
    jac[:, 3] = -0.5 * v * envelope * sin_a * 2.0 * math.pi * x
    return jac


def _all_params(model: str, params: np.ndarray) -> np.ndarray:
    """A model's own parameter vector spread over PARAM_NAMES; held ones are 0."""
    full = np.zeros(len(PARAM_NAMES))
    full[_SLOTS[model]] = params
    return full


def _model_jacobian(model: str, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    jac = tau_fringe_jacobian(_all_params(model, params), x)
    # column indexing returns Fortran order, in which jac.T @ jac sums in
    # another order; in C order a fit matches a build of only these columns
    return np.ascontiguousarray(jac[:, _SLOTS[model]])


def delay_fringe(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tau_fringe at linewidth 0, over (visibility, phase, frequency)."""
    return tau_fringe(_all_params("delay", params), x)


def delay_fringe_jacobian(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Columns visibility, phase and frequency of tau_fringe_jacobian at linewidth 0."""
    return _model_jacobian("delay", params, x)


def _wrap_phase(phase: float) -> float:
    wrapped = math.remainder(phase, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def canonicalize(model: str, params: np.ndarray) -> np.ndarray:
    """Resolve the cosine sign/phase degeneracies of a model's own parameters.

    visibility >= 0 (flip absorbs a pi phase shift), frequency >= 0 (flip
    conjugates the phase), linewidth >= 0 (envelope is even), phase wrapped
    into (-pi, pi].
    """
    v, width, phase, freq = _all_params(model, params)
    if v < 0:
        v, phase = -v, phase + math.pi
    if freq < 0:
        freq, phase = -freq, -phase
    return np.array([v, abs(width), _wrap_phase(phase), freq])[_SLOTS[model]]


def _phases(rates: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(1j * outer(rates, x)), one cosine and one sine per element."""
    arg = np.outer(rates, x)
    table = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=table.real)
    np.sin(arg, out=table.imag)
    return table


def initial_guess(
    x: np.ndarray, y: np.ndarray, model: str, weights: np.ndarray | None = None
) -> np.ndarray:
    """Starting point that minimizes the fit's own weighted chi2 over a
    frequency grid, with (c, s) solved exactly at each frequency.

    weights are the fit's 1/sigma (ones when None).  With baby ~ sqrt(grid
    size), grid row g = j * baby + k has the phase exp(2 pi i grid[g] x) =
    giant[j] * baby[k], and both tables are built with exact trig.  The sums
    take _GUESS_BLOCK // (giants * baby) points at a time, so each product
    stays on one BLAS thread and the scratch is a few tables of one block of
    points, never a grid-by-point array.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if model not in _MODELS:
        raise ValueError(f"unknown model kind {model!r}")
    if x.size < 4:
        raise ValueError(f"need at least 4 points to build a guess, got {x.size}")
    span = float(x.max() - x.min())
    if not span > 0:
        raise ValueError("need at least two distinct x values to build a guess")
    deviation = y - 1.0
    # per-point weights of the basis products (a) and of the data (u)
    a = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float) ** 2
    width = 0.0
    if "linewidth" in _MODELS[model]:
        # envelope held at the half-maximum width of |y - 1|: the fringe
        # depends on the width squared, so LM started at 0 cannot move it
        magnitude = np.abs(deviation)
        if magnitude.max() > 0:
            half_x = np.abs(x)[magnitude >= 0.5 * magnitude.max()].max()
            if half_x > 0:
                width = math.sqrt(math.log(2.0)) / half_x
        if width <= 0.0:
            width = 0.5 / max(np.abs(x).max(), 1.0)
    envelope = np.exp(-((width * x) ** 2))
    u = a * envelope * deviation
    a = a * envelope**2
    # from half a cycle over the span up to the Nyquist rate of the median sample spacing (so
    # sparse outlying points don't cap the band), by partition: np.median imports numpy.ma for good
    middle = sorted({x.size // 2 - 1, (x.size - 1) // 2})
    spacing = float(np.mean(np.partition(np.diff(np.sort(x)), middle)[middle]))
    f_low = 0.5 / span
    f_high = max(0.5 / spacing, 2.0 * f_low) if spacing > 0 else 2.0 * f_low
    grid = np.linspace(f_low, f_high, int(np.clip(4.0 * span * (f_high - f_low), 256, 8192)))
    # grid row g = j * baby + k has the phase giant[j] * baby[k], so the
    # normal-equation sums are (giants x points) @ (points x baby) products:
    # sum(u e^{i theta}) = uc + i us, sum(a e^{2i theta}) = 2 cc - sum(a) + 2i cs
    baby = math.isqrt(grid.size - 1) + 1
    giants = -(-grid.size // baby)
    step = 2.0 * math.pi * (f_high - f_low) / (grid.size - 1)
    giant_rates = 2.0 * math.pi * f_low + step * baby * np.arange(giants)
    baby_rates = step * np.arange(baby)
    points = _GUESS_BLOCK // (giants * baby)
    single = np.zeros((giants, baby), dtype=complex)
    double = np.zeros((giants, baby), dtype=complex)
    for start in range(0, x.size, points):
        block = slice(start, start + points)
        giant_phase = _phases(giant_rates, x[block])
        baby_phase = _phases(baby_rates, x[block])
        single += giant_phase @ (baby_phase * u[block]).T
        giant_phase *= giant_phase
        baby_phase *= baby_phase
        double += giant_phase @ (baby_phase * a[block]).T
    # the rows past the grid's end are dropped
    single = single.ravel()[: grid.size]
    double = double.ravel()[: grid.size]
    uc, us = single.real, single.imag
    total = a.sum()
    cc = 0.5 * (total + double.real)
    cs = 0.5 * double.imag
    ss = total - cc
    det = cc * ss - cs * cs
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(det > 0, (ss * uc - cs * us) / det, 0.0)
        s = np.where(det > 0, (cc * us - cs * uc) / det, 0.0)
    # at the solution the chi2 falls by (c, s) . (uc, us)
    k = int(np.argmax(c * uc + s * us))
    visibility = 2.0 * math.hypot(c[k], s[k])
    phase = math.atan2(-s[k], c[k])
    return np.array([visibility, width, phase, grid[k]])[_SLOTS[model]]


def _row_blocks_product(a: np.ndarray, b: np.ndarray):
    """a.T @ b summed over _LM_BLOCK rows at a time, in row order; for at
    most _LM_BLOCK rows it is the one product a.T @ b."""
    total = a[:_LM_BLOCK].T @ b[:_LM_BLOCK]
    for start in range(_LM_BLOCK, len(a), _LM_BLOCK):
        total += a[start : start + _LM_BLOCK].T @ b[start : start + _LM_BLOCK]
    return total


def _unit_diagonal(jtj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(jtj scaled to a unit diagonal, the scale); a diagonal entry that is
    not positive scales by 1."""
    scale = np.sqrt(np.diag(jtj))
    scale[scale <= 0] = 1.0
    return jtj / np.outer(scale, scale), scale


def _scaled_covariance(jtj: np.ndarray, chi2: float, dof: int) -> np.ndarray | None:
    """Inverse curvature scaled by chi2/dof, or None when near-singular."""
    diag = np.diag(jtj)
    if np.any(~np.isfinite(diag)) or np.any(diag < 0):
        return None
    top = diag.max() if diag.size else 0.0
    if top <= 0 or np.any(diag <= 1e-28 * top):
        return None
    normalized, scale = _unit_diagonal(jtj)
    if not np.all(np.isfinite(normalized)) or np.linalg.cond(normalized) > CONDITION_LIMIT:
        return None
    inverse = np.linalg.inv(normalized) / np.outer(scale, scale)
    return inverse * (chi2 / dof if chi2 > 0 else 1.0)


def _levenberg_marquardt(model: str, p0: np.ndarray, x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Weighted LM loop; returns (params, trace, converged, iterations, jtj).
    Each damped trial evaluates the fringe once, and an accepted trial's
    residual is the next iteration's."""
    w = weights[:, None]

    def residual_chi2(params):
        residual = (y - tau_fringe(_all_params(model, params), x)) * weights
        return residual, float(_row_blocks_product(residual, residual))

    p = np.array(p0, dtype=float)
    residual, chi2 = residual_chi2(p)
    trace = [chi2]
    damping = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = _model_jacobian(model, p, x) * w
        jtj = _row_blocks_product(jac, jac)
        grad = _row_blocks_product(jac, residual)
        # MINPACK's orthogonality test: the residual is orthogonal to every
        # Jacobian column, which does not depend on the parameters' units
        if np.all(np.abs(grad) <= GRADIENT_TOL * np.sqrt(np.diag(jtj)) * math.sqrt(chi2)):
            converged = True
            break
        # solve in diagonally scaled space: parameters of wildly different
        # physical magnitude (visibility vs frequency in Hz) stay well conditioned
        normalized, scale = _unit_diagonal(jtj)
        scaled_grad = grad / scale
        eye = np.eye(p.size)
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(normalized + damping * eye, scaled_grad) / scale
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = p + step
            trial_residual, trial_chi2 = residual_chi2(trial)
            if trial_chi2 <= chi2:
                magnitude = np.maximum(np.abs(p), 1e-30)
                small_step = np.all(np.abs(step) < STEP_TOL * magnitude)
                small_drop = (chi2 - trial_chi2) <= CHI2_REL_TOL * max(chi2, 1e-300)
                p, residual, chi2 = trial, trial_residual, trial_chi2
                trace.append(chi2)
                damping = max(damping / 10.0, 1e-15)
                accepted = True
                if small_step or small_drop:
                    converged = True
                break
            damping *= 10.0
        if converged:
            break
        if not accepted:
            # damping grew fifty decades without a downhill step, so the
            # current point is stationary to machine precision
            converged = True
            break
    # curvature at the point actually reported
    jac = _model_jacobian(model, p, x) * w
    return p, trace, converged, iterations, _row_blocks_product(jac, jac)


def _fit(curve, model: str, initial: np.ndarray | None, weighted: bool) -> FitResult:
    """Fit one of the _MODELS to curve.x, curve.g2 (errors curve.sigma)."""
    names = _MODELS[model]
    x = np.asarray(curve.x, dtype=float)
    y = np.asarray(curve.g2, dtype=float)
    sigma = np.asarray(curve.sigma, dtype=float)
    if weighted and np.any(sigma <= 0):
        raise ValueError("weighted fit requires positive sigma for every point")
    weights = 1.0 / sigma if weighted else np.ones_like(y)
    if x.size <= len(names):
        raise ValueError(f"{model} fit needs >= {len(names) + 1} points, got {x.size}")
    if initial is None:
        # needs neither check below: the guess takes its width from the data,
        # and its frequency grid begins at half a period over the span
        p0 = initial_guess(x, y, model, weights)
    else:
        p0 = np.array(initial, dtype=float)
        _, width, _, freq = _all_params(model, p0)
        if width > 0 and np.abs(x).max() < 2.0 / width:
            raise ValueError(
                "shift scan too short to constrain the envelope: "
                f"max|x| = {np.abs(x).max():.3g} < 2/linewidth = {2.0 / width:.3g}"
            )
        span = x.max() - x.min()
        if model == "delay" and freq > 0 and span * freq < 0.5:
            raise ValueError(
                f"delay scan spans {span * freq:.3g} oscillation periods; need at least 0.5"
            )
    p, trace, converged, iterations, jtj = _levenberg_marquardt(model, p0, x, y, weights)
    p = canonicalize(model, p)
    dof = max(x.size - len(names), 1)
    chi2 = trace[-1]
    degenerate = False
    notes: list[str] = []
    errors: list[float | None] = [None] * len(names)
    covariance = _scaled_covariance(jtj, chi2, dof)
    if covariance is None:
        degenerate = True
        notes.append("curvature matrix is near-singular; errors omitted")
    else:
        diag = np.diag(covariance)
        if np.all(diag >= 0):
            errors = list(np.sqrt(diag))
        else:
            degenerate = True
            notes.append("covariance not positive definite; errors omitted")
    params = {name: (float(value), err) for name, value, err in zip(names, p, errors)}
    width, width_err = params.get("linewidth", (0.0, None))
    if width_err is not None and width_err >= abs(width) > 0:
        notes.append("linewidth weakly identified: error bar covers zero")
    return FitResult(
        model=model,
        params=params,
        chi2=chi2,
        dof=dof,
        converged=converged,
        iterations=iterations,
        degenerate=degenerate,
        notes=tuple(notes),
        chi2_trace=tuple(trace),
    )


def fit_delay_model(curve, initial: np.ndarray | None = None, weighted: bool = True) -> FitResult:
    """Fit the undamped fringe to a delay-scan curve.

    curve needs >= 4 points.  With an explicit initial guess they must span
    at least half an oscillation period of its frequency; the automatic
    guess starts at half a period over the span.
    """
    return _fit(curve, "delay", initial, weighted)


def fit_tau_model(curve, initial: np.ndarray | None = None, weighted: bool = True) -> FitResult:
    """Fit the Gaussian-damped fringe to a shift-scan curve.

    curve needs >= 5 points.  With an explicit initial guess the scan must
    reach max|x| >= 2/linewidth so the envelope decay is actually in the
    data; the automatic guess takes its width from the data instead.
    """
    return _fit(curve, "tau", initial, weighted)
