"""Trace statistics (histograms, thresholds, fidelity, jumps, T1) and the
hyperfine fit.

Everything here consumes immutable traces or curves and returns plain result
objects; nothing mutates its inputs, so all functions are safe to call
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .coherence import CoherenceCurve, _coherence_rows
from .measurement import PhotonTrace, _write_rows
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    PhysicalConstants,
    _frame_component_vectors,
    _row_dot,
    _row_norm,
)

LOW_STATISTICS_PAIRS = 100

#: Most (row, cell) pairs of the fit's forward model per kernel call.  The
#: kernel's temporaries grow with rows x cells, so a large grid on long scans
#: is evaluated in blocks of rows; an 8 x 8 grid on a 49-cell tau and N scan
#: is one block.
_FIT_BLOCK_CELLS = 1 << 12

#: Span (rad/s) of ``fit_hyperfine``'s coarse grid on each of a_par and
#: a_perp, 10 kHz to 1 MHz; the refinements are bounded to a tenth of its
#: low end and twice its high end.
_FIT_GRID = (2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Dual initialization thresholds.

    A point strictly above ``init_high`` prepares/declares the bright ("up")
    state; strictly below ``init_low`` the dark ("down") state.  Between the
    two nothing is declared.
    """

    init_low: int = 2300
    init_high: int = 2520

    def __post_init__(self):
        if min(self.init_low, self.init_high) < 0:
            raise ValueError("thresholds must be non-negative")
        if self.init_high < self.init_low:
            raise ValueError("init_high must be >= init_low")

    def classify(self, counts: np.ndarray) -> np.ndarray:
        """Declared state of each count: +1 up, -1 down, 0 undeclared (int8)."""
        return ((counts > self.init_high).astype(np.int8)
                - (counts < self.init_low).astype(np.int8))


@dataclass(frozen=True)
class ConditionalHistograms:
    """Photon-count samples following an up/down preparation.

    ``samples_up``/``samples_down`` are the counts measured one point after a
    preparation point cleared the respective initialization threshold.
    ``init_match_up``/``init_match_down`` are ground-truth initialization
    success counts (hidden state at the preparation point agrees with the
    declared label); they exist only because simulated traces carry their
    hidden trajectory, and are None for a trace without one.
    """

    samples_up: np.ndarray
    samples_down: np.ndarray
    init_match_up: int | None
    init_match_down: int | None
    low_statistics: bool

    @cached_property
    def count_table(self):
        """The distinct sample values, ascending, and how many samples of
        each class take every value: a table whose size follows the number
        of samples, not the range of their values.  Computed once; the
        fidelity curve and the histogram CSV both read it."""
        up, down = self.samples_up, self.samples_down
        values = np.sort(np.concatenate([up, down]))
        distinct = np.ones(len(values), dtype=bool)
        distinct[1:] = values[1:] != values[:-1]
        values = values[distinct]
        return (values,) + tuple(
            np.diff(np.searchsorted(np.sort(x), values, "right"), prepend=0)
            for x in (up, down))


@dataclass(frozen=True)
class FidelityReport:
    """Threshold trade-off of the single-shot readout.

    ``threshold_curve`` rows are (threshold, f_up, f_down, f_avg) with
    f_up(th) = P(count >= th | prepared up) and
    f_down(th) = P(count < th | prepared down).  The optimal threshold
    maximizes min(f_up, f_down); ties break toward the lowest threshold.
    """

    fidelity_up: float
    fidelity_down: float
    init_fidelity_up: float | None
    init_fidelity_down: float | None
    optimal_threshold: int
    threshold_curve: np.ndarray
    n_pairs_up: int
    n_pairs_down: int
    low_statistics: bool

    def __post_init__(self):
        probs = [self.fidelity_up, self.fidelity_down,
                 self.init_fidelity_up, self.init_fidelity_down]
        if any(not (0.0 <= p <= 1.0) for p in probs
               if p is not None and not np.isnan(p)):
            raise ValueError("fidelities must lie in [0, 1]")


def conditional_histograms(
    trace: PhotonTrace, policy: ThresholdPolicy
) -> ConditionalHistograms:
    """Prepare-then-measure pairing of adjacent points.

    Walk the trace left to right; when point i clears an initialization
    threshold it is a preparation, point i+1 is the conditional measurement,
    and the walk resumes at i+2 (pairs never overlap).  Fewer than
    100 qualifying pairs in either class flags the result low-statistics.
    """
    counts = trace.points
    if len(counts) < 2:
        raise ValueError("trace must contain at least 2 points")
    # The walk takes every other point of each run of qualifying points,
    # starting with the run's first; the last point has no successor.
    labels = policy.classify(counts[:-1])
    qualifying = np.flatnonzero(labels)
    k = np.arange(len(qualifying))
    run_first = np.where(np.diff(qualifying, prepend=-2) != 1, k, 0)
    prep = qualifying[(k - np.maximum.accumulate(run_first)) % 2 == 0]
    prep_up = prep[labels[prep] > 0]
    prep_down = prep[labels[prep] < 0]
    hidden = trace.hidden_states
    low = min(len(prep_up), len(prep_down)) < LOW_STATISTICS_PAIRS
    return ConditionalHistograms(
        samples_up=np.asarray(counts[prep_up + 1], dtype=np.int64),
        samples_down=np.asarray(counts[prep_down + 1], dtype=np.int64),
        init_match_up=(None if hidden is None
                       else int(np.sum(hidden[prep_up] == 1))),
        init_match_down=(None if hidden is None
                         else int(np.sum(hidden[prep_down] == -1))),
        low_statistics=low,
    )


def fidelity_vs_threshold(hists: ConditionalHistograms) -> FidelityReport:
    """Scan every candidate threshold and report the max-min optimum.

    f_up and f_down change only where the threshold passes a sample, so the
    curve has one row at the lowest sample and one just above each distinct
    sample, at most len(up) + len(down) + 1 rows however far apart the
    samples lie.  Between rows both are constant, so the lowest threshold
    that maximizes min(f_up, f_down) is a row.
    """
    up, down = hists.samples_up, hists.samples_down
    if len(up) == 0 or len(down) == 0:
        raise ValueError("both conditional histograms must be nonempty")
    values, n_up, n_down = hists.count_table
    # below_x[k]: how many samples of x lie under the threshold of row k;
    # row k + 1's threshold is values[k] + 1, formed without overflow
    below_up, below_down = (np.concatenate(([0], np.cumsum(n)))
                            for n in (n_up, n_down))
    f_up = (len(up) - below_up) / len(up)
    f_down = below_down / len(down)
    f_avg = (f_up + f_down) / 2.0
    best = int(np.argmax(np.minimum(f_up, f_down)))
    thresholds = np.concatenate(([values[0]], values + 1.0))
    curve = np.column_stack([thresholds, f_up, f_down, f_avg])
    return FidelityReport(
        fidelity_up=float(f_up[best]),
        fidelity_down=float(f_down[best]),
        init_fidelity_up=(None if hists.init_match_up is None
                          else hists.init_match_up / len(up)),
        init_fidelity_down=(None if hists.init_match_down is None
                            else hists.init_match_down / len(down)),
        optimal_threshold=(int(values[0]) if best == 0 else int(values[best - 1]) + 1),
        threshold_curve=curve,
        n_pairs_up=len(up),
        n_pairs_down=len(down),
        low_statistics=hists.low_statistics,
    )


@dataclass(frozen=True)
class JumpRecord:
    """Causal hysteresis classification of a photon trace.

    ``states[i]`` is +1/-1 once a threshold has been crossed, 0 before the
    first crossing.  ``dwells_up``/``dwells_down`` are run lengths in points;
    the first and last runs touch the trace boundary and are flagged censored.
    """

    states: np.ndarray
    dwells_up: np.ndarray
    dwells_down: np.ndarray
    dwells_up_censored: np.ndarray
    dwells_down_censored: np.ndarray
    jump_indices: np.ndarray


def detect_jumps(trace: PhotonTrace, policy: ThresholdPolicy) -> JumpRecord:
    """Hysteresis two-threshold classifier: enter up above ``init_high``,
    enter down below ``init_low``, hold the current state otherwise."""
    counts = trace.points
    if len(counts) == 0:
        raise ValueError("trace must be nonempty")
    labels = policy.classify(counts)
    declared = np.flatnonzero(labels)
    # a run starts at each declaring point whose label differs from the last
    starts = declared[np.diff(labels[declared], prepend=0) != 0]
    run_states = labels[starts]
    spans = np.diff(starts, prepend=0, append=len(labels))
    # forward-fill: undeclared up to the first run, then each run's label
    states = np.repeat(np.append(np.int8(0), run_states), spans)
    lengths = spans[1:]
    # the first and last runs touch the trace boundary
    interior = np.zeros(len(starts), dtype=bool)
    interior[1:-1] = True
    up = run_states == 1
    return JumpRecord(
        states=states,
        dwells_up=lengths[interior & up],
        dwells_down=lengths[interior & ~up],
        dwells_up_censored=lengths[~interior & up],
        dwells_down_censored=lengths[~interior & ~up],
        jump_indices=starts[1:],
    )


@dataclass(frozen=True)
class T1nEstimate:
    t1n_up: float
    t1n_down: float
    ci_up: tuple
    ci_down: tuple


def estimate_t1n(
    dwells_up: np.ndarray,
    dwells_down: np.ndarray,
    point_duration: float,
) -> T1nEstimate:
    """Exponential maximum-likelihood lifetimes from interior dwell times.

    Boundary (censored) dwells must already be excluded.  For an exponential
    the MLE of the mean is the sample mean; the 95% confidence interval uses
    the standard error mean/sqrt(n).
    """
    results = []
    for dw in (dwells_up, dwells_down):
        dw = np.asarray(dw, dtype=float)
        if len(dw) < 10:
            raise ValueError("need at least 10 interior dwells per state")
        mean = dw.mean() * point_duration
        sem = mean / np.sqrt(len(dw))
        results.append((mean, (mean - 1.96 * sem, mean + 1.96 * sem)))
    (t_up, ci_up), (t_dn, ci_dn) = results
    return T1nEstimate(t1n_up=t_up, t1n_down=t_dn, ci_up=ci_up, ci_down=ci_dn)


@dataclass(frozen=True)
class HyperfineFit:
    """Best-fit frame components (rad/s) with the residual 2-norm."""

    a_par: float
    a_perp: float
    residual: float
    degenerate: bool
    n_starts: int


def _fit_cells(curves):
    """Every curve's (N, tau) cells as one flat (pulse numbers, taus) list,
    in the order of the curves' concatenated values."""
    n_pulses = np.concatenate([
        np.full(len(c.values), c.n_pulses) if c.axis == "tau"
        else c.abscissa.astype(int) for c in curves])
    taus = np.concatenate([
        c.abscissa if c.axis == "tau" else np.full(len(c.values), c.tau)
        for c in curves])
    return n_pulses, taus


def _fit_model_values(params, cells, fieldcfg, consts, propagator_mode="exact"):
    """Forward model of ``fit_hyperfine`` for a (P, 2) array of (a_par, a_perp)
    at the (pulse numbers, taus) ``cells`` of ``_fit_cells``.

    Returns the model's values for each row, shape (P, M), and the (P,) mask
    of rows that realise a frame (a_perp < 2 gamma_n B and omega >=
    ``DEGENERATE_OMEGA``); the other rows are NaN.  One kernel call covers
    every row and every cell, in blocks of at most ``_FIT_BLOCK_CELLS``
    (row, cell) pairs.
    """
    params = np.asarray(params, dtype=float)
    a_vecs, _, valid = _frame_component_vectors(params[:, 0], params[:, 1],
                                                fieldcfg, consts)
    n_pulses, taus = cells
    values = np.full((len(params), len(taus)), np.nan)
    rows = np.flatnonzero(valid)
    step = max(1, _FIT_BLOCK_CELLS // len(taus))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        values[block] = _coherence_rows(a_vecs[block], fieldcfg, n_pulses, taus,
                                        propagator_mode, consts)
    return values, valid


#: Local refinements of ``fit_hyperfine``: tolerances on the relative change
#: of the cost and of the parameters, and (scipy's defaults for two
#: parameters) on the gradient scaled by the distance to the bound it points
#: at, and the cap on evaluations per start.
_FTOL = _XTOL = 1e-12
_GTOL = 1e-8
_MAX_NFEV = 200
_EPS = np.finfo(float).eps

# The solver below is scipy's bounded trust-region reflective solver
# (``scipy.optimize``'s "trf" method with its exact trust-region solver)
# with the starts on a leading axis.  Each row takes the same arithmetic in
# the same order, reductions included: row-wise dot and matrix-vector
# products go through ``@`` on stacked arrays, which makes one BLAS call per
# row as ``np.dot`` does, and the SVD is LAPACK's per matrix.  On decoupled
# data the finite-difference Jacobian is rounding noise at the 1e-4 level,
# so any other rounding sends a start to another point of the flat valley.


def _matvec(mats, vecs):
    """(L, r, c) matrices times (L, c) vectors."""
    return (mats @ vecs[:, :, None])[:, :, 0]


def _pow(a, e):
    """``a ** e`` per element with the C library's ``pow``, as numpy computes
    it for a scalar (array powers round some values differently)."""
    return np.array([x ** e for x in a.tolist()])


def _scaling(x, g, lb, ub):
    """Coleman-Li scaling v: the distance to the bound each gradient
    component points at (1 where it is zero), and dv/dx."""
    v = np.where(g < 0.0, ub - x, np.where(g > 0.0, x - lb, 1.0))
    return v, np.where(g < 0.0, -1.0, np.where(g > 0.0, 1.0, 0.0))


def _secular(alpha, suf, s, delta):
    """|p(α)| - delta and its derivative in α, p(α) the regularised step."""
    denom = s ** 2 + alpha[:, None]
    p_norm = _row_norm(suf / denom)
    return p_norm - delta, -np.sum(suf ** 2 / denom ** 3, axis=1) / p_norm


def _trust_region_steps(uf, s, v, delta, alpha, m):
    """Each row's step p minimising |f + J p| subject to |p| <= ``delta``,
    from the SVD J = U diag(``s``) Vᵀ of its augmented Jacobian (``v`` = V)
    and ``uf`` = Uᵀ f: the Gauss-Newton step where J has full rank and the
    step fits, else up to 10 Newton steps from ``alpha`` on the secular
    equation |p(α)| = delta for the Levenberg-Marquardt parameter α (Moré &
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).  Returns the steps
    and each row's α, 0 for a Gauss-Newton step."""
    full_rank = s[:, -1] > _EPS * m * s[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = -_matvec(v, uf / s)
    fits = full_rank & (_row_norm(steps) <= delta)
    alpha = np.where(fits, 0.0, alpha)
    i = np.flatnonzero(~fits)
    if not len(i):
        return steps, alpha
    suf, s, v, delta, full_rank = s[i] * uf[i], s[i], v[i], delta[i], full_rank[i]
    up = _row_norm(suf) / delta
    with np.errstate(divide="ignore", invalid="ignore"):
        phi, dphi = _secular(np.zeros_like(delta), suf, s, delta)
    lo = np.where(full_rank, -phi / dphi, 0.0)
    al = alpha[i]
    reset = ~full_rank & (al == 0.0)
    al[reset] = np.maximum(0.001 * up[reset], _pow(lo[reset] * up[reset], 0.5))
    active = np.ones(len(i), dtype=bool)
    for _ in range(10):
        out = active & ((al < lo) | (al > up))
        al[out] = np.maximum(0.001 * up[out], _pow(lo[out] * up[out], 0.5))
        phi, dphi = _secular(al, suf, s, delta)
        up = np.where(active & (phi < 0.0), al, up)
        ratio = phi / dphi
        lo = np.where(active, np.maximum(lo, al - ratio), lo)
        al = np.where(active, al - (phi + delta) * ratio / delta, al)
        active &= ~(np.abs(phi) < 0.01 * delta)
        if not active.any():
            break
    p = -_matvec(v, suf / (s ** 2 + al[:, None]))
    steps[i] = p * (delta / _row_norm(p))[:, None]
    alpha[i] = al
    return steps, alpha


def _to_bound(x, s, lb, ub):
    """Each row's largest multiple of ``s`` that keeps x within [lb, ub],
    and the components that reach a bound there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(s != 0.0, np.maximum((lb - x) / s, (ub - x) / s), np.inf)
    least = np.min(steps, axis=1)
    return least, (steps == least[:, None]) & (s != 0.0)


def _model_value(jh, gh, diag, s):
    """The quadratic model ½ sᵀ(JᵀJ + diag) s + gᵀs of each row."""
    js = _matvec(jh, s)
    return 0.5 * (_row_dot(js, js) + _row_dot(s * diag, s)) + _row_dot(s, gh)


def _line_model(jh, gh, diag, s, s0):
    """(a, b, c) of the quadratic model a t² + b t + c along s0 + t s."""
    v, u = _matvec(jh, s), _matvec(jh, s0)
    a = _row_dot(v, v)
    a += _row_dot(s * diag, s)
    a *= 0.5
    b = _row_dot(gh, s)
    b += _row_dot(u, v)
    c = 0.5 * _row_dot(u, u) + _row_dot(gh, s0)
    b += _row_dot(s0 * diag, s)
    c += 0.5 * _row_dot(s0 * diag, s0)
    return a, b, c


def _line_minimum(a, b, lo, hi, c):
    """Each row's minimising t of a t² + b t + c on [lo, hi], and the value."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ext = -0.5 * b / a
    t = np.stack([lo, hi, ext], axis=1)
    y = t * (a[:, None] * t + b[:, None]) + c[:, None]
    y[:, 2] = np.where((a != 0.0) & (lo < ext) & (ext < hi), y[:, 2], np.inf)
    k = np.argmin(y, axis=1)
    rows = np.arange(len(a))
    return t[rows, k], y[rows, k]


def _select_steps(x, jh, diag, gh, p, ph, d, delta, lb, ub, theta):
    """The steps, scaled steps and predicted reductions of each row: the
    trust-region step where it stays within the bounds, else the best of it
    cut back to a fraction ``theta`` of the way to the bound, its reflection
    there and the scaled anti-gradient step (Branch, Coleman & Li, SIAM J.
    Sci. Comput. 21, 1 (1999))."""
    step, step_h = p.copy(), ph.copy()
    value = _model_value(jh, gh, diag, ph)
    o = np.flatnonzero(~np.all((x + p >= lb) & (x + p <= ub), axis=1))
    if not len(o):
        return step, step_h, -value
    x, jh, diag, gh, p, ph, d, delta, theta = (
        x[o], jh[o], diag[o], gh[o], p[o], ph[o], d[o], delta[o], theta[o])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_stride, hits = _to_bound(x, p, lb, ub)
        rh = np.where(hits, -ph, ph)
        p, ph = p * p_stride[:, None], ph * p_stride[:, None]
        # the reflected direction's stride to the trust-region boundary
        qa, qb = _row_dot(rh, rh), _row_dot(ph, rh)
        qc = _row_dot(ph, ph) - _pow(delta, 2)
        q = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
        to_tr = np.maximum(q / qa, qc / q)
        to_bound, _ = _to_bound(x + p, d * rh, lb, ub)
        r_stride = np.minimum(to_bound, to_tr)
        pos = r_stride > 0
        r_lo = np.where(pos, (1 - theta) * p_stride / r_stride, 0.0)
        r_hi = np.where(pos, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0)
        ok = r_lo <= r_hi
        a, b, c = _line_model(jh, gh, diag, rh, ph)
        t, r_value = _line_minimum(a, b, np.where(ok, r_lo, 0.0),
                                   np.where(ok, r_hi, 0.0), c)
        r_value[~ok] = np.inf
        rh = rh * t[:, None] + ph
        p, ph = p * theta[:, None], ph * theta[:, None]
        p_value = _model_value(jh, gh, diag, ph)
        agh = -gh
        ag = d * agh
        to_tr = delta / _row_norm(agh)
        to_bound, _ = _to_bound(x, ag, lb, ub)
        a, b, _ = _line_model(jh, gh, diag, agh, np.zeros_like(agh))
        t, ag_value = _line_minimum(a, b, np.zeros_like(a),
                                    np.where(to_bound < to_tr, theta * to_bound, to_tr),
                                    np.zeros_like(a))
    agh, ag = agh * t[:, None], ag * t[:, None]
    use_p = (p_value < r_value) & (p_value < ag_value)
    use_r = ~use_p & (r_value < p_value) & (r_value < ag_value)
    step[o] = np.where(use_p[:, None], p, np.where(use_r[:, None], rh * d, ag))
    step_h[o] = np.where(use_p[:, None], ph, np.where(use_r[:, None], rh, agh))
    value[o] = np.where(use_p, p_value, np.where(use_r, r_value, ag_value))
    return step, step_h, -value


def _refine(starts, residuals, lb, ub):
    """Bounded trust-region least squares of ``residuals``, which maps (P, 2)
    parameter points to (P, M) finite rows, from every start at once;
    returns the final (S, 2) parameters and (S, M) residuals.

    Each iteration evaluates every live start's trial point and its two
    forward-difference points (scipy's 2-point steps) in one call, so an
    accepted step comes with its Jacobian.  The region is scaled by the root
    of the distance to the bound each gradient component points at, with
    the gradient's magnitude on the diagonal of the model (Coleman & Li,
    SIAM J. Optim. 6, 418 (1996)); iterates stay strictly inside
    [``lb``, ``ub``].  A step that lowers the cost is taken; the radius
    shrinks to a quarter of a step that gains under a quarter of its
    predicted reduction and doubles after a boundary step that gains over
    three quarters of it.  Every operation acts on each start's own
    entries, so a start's path does not depend on the others."""
    x = np.array(starts, dtype=float)

    def evaluate(points):
        # (L, 2) points -> residuals (L, M) and Jacobians transposed (L, 2, M)
        h = np.sqrt(_EPS) * np.maximum(1.0, np.abs(points))
        h = np.where(points + h > ub, -h, h)
        shifted = points[:, None, :] + h[:, None, :] * np.eye(2)
        rows = residuals(np.concatenate([points[:, None], shifted], axis=1)
                         .reshape(-1, 2)).reshape(len(points), 3, -1)
        dx = shifted[:, [0, 1], [0, 1]] - points
        return rows[:, 0], (rows[:, 1:] - rows[:, :1]) / dx[:, :, None]

    f, jt = evaluate(x)
    m = f.shape[1]
    cost = 0.5 * _row_dot(f, f)
    g = _matvec(jt, f)
    delta = _row_norm(x / _scaling(x, g, lb, ub)[0] ** 0.5)
    delta[delta == 0.0] = 1.0
    alpha, nfev = np.zeros(len(x)), np.ones(len(x))
    live = np.ones(len(x), dtype=bool)
    while True:
        v, dv = _scaling(x, g, lb, ub)
        g_norm = np.max(np.abs(g * v), axis=1)
        live &= ~(g_norm < _GTOL) & (nfev < _MAX_NFEV)
        k = np.flatnonzero(live)
        if not len(k):
            return x, f
        d = v[k] ** 0.5
        diag = g[k] * dv[k]
        # the Jacobian in the scaled variables over the rows of diag ** 0.5
        aug = np.zeros((len(k), m + 2, 2))
        aug[:, :m] = jt[k].transpose(0, 2, 1) * d[:, None, :]
        aug[:, m, 0], aug[:, m + 1, 1] = diag[:, 0] ** 0.5, diag[:, 1] ** 0.5
        u, s, vt = np.linalg.svd(aug, full_matrices=False)
        f_aug = np.zeros((len(k), m + 2))
        f_aug[:, :m] = f[k]
        uf = _matvec(np.ascontiguousarray(u.transpose(0, 2, 1)), f_aug)
        ph, alpha[k] = _trust_region_steps(
            uf, s, np.ascontiguousarray(vt.transpose(0, 2, 1)), delta[k], alpha[k], m)
        step, step_h, predicted = _select_steps(
            x[k], aug[:, :m], diag, d * g[k], d * ph, ph, d, delta[k], lb, ub,
            np.maximum(0.995, 1 - g_norm[k]))
        x_new = x[k] + step
        x_new = np.where(x_new <= lb, np.nextafter(lb, ub), x_new)
        x_new = np.where(x_new >= ub, np.nextafter(ub, lb), x_new)
        f_new, jt_new = evaluate(x_new)
        nfev[k] += 1
        s_norm = _row_norm(step_h)
        cost_new = 0.5 * _row_dot(f_new, f_new)
        actual = cost[k] - cost_new
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(predicted > 0.0, actual / predicted,
                             ((predicted == 0.0) & (actual == 0.0)).astype(float))
        radius = np.where(ratio < 0.25, 0.25 * s_norm,
                          np.where((ratio > 0.75) & (s_norm > 0.95 * delta[k]),
                                   delta[k] * 2.0, delta[k]))
        stop = (((actual < _FTOL * cost[k]) & (ratio > 0.25))
                | (_row_norm(step) < _XTOL * (_XTOL + _row_norm(x[k]))))
        go = k[~stop]
        alpha[go] *= delta[go] / radius[~stop]
        delta[go] = radius[~stop]
        live[k[stop]] = False
        better = actual > 0.0
        kb = k[better]
        x[kb], f[kb], jt[kb], cost[kb] = (x_new[better], f_new[better],
                                          jt_new[better], cost_new[better])
        g[kb] = _matvec(jt[kb], f[kb])


def fit_hyperfine(
    curves: Sequence[CoherenceCurve],
    fieldcfg: FieldConfig,
    n_grid: int = 20,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineFit:
    """Recover (a_par, a_perp) from coherence scans by least squares.

    An ``n_grid`` x ``n_grid`` coarse grid over ``_FIT_GRID``, evaluated in
    one batched forward-model call, seeds local refinements from the best
    handful of starts (least squares on the forward model that produced the
    curves, their common ``propagator_mode``; curves of different modes are
    refused).  One bounded trust-region solver refines all starts together,
    one batched forward-model call per iteration (``_refine``), taking the
    path of scipy's bounded "trf" least-squares solver from each start.
    Ties in the final residual break toward the lexicographically smallest
    (a_par, a_perp).  A fit whose residual is insensitive to a_par
    (decoupled data) is flagged degenerate instead of reporting a spurious
    parallel coupling.  Non-finite curve values or abscissae are refused.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one coherence curve")
    if n_grid < 1:
        raise ValueError("n_grid must be >= 1")
    for c in curves:
        if c.axis == "tau" and c.n_pulses is None:
            raise ValueError("tau-scan curve is missing its pulse number")
        if c.axis == "n" and c.tau is None:
            raise ValueError("N-scan curve is missing its tau")
    modes = sorted({c.propagator_mode for c in curves})
    if len(modes) > 1:
        raise ValueError(f"curves come from different propagator modes {modes}")
    propagator_mode = modes[0]
    data = np.concatenate([c.values for c in curves])
    cells = _fit_cells(curves)
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(cells[1]))):
        raise ValueError("curve values and abscissae must be finite")

    def residual_rows(model, valid):
        # in place; a point that realises no frame scores 1e3 in every cell
        model -= data
        model[~valid] = 1e3
        return model

    def residuals(points):
        return residual_rows(*_fit_model_values(points, cells, fieldcfg, consts,
                                                propagator_mode))

    lo, hi = _FIT_GRID
    grid = np.linspace(lo, hi, n_grid)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    coarse = sorted(
        (float(np.linalg.norm(r)), ap, at)
        for r, (ap, at) in zip(residuals(points), points))
    starts = [(ap, at) for _, ap, at in coarse[:5]]
    x, f = _refine(starts, residuals, lo / 10.0, hi * 2.0)
    res_norm, a_par, a_perp = min(
        (float(np.linalg.norm(r)), float(ap), float(at)) for r, (ap, at) in zip(f, x))
    # Identifiability: if the fitted model is flat (decoupled-spin data) the
    # parallel component never enters the signal, so any a_par value is as
    # good as another; flag instead of reporting a spurious coupling.  Also
    # probe a_par directly in case the residual is insensitive to it.
    probe = max(abs(a_par) * 0.1, 0.01 * lo)
    model, valid = _fit_model_values(
        [(a_par, a_perp), (a_par + probe, a_perp),
         (max(a_par - probe, lo / 10.0), a_perp)],
        cells, fieldcfg, consts, propagator_mode)
    flat = bool(valid[0]) and float(np.max(np.abs(model[0] - 1.0))) < 1e-3
    r_plus, r_minus = (np.linalg.norm(r)
                       for r in residual_rows(model[1:], valid[1:]))
    insensitive = (max(r_plus, r_minus) - res_norm) < 1e-8 * max(1.0, res_norm)
    degenerate = bool(flat or insensitive)
    return HyperfineFit(a_par=a_par, a_perp=a_perp, residual=res_norm,
                        degenerate=degenerate, n_starts=len(starts))


def report_payload(report: FidelityReport) -> dict:
    """The fields of ``report`` as JSON-ready values."""
    return {
        "fidelity_up": report.fidelity_up,
        "fidelity_down": report.fidelity_down,
        "init_fidelity_up": report.init_fidelity_up,
        "init_fidelity_down": report.init_fidelity_down,
        "optimal_threshold": report.optimal_threshold,
        "n_pairs_up": report.n_pairs_up,
        "n_pairs_down": report.n_pairs_down,
        "low_statistics": report.low_statistics,
        "threshold_curve": report.threshold_curve.tolist(),
    }


def report_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    a ``report_payload`` with any other keys added.  The threshold curve,
    rows of finite floats whose JSON is their repr, is formatted in one
    ``%r`` pass rather than by json's indenting encoder, which runs in pure
    Python, one value at a time."""
    curve = payload["threshold_curve"]
    text = json.dumps({**payload, "threshold_curve": []}, indent=2,
                      sort_keys=True)
    if not curve:
        return text
    row = "\n    [\n" + ",\n".join(["      %r"] * len(curve[0])) + "\n    ]"
    rows = ",".join([row] * len(curve)) % tuple(chain.from_iterable(curve))
    # a string value holds its quotes escaped, so only the key matches
    return text.replace('"threshold_curve": []',
                        f'"threshold_curve": [{rows}\n  ]', 1)


def histograms_to_csv(hists: ConditionalHistograms, path) -> None:
    """Write (count, freq_up, freq_down) rows for each count that occurs."""
    with open(path, "w") as fh:
        fh.write("count,freq_up,freq_down\n")
        _write_rows(fh, hists.count_table)
