"""Trace statistics (histograms, thresholds, fidelity, jumps, T1) and the
hyperfine fit.

Everything here consumes immutable traces or curves and returns plain result
objects; nothing mutates its inputs, so all functions are safe to call
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
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
#: low end and twice its high end, and a_perp below 2 gamma_n B.
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
        # refused unless in range, so that NaN, which declares nothing, fails
        if not (self.init_low >= 0 and self.init_high >= 0):
            raise ValueError("thresholds must be non-negative")
        if not self.init_high >= self.init_low:
            raise ValueError("init_high must be >= init_low")

    def declared(self, counts: np.ndarray) -> tuple:
        """Masks of the counts that declare up and of those that declare
        down; the two never overlap."""
        return counts > self.init_high, counts < self.init_low


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
    up, down = policy.declared(counts[:-1])
    qualifying = np.flatnonzero(up | down)
    k = np.arange(len(qualifying))
    run_first = np.where(np.diff(qualifying, prepend=-2) != 1, k, 0)
    prep = qualifying[((k - np.maximum.accumulate(run_first)) & 1) == 0]
    prep_is_up = up[prep]
    prep_up, prep_down = prep[prep_is_up], prep[~prep_is_up]
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
    up, down = policy.declared(counts)
    declared = np.flatnonzero(up | down)
    declares_up = up[declared]
    # a run starts at each declaring point whose class differs from the last
    first = np.ones(len(declared), dtype=bool)
    first[1:] = declares_up[1:] != declares_up[:-1]
    starts = declared[first]
    run_up = declares_up[first]
    spans = np.diff(starts, prepend=0, append=len(counts))
    # forward-fill: undeclared up to the first run, then each run's state
    states = np.repeat(np.append(np.int8(0), np.where(run_up, np.int8(1), np.int8(-1))),
                       spans)
    lengths = spans[1:]
    # the first and last runs touch the trace boundary
    interior = np.zeros(len(starts), dtype=bool)
    interior[1:-1] = True
    return JumpRecord(
        states=states,
        dwells_up=lengths[interior & run_up],
        dwells_down=lengths[interior & ~run_up],
        dwells_up_censored=lengths[~interior & run_up],
        dwells_down_censored=lengths[~interior & ~run_up],
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


#: Local refinements of ``fit_hyperfine``: the tolerance on the relative
#: change of the cost and of the parameters, and the cap on evaluations per
#: start.
_FTOL = _XTOL = 1e-12
_MAX_NFEV = 200
_EPS = np.finfo(float).eps


def _refine(starts, residuals, lb, ub):
    """Bounded damped Gauss-Newton least squares of ``residuals``, which maps
    (P, 2) parameter points to (P, M) finite rows, from every start at once;
    returns the final (S, 2) parameters and (S, M) residuals.  ``lb`` and
    ``ub`` bound both parameters or each its own.

    Each iteration evaluates every live start's trial point and its two
    forward-difference points in one call, so an accepted step comes with
    its Jacobian J.  The step solves (JᵀJ + λ diag JᵀJ) p = -Jᵀf
    (Marquardt, SIAM J. Appl. Math. 11, 431 (1963)) in the free components.
    A component is held where its column of J is zero, where the iterate is
    on a bound and the gradient points out of the box, or, until a step is
    taken, where a step that was not taken moved it less than its
    difference step: its gradient is not resolved at that scale (next to
    a square-root edge of the model, say).  Trial points are clipped
    strictly inside [``lb``, ``ub``].  A step that lowers the cost is
    taken; λ starts at 1e-2, grows fourfold after a step that gains under a
    quarter of the reduction the linear model predicts and shrinks
    threefold after one that gains over three quarters of it.  A start
    stops when no component is free, when a step that gains over a quarter
    of its prediction gains under ``_FTOL`` of the cost, when a step moves
    it by under ``_XTOL`` of its norm, or after ``_MAX_NFEV`` evaluations.
    Every operation acts on each start's own entries, so a start's path
    does not depend on the others."""
    x = np.array(starts, dtype=float)
    low, high = np.nextafter(lb, ub), np.nextafter(ub, lb)

    def difference_steps(points):
        return np.sqrt(_EPS) * np.maximum(1.0, np.abs(points))

    def evaluate(points):
        # (L, 2) points -> residuals (L, M), gradients Jᵀf (L, 2), JᵀJ (L, 2, 2)
        h = difference_steps(points)
        h = np.where(points + h > ub, -h, h)
        shifted = points[:, None, :] + h[:, None, :] * np.eye(2)
        rows = residuals(np.concatenate([points[:, None], shifted], axis=1)
                         .reshape(-1, 2)).reshape(len(points), 3, -1)
        dx = shifted[:, [0, 1], [0, 1]] - points
        jt = (rows[:, 1:] - rows[:, :1]) / dx[:, :, None]
        jtj = np.stack([_row_dot(jt, jt[:, :1]), _row_dot(jt, jt[:, 1:])], axis=2)
        return rows[:, 0], _row_dot(jt, rows[:, :1]), jtj

    f, g, jtj = evaluate(x)
    cost = 0.5 * _row_dot(f, f)
    lam, nfev = np.full(len(x), 1e-2), np.ones(len(x))
    live = np.ones(len(x), dtype=bool)
    unresolved = np.zeros(x.shape, dtype=bool)
    while True:
        diag = jtj[:, [0, 1], [0, 1]]
        free = (diag > 0.0) & ~unresolved & ~(((x <= low) & (g > 0.0))
                                              | ((x >= high) & (g < 0.0)))
        live &= free.any(axis=1) & (nfev < _MAX_NFEV)
        k = np.flatnonzero(live)
        if not len(k):
            return x, f
        # the damped normal equations by Cramer's rule; a held component's
        # row and column are the identity's and its gradient is 0
        m00, m11 = np.where(free[k], diag[k] * (1.0 + lam[k, None]), 1.0).T
        m01 = np.where(free[k].all(axis=1), jtj[k, 0, 1], 0.0)
        r0, r1 = np.where(free[k], -g[k], 0.0).T
        det = m00 * m11 - m01 * m01
        # a singular system (J of rank one, λ below rounding) takes no step
        p = np.divide(np.stack([m11 * r0 - m01 * r1, m00 * r1 - m01 * r0], axis=1),
                      det[:, None], out=np.zeros((len(k), 2)), where=det[:, None] > 0.0)
        x_new = np.clip(x[k] + p, low, high)
        step = x_new - x[k]
        s0, s1 = step.T
        predicted = -(g[k, 0] * s0 + g[k, 1] * s1 + 0.5 * (
            jtj[k, 0, 0] * s0 * s0 + 2.0 * jtj[k, 0, 1] * s0 * s1
            + jtj[k, 1, 1] * s1 * s1))
        f_new, g_new, jtj_new = evaluate(x_new)
        nfev[k] += 1
        cost_new = 0.5 * _row_dot(f_new, f_new)
        actual = cost[k] - cost_new
        ratio = np.divide(actual, predicted, out=np.zeros(len(k)),
                          where=predicted > 0.0)
        lam[k] *= np.where(ratio < 0.25, 4.0, np.where(ratio > 0.75, 1.0 / 3.0, 1.0))
        stop = (((actual < _FTOL * cost[k]) & (ratio > 0.25))
                | (np.hypot(s0, s1) < _XTOL * (_XTOL + _row_norm(x[k]))))
        live[k[stop]] = False
        better = actual > 0.0
        unresolved[k] = ~better[:, None] & (
            unresolved[k] | (np.abs(step) < difference_steps(x[k])))
        kb = k[better]
        x[kb], f[kb], g[kb], jtj[kb], cost[kb] = (x_new[better], f_new[better],
                                                  g_new[better], jtj_new[better],
                                                  cost_new[better])


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
    refused).  One bounded damped Gauss-Newton solver refines all starts
    together, one batched forward-model call per iteration (``_refine``), in
    a box whose a_perp side ends at 2 gamma_n B, beyond which a_perp
    realises no frame.  Ties in the final residual break toward the
    lexicographically smallest (a_par, a_perp).  A fit whose residual is
    insensitive to a_par (decoupled data) is flagged degenerate instead of
    reporting a spurious parallel coupling; noise hides that insensitivity
    from the probe, so a noisy decoupled curve can pass unflagged (README).
    Every curve's values, abscissa and tau are finite: ``CoherenceCurve``
    refuses them otherwise.
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
    wall = 2.0 * consts.gamma_n * fieldcfg.b_magnitude
    x, f = _refine(starts, residuals, lo / 10.0,
                   np.array([hi * 2.0, min(hi * 2.0, wall)]))
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
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload["threshold_curve"] = report.threshold_curve.tolist()
    return payload


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
    _write_rows(path, "count,freq_up,freq_down\n", "%d,%d,%d\n", hists.count_table)
