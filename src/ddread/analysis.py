"""Trace statistics (histograms, thresholds, fidelity, jumps, T1) and the
hyperfine fit.

Everything here consumes immutable traces or curves and returns plain result
objects; nothing mutates its inputs, so all functions are safe to call
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coherence import CoherenceCurve, _coherence_rows
from .measurement import PhotonTrace
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    PhysicalConstants,
    _frame_component_vectors,
)

LOW_STATISTICS_PAIRS = 100

#: Most (row, cell) pairs of the fit's forward model per kernel call.  The
#: kernel's temporaries grow with rows x cells, so a large grid on long scans
#: is evaluated in blocks of rows; an 8 x 8 grid on a 49-cell tau and N scan
#: is one block.
_FIT_BLOCK_CELLS = 1 << 12


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
    """Scan every candidate threshold and report the max-min optimum."""
    up, down = hists.samples_up, hists.samples_down
    if len(up) == 0 or len(down) == 0:
        raise ValueError("both conditional histograms must be nonempty")
    lo = int(min(up.min(), down.min()))
    hi = int(max(up.max(), down.max())) + 1
    thresholds = np.arange(lo, hi + 1)
    # below(x)[k]: how many samples of x lie under thresholds[k]
    def below(x):
        return np.concatenate(
            ([0], np.cumsum(np.bincount(x - lo, minlength=hi - lo))))
    f_up = (len(up) - below(up)) / len(up)
    f_down = below(down) / len(down)
    f_avg = (f_up + f_down) / 2.0
    best = int(np.argmax(np.minimum(f_up, f_down)))
    curve = np.column_stack([thresholds.astype(float), f_up, f_down, f_avg])
    return FidelityReport(
        fidelity_up=float(f_up[best]),
        fidelity_down=float(f_down[best]),
        init_fidelity_up=(None if hists.init_match_up is None
                          else hists.init_match_up / len(up)),
        init_fidelity_down=(None if hists.init_match_down is None
                            else hists.init_match_down / len(down)),
        optimal_threshold=int(thresholds[best]),
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
    n_dwells_up: int
    n_dwells_down: int


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
        results.append((mean, (mean - 1.96 * sem, mean + 1.96 * sem), len(dw)))
    (t_up, ci_up, n_up), (t_dn, ci_dn, n_dn) = results
    return T1nEstimate(t1n_up=t_up, t1n_down=t_dn, ci_up=ci_up, ci_down=ci_dn,
                       n_dwells_up=n_up, n_dwells_down=n_dn)


@dataclass(frozen=True)
class HyperfineFit:
    """Best-fit frame components (rad/s) with the residual 2-norm."""

    a_par: float
    a_perp: float
    residual: float
    degenerate: bool
    n_starts: int


def _fit_model_values(params, curves, fieldcfg, consts, propagator_mode="exact"):
    """Forward model of ``fit_hyperfine`` for a (P, 2) array of (a_par, a_perp).

    Returns the curves' concatenated values for each row, shape (P, M), and
    the (P,) mask of rows that realise a frame (a_perp < 2 gamma_n B and
    omega >= ``DEGENERATE_OMEGA``); the other rows are NaN.  Every curve's
    (N, tau) cells are flattened into one list, so one kernel call covers
    every row and every curve, in blocks of at most ``_FIT_BLOCK_CELLS``
    cells.
    """
    params = np.asarray(params, dtype=float)
    a_vecs, _, valid = _frame_component_vectors(params[:, 0], params[:, 1],
                                                fieldcfg, consts)
    n_pulses = np.concatenate([
        np.full(len(c.values), c.n_pulses) if c.axis == "tau"
        else c.abscissa.astype(int) for c in curves])
    taus = np.concatenate([
        c.abscissa if c.axis == "tau" else np.full(len(c.values), c.tau)
        for c in curves])
    values = np.full((len(params), len(taus)), np.nan)
    rows = np.flatnonzero(valid)
    step = max(1, _FIT_BLOCK_CELLS // len(taus))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        values[block] = _coherence_rows(a_vecs[block], fieldcfg, n_pulses, taus,
                                        propagator_mode, consts)
    return values, valid


def fit_hyperfine(
    curves: Sequence[CoherenceCurve],
    fieldcfg: FieldConfig,
    n_grid: int = 20,
    grid_range: tuple = (2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6),
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineFit:
    """Recover (a_par, a_perp) from coherence scans by least squares.

    An ``n_grid`` x ``n_grid`` coarse grid over ``grid_range``, evaluated in
    one batched forward-model call, seeds local refinements from the best
    handful of starts (trust-region least squares on the forward model
    that produced the curves, their common ``propagator_mode``; curves of
    different modes are refused; each finite-difference Jacobian is one
    batched call too); ties in the final residual break
    toward the lexicographically smallest (a_par, a_perp).  A fit whose
    residual is insensitive to a_par (decoupled data) is flagged degenerate
    instead of reporting a spurious parallel coupling.
    """
    from scipy.optimize import least_squares

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

    def residual_rows(model, valid):
        # in place; a point that realises no frame scores 1e3 in every cell
        model -= data
        model[~valid] = 1e3
        return model

    def residuals(points):
        return residual_rows(*_fit_model_values(points, curves, fieldcfg, consts,
                                                propagator_mode))

    def residual_vec(params):
        return residuals([params])[0]

    def jacobian_points(_fun, points):
        # least_squares maps its residual function (_fun) over the shifted
        # points of a finite-difference Jacobian with this; one batched call
        # gives the same rows
        return residuals(list(points))

    lo, hi = grid_range
    grid = np.linspace(lo, hi, n_grid)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    coarse = sorted(
        (float(np.linalg.norm(r)), ap, at)
        for r, (ap, at) in zip(residuals(points), points))

    best = None
    n_starts = 0
    for norm0, ap, at in coarse[:5]:
        n_starts += 1
        sol = least_squares(
            residual_vec, x0=[ap, at],
            bounds=([lo / 10.0, lo / 10.0], [hi * 2.0, hi * 2.0]),
            xtol=1e-12, ftol=1e-12, workers=jacobian_points,
        )
        key = (float(np.linalg.norm(sol.fun)), float(sol.x[0]), float(sol.x[1]))
        if best is None or key < best:
            best = key
    res_norm, a_par, a_perp = best
    # Identifiability: if the fitted model is flat (decoupled-spin data) the
    # parallel component never enters the signal, so any a_par value is as
    # good as another; flag instead of reporting a spurious coupling.  Also
    # probe a_par directly in case the residual is insensitive to it.
    probe = max(abs(a_par) * 0.1, 0.01 * lo)
    model, valid = _fit_model_values(
        [(a_par, a_perp), (a_par + probe, a_perp),
         (max(a_par - probe, lo / 10.0), a_perp)],
        curves, fieldcfg, consts, propagator_mode)
    flat = bool(valid[0]) and float(np.max(np.abs(model[0] - 1.0))) < 1e-3
    r_plus, r_minus = (np.linalg.norm(r)
                       for r in residual_rows(model[1:], valid[1:]))
    insensitive = (max(r_plus, r_minus) - res_norm) < 1e-8 * max(1.0, res_norm)
    degenerate = bool(flat or insensitive)
    return HyperfineFit(a_par=a_par, a_perp=a_perp, residual=res_norm,
                        degenerate=degenerate, n_starts=n_starts)


def report_to_json(report: FidelityReport) -> str:
    payload = {
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
    return json.dumps(payload, indent=2, sort_keys=True)


def histograms_to_csv(hists: ConditionalHistograms, path) -> None:
    """Write (count, freq_up, freq_down) rows over the union count range."""
    up, down = hists.samples_up, hists.samples_down
    n_bins = int(max(up.max(initial=0), down.max(initial=0))) + 1
    freq_up = np.bincount(up, minlength=n_bins)
    freq_down = np.bincount(down, minlength=n_bins)
    with open(path, "w") as fh:
        fh.write("count,freq_up,freq_down\n")
        for c in np.flatnonzero(freq_up + freq_down):
            fh.write(f"{c},{freq_up[c]},{freq_down[c]}\n")
