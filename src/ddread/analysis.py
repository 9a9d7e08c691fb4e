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

from .coherence import CoherenceCurve, _bath_curve_tau
from .measurement import PhotonTrace
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    PhysicalConstants,
    spin_from_frame_components,
)

LOW_STATISTICS_PAIRS = 100


@dataclass(frozen=True)
class ThresholdPolicy:
    """Dual initialization thresholds plus a single readout threshold.

    A point strictly above ``init_high`` prepares/declares the bright ("up")
    state; strictly below ``init_low`` the dark ("down") state.  Between the
    two nothing is declared.
    """

    init_low: int = 2300
    init_high: int = 2520
    readout_threshold: int = 2400

    def __post_init__(self):
        if min(self.init_low, self.init_high, self.readout_threshold) < 0:
            raise ValueError("thresholds must be non-negative")
        if self.init_high < self.init_low:
            raise ValueError("init_high must be >= init_low")


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
    prep_up, prep_down = [], []
    i = 0
    while i < len(counts) - 1:
        c = counts[i]
        if c > policy.init_high:
            prep_up.append(i)
            i += 2
        elif c < policy.init_low:
            prep_down.append(i)
            i += 2
        else:
            i += 1
    prep_up = np.asarray(prep_up, dtype=np.intp)
    prep_down = np.asarray(prep_down, dtype=np.intp)
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
    f_up = np.array([(up >= th).mean() for th in thresholds])
    f_down = np.array([(down < th).mean() for th in thresholds])
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
    states = np.zeros(len(counts), dtype=np.int8)
    cur = 0
    for i, c in enumerate(counts):
        if c > policy.init_high:
            cur = 1
        elif c < policy.init_low:
            cur = -1
        states[i] = cur
    defined = states != 0
    jump_idx = []
    dwells = {1: [], -1: []}
    censored = {1: [], -1: []}
    idx = np.nonzero(defined)[0]
    if len(idx) > 0:
        run_state = states[idx[0]]
        run_len = 0
        first_run = True
        for i in idx:
            if states[i] == run_state:
                run_len += 1
            else:
                (censored if first_run else dwells)[int(run_state)].append(run_len)
                first_run = False
                jump_idx.append(i)
                run_state = states[i]
                run_len = 1
        # final run always touches the boundary
        censored[int(run_state)].append(run_len)
    return JumpRecord(
        states=states,
        dwells_up=np.asarray(dwells[1], dtype=np.int64),
        dwells_down=np.asarray(dwells[-1], dtype=np.int64),
        dwells_up_censored=np.asarray(censored[1], dtype=np.int64),
        dwells_down_censored=np.asarray(censored[-1], dtype=np.int64),
        jump_indices=np.asarray(jump_idx, dtype=np.int64),
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


def _fit_model_values(a_par, a_perp, curves, fieldcfg, consts,
                      propagator_mode="exact"):
    try:
        spin = spin_from_frame_components(a_par, a_perp, fieldcfg, consts)
    except ValueError:
        return None
    out = []
    for curve in curves:
        if curve.axis == "tau":
            n_pulses, taus = curve.n_pulses, curve.abscissa
        else:
            n_pulses, taus = curve.abscissa.astype(int), curve.tau
        out.append(_bath_curve_tau([spin], fieldcfg, n_pulses, taus,
                                   propagator_mode, consts))
    return np.concatenate(out)


def fit_hyperfine(
    curves: Sequence[CoherenceCurve],
    fieldcfg: FieldConfig,
    n_grid: int = 20,
    grid_range: tuple = (2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6),
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineFit:
    """Recover (a_par, a_perp) from coherence scans by least squares.

    A 20x20 coarse grid over ``grid_range`` seeds local refinements from the
    best handful of starts (trust-region least squares on the forward model
    that produced the curves, their common ``propagator_mode``; curves of
    different modes are refused); ties in the final residual break
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

    def residual_vec(params):
        model = _fit_model_values(params[0], params[1], curves, fieldcfg, consts,
                                  propagator_mode)
        if model is None:
            return np.full(len(data), 1e3)
        return model - data

    lo, hi = grid_range
    grid = np.linspace(lo, hi, n_grid)
    coarse = []
    for ap in grid:
        for at in grid:
            r = residual_vec((ap, at))
            coarse.append((float(np.linalg.norm(r)), ap, at))
    coarse.sort(key=lambda t: (t[0], t[1], t[2]))

    best = None
    n_starts = 0
    for norm0, ap, at in coarse[:5]:
        n_starts += 1
        sol = least_squares(
            residual_vec, x0=[ap, at],
            bounds=([lo / 10.0, lo / 10.0], [hi * 2.0, hi * 2.0]),
            xtol=1e-12, ftol=1e-12,
        )
        key = (float(np.linalg.norm(sol.fun)), float(sol.x[0]), float(sol.x[1]))
        if best is None or key < best:
            best = key
    res_norm, a_par, a_perp = best
    # Identifiability: if the fitted model is flat (decoupled-spin data) the
    # parallel component never enters the signal, so any a_par value is as
    # good as another; flag instead of reporting a spurious coupling.  Also
    # probe a_par directly in case the residual is insensitive to it.
    model = _fit_model_values(a_par, a_perp, curves, fieldcfg, consts,
                              propagator_mode)
    flat = model is not None and float(np.max(np.abs(model - 1.0))) < 1e-3
    probe = max(abs(a_par) * 0.1, 0.01 * lo)
    r_plus = np.linalg.norm(residual_vec((a_par + probe, a_perp)))
    r_minus = np.linalg.norm(residual_vec((max(a_par - probe, lo / 10.0), a_perp)))
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
    lo = int(min(hists.samples_up.min(initial=0),
                 hists.samples_down.min(initial=0)))
    hi = int(max(hists.samples_up.max(initial=0),
                 hists.samples_down.max(initial=0)))
    with open(path, "w") as fh:
        fh.write("count,freq_up,freq_down\n")
        for c in range(lo, hi + 1):
            fu = int((hists.samples_up == c).sum())
            fd = int((hists.samples_down == c).sum())
            if fu or fd:
                fh.write(f"{c},{fu},{fd}\n")
