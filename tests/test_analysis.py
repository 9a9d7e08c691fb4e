"""Histograms, thresholds, fidelity curves, jump detection, T1, hyperfine fit."""

import threading

import numpy as np
import pytest

from ddread.analysis import (
    FidelityReport,
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    estimate_t1n,
    fidelity_vs_threshold,
    fit_hyperfine,
    histograms_to_csv,
    report_json,
    report_payload,
)
from ddread.coherence import scan_n, scan_tau
from ddread.measurement import PhotonTrace, ReadoutConfig, simulate_trace
from ddread.sequence import CpmgSequence
from ddread.spincore import effective_frame, spin_from_frame_components

from conftest import TWO_PI_KHZ, frame_a_par_for

POLICY = ThresholdPolicy()  # 2300 / 2520


def make_trace(counts, hidden=None):
    counts = np.asarray(counts, dtype=np.int64)
    if hidden is None:
        hidden = np.where(counts >= 2400, 1, -1)
    return PhotonTrace(points=counts,
                       hidden_states=np.asarray(hidden, dtype=np.int8),
                       config=ReadoutConfig())


def telegraph_trace(rng, n_points, mean_dwell, rate_up=2520.0, rate_down=2300.0):
    """Two-Poisson telegraph with geometric dwells (synthetic ground truth)."""
    state = 1
    hidden = np.empty(n_points, dtype=np.int8)
    counts = np.empty(n_points, dtype=np.int64)
    for i in range(n_points):
        hidden[i] = state
        counts[i] = rng.poisson(rate_up if state == 1 else rate_down)
        if rng.random() < 1.0 / mean_dwell:
            state = -state
    return make_trace(counts, hidden)


# ------------------------------------------------------------- histograms


def test_constant_trace_single_histogram():
    hists = conditional_histograms(make_trace([2600] * 50), POLICY)
    assert len(hists.samples_down) == 0
    assert len(set(hists.samples_up.tolist())) == 1
    assert hists.low_statistics


def test_pairing_is_non_overlapping():
    # prepare at 0 (high), measure at 1; next search resumes at 2
    counts = [2600, 2601, 2602, 2400, 2200, 2201]
    hists = conditional_histograms(make_trace(counts), POLICY)
    assert hists.samples_up.tolist() == [2601, 2400]
    assert hists.samples_down.tolist() == [2201]


def test_telegraph_recovers_configured_means():
    rng = np.random.default_rng(10)
    trace = telegraph_trace(rng, 20000, 80.0)
    hists = conditional_histograms(trace, POLICY)
    assert not hists.low_statistics
    for samples, mean in ((hists.samples_up, 2520.0),
                          (hists.samples_down, 2300.0)):
        # preparation-selected points still flip before measurement with
        # probability 1/mean_dwell, so allow 2 sigma of the mixed mean
        sem = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean() - mean) < 2 * sem + 220.0 / 80.0


def test_calibrated_histograms_bimodal(field_691, readout_spin, readout_seq):
    trace = simulate_trace(readout_spin, field_691, readout_seq,
                           ReadoutConfig(seed=7), 3000)
    hists = conditional_histograms(trace, POLICY)
    report = fidelity_vs_threshold(hists)
    th = report.optimal_threshold
    overlap_up = np.mean(hists.samples_up < th)
    overlap_down = np.mean(hists.samples_down >= th)
    assert overlap_up <= 0.10
    assert overlap_down <= 0.10


def test_histogram_csv(tmp_path):
    hists = conditional_histograms(
        make_trace([2600, 2550, 2100, 2080, 2600, 2550]), POLICY
    )
    path = tmp_path / "h.csv"
    histograms_to_csv(hists, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "count,freq_up,freq_down"
    total = sum(int(l.split(",")[1]) + int(l.split(",")[2])
                for l in lines[1:])
    assert total == len(hists.samples_up) + len(hists.samples_down)


# --------------------------------------------------------------- fidelity


def test_disjoint_histograms_unit_fidelity():
    counts = [2600, 3000, 2100, 1000] * 60
    hists = conditional_histograms(make_trace(counts), POLICY)
    report = fidelity_vs_threshold(hists)
    assert report.fidelity_up == 1.0
    assert report.fidelity_down == 1.0
    assert 1000 < report.optimal_threshold <= 3000


def test_identical_histograms_half_fidelity():
    rng = np.random.default_rng(1)
    samples = rng.poisson(2400.0, size=400)
    hists = conditional_histograms(make_trace([2600] * 2), POLICY)
    hists = type(hists)(samples_up=samples, samples_down=samples.copy(),
                        init_match_up=len(samples),
                        init_match_down=len(samples), low_statistics=False)
    report = fidelity_vs_threshold(hists)
    assert min(report.fidelity_up, report.fidelity_down) == pytest.approx(
        0.5, abs=0.03
    )


def test_fidelity_curve_monotonic_tradeoff():
    rng = np.random.default_rng(2)
    trace = telegraph_trace(rng, 5000, 70.0)
    report = fidelity_vs_threshold(conditional_histograms(trace, POLICY))
    curve = report.threshold_curve
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)   # f_up non-increasing
    assert np.all(np.diff(curve[:, 2]) >= -1e-12)  # f_down non-decreasing


def test_fidelity_shift_invariance():
    rng = np.random.default_rng(3)
    trace = telegraph_trace(rng, 4000, 60.0)
    report = fidelity_vs_threshold(conditional_histograms(trace, POLICY))
    shift = 137
    shifted_policy = ThresholdPolicy(POLICY.init_low + shift,
                                     POLICY.init_high + shift)
    shifted = make_trace(trace.points + shift, trace.hidden_states)
    report2 = fidelity_vs_threshold(
        conditional_histograms(shifted, shifted_policy)
    )
    best1 = min(report.fidelity_up, report.fidelity_down)
    best2 = min(report2.fidelity_up, report2.fidelity_down)
    assert best1 == pytest.approx(best2, abs=1e-12)
    assert report2.optimal_threshold == report.optimal_threshold + shift


def test_report_json_is_json_dumps():
    """``report_json`` writes what ``json.dumps(payload, indent=2,
    sort_keys=True)`` writes, byte for byte, for the payloads ``analyze``
    builds: with the T1n keys, with the T1n note, from a trace without
    hidden states (null initialization fidelities), and for a one-row
    curve."""
    import json

    rng = np.random.default_rng(5)
    trace = telegraph_trace(rng, 6000, 60.0)
    bare = PhotonTrace(points=trace.points, hidden_states=None,
                       config=trace.config)
    jumps = detect_jumps(trace, POLICY)
    est = estimate_t1n(jumps.dwells_up, jumps.dwells_down, 0.189)
    t1n = {"t1n_up_s": est.t1n_up, "t1n_down_s": est.t1n_down,
           "t1n_up_ci_s": list(est.ci_up), "t1n_down_ci_s": list(est.ci_down)}
    note = {"t1n_note": "insufficient dwells for a lifetime estimate"}
    one_row = FidelityReport(
        fidelity_up=1.0, fidelity_down=0.0, init_fidelity_up=None,
        init_fidelity_down=None, optimal_threshold=2400,
        threshold_curve=np.array([[2400.0, 1.0, 0.0, 0.5]]), n_pairs_up=1,
        n_pairs_down=1, low_statistics=True)
    payloads = []
    for report, extra in [
            (fidelity_vs_threshold(conditional_histograms(trace, POLICY)), t1n),
            (fidelity_vs_threshold(conditional_histograms(trace, POLICY)), note),
            (fidelity_vs_threshold(conditional_histograms(bare, POLICY)), t1n),
            (one_row, note)]:
        payload = report_payload(report)
        payload.update(extra, config_sha256="ab" * 32, seed=7)
        payloads.append(payload)
    assert payloads[2]["init_fidelity_up"] is None
    assert len(payloads[0]["threshold_curve"]) > 100
    for payload in payloads:
        assert report_json(payload) == json.dumps(payload, indent=2,
                                                  sort_keys=True)


# ------------------------------------------------------------------ jumps


def test_constant_high_trace_single_dwell():
    record = detect_jumps(make_trace([2600] * 40), POLICY)
    assert len(record.jump_indices) == 0
    assert np.all(record.states == 1)
    assert len(record.dwells_up) == 0         # single run is boundary-censored
    assert record.dwells_up_censored.tolist() == [40]


def test_hysteresis_holds_between_thresholds():
    counts = [2600, 2400, 2450, 2200, 2400, 2600]
    record = detect_jumps(make_trace(counts), POLICY)
    assert record.states.tolist() == [1, 1, 1, -1, -1, 1]


def test_jump_classifier_matches_hidden_states():
    rng = np.random.default_rng(4)
    trace = telegraph_trace(rng, 8000, 80.0)
    record = detect_jumps(trace, POLICY)
    defined = record.states != 0
    agree = np.mean(record.states[defined] == trace.hidden_states[defined])
    assert agree >= 0.95


def test_jump_classifier_is_causal_and_deterministic():
    rng = np.random.default_rng(5)
    trace = telegraph_trace(rng, 500, 40.0)
    full = detect_jumps(trace, POLICY)
    again = detect_jumps(trace, POLICY)
    assert np.array_equal(full.states, again.states)
    prefix = make_trace(trace.points[:200], trace.hidden_states[:200])
    assert np.array_equal(detect_jumps(prefix, POLICY).states,
                          full.states[:200])


# --------------------------------------------------------------------- T1


def test_equal_dwells_recover_duration():
    dwells = np.full(20, 50)
    est = estimate_t1n(dwells, dwells, 0.189)
    assert est.t1n_up == pytest.approx(50 * 0.189)
    assert est.ci_up[0] < est.t1n_up < est.ci_up[1]


def test_t1_recovery_from_synthetic_dwells():
    rng = np.random.default_rng(6)
    mean_pts = 15.0 / 0.189
    dwells = rng.geometric(1.0 / mean_pts, size=200)
    est = estimate_t1n(dwells, dwells, 0.189)
    assert est.t1n_up == pytest.approx(15.0, rel=0.10)


def test_asymmetric_t1_recovery():
    rng = np.random.default_rng(7)
    up = rng.geometric(0.189 / 10.0, size=400)
    down = rng.geometric(0.189 / 20.0, size=400)
    est = estimate_t1n(up, down, 0.189)
    assert est.t1n_up == pytest.approx(10.0, rel=0.15)
    assert est.t1n_down == pytest.approx(20.0, rel=0.15)


def test_t1_estimator_consistency():
    rng = np.random.default_rng(8)
    mean_pts = 79.4
    errs = []
    for n in (100, 10000):
        dwells = rng.geometric(1.0 / mean_pts, size=n)
        est = estimate_t1n(dwells, dwells, 0.189)
        errs.append(abs(est.t1n_up - mean_pts * 0.189))
    assert errs[1] < errs[0]


def test_t1_insufficient_dwells():
    with pytest.raises(ValueError):
        estimate_t1n(np.array([5] * 9), np.array([5] * 20), 0.1)


# ---------------------------------------------------------------- fitting


def test_fit_requires_metadata(field_305, scan_spin):
    from ddread.coherence import CoherenceCurve

    bare = CoherenceCurve(axis="tau", abscissa=np.array([1e-7, 2e-7]),
                          values=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        fit_hyperfine([bare], field_305)


def test_fit_degenerate_for_decoupled_data(field_305):
    spin = spin_from_frame_components(0.0, 0.0, field_305)
    curve = scan_tau([spin], field_305, 8, (200e-9, 600e-9), 10e-9)
    assert np.allclose(curve.values, 1.0)
    fit = fit_hyperfine([curve], field_305, n_grid=6)
    assert fit.degenerate


def test_fit_truth_is_global_minimum(field_305):
    a_par = 330.0 * TWO_PI_KHZ
    a_perp = 200.0 * TWO_PI_KHZ
    spin = spin_from_frame_components(a_par, a_perp, field_305)
    frame = effective_frame(spin, field_305)
    tau_res = np.pi / (2.0 * frame.omega)
    curves = [
        scan_tau([spin], field_305, 12, (tau_res * 0.75, tau_res * 1.25),
                 tau_res * 0.5 / 40),
        scan_n([spin], field_305, tau_res, 24),
    ]
    fit = fit_hyperfine(curves, field_305, n_grid=8)
    assert fit.a_par == pytest.approx(a_par, rel=0.01)
    assert fit.a_perp == pytest.approx(a_perp, rel=0.01)
    assert not fit.degenerate
    # the generating parameters are a global minimum of the residual
    from ddread.analysis import _fit_cells, _fit_model_values
    from ddread.spincore import DEFAULT_CONSTANTS

    data = np.concatenate([c.values for c in curves])
    model, valid = _fit_model_values([(a_par, a_perp)], _fit_cells(curves),
                                     field_305, DEFAULT_CONSTANTS)
    assert valid[0]
    res_truth = np.linalg.norm(model[0] - data)
    assert res_truth <= fit.residual + 1e-9


def run_guarded(fn, timeout=60.0):
    """Call ``fn`` in a thread and wait at most ``timeout`` seconds, so that a
    hang fails the test instead of the suite.  Returns ``fn``'s result or
    exception; fails if the call leaves a thread behind."""
    outcome = {}

    def target():
        outcome["before"] = set(threading.enumerate())
        try:
            outcome["value"] = fn()
        except Exception as exc:
            outcome["error"] = exc
        outcome["after"] = set(threading.enumerate())

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout=timeout)
    assert not caller.is_alive(), f"no return within {timeout} s"
    assert outcome["after"] == outcome["before"], "threads left running"
    return outcome


def test_fit_propagates_forward_model_errors(field_305, scan_spin, monkeypatch):
    """An error of the forward model is raised in the caller, which makes
    every forward-model call itself."""
    import ddread.analysis as analysis

    class ModelError(Exception):
        pass

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    n_grid = 4
    rows, callers = [], set()
    original = analysis._fit_model_values

    def failing_after_coarse_grid(params, *args):
        rows.append(len(params))
        callers.add(threading.current_thread())
        if len(rows) > 1:
            raise ModelError("forward model failed")
        return original(params, *args)

    monkeypatch.setattr(analysis, "_fit_model_values", failing_after_coarse_grid)
    outcome = run_guarded(lambda: fit_hyperfine([curve], field_305, n_grid=n_grid))
    assert type(outcome.get("error")) is ModelError
    # the coarse grid, then the first refinement call: every start's point
    # and its two forward-difference points
    assert rows == [n_grid * n_grid, 3 * min(5, n_grid * n_grid)]
    assert len(callers) == 1 and threading.main_thread() not in callers


@pytest.mark.parametrize("failing_start", [0, 2, 4])
@pytest.mark.parametrize("when", ["at its start", "in its fourth request"])
def test_fit_refinement_errors_release_the_others(field_305, scan_spin,
                                                  monkeypatch, failing_start, when):
    """An error of the forward model at one start's point, its first or its
    fourth trial point, is raised in the caller with its own type; the other
    starts stop with it, and no call follows the failing one.  A clipped
    trial point can repeat an earlier one, which would fail sooner, so the
    fourth trial point is checked to appear first in the fourth request."""
    import ddread.analysis as analysis

    class RefinementError(Exception):
        pass

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    refine = analysis._refine
    seen = {}

    def recording(starts, residuals, lb, ub):
        seen["starts"] = starts
        # the failing start's trial points, from a refinement of it alone
        start = sorted(starts)[failing_start]
        seen["trials"] = trials = []

        def first_rows(points):
            trials.append(tuple(points[0]))
            return residuals(points)

        refine([start], first_rows, lb, ub)
        return refine(starts, residuals, lb, ub)

    monkeypatch.setattr(analysis, "_refine", recording)
    fit_hyperfine([curve], field_305, n_grid=4)
    assert len(seen["starts"]) == 5 and len(seen["trials"]) >= 4
    request = 0 if when == "at its start" else 3
    failing = seen["trials"][request]
    assert failing not in seen["trials"][:request]
    monkeypatch.setattr(analysis, "_refine", refine)
    original = analysis._fit_model_values
    calls = []

    def failing_at_the_point(params, *args):
        calls.append(len(params))
        # the coarse grid holds the start points too; it is not a refinement
        if len(calls) > 1 and failing in map(tuple, np.asarray(params)):
            raise RefinementError("forward model failed")
        return original(params, *args)

    monkeypatch.setattr(analysis, "_fit_model_values", failing_at_the_point)
    outcome = run_guarded(lambda: fit_hyperfine([curve], field_305, n_grid=4))
    assert type(outcome.get("error")) is RefinementError
    # no call after the failing one
    assert len(calls) == (2 if when == "at its start" else 5)


def test_refinement_keeps_a_start_without_a_frame(field_305, scan_spin):
    """A start with a_perp beyond 2 gamma_n B realises no frame: every row
    is invalid, its Jacobian is zero, and it comes back unchanged without a
    singular solve, while a valid start beside it converges to the truth."""
    import ddread.analysis as analysis
    from ddread.analysis import _fit_cells, _fit_model_values
    from ddread.spincore import DEFAULT_CONSTANTS

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    cells = _fit_cells([curve])

    def residuals(points):
        model, valid = _fit_model_values(points, cells, field_305, DEFAULT_CONSTANTS)
        model -= curve.values
        model[~valid] = 1e3
        return model

    frame = effective_frame(scan_spin, field_305)
    wall = 2.0 * DEFAULT_CONSTANTS.gamma_n * field_305.b_magnitude
    lb, ub = 2.0 * np.pi * 1e3, np.array([2.0 * np.pi * 2e6, wall])
    starts = np.array([[frame.a_par, 1.5 * wall],
                       [1.05 * frame.a_par, 1.1 * frame.a_perp]])
    x, f = analysis._refine(starts, residuals, lb, ub)
    assert np.array_equal(x[0], starts[0]) and np.all(f[0] == 1e3)
    assert x[1] == pytest.approx([frame.a_par, frame.a_perp], rel=1e-9)
    assert np.linalg.norm(f[1]) < 1e-9


@pytest.mark.parametrize("n_grid", [1, 3, 8, 20])
def test_fit_coarse_grid_is_one_model_call(field_305, scan_spin, monkeypatch,
                                           n_grid):
    """The whole coarse grid goes through the forward model in one call.  The
    starts are then refined in lockstep: each later call holds every live
    start's trial point and its two forward-difference points, so the
    first holds three rows per start and no later one holds more than the
    one before; the last call is the identifiability probe."""
    import ddread.analysis as analysis

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    rows = []
    original = analysis._fit_model_values

    def counting(params, *args):
        rows.append(len(params))
        return original(params, *args)

    monkeypatch.setattr(analysis, "_fit_model_values", counting)
    fit_hyperfine([curve], field_305, n_grid=n_grid)
    refinement = rows[1:-1]
    assert rows[0] == n_grid * n_grid
    assert refinement[0] == 3 * min(5, n_grid * n_grid)
    assert all(r % 3 == 0 and r > 0 for r in refinement)
    assert all(later <= earlier for earlier, later in zip(refinement, refinement[1:]))
    # the probe at the fit and at a_par +/- probe
    assert rows[-1] == 3


def test_criterion_7_fit_makes_few_model_calls(field_305, monkeypatch):
    """The batched refinements bound the fit of criterion 7's curves,
    noiseless and with its 1% noise, to 40 forward-model calls (37 and 32;
    the refinements run one after another with ``least_squares`` made 185
    and 203)."""
    import ddread.analysis as analysis
    from ddread.coherence import CoherenceCurve

    spin = spin_from_frame_components(330.0 * TWO_PI_KHZ, 200.0 * TWO_PI_KHZ,
                                      field_305)
    tau_res = np.pi / (2.0 * effective_frame(spin, field_305).omega)
    curves = [
        scan_tau([spin], field_305, 12, (tau_res * 0.75, tau_res * 1.25),
                 tau_res * 0.5 / 40),
        scan_n([spin], field_305, tau_res, 24),
    ]
    rng = np.random.default_rng(17)
    noisy = [CoherenceCurve(axis=c.axis, abscissa=c.abscissa, n_pulses=c.n_pulses,
                            tau=c.tau, values=np.clip(
                                c.values + rng.normal(0.0, 0.01, c.values.shape),
                                -1.0, 1.0))
             for c in curves]
    original = analysis._fit_model_values
    for data in (curves, noisy):
        calls = []

        def counting(params, *args):
            calls.append(len(params))
            return original(params, *args)

        monkeypatch.setattr(analysis, "_fit_model_values", counting)
        fit_hyperfine(data, field_305, n_grid=8)
        assert len(calls) <= 40


def test_fit_uses_the_curves_model(field_305):
    """Magnus curves are fitted with the magnus model; mixed modes are refused."""
    from dataclasses import replace

    a_par = 330.0 * TWO_PI_KHZ
    a_perp = 200.0 * TWO_PI_KHZ
    spin = spin_from_frame_components(a_par, a_perp, field_305)
    tau_res = np.pi / (2.0 * effective_frame(spin, field_305).omega)
    curves = [
        scan_tau([spin], field_305, 12, (tau_res * 0.75, tau_res * 1.25),
                 tau_res * 0.5 / 40, "magnus"),
        scan_n([spin], field_305, tau_res, 24, "magnus"),
    ]
    assert {c.propagator_mode for c in curves} == {"magnus"}
    fit = fit_hyperfine(curves, field_305, n_grid=8)
    assert fit.a_par == pytest.approx(a_par, rel=1e-6)
    assert fit.a_perp == pytest.approx(a_perp, rel=1e-6)
    assert fit.residual < 1e-9
    mixed = [curves[0], replace(curves[1], propagator_mode="exact")]
    with pytest.raises(ValueError, match="different propagator modes"):
        fit_hyperfine(mixed, field_305, n_grid=2)
