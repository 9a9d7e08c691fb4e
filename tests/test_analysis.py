"""Histograms, thresholds, fidelity curves, jump detection, T1, hyperfine fit."""

import numpy as np
import pytest

from ddread.analysis import (
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    estimate_t1n,
    fidelity_vs_threshold,
    fit_hyperfine,
    histograms_to_csv,
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
                       config=ReadoutConfig(), seed=0)


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
    from ddread.analysis import _fit_model_values
    from ddread.spincore import DEFAULT_CONSTANTS

    data = np.concatenate([c.values for c in curves])
    model, valid = _fit_model_values([(a_par, a_perp)], curves, field_305,
                                     DEFAULT_CONSTANTS)
    assert valid[0]
    res_truth = np.linalg.norm(model[0] - data)
    assert res_truth <= fit.residual + 1e-9


def test_fit_propagates_forward_model_errors(field_305, scan_spin, monkeypatch):
    """An error inside a local refinement is raised, not skipped as a bad start."""
    import ddread.analysis as analysis

    class ModelError(Exception):
        pass

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    n_grid = 4
    rows = []
    original = analysis._fit_model_values

    def failing_after_coarse_grid(params, *args):
        rows.append(len(params))
        if len(rows) > 1:
            raise ModelError("forward model failed")
        return original(params, *args)

    monkeypatch.setattr(analysis, "_fit_model_values", failing_after_coarse_grid)
    with pytest.raises(ModelError):
        fit_hyperfine([curve], field_305, n_grid=n_grid)
    # the coarse grid, then the first point of the first refinement
    assert rows == [n_grid * n_grid, 1]


@pytest.mark.parametrize("n_grid", [1, 3, 8, 20])
def test_fit_coarse_grid_is_one_model_call(field_305, scan_spin, monkeypatch,
                                           n_grid):
    """The whole coarse grid goes through the forward model in one call, and
    each finite-difference Jacobian of a refinement in one more."""
    import ddread.analysis as analysis

    curve = scan_tau([scan_spin], field_305, 12, (420e-9, 580e-9), 8e-9)
    rows = []
    original = analysis._fit_model_values

    def counting(params, *args):
        rows.append(len(params))
        return original(params, *args)

    monkeypatch.setattr(analysis, "_fit_model_values", counting)
    fit_hyperfine([curve], field_305, n_grid=n_grid)
    # grid, refinement points and 2-point Jacobians (one shifted point per
    # parameter), then the identifiability probe at the fit and a_par +/- probe
    assert rows[0] == n_grid * n_grid
    assert set(rows[1:-1]) == {1, 2}
    assert rows[-1] == 3


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
