"""End-to-end acceptance gate: eight pinned criteria, one pass/fail line each.

Each test prints a single summary line with the measured value, the pinned
tolerance, and the runtime, then asserts.  Criteria are intentionally strict;
tolerances are frozen and must not be loosened to make a run pass.  Criterion
2 bounds each case by the lowest-order term its model drops (derived there),
not by one fixed number.
"""

import time

import numpy as np
import pytest

from ddread.analysis import (
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    estimate_t1n,
    fidelity_vs_threshold,
    fit_hyperfine,
)
from ddread.coherence import CoherenceCurve, coherence_single, scan_n, scan_tau, oscillation_period
from ddread.measurement import ReadoutConfig, measurement_channel, simulate_trace
from ddread.sequence import CpmgSequence
from ddread.spincore import (
    FieldConfig,
    HyperfineSpin,
    conditional_propagator_exact,
    conditional_propagator_magnus,
    effective_frame,
    filter_function,
    filter_sum,
    spin_from_frame_components,
)

from conftest import TWO_PI_KHZ, is_unitary

POLICY = ThresholdPolicy()
_TRACE_CACHE = {}


def _line(num, name, ok, detail):
    print(f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _calibrated_trace(field_691, readout_spin, readout_seq):
    """5,000-point trace at the documented default calibration (shared by the
    fidelity and jump-statistics criteria)."""
    if "trace" not in _TRACE_CACHE:
        t0 = time.perf_counter()
        cfg = ReadoutConfig(seed=7)
        _TRACE_CACHE["trace"] = simulate_trace(
            readout_spin, field_691, readout_seq, cfg, 5000
        )
        _TRACE_CACHE["runtime"] = time.perf_counter() - t0
        _TRACE_CACHE["config"] = cfg
    return _TRACE_CACHE["trace"]


def test_criterion_1_revival_period(field_305, scan_spin,
                                    scan_spin_resonant_tau):
    t0 = time.perf_counter()
    curve = scan_n([scan_spin], field_305, scan_spin_resonant_tau, 40,
                   propagator_mode="magnus")
    period = oscillation_period(curve)
    dt = time.perf_counter() - t0
    ok = abs(period - 16.3) <= 0.5 and dt < 1.0
    _line(1, "revival-period", ok,
          f"period={period:.2f} pulses, target 16.3+-0.5, {dt:.2f}s<1s")
    assert abs(period - 16.3) <= 0.5
    assert dt < 1.0


def test_criterion_2_magnus_oracle(field_305):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(500):
        a_par = float(rng.uniform(-200.0, 200.0)) * TWO_PI_KHZ
        probe = spin_from_frame_components(a_par, 0.0, field_305)
        omega = effective_frame(probe, field_305).omega
        a_perp = float(rng.uniform(0.02, 0.1)) * omega
        n = int(rng.integers(1, 33))
        tau = float(rng.uniform(100e-9, 900e-9))
        cases.append((a_par, a_perp, CpmgSequence(n, tau)))
    errs = []
    coh_max = 0.0
    worst_vs_dropped = 0.0
    for factor in (1.0, 0.5):
        worst = 0.0
        for a_par, a_perp, seq in cases:
            spin = spin_from_frame_components(a_par, a_perp * factor,
                                              field_305)
            frame = effective_frame(spin, field_305)
            for branch in ("plus", "minus"):
                d = np.linalg.norm(
                    conditional_propagator_exact(spin, field_305, seq, branch)
                    - conditional_propagator_magnus(frame, seq, branch)
                )
                worst = max(worst, d)
            if factor == 1.0:
                diff = abs(
                    coherence_single(spin, field_305, seq)
                    - coherence_single(spin, field_305, seq,
                                       propagator_mode="magnus")
                )
                coh_max = max(coh_max, diff)
                # The first-order model keeps the branch precession
                # frequencies at omega +/- a_par/2.  The exact ones are
                # |omega n_par +/- A/2| = sqrt((omega +/- a_par/2)^2
                # + a_perp^2/4) = omega +/- a_par/2
                # + a_perp^2 / (8 (omega +/- a_par/2)) + O(a_perp^4), and each
                # branch spends half of T = 2 N tau in either Hamiltonian, so
                # the lowest-order term the model drops is the accumulated
                # second-order shift B below.  Each case's coherence error
                # is bounded by B with coefficient 1 (nothing fitted).
                w, a_p = frame.omega, frame.a_par
                dropped = (frame.a_perp ** 2 / 8.0) * seq.total_time() * 0.5 * (
                    1.0 / (w + a_p / 2.0) + 1.0 / (w - a_p / 2.0)
                )
                worst_vs_dropped = max(worst_vs_dropped, diff / dropped)
        errs.append(worst)
    ratio = errs[0] / errs[1]
    dt = time.perf_counter() - t0
    ok = ratio >= 3.5 and worst_vs_dropped <= 1.0 and dt < 10.0
    _line(2, "magnus-vs-exact", ok,
          f"ratio={ratio:.2f}>=3.5, coherence-diff={coh_max:.3g}, "
          f"worst |dL|/B={worst_vs_dropped:.3g}<=1, {dt:.2f}s<10s")
    assert ratio >= 3.5
    assert dt < 10.0
    assert worst_vs_dropped <= 1.0


def test_criterion_3_filter_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        omega = float(rng.uniform(1e4, 1e7))
        seq = CpmgSequence(int(rng.integers(1, 33)),
                           float(rng.uniform(50e-9, 900e-9)))
        edges = seq.boundary_times()
        total = 0.0 + 0.0j
        for k in range(len(edges) - 1):
            total += (-1) ** k * (
                np.exp(-1j * omega * edges[k + 1])
                - np.exp(-1j * omega * edges[k])
            )
        worst = max(worst, abs(filter_sum(omega, seq) - total))
    closed = 0.0
    for _ in range(50):
        omega = float(rng.uniform(1e5, 1e7))
        tau = float(rng.uniform(50e-9, 900e-9))
        closed = max(closed, abs(
            filter_function(omega, CpmgSequence(1, tau))
            - 4.0 * np.sin(omega * tau / 2.0) ** 2
        ))
        n = int(rng.integers(1, 33))
        tau_res = np.pi / (2.0 * omega)
        closed = max(closed, abs(
            filter_function(omega, CpmgSequence(n, tau_res)) - 2.0 * n
        ))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and closed < 1e-12 and dt < 1.0
    _line(3, "filter-oracle", ok,
          f"sum-err={worst:.2g}<1e-12, closed-form-err={closed:.2g}<1e-12, "
          f"{dt:.2f}s<1s")
    assert worst < 1e-12
    assert closed < 1e-12
    assert dt < 1.0


def test_criterion_4_projective_kraus(field_691, readout_spin, readout_seq):
    exact = measurement_channel(readout_spin, field_691, readout_seq, "exact")
    magnus = measurement_channel(readout_spin, field_691, readout_seq,
                                 "magnus")
    sv_max = max(np.linalg.svd(k, compute_uv=False)[1]
                 for k in (exact.kraus_0, exact.kraus_1))
    defect = max(exact.completeness_defect(), magnus.completeness_defect())
    rho = np.outer(magnus.basis_up, magnus.basis_up.conj())
    outcome = 0 if magnus.outcome_probability(0, rho) > 0.5 else 1
    repeat = 1.0
    for _ in range(1000):
        repeat = min(repeat, magnus.outcome_probability(outcome, rho))
        rho = magnus.apply(outcome, rho)
    ok = sv_max < 0.02 and defect < 1e-12 and repeat >= 1.0 - 1e-6
    _line(4, "projective-kraus", ok,
          f"sv={sv_max:.3g}<0.02, completeness={defect:.2g}<1e-12, "
          f"qnd-repeat={repeat:.8f}>=1-1e-6")
    assert sv_max < 0.02
    assert defect < 1e-12
    assert repeat >= 1.0 - 1e-6


def test_criterion_5_single_shot_fidelity(field_691, readout_spin,
                                          readout_seq):
    trace = _calibrated_trace(field_691, readout_spin, readout_seq)
    dt = _TRACE_CACHE["runtime"]
    hists = conditional_histograms(trace, POLICY)
    report = fidelity_vs_threshold(hists)
    fid = min(report.fidelity_up, report.fidelity_down)
    init = min(report.init_fidelity_up, report.init_fidelity_down)
    ok = abs(fid - 0.955) <= 0.02 and init >= 0.99 and dt < 60.0
    _line(5, "single-shot-fidelity", ok,
          f"fidelity={100 * fid:.2f}% target 95.5+-2pp, "
          f"init={100 * init:.2f}%>=99%, trace {dt:.1f}s<60s")
    assert abs(fid - 0.955) <= 0.02
    assert init >= 0.99
    assert dt < 60.0


def test_criterion_6_jump_statistics(field_691, readout_spin, readout_seq):
    trace = _calibrated_trace(field_691, readout_spin, readout_seq)
    record = detect_jumps(trace, POLICY)
    dwells = np.concatenate([record.dwells_up, record.dwells_down])
    expected = 15.0 / 0.189
    mean = dwells.mean()
    est = estimate_t1n(record.dwells_up, record.dwells_down,
                       trace.config.point_duration)
    ok = abs(mean - expected) / expected <= 0.10
    _line(6, "jump-statistics", ok,
          f"dwell-mean={mean:.1f} points, target {expected:.1f}+-10%, "
          f"T1n=({est.t1n_up:.1f}, {est.t1n_down:.1f})s")
    assert abs(mean - expected) / expected <= 0.10


def test_criterion_7_hyperfine_roundtrip(field_305):
    t0 = time.perf_counter()
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
    fit0 = fit_hyperfine(curves, field_305, n_grid=8)
    err0 = max(abs(fit0.a_par - a_par) / a_par,
               abs(fit0.a_perp - a_perp) / a_perp)
    rng = np.random.default_rng(17)
    noisy = [
        CoherenceCurve(
            axis=c.axis,
            abscissa=c.abscissa,
            values=np.clip(c.values + rng.normal(0.0, 0.01, c.values.shape),
                           -1.0, 1.0),
            n_pulses=c.n_pulses,
            tau=c.tau,
        )
        for c in curves
    ]
    fit1 = fit_hyperfine(noisy, field_305, n_grid=8)
    err1 = max(abs(fit1.a_par - a_par) / a_par,
               abs(fit1.a_perp - a_perp) / a_perp)
    dt = time.perf_counter() - t0
    ok = err0 <= 0.01 and err1 <= 0.05 and dt < 30.0
    _line(7, "hyperfine-roundtrip", ok,
          f"noiseless-err={100 * err0:.3f}%<=1%, "
          f"noisy-err={100 * err1:.3f}%<=5%, {dt:.1f}s<30s")
    assert err0 <= 0.01
    assert err1 <= 0.05
    assert dt < 30.0


def test_criterion_8_property_suite(field_305, field_691, readout_spin,
                                    readout_seq, bath_305):
    rng = np.random.default_rng(8)
    checks = []
    for _ in range(50):
        spin = HyperfineSpin(rng.uniform(-400.0, 400.0, 3) * TWO_PI_KHZ)
        seq = CpmgSequence(int(rng.integers(1, 25)),
                           float(rng.uniform(50e-9, 900e-9)))
        frame = effective_frame(spin, field_305)
        checks.append(all(
            is_unitary(conditional_propagator_exact(spin, field_305, seq, b))
            for b in ("plus", "minus")
        ))
        ch = measurement_channel(spin, field_305, seq)
        checks.append(ch.completeness_defect() < 1e-12)
        value = coherence_single(spin, field_305, seq)
        checks.append(-1.0 - 1e-12 <= value <= 1.0 + 1e-12)
    seq = CpmgSequence(6, 350e-9)
    product = np.prod([coherence_single(s, field_305, seq) for s in bath_305])
    from ddread.coherence import coherence_bath

    checks.append(abs(coherence_bath(bath_305, field_305, seq) - product)
                  < 1e-12)
    refocus = coherence_single(
        HyperfineSpin(np.array([0.0, 0.0, 250.0 * TWO_PI_KHZ])),
        field_305, CpmgSequence(8, 400e-9),
    )
    checks.append(abs(refocus - 1.0) < 1e-9)
    cfg = ReadoutConfig(seed=13)
    t1 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 40)
    t2 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 40)
    checks.append(np.array_equal(t1.points, t2.points))
    ok = all(checks)
    _line(8, "property-suite", ok,
          f"{sum(checks)}/{len(checks)} invariant checks green")
    assert ok
