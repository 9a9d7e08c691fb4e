"""Kraus channels, entanglement tuning, and the photon-trace engine."""

import numpy as np
import pytest

from ddread.measurement import (
    MeasurementChannel,
    PhotonTrace,
    ReadoutConfig,
    entanglement_vs_n,
    joint_premeasurement_state,
    measurement_channel,
    simulate_point,
    simulate_trace,
    trace_to_csv,
)
from ddread.sequence import CpmgSequence
from ddread.spincore import HyperfineSpin, spin_from_frame_components

from conftest import TWO_PI_KHZ


def test_completeness_over_grid(field_305, scan_spin, bath_305):
    for spin in [scan_spin] + bath_305:
        for n in (1, 2, 7, 12):
            for tau in (150e-9, 248e-9, 456e-9):
                for mode in ("exact", "magnus"):
                    ch = measurement_channel(spin, field_305,
                                             CpmgSequence(n, tau), mode)
                    assert ch.completeness_defect() < 1e-12


def test_outcome_probabilities_sum_to_one(field_305, scan_spin):
    rng = np.random.default_rng(2)
    ch = measurement_channel(scan_spin, field_305, CpmgSequence(4, 480e-9))
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        p0 = ch.outcome_probability(0, rho)
        p1 = ch.outcome_probability(1, rho)
        assert 0.0 <= p0 <= 1.0
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_no_information_without_conditional_phase(field_305):
    """a_perp = 0: both branches evolve identically, so the outcome carries no
    nuclear information (probabilities are 1/2 for every state) and the
    back-action is a state-independent unitary."""
    spin = HyperfineSpin(np.array([0.0, 0.0, 180.0 * TWO_PI_KHZ]))
    ch = measurement_channel(spin, field_305, CpmgSequence(4, 300e-9))
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        assert ch.outcome_probability(0, rho) == pytest.approx(0.5, abs=1e-10)


def test_projective_point_rank1(field_691, readout_spin, readout_seq):
    """At 2 N Phi = pi/2 the Kraus pair pins the locked basis."""
    exact = measurement_channel(readout_spin, field_691, readout_seq, "exact")
    for k in (exact.kraus_0, exact.kraus_1):
        sv = np.linalg.svd(k, compute_uv=False)
        assert sv[1] < 0.02          # near rank-1 on the exact propagators
    magnus = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    for k in (magnus.kraus_0, magnus.kraus_1):
        sv = np.linalg.svd(k, compute_uv=False)
        assert sv[1] < 1e-9          # exactly projective in the frame model
    # each outcome keeps its own locked state
    assert np.linalg.norm(magnus.kraus_0 @ magnus.basis_down) < 1e-9
    assert np.linalg.norm(magnus.kraus_1 @ magnus.basis_up) < 1e-9


def test_intermediate_n_weak_measurement(field_691, readout_spin):
    ch = measurement_channel(readout_spin, field_691, CpmgSequence(2, 248e-9))
    for k in (ch.kraus_0, ch.kraus_1):
        sv = np.linalg.svd(k, compute_uv=False)
        assert 0.0 < sv[1] < sv[0] < 1.0


def test_weak_measurement_monotonicity(field_691, readout_spin):
    """Post-cycle distinguishability grows with accumulated phase up to pi/2."""
    psi = None
    distances = []
    for n in range(1, 13):
        ch = measurement_channel(readout_spin, field_691,
                                 CpmgSequence(n, 248e-9), "magnus")
        if psi is None:
            psi = (ch.basis_up + ch.basis_down) / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        post0 = ch.apply(0, rho)
        post1 = ch.apply(1, rho)
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(post0 - post1)))
        distances.append(dist)
    assert np.all(np.diff(distances) > -1e-12)
    assert distances[-1] == pytest.approx(1.0, abs=1e-9)


def test_qnd_repetition(field_691, readout_spin, readout_seq):
    ch = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    rho = np.outer(ch.basis_up, ch.basis_up.conj())
    p_first = ch.outcome_probability(0, rho)
    outcome = 0 if p_first > 0.5 else 1
    repeat = 1.0
    for _ in range(1000):
        repeat = min(repeat, ch.outcome_probability(outcome, rho))
        rho = ch.apply(outcome, rho)
    assert repeat >= 1.0 - 1e-6


def test_entanglement_curve(field_691, readout_spin, field_305, scan_spin,
                            scan_spin_resonant_tau):
    ns, entropy, phases = entanglement_vs_n(readout_spin, field_691,
                                            248e-9, 24, "magnus")
    assert np.all((entropy >= -1e-12) & (entropy <= 1.0 + 1e-12))
    assert ns[np.argmax(entropy)] == 12     # 2 N Phi = pi/2 at N = 12
    assert phases[11] == pytest.approx(np.pi / 2.0, abs=1e-9)
    assert entropy[23] == pytest.approx(0.0, abs=1e-9)   # phase pi: no net phase
    # scan spin: first maximum near a quarter of the 16.3 revival period
    ns2, entropy2, _ = entanglement_vs_n(scan_spin, field_305,
                                         scan_spin_resonant_tau, 8, "magnus")
    assert ns2[np.argmax(entropy2)] == 4


def test_entanglement_matches_per_n_channels(field_305, scan_spin):
    """The batched curve against one measurement channel per pulse number."""
    tau = 470e-9
    for mode in ("exact", "magnus"):
        ns, entropy, phases = entanglement_vs_n(scan_spin, field_305, tau, 33,
                                                mode)
        for n, s_n, phase in zip(ns, entropy, phases):
            ch = measurement_channel(scan_spin, field_305,
                                     CpmgSequence(int(n), tau), mode)
            psi = joint_premeasurement_state(
                ch, (ch.basis_up + ch.basis_down) / np.sqrt(2.0))
            evals = np.clip(np.linalg.eigvalsh(
                psi.reshape(2, 2) @ psi.reshape(2, 2).conj().T), 1e-18, 1.0)
            assert s_n == pytest.approx(-(evals * np.log2(evals)).sum(), abs=1e-12)
            u_minus = ch.kraus_0 + ch.kraus_1
            u_plus = 1.0j * (ch.kraus_0 - ch.kraus_1)
            u_rel = np.linalg.eigvals(u_plus.conj().T @ u_minus)
            assert phase == pytest.approx(
                abs(np.angle(u_rel[0] / u_rel[1])) / 2.0, abs=1e-12)


def test_entanglement_pi_periodic(field_691, readout_spin):
    ns, entropy, _ = entanglement_vs_n(readout_spin, field_691, 248e-9,
                                       36, "magnus")
    # 2 N Phi = pi/2 at N = 12 and 3 pi/2 at N = 36: same entropy
    assert entropy[35] == pytest.approx(entropy[11], abs=1e-9)


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(cycles_per_point=0)
    with pytest.raises(ValueError):
        ReadoutConfig(photon_rate_bright=-0.1)
    with pytest.raises(ValueError):
        ReadoutConfig(electron_init_error=1.5)
    with pytest.raises(ValueError):
        ReadoutConfig(t1n_up=0.0)
    cfg = ReadoutConfig()
    assert cfg.cycles_per_point == 40000
    assert cfg.point_duration == pytest.approx(0.189)
    assert cfg.cycle_time == pytest.approx(0.189 / 40000)


def test_point_distribution_matches_poisson_mixture(field_691, readout_spin,
                                                    readout_seq):
    """Projective channel: counts are Poisson mixtures of the two classes."""
    ch = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    cfg = ReadoutConfig(seed=0, t1n_up=1e9, t1n_down=1e9)
    eie = cfg.electron_init_error
    rng = np.random.default_rng(123)
    rho_up = np.outer(ch.basis_up, ch.basis_up.conj())
    counts = np.array(
        [simulate_point(rho_up, ch, cfg, rng)[0] for _ in range(300)]
    )
    mean_expect = cfg.cycles_per_point * (
        (1 - eie) * cfg.photon_rate_bright + eie * cfg.photon_rate_dark
    )
    sem = counts.std() / np.sqrt(len(counts))
    assert abs(counts.mean() - mean_expect) < 4 * sem + 1.0


def test_trajectory_and_aggregate_paths_agree(field_691, readout_spin,
                                              readout_seq, monkeypatch):
    """The jitted per-cycle path and the aggregate shortcut sample the same
    distribution at a projective working point."""
    import ddread.measurement as m

    ch = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    cfg = ReadoutConfig(seed=0)
    rho = np.outer(ch.basis_down, ch.basis_down.conj())
    rng = np.random.default_rng(9)
    fast = np.array([m._simulate_point_aggregate(rho, ch, cfg, rng)[0]
                     for _ in range(250)])
    slow = np.array([m._simulate_point_cycles(rho, ch, cfg, rng)[0]
                     for _ in range(250)])
    pooled_sem = np.hypot(fast.std() / np.sqrt(len(fast)),
                          slow.std() / np.sqrt(len(slow)))
    assert abs(fast.mean() - slow.mean()) < 4 * pooled_sem + 1.0
    assert abs(fast.std() - slow.std()) / slow.std() < 0.25


def test_trace_determinism_and_substreams(field_691, readout_spin, readout_seq):
    cfg = ReadoutConfig(seed=31)
    t1 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    t2 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    assert np.array_equal(t1.points, t2.points)
    assert np.array_equal(t1.hidden_states, t2.hidden_states)
    other = simulate_trace(readout_spin, field_691, readout_seq,
                           ReadoutConfig(seed=32), 60)
    assert not np.array_equal(t1.points, other.points)


def test_frozen_t1_means_no_jumps(field_691, readout_spin, readout_seq):
    cfg = ReadoutConfig(seed=5, t1n_up=1e12, t1n_down=1e12)
    trace = simulate_trace(readout_spin, field_691, readout_seq, cfg, 120)
    assert len(set(trace.hidden_states.tolist())) == 1


def test_telegraph_dwell_mean(field_691, readout_spin, readout_seq):
    """Hidden-state dwells average T1n / point_duration ~ 79 points."""
    cfg = ReadoutConfig(seed=2)
    trace = simulate_trace(readout_spin, field_691, readout_seq, cfg, 10000)
    flips = np.nonzero(np.diff(trace.hidden_states))[0]
    dwells = np.diff(flips)
    assert len(dwells) > 50
    assert dwells.mean() == pytest.approx(15.0 / 0.189, rel=0.10)


def test_trace_csv_roundtrip(tmp_path, field_691, readout_spin, readout_seq):
    cfg = ReadoutConfig(seed=4)
    trace = simulate_trace(readout_spin, field_691, readout_seq, cfg, 25)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path, config_hash="abc123")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=abc123")
    assert lines[1] == "point_index,photon_count,hidden_state"
    assert len(lines) == 27
    idx, count, hidden = lines[5].split(",")
    assert int(count) == trace.points[int(idx)]
    assert int(hidden) == trace.hidden_states[int(idx)]


def test_photon_trace_validation():
    cfg = ReadoutConfig()
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([1, 2]), hidden_states=np.array([1]),
                    config=cfg, seed=0)
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([-1]), hidden_states=np.array([1]),
                    config=cfg, seed=0)
