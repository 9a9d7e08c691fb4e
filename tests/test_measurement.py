"""Kraus channels, entanglement tuning, and the photon-trace engine."""

from dataclasses import replace

import numpy as np
import pytest

from ddread.measurement import (
    MeasurementChannel,
    PhotonTrace,
    ReadoutConfig,
    entanglement_vs_n,
    measurement_channel,
    read_trace_csv,
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


def joint_premeasurement_state(channel, nuclear_state_vec):
    """Pure electron x nuclear state just before the optical readout."""
    psi = np.zeros(4, dtype=complex)
    psi[0:2] = channel.kraus_0 @ nuclear_state_vec  # electron |0> block
    psi[2:4] = channel.kraus_1 @ nuclear_state_vec  # electron |1> block
    return psi / np.linalg.norm(psi)


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
    """The per-cycle reference and the event-driven engine sample the same
    distribution at a projective working point."""
    import ddread.measurement as m

    ch = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    cfg = ReadoutConfig(seed=0)
    rho = np.outer(ch.basis_down, ch.basis_down.conj())
    rng = np.random.default_rng(9)
    fast = np.array([simulate_point(rho, ch, cfg, rng)[0]
                     for _ in range(250)])
    slow = np.array([m._simulate_point_cycles(rho, ch, cfg, rng)[0]
                     for _ in range(250)])
    pooled_sem = np.hypot(fast.std() / np.sqrt(len(fast)),
                          slow.std() / np.sqrt(len(slow)))
    assert abs(fast.mean() - slow.mean()) < 4 * pooled_sem + 1.0
    assert abs(fast.std() - slow.std()) / slow.std() < 0.25


@pytest.mark.parametrize("overrides", [
    {},
    {"pi_pulse_error": 1e-3, "t1n_up": 5e-3, "t1n_down": 20e-3},
], ids=["backaction", "kicks-asymmetric-t1"])
def test_engine_matches_per_cycle_reference(field_691, readout_spin,
                                            readout_seq, overrides):
    """The event-driven engine against the brute-force per-cycle loop on the
    exact (non-QND) channel, where back-action events interrupt the quiet
    runs; the second case adds depolarizing kicks and unequal T1 so that all
    three clocks fire.  Points are shortened to 2,000 cycles at the default
    cycle time, so the 400 reference points step 0.8 million cycles."""
    import ddread.measurement as m

    ch = measurement_channel(readout_spin, field_691, readout_seq, "exact")
    cfg = ReadoutConfig(cycles_per_point=2000, point_duration=0.189 / 20,
                        **overrides)
    rho = np.outer(ch.basis_down, ch.basis_down.conj())

    def sample(point, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(400):
            count, rho_out, dominant = point(rho, ch, cfg, rng)
            end_up = np.real(ch.basis_up.conj() @ rho_out @ ch.basis_up) > 0.5
            rows.append((count, dominant == 1, end_up))
        return np.array(rows, dtype=float).T

    engine = sample(simulate_point, 21)
    reference = sample(m._simulate_point_cycles, 22)
    (c_eng, *frac_eng), (c_ref, *frac_ref) = engine, reference
    pooled_sem = np.hypot(c_eng.std() / np.sqrt(len(c_eng)),
                          c_ref.std() / np.sqrt(len(c_ref)))
    assert abs(c_eng.mean() - c_ref.mean()) < 4 * pooled_sem + 1.0
    assert abs(c_eng.std() - c_ref.std()) / c_ref.std() < 0.25
    # dominant-state and end-state fractions: binomial, 4 pooled standard errors
    for f_eng, f_ref in zip(frac_eng, frac_ref):
        p = (f_eng.mean() + f_ref.mean()) / 2.0
        pooled_se = np.sqrt(2.0 * p * (1.0 - p) / len(f_ref))
        assert abs(f_eng.mean() - f_ref.mean()) <= 4 * pooled_se


def test_trace_determinism_and_substreams(field_691, readout_spin, readout_seq):
    cfg = ReadoutConfig(seed=31)
    t1 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    t2 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    assert np.array_equal(t1.points, t2.points)
    assert np.array_equal(t1.hidden_states, t2.hidden_states)
    other = simulate_trace(readout_spin, field_691, readout_seq,
                           ReadoutConfig(seed=32), 60)
    assert not np.array_equal(t1.points, other.points)


@pytest.mark.parametrize("mode, overrides", [
    ("magnus", {}),
    ("exact", {"pi_pulse_error": 1e-4, "t1n_up": 5.0, "t1n_down": 20.0}),
], ids=["magnus", "exact-kicks-asymmetric-t1"])
def test_trace_matches_the_per_point_chain(field_691, readout_spin,
                                           readout_seq, mode, overrides):
    """``simulate_trace`` carries the locked-basis state from point to point
    and moves one Philox to each point's counter.  That is the same trace,
    draw for draw, as chaining ``simulate_point`` over density matrices from
    the fully mixed state with a fresh ``_point_rng(seed, i)`` per point.
    The exact case runs transients, kicks and unequal T1 flips."""
    from ddread.measurement import _point_rng

    ch = measurement_channel(readout_spin, field_691, readout_seq, mode)
    for seed in (3, 77, 2**40 + 5):
        cfg = ReadoutConfig(seed=seed, **overrides)
        trace = simulate_trace(readout_spin, field_691, readout_seq, cfg,
                               300, mode)
        rho, rows = np.eye(2, dtype=complex) / 2.0, []
        for i in range(300):
            count, rho, dominant = simulate_point(rho, ch, cfg,
                                                  _point_rng(seed, i))
            rows.append((count, dominant))
        points, hidden = np.array(rows).T
        assert np.array_equal(trace.points, points)
        assert np.array_equal(trace.hidden_states, hidden)
        assert len(set(hidden.tolist())) == 2  # the chain flips


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


def _row_writer(trace, path, config_hash=""):
    """``trace_to_csv`` as one formatted write per row (the writer's oracle)."""
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_sha256={config_hash} seed={trace.seed}\n")
        if trace.hidden_states is None:
            fh.write("point_index,photon_count\n")
            for i, c in enumerate(trace.points):
                fh.write(f"{i},{int(c)}\n")
            return
        fh.write("point_index,photon_count,hidden_state\n")
        for i, (c, h) in enumerate(zip(trace.points, trace.hidden_states)):
            fh.write(f"{i},{int(c)},{int(h)}\n")


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("with_hidden", [True, False], ids=["3col", "2col"])
def test_trace_to_csv_matches_the_row_writer(tmp_path, monkeypatch, n,
                                             with_hidden):
    """The block writer gives the row writer's bytes for any block size."""
    import ddread.measurement as m

    rng = np.random.default_rng(n)
    hidden = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    trace = PhotonTrace(points=rng.integers(0, 10**12, n),
                        hidden_states=hidden if with_hidden else None,
                        config=ReadoutConfig(), seed=12)
    for config_hash in ("", "abc123"):
        _row_writer(trace, tmp_path / "rows.csv", config_hash)
        for block in (7, 1000, m._CSV_BLOCK):
            monkeypatch.setattr(m, "_CSV_BLOCK", block)
            trace_to_csv(trace, tmp_path / "blocks.csv", config_hash)
            assert ((tmp_path / "blocks.csv").read_bytes()
                    == (tmp_path / "rows.csv").read_bytes())


@pytest.mark.parametrize("with_hidden", [True, False], ids=["3col", "2col"])
def test_trace_reader_reads_across_blocks(tmp_path, monkeypatch, with_hidden):
    """A trace many blocks long reads back whole through the array reader."""
    import ddread.measurement as m

    rng = np.random.default_rng(3)
    hidden = rng.choice(np.array([-1, 1], dtype=np.int8), 1000)
    trace = PhotonTrace(points=rng.integers(0, 10**12, 1000),
                        hidden_states=hidden if with_hidden else None,
                        config=ReadoutConfig(), seed=12)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path, "abc123")
    monkeypatch.setattr(m, "_CSV_BLOCK", 7)
    seed, counts, states = m._read_trace_array(path, 0)
    assert seed == 12 and counts.tolist() == trace.points.tolist()
    if with_hidden:
        assert states.tolist() == hidden.tolist()
    else:
        assert states is None


_BODY = "0,2400,1\n1,2300,-1\n2,2500,1\n{row}\n4,2350,-1\n"
_HEADER = "# config_sha256=abc seed=42\npoint_index,photon_count,hidden_state\n"
# name -> (file text, the array reader must serve it itself)
_TRACE_FILES = {
    "3col": (_HEADER + _BODY.format(row="3,2450,1"), True),
    "2col": ("point_index,photon_count\n0,2400\n1,2300\n", True),
    "no-header": ("0,2400,1\n1,2300,-1\n", True),
    "crlf": (_HEADER.replace("\n", "\r\n")
             + _BODY.format(row="3,2450,1").replace("\n", "\r\n"), True),
    "leading-blank-lines": ("\n\n" + _HEADER + "\n" + _BODY.format(row="3,1,1"),
                            True),
    "blank-line-in-rows": (_HEADER + _BODY.format(row="\n3,2450,1"), True),
    "one-row": (_HEADER + "0,2400,-1\n", True),
    "no-rows": (_HEADER, False),
    "empty": ("", False),
    "blank-only": ("\n \n", False),
    "seed-comment-in-rows": (_HEADER + _BODY.format(row="# again seed=9"), False),
    "header-in-rows": (_HEADER + _BODY.format(row="point_index,photon_count,hidden_state"),
                       False),
    "whitespace-line-in-rows": (_HEADER + _BODY.format(row="   "), False),
    "negative-seed": ("# config_sha256=abc seed=-3\n" + _BODY.format(row="3,1,1"),
                      False),
    "bad-seed": ("# seed=x\n" + _BODY.format(row="3,1,1"), False),
    "width-4": (_HEADER + _BODY.format(row="3,2400,1,0"), False),
    "width-2-in-3": (_HEADER + _BODY.format(row="3,2400"), False),
    "width-1": ("0\n1\n", False),
    "letter-in-count": (_HEADER + _BODY.format(row="3,24x0,1"), False),
    "empty-count": (_HEADER + _BODY.format(row="3,,1"), False),
    "hidden-0": (_HEADER + _BODY.format(row="3,2400,0"), False),
    "hidden-300": (_HEADER + _BODY.format(row="3,2400,300"), False),
    "count-space": (_HEADER + _BODY.format(row="3, 12,1"), True),
    "count-plus": (_HEADER + _BODY.format(row="3,+12,1"), True),
    "count-underscore": (_HEADER + _BODY.format(row="3,1_000,1"), False),
    "count-float": (_HEADER + _BODY.format(row="3,1.0,1"), False),
    "count-exponent": (_HEADER + _BODY.format(row="3,1e3,1"), False),
    "trailing-comma": (_HEADER + _BODY.format(row="3,12,1,"), False),
    "count-full-width": (_HEADER + _BODY.format(row="3,\uff11\uff12,1"), False),
    "count-negative": (_HEADER + _BODY.format(row="3,-5,1"), False),
    "count-2**63": (_HEADER + _BODY.format(row=f"3,{2**63},1"), False),
    "count-2**63-1": (_HEADER + _BODY.format(row=f"3,{2**63 - 1},1"), True),
    "index-not-a-number": (_HEADER + _BODY.format(row="?,12,1"), False),
}


def _parsed(read, path, seed):
    """(seed, counts, hidden states) as lists, or the ValueError's text."""
    try:
        seed, counts, hidden = read(path, seed)
    except ValueError as exc:
        return str(exc)
    assert counts.typecode == "q" and (hidden is None or hidden.typecode == "b")
    return seed, counts.tolist(), None if hidden is None else hidden.tolist()


@pytest.mark.parametrize("name", list(_TRACE_FILES))
def test_trace_reader_fast_path_matches_the_line_parser(tmp_path, name):
    """The array reader gives the line parser's result or hands the file to
    it, so ``read_trace_csv`` returns the same trace or raises the same
    line-naming error as the line parser alone."""
    import ddread.measurement as m

    text, served = _TRACE_FILES[name]
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    expected = _parsed(m._read_trace_lines, path, 5)
    fast = m._read_trace_array(path, 5)  # a loadtxt warning fails here
    assert (fast is not None) == served
    if fast is not None:
        assert _parsed(lambda *_: fast, path, 5) == expected
    readout = ReadoutConfig(seed=5)
    try:
        trace = read_trace_csv(path, readout)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        hidden = trace.hidden_states
        assert (trace.seed, trace.points.tolist(),
                None if hidden is None else hidden.tolist()) == expected
        assert trace.points.dtype == np.int64
        assert hidden is None or hidden.dtype == np.int8
        assert trace.config == replace(readout, seed=trace.seed)


def test_photon_trace_validation():
    cfg = ReadoutConfig()
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([1, 2]), hidden_states=np.array([1]),
                    config=cfg, seed=0)
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([-1]), hidden_states=np.array([1]),
                    config=cfg, seed=0)
