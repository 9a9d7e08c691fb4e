"""Kraus channels, entanglement tuning, and the photon-trace engine."""

import hashlib
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
from ddread.spincore import (
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    spin_from_frame_components,
)

from conftest import TWO_PI_KHZ, replay_photons
from test_sampler_oracle import loop_trace


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
    for seed in (-1, 2**63, 2**64 + 7):  # a seed is a Philox key word in int64
        with pytest.raises(ValueError, match="seed"):
            ReadoutConfig(seed=seed)
    # a point's photon mean is at most its larger rate times its cycles,
    # which must lie within numpy's Poisson range
    from ddread.measurement import _POISSON_MAX

    above = np.nextafter(_POISSON_MAX, np.inf)
    rng = np.random.default_rng(0)
    assert rng.poisson(_POISSON_MAX) > 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above)
    ReadoutConfig(photon_rate_bright=_POISSON_MAX, cycles_per_point=1)
    ReadoutConfig(photon_rate_dark=_POISSON_MAX / 8, cycles_per_point=8)
    for kwargs in ({"photon_rate_bright": above, "cycles_per_point": 1},
                   {"photon_rate_dark": 1.0e15, "cycles_per_point": 10**4},
                   {"photon_rate_bright": 1.0e300}):
        with pytest.raises(ValueError, match="Poisson limit"):
            ReadoutConfig(**kwargs)
    cfg = ReadoutConfig()
    assert cfg.cycles_per_point == 40000
    assert cfg.point_duration == pytest.approx(0.189)
    assert cfg.cycle_time == pytest.approx(0.189 / 40000)


@pytest.mark.parametrize("make", [
    lambda: FieldConfig(np.nan),
    lambda: PhysicalConstants(np.nan),
    *(lambda key=key: ReadoutConfig(**{key: np.nan}) for key in (
        "cycles_per_point", "photon_rate_bright", "photon_rate_dark",
        "t1n_up", "t1n_down", "point_duration")),
], ids=["field", "gamma_n", "cycles", "bright", "dark", "t1n_up", "t1n_down",
        "point_duration"])
def test_range_checks_refuse_nan(make):
    """NaN fails every range check: two NaN T1s, say, would give a trace
    with no jump and no warning."""
    with pytest.raises(ValueError):
        make()


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
                                              readout_seq):
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


# the cases of test_engine_matches_per_cycle_reference
REFERENCE_CASES = [
    {},
    {"pi_pulse_error": 1e-3, "t1n_up": 5e-3, "t1n_down": 20e-3},
]


@pytest.mark.parametrize("overrides", REFERENCE_CASES,
                         ids=["backaction", "kicks-asymmetric-t1"])
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


# sha256 of the points below, recorded with the numpy-scalar form of the
# per-cycle reference that the distribution tests above first ran with.  The
# rho bytes carry the exact channel's rounding, so a kernel that rounds
# differently moves the pin (the Cayley-Klein kernel did, with every count
# and dominant state unchanged and rho within 2.3e-16)
REFERENCE_PIN = "f5accae82d85b37c5ae313fc0a6273e9f899ba75e16e40ff2c6ca2f927fc2605"


def test_per_cycle_reference_draws_are_pinned(field_691, readout_spin,
                                              readout_seq):
    """The per-cycle reference that the three distribution tests above rely
    on keeps its draws and its arithmetic, bit for bit: the sha256 over
    (count, dominant state, rho bytes) of two 40,000-cycle magnus points and
    of 20 exact 2,000-cycle points per case of
    ``test_engine_matches_per_cycle_reference`` (its first 20 reference
    points) is pinned."""
    import ddread.measurement as m

    cases = [("magnus", ReadoutConfig(seed=0), 9, 2)] + [
        ("exact", ReadoutConfig(cycles_per_point=2000,
                                point_duration=0.189 / 20, **overrides), 22, 20)
        for overrides in REFERENCE_CASES]
    digest = hashlib.sha256()
    for mode, cfg, seed, n_points in cases:
        ch = measurement_channel(readout_spin, field_691, readout_seq, mode)
        rho = np.outer(ch.basis_down, ch.basis_down.conj())
        rng = np.random.default_rng(seed)
        for _ in range(n_points):
            count, rho_out, dominant = m._simulate_point_cycles(rho, ch, cfg,
                                                                rng)
            digest.update(repr((count, dominant)).encode() + rho_out.tobytes())
    assert digest.hexdigest() == REFERENCE_PIN


def test_trace_determinism_and_substreams(field_691, readout_spin, readout_seq):
    cfg = ReadoutConfig(seed=31)
    t1 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    t2 = simulate_trace(readout_spin, field_691, readout_seq, cfg, 60)
    assert np.array_equal(t1.points, t2.points)
    assert np.array_equal(t1.hidden_states, t2.hidden_states)
    other = simulate_trace(readout_spin, field_691, readout_seq,
                           ReadoutConfig(seed=32), 60)
    assert not np.array_equal(t1.points, other.points)


def _point_chain(ch, cfg, n_points):
    """(points, hidden states) of chaining ``simulate_point`` over density
    matrices from the fully mixed state, with a fresh ``_point_rng(seed, i)``
    per point.  The chain is checked, draw for draw, against the event
    loop's trace with each point's photons drawn from its tally on its own
    substream (``loop_trace`` with ``layout="point"``); its points then take
    their photons from the trace's block stream, replayed from the same
    tallies."""
    from ddread.measurement import _point_rng

    rho, rows = np.eye(2, dtype=complex) / 2.0, []
    for i in range(n_points):
        count, rho, dominant = simulate_point(rho, ch, cfg,
                                              _point_rng(cfg.seed, i))
        rows.append((count, dominant))
    points, hidden = np.array(rows).T
    own, own_hidden, _, tallies = loop_trace(ch, cfg, n_points, layout="point")
    assert np.array_equal(points, own)
    assert np.array_equal(hidden, own_hidden)
    return np.array(replay_photons(cfg, tallies.tolist())), hidden


@pytest.mark.parametrize("mode, overrides", [
    ("magnus", {}),
    ("exact", {"pi_pulse_error": 1e-4, "t1n_up": 5.0, "t1n_down": 20.0}),
], ids=["magnus", "exact-kicks-asymmetric-t1"])
def test_trace_matches_the_per_point_chain(field_691, readout_spin,
                                           readout_seq, mode, overrides):
    """``simulate_trace`` carries the locked-basis state from point to point
    and moves one Philox to each point's counter.  That is the same trace,
    draw for draw, as chaining ``simulate_point`` over density matrices from
    the fully mixed state with a fresh ``_point_rng(seed, i)`` per point,
    but for the photon counts, which the trace draws from the same tallies
    in its block stream.
    The exact case runs transients, kicks and unequal T1 flips."""
    ch = measurement_channel(readout_spin, field_691, readout_seq, mode)
    for seed in (3, 77, 2**40 + 5):
        cfg = ReadoutConfig(seed=seed, **overrides)
        trace = simulate_trace(readout_spin, field_691, readout_seq, cfg,
                               300, mode)
        points, hidden = _point_chain(ch, cfg, 300)
        assert np.array_equal(trace.points, points)
        assert np.array_equal(trace.hidden_states, hidden)
        assert len(set(hidden.tolist())) == 2  # the chain flips


@pytest.mark.parametrize("mode, overrides, n_points", [
    ("magnus", {}, 2000),
    ("exact", {"pi_pulse_error": 1e-4, "t1n_up": 5.0, "t1n_down": 20.0}, 300),
], ids=["magnus", "exact-kicks-asymmetric-t1"])
def test_hidden_trajectory_does_not_depend_on_the_photon_model(
        field_691, readout_spin, readout_seq, mode, overrides, n_points):
    """The chain draws no photons, so a trace's hidden states stay the same,
    state for state, when the photon rates or the misassignment
    probability change; only the counts move."""
    base = ReadoutConfig(seed=7, **overrides)
    traces = [simulate_trace(readout_spin, field_691, readout_seq,
                             replace(base, **photons), n_points, mode)
              for photons in ({}, {"photon_rate_bright": 0.07},
                              {"photon_rate_dark": 0.03},
                              {"electron_init_error": 0.0},
                              {"electron_init_error": 0.3})]
    assert len(set(traces[0].hidden_states.tolist())) == 2  # the chain flips
    for trace in traces[1:]:
        assert np.array_equal(trace.hidden_states, traces[0].hidden_states)
        assert not np.array_equal(trace.points, traces[0].points)


def _state_lists(state):
    """A bit generator state with every array as a list, for comparison."""
    return {k: _state_lists(v) if isinstance(v, dict)
            else v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in state.items()}


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 + 7])
def test_plain_int_reset_is_the_point_rng(seed):
    """``simulate_trace`` resets one Philox to each point's substream from a
    state of plain ints.  That is the state ``_point_rng(seed, i)`` starts
    in (the seed masked to 64 bits), and it gives the same draws."""
    from ddread.measurement import _plain_state, _point_rng

    rng = _point_rng(seed, 0)
    bitgen, start = rng.bit_generator, _plain_state(rng.bit_generator)
    words = start["state"]["counter"] + start["state"]["key"] + start["buffer"]
    assert all(type(w) is int for w in words)
    for i in (0, 1, 2, 19_999, 2**40 + 3):
        start["state"]["counter"][2] = i
        bitgen.state = start
        ref = _point_rng(seed, i)
        assert _state_lists(bitgen.state) == _state_lists(
            ref.bit_generator.state)
        # the unravel draw: one raw word is one random() of the reference
        assert (bitgen.random_raw() >> 11) * 2.0**-53 == ref.random()
        assert rng.geometric(1e-4) == ref.geometric(1e-4)
        assert rng.binomial(40_000, 0.1) == ref.binomial(40_000, 0.1)
        assert rng.poisson(2400.5) == ref.poisson(2400.5)
        assert np.array_equal(rng.random(9), ref.random(9))


def test_first_point_unravels_as_simulate_point(field_691, readout_spin,
                                                readout_seq):
    """Point 0 starts fully mixed; ``simulate_trace`` unravels it with the
    raw-word test ``raw < 2**63``, which is ``simulate_point``'s
    ``random() < 1/2`` on the same word.  Over many seeds both locked
    states are drawn, and each 1-point trace is ``simulate_point``'s, with
    its photon count from the block stream."""
    ch = measurement_channel(readout_spin, field_691, readout_seq, "magnus")
    starts = set()
    for seed in range(200):
        cfg = ReadoutConfig(seed=seed)
        trace = simulate_trace(readout_spin, field_691, readout_seq, cfg, 1,
                               "magnus")
        (count,), (dominant,) = _point_chain(ch, cfg, 1)
        assert (trace.points[0], trace.hidden_states[0]) == (count, dominant)
        starts.add(dominant)
    assert starts == {1, -1}


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
                        config=ReadoutConfig(seed=12))
    for config_hash in ("", "abc123"):
        _row_writer(trace, tmp_path / "rows.csv", config_hash)
        for block in (7, 1000, m._CSV_BLOCK):
            monkeypatch.setattr(m, "_CSV_BLOCK", block)
            trace_to_csv(trace, tmp_path / "blocks.csv", config_hash)
            assert ((tmp_path / "blocks.csv").read_bytes()
                    == (tmp_path / "rows.csv").read_bytes())


@pytest.mark.parametrize("with_hidden", [True, False], ids=["3col", "2col"])
def test_trace_reader_reads_across_blocks(tmp_path, monkeypatch, with_hidden):
    """A trace many byte blocks long, rows straddling them, reads back whole
    through the array reader."""
    import ddread.measurement as m

    rng = np.random.default_rng(3)
    hidden = rng.choice(np.array([-1, 1], dtype=np.int8), 1000)
    trace = PhotonTrace(points=rng.integers(0, 10**12, 1000),
                        hidden_states=hidden if with_hidden else None,
                        config=ReadoutConfig(seed=12))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path, "abc123")
    monkeypatch.setattr(m, "_READ_BLOCK", 7)
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
    "count-space": (_HEADER + _BODY.format(row="3, 12,1"), False),
    "count-plus": (_HEADER + _BODY.format(row="3,+12,1"), False),
    "count-underscore": (_HEADER + _BODY.format(row="3,1_000,1"), False),
    "count-float": (_HEADER + _BODY.format(row="3,1.0,1"), False),
    "count-exponent": (_HEADER + _BODY.format(row="3,1e3,1"), False),
    "trailing-comma": (_HEADER + _BODY.format(row="3,12,1,"), False),
    "count-full-width": (_HEADER + _BODY.format(row="3,\uff11\uff12,1"), False),
    "count-negative": (_HEADER + _BODY.format(row="3,-5,1"), False),
    "count-2**63": (_HEADER + _BODY.format(row=f"3,{2**63},1"), False),
    "count-2**63-1": (_HEADER + _BODY.format(row=f"3,{2**63 - 1},1"), True),
    "index-not-a-number": (_HEADER + _BODY.format(row="?,12,1"), False),
    "index-empty": (_HEADER + _BODY.format(row=",12,1"), False),
    "index-letter": (_HEADER + _BODY.format(row="3x,2400,1"), False),
    "index-question-mark": (_HEADER + _BODY.format(row="?,2350,-1"), False),
    "index-2**63": (_HEADER + _BODY.format(row=f"{2**63},12,1"), False),
    # 19 digits: the line parser reads it
    "index-2**63-1": (_HEADER + _BODY.format(row=f"{2**63 - 1},12,1"), False),
    "index-18-digits": (_HEADER + _BODY.format(row=f"{10**18 - 1},12,1"), True),
    "index-negative": (_HEADER + _BODY.format(row="-3,12,1"), False),
    "count-leading-zeros": (_HEADER + _BODY.format(row="3,0012,1"), True),
    "count-20-digits": (_HEADER + _BODY.format(row=f"3,0{2**63 - 1},1"), False),
    "count-minus-zero": (_HEADER + _BODY.format(row="3,-0,1"), False),
    "state-two-minus": (_HEADER + _BODY.format(row="3,12,--1"), False),
    "state-only-two-minus": (_HEADER + _BODY.format(row="--1"), False),
    "state-only": (_HEADER + _BODY.format(row="1"), False),
    "state-only-comma": (_HEADER + _BODY.format(row=",1"), False),
    "state-only-negative": (_HEADER + _BODY.format(row="-1"), False),
    "one-comma-in-3col": (_HEADER + _BODY.format(row="3,1"), False),
    "one-comma-negative-in-3col": (_HEADER + _BODY.format(row="3,-1"), False),
    "crlf-negative": ("0,7,-1\r\n1,12,-1\r\n\r\n2,0,-1\r\n", True),
    "commas-shifted": ("0,2400\n1,23,00\n2\n", False),
    "2col-count-negative": ("0,2400\n1,-5\n", False),
    "lone-cr": ("0,2400\r1,2300\n", False),
    "lone-cr-in-comment": ("# c\r0,2400,1\n1,2300,-1\n", False),
    "lone-cr-in-header": ("point_index,photon_count\r0,2400\n1,2300\n", False),
    "lone-cr-in-index": (_HEADER + _BODY.format(row="3\r3,2450,1"), False),
    "cr-before-crlf": ("0,2400\r\r\n1,2300\n", False),
    "no-final-newline": (_HEADER + "0,2400,1\n1,2300,-1", True),
    "final-cr": (_HEADER + "0,2400,1\n1,2300,-1\r", True),
    "negative-then-valid-seed": ("# seed=-3\n# seed=4\n" + _BODY.format(row="3,1,1"),
                                 False),
}


def _parsed(read, path, seed):
    """(seed, counts, hidden states) as lists, or the ValueError's text."""
    try:
        seed, counts, hidden = read(path, seed)
    except ValueError as exc:
        return str(exc)
    assert counts.typecode == "q" and (hidden is None or hidden.typecode == "b")
    return seed, counts.tolist(), None if hidden is None else hidden.tolist()


def _check_trace_file(tmp_path, name):
    """The array reader gives the line parser's result or hands the file to
    it, so ``read_trace_csv`` returns the same trace or raises the same
    line-naming error as the line parser alone."""
    import ddread.measurement as m

    text, served = _TRACE_FILES[name]
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    expected = _parsed(m._read_trace_lines, path, 5)
    fast = m._read_trace_array(path, 5)
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


@pytest.mark.parametrize("name", list(_TRACE_FILES))
def test_trace_reader_fast_path_matches_the_line_parser(tmp_path, name):
    _check_trace_file(tmp_path, name)


@pytest.mark.parametrize("name", list(_TRACE_FILES))
def test_trace_reader_fast_path_matches_the_line_parser_in_7_byte_reads(
        tmp_path, monkeypatch, name):
    """``_check_trace_file`` over 7-byte reads: each row's block holds it
    whole, though a row of 19 or 20 count digits spans several reads."""
    import ddread.measurement as m

    monkeypatch.setattr(m, "_READ_BLOCK", 7)
    _check_trace_file(tmp_path, name)


@pytest.mark.parametrize("width, row", [
    (3, b"1"), (3, b",1"), (3, b"-1"), (3, b"--1"), (3, b"3,1"), (3, b"3,-1"),
    (3, b",12,1"), (2, b"1"), (2, b",1"), (2, b"-1")])
def test_row_parser_hands_over_a_short_first_row(width, row):
    """A block whose first row is too short for its fields goes to the line
    parser (which refuses the row): the row's reads from its line end stop
    at b[-1], the block's final LF, and read nothing before the block."""
    import ddread.measurement as m

    for rest in (b"", b"0,2400,1\n1,12,-1\n" if width == 3 else b"0,2400\n"):
        assert m._parse_rows(row + b"\n" + rest, width) is None


def test_photon_trace_validation():
    cfg = ReadoutConfig()
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([1, 2]), hidden_states=np.array([1]),
                    config=cfg)
    with pytest.raises(ValueError):
        PhotonTrace(points=np.array([-1]), hidden_states=np.array([1]),
                    config=cfg)
