"""The quiet-point sampler against the event loop it short-cuts.

The engine and trace loop below are the reference: they enter the event loop
for every point, find the start's fixed point with the ``abs`` test and draw
its clocks there.  The sampler draws a point's live clocks from its start
table before any event loop set-up and leaves the photon run of a point
whose clocks all land beyond it to the trace's block stream; any other point
resets its substream and enters the event loop, which draws the same clocks
again.  The reference finds those quiet points itself and replays the block
stream's draws for them.  The draws and their order are the same, so the
traces must be equal, not close.

The block stream changed the bytes of every projective trace, so the last
test checks, across seeds, that it did not change their distribution: the
reference without the replay is the layout before the block stream.
"""

import numpy as np
import pytest

from conftest import replay_quiet_runs
from ddread.analysis import (
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    fidelity_vs_threshold,
)
from ddread.measurement import (
    _NEGLIGIBLE,
    PhotonTrace,
    ReadoutConfig,
    _collapse,
    _point_rng,
    _start_table,
    _t1_flip_probs,
    measurement_channel,
    simulate_trace,
)
from ddread.sequence import CpmgSequence

# ------------------------------------------------------------ event loop


def loop_point(psi, channel, config, rng, flips, first=None):
    """The event loop for the whole point: (count, psi, dominant state,
    outcome o of a quiet point or None).  ``first`` collects, for a point
    that starts on a fixed point, the clocks drawn there (other outcome,
    kick, flip; None for one not drawn)."""
    _, kraus, fixed = channel.locked_frame
    f_up, f_down = flips  # T1 flip probabilities per cycle
    eie, pie, rates = (config.electron_init_error, config.pi_pulse_error,
                       (config.photon_rate_bright, config.photon_rate_dark))
    remaining, photons, up_cycles, run, run_len = config.cycles_per_point, 0, 0, 0, 0
    quiet = None

    def emit(outcome, n):  # n cycles of ``outcome``; a new outcome ends the run
        nonlocal photons, run, run_len
        if outcome != run and run_len:
            wrong = int(rng.binomial(run_len, eie)) if eie > 0 else 0
            photons += int(rng.poisson(rates[run] * (run_len - wrong)))
            photons += int(rng.poisson(rates[1 - run] * wrong)) if wrong else 0
        run, run_len = outcome, (run_len if outcome == run else 0) + n

    while remaining:
        o = next((o for o, (v, _, _) in enumerate(fixed)
                  if abs(v[0] * psi[1] - v[1] * psi[0]) ** 2 < _NEGLIGIBLE), None)
        flip = None  # None: drawn in this cycle
        if o is None:  # transient: step one cycle
            outcome = int(rng.random() >= _collapse(kraus[0], psi)[0])
            kick = rng.random() < pie
        else:  # quiet cycles at v_o up to the first event cycle
            psi, q, p_up = fixed[o]
            emit(o, 0)
            probs = (q, pie, f_down + p_up * (f_up - f_down))
            t_other, t_kick, t_flip = clocks = [
                int(rng.geometric(p)) if p > _NEGLIGIBLE else remaining + 1
                for p in probs]
            if first is not None and remaining == config.cycles_per_point:
                first.append([t if p > _NEGLIGIBLE else None
                              for t, p in zip(clocks, probs)])
            t = min(t_other, t_kick, t_flip, remaining + 1)
            if t > remaining == config.cycles_per_point:
                quiet = o  # no clock fires in the point
            emit(o, t - 1)
            up_cycles += (t - 1) * (p_up > 0.5)
            remaining -= t - 1
            if not remaining:
                break
            outcome, kick = (1 - o if t_other == t else o), t_kick == t
            flip = None if kick or outcome != o else True
        if outcome != o:
            psi = _collapse(kraus[outcome], psi)[1]
        emit(outcome, 1)
        if kick:
            psi = ((1 + 0j, 0j), (0j, 1 + 0j))[rng.random() >= 0.5]
        p_up = abs(psi[0]) ** 2
        up_cycles += p_up > 0.5
        if flip or flip is None and rng.random() < f_down + p_up * (f_up - f_down):
            psi = psi[::-1]
        remaining -= 1
    emit(None, 0)
    dominant = 1 if 2 * up_cycles >= config.cycles_per_point else -1
    return photons, psi, dominant, quiet


def loop_trace(channel, config, n_points, first=None, block=True):
    """(points, hidden states, outcome o of each quiet point, -1 elsewhere)
    of ``simulate_trace``, one event loop per point and the quiet points'
    photon runs replayed from the block stream.  ``block=False`` keeps each
    quiet point's own draws: the layout before the block stream."""
    flips = _t1_flip_probs(config)
    rng = _point_rng(config.seed, 0)
    bitgen, start = rng.bit_generator, rng.bit_generator.state
    counter = start["state"]["counter"]
    points = np.empty(n_points, dtype=np.int64)
    hidden = np.empty(n_points, dtype=np.int8)
    outcome = np.full(n_points, -1)
    for i in range(n_points):
        counter[2] = i
        bitgen.state = start
        u = rng.random()
        if not i:
            psi = [1.0, 0.0] if u < 0.5 else [0.0, 1.0]
        points[i], psi, hidden[i], o = loop_point(
            psi, channel, config, rng, flips, first)
        if o is not None:
            outcome[i] = o
    if block:
        quiet = outcome >= 0
        points[quiet] = replay_quiet_runs(config, outcome[quiet].tolist())
    return points, hidden, outcome


# ------------------------------------------------------------ equality

# T1n of a few point durations or less: a flip clock fires in most points, and
# the misassignment and kick settings switch the binomial draw and the kick
# clock on and off.
GRID = [(eie, pie) for eie in (0.0, 0.1) for pie in (0.0, 1e-3)]
# A weak working point (q = 0.25 per cycle) with frequent kicks and the
# default T1s: the other-outcome and the kick clock each fire in a point's
# last cycle while the other clocks land beyond it.
WEAK_SEQ, WEAK_PIE = CpmgSequence(4, 248e-9), 0.1
# The start table's edge entries: no live clock at either fixed point (frozen
# T1, no kicks; in magnus mode no other outcome either), and a T1 clock live
# at the down fixed point only (frozen T1 up; in magnus mode the flip
# probability at v_up is exactly 0).
EDGES = [dict(t1n_up=np.inf, t1n_down=np.inf),
         dict(t1n_up=np.inf, t1n_down=0.3)]


@pytest.mark.parametrize("cycles", [1, 2, 7, 2000])
@pytest.mark.parametrize("mode", ["magnus", "exact"])
def test_trace_matches_the_event_loop(field_691, readout_spin, readout_seq,
                                      mode, cycles):
    cases = [(readout_seq, ReadoutConfig(
        cycles_per_point=cycles, point_duration=0.189, t1n_up=0.1,
        t1n_down=0.3, electron_init_error=eie, pi_pulse_error=pie,
        seed=101 + k)) for k, (eie, pie) in enumerate(GRID)]
    cases += [(readout_seq, ReadoutConfig(
        cycles_per_point=cycles, point_duration=0.189,
        electron_init_error=0.1, seed=111 + k, **t1s))
        for k, t1s in enumerate(EDGES)]
    if cycles < 2000:
        cases.append((WEAK_SEQ, ReadoutConfig(cycles_per_point=cycles,
                                              pi_pulse_error=WEAK_PIE,
                                              seed=105)))
    first, quiet = [], []  # per case, the clocks of each point that starts
    for seq, config in cases:  # on v_o, and which points are quiet
        channel = measurement_channel(readout_spin, field_691, seq, mode)
        first.append([])
        trace = simulate_trace(readout_spin, field_691, seq, config, 200, mode)
        points, hidden, outcome = loop_trace(channel, config, 200, first[-1])
        assert np.array_equal(trace.points, points)
        assert np.array_equal(trace.hidden_states, hidden)
        quiet.append((outcome >= 0, hidden))
    if mode == "magnus":
        # the live slots (other outcome 0, kick 1, T1 flip 2) at (v_up, v_down)
        edges = cases[len(GRID):len(GRID) + 2]
        assert [[start.slots for start in _start_table(
            measurement_channel(readout_spin, field_691, seq, mode), config)]
            for seq, config in edges] == [[(), ()], [(), (2,)]]
        # no live clock: every point quiet, the hidden state constant
        still, hidden = quiet[len(GRID)]
        assert still.all() and len(set(hidden.tolist())) == 1
        # T1 live at v_down only: the trace starts down, flips up and stays
        _, hidden = quiet[len(GRID) + 1]
        up = hidden.argmax()
        assert hidden[0] == -1 and (hidden[up:] == 1).all()
    if cycles == 2000:
        return
    # the quiet test's edge: at the projective point, an event in a point's
    # last cycle, and a first clock one cycle beyond the point
    earliest = {min(t for t in clocks if t is not None)
                for clocks in sum(first[:len(GRID)], [])}
    assert {cycles, cycles + 1} <= earliest
    # and, at the weak point, where every point starts on v_o in magnus mode,
    # the other-outcome clock and the kick clock each alone in the last cycle
    if mode == "magnus":
        for i in (0, 1):
            assert any(clocks[i] == cycles and all(
                t is None or t > cycles for t in clocks[:i] + clocks[i + 1:])
                for clocks in first[-1])


# ------------------------------------------------------------ distribution

LAYOUT_SEEDS = range(20)
# Bounds fixed before the first run: a two-sample KS p-value of at least
# 1e-3, and every shift within 4 of its standard errors.
KS_P_MIN, Z_MAX = 1e-3, 4.0


def test_block_layout_keeps_the_distribution(field_691, readout_spin,
                                             readout_seq):
    """Criterion 5 and 6's trace (demo working point, 5,000 points) over 20
    seeds, drawn with the block stream and with each quiet point's own draws
    (the layout before it).  The hidden states are the same trace for trace.
    The quiet points' counts, pooled per locked state, agree in distribution
    (two-sample KS), mean and spread.  The ``detect_jumps`` dwell mean and
    the fidelity of each seed move by less than their paired spread across
    seeds allows."""
    from scipy.stats import ks_2samp

    channel = measurement_channel(readout_spin, field_691, readout_seq,
                                  "magnus")
    policy = ThresholdPolicy()
    quiet = {0: ([], []), 1: ([], [])}  # outcome -> (block, own) counts
    shifts = []  # per seed: (dwell mean, fidelity) with block minus own
    for seed in LAYOUT_SEEDS:
        config = ReadoutConfig(seed=seed)
        trace = simulate_trace(readout_spin, field_691, readout_seq, config,
                               5000, "magnus")
        points, hidden, outcome = loop_trace(channel, config, 5000,
                                             block=False)
        assert np.array_equal(trace.hidden_states, hidden)
        for o, (block, own) in quiet.items():
            block.append(trace.points[outcome == o])
            own.append(points[outcome == o])
        stats = []
        for t in (trace, PhotonTrace(points, hidden, config)):
            jumps = detect_jumps(t, policy)
            report = fidelity_vs_threshold(conditional_histograms(t, policy))
            stats.append((
                np.concatenate([jumps.dwells_up, jumps.dwells_down]).mean(),
                min(report.fidelity_up, report.fidelity_down)))
        shifts.append(np.subtract(*stats))
    for block, own in quiet.values():
        a, b = np.concatenate(block), np.concatenate(own)
        assert ks_2samp(a, b).pvalue >= KS_P_MIN
        assert abs(a.mean() - b.mean()) <= Z_MAX * np.hypot(
            a.std() / np.sqrt(len(a)), b.std() / np.sqrt(len(b)))
        assert abs(a.std() - b.std()) <= Z_MAX * np.hypot(
            a.std() / np.sqrt(2 * len(a)), b.std() / np.sqrt(2 * len(b)))
    shifts = np.array(shifts)
    assert (np.abs(shifts.mean(axis=0))
            <= Z_MAX * shifts.std(axis=0, ddof=1) / np.sqrt(len(shifts))).all()
