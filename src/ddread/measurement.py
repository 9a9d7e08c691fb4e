"""Measurement channel of one readout cycle and the photon-trace Monte Carlo.

One cycle is: electron prepared in an equal superposition, CPMG conditional
evolution, a final pi/2 rotation in the conjugate quadrature, optical readout
of the electron.  Tracing out the electron leaves a two-outcome Kraus channel
on the nucleus whose strength runs from no measurement to fully projective as
the conditional phase grows.

Long photon traces are produced by chaining many 40,000-cycle points.  Each
point draws its unravel word and its clocks from its own counter-based
substream: one Philox bit generator serves the whole trace and has its
counter set to the point's block before the point, which gives the same
substreams as a fresh generator per point.  A point with an event draws its
photons there too.  A quiet point (it starts on a fixed point and no clock
fires in it) feeds nothing back into the chain, so its photon run is drawn
after the loop, with every other quiet point's, from one block stream per
trace (Philox key [seed, 1]).  The hidden trajectory therefore does not
depend on the photon draws, and traces are reproducible bit for bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .sequence import CpmgSequence
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    conditional_propagators,
    effective_frame,
    spin_operator,
)

@dataclass(frozen=True)
class MeasurementChannel:
    """Two-outcome Kraus pair on the nuclear spin.

    Outcome 0 is the optically bright electron class, outcome 1 the dark one.
    ``basis_up``/``basis_down`` are the I_perp eigenstates the channel pins in
    the projective limit; kept so the trace engine can label hidden states.
    """

    kraus_0: np.ndarray
    kraus_1: np.ndarray
    basis_up: np.ndarray
    basis_down: np.ndarray

    def completeness_defect(self) -> float:
        k0, k1 = self.kraus_0, self.kraus_1
        return float(np.linalg.norm(
            k0.conj().T @ k0 + k1.conj().T @ k1 - np.eye(2)
        ))

    def outcome_probability(self, outcome: int, rho: np.ndarray) -> float:
        k = self.kraus_0 if outcome == 0 else self.kraus_1
        return float(np.real(np.trace(k @ rho @ k.conj().T)))

    def apply(self, outcome: int, rho: np.ndarray) -> np.ndarray:
        k = self.kraus_0 if outcome == 0 else self.kraus_1
        post = k @ rho @ k.conj().T
        return post / np.real(np.trace(post))

    @cached_property
    def locked_frame(self):
        """The trajectory engine's set-up, once per channel: the locked basis,
        the Kraus pair in it as nested lists, and per outcome o the fixed point
        v_o of K_o (dominant eigenvector), |K_(1-o) v_o|^2 and |<up|v_o>|^2."""
        basis = np.column_stack([self.basis_up, self.basis_down])
        kraus = [(basis.conj().T @ k @ basis).tolist()
                 for k in (self.kraus_0, self.kraus_1)]
        vs = [vecs[:, np.argmax(np.abs(vals))].tolist()
              for vals, vecs in map(np.linalg.eig, kraus)]
        fixed = [(v, _collapse(kraus[1 - o], v)[0], abs(v[0]) ** 2)
                 for o, v in enumerate(vs)]
        return basis, kraus, fixed


def measurement_channel(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> MeasurementChannel:
    """Kraus pair induced on the nucleus by one ramsey-CPMG-readout cycle.

    The electron starts in |0>, is rotated to (|0>+|1>)/sqrt(2), picks up the
    conditional evolution |0><0| x U_minus + |1><1| x U_plus, and is rotated
    back by the conjugate pi/2 gate (the quadrature in which the two
    conditional phases +/-2N*Phi map onto the two poles) before projective
    optical readout.  This gives

        K_0 = (U_minus - i U_plus) / 2,   K_1 = (U_minus + i U_plus) / 2,

    which is trace preserving for any unitary pair and projective exactly at
    2 N Phi = pi/2.
    """
    frame = effective_frame(spin, fieldcfg, consts)
    u_plus, u_minus = conditional_propagators(
        spin, fieldcfg, seq.n_pulses, seq.tau, propagator_mode, consts
    )
    _, vecs = np.linalg.eigh(spin_operator(frame.n_perp))
    kraus_0, kraus_1 = _kraus_pair(u_plus, u_minus)
    # label "up" the locked state more likely to give the bright outcome 0,
    # so high photon counts track hidden state +1
    p0 = [float(np.linalg.norm(kraus_0 @ vecs[:, j]) ** 2) for j in (0, 1)]
    i_up = int(np.argmax(p0))
    return MeasurementChannel(
        kraus_0=kraus_0, kraus_1=kraus_1,
        basis_up=vecs[:, i_up], basis_down=vecs[:, 1 - i_up],
    )


def _kraus_pair(u_plus: np.ndarray, u_minus: np.ndarray):
    """(K_0, K_1) of ``measurement_channel`` for (batches of) propagator pairs."""
    return (u_minus - 1.0j * u_plus) / 2.0, (u_minus + 1.0j * u_plus) / 2.0


def entanglement_vs_n(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    tau: float,
    n_max: int,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Electron-nuclear entanglement entropy (bits) versus pulse number.

    The nuclear input is the balanced superposition of the locked states,
    (|up> + |down>)/sqrt(2).  Returns (n values, entropies, phases) where the
    phase is the conditional rotation angle 2*N*Phi extracted from the
    propagator pair (entropy maxima sit at pi/2 mod pi).
    """
    frame = effective_frame(spin, fieldcfg, consts)
    ns = np.arange(1, n_max + 1)
    u_plus, u_minus = conditional_propagators(
        spin, fieldcfg, ns, tau, propagator_mode, consts
    )
    kraus_0, kraus_1 = _kraus_pair(u_plus, u_minus)
    # (|up> + |down>) / sqrt(2) does not depend on which locked state the
    # channel labels "up", so the label is not needed here
    _, vecs = np.linalg.eigh(spin_operator(frame.n_perp))
    psi_n = (vecs[:, 0] + vecs[:, 1]) / np.sqrt(2.0)
    # joint state before readout, one row per electron outcome
    block = np.stack([kraus_0 @ psi_n, kraus_1 @ psi_n], axis=1)
    block /= np.linalg.norm(block, axis=(1, 2))[:, None, None]
    # reduced electron state: trace over the nucleus
    rho_e = block @ block.conj().transpose(0, 2, 1)
    evals = np.clip(np.linalg.eigvalsh(rho_e), 1e-18, 1.0)
    entropies = -(evals * np.log2(evals)).sum(axis=1)
    # the eigenphase gap of U_plus^dag U_minus is twice the conditional
    # rotation angle 2 N Phi
    u_rel = np.linalg.eigvals(u_plus.conj().transpose(0, 2, 1) @ u_minus)
    phases = np.abs(np.angle(u_rel[:, 0] / u_rel[:, 1])) / 2.0
    return ns, entropies, phases


@dataclass(frozen=True)
class ReadoutConfig:
    """Calibration constants of the single-shot readout engine.

    Photon rates are means per cycle for the two electron outcome classes.
    ``electron_init_error`` is the per-cycle probability that the optical
    outcome class is misassigned (imperfect electron initialization and
    readout contrast lumped together); its default is calibrated so the
    default working point reproduces the reference single-shot fidelity of
    about 95.5%, so it is a consistency constant, not a prediction.  ``pi_pulse_error`` is a per-cycle
    depolarizing weight applied to the nuclear state (flip-pulse leakage);
    the default keeps it off so nuclear jumps are governed by T1 alone.
    """

    cycles_per_point: int = 40000
    photon_rate_bright: float = 0.063
    photon_rate_dark: float = 0.0575
    t1n_up: float = 15.0
    t1n_down: float = 15.0
    point_duration: float = 0.189
    electron_init_error: float = 0.10
    pi_pulse_error: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.cycles_per_point < 1:
            raise ValueError("cycles_per_point must be >= 1")
        if self.photon_rate_bright < 0 or self.photon_rate_dark < 0:
            raise ValueError("photon rates must be non-negative")
        for p in (self.electron_init_error, self.pi_pulse_error):
            if not (0.0 <= p <= 1.0):
                raise ValueError("error probabilities must lie in [0, 1]")
        if self.t1n_up <= 0 or self.t1n_down <= 0 or self.point_duration <= 0:
            raise ValueError("lifetimes and durations must be positive")

    @property
    def cycle_time(self) -> float:
        return self.point_duration / self.cycles_per_point


@dataclass(frozen=True)
class PhotonTrace:
    """Binned photon counts plus the ground-truth nuclear trajectory.

    ``hidden_states`` (+1 for up, -1 for down) is the dominant locked state
    during each point, or None for an experimental trace; it exists for
    validation only and must not leak into analysis that claims to be
    single-shot.  Its seed is the seed of its ``config``.
    """

    points: np.ndarray
    hidden_states: np.ndarray | None
    config: ReadoutConfig

    @property
    def seed(self) -> int:
        return self.config.seed

    def __post_init__(self):
        if self.hidden_states is not None:
            if len(self.points) != len(self.hidden_states):
                raise ValueError("points/hidden_states length mismatch")
            if not np.all(np.abs(self.hidden_states) == 1):
                raise ValueError("hidden states must be +1 or -1")
        if np.any(self.points < 0):
            raise ValueError("photon counts must be non-negative")


def _point_rng(seed: int, point_index: int) -> np.random.Generator:
    """Counter-based substream of one point: Philox keyed by the master seed,
    counter set to a block 2^128 apart per point.  ``simulate_trace`` moves
    one such generator from point to point by resetting its counter."""
    bitgen = np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0],
                              counter=[0, 0, point_index, 0])
    return np.random.Generator(bitgen)


def _plain_state(bitgen: np.random.Philox) -> dict:
    """``bitgen.state`` with its counter, key and buffer as lists of Python
    ints: the same state, which the ``state`` setter takes about three times
    faster, as it reads arrays one numpy scalar at a time."""
    state = bitgen.state
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    return state


def simulate_point(rho: np.ndarray, channel: MeasurementChannel,
                   config: ReadoutConfig, rng: np.random.Generator):
    """One binned data point of cycles_per_point measurement cycles from the
    nuclear density matrix ``rho``: each cycle draws the electron outcome from the Kraus pair and collapses the nucleus,
    then Poisson photons of the outcome class (misassigned with probability
    electron_init_error), the optional depolarizing kick and a T1 flip.
    Returns (photon_count, rho_after, dominant_state), the dominant
    locked state +1 (up) / -1 (down) by occupation time."""
    # unravel the input into a pure locked-basis state with one uniform draw
    basis = channel.locked_frame[0]
    evals, evecs = np.linalg.eigh(basis.conj().T @ rho @ basis)
    if evals[1] - evals[0] < _NEGLIGIBLE:  # rho ∝ 1: any basis unravels it
        evecs = np.eye(2)
    psi = evecs[:, 0 if rng.random() < evals[0] / evals.sum() else 1].tolist()
    table = _start_table(channel, config)
    o = _fixed_index(psi, table)
    before = rng.bit_generator.state
    if o is not None and all(rng.geometric(p) > config.cycles_per_point
                             for p in table[o].probs):
        # simulate_trace's quiet test: one quiet run of outcome o
        psi, dominant = table[o].v, table[o].dominant
        count = _photon_runs(rng, config, np.array([o]))[0]
    else:  # the event loop, from the stream before any clock was drawn
        rng.bit_generator.state = before
        count, psi, dominant = _simulate_point_aggregate(
            psi, channel, config, rng, _t1_flip_probs(config), table)
    psi_lab = basis @ np.array(psi)
    return count, np.outer(psi_lab, psi_lab.conj()), dominant


# Probabilities below the channel's rounding (completeness defect ~1e-16) are 0:
# such a clock never fires, and a state with less weight off a fixed point is on it.
_NEGLIGIBLE = 1e-15


def _collapse(k, psi):
    """(|K psi|^2, K psi normalized), in scalar complex arithmetic."""
    x = [row[0] * psi[0] + row[1] * psi[1] for row in k]
    p = abs(x[0]) ** 2 + abs(x[1]) ** 2
    return p, ((x[0] / p ** 0.5, x[1] / p ** 0.5) if p else psi)


def _fixed_index(psi, table):
    """Outcome o of the first fixed point v_o of the ``_start_table`` that
    ``psi`` is on, or None."""
    return next((o for o, v, *_ in table
                 if abs(v[0] * psi[1] - v[1] * psi[0]) ** 2 < _NEGLIGIBLE), None)


def _t1_flip_probs(config: ReadoutConfig):
    dt = config.cycle_time
    return tuple(float(1.0 - np.exp(-dt / t1))
                 for t1 in (config.t1n_up, config.t1n_down))


class _Start(NamedTuple):
    """A point's start on the fixed point ``v`` of K_o.  A point there runs
    three competing geometric clocks, in this draw order (their slots):
    other outcome (0), depolarizing kick (1) and T1 flip (2).  Only the live
    ones, whose probability is above ``_NEGLIGIBLE``, are listed and drawn;
    the others never fire."""

    o: int
    v: list
    dominant: int  # the locked state of v, +1 up / -1 down
    slots: tuple  # of the live clocks
    probs: tuple  # per cycle, of the live clocks


def _start_table(channel: MeasurementChannel, config: ReadoutConfig):
    """The ``_Start`` of each outcome o of ``channel`` under ``config``."""
    f_up, f_down = _t1_flip_probs(config)
    table = []
    for o, (v, q, p_up) in enumerate(channel.locked_frame[2]):
        probs = (q, config.pi_pulse_error, f_down + p_up * (f_up - f_down))
        slots = tuple(k for k, p in enumerate(probs) if p > _NEGLIGIBLE)
        table.append(_Start(o, v, 1 if p_up > 0.5 else -1, slots,
                            tuple(probs[k] for k in slots)))
    return table


def _cycle_kernel(k0, k1, psi, u, rate_bright, rate_dark, eie, pie,
                  p_flip_up, p_flip_down):
    """Pure-state quantum-trajectory loop in the locked basis (test reference).

    ``u`` holds six pre-drawn uniforms per cycle (outcome, misassignment,
    photon count, depolarizing occurrence, depolarizing target, T1 flip), so
    the kernel is deterministic given its inputs.
    The depolarizing kick is unravelled as a jump to a random locked state
    with the channel's probability, which reproduces the density-matrix map
    in ensemble average.  Returns (photon total, cycles spent nearer up).
    """
    photons = 0
    up_cycles = 0
    for i in range(u.shape[0]):
        a0 = k0[0, 0] * psi[0] + k0[0, 1] * psi[1]
        a1 = k0[1, 0] * psi[0] + k0[1, 1] * psi[1]
        p0 = a0.real * a0.real + a0.imag * a0.imag \
            + a1.real * a1.real + a1.imag * a1.imag
        if u[i, 0] < p0:
            norm = np.sqrt(p0)
            psi[0] = a0 / norm
            psi[1] = a1 / norm
            bright = True
        else:
            b0 = k1[0, 0] * psi[0] + k1[0, 1] * psi[1]
            b1 = k1[1, 0] * psi[0] + k1[1, 1] * psi[1]
            norm = np.sqrt(b0.real * b0.real + b0.imag * b0.imag
                           + b1.real * b1.real + b1.imag * b1.imag)
            psi[0] = b0 / norm
            psi[1] = b1 / norm
            bright = False
        if eie > 0.0 and u[i, 1] < eie:
            bright = not bright
        lam = rate_bright if bright else rate_dark
        # inverse-CDF Poisson draw (lam is well below 1 in practice)
        uu = u[i, 2]
        k = 0
        p = np.exp(-lam)
        cdf = p
        while uu > cdf and k < 10000:
            k += 1
            p *= lam / k
            cdf += p
        photons += k
        if pie > 0.0 and u[i, 3] < pie:
            if u[i, 4] < 0.5:
                psi[0] = 1.0 + 0.0j
                psi[1] = 0.0 + 0.0j
            else:
                psi[0] = 0.0 + 0.0j
                psi[1] = 1.0 + 0.0j
        p_up = psi[0].real * psi[0].real + psi[0].imag * psi[0].imag
        if p_up > 0.5:
            up_cycles += 1
        if u[i, 5] < p_up * p_flip_up + (1.0 - p_up) * p_flip_down:
            tmp = psi[0]
            psi[0] = psi[1]
            psi[1] = tmp
    return photons, up_cycles


def _simulate_point_cycles(rho, channel, config, rng):
    basis = np.column_stack([channel.basis_up, channel.basis_down])
    k0 = basis.conj().T @ channel.kraus_0 @ basis
    k1 = basis.conj().T @ channel.kraus_1 @ basis
    # unravel the input density matrix into a pure state in the locked basis
    rho_b = basis.conj().T @ rho @ basis
    evals, evecs = np.linalg.eigh(rho_b)
    evals = np.clip(evals, 0.0, 1.0)
    pick = 1 if rng.random() < evals[1] / max(evals.sum(), 1e-300) else 0
    psi = np.ascontiguousarray(evecs[:, pick], dtype=np.complex128)
    p_flip_up, p_flip_down = _t1_flip_probs(config)
    u = rng.random((config.cycles_per_point, 6))
    photons, up_cycles = _cycle_kernel(
        np.ascontiguousarray(k0), np.ascontiguousarray(k1), psi, u,
        config.photon_rate_bright, config.photon_rate_dark,
        config.electron_init_error, config.pi_pulse_error,
        p_flip_up, p_flip_down,
    )
    psi_lab = basis @ psi
    rho_out = np.outer(psi_lab, psi_lab.conj())
    dominant = 1 if up_cycles * 2 >= config.cycles_per_point else -1
    return int(photons), rho_out, dominant


def _photon_runs(rng, config, outcomes):
    """Photon counts of quiet points, one per entry of the int array
    ``outcomes``: all cycles of a point give outcome o, and a binomial number
    of them are misassigned to the other class.  Drawn as arrays, in this
    order: every point's misassigned cycles (none when electron_init_error is
    0), every point's photons of its own class, then of the other class (a
    Poisson mean of 0 draws nothing).  Size-1 arrays draw what the scalar
    calls of ``_simulate_point_aggregate``'s ``emit`` draw for one run."""
    n, eie = config.cycles_per_point, config.electron_init_error
    rates = np.array([config.photon_rate_bright, config.photon_rate_dark])
    wrong = rng.binomial(n, eie, size=len(outcomes)) if eie > 0 else 0
    return (rng.poisson(rates[outcomes] * (n - wrong))
            + rng.poisson(rates[1 - outcomes] * wrong))


def _simulate_point_aggregate(psi, channel, config, rng, flips, table):
    """``simulate_point`` from the locked-basis pure state ``psi`` (a list)
    with the per-cycle T1 flip probabilities ``flips`` and the channel's
    ``_start_table``; returns the photon count, ``psi`` after the point and
    the dominant state.  Sampled exactly, event by event: at a fixed point
    v_o of K_o outcome o repeats with a constant probability, so the quiet
    cycles before an event take one geometric draw per live clock of v_o's
    entry (Dalibard, Castin & Molmer, PRL 68, 580 (1992); Gillespie, J.
    Phys. Chem. 81, 2340 (1977)).  Event and transient cycles are stepped as
    in ``_cycle_kernel``; photons are drawn per run."""
    kraus = channel.locked_frame[1]
    f_up, f_down = flips  # T1 flip probabilities per cycle
    eie, pie, rates = (config.electron_init_error, config.pi_pulse_error,
                       (config.photon_rate_bright, config.photon_rate_dark))
    remaining, photons, up_cycles, run, run_len = config.cycles_per_point, 0, 0, 0, 0

    def emit(outcome, n):  # n cycles of ``outcome``; a new outcome ends the run
        nonlocal photons, run, run_len
        if outcome != run and run_len:
            wrong = int(rng.binomial(run_len, eie)) if eie > 0 else 0
            photons += int(rng.poisson(rates[run] * (run_len - wrong)))
            photons += int(rng.poisson(rates[1 - run] * wrong)) if wrong else 0
        run, run_len = outcome, (run_len if outcome == run else 0) + n

    while remaining:
        o = _fixed_index(psi, table)
        flip = None  # None: drawn in this cycle
        if o is None:  # transient: step one cycle
            outcome = int(rng.random() >= _collapse(kraus[0], psi)[0])
            kick = rng.random() < pie
        else:  # quiet cycles at v_o up to the first event cycle
            _, psi, dominant, slots, probs = table[o]
            emit(o, 0)
            clocks = [remaining + 1] * 3  # a clock that is not live
            for k, p in zip(slots, probs):
                clocks[k] = rng.geometric(p)
            t_other, t_kick, t_flip = clocks
            t = min(t_other, t_kick, t_flip, remaining + 1)
            emit(o, t - 1)
            up_cycles += (t - 1) * (dominant > 0)
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
    return photons, psi, 1 if 2 * up_cycles >= config.cycles_per_point else -1


def simulate_trace(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    config: ReadoutConfig,
    n_points: int,
    propagator_mode: str = "magnus",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> PhotonTrace:
    """Chain ``n_points`` binned points into one photon trace.

    The nuclear spin starts fully mixed and is collapsed by the first cycles;
    afterwards it telegraphs between the locked states with the configured T1.
    The default propagator mode is "magnus" so that a resonant projective
    working point is exactly quantum-non-demolition; "exact" exposes the
    residual measurement back-action instead.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    channel = measurement_channel(spin, fieldcfg, seq, propagator_mode, consts)
    # One generator serves every point.  Point 0's fresh state (empty buffer)
    # with its counter set to [0, 0, i, 0] is the state _point_rng(seed, i)
    # starts in, and the Generator keeps no other stream state.
    rng = _point_rng(config.seed, 0)
    bitgen, start = rng.bit_generator, _plain_state(rng.bit_generator)
    counter, random_raw = start["state"]["counter"], bitgen.random_raw
    table, flips = _start_table(channel, config), _t1_flip_probs(config)
    n, geometric = config.cycles_per_point, rng.geometric
    counts, states, o = [], [], None  # o: the fixed point psi is on, if known
    for i in range(n_points):
        counter[2] = i
        bitgen.state = start
        # simulate_point's unravel draw, rng.random(), consumes one 64-bit
        # word: the pure state psi unravels to itself, the fully mixed start
        # to either locked state, 1/2 each.  random() is (raw >> 11) * 2**-53,
        # so random() < 0.5 is raw < 2**63.
        raw = random_raw()
        if o is None:  # the first point, or the one after an event
            if not i:
                psi = [1.0, 0.0] if raw < 1 << 63 else [0.0, 1.0]
            o = _fixed_index(psi, table)
        if o is not None:
            # On v_o: the live clocks.  If all land beyond the point, it is
            # one quiet run of outcome o, counted ~o (< 0) until the block
            # draws it, and the next point starts on v_o again.  Otherwise
            # the stream goes back to before the clocks, and the event loop
            # draws them again.
            _, psi, dominant, _, probs = table[o]
            for p in probs:
                if geometric(p) <= n:
                    break
            else:
                counts.append(~o)
                states.append(dominant)
                continue
            bitgen.state = start
            random_raw()
        count, psi, dominant = _simulate_point_aggregate(
            psi, channel, config, rng, flips, table)
        counts.append(count)
        states.append(dominant)
        o = None
    points = np.array(counts, dtype=np.int64)
    quiet = points < 0  # ~o for a quiet run of outcome o
    block = np.random.Generator(np.random.Philox(
        key=[config.seed & 0xFFFFFFFFFFFFFFFF, 1]))
    points[quiet] = _photon_runs(block, config, ~points[quiet])
    return PhotonTrace(points=points,
                       hidden_states=np.array(states, dtype=np.int8),
                       config=config)


# Rows per block of the CSV writers: bounds their memory.
_CSV_BLOCK = 4096
# Bytes per read of the trace reader: its temporaries stay within a few
# blocks plus the longest row.
_READ_BLOCK = 1 << 18
# place values of a count's digits: at most 19, whose sum fits in uint64
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_INT64_MAX = np.uint64(2**63 - 1)


def trace_to_csv(trace: PhotonTrace, path, config_hash: str = "") -> None:
    """Write (point_index, photon_count, hidden_state) rows, without the
    last column when the trace has no hidden states."""
    columns = [trace.points]
    header = "point_index,photon_count"
    if trace.hidden_states is not None:
        columns.append(trace.hidden_states)
        header += ",hidden_state"
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_sha256={config_hash} seed={trace.seed}\n")
        fh.write(header + "\n")
        _write_rows(fh, columns, numbered=True)


def _write_rows(fh, columns, numbered: bool = False) -> None:
    """Write the equal-length int ``columns`` as comma-separated rows, each
    led by its row number when ``numbered``: one format per block of
    ``_CSV_BLOCK`` rows, column values interleaved."""
    n = len(columns[0])
    row = ",".join(["%d"] * (len(columns) + numbered)) + "\n"
    for start in range(0, n, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, n)
        index = [np.arange(start, stop)] if numbered else []
        block = np.column_stack(index + [col[start:stop] for col in columns])
        fh.write(row * (stop - start) % tuple(block.ravel().tolist()))


def read_trace_csv(path, readout: ReadoutConfig) -> PhotonTrace:
    """Read what ``trace_to_csv`` writes, or an experimental trace with only
    the point_index and photon_count columns (its hidden states are None).

    The trace carries ``readout`` with the seed of the file's ``seed=``
    comment when there is one.  Rows are taken in file order; the
    point_index column is not read.  A row whose width differs from the
    first row's, whose count is not an int64 >= 0 or whose hidden state is
    not +1 or -1, or a negative seed, raises ValueError naming its line.
    """
    seed, counts, hidden = (_read_trace_array(path, readout.seed)
                            or _read_trace_lines(path, readout.seed))
    # the int64 and int8 arrays wrap the readers' buffers, uncopied
    if hidden is not None:
        hidden = np.frombuffer(hidden, dtype=np.int8)
    return PhotonTrace(points=np.frombuffer(counts, dtype=np.int64),
                       hidden_states=hidden,
                       config=replace(readout, seed=seed))


def _read_trace_array(path, seed: int):
    """``read_trace_csv``'s (seed, counts, hidden states or None) for a file
    whose leading comment, header and blank lines are followed by rows of
    2 or 3 plain integer columns (state 1 or -1) and blank lines, LF or CRLF
    ended, read in byte blocks and parsed with numpy.  Returns None for any
    other file, which the line parser then reads or refuses, naming the line.
    """
    width, counts, hidden = 0, array("q"), array("b")  # int64, int8
    with open(path, "rb") as fh:
        for first in fh:
            line = first.rstrip(b"\r\n")
            if b"\r" in line:  # a lone CR ends a line in text mode
                return None
            try:
                line = line.decode("ascii").strip()
                if line[:1] == "#":
                    seed = _comment_seed(line, seed)
                elif line and not line[0].isalpha():
                    width = line.count(",") + 1
                    break
            except ValueError:
                return None
        if width not in (2, 3):
            return None
        rest = first  # the first row starts the first block
        while True:
            chunk = fh.read(_READ_BLOCK)
            data = rest + chunk if chunk else rest + b"\n"
            cut = data.rfind(b"\n") + 1
            rest = data[cut:]
            if cut:
                rows = _parse_rows(memoryview(data)[:cut], width)
                if rows is None:
                    return None
                counts.frombytes(memoryview(rows[0]).cast("B"))
                hidden.frombytes(memoryview(rows[1]).cast("B"))
            if not chunk:
                return seed, counts, hidden if width == 3 else None


def _parse_rows(block: bytes, width: int):
    """(counts as int64, states as int8, empty for 2 columns) of the rows
    in ``block``, which ends with LF: each row ``index,count[,state]`` of
    ASCII digits with state 1 or -1, LF or CRLF ended, blank rows skipped.
    None if a row is anything else."""
    b = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    cr = np.flatnonzero(b == ord("\r"))
    commas = np.flatnonzero(b == ord(","))
    minus = np.count_nonzero(b == ord("-"))
    # every byte a digit or one of these four: none above "9", and all
    # below "0" counted here
    if b.max() > ord("9") or (np.count_nonzero(b < ord("0"))
                              != len(ends) + len(cr) + len(commas) + minus):
        return None
    if not (b[cr + 1] == ord("\n")).all():  # a lone CR ends a line in text mode
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a CRLF row ends at its CR (a row at 0 reads b[-1], the final LF)
    ends -= b[ends - 1] == ord("\r")
    full = ends > starts
    if not full.all():  # blank rows
        starts, ends = starts[full], ends[full]
    if len(commas) != (width - 1) * len(starts):
        return None
    commas = commas.reshape(-1, width - 1)
    # each row's fields lie between its own commas: the index (digits) from
    # its start, the count and the state up to its end
    count_end = commas[:, 1] if width == 3 else ends
    count_len = count_end - commas[:, 0] - 1
    if not ((commas[:, 0] >= starts).all() and (count_len >= 1).all()
            and (count_len <= 19).all()):
        return None
    if width == 3:
        # a state is "1" or "-1", and no other field holds a minus
        negative = b[count_end + 1] == ord("-")
        if not ((ends - count_end == 2 + negative).all()
                and (b[ends - 1] == ord("1")).all()
                and minus == np.count_nonzero(negative)):
            return None
        states = 1 - 2 * negative.view(np.int8)
    elif minus:
        return None
    else:
        states = np.empty(0, dtype=np.int8)
    # the count's digits summed right-aligned; 19 digits fit in uint64
    total = np.zeros(len(starts), dtype=np.uint64)
    place, shortest = count_end - 1, count_len.min(initial=19)
    for j in range(int(count_len.max(initial=0))):
        digit = b[place] - np.uint8(ord("0"))
        if j >= shortest:
            # a shorter count's place j is a byte of another field (or,
            # wrapped, of the block's end): zeroed
            digit[count_len <= j] = 0
        # uint64 named: numpy 1.x would keep a uint8 digit's type for a
        # small place value and wrap
        total += np.multiply(digit, _POW10[j], dtype=np.uint64)
        place -= 1
    if (total > _INT64_MAX).any():
        return None
    return total.view(np.int64), states


def _comment_seed(line: str, seed: int) -> int:
    """The ``seed=`` value of a comment line, else ``seed``; ValueError if
    the result is not an integer >= 0."""
    seed = next((int(tok[5:]) for tok in line.split()
                 if tok.startswith("seed=")), seed)
    if seed < 0:
        raise ValueError
    return seed


def _read_trace_lines(path, seed: int):
    """``read_trace_csv``'s (seed, counts, hidden states or None), one line
    at a time, naming the line it refuses."""
    width, counts, hidden = None, array("q"), array("b")  # int64, int8
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line[0].isalpha():
                continue  # blank or column-name row
            try:
                if line[0] == "#":
                    seed = _comment_seed(line, seed)
                    continue
                row = line.split(",")
                if len(row) != width:
                    width = width or len(row)
                    if len(row) != width or width not in (2, 3):
                        raise ValueError
                count = int(row[1])
                if count < 0:
                    raise ValueError
                counts.append(count)  # OverflowError beyond int64
                if width == 3:
                    state = int(row[2])
                    if state not in (1, -1):
                        raise ValueError
                    hidden.append(state)
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path}, line {lineno}: malformed row {line!r}") from None
    if width is None:
        raise ValueError(f"{path}: no trace rows")
    return seed, counts, hidden if width == 3 else None
