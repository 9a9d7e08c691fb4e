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
substreams as a fresh generator per point.  The chain records only each
point's number of bright (outcome 0) cycles and its dominant state; after
the loop every point's photon count is drawn from its tally, all points at
once, from one block stream per trace (Philox key [seed, 1]).  The hidden
trajectory therefore does not depend on the photon model or its
calibration, and traces are reproducible bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .coherence import n_axis
from .sequence import CpmgSequence
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    conditional_propagators,
    cpmg_cayley_klein,
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
    kraus_0 = (u_minus - 1.0j * u_plus) / 2.0
    kraus_1 = (u_minus + 1.0j * u_plus) / 2.0
    # label "up" the locked state more likely to give the bright outcome 0,
    # so high photon counts track hidden state +1
    p0 = [float(np.linalg.norm(kraus_0 @ vecs[:, j]) ** 2) for j in (0, 1)]
    i_up = int(np.argmax(p0))
    return MeasurementChannel(
        kraus_0=kraus_0, kraus_1=kraus_1,
        basis_up=vecs[:, i_up], basis_down=vecs[:, 1 - i_up],
    )


def entanglement_vs_n(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    tau: float,
    n_max: int,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Electron-nuclear entanglement entropy (bits) versus pulse number.

    With U_plus^dag U_minus = w - i v.sigma, a nuclear state of Bloch vector
    r leaves the electron's two branches the overlap |<U_plus psi|U_minus
    psi>|^2 = w^2 + (v.r)^2.  The nuclear input is the balanced
    superposition of the locked states whose Bloch vector is orthogonal to
    v: of all relative phases it gives the most entanglement, the binary
    entropy h((1 + |w|) / 2).  Returns (n values, entropies, phases) where
    the phase is the conditional rotation angle 2*N*Phi = atan2(|v|, |w|)
    in [0, pi/2], half the eigenphase gap of U_plus^dag U_minus (entropy
    maxima sit at pi/2).
    """
    ns = n_axis(n_max)
    (alpha, beta), _ = cpmg_cayley_klein(spin, fieldcfg, ns, tau,
                                         propagator_mode, consts)
    # the pair (a, b) of U_plus^dag U_minus: w = Re a is the coherence, and
    # |v| = hypot(Im a, |b|); neither depends on the pairs' axes
    a = alpha[0].conj() * alpha[1] + beta[0] * beta[1].conj()
    b = alpha[0].conj() * beta[1] - beta[0] * alpha[1].conj()
    w = np.abs(a.real)
    evals = np.clip(np.stack([1.0 + w, 1.0 - w]) / 2.0, 1e-18, 1.0)
    entropies = -(evals * np.log2(evals)).sum(axis=0)
    return ns, entropies, np.arctan2(np.hypot(a.imag, np.abs(b)), w)


# numpy's largest Poisson mean: int64 max less ten of its square roots
_POISSON_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int or numpy integer; a bool
    is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


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
        # a float or bool count would run as whole cycles or fail in the
        # sampler; a float seed fails there too, and a bool one is written
        # as seed=True, which the trace reader refuses
        for name in ("cycles_per_point", "seed"):
            _require_integer(name, getattr(self, name))
        if self.cycles_per_point < 1:
            raise ValueError("cycles_per_point must be >= 1")
        rates = (self.photon_rate_bright, self.photon_rate_dark)
        if not all(rate >= 0 for rate in rates):
            raise ValueError("photon rates must be non-negative")
        # a point's photon mean is at most its larger rate times its cycles
        if max(rates) * self.cycles_per_point > _POISSON_MAX:
            raise ValueError("photon rate times cycles_per_point must not "
                             f"exceed numpy's Poisson limit {_POISSON_MAX:.4g}")
        for p in (self.electron_init_error, self.pi_pulse_error):
            if not (0.0 <= p <= 1.0):
                raise ValueError("error probabilities must lie in [0, 1]")
        if not (self.t1n_up > 0 and self.t1n_down > 0 and self.point_duration > 0):
            raise ValueError("lifetimes and durations must be positive")
        # numpy reads a Philox key word beyond int64 through float64, so
        # larger seeds would share streams
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")

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
    nuclear density matrix ``rho``: each cycle draws the electron outcome
    from the Kraus pair and collapses the nucleus, then Poisson photons of
    the outcome class (misassigned with probability electron_init_error),
    the optional depolarizing kick and a T1 flip.  ``rho`` is unravelled
    into a locked-basis pure state with one uniform draw, the point is
    sampled by ``_simulate_point_aggregate``, and its photon count is drawn
    from its bright-cycle tally by ``_photon_counts``, all on ``rng``.
    Returns (photon_count, rho_after, dominant_state), the dominant locked
    state +1 (up) / -1 (down) by occupation time."""
    basis = channel.locked_frame[0]
    evals, evecs = np.linalg.eigh(basis.conj().T @ rho @ basis)
    if evals[1] - evals[0] < _NEGLIGIBLE:  # rho ∝ 1: any basis unravels it
        evecs = np.eye(2)
    psi = evecs[:, 0 if rng.random() < evals[0] / evals.sum() else 1].tolist()
    bright, psi, dominant = _simulate_point_aggregate(
        psi, channel, config, rng, _t1_flip_probs(config),
        _start_table(channel, config))
    count = int(_photon_counts(rng, config, np.array([bright]))[0])
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


def _simulate_point_cycles(rho, channel, config, rng):
    """``simulate_point`` stepped one cycle at a time: the pure-state
    quantum-trajectory loop in the locked basis (test reference; Dalibard,
    Castin & Molmer, PRL 68, 580 (1992)).

    After the unravel draw, each cycle takes six uniforms from one block
    drawn up front: outcome, misassignment, photon count (inverse-CDF
    Poisson), depolarizing occurrence, depolarizing target and T1 flip.  The
    depolarizing kick is unravelled as a jump to a random locked state with
    the channel's probability, which reproduces the density-matrix map in
    ensemble average.
    """
    basis, (((a, b), (c, d)), ((e, f), (g, h))), _ = channel.locked_frame
    evals, evecs = np.linalg.eigh(basis.conj().T @ rho @ basis)
    evals = np.clip(evals, 0.0, 1.0)
    pick = 1 if rng.random() < evals[1] / max(evals.sum(), 1e-300) else 0
    psi0, psi1 = evecs[:, pick].tolist()
    eie, pie = config.electron_init_error, config.pi_pulse_error
    f_up, f_down = _t1_flip_probs(config)
    # (rate, e^-rate) per class, dark then bright
    poisson = [(rate, float(np.exp(-rate)))
               for rate in (config.photon_rate_dark, config.photon_rate_bright)]
    photons = up_cycles = 0
    for u in rng.random((config.cycles_per_point, 6)).tolist():
        x, y = a * psi0 + b * psi1, c * psi0 + d * psi1
        p = x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
        bright = u[0] < p
        if not bright:
            x, y = e * psi0 + f * psi1, g * psi0 + h * psi1
            p = (x.real * x.real + x.imag * x.imag
                 + y.real * y.real + y.imag * y.imag)
        # a product with the reciprocal, as numpy divides a complex by a
        # real: the arithmetic the pinned draws were recorded with
        scale = 1.0 / math.sqrt(p)
        psi0, psi1 = x * scale, y * scale
        # the outcome's class, the other one when misassigned
        lam, term = poisson[bright != (u[1] < eie)]
        k, cdf = 0, term
        while u[2] > cdf and k < 10000:
            k += 1
            term *= lam / k
            cdf += term
        photons += k
        if u[3] < pie:
            psi0, psi1 = (1 + 0j, 0j) if u[4] < 0.5 else (0j, 1 + 0j)
        p_up = psi0.real * psi0.real + psi0.imag * psi0.imag
        up_cycles += p_up > 0.5
        if u[5] < p_up * f_up + (1.0 - p_up) * f_down:
            psi0, psi1 = psi1, psi0
    psi_lab = basis @ np.array([psi0, psi1])
    dominant = 1 if up_cycles * 2 >= config.cycles_per_point else -1
    return photons, np.outer(psi_lab, psi_lab.conj()), dominant


def _photon_counts(rng, config, bright):
    """Photon counts of points with ``bright`` (an int array) bright
    (outcome 0) cycles each.  A binomial number of each class's cycles is
    misassigned to the other class, and a point's photons are one Poisson
    draw with the summed mean of its cycles: sums of binomials and of
    Poissons are binomial and Poisson, so this is the per-cycle model in
    distribution.  Drawn as arrays, in this order: every point's
    misassigned bright cycles, then every point's misassigned dark cycles,
    then every count."""
    n, eie = config.cycles_per_point, config.electron_init_error
    wrong_bright = rng.binomial(bright, eie)
    wrong_dark = rng.binomial(n - bright, eie)
    lit = bright - wrong_bright + wrong_dark  # cycles counted in the bright class
    return rng.poisson(config.photon_rate_bright * lit
                       + config.photon_rate_dark * (n - lit))


def _simulate_point_aggregate(psi, channel, config, rng, flips, table):
    """``simulate_point`` from the locked-basis pure state ``psi`` (a list)
    with the per-cycle T1 flip probabilities ``flips`` and the channel's
    ``_start_table``, without its photons: returns the number of bright
    (outcome 0) cycles, ``psi`` after the point and the dominant state.
    Sampled exactly, event by event: at a fixed point v_o of K_o outcome o
    repeats with a constant probability, so the quiet cycles before an
    event take one geometric draw per live clock of v_o's entry (Dalibard,
    Castin & Molmer, PRL 68, 580 (1992); Gillespie, J. Phys. Chem. 81, 2340
    (1977)).  Event and transient cycles are stepped as in
    ``_simulate_point_cycles``."""
    kraus = channel.locked_frame[1]
    f_up, f_down = flips  # T1 flip probabilities per cycle
    pie = config.pi_pulse_error
    remaining, bright, up_cycles = config.cycles_per_point, 0, 0
    while remaining:
        o = _fixed_index(psi, table)
        flip = None  # None: drawn in this cycle
        if o is None:  # transient: step one cycle
            outcome = int(rng.random() >= _collapse(kraus[0], psi)[0])
            kick = rng.random() < pie
        else:  # quiet cycles at v_o up to the first event cycle
            _, psi, dominant, slots, probs = table[o]
            clocks = [remaining + 1] * 3  # a clock that is not live
            for k, p in zip(slots, probs):
                clocks[k] = rng.geometric(p)
            t_other, t_kick, t_flip = clocks
            t = min(t_other, t_kick, t_flip, remaining + 1)
            bright += (t - 1) * (o == 0)
            up_cycles += (t - 1) * (dominant > 0)
            remaining -= t - 1
            if not remaining:
                break
            outcome, kick = (1 - o if t_other == t else o), t_kick == t
            flip = None if kick or outcome != o else True
        if outcome != o:
            psi = _collapse(kraus[outcome], psi)[1]
        bright += outcome == 0
        if kick:
            psi = ((1 + 0j, 0j), (0j, 1 + 0j))[rng.random() >= 0.5]
        p_up = abs(psi[0]) ** 2
        up_cycles += p_up > 0.5
        if flip or flip is None and rng.random() < f_down + p_up * (f_up - f_down):
            psi = psi[::-1]
        remaining -= 1
    return bright, psi, 1 if 2 * up_cycles >= config.cycles_per_point else -1


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
    _require_integer("n_points", n_points)
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
    tallies, states, o = [], [], None  # o: the fixed point psi is on, if known
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
            # n cycles of outcome o, and the next point starts on v_o again.
            # Otherwise the stream goes back to before the clocks, and the
            # event loop draws them again.
            _, psi, dominant, _, probs = table[o]
            for p in probs:
                if geometric(p) <= n:
                    break
            else:
                tallies.append(0 if o else n)
                states.append(dominant)
                continue
            bitgen.state = start
            random_raw()
        bright, psi, dominant = _simulate_point_aggregate(
            psi, channel, config, rng, flips, table)
        tallies.append(bright)
        states.append(dominant)
        o = None
    block = np.random.Generator(np.random.Philox(
        key=[config.seed & 0xFFFFFFFFFFFFFFFF, 1]))
    points = _photon_counts(block, config, np.array(tallies, dtype=np.int64))
    return PhotonTrace(points=points,
                       hidden_states=np.array(states, dtype=np.int8),
                       config=config)


# Rows per block of the CSV writer: bounds its memory.
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
    columns = [np.arange(len(trace.points)), trace.points]
    head = "point_index,photon_count"
    if trace.hidden_states is not None:
        columns.append(trace.hidden_states)
        head += ",hidden_state"
    if config_hash:
        head = _provenance_line(config_hash, trace.seed) + head
    _write_rows(path, head + "\n", ",".join(["%d"] * len(columns)) + "\n", columns)


def _provenance_line(config_hash: str, seed: int) -> str:
    """The comment line that heads a run's CSV files: the config's hash and
    the seed, which ``_comment_seed`` reads back."""
    return f"# config_sha256={config_hash} seed={seed}\n"


def _write_rows(path, head: str, row: str, columns) -> None:
    """Write every CSV of the package: the text ``head``, then the
    equal-length array ``columns`` as lines of the %-format ``row``, one
    format per block of ``_CSV_BLOCK`` rows.  Each column's values go in as
    its own Python type, so an int64 prints exactly beside a float column."""
    n, width = len(columns[0]), len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            values = [None] * (width * (stop - start))
            for i, col in enumerate(columns):
                values[i::width] = col[start:stop].tolist()
            fh.write(row * (stop - start) % tuple(values))


def read_trace_csv(path, readout: ReadoutConfig) -> PhotonTrace:
    """Read what ``trace_to_csv`` writes, or an experimental trace with only
    the point_index and photon_count columns (its hidden states are None).

    The trace carries ``readout`` with the seed of the file's ``seed=``
    comment when there is one.  Rows are taken in file order; the
    point_index column is checked but its values are not used.  Lines that
    start with a letter are column-name rows before the first row and
    malformed after it.  A row whose width differs from the first row's,
    whose index or count is not an int64 >= 0 or whose hidden state is not
    +1 or -1, a seed outside [0, 2**63), or a line that is not UTF-8 text
    raises ValueError naming its line.
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
    None if a row is anything else.

    Passes over the block's bytes: an LF index, a CR count and the charset
    test.  Each row's fields are then read from its line end: the state
    ``1`` or ``-1`` and its comma, then the count, by a right-to-left digit
    scan that stops at the row's first comma; the index before it must be
    1 to 18 digits (a longer one goes to the line parser).  A CR may stand
    only before an LF, and the bytes below "0" but LF and CR must be just
    the commas and minuses that these reads found, so each row has one
    layout.  A scan stops at its first non-digit: at the latest the LF
    before its row or, for the block's first row, b[-1], the block's final
    LF, so it reads no byte before its row.
    """
    b = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    n_cr = np.count_nonzero(b == ord("\r"))
    if b.max() > ord("9"):
        return None
    # the bytes below "0" but LF and CR: each row's commas and its state's
    # minus, which the rows must account for
    marks = np.count_nonzero(b < ord("0")) - len(ends) - n_cr
    starts = np.concatenate(([0], ends[:-1] + 1))
    if n_cr:
        # a CRLF row ends at its CR (a row at 0 reads b[-1], the final LF);
        # any other CR ends a line in text mode
        crlf = b[ends - 1] == ord("\r")
        if np.count_nonzero(crlf) != n_cr:
            return None
        ends -= crlf
    full = ends > starts
    if not full.all():  # blank rows
        starts, ends = starts[full], ends[full]
    if width == 3:
        # a state is "1" or "-1" after its comma
        negative = b[ends - 2] == ord("-")
        count_end = ends - 2 - negative
        if not ((b[ends - 1] == ord("1")).all()
                and (b[count_end] == ord(",")).all()):
            return None
        marks -= np.count_nonzero(negative)
        states = 1 - 2 * negative.view(np.int8)
    else:
        count_end, states = ends, np.empty(0, dtype=np.int8)
    if marks != (width - 1) * len(starts):
        return None
    # the count's digits summed right-aligned; a row's scan stops at its
    # first non-digit, which stays its place
    total = np.zeros(len(starts), dtype=np.uint64)
    place = count_end - 1
    for power in _POW10:
        digit = b[place] - np.uint8(ord("0"))  # a non-digit wraps above 9
        if digit.max(initial=0) <= 9:
            place -= 1
        elif power == 1:  # an empty count
            return None
        elif digit.min() <= 9:
            more = digit <= 9
            digit *= more
            place -= more
        else:
            break
        # uint64 named: numpy 1.x would keep a uint8 digit's type for a
        # small place value and wrap
        total += np.multiply(digit, power, dtype=np.uint64)
    else:  # a count of 19 digits may pass int64
        if (total > _INT64_MAX).any():
            return None
    # every count stopped at the index's comma, after 1 to 18 index digits
    index_len = place - starts
    if not ((b[place] == ord(",")).all() and (index_len >= 1).all()
            and (index_len <= 18).all()):
        return None
    return total.view(np.int64), states


def _comment_seed(line: str, seed: int) -> int:
    """The ``seed=`` value of a comment line, else ``seed``; ValueError if
    the result is not an integer in [0, 2**63)."""
    seed = next((int(tok[5:]) for tok in line.split()
                 if tok.startswith("seed=")), seed)
    if not 0 <= seed < 2**63:
        raise ValueError
    return seed


def _text_lines(path):
    """(line number, line) for each line of the UTF-8 text file ``path``,
    with LF, CRLF and a lone CR as line ends; raises ValueError naming the
    line of the first byte that does not decode."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():  # a byte that did not decode is a surrogate
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(
                        f"{path}, line {lineno}: not UTF-8 text") from None
            yield lineno, line


def _read_trace_lines(path, seed: int):
    """``read_trace_csv``'s (seed, counts, hidden states or None), one line
    at a time, naming the line it refuses."""
    width, counts, hidden = None, array("q"), array("b")  # int64, int8
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or (width is None and line[0].isalpha()):
            continue  # blank, or a column-name row before the first row
        try:
            if line[0] == "#":
                seed = _comment_seed(line, seed)
                continue
            if line[0].isalpha():  # a column-name row among the rows
                raise ValueError
            row = line.split(",")
            if len(row) != width:
                width = width or len(row)
                if len(row) != width or width not in (2, 3):
                    raise ValueError
            index, count = int(row[0]), int(row[1])
            if not (0 <= index < 2**63 and count >= 0):
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
