"""Measurement channel of one readout cycle and the photon-trace Monte Carlo.

One cycle is: electron prepared in an equal superposition, CPMG conditional
evolution, a final pi/2 rotation in the conjugate quadrature, optical readout
of the electron.  Tracing out the electron leaves a two-outcome Kraus channel
on the nucleus whose strength runs from no measurement to fully projective as
the conditional phase grows.

Long photon traces are produced by chaining many 40,000-cycle points.  Each
point draws from its own counter-based substream: one Philox bit generator
serves the whole trace and has its counter set to the point's block before
the point, which gives the same substreams as a fresh generator per point.
Traces are reproducible bit for bit regardless of how points are scheduled.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, islice

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
    single-shot.
    """

    points: np.ndarray
    hidden_states: np.ndarray | None
    config: ReadoutConfig
    seed: int

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


def simulate_point(nuclear_state: np.ndarray, channel: MeasurementChannel,
                   config: ReadoutConfig, rng: np.random.Generator):
    """One binned data point of cycles_per_point measurement cycles: each
    draws the electron outcome from the Kraus pair and collapses the nucleus,
    then Poisson photons of the outcome class (misassigned with probability
    electron_init_error), the optional depolarizing kick and a T1 flip.
    Returns (photon_count, nuclear_state_after, dominant_state), the dominant
    locked state +1 (up) / -1 (down) by occupation time."""
    # unravel the input into a pure locked-basis state with one uniform draw
    basis = channel.locked_frame[0]
    evals, evecs = np.linalg.eigh(basis.conj().T @ nuclear_state @ basis)
    if evals[1] - evals[0] < _NEGLIGIBLE:  # rho ∝ 1: any basis unravels it
        evecs = np.eye(2)
    psi = evecs[:, 0 if rng.random() < evals[0] / evals.sum() else 1].tolist()
    count, psi, dominant = _simulate_point_aggregate(
        psi, channel, config, rng, _t1_flip_probs(config))
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


def _t1_flip_probs(config: ReadoutConfig):
    dt = config.cycle_time
    return tuple(float(1.0 - np.exp(-dt / t1))
                 for t1 in (config.t1n_up, config.t1n_down))


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


def _simulate_point_aggregate(psi, channel, config, rng, flips):
    """``simulate_point`` from the locked-basis pure state ``psi`` (a list)
    with the per-cycle T1 flip probabilities ``flips``; returns the photon
    count, ``psi`` after the point and the dominant state.  Sampled exactly,
    event by event: at a fixed point v_o of K_o outcome o repeats with a
    constant probability, so the quiet cycles before an event take one
    geometric draw per competing clock: other outcome, kick, T1 flip
    (Dalibard, Castin & Molmer, PRL 68, 580 (1992); Gillespie, J. Phys. Chem.
    81, 2340 (1977)).  Event and transient cycles are stepped as in
    ``_cycle_kernel``; photons are drawn per run."""
    _, kraus, fixed = channel.locked_frame
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
        o = next((o for o, (v, _, _) in enumerate(fixed)
                  if abs(v[0] * psi[1] - v[1] * psi[0]) ** 2 < _NEGLIGIBLE), None)
        flip = None  # None: drawn in this cycle
        if o is None:  # transient: step one cycle
            outcome = int(rng.random() >= _collapse(kraus[0], psi)[0])
            kick = rng.random() < pie
        else:  # quiet cycles at v_o up to the first event cycle
            psi, q, p_up = fixed[o]
            emit(o, 0)
            t_other, t_kick, t_flip = (
                int(rng.geometric(p)) if p > _NEGLIGIBLE else remaining + 1
                for p in (q, pie, f_down + p_up * (f_up - f_down)))
            t = min(t_other, t_kick, t_flip, remaining + 1)
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
    flips = _t1_flip_probs(config)
    # One generator serves every point.  Point 0's fresh state (empty buffer)
    # with its counter set to [0, 0, i, 0] is the state _point_rng(seed, i)
    # starts in, and the Generator keeps no other stream state.
    rng = _point_rng(config.seed, 0)
    bitgen, start = rng.bit_generator, rng.bit_generator.state
    counter = start["state"]["counter"]
    points = np.empty(n_points, dtype=np.int64)
    hidden = np.empty(n_points, dtype=np.int8)
    for i in range(n_points):
        counter[2] = i
        bitgen.state = start
        # simulate_point's unravel draw: the pure state psi unravels to
        # itself, the fully mixed start to either locked state, 1/2 each
        u = rng.random()
        if not i:
            psi = [1.0, 0.0] if u < 0.5 else [0.0, 1.0]
        points[i], psi, hidden[i] = _simulate_point_aggregate(
            psi, channel, config, rng, flips)
    return PhotonTrace(points=points, hidden_states=hidden, config=config,
                       seed=config.seed)


# Rows per block of the trace writer and reader: bounds their memory.
_CSV_BLOCK = 4096


def trace_to_csv(trace: PhotonTrace, path, config_hash: str = "") -> None:
    """Write (point_index, photon_count, hidden_state) rows, without the
    last column when the trace has no hidden states."""
    columns = [trace.points]
    header = "point_index,photon_count"
    if trace.hidden_states is not None:
        columns.append(trace.hidden_states)
        header += ",hidden_state"
    row = "{}" + ",{}" * len(columns) + "\n"
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_sha256={config_hash} seed={trace.seed}\n")
        fh.write(header + "\n")
        for start in range(0, len(trace.points), _CSV_BLOCK):
            block = [col[start:start + _CSV_BLOCK].tolist() for col in columns]
            fh.write("".join(map(row.format, range(start, len(trace.points)),
                                 *block)))


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
    if hidden is not None:
        hidden = np.array(hidden, dtype=np.int8)
    return PhotonTrace(points=np.array(counts, dtype=np.int64),
                       hidden_states=hidden,
                       config=replace(readout, seed=seed), seed=seed)


def _read_trace_array(path, seed: int):
    """``read_trace_csv``'s (seed, counts, hidden states or None) for a file
    whose leading comment, header and blank lines are followed by integer
    rows only: ``np.loadtxt`` over blocks of rows.  Returns None for any
    other file, which the line parser then reads or refuses, naming the line.
    """
    width, counts, hidden = 0, array("q"), array("b")  # int64, int8
    # any failure hands the file to the line parser, the authority on it
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            for first in fh:
                line = first.strip()
                if line[:1] == "#":
                    seed = next((int(tok[5:]) for tok in line.split()
                                 if tok.startswith("seed=")), seed)
                elif line and not line[0].isalpha():
                    width = line.count(",") + 1
                    break
            if seed < 0 or width not in (2, 3):
                return None
            # one record per row, each column at its own width; a row of
            # another width fails.  Blocks keep every temporary smaller than
            # the trace's own arrays.
            columns = [("index", np.int64), ("count", np.int64),
                       ("state", np.int8)][:width]
            lines = chain([first], fh)
            while block := list(islice(lines, _CSV_BLOCK)):
                rows = np.loadtxt(block, delimiter=",", dtype=columns,
                                  ndmin=1, comments=None)
                if rows["count"].min() < 0 or width == 3 and not np.all(
                        np.abs(rows["state"]) == 1):
                    return None
                counts.frombytes(rows["count"].tobytes())
                if width == 3:
                    hidden.frombytes(rows["state"].tobytes())
    except Exception:
        return None
    return seed, counts, hidden if width == 3 else None


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
                    seed = next((int(tok[5:]) for tok in line.split()
                                 if tok.startswith("seed=")), seed)
                    if seed < 0:
                        raise ValueError
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
