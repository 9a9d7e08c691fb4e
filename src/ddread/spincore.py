"""SU(2) spin algebra, effective nuclear frame, and conditional propagators.

A single spin-1/2 nucleus hyperfine-coupled to the two relevant levels of an
ancilla electron evolves under one of two Hamiltonians depending on the
electron branch.  Under a CPMG train of instantaneous electron pi-flips the
nucleus sees an alternation of the two, which is what everything downstream
(coherence curves, measurement channels) is built from.

All frequencies in this module are angular (rad/s).  Conversion from ordinary
frequency in Hz happens at configuration boundaries, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sequence import CpmgSequence

TWO_PI = 2.0 * np.pi

# Pauli matrices; spin operators are sigma/2 so that exp(-i theta n.I) rotates
# the Bloch vector by theta about n.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

#: omega below this (rad/s) means the precession axis is undefined.
DEGENERATE_OMEGA = 1e-3


class DegenerateFrameError(ValueError):
    """Raised when the nuclear precession frequency is too small to define a frame."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Nuclear gyromagnetic ratio in rad s^-1 T^-1.

    The two-level pure-dephasing model needs no electron gyromagnetic ratio:
    the electron Zeeman and zero-field terms drop out.
    """

    gamma_n: float = 6.73e7

    def __post_init__(self):
        if self.gamma_n <= 0:
            raise ValueError("gyromagnetic ratio must be strictly positive")


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field of magnitude ``b_magnitude`` tesla along +z."""

    b_magnitude: float

    def __post_init__(self):
        if self.b_magnitude < 0:
            raise ValueError("field magnitude must be non-negative")


@dataclass(frozen=True)
class HyperfineSpin:
    """One weakly coupled spin-1/2 nucleus.

    ``a_vec`` is the hyperfine vector A (rad/s) coupling the electron Sz to
    the nuclear spin, expressed in the frame whose z axis is the NV/field
    axis.  A zero vector is a decoupled spin.
    """

    a_vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.a_vec, dtype=float)
        if vec.shape != (3,):
            raise ValueError("a_vec must be a 3-vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError("a_vec components must be finite")
        object.__setattr__(self, "a_vec", vec)


@dataclass(frozen=True)
class EffectiveFrame:
    """Conditioned-average precession frame of the nucleus.

    omega * n_par = A/2 + gamma_n * B, a_par = A . n_par, and a_perp is the
    magnitude of A's component perpendicular to n_par.  When a_perp vanishes
    n_perp is an arbitrary perpendicular unit vector and ``transverse`` is
    False.
    """

    omega: float
    n_par: np.ndarray
    n_perp: np.ndarray
    a_par: float
    a_perp: float
    transverse: bool = field(default=True)

    @property
    def n_cross(self) -> np.ndarray:
        """Third axis of the right-handed frame (n_par x n_perp)."""
        # written out: np.cross costs ~20x more on 3-vectors, same float ops
        (p0, p1, p2), (q0, q1, q2) = self.n_par.tolist(), self.n_perp.tolist()
        return np.array([p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0])


def effective_frame(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> EffectiveFrame:
    """Derive the effective nuclear frame (omega, n_par, n_perp, a_par, a_perp).

    Raises
    ------
    DegenerateFrameError
        If |A/2 + gamma_n B| is below ``DEGENERATE_OMEGA`` rad/s.
    """
    a_vec = spin.a_vec
    h_par = a_vec / 2.0 + np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
    omega = float(np.linalg.norm(h_par))
    if omega < DEGENERATE_OMEGA:
        raise DegenerateFrameError(
            f"precession frequency {omega:.3e} rad/s below {DEGENERATE_OMEGA}; "
            "parallel axis undefined"
        )
    n_par = h_par / omega
    a_par = float(a_vec @ n_par)
    perp = a_vec - a_par * n_par
    a_perp = float(np.linalg.norm(perp))
    if a_perp > 1e-12 * max(1.0, np.linalg.norm(a_vec)):
        n_perp = perp / a_perp
        transverse = True
    else:
        # Degenerate transverse direction: pick any unit vector orthogonal
        # to n_par so the frame stays well formed.
        trial = np.array([1.0, 0.0, 0.0])
        if abs(n_par @ trial) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        n_perp = trial - (trial @ n_par) * n_par
        n_perp = n_perp / np.linalg.norm(n_perp)
        a_perp = 0.0
        transverse = False
    return EffectiveFrame(
        omega=omega, n_par=n_par, n_perp=n_perp, a_par=a_par, a_perp=a_perp,
        transverse=transverse,
    )


def spin_from_frame_components(
    a_par: float,
    a_perp: float,
    fieldcfg: FieldConfig,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineSpin:
    """Build the hyperfine vector realising given frame components.

    Inverts the frame construction in closed form: with b = gamma_n * B the
    self-consistent precession frequency is

        omega = a_par/2 + sqrt(b^2 - a_perp^2/4)

    and A = a_par n_par + a_perp n_perp with the axes fixed by requiring
    omega n_par - A/2 = b z.  The vector is placed in the xz plane
    (azimuthal angle is unphysical).

    Requires |a_perp| < 2 b.
    """
    b = consts.gamma_n * fieldcfg.b_magnitude
    disc = b * b - a_perp * a_perp / 4.0
    if disc <= 0:
        raise ValueError("a_perp must be smaller than 2 gamma_n B")
    omega = a_par / 2.0 + np.sqrt(disc)
    if omega < DEGENERATE_OMEGA:
        raise DegenerateFrameError("requested components give a degenerate frame")
    # z expressed in the (n_par, n_perp) basis: b z = (omega - a_par/2) n_par
    # - (a_perp/2) n_perp.  Choose n_par in the xz plane with positive x.
    cos_t = (omega - a_par / 2.0) / b
    cos_t = min(1.0, max(-1.0, cos_t))
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    n_par = np.array([sin_t, 0.0, cos_t])
    # n_perp lies in the xz plane too, orthogonal to n_par, with
    # n_perp . z = -a_perp / (2 b).
    n_perp = np.array([cos_t, 0.0, -sin_t])
    if a_perp > 0 and n_perp[2] * (-a_perp / (2.0 * b)) < 0:
        n_perp = -n_perp
    return HyperfineSpin(a_vec=a_par * n_par + a_perp * n_perp)


def spin_from_axial_components(
    a_z: float,
    a_perp: float,
    fieldcfg: FieldConfig,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineSpin:
    """Build a hyperfine vector from its projection on the field axis.

    ``a_z`` is the component of A along the NV/field axis (the quantity
    usually quoted from spectroscopy), ``a_perp`` the transverse frame
    component.  Solved by a scalar bisection on the frame a_par.
    """
    b = consts.gamma_n * fieldcfg.b_magnitude

    def axial_of(a_par: float) -> float:
        omega = a_par / 2.0 + np.sqrt(b * b - a_perp * a_perp / 4.0)
        # A.z = a_par (n_par.z) + a_perp (n_perp.z)
        return a_par * (omega - a_par / 2.0) / b - a_perp * a_perp / (2.0 * b)

    from scipy.optimize import brentq

    span = 4.0 * (abs(a_z) + abs(a_perp) + 1.0)
    a_par = brentq(lambda x: axial_of(x) - a_z, -span, span, xtol=1e-6)
    return spin_from_frame_components(a_par, a_perp, fieldcfg, consts)


def spin_operator(axis: np.ndarray) -> np.ndarray:
    """Spin-1/2 operator axis . I = axis . sigma / 2 (axis need not be unit)."""
    ax = np.asarray(axis, dtype=float)
    return (ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z) / 2.0


def is_unitary(u: np.ndarray, tol: float = 1e-12) -> bool:
    """Frobenius check of U^dag U = I and |det U| = 1."""
    dev = np.linalg.norm(u.conj().T @ u - IDENTITY_2)
    return dev < tol and abs(abs(np.linalg.det(u)) - 1.0) < tol


def filter_sum(omega: float, seq: CpmgSequence) -> complex:
    """Complex CPMG filter sum; the standard filter function is its modulus.

    sum_{p=0}^{N} (-1)^p (exp(-i w t_{p+1}) - exp(-i w t_p)) with t_0 = 0 and
    t_{N+1} = 2 N tau.
    """
    edges = seq.boundary_times()
    phases = np.exp(-1.0j * omega * edges)
    signs = (-1.0) ** np.arange(seq.n_pulses + 1)
    return complex(np.sum(signs * (phases[1:] - phases[:-1])))


def filter_function(omega: float, seq: CpmgSequence) -> float:
    """DD filter function F(omega, 2 N tau) >= 0."""
    return abs(filter_sum(omega, seq))


def _branch_index(branch: str) -> int:
    """Position of a branch in the (U_plus, U_minus) pair."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return 0 if branch == "plus" else 1


def conditional_propagators(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    n_pulses,
    taus,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """(U_plus, U_minus) of CPMG-N on the broadcast grid of ``n_pulses`` x ``taus``.

    Both arrays have the broadcast shape + (2, 2).  Each branch is one cycle
    tau-pi-2tau-pi-tau raised to N // 2 in SU(2) closed form, then one
    half-cycle for odd N (Taminiau et al., PRL 109, 137602 (2012)), so the
    cost does not grow with N.  The one reader of ``propagator_mode``.
    """
    if propagator_mode == "exact":
        return _propagators_exact_batch(spin, fieldcfg, n_pulses, taus, consts)
    if propagator_mode == "magnus":
        return _propagators_magnus_batch(
            effective_frame(spin, fieldcfg, consts), n_pulses, taus
        )
    raise ValueError(f"unknown propagator_mode {propagator_mode!r}")


def conditional_propagator_exact(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    branch: str,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """Exact nuclear propagator for one electron branch of the CPMG sequence.

    The 'plus' branch sees (A + gamma_n B).I during the first interval; each
    ideal pi-flip swaps the two interval Hamiltonians.
    """
    return _propagators_exact_batch(
        spin, fieldcfg, seq.n_pulses, seq.tau, consts
    )[_branch_index(branch)]


def _propagators_exact_batch(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    n_pulses,
    taus,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Exact (U_plus, U_minus) for broadcast arrays of pulse numbers and taus.

    With a = exp(-i h_plus.I tau) and b = exp(-i h_minus.I tau) built in
    closed form, the 'plus' branch runs a, b b, a a, ..., so its half-cycle
    is H_plus = b a and its cycle a b b a = H_minus H_plus; the 'minus'
    branch swaps a and b.
    """
    taus = np.asarray(taus, dtype=float)
    b_vec = np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
    a = _rotor(spin.a_vec + b_vec, taus)
    b = _rotor(b_vec, taus)
    half_plus, half_minus = _quaternion_product(b, a), _quaternion_product(a, b)
    cycles = (_quaternion_product(half_minus, half_plus),
              _quaternion_product(half_plus, half_minus))
    return _cpmg_pair(cycles, (half_plus, half_minus), n_pulses, np.eye(3))


def _rotor(h_vec: np.ndarray, taus: np.ndarray) -> tuple:
    """exp(-i h.I tau) as unit quaternions, one per tau."""
    mag = float(np.linalg.norm(h_vec))
    axis = h_vec / mag if mag > 0.0 else np.zeros(3)
    s = np.sin(mag * taus / 2.0)
    return (np.cos(mag * taus / 2.0), s * axis[0], s * axis[1], s * axis[2])


def _cycle_quaternions(omega: float, a_perp: float, edges: tuple) -> tuple:
    """First-order propagators of one toggling block, (plus, minus) branch.

    ``edges`` are the block's boundary times after its start at t = 0 (arrays
    of equal shape); the branch sign s(t) starts at +/-1 and flips at each
    interior edge.  The block propagator is W exp(-/+ i M): W = exp(-i omega
    I_par t) is the exact precession over the block and M = (a_perp / 2)(Re g
    I_perp - Im g I_cross) with the filter phase g = int s(t) exp(i omega t)
    dt.  A quaternion (w, x, y, z) stands for w 1 - i (x, y, z).sigma with
    the vector part in (n_perp, n_cross, n_par) coordinates.
    """
    g = 0j
    sign = 1.0
    prev = 1.0 + 0j  # exp(i omega t) at the block start
    for t in edges:
        cur = np.exp(1.0j * omega * t)
        g = g + sign * (cur - prev)
        prev = cur
        sign = -sign
    g = g / (1.0j * omega)
    mx = a_perp / 2.0 * g.real
    my = -a_perp / 2.0 * g.imag
    angle = np.hypot(mx, my)
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0) / np.where(angle > 0.0, angle, 1.0)
    mx, my = s * mx, s * my
    half = omega * edges[-1] / 2.0
    cw, sw = np.cos(half), np.sin(half)
    # Hamilton product (cw, 0, 0, sw) * (c, +/-mx, +/-my, 0)
    return tuple(
        (cw * c, cw * px - sw * py, cw * py + sw * px, sw * c)
        for px, py in ((mx, my), (-mx, -my))
    )


def _quaternion_power(q: tuple, k) -> tuple:
    """q**k for unit quaternions: (cos k a, sin k a m) with q = (cos a, sin a m).

    When the vector part vanishes (q = +/-1) the axis m is undefined and the
    power is (+/-1)**k with no vector part.
    """
    w, x, y, z = q
    norm_v = np.sqrt(x * x + y * y + z * z)
    alpha = np.arctan2(norm_v, w)
    f = np.sin(k * alpha) / np.where(norm_v > 0.0, norm_v, 1.0)
    return (np.cos(k * alpha), f * x, f * y, f * z)


def _quaternion_product(p: tuple, q: tuple) -> tuple:
    """Hamilton product p q, the quaternion of the matrix product P Q."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + qw * px + py * qz - pz * qy,
        pw * qy + qw * py + pz * qx - px * qz,
        pw * qz + qw * pz + px * qy - py * qx,
    )


def _cpmg_pair(cycles: tuple, halves: tuple, n_pulses, axes) -> tuple:
    """(U_plus, U_minus) from each branch's cycle and half-cycle quaternions.

    CPMG-N is cycle**(N // 2), then the half-cycle for odd N; ``axes`` are
    the lab vectors of the quaternions' vector coordinates.
    """
    n_pulses = np.asarray(n_pulses)
    if np.any(n_pulses < 1):
        raise ValueError("pulse numbers must be >= 1")
    k, odd = np.divmod(n_pulses, 2)
    pair = []
    for cycle, half in zip(cycles, halves):
        even = _quaternion_power(cycle, k)
        w, x, y, z = (np.where(odd == 1, h, e)
                      for h, e in zip(_quaternion_product(half, even), even))
        vx, vy, vz = (x * e1 + y * e2 + z * e3 for e1, e2, e3 in zip(*axes))
        u = np.empty(w.shape + (2, 2), dtype=complex)
        u[..., 0, 0] = w - 1.0j * vz
        u[..., 0, 1] = -vy - 1.0j * vx
        u[..., 1, 0] = vy - 1.0j * vx
        u[..., 1, 1] = w + 1.0j * vz
        pair.append(u)
    return tuple(pair)


def _propagators_magnus_batch(frame: EffectiveFrame, n_pulses, taus):
    """First-order (U_plus, U_minus) for broadcast arrays of pulse numbers
    and taus; see ``conditional_propagator_magnus``."""
    if frame.omega < DEGENERATE_OMEGA:
        raise DegenerateFrameError("Magnus propagator needs omega > 0")
    taus = np.asarray(taus, dtype=float)
    omega, a_perp = frame.omega, frame.a_perp
    cycles = _cycle_quaternions(omega, a_perp, (taus, 3.0 * taus, 4.0 * taus))
    halves = _cycle_quaternions(omega, a_perp, (taus, 2.0 * taus))
    return _cpmg_pair(cycles, halves, n_pulses,
                      (frame.n_perp, frame.n_cross, frame.n_par))


def conditional_propagator_magnus(
    frame: EffectiveFrame,
    seq: CpmgSequence,
    branch: str,
) -> np.ndarray:
    """First-order average-Hamiltonian propagator, averaged over one CPMG cycle.

    The first-order (Magnus) average is taken over one cycle tau-pi-2tau-pi-tau
    in the omega frame: V = W exp(-/+ i M), where W = exp(-i omega I_par 4 tau)
    is the exact precession over the cycle and M is the conditional part,
    rotating by (a_perp / 2 omega) * F(omega, 4 tau) about an axis in the
    (n_perp, n_par x n_perp) plane set by the phase of the cycle's complex
    filter sum.  Keeping that phase (rather than the modulus alone) is what
    makes the truncation error second order in the coupling.  The free
    precession between cycles stays exact: the sequence is V**(N // 2), taken
    with the SU(2) closed form V**k = cos(k alpha) 1 - i sin(k alpha) m.sigma,
    followed for odd N by one half-cycle tau-pi-tau built the same way.
    Averaging the whole sequence at once instead lets the accumulated
    conditional angle (up to ~3 rad) and the detuning of omega from the pulse
    spacing drop commutators as large as the kept term.

    At omega tau = pi/2 the cycle precession is -1 and every cycle term is
    collinear, so the result equals the whole-sequence average (precession
    over 2 N tau, then a rotation by (a_perp / 2 omega) * F(omega, 2 N tau))
    to rounding; the resonant working points do not move.

    The lowest-order term the model drops is the second-order shift
    a_perp^2 / (8 (omega +/- a_par / 2)) of the branch precession frequencies
    |omega n_par +/- A/2| = sqrt((omega +/- a_par/2)^2 + a_perp^2/4).
    Accumulated over T = 2 N tau it is

        B = (a_perp^2 / 8) T (1/2) [1/(omega + a_par/2) + 1/(omega - a_par/2)],

    and the coherence error of this model stays below B (acceptance
    criterion 2 checks it case by case).
    """
    pair = _propagators_magnus_batch(frame, seq.n_pulses, seq.tau)
    return pair[_branch_index(branch)]
