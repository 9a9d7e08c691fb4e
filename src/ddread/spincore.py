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

import math
from dataclasses import dataclass, field

import numpy as np

from .sequence import CpmgSequence

TWO_PI = 2.0 * np.pi

# Pauli matrices; spin operators are sigma/2 so that exp(-i theta n.I) rotates
# the Bloch vector by theta about n.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

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
        if not self.gamma_n > 0:
            raise ValueError("gyromagnetic ratio must be strictly positive")


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field of magnitude ``b_magnitude`` tesla along +z."""

    b_magnitude: float

    def __post_init__(self):
        if not self.b_magnitude >= 0:
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
        object.__setattr__(self, "a_vec", _hyperfine_vectors(self.a_vec, ndim=1))


@dataclass(frozen=True)
class EffectiveFrame:
    """Conditioned-average precession frame of the nucleus.

    omega * n_par = A/2 + gamma_n * B, a_par = A . n_par, and a_perp is the
    magnitude of A's component perpendicular to n_par.  When a_perp vanishes
    n_perp is an arbitrary perpendicular unit vector and ``transverse`` is
    False.  The frame of a (P, 3) stack of hyperfine vectors holds (P,)
    arrays of omega, a_par, a_perp and transverse, and (P, 3) axes.
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
        return np.cross(self.n_par, self.n_perp)


def _hyperfine_vectors(spin: HyperfineSpin | np.ndarray, ndim: int = 2) -> np.ndarray:
    """The (3,) vector of a ``HyperfineSpin``, checked when the spin was
    made, or ``spin`` as floats, checked: a (P, 3) stack, or the (3,) vector
    of a new spin where ``ndim`` is 1.

    The one check of a hyperfine vector: its components are finite, and so
    is |A|^2, as the frame squares A.
    """
    if isinstance(spin, HyperfineSpin):
        return spin.a_vec
    vecs = np.asarray(spin, dtype=float)
    if vecs.ndim != ndim or vecs.shape[-1] != 3:
        shape = "(3,)" if ndim == 1 else "(P, 3)"
        raise ValueError(f"hyperfine vectors must have shape {shape}")
    # one pass: the sum of all squares is finite only if every component
    # and every |A|^2 is (np.vdot raises no floating-point warning); if it
    # is not, the rows are tested one by one, as only their total may have
    # overflowed
    if not math.isfinite(np.vdot(vecs, vecs)):
        if not np.all(np.isfinite(vecs)):
            raise ValueError("a_vec components must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(_row_dot(vecs, vecs))):
                raise ValueError("|a_vec|^2 is beyond float's range")
    return vecs


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of ``x`` and ``y``.

    Each row goes through the same BLAS dot as ``x @ y`` and
    ``np.linalg.norm`` on one vector, so a row of a stack is bitwise the
    single-vector result; an elementwise sum of products rounds differently.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _row_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dot(x, x))


def effective_frame(
    spin: HyperfineSpin | np.ndarray,
    fieldcfg: FieldConfig,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> EffectiveFrame:
    """Derive the effective nuclear frame (omega, n_par, n_perp, a_par, a_perp).

    ``spin`` is a ``HyperfineSpin`` or a (P, 3) stack of hyperfine vectors;
    a stack gives one frame per row, as arrays.

    Raises
    ------
    DegenerateFrameError
        If |A/2 + gamma_n B| is below ``DEGENERATE_OMEGA`` rad/s (in any row).
    """
    a_vec = _hyperfine_vectors(spin)
    h_par = a_vec / 2.0 + np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
    omega = _row_norm(h_par)
    degenerate = omega < DEGENERATE_OMEGA
    if np.any(degenerate):
        raise DegenerateFrameError(
            f"precession frequency {np.min(omega):.3e} rad/s below "
            f"{DEGENERATE_OMEGA}; parallel axis undefined"
        )
    n_par = h_par / omega[..., None]
    a_par = _row_dot(a_vec, n_par)
    perp = a_vec - a_par[..., None] * n_par
    a_perp = _row_norm(perp)
    transverse = a_perp > 1e-12 * np.maximum(1.0, _row_norm(a_vec))
    # Degenerate transverse direction: pick any unit vector orthogonal to
    # n_par so the frame stays well formed.
    trial = np.where(np.abs(n_par[..., :1]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    fallback = trial - _row_dot(trial, n_par)[..., None] * n_par
    fallback = fallback / _row_norm(fallback)[..., None]
    n_perp = np.where(transverse[..., None],
                      perp / np.where(transverse, a_perp, 1.0)[..., None], fallback)
    a_perp = np.where(transverse, a_perp, 0.0)
    if a_vec.ndim == 1:
        return EffectiveFrame(
            omega=float(omega), n_par=n_par, n_perp=n_perp, a_par=float(a_par),
            a_perp=float(a_perp), transverse=bool(transverse),
        )
    return EffectiveFrame(
        omega=omega, n_par=n_par, n_perp=n_perp, a_par=a_par, a_perp=a_perp,
        transverse=transverse,
    )


def _frame_component_vectors(a_par, a_perp, fieldcfg, consts):
    """Hyperfine vectors realising arrays of frame components (a_par, a_perp).

    Returns the (P, 3) vectors and two (P,) masks: where |a_perp| < 2 b, and
    where, in addition, omega is at least ``DEGENERATE_OMEGA``.  Rows outside
    either mask hold finite placeholders.  See ``spin_from_frame_components``.
    """
    a_par = np.asarray(a_par, dtype=float)
    a_perp = np.asarray(a_perp, dtype=float)
    b = consts.gamma_n * fieldcfg.b_magnitude
    with np.errstate(over="ignore"):  # an a_perp too large to square: not real
        disc = b * b - a_perp * a_perp / 4.0
    real = disc > 0
    omega = a_par / 2.0 + np.sqrt(np.where(real, disc, 0.0))
    valid = real & (omega >= DEGENERATE_OMEGA)
    # z expressed in the (n_par, n_perp) basis: b z = (omega - a_par/2) n_par
    # - (a_perp/2) n_perp.  Choose n_par in the xz plane with positive x.
    # (b = 0 leaves no real row.)
    cos_t = np.clip((omega - a_par / 2.0) / (b if b > 0 else 1.0), -1.0, 1.0)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    zero = np.zeros_like(cos_t)
    n_par = np.stack([sin_t, zero, cos_t], axis=-1)
    # n_perp lies in the xz plane too, orthogonal to n_par, with
    # n_perp . z = -sin_t = -|a_perp| / (2 b).
    n_perp = np.stack([cos_t, zero, -sin_t], axis=-1)
    return a_par[:, None] * n_par + a_perp[:, None] * n_perp, real, valid


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
    vecs, real, valid = _frame_component_vectors([a_par], [a_perp], fieldcfg, consts)
    if not real[0]:
        raise ValueError("a_perp must be smaller than 2 gamma_n B")
    if not valid[0]:
        raise DegenerateFrameError("requested components give a degenerate frame")
    return HyperfineSpin(a_vec=vecs[0])


def spin_from_axial_components(
    a_z: float,
    a_perp: float,
    fieldcfg: FieldConfig,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> HyperfineSpin:
    """Build a hyperfine vector from its projection on the field axis.

    ``a_z`` is the component of A along the NV/field axis (the quantity
    usually quoted from spectroscopy), ``a_perp`` the transverse frame
    component.  With b = gamma_n * B the frame axes have n_par.z =
    sqrt(b^2 - a_perp^2/4) / b and n_perp.z = -a_perp / (2 b) whatever
    a_par is, so a_z = A.z is linear in a_par and

        a_par = (b a_z + a_perp^2/2) / sqrt(b^2 - a_perp^2/4).

    Requires |a_perp| < 2 b.
    """
    b = consts.gamma_n * fieldcfg.b_magnitude
    disc = b * b - a_perp * a_perp / 4.0
    if not disc > 0:
        raise ValueError("a_perp must be smaller than 2 gamma_n B")
    a_par = (b * a_z + a_perp * a_perp / 2.0) / np.sqrt(disc)
    return spin_from_frame_components(a_par, a_perp, fieldcfg, consts)


def spin_operator(axis: np.ndarray) -> np.ndarray:
    """Spin-1/2 operator axis . I = axis . sigma / 2 (axis need not be unit)."""
    ax = np.asarray(axis, dtype=float)
    return (ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z) / 2.0


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
    """Position of a branch on the kernel's branch axis (plus, minus)."""
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return 0 if branch == "plus" else 1


#: The propagator models of ``cpmg_cayley_klein``.
PROPAGATOR_MODES = ("exact", "magnus")


def cpmg_cayley_klein(
    spin: HyperfineSpin | np.ndarray,
    fieldcfg: FieldConfig,
    n_pulses,
    taus,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """The kernel's first stage: both branches' CPMG-N propagators as
    Cayley-Klein pairs on the broadcast grid of ``n_pulses`` x ``taus``.

    ``spin`` is a ``HyperfineSpin`` or a (P, 3) stack of hyperfine vectors.
    Returns ``(pair, frame)``.  ``pair`` is (alpha, beta), two complex arrays
    that stand for U = [[alpha, beta], [-conj(beta), conj(alpha)]]; each has a
    leading branch axis (plus, minus), then the spin axis of a stack, then the
    broadcast grid.  In exact mode ``frame`` is None: the pair is in lab
    axes.  In magnus mode it is the ``EffectiveFrame`` in whose axes
    (n_perp, n_cross, n_par) the pair is written.  Each branch is one cycle
    tau-pi-2tau-pi-tau raised to N // 2 in SU(2) closed form, then one
    half-cycle for odd N (Taminiau et al., PRL 109, 137602 (2012)), so the
    cost does not grow with N.  The one reader of ``propagator_mode``, which
    is one of ``PROPAGATOR_MODES``.
    """
    if propagator_mode == "exact":
        return _propagators_exact_batch(spin, fieldcfg, n_pulses, taus, consts)
    if propagator_mode == "magnus":
        return _propagators_magnus_batch(
            effective_frame(spin, fieldcfg, consts), n_pulses, taus
        )
    raise ValueError(f"unknown propagator_mode {propagator_mode!r}")


def conditional_propagators(
    spin: HyperfineSpin | np.ndarray,
    fieldcfg: FieldConfig,
    n_pulses,
    taus,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """(U_plus, U_minus) of CPMG-N on the broadcast grid of ``n_pulses`` x ``taus``.

    The kernel's second stage: the 2 x 2 matrices of ``cpmg_cayley_klein``.
    Both arrays have the broadcast shape + (2, 2), behind a leading axis of
    length P for a (P, 3) stack of hyperfine vectors.
    """
    u = _su2_matrices(*cpmg_cayley_klein(spin, fieldcfg, n_pulses, taus,
                                         propagator_mode, consts))
    return u[0], u[1]


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
    u = _su2_matrices(*_propagators_exact_batch(spin, fieldcfg, seq.n_pulses,
                                                seq.tau, consts))
    return u[_branch_index(branch)]


def _propagators_exact_batch(
    spin: HyperfineSpin | np.ndarray,
    fieldcfg: FieldConfig,
    n_pulses,
    taus,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Exact ``cpmg_cayley_klein`` for broadcast arrays of pulse numbers and
    taus, for one spin or a (P, 3) stack of hyperfine vectors.

    With a = exp(-i h_plus.I tau) and b = exp(-i h_minus.I tau) built in
    closed form, the 'plus' branch runs a, b b, a a, ..., so its half-cycle
    is H_plus = b a and its cycle a b b a = H_minus H_plus; the 'minus'
    branch swaps a and b.  h_minus = gamma_n B lies along z, so b is the
    diagonal pair (exp(-i gamma_n B tau / 2), 0), and the half-cycles are
    H_plus = (alpha_b alpha_a, alpha_b beta_a) and H_minus = (alpha_a
    alpha_b, beta_a conj(alpha_b)).
    """
    a_vec = _hyperfine_vectors(spin)
    taus = np.asarray(taus, dtype=float)
    grid_ndim = len(np.broadcast_shapes(np.shape(n_pulses), taus.shape))
    b = consts.gamma_n * fieldcfg.b_magnitude
    # a on a branch axis of length one, which the halves fill, and b with
    # as many axes: numpy rounds a complex product whose one-element result
    # gains axes by broadcasting in another loop, so a stack's row would
    # part from its spin alone in the last bit
    alpha_a, beta_a = _rotor((a_vec + [0.0, 0.0, b])[None], taus, grid_ndim)
    half_b = _spin_axis(np.full((1,) * a_vec.ndim, b / 2.0), grid_ndim) * taus
    alpha_b = np.cos(half_b) - 1j * np.sin(half_b)
    halves = (np.concatenate([alpha_b * alpha_a, alpha_a * alpha_b]),
              np.concatenate([alpha_b * beta_a, beta_a * alpha_b.conj()]))
    cycles = _pair_product(_swap_branches(halves), halves)
    return _cpmg_from_cycles(cycles, halves, n_pulses), None


def _swap_branches(pair: tuple) -> tuple:
    """``pair`` with the two entries of its leading branch axis swapped (views)."""
    return tuple(c[::-1] for c in pair)


def _spin_axis(values, grid_ndim: int, item_ndim: int = 0) -> np.ndarray:
    """Per-spin ``values`` with ``grid_ndim`` unit axes between the spin axes
    and the trailing ``item_ndim`` axes, so that they broadcast against the
    (pulse number, tau) grid."""
    values = np.asarray(values)
    lead = values.shape[:values.ndim - item_ndim]
    return values.reshape(lead + (1,) * grid_ndim + values.shape[len(lead):])


def _rotor(h_vec: np.ndarray, taus: np.ndarray, grid_ndim: int) -> tuple:
    """exp(-i h.I tau) as Cayley-Klein pairs, one per vector of the (..., 3)
    ``h_vec`` and tau: (cos t - i n_z sin t, -(n_y + i n_x) sin t) with the
    half angle t = |h| tau / 2 and the unit axis n."""
    mag = _row_norm(h_vec)
    n = h_vec / np.where(mag > 0.0, mag, 1.0)[..., None]
    half_angle = _spin_axis(mag / 2.0, grid_ndim) * taus
    s = np.sin(half_angle)
    return (np.cos(half_angle) + _spin_axis(-1j * n[..., 2], grid_ndim) * s,
            _spin_axis(-(n[..., 1] + 1j * n[..., 0]), grid_ndim) * s)


def _magnus_blocks(omega, a_perp, taus) -> tuple:
    """First-order propagators of the plus branch over one cycle
    tau-pi-2tau-pi-tau and one half-cycle tau-pi-tau: two Cayley-Klein pairs
    in the frame.  The minus branch is each with beta negated.

    A block of length T is W exp(-i M): W = exp(-i omega I_par T) is the
    exact precession over the block, and M = (a_perp / 2)(Re g I_perp - Im g
    I_cross) with the filter phase g = int s(t) exp(i omega t) dt of the
    branch sign s(t), which starts at +1 and flips at each pulse.  Every
    phase is a power of e = exp(i omega tau): the half-cycle's g is
    -(e - 1)**2 / (i omega), the cycle's g is the half-cycle's times
    (1 - e**2), and W is the pair (conj(e**(T / 2 tau)), 0).
    """
    e = np.exp(1j * omega * taus)
    e2 = e * e
    d = e - 1.0
    m_half = (0.5j * a_perp / omega) * (d * d)
    return (_magnus_block(m_half * (1.0 - e2), e2.conj()),
            _magnus_block(m_half, e.conj()))


def _magnus_block(m, w) -> tuple:
    """The pair of W exp(-i M) for the precession W = (w, 0) and M = Re m
    I_perp - Im m I_cross, m = (a_perp / 2) g: exp(-i M) is the pair
    (cos(|m| / 2), -i sin(|m| / 2) m / |m|)."""
    angle = np.abs(m)
    half = angle / 2.0
    s = np.sin(half) / np.where(angle > 0.0, angle, 1.0)
    return np.cos(half) * w, (-1j * s) * m * w


def _pair_power(pair: tuple, k) -> tuple:
    """U**k for SU(2) pairs: with U = cos a - i sin a m.sigma, whose vector
    part sin a m is (-Im beta, -Re beta, -Im alpha), U**k = cos k a - i sin
    k a m.sigma.

    When the vector part vanishes (U = +/-1) the axis m is undefined and the
    power is (+/-1)**k with no vector part.
    """
    alpha, beta = pair
    norm_v = np.sqrt(alpha.imag * alpha.imag + (beta * beta.conj()).real)
    ka = k * np.arctan2(norm_v, alpha.real)
    f = np.sin(ka) / np.where(norm_v > 0.0, norm_v, 1.0)
    return np.cos(ka) + 1j * (f * alpha.imag), f * beta


def _pair_product(p: tuple, q: tuple) -> tuple:
    """The Cayley-Klein pair of the matrix product P Q."""
    pa, pb = p
    qa, qb = q
    return pa * qa - pb * qb.conj(), pa * qb + pb * qa.conj()


def _cpmg_from_cycles(cycles: tuple, halves: tuple, n_pulses) -> tuple:
    """CPMG-N from the cycle and half-cycle pairs: cycle**(N // 2), then the
    half-cycle for odd N.  Every pulse number of the kernel is checked
    here: a finite integer >= 1, which an integer array is but for the
    bound, and not a bool, which numpy would count as 0 or 1."""
    n_pulses = np.asarray(n_pulses)
    valid = n_pulses >= 1
    if n_pulses.dtype.kind not in "iu":
        valid &= (n_pulses < np.inf) & (np.trunc(n_pulses) == n_pulses)
    if n_pulses.dtype.kind == "b" or not np.all(valid):
        raise ValueError("pulse numbers must be integers >= 1")
    k, odd = np.divmod(n_pulses, 2)
    odd = odd == 1
    even = _pair_power(cycles, k)
    return tuple(np.where(odd, h, e)
                 for h, e in zip(_pair_product(halves, even), even))


def _su2_matrices(pair: tuple, frame: EffectiveFrame | None = None) -> np.ndarray:
    """The 2 x 2 matrices [[alpha, beta], [-conj(beta), conj(alpha)]] of
    Cayley-Klein pairs, shape the pair's broadcast + (2, 2).  A pair written
    in the axes (n_perp, n_cross, n_par) of ``frame`` has its vector part
    (x, y, z) = (-Im beta, -Re beta, -Im alpha) of U = Re alpha - i (x, y,
    z).sigma rotated to lab axes first."""
    alpha, beta = pair
    if frame is not None:
        # per spin, with a unit axis for each grid axis behind the pair's
        # branch and spin axes
        axes = np.stack([frame.n_perp, frame.n_cross, frame.n_par], axis=-2)
        axes = _spin_axis(axes, alpha.ndim - 1 - np.ndim(frame.omega), 2)
        x, y, z = -beta.imag, -beta.real, -alpha.imag
        vx, vy, vz = (x * axes[..., 0, i] + y * axes[..., 1, i] + z * axes[..., 2, i]
                      for i in range(3))
        alpha, beta = alpha.real - 1j * vz, -vy - 1j * vx
    u = np.empty(np.broadcast_shapes(alpha.shape, beta.shape) + (2, 2), dtype=complex)
    u[..., 0, 0] = alpha
    u[..., 0, 1] = beta
    u[..., 1, 0] = -beta.conj()
    u[..., 1, 1] = alpha.conj()
    return u


def _propagators_magnus_batch(frame: EffectiveFrame, n_pulses, taus):
    """First-order ``cpmg_cayley_klein`` for broadcast arrays of pulse numbers
    and taus, for one frame or the frame of a stack of spins; see
    ``conditional_propagator_magnus``.  The plus branch is built alone: the
    minus branch's blocks are its blocks with beta negated, which every
    product and power keeps, so its propagator is the plus one with beta
    negated, to the bit.  The plus branch keeps a branch axis of length one,
    so that one spin at one (N, tau) runs in numpy's array loops, like a
    grid, and not in its scalar arithmetic, whose complex products round
    differently."""
    if np.any(frame.omega < DEGENERATE_OMEGA):
        raise DegenerateFrameError("Magnus propagator needs omega > 0")
    taus = np.asarray(taus, dtype=float)
    grid_ndim = len(np.broadcast_shapes(np.shape(n_pulses), taus.shape))
    omega, a_perp = (_spin_axis(v, grid_ndim)[None]
                     for v in (frame.omega, frame.a_perp))
    alpha, beta = _cpmg_from_cycles(*_magnus_blocks(omega, a_perp, taus), n_pulses)
    return (np.concatenate([alpha, alpha]), np.concatenate([beta, -beta])), frame


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
    with the SU(2) closed form V**k = cos(k a) 1 - i sin(k a) m.sigma,
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
    u = _su2_matrices(*_propagators_magnus_batch(frame, seq.n_pulses, seq.tau))
    return u[_branch_index(branch)]
