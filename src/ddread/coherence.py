"""Electron coherence under CPMG: single spins, baths, scans, dips, locked states.

The observable is the signed coherence L = Re Tr(rho_n U_plus^dag U_minus),
i.e. the overlap of the two conditional nuclear evolutions weighted by the
nuclear state.  For a bath of mutually non-interacting spins the signal is the
product of the single-spin factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .sequence import CpmgSequence
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    conditional_propagator_exact,
    conditional_propagators,
    effective_frame,
    spin_operator,
)

MIXED_STATE = np.eye(2, dtype=complex) / 2.0


@dataclass(frozen=True)
class CoherenceCurve:
    """1D coherence scan: ``axis`` is "tau" (seconds) or "n" (pulse count).

    ``n_pulses`` records the fixed pulse number of a tau-scan; ``tau`` the
    fixed half-interval of an N-scan.  Either may be None for curves built
    outside the scan helpers; fitting requires them.  ``propagator_mode`` is
    the propagator model that produced the values ("exact" for measured
    data), so that a fit can use the same forward model.
    """

    axis: str
    abscissa: np.ndarray
    values: np.ndarray
    n_pulses: int | None = None
    tau: float | None = None
    propagator_mode: str = "exact"

    def __post_init__(self):
        if self.axis not in ("tau", "n"):
            raise ValueError("axis must be 'tau' or 'n'")
        if len(self.abscissa) != len(self.values):
            raise ValueError("abscissa/values length mismatch")
        if np.any(np.abs(self.values) > 1.0 + 1e-9):
            raise ValueError("coherence values must lie in [-1, 1]")
        if self.propagator_mode not in ("exact", "magnus"):
            raise ValueError("propagator_mode must be 'exact' or 'magnus'")


@dataclass(frozen=True)
class CoherenceMap2D:
    """Coherence on a (tau, N) grid; values[i, j] pairs tau_grid[i], n_grid[j]."""

    tau_grid: np.ndarray
    n_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.tau_grid), len(self.n_grid)):
            raise ValueError("values shape inconsistent with grids")
        if np.any(np.abs(self.values) > 1.0 + 1e-9):
            raise ValueError("coherence values must lie in [-1, 1]")


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("nuclear state must be a 2x2 density matrix")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("density matrix must have unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def coherence_single(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    nuclear_state: np.ndarray = MIXED_STATE,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Signed electron coherence from one bath spin."""
    rho = _check_density_matrix(nuclear_state)
    u_plus, u_minus = conditional_propagators(
        spin, fieldcfg, seq.n_pulses, seq.tau, propagator_mode, consts
    )
    return float(np.real(np.trace(rho @ u_plus.conj().T @ u_minus)))


def coherence_bath(
    spins: Iterable[HyperfineSpin],
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Product of single-spin coherences at rho = I/2 (independent spins)."""
    return float(_bath_curve_tau(
        spins, fieldcfg, seq.n_pulses, seq.tau, propagator_mode, consts
    ))


def _bath_curve_tau(spins, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """Bath coherence at rho = I/2 on the broadcast grid of pulse numbers
    and half-intervals: one propagator call per spin."""
    total = np.ones(np.broadcast_shapes(np.shape(n_pulses), np.shape(taus)))
    for spin in spins:
        u_plus, u_minus = conditional_propagators(
            spin, fieldcfg, n_pulses, taus, propagator_mode, consts
        )
        total *= 0.5 * np.real(
            np.einsum("...ij,...ij->...", u_plus.conj(), u_minus)
        )
    return total


def scan_tau(
    spins: Sequence[HyperfineSpin],
    fieldcfg: FieldConfig,
    n_pulses: int,
    tau_range: tuple,
    step: float,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> CoherenceCurve:
    """Coherence vs pulse half-interval at fixed N."""
    lo, hi = tau_range
    if not (0 < lo < hi) or step <= 0:
        raise ValueError("tau_range must be positive increasing and step > 0")
    taus = np.arange(lo, hi + step / 2.0, step)
    if len(taus) == 0:
        raise ValueError("empty tau range")
    values = _bath_curve_tau(spins, fieldcfg, n_pulses, taus, propagator_mode, consts)
    return CoherenceCurve(axis="tau", abscissa=taus, values=np.clip(values, -1, 1),
                          n_pulses=int(n_pulses), propagator_mode=propagator_mode)


def scan_n(
    spins: Sequence[HyperfineSpin],
    fieldcfg: FieldConfig,
    tau: float,
    n_max: int,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> CoherenceCurve:
    """Coherence vs pulse number at fixed tau, N = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    values = _bath_curve_tau(spins, fieldcfg, ns, tau, propagator_mode, consts)
    return CoherenceCurve(axis="n", abscissa=ns.astype(float),
                          values=np.clip(values, -1, 1), tau=float(tau),
                          propagator_mode=propagator_mode)


def scan_2d(
    spins: Sequence[HyperfineSpin],
    fieldcfg: FieldConfig,
    tau_range: tuple,
    step: float,
    n_list: Sequence[int],
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> CoherenceMap2D:
    """Coherence on the (tau, N) grid of the 2D CPMG signal."""
    if len(n_list) == 0:
        raise ValueError("empty pulse-number list")
    lo, hi = tau_range
    if not (0 < lo < hi) or step <= 0:
        raise ValueError("tau_range must be positive increasing and step > 0")
    taus = np.arange(lo, hi + step / 2.0, step)
    n_grid = np.asarray(n_list, dtype=int)
    values = _bath_curve_tau(spins, fieldcfg, n_grid[None, :], taus[:, None],
                             propagator_mode, consts)
    return CoherenceMap2D(
        tau_grid=taus, n_grid=n_grid,
        values=np.clip(values, -1, 1),
    )


def find_dips(curve: CoherenceCurve, depth_threshold: float = 0.8):
    """Local minima with L below ``depth_threshold``.

    Each minimum is refined by a parabola through the three bracketing
    samples.  Returns a list of (abscissa, depth) tuples.
    """
    x, y = curve.abscissa, curve.values
    if len(x) == 0:
        raise ValueError("empty curve")
    dips = []
    for i in range(1, len(x) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1] and y[i] < depth_threshold:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            if denom > 0:
                shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
                shift = np.clip(shift, -0.5, 0.5)
            else:
                shift = 0.0
            x_ref = x[i] + shift * (x[i + 1] - x[i])
            y_ref = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
            dips.append((float(x_ref), float(y_ref)))
    return dips


def locked_states(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Eigenstates of the exact even-N propagator and the per-pulse phase.

    Returns (state_up, state_down, phase, info): the eigenvectors of U_plus
    ordered by their overlap with the +1/2 and -1/2 eigenstates of I_perp, the
    extracted conditional phase per pulse period (the angle phi in the
    branch eigenvalues exp(-/+ i N phi)), and a dict with the eigenbasis
    overlap and a degeneracy flag.
    """
    if seq.n_pulses % 2 != 0:
        raise ValueError("locked states are defined for even pulse numbers only")
    frame = effective_frame(spin, fieldcfg, consts)
    u_plus = conditional_propagator_exact(spin, fieldcfg, seq, "plus", consts)
    eigvals, eigvecs = np.linalg.eig(u_plus)
    if not frame.transverse:
        # a_perp = 0: U_plus is a rotation about n_par; the I_perp basis is
        # not singled out and the conditional phase vanishes.
        return eigvecs[:, 0], eigvecs[:, 1], 0.0, {
            "overlap": 0.0, "degenerate": True,
        }
    _, perp_vecs = np.linalg.eigh(spin_operator(frame.n_perp))
    # eigh sorts ascending: column 0 is the -1/2 ("down") state
    down_ref, up_ref = perp_vecs[:, 0], perp_vecs[:, 1]
    ov_up = np.abs(eigvecs.conj().T @ up_ref)
    i_up = int(np.argmax(ov_up))
    i_down = 1 - i_up
    overlap = float(min(ov_up[i_up], np.abs(eigvecs[:, i_down].conj() @ down_ref)))
    rel = np.angle(eigvals[i_down] / eigvals[i_up]) / 2.0
    phase = abs(rel) / seq.n_pulses
    return eigvecs[:, i_up], eigvecs[:, i_down], float(phase), {
        "overlap": overlap, "degenerate": False,
    }


def oscillation_period(curve: CoherenceCurve) -> float:
    """Period (in curve abscissa units) of a cosine fit L ~ cos(2 pi x / P).

    Used for the pulse-number revival period of the coherence dip; the fit is
    seeded from the spectral peak of the mean-removed signal.
    """
    from scipy.optimize import curve_fit

    x = np.asarray(curve.abscissa, dtype=float)
    y = np.asarray(curve.values, dtype=float)
    if len(x) < 4:
        raise ValueError("curve too short for a period fit")
    dx = np.median(np.diff(x))
    detrended = y - np.mean(y)
    freqs = np.fft.rfftfreq(len(x) * 8, d=dx)
    power = np.abs(np.fft.rfft(detrended, n=len(x) * 8))
    k = int(np.argmax(power[1:])) + 1
    p0 = 1.0 / freqs[k]

    def model(xv, amp, period, phase, off):
        return amp * np.cos(2.0 * np.pi * xv / period + phase) + off

    popt, _ = curve_fit(model, x, y, p0=[np.ptp(y) / 2.0, p0, 0.0, np.mean(y)],
                        maxfev=20000)
    return float(abs(popt[1]))
