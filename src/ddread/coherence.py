"""Electron coherence under CPMG: single spins, baths, scans, dips.

The observable is the signed coherence L = Re Tr(rho_n U_plus^dag U_minus),
the overlap of the two conditional nuclear evolutions.  With the nuclear
state rho_n = (1 + r.sigma)/2 and U_plus^dag U_minus = w - i v.sigma it is w
for every r, so the branches' Cayley-Klein pairs give it and no state enters.
For a bath of mutually non-interacting spins the signal is the product of
the single-spin factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .sequence import CpmgSequence
from .spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    cpmg_cayley_klein,
)


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
        n = np.asarray(self.abscissa)  # the fit reads N as int64
        if self.axis == "n" and not np.all((1 <= n) & (n < 2**63) & (n % 1 == 0)):
            raise ValueError("pulse numbers must be integers in [1, 2**63)")


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


def coherence_single(
    spin: HyperfineSpin,
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Signed electron coherence from one bath spin: the bath of one."""
    return coherence_bath([spin], fieldcfg, seq, propagator_mode, consts)


def coherence_bath(
    spins: Iterable[HyperfineSpin],
    fieldcfg: FieldConfig,
    seq: CpmgSequence,
    propagator_mode: str = "exact",
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Product of single-spin coherences (independent spins)."""
    return float(_bath_curve_tau(
        spins, fieldcfg, seq.n_pulses, seq.tau, propagator_mode, consts
    ))


def _bath_curve_tau(spins, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """Bath coherence on the broadcast grid of pulse numbers and
    half-intervals: one propagator call for the stack of the bath's hyperfine
    vectors, then the product over its spin axis."""
    a_vecs = np.array([spin.a_vec for spin in spins], dtype=float).reshape(-1, 3)
    return np.prod(_coherence_rows(a_vecs, fieldcfg, n_pulses, taus,
                                   propagator_mode, consts), axis=0)


def _coherence_rows(a_vecs, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """Single-spin coherence for each row of a (P, 3) stack of hyperfine
    vectors: shape (P,) + the broadcast grid.

    0.5 Re Tr(U_plus^dag U_minus) of two SU(2) matrices is Re(conj(alpha_plus)
    alpha_minus + conj(beta_plus) beta_minus) of their Cayley-Klein pairs,
    which does not depend on the axes the pairs are written in; no matrix is
    built.
    """
    (alpha, beta), _ = cpmg_cayley_klein(a_vecs, fieldcfg, n_pulses, taus,
                                         propagator_mode, consts)
    return (alpha[0].conj() * alpha[1] + beta[0].conj() * beta[1]).real


def check_tau_range(tau_range: tuple, step: float) -> None:
    """Raise ValueError unless 0 < start < stop and step > 0 (seconds)."""
    lo, hi = tau_range
    if not (0 < lo < hi) or step <= 0:
        raise ValueError("tau_range must be positive increasing and step > 0")


def tau_axis(tau_range: tuple, step: float) -> np.ndarray:
    """The half-intervals start, start + step, ... of a scan, up to stop
    within half a step; ``check_tau_range`` refuses a bad range."""
    check_tau_range(tau_range, step)
    return np.arange(tau_range[0], tau_range[1] + step / 2.0, step)


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
    taus = tau_axis(tau_range, step)
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
    taus = tau_axis(tau_range, step)
    n_grid = np.asarray(n_list, dtype=int)
    values = _bath_curve_tau(spins, fieldcfg, n_grid[None, :], taus[:, None],
                             propagator_mode, consts)
    return CoherenceMap2D(
        tau_grid=taus, n_grid=n_grid,
        values=np.clip(values, -1, 1),
    )


#: ``find_dips`` reports minima with L below this.
DIP_DEPTH = 0.8


def find_dips(curve: CoherenceCurve):
    """Local minima with L below ``DIP_DEPTH``.

    Each minimum is refined by a parabola through the three bracketing
    samples.  Returns a list of (abscissa, depth) tuples.
    """
    x, y = curve.abscissa, curve.values
    if len(x) == 0:
        raise ValueError("empty curve")
    dips = []
    for i in range(1, len(x) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1] and y[i] < DIP_DEPTH:
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


def oscillation_period(curve: CoherenceCurve) -> float:
    """Period (in curve abscissa units) of a cosine fit L ~ cos(2 pi x / P).

    Used for the pulse-number revival period of the coherence dip; the fit is
    seeded from the spectral peak of the mean-removed signal.
    """
    from scipy.optimize import OptimizeWarning, curve_fit

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

    # an exact cosine leaves no residual to scale the covariance by, and
    # scipy warns about it; the covariance is not used
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, x, y,
                            p0=[np.ptp(y) / 2.0, p0, 0.0, np.mean(y)],
                            maxfev=20000)
    return float(abs(popt[1]))
