"""CPMG pulse-sequence representation and readout-cycle timing."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CpmgSequence:
    """CPMG-N: pi-flips at t_p = (2p - 1) tau, pulse spacing 2 tau."""

    n_pulses: int
    tau: float

    def __post_init__(self):
        if not isinstance(self.n_pulses, (int, np.integer)) or self.n_pulses < 1:
            raise ValueError("n_pulses must be an integer >= 1")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")

    def pulse_times(self) -> np.ndarray:
        """Times of the N pi-flips, strictly increasing."""
        return (2.0 * np.arange(1, self.n_pulses + 1) - 1.0) * self.tau

    def boundary_times(self) -> np.ndarray:
        """Pulse times with the free-evolution edges t_0 = 0, t_{N+1} = 2 N tau."""
        return np.concatenate(([0.0], self.pulse_times(), [self.total_time()]))

    def total_time(self) -> float:
        return 2.0 * self.n_pulses * self.tau


@dataclass(frozen=True)
class ReadoutCycleTiming:
    """Timing budget of one map-and-read cycle (all seconds)."""

    cpmg_total: float
    optical_readout: float
    wait: float
    overhead: float = 0.0

    @property
    def cycle_total(self) -> float:
        return self.cpmg_total + self.optical_readout + self.wait + self.overhead


def match_wait_to_precession(
    cpmg_total: float,
    optical_readout: float,
    nuclear_period: float,
    overhead: float = 0.0,
) -> ReadoutCycleTiming:
    """Pad the cycle so its total is an integer number of nuclear periods.

    The wait is the smallest non-negative value making cpmg + optical + wait
    (+ overhead) a multiple of ``nuclear_period``.  A non-positive period is a
    degenerate input: warn and return zero wait.
    """
    if cpmg_total <= 0 or optical_readout < 0:
        raise ValueError("cpmg_total must be positive and optical_readout >= 0")
    busy = cpmg_total + optical_readout + overhead
    if nuclear_period <= 0:
        warnings.warn("non-positive nuclear period; wait set to 0")
        return ReadoutCycleTiming(cpmg_total, optical_readout, 0.0, overhead)
    multiples = np.ceil(busy / nuclear_period - 1e-12)
    wait = multiples * nuclear_period - busy
    if wait < 0:
        wait = 0.0
    return ReadoutCycleTiming(cpmg_total, optical_readout, float(wait), overhead)
