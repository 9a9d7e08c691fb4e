"""CPMG pulse-sequence representation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CpmgSequence:
    """CPMG-N: pi-flips at t_p = (2p - 1) tau, pulse spacing 2 tau."""

    n_pulses: int
    tau: float

    def __post_init__(self):
        if (isinstance(self.n_pulses, bool)
                or not isinstance(self.n_pulses, (int, np.integer))
                or self.n_pulses < 1):
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
