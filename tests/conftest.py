"""Shared reference systems for the test suite.

Three working points recur throughout:

* the 305 G "scan" spin with transverse coupling 200 kHz and effective
  precession 517 kHz, whose coherence dip oscillates with a ~16-pulse revival,
* the 691 G "readout" spin engineered so CPMG-12 at tau = 248 ns accumulates
  exactly the projective conditional phase pi/2,
* a four-spin bath at 305 G for plateau/dip structure.

All constructors are exact closed forms, so tests do not depend on any
root-finding tolerance.

Every test also fails if it leaves a thread running that was not running
when it started, such as a worker of a test that runs fits concurrently.
"""

import threading

import numpy as np
import pytest

from ddread.sequence import CpmgSequence
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    effective_frame,
    spin_from_axial_components,
    spin_from_frame_components,
)

TWO_PI_KHZ = 2.0 * np.pi * 1e3
GAUSS = 1e-4


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


def is_unitary(u, tol=1e-12):
    """Frobenius check of U^dag U = I and |det U| = 1."""
    dev = np.linalg.norm(u.conj().T @ u - np.eye(2))
    return dev < tol and abs(abs(np.linalg.det(u)) - 1.0) < tol


def replay_photons(config, tallies, rng=None):
    """Photon counts of points with ``tallies`` bright (outcome 0) cycles
    each, drawn one scalar call at a time in the layout of
    ``_photon_counts``: every point's misassigned bright cycles, then its
    misassigned dark cycles, then its count.  ``rng`` defaults to
    ``simulate_trace``'s block stream, Philox keyed by [seed, 1]."""
    if rng is None:
        rng = np.random.Generator(
            np.random.Philox(key=[config.seed & (2**64 - 1), 1]))
    n, eie = config.cycles_per_point, config.electron_init_error
    wrong_bright = [int(rng.binomial(b, eie)) for b in tallies]
    wrong_dark = [int(rng.binomial(n - b, eie)) for b in tallies]
    lit = [b - wb + wd for b, wb, wd in zip(tallies, wrong_bright, wrong_dark)]
    return [int(rng.poisson(config.photon_rate_bright * k
                            + config.photon_rate_dark * (n - k))) for k in lit]


def frame_a_par_for(omega, a_perp, fieldcfg, consts=DEFAULT_CONSTANTS):
    """Parallel frame component that yields precession ``omega`` given a_perp."""
    b = consts.gamma_n * fieldcfg.b_magnitude
    return 2.0 * (omega - np.sqrt(b * b - a_perp * a_perp / 4.0))


@pytest.fixture(scope="session")
def field_305():
    return FieldConfig(305.0 * GAUSS)


@pytest.fixture(scope="session")
def field_691():
    return FieldConfig(691.0 * GAUSS)


@pytest.fixture(scope="session")
def scan_spin(field_305):
    """a_perp/2pi = 200 kHz, omega/2pi = 517 kHz at 305 G."""
    omega = 517.0 * TWO_PI_KHZ
    a_perp = 200.0 * TWO_PI_KHZ
    return spin_from_frame_components(
        frame_a_par_for(omega, a_perp, field_305), a_perp, field_305
    )


@pytest.fixture(scope="session")
def scan_spin_resonant_tau(scan_spin, field_305):
    frame = effective_frame(scan_spin, field_305)
    return np.pi / (2.0 * frame.omega)


@pytest.fixture(scope="session")
def readout_spin(field_691):
    """Projective working point: 2 N Phi = pi/2 at N = 12, tau = 248 ns.

    omega is pinned to the CPMG resonance 2 pi / (4 tau) and a_perp to
    pi omega / 24 so twelve pulses accumulate exactly pi/2.
    """
    omega = 2.0 * np.pi / (4.0 * 248e-9)
    a_perp = np.pi * omega / 24.0
    return spin_from_frame_components(
        frame_a_par_for(omega, a_perp, field_691), a_perp, field_691
    )


@pytest.fixture(scope="session")
def readout_seq():
    return CpmgSequence(12, 248e-9)


@pytest.fixture(scope="session")
def bath_305(field_305):
    """Four spins with axial couplings <= 330 kHz; strongest dips near 456 ns.

    The strongest spin's axial component is chosen so its exact CPMG-12 dip
    sits at tau = 456.0 ns (a_z = 384.76 kHz would put it exactly there but
    exceeds the 330 kHz cap, so the capped bath dips slightly higher; the
    dedicated dip-location test uses the uncapped spin directly).
    """
    specs = [(330.0, 200.0), (240.0, 130.0), (160.0, 80.0), (90.0, 45.0)]
    return [
        spin_from_axial_components(az * TWO_PI_KHZ, ap * TWO_PI_KHZ, field_305)
        for az, ap in specs
    ]


@pytest.fixture(scope="session")
def dip_456_spin(field_305):
    """Spin whose exact CPMG-12 coherence dip falls at tau = 456.0 ns."""
    return spin_from_axial_components(
        384.7586910143187 * TWO_PI_KHZ, 200.0 * TWO_PI_KHZ, field_305
    )
