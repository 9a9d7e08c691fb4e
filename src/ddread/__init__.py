"""Simulation and analysis of dynamical-decoupling-enabled single-shot
readout of a weakly coupled nuclear spin.

Modules
-------
spincore
    Effective nuclear frames, conditional propagators, filter functions.
sequence
    CPMG sequences and readout-cycle timing.
coherence
    Coherence scans, dips, baths.
measurement
    Kraus measurement channels and the photon-trace Monte Carlo.
analysis
    Histograms, fidelity, quantum jumps, lifetimes, hyperfine fitting.
config / cli
    YAML configuration and the command-line entry points.
"""

from .analysis import (
    FidelityReport,
    HyperfineFit,
    JumpRecord,
    T1nEstimate,
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    estimate_t1n,
    fidelity_vs_threshold,
    fit_hyperfine,
)
from .coherence import (
    CoherenceCurve,
    CoherenceMap2D,
    coherence_bath,
    coherence_single,
    find_dips,
    oscillation_period,
    scan_2d,
    scan_n,
    scan_tau,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .measurement import (
    MeasurementChannel,
    PhotonTrace,
    ReadoutConfig,
    entanglement_vs_n,
    measurement_channel,
    simulate_point,
    simulate_trace,
)
from .sequence import CpmgSequence, ReadoutCycleTiming, match_wait_to_precession
from .spincore import (
    DegenerateFrameError,
    EffectiveFrame,
    FieldConfig,
    HyperfineSpin,
    PhysicalConstants,
    conditional_propagator_exact,
    conditional_propagator_magnus,
    effective_frame,
    filter_function,
    filter_sum,
    spin_from_axial_components,
    spin_from_frame_components,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
