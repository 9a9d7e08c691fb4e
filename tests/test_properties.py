"""Property-based invariants across the physics and analysis layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddread.analysis import (
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    fidelity_vs_threshold,
)
from ddread.coherence import coherence_bath, coherence_single
from ddread.measurement import PhotonTrace, ReadoutConfig, measurement_channel
from ddread.sequence import CpmgSequence
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    conditional_propagator_exact,
    conditional_propagator_magnus,
    effective_frame,
    filter_sum,
)

from conftest import TWO_PI_KHZ, is_unitary

spins = st.builds(
    lambda ax, ay, az: HyperfineSpin(
        np.array([ax, ay, az]) * TWO_PI_KHZ
    ),
    st.floats(-400.0, 400.0),
    st.floats(-400.0, 400.0),
    st.floats(-400.0, 400.0),
)
fields = st.builds(
    lambda g: FieldConfig(b_magnitude=g * 1e-4), st.floats(50.0, 800.0)
)
sequences = st.builds(
    CpmgSequence,
    st.integers(1, 24),
    st.floats(50e-9, 900e-9),
)
even_sequences = st.builds(
    CpmgSequence,
    st.integers(1, 12).map(lambda k: 2 * k),
    st.floats(50e-9, 900e-9),
)


@settings(max_examples=60, deadline=None)
@given(spins, fields, sequences)
def test_propagators_unitary(spin, field, seq):
    frame = effective_frame(spin, field)
    for branch in ("plus", "minus"):
        assert is_unitary(conditional_propagator_exact(spin, field, seq, branch))
        if frame.omega > 1.0:
            assert is_unitary(conditional_propagator_magnus(frame, seq, branch))


@settings(max_examples=60, deadline=None)
@given(spins, fields, sequences)
def test_kraus_completeness(spin, field, seq):
    for mode in ("exact", "magnus"):
        ch = measurement_channel(spin, field, seq, mode)
        assert ch.completeness_defect() < 1e-12


@settings(max_examples=60, deadline=None)
@given(spins, fields, sequences)
def test_coherence_bounded(spin, field, seq):
    value = coherence_single(spin, field, seq)
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(spins, min_size=0, max_size=4), fields, sequences)
def test_bath_product_law(bath, field, seq):
    expected = 1.0
    for spin in bath:
        expected *= coherence_single(spin, field, seq)
    assert coherence_bath(bath, field, seq) == pytest.approx(
        expected, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 500.0), fields, sequences)
def test_parallel_coupling_is_transparent(a_z, field, seq):
    spin = HyperfineSpin(np.array([0.0, 0.0, a_z * TWO_PI_KHZ]))
    assert coherence_single(spin, field, seq) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1e4, 1e7),  # omega (rad/s)
    st.integers(1, 24),
    st.floats(50e-9, 900e-9),
)
def test_filter_sum_matches_direct_evaluation(omega, n, tau):
    seq = CpmgSequence(n, tau)
    bounds = seq.boundary_times()
    total = 0.0 + 0.0j
    for k in range(len(bounds) - 1):
        sign = (-1) ** k
        t0, t1 = bounds[k], bounds[k + 1]
        total += sign * (np.exp(-1j * omega * t1) - np.exp(-1j * omega * t0))
    assert filter_sum(omega, seq) == pytest.approx(total, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(sequences)
def test_pulse_times_structure(seq):
    times = seq.pulse_times()
    assert len(times) == seq.n_pulses
    assert times[0] == pytest.approx(seq.tau)
    assert np.all(np.diff(times) == pytest.approx(2.0 * seq.tau))
    assert seq.total_time() == pytest.approx(2.0 * seq.n_pulses * seq.tau)


counts_arrays = st.lists(
    st.integers(1800, 3000), min_size=4, max_size=400
).map(lambda xs: np.array(xs, dtype=np.int64))


def _trace(counts):
    hidden = np.where(counts >= 2400, 1, -1).astype(np.int8)
    return PhotonTrace(points=counts, hidden_states=hidden,
                       config=ReadoutConfig(), seed=0)


@settings(max_examples=40, deadline=None)
@given(counts_arrays)
def test_fidelity_curve_tradeoff_monotone(counts):
    hists = conditional_histograms(_trace(counts), ThresholdPolicy())
    if len(hists.samples_up) == 0 or len(hists.samples_down) == 0:
        return
    curve = fidelity_vs_threshold(hists).threshold_curve
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)
    assert np.all(np.diff(curve[:, 2]) >= -1e-12)


@settings(max_examples=40, deadline=None)
@given(counts_arrays, st.integers(-500, 500))
def test_analysis_shift_equivariance(counts, shift):
    policy = ThresholdPolicy()
    shifted_policy = ThresholdPolicy(policy.init_low + shift,
                                     policy.init_high + shift)
    rec = detect_jumps(_trace(counts), policy)
    shifted = PhotonTrace(points=counts + shift,
                          hidden_states=np.where(counts >= 2400, 1, -1).astype(np.int8),
                          config=ReadoutConfig(), seed=0)
    rec2 = detect_jumps(shifted, shifted_policy)
    assert np.array_equal(rec.states, rec2.states)


@settings(max_examples=30, deadline=None)
@given(counts_arrays)
def test_jump_detection_causal(counts):
    policy = ThresholdPolicy()
    full = detect_jumps(_trace(counts), policy)
    cut = max(2, len(counts) // 2)
    prefix = detect_jumps(_trace(counts[:cut]), policy)
    assert np.array_equal(prefix.states, full.states[:cut])


@settings(max_examples=20, deadline=None)
@given(spins, fields, even_sequences, st.integers(0, 2**32 - 1))
def test_channel_probabilities_valid(spin, field, seq, _seed):
    ch = measurement_channel(spin, field, seq, "magnus")
    rho = np.eye(2) / 2.0
    p0 = ch.outcome_probability(0, rho)
    assert 0.0 <= p0 <= 1.0
    post = ch.apply(0, rho) if p0 > 1e-12 else ch.apply(1, rho)
    assert np.trace(post) == pytest.approx(1.0, abs=1e-9)
    evals = np.linalg.eigvalsh(post)
    assert evals.min() >= -1e-9
