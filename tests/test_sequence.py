"""CPMG sequence timing and readout-cycle wait matching."""

import numpy as np
import pytest

from ddread.sequence import CpmgSequence, match_wait_to_precession


def test_single_pulse_times():
    seq = CpmgSequence(1, 100e-9)
    assert np.allclose(seq.pulse_times(), [100e-9])
    assert seq.total_time() == pytest.approx(200e-9)


def test_cpmg12_paper_timing():
    seq = CpmgSequence(12, 248e-9)
    times = seq.pulse_times()
    assert len(times) == 12
    assert times[-1] == pytest.approx(23 * 248e-9)
    assert seq.total_time() == pytest.approx(5.952e-6)


def test_cpmg2_times():
    seq = CpmgSequence(2, 456e-9)
    assert np.allclose(seq.pulse_times(), [456e-9, 1368e-9])


def test_pulse_spacing_structure():
    seq = CpmgSequence(7, 33e-9)
    t = seq.boundary_times()
    assert np.all(np.diff(t) > 0)
    inner = np.diff(t)[1:-1]
    assert np.allclose(inner, 2 * seq.tau)
    assert t[1] - t[0] == pytest.approx(seq.tau)
    assert t[-1] - t[-2] == pytest.approx(seq.tau)


def test_invalid_sequences_rejected():
    with pytest.raises(ValueError):
        CpmgSequence(0, 1e-7)
    with pytest.raises(ValueError):
        CpmgSequence(4, 0.0)


def test_wait_matching_paper_numbers():
    timing = match_wait_to_precession(5.952e-6, 300e-9, 1e-6)
    assert timing.cycle_total == pytest.approx(7e-6)
    assert timing.wait == pytest.approx(748e-9)


def test_wait_zero_when_already_multiple():
    timing = match_wait_to_precession(3e-6, 0.0, 1e-6)
    assert timing.wait == pytest.approx(0.0, abs=1e-15)


def test_degenerate_period_warns():
    with pytest.warns(UserWarning):
        timing = match_wait_to_precession(1e-6, 1e-7, 0.0)
    assert timing.wait == 0.0
