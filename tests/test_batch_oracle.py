"""The batched bath and fit forward model against the per-spin and per-point
loops they replaced.

The loops below are the reference.  They call the kernel once per spin and
once per parameter point and curve; the batched code puts the spins, or the
fit's parameter points, on one leading axis of a single kernel call and
flattens every curve into one (N, tau) list.  The arithmetic of each cell is
unchanged, so the results must be equal, not close.
"""

from pathlib import Path

import numpy as np
import pytest

from ddread.analysis import _fit_model_values
from ddread.coherence import _bath_curve_tau, scan_2d, scan_n, scan_tau
from ddread.config import NS, load_config
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    HyperfineSpin,
    conditional_propagators,
    effective_frame,
    spin_from_frame_components,
)

from conftest import TWO_PI_KHZ

MODES = ("exact", "magnus")
SPECTROSCOPY = Path(__file__).resolve().parent.parent / "perfbench" / "spectroscopy.yaml"

# ------------------------------------------------------------ loop oracles


def loop_bath_curve(spins, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """Bath coherence at rho = I/2: one propagator call per spin."""
    total = np.ones(np.broadcast_shapes(np.shape(n_pulses), np.shape(taus)))
    for spin in spins:
        u_plus, u_minus = conditional_propagators(
            spin, fieldcfg, n_pulses, taus, propagator_mode, consts
        )
        total *= 0.5 * np.real(
            np.einsum("...ij,...ij->...", u_plus.conj(), u_minus)
        )
    return total


def loop_model_values(a_par, a_perp, curves, fieldcfg, consts,
                      propagator_mode="exact"):
    """The fit's forward model at one point, one call per curve; None where
    the components realise no frame."""
    try:
        spin = spin_from_frame_components(a_par, a_perp, fieldcfg, consts)
    except ValueError:
        return None
    out = []
    for curve in curves:
        if curve.axis == "tau":
            n_pulses, taus = curve.n_pulses, curve.abscissa
        else:
            n_pulses, taus = curve.abscissa.astype(int), curve.tau
        out.append(loop_bath_curve([spin], fieldcfg, n_pulses, taus,
                                   propagator_mode, consts))
    return np.concatenate(out)


# ------------------------------------------------------------------ bath


@pytest.fixture(scope="module")
def spectroscopy():
    return load_config(SPECTROSCOPY)


@pytest.mark.parametrize("mode", MODES)
def test_bath_scans_match_the_per_spin_loop(spectroscopy, mode):
    c = spectroscopy
    s = c.scan
    tau_range = (s["tau_start_ns"] * NS, s["tau_stop_ns"] * NS)
    step = s["tau_step_ns"] * NS
    taus = np.arange(tau_range[0], tau_range[1] + step / 2.0, step)
    n_list = np.asarray(s["n_list"])
    ns = np.arange(1, s["n_max"] + 1)

    def loop(n, t):
        return np.clip(loop_bath_curve(c.spins, c.field, n, t, mode, c.constants),
                       -1, 1)

    curve = scan_tau(c.spins, c.field, 12, tau_range, step, mode, c.constants)
    assert np.array_equal(curve.values, loop(12, taus))
    curve = scan_n(c.spins, c.field, c.sequence.tau, s["n_max"], mode, c.constants)
    assert np.array_equal(curve.values, loop(ns, c.sequence.tau))
    cmap = scan_2d(c.spins, c.field, tau_range, step, n_list, mode, c.constants)
    assert np.array_equal(cmap.values, loop(n_list[None, :], taus[:, None]))


@pytest.mark.parametrize("mode", MODES)
def test_empty_and_one_spin_baths_match_the_loop(field_305, scan_spin, mode):
    taus = np.linspace(150e-9, 650e-9, 11)
    for spins in ([], [scan_spin]):
        got = _bath_curve_tau(spins, field_305, 12, taus, mode, DEFAULT_CONSTANTS)
        ref = loop_bath_curve(spins, field_305, 12, taus, mode, DEFAULT_CONSTANTS)
        assert np.array_equal(got, ref)


def test_stacked_frames_match_single_frames(field_305, bath_305, scan_spin):
    """Each row of a stacked frame is the single spin's frame, including the
    fallback axis of a spin with a_perp = 0."""
    axial = HyperfineSpin(np.array([0.0, 0.0, 200.0 * TWO_PI_KHZ]))
    spins = list(bath_305) + [scan_spin, axial]
    stacked = effective_frame(np.array([s.a_vec for s in spins]), field_305)
    assert not stacked.transverse[-1]
    for i, spin in enumerate(spins):
        single = effective_frame(spin, field_305)
        for name in ("omega", "a_par", "a_perp", "transverse"):
            assert getattr(stacked, name)[i] == getattr(single, name)
        for name in ("n_par", "n_perp", "n_cross"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(single, name))


# ----------------------------------------------------------- fit model


@pytest.fixture(scope="module")
def fit_curves(field_305):
    spin = spin_from_frame_components(330.0 * TWO_PI_KHZ, 200.0 * TWO_PI_KHZ,
                                      field_305)
    tau_res = np.pi / (2.0 * effective_frame(spin, field_305).omega)
    return {
        mode: [scan_tau([spin], field_305, 12, (tau_res * 0.75, tau_res * 1.25),
                        tau_res * 0.5 / 40, mode),
               scan_n([spin], field_305, tau_res, 24, mode)]
        for mode in MODES
    }


@pytest.mark.parametrize("mode", MODES)
def test_fit_model_matches_the_per_point_loop(field_305, fit_curves, mode):
    """Random points, points with a_perp >= 2 gamma_n B or a degenerate
    omega (no frame), and a_perp = 0 (the frame's fallback axis)."""
    b = DEFAULT_CONSTANTS.gamma_n * field_305.b_magnitude
    rng = np.random.default_rng(77)
    points = np.concatenate([
        rng.uniform(2.0 * np.pi * 1e3, 2.0 * np.pi * 2e6, (40, 2)),
        [(330.0 * TWO_PI_KHZ, 0.0), (-150.0 * TWO_PI_KHZ, 0.0),
         (330.0 * TWO_PI_KHZ, 2.0 * b), (330.0 * TWO_PI_KHZ, 3.0 * b),
         (-3.0 * b, 100.0 * TWO_PI_KHZ)],
    ])
    curves = fit_curves[mode]
    model, valid = _fit_model_values(points, curves, field_305,
                                     DEFAULT_CONSTANTS, mode)
    assert model.shape == (len(points), sum(len(c.values) for c in curves))
    assert not valid[-3:].any() and valid[-5:-3].all()
    for (a_par, a_perp), row, ok in zip(points, model, valid):
        ref = loop_model_values(a_par, a_perp, curves, field_305,
                                DEFAULT_CONSTANTS, mode)
        assert ok == (ref is not None)
        if ok:
            assert np.array_equal(row, ref)
        else:
            assert np.isnan(row).all()


@pytest.mark.parametrize("block_rows", [1, 3, 45])
def test_fit_model_blocks_are_bounded_and_exact(field_305, fit_curves,
                                                monkeypatch, block_rows):
    """Row blocks of the forward model hold at most ``_FIT_BLOCK_CELLS``
    (row, cell) pairs per kernel call (one row at least) and give the values
    of a single block."""
    import ddread.analysis as analysis

    curves = fit_curves["exact"]
    n_cells = sum(len(c.values) for c in curves)
    rng = np.random.default_rng(78)
    points = rng.uniform(2.0 * np.pi * 1e3, 2.0 * np.pi * 2e6, (45, 2))
    whole, valid = _fit_model_values(points, curves, field_305, DEFAULT_CONSTANTS)
    assert valid.sum() > 3

    shapes = []
    original = analysis._coherence_rows

    def recording(a_vecs, *args):
        out = original(a_vecs, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(analysis, "_coherence_rows", recording)
    monkeypatch.setattr(analysis, "_FIT_BLOCK_CELLS", block_rows * n_cells + 1)
    blocked, blocked_valid = _fit_model_values(points, curves, field_305,
                                               DEFAULT_CONSTANTS)
    assert np.array_equal(blocked_valid, valid)
    assert np.array_equal(blocked, whole, equal_nan=True)
    assert [s[1] for s in shapes] == [n_cells] * len(shapes)
    assert sum(s[0] for s in shapes) == valid.sum()
    assert max(s[0] for s in shapes) == min(block_rows, valid.sum())
    assert len(shapes) == -(-valid.sum() // block_rows)
