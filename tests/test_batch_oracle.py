"""The batched bath and fit forward model against the per-spin and per-point
loops they replaced, and the two-stage kernel against the one-stage matrix
kernel it replaced.

The loops below are the reference.  They call the kernel once per spin and
once per parameter point and curve; the batched code puts the spins, or the
fit's parameter points, on one leading axis of a single kernel call and
flattens every curve into one (N, tau) list.  The arithmetic of each cell is
unchanged, so the results must be equal, not close.

The one-stage kernel built each branch's 2 x 2 matrices in a loop over the
branches and took the coherence as 0.5 Re Tr(U_plus^dag U_minus).  The
two-stage kernel computes both branches' Cayley-Klein pairs on one branch
axis (in magnus mode the plus branch alone, the minus branch being it with
beta negated) and builds matrices only for their callers, so the matrices
and the channel made from them must be equal, and so must the exact-mode
entanglement curve made from their first rows; the coherence, now
Re(conj(alpha_plus) alpha_minus + conj(beta_plus) beta_minus) of the pairs,
rounds differently and is bounded in ulps.

The serial fit refines the starts of ``fit_hyperfine`` one after another
with ``scipy.optimize.least_squares``.  It is the oracle for the minimum
where the truth is the global one: from criterion 7's 8 x 8 grid the fit,
which steps all its starts in lockstep with its own damped Gauss-Newton
solver, must end at a residual no larger than the serial fit's, at the same
parameters to far below their 1% noise standard error, and with the same
degeneracy verdict.  Where the starts lie far from the truth the two
solvers take different paths into different local minima, so there the fit
is checked to end at a local minimum without reaching its evaluation cap.
A start's path does not depend on the starts that share its forward-model
calls, so that part is equal, not close.
"""

import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ddread.measurement as measurement
from ddread.analysis import HyperfineFit, _fit_cells, _fit_model_values, fit_hyperfine
from ddread.coherence import (
    _bath_curve_tau,
    _coherence_rows,
    scan_2d,
    scan_n,
    scan_tau,
)
from ddread.config import NS, load_config
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    _hyperfine_vectors,
    _pair_power,
    _pair_product,
    _rotor,
    _spin_axis,
    _su2_matrices,
    conditional_propagators,
    cpmg_cayley_klein,
    effective_frame,
    spin_from_frame_components,
)

from conftest import TWO_PI_KHZ

MODES = ("exact", "magnus")
SPECTROSCOPY = Path(__file__).resolve().parent.parent / "perfbench" / "spectroscopy.yaml"

# ------------------------------------------------------------ loop oracles


def loop_bath_curve(spins, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """Bath coherence at rho = I/2: one kernel call per spin."""
    total = np.ones(np.broadcast_shapes(np.shape(n_pulses), np.shape(taus)))
    for spin in spins:
        (alpha, beta), _ = cpmg_cayley_klein(
            spin, fieldcfg, n_pulses, taus, propagator_mode, consts
        )
        total *= (alpha[0].conj() * alpha[1] + beta[0].conj() * beta[1]).real
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


def serial_fit_hyperfine(curves, fieldcfg, n_grid=20,
                         grid_range=(2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6),
                         consts=DEFAULT_CONSTANTS):
    """``fit_hyperfine`` with its local refinements run one after another,
    each residual and finite-difference Jacobian one forward-model call."""
    from scipy.optimize import least_squares

    propagator_mode = curves[0].propagator_mode
    data = np.concatenate([c.values for c in curves])
    cells = _fit_cells(curves)

    def residual_rows(model, valid):
        model -= data
        model[~valid] = 1e3
        return model

    def residuals(points):
        return residual_rows(*_fit_model_values(points, cells, fieldcfg, consts,
                                                propagator_mode))

    lo, hi = grid_range
    grid = np.linspace(lo, hi, n_grid)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    coarse = sorted(
        (float(np.linalg.norm(r)), ap, at)
        for r, (ap, at) in zip(residuals(points), points))

    best = None
    n_starts = 0
    for _, ap, at in coarse[:5]:
        n_starts += 1
        sol = least_squares(
            lambda params: residuals([params])[0], x0=[ap, at],
            bounds=([lo / 10.0, lo / 10.0], [hi * 2.0, hi * 2.0]),
            xtol=1e-12, ftol=1e-12,
            workers=lambda _fun, shifted: residuals(list(shifted)),
        )
        key = (float(np.linalg.norm(sol.fun)), float(sol.x[0]), float(sol.x[1]))
        if best is None or key < best:
            best = key
    res_norm, a_par, a_perp = best
    probe = max(abs(a_par) * 0.1, 0.01 * lo)
    model, valid = _fit_model_values(
        [(a_par, a_perp), (a_par + probe, a_perp),
         (max(a_par - probe, lo / 10.0), a_perp)],
        cells, fieldcfg, consts, propagator_mode)
    flat = bool(valid[0]) and float(np.max(np.abs(model[0] - 1.0))) < 1e-3
    r_plus, r_minus = (np.linalg.norm(r)
                       for r in residual_rows(model[1:], valid[1:]))
    insensitive = (max(r_plus, r_minus) - res_norm) < 1e-8 * max(1.0, res_norm)
    return HyperfineFit(a_par=a_par, a_perp=a_perp, residual=res_norm,
                        degenerate=bool(flat or insensitive), n_starts=n_starts)


# ------------------------------------------------- one-stage matrix kernel


def _one_stage_magnus_blocks(omega, a_perp, taus, sign):
    """First-order cycle and half-cycle pairs of one branch, ``sign`` +1
    (plus) or -1 (minus), each built with its own conditional rotation."""
    e = np.exp(1j * omega * taus)
    e2 = e * e
    d = e - 1.0
    m_half = (0.5j * a_perp / omega) * (d * d)
    blocks = []
    for m, w in ((m_half * (1.0 - e2), e2.conj()), (m_half, e.conj())):
        angle = np.abs(m)
        half = angle / 2.0
        s = np.sin(half) / np.where(angle > 0.0, angle, 1.0)
        blocks.append((np.cos(half) * w, (sign * -1j * s) * m * w))
    return blocks


def _one_stage_pair(cycles, halves, n_pulses, frame):
    """(U_plus, U_minus): cycle**(N // 2), then the half-cycle for odd N,
    and each branch's matrices, one branch after the other."""
    n_pulses = np.asarray(n_pulses)
    k, odd = np.divmod(n_pulses, 2)
    pair = []
    for cycle, half in zip(cycles, halves):
        even = _pair_power(cycle, k)
        branch = tuple(np.where(odd == 1, h, e)
                       for h, e in zip(_pair_product(half, even), even))
        pair.append(_su2_matrices(branch, frame)[0])
    return tuple(pair)


def one_stage_propagators(spin, fieldcfg, n_pulses, taus, propagator_mode="exact",
                          consts=DEFAULT_CONSTANTS):
    """``conditional_propagators`` as one stage, each branch on its own.

    Each branch keeps a leading axis of length one, and the field-only
    rotation b as many axes as a, as in the kernel: numpy rounds a complex
    product differently in its scalar arithmetic, and where broadcasting adds
    axes to a one-element result.  b is built by the general rotor, so the
    kernel's diagonal b is checked against it."""
    taus = np.asarray(taus, dtype=float)
    grid_ndim = len(np.broadcast_shapes(np.shape(n_pulses), taus.shape))
    if propagator_mode == "exact":
        b_vec = np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
        a_vec = _hyperfine_vectors(spin)
        a = _rotor((a_vec + b_vec)[None], taus, grid_ndim)
        b = _rotor(b_vec.reshape((1,) * a_vec.ndim + (3,)), taus, grid_ndim)
        half_plus, half_minus = _pair_product(b, a), _pair_product(a, b)
        cycles = (_pair_product(half_minus, half_plus),
                  _pair_product(half_plus, half_minus))
        return _one_stage_pair(cycles, (half_plus, half_minus), n_pulses, None)
    frame = effective_frame(spin, fieldcfg, consts)
    omega, a_perp = (_spin_axis(v, grid_ndim)[None]
                     for v in (frame.omega, frame.a_perp))
    cycles, halves = zip(*(_one_stage_magnus_blocks(omega, a_perp, taus, sign)
                           for sign in (1.0, -1.0)))
    return _one_stage_pair(cycles, halves, n_pulses, frame)


def one_stage_pairs(spin, fieldcfg, n_pulses, taus, propagator_mode="exact",
                    consts=DEFAULT_CONSTANTS):
    """``cpmg_cayley_klein`` from the one-stage kernel: the first rows of
    its matrices, in lab axes."""
    u = np.stack(one_stage_propagators(spin, fieldcfg, n_pulses, taus,
                                       propagator_mode, consts))
    return (u[..., 0, 0], u[..., 0, 1]), None


def matrix_coherence_rows(a_vecs, fieldcfg, n_pulses, taus, propagator_mode, consts):
    """0.5 Re Tr(U_plus^dag U_minus) of the one-stage kernel's matrices."""
    u_plus, u_minus = one_stage_propagators(a_vecs, fieldcfg, n_pulses, taus,
                                            propagator_mode, consts)
    return 0.5 * np.real(np.einsum("...ij,...ij->...", u_plus.conj(), u_minus))


def random_spins(rng, field, n):
    """``n`` random hyperfine vectors whose frames are not degenerate."""
    vecs = rng.normal(scale=300.0 * TWO_PI_KHZ, size=(4 * n, 3))
    h_par = vecs / 2.0 + [0.0, 0.0, DEFAULT_CONSTANTS.gamma_n * field.b_magnitude]
    return vecs[np.linalg.norm(h_par, axis=1) > 2.0 * np.pi * 1e3][:n]


# rounding of 0.5 Re Tr(U_plus^dag U_minus) against Re(conj(alpha_plus)
# alpha_minus + conj(beta_plus) beta_minus) of the Cayley-Klein pairs: each
# sums products of numbers at most 1 in size, so in exact mode they part by
# at most 2 ulp of 1; in magnus mode the matrices' vector parts are first
# rotated from frame to lab axes, about 1 ulp more per coordinate and
# branch, so at most 6 ulp
COHERENCE_ULPS = {"exact": 2, "magnus": 6}


@pytest.mark.parametrize("mode", MODES)
def test_cayley_klein_coherence_matches_the_matrix_trace(mode):
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(20):
        field = FieldConfig(rng.uniform(0.005, 0.1))
        a_vecs = random_spins(rng, field, 8)
        n_pulses = rng.integers(1, 65, 9)[None, :]
        taus = rng.uniform(50e-9, 1e-6, 11)[:, None]
        got = _coherence_rows(a_vecs, field, n_pulses, taus, mode, DEFAULT_CONSTANTS)
        ref = matrix_coherence_rows(a_vecs, field, n_pulses, taus, mode,
                                    DEFAULT_CONSTANTS)
        assert got.shape == ref.shape == (len(a_vecs), 11, 9)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= COHERENCE_ULPS[mode] * np.finfo(float).eps


@pytest.mark.parametrize("mode", MODES)
def test_two_stage_matrices_equal_the_one_stage_kernel(field_305, bath_305, mode):
    """Single spins and stacks, odd and even N, and a spin with a_perp = 0
    (the frame's fallback axis)."""
    axial = np.array([0.0, 0.0, 200.0 * TWO_PI_KHZ])
    stack = np.array([s.a_vec for s in bath_305] + [axial])
    n_pulses = np.arange(1, 14)[None, :]
    taus = np.linspace(100e-9, 900e-9, 7)[:, None]
    for spin in [HyperfineSpin(axial), bath_305[0], stack]:
        for n, t in ((n_pulses, taus), (12, taus[:, 0]), (7, 483e-9)):
            got = conditional_propagators(spin, field_305, n, t, mode)
            want = one_stage_propagators(spin, field_305, n, t, mode)
            for u, v in zip(got, want):
                assert u.shape == v.shape
                assert np.array_equal(u, v)


@pytest.mark.parametrize("mode", MODES)
def test_channel_and_entanglement_equal_the_one_stage_kernel(
        field_691, readout_spin, readout_seq, monkeypatch, mode):
    """The channel from the one-stage matrices, and the entanglement curve
    from their first rows.  In magnus mode those rows are in lab axes and
    the kernel's pairs in frame axes, so the curve rounds differently."""
    def outputs():
        channel = measurement.measurement_channel(readout_spin, field_691,
                                                  readout_seq, mode)
        return ([channel.kraus_0, channel.kraus_1, channel.basis_up,
                 channel.basis_down],
                measurement.entanglement_vs_n(readout_spin, field_691,
                                              readout_seq.tau, 48, mode))

    got_channel, got_curve = outputs()
    monkeypatch.setattr(measurement, "conditional_propagators",
                        one_stage_propagators)
    monkeypatch.setattr(measurement, "cpmg_cayley_klein", one_stage_pairs)
    want_channel, want_curve = outputs()
    for a, b in zip(got_channel, want_channel):
        assert np.array_equal(a, b)
    for a, b in zip(got_curve, want_curve):
        if mode == "exact":
            assert np.array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


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
    model, valid = _fit_model_values(points, _fit_cells(curves), field_305,
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
    cells = _fit_cells(curves)
    whole, valid = _fit_model_values(points, cells, field_305, DEFAULT_CONSTANTS,
                                     "exact")
    assert valid.sum() > 3

    shapes = []
    original = analysis._coherence_rows

    def recording(a_vecs, *args):
        out = original(a_vecs, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(analysis, "_coherence_rows", recording)
    monkeypatch.setattr(analysis, "_FIT_BLOCK_CELLS", block_rows * n_cells + 1)
    blocked, blocked_valid = _fit_model_values(points, cells, field_305,
                                               DEFAULT_CONSTANTS, "exact")
    assert np.array_equal(blocked_valid, valid)
    assert np.array_equal(blocked, whole, equal_nan=True)
    assert [s[1] for s in shapes] == [n_cells] * len(shapes)
    assert sum(s[0] for s in shapes) == valid.sum()
    assert max(s[0] for s in shapes) == min(block_rows, valid.sum())
    assert len(shapes) == -(-valid.sum() // block_rows)


# ------------------------------------------------------ lockstep fit


def noisy_curves(curves, seed):
    """``curves`` with criterion 7's 1% Gaussian noise, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return [replace(c, values=np.clip(c.values + rng.normal(0.0, 0.01, c.values.shape),
                                      -1.0, 1.0))
            for c in curves]


def assert_reaches_the_serial_fit(fit, ref, noiseless):
    """``fit`` ends at ``ref``'s minimum: a residual no larger (1e-12 of
    slack on a noiseless curve, whose residual is rounding), the same
    parameters to 1e-6 relative (the fit's standard error at 1% noise is
    4e-4), the same degeneracy verdict and number of starts."""
    assert fit.residual <= ref.residual * (1.0 + 1e-9) + (1e-12 if noiseless else 0.0)
    assert fit.a_par == pytest.approx(ref.a_par, rel=1e-6, abs=0.0)
    assert fit.a_perp == pytest.approx(ref.a_perp, rel=1e-6, abs=0.0)
    assert (fit.degenerate, fit.n_starts) == (ref.degenerate, ref.n_starts)


def assert_ends_at_a_local_minimum(fit, curves, fieldcfg):
    """No point one forward-difference step from ``fit`` along a free axis
    (one whose two neighbours lie inside ``fit_hyperfine``'s box) has a
    cost lower by more than the refinement's tolerance ``_FTOL`` on the
    cost.  A forward-difference solver stops where its forward-difference
    gradient vanishes, a little off the minimum, so the tolerance is
    needed: every one of these fits by ``least_squares`` has a neighbour
    lower by 1e-15 to 3e-14 of its residual."""
    from ddread.analysis import _FTOL

    lo, hi = 2.0 * np.pi * 10e3, 2.0 * np.pi * 1e6
    wall = 2.0 * DEFAULT_CONSTANTS.gamma_n * fieldcfg.b_magnitude
    lb, ub = lo / 10.0, np.array([hi * 2.0, min(hi * 2.0, wall)])
    x = np.array([fit.a_par, fit.a_perp])
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    neighbours = [x + sign * h[i] * np.eye(2)[i] for i in range(2)
                  if lb < x[i] - h[i] and x[i] + h[i] < ub[i] for sign in (-1.0, 1.0)]
    if not neighbours:
        return
    model, valid = _fit_model_values(neighbours, _fit_cells(curves), fieldcfg,
                                     DEFAULT_CONSTANTS, curves[0].propagator_mode)
    model -= np.concatenate([c.values for c in curves])
    model[~valid] = 1e3
    lowest = min(np.linalg.norm(r) for r in model)
    assert lowest ** 2 >= fit.residual ** 2 * (1.0 - _FTOL)


@pytest.mark.parametrize("n_grid", [1, 2, 3, 8])
@pytest.mark.parametrize("mode", MODES)
def test_lockstep_fit_equals_the_serial_fit(field_305, fit_curves, mode, n_grid,
                                            monkeypatch):
    """Criterion 7's curves, noiseless and at ten noise seeds.  From the 8 x 8
    grid the lockstep fit reaches the serial fit's minimum.  From 1-3 grid
    points per axis no start is near the truth and the serial fit itself
    ends in a local minimum (near (200.9, 250.6) kHz in exact mode, against
    the truth's (330, 200)), as the lockstep fit does by another path: there
    it is checked to end at a local minimum, with no start reaching the
    evaluation cap."""
    import ddread.analysis as analysis

    original = analysis._fit_model_values
    calls = []

    def counting(params, *args):
        calls.append(len(params))
        return original(params, *args)

    for seed in [None] + list(range(10)):
        curves = fit_curves[mode]
        if seed is not None:
            curves = noisy_curves(curves, seed)
        if n_grid == 8:
            assert_reaches_the_serial_fit(
                fit_hyperfine(curves, field_305, n_grid=n_grid),
                serial_fit_hyperfine(curves, field_305, n_grid=n_grid), seed is None)
            continue
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_fit_model_values", counting)
            fit = fit_hyperfine(curves, field_305, n_grid=n_grid)
        # the coarse grid and the degeneracy probe are the other two calls
        assert len(calls) - 2 < analysis._MAX_NFEV
        assert_ends_at_a_local_minimum(fit, curves, field_305)


@pytest.mark.parametrize("mode", MODES)
def test_lockstep_fit_of_decoupled_data_equals_the_serial_fit(field_305, mode):
    """Decoupled data: the fit is flagged degenerate, as the serial fit is,
    from as many starts, at a residual no larger.  Its residual barely
    depends on a_par there and the finite-difference Jacobian is rounding
    noise, so where a start stops depends on its solver's path, and the
    parameters are not compared."""
    spin = spin_from_frame_components(0.0, 0.0, field_305)
    curves = [scan_tau([spin], field_305, 8, (200e-9, 600e-9), 10e-9, mode)]
    fit = fit_hyperfine(curves, field_305, n_grid=6)
    ref = serial_fit_hyperfine(curves, field_305, n_grid=6)
    assert fit.degenerate and ref.degenerate
    assert fit.n_starts == ref.n_starts
    assert fit.residual <= ref.residual


def test_refinement_stays_in_the_box_and_descends():
    """Bounded problems whose damped Gauss-Newton steps leave the box, so
    that the solver clips them: from every start it ends inside the box at a
    cost no higher than its start's, and more than 20 trial points were
    clipped onto the box's edge."""
    import ddread.analysis as analysis

    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 3.0, 20)
    lb, ub = 0.3, 4.0
    edges = (np.nextafter(lb, ub), np.nextafter(ub, lb))
    clipped = 0

    for _ in range(10):
        centre, width = rng.uniform(-1.0, 6.0), rng.uniform(0.2, 2.0)

        def residuals(points, centre=centre, width=width):
            a, b = np.asarray(points, dtype=float).T[:, :, None]
            return (np.exp(-(t - a) ** 2 / b) + 0.1 * np.sin(a * t)
                    - np.exp(-(t - centre) ** 2 / width))

        def counting(points):
            nonlocal clipped
            # each start's trial point leads its two forward-difference points
            trials = np.asarray(points)[::3]
            clipped += int(np.sum(np.any(np.isin(trials, edges), axis=1)))
            return residuals(points)

        starts = rng.uniform(lb, ub, (5, 2))
        x, f = analysis._refine(starts, counting, lb, ub)
        assert np.all((lb <= x) & (x <= ub))
        start_cost = np.sum(residuals(starts) ** 2, axis=1)
        assert np.all(np.sum(f ** 2, axis=1) <= start_cost)
    assert clipped > 20


def test_fit_does_not_depend_on_which_requests_share_a_round(field_305, fit_curves,
                                                             monkeypatch):
    """Each start refined alone, in forward-model calls of its own, ends at
    the parameters and residuals it reaches in the batch, to the last bit,
    and the fit from the lone refinements is the batched fit."""
    import ddread.analysis as analysis

    batched = analysis._refine
    sizes = []

    def each_alone(starts, residuals, lb, ub):
        def counted(points):
            sizes.append(len(points))
            return residuals(points)

        x, f = batched(starts, residuals, lb, ub)
        alone = [batched(starts[k:k + 1], counted, lb, ub) for k in range(len(starts))]
        x_alone = np.concatenate([a[0] for a in alone])
        f_alone = np.concatenate([a[1] for a in alone])
        assert np.array_equal(x_alone, x) and np.array_equal(f_alone, f)
        return x_alone, f_alone

    for mode, seed in (("exact", 3), ("magnus", 4)):
        curves = noisy_curves(fit_curves[mode], seed)
        shared = fit_hyperfine(curves, field_305, n_grid=8)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_refine", each_alone)
            alone = fit_hyperfine(curves, field_305, n_grid=8)
        assert vars(alone) == vars(shared)
    # a lone start's calls: its point and its two forward-difference points
    assert set(sizes) == {3}


def test_concurrent_fits_equal_their_serial_fits(field_305, fit_curves):
    """Three fits of different curves at once, each in a thread of its own,
    with the interpreter switching threads every 10 us: each equals the same
    fit run on its own afterwards."""
    jobs = [noisy_curves(fit_curves[mode], seed)
            for mode, seed in (("exact", 5), ("magnus", 6), ("exact", 7))]
    fits = [None] * len(jobs)

    def fit(k):
        fits[k] = fit_hyperfine(jobs[k], field_305, n_grid=8)

    threads = [threading.Thread(target=fit, args=(k,), daemon=True)
               for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "no return within 60 s"
    finally:
        sys.setswitchinterval(interval)
    for curves, got in zip(jobs, fits):
        assert vars(got) == vars(fit_hyperfine(curves, field_305, n_grid=8))
