"""Effective frames, filter functions, and conditional propagators.

Oracles: a literal term-by-term filter summation, and an expm-based
interval-product propagator, both written against the definitions rather than
the library code paths.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from ddread.sequence import CpmgSequence
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    DegenerateFrameError,
    FieldConfig,
    HyperfineSpin,
    conditional_propagator_exact,
    conditional_propagator_magnus,
    conditional_propagators,
    cpmg_cayley_klein,
    effective_frame,
    filter_function,
    spin_from_axial_components,
    spin_from_frame_components,
    spin_operator,
)

from conftest import TWO_PI_KHZ, frame_a_par_for, is_unitary


def oracle_filter(omega, seq):
    edges = seq.boundary_times()
    total = 0.0 + 0.0j
    for p in range(seq.n_pulses + 1):
        total += (-1.0) ** p * (
            np.exp(-1.0j * omega * edges[p + 1]) - np.exp(-1.0j * omega * edges[p])
        )
    return abs(total)


def oracle_propagator(spin, fieldcfg, seq, branch, consts=DEFAULT_CONSTANTS):
    """Interval-by-interval expm product for one electron branch."""
    b_vec = np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
    h_minus = spin_operator(b_vec)
    h_plus = spin_operator(spin.a_vec + b_vec)
    order = [h_plus, h_minus] if branch == "plus" else [h_minus, h_plus]
    edges = seq.boundary_times()
    u = np.eye(2, dtype=complex)
    for k in range(len(edges) - 1):
        dt = edges[k + 1] - edges[k]
        u = expm(-1.0j * order[k % 2] * dt) @ u
    return u


def oracle_product(spin, fieldcfg, n_pulses, taus, consts=DEFAULT_CONSTANTS):
    """(U_plus, U_minus) as the product of the N + 1 interval rotations
    tau, 2 tau, ..., 2 tau, tau, each built in closed form, for one N and an
    array of taus."""
    taus = np.asarray(taus, dtype=float)
    b_vec = np.array([0.0, 0.0, consts.gamma_n * fieldcfg.b_magnitude])
    h_plus = spin.a_vec + b_vec
    h_minus = b_vec

    def rotors(h_vec, durations):
        mag = np.linalg.norm(h_vec)
        if mag == 0:
            out = np.zeros((len(durations), 2, 2), dtype=complex)
            out[:] = np.eye(2)
            return out
        sigma = 2.0 * spin_operator(h_vec / mag)
        half = mag * durations / 2.0
        return (np.cos(half)[:, None, None] * np.eye(2)
                - 1.0j * np.sin(half)[:, None, None] * sigma)

    u_plus = u_minus = np.eye(2, dtype=complex)
    for p in range(n_pulses + 1):
        dur = taus if p in (0, n_pulses) else 2.0 * taus
        r_plus = rotors(h_plus, dur)
        r_minus = rotors(h_minus, dur)
        # branch 'plus' sees h_plus on even intervals
        u_plus = (r_plus if p % 2 == 0 else r_minus) @ u_plus
        u_minus = (r_minus if p % 2 == 0 else r_plus) @ u_minus
    return u_plus, u_minus


# ---------------------------------------------------------------- frames


def test_zero_coupling_frame(field_305):
    frame = effective_frame(HyperfineSpin(np.zeros(3)), field_305)
    assert frame.omega == pytest.approx(6.73e7 * 0.0305)  # 2.0527e6 rad/s
    assert frame.a_perp == pytest.approx(0.0, abs=1e-9)
    assert not frame.transverse


def test_collinear_coupling_frame(field_305):
    a = 120.0 * TWO_PI_KHZ
    frame = effective_frame(HyperfineSpin(np.array([0.0, 0.0, a])), field_305)
    assert frame.omega == pytest.approx(6.73e7 * 0.0305 + a / 2.0)
    assert frame.a_perp == pytest.approx(0.0, abs=1e-6)
    assert frame.a_par == pytest.approx(a)


def test_frame_invariants_random(field_305):
    rng = np.random.default_rng(11)
    consts = DEFAULT_CONSTANTS
    for _ in range(200):
        a_vec = rng.normal(scale=300.0 * TWO_PI_KHZ, size=3)
        spin = HyperfineSpin(a_vec)
        frame = effective_frame(spin, field_305)
        assert np.linalg.norm(frame.n_par) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(frame.n_perp) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(frame.n_par, frame.n_perp)) < 1e-12
        target = a_vec / 2.0 + np.array(
            [0.0, 0.0, consts.gamma_n * field_305.b_magnitude]
        )
        assert np.allclose(frame.omega * frame.n_par, target,
                           rtol=1e-9, atol=1e-3)
        assert frame.a_par**2 + frame.a_perp**2 == pytest.approx(
            np.dot(a_vec, a_vec), rel=1e-9
        )


def test_paper_spin_omega(scan_spin, field_305):
    frame = effective_frame(scan_spin, field_305)
    assert frame.omega / TWO_PI_KHZ == pytest.approx(517.0, rel=1e-9)
    assert frame.a_perp / TWO_PI_KHZ == pytest.approx(200.0, rel=1e-9)
    # cross-check omega against |A/2 + gamma_n B| directly
    b_vec = np.array([0.0, 0.0, 6.73e7 * field_305.b_magnitude])
    assert np.linalg.norm(scan_spin.a_vec / 2.0 + b_vec) == pytest.approx(
        frame.omega, rel=1e-12
    )


def test_axial_constructor_matches_request(field_305):
    """The axial component of A is linear in the frame a_par, so the
    requested a_z and a_perp come back to rounding (the conftest bath, the
    456 ns dip spin and a negative a_z); an a_perp of 2 gamma_n B or more
    realises no frame and is refused."""
    specs = [(330.0, 200.0), (240.0, 130.0), (160.0, 80.0), (90.0, 45.0),
             (384.7586910143187, 200.0), (-200.0, 50.0)]
    for a_z, a_perp in specs:
        spin = spin_from_axial_components(a_z * TWO_PI_KHZ, a_perp * TWO_PI_KHZ,
                                          field_305)
        assert spin.a_vec[2] == pytest.approx(a_z * TWO_PI_KHZ, rel=1e-14)
        assert effective_frame(spin, field_305).a_perp == pytest.approx(
            a_perp * TWO_PI_KHZ, rel=1e-12)
    # quoted paper values: A_z = 330 kHz together with A_perp = 200 kHz
    # give omega close to 517 kHz at 305 G
    spin = spin_from_axial_components(330.0 * TWO_PI_KHZ, 200.0 * TWO_PI_KHZ,
                                      field_305)
    assert effective_frame(spin, field_305).omega / TWO_PI_KHZ == pytest.approx(
        517.0, abs=1.0)
    b = DEFAULT_CONSTANTS.gamma_n * field_305.b_magnitude
    for a_perp in (2.0 * b, 3.0 * b):
        with pytest.raises(ValueError, match="a_perp"):
            spin_from_axial_components(0.0, a_perp, field_305)
    with pytest.raises(ValueError, match="a_perp"):
        spin_from_axial_components(0.0, 0.0, FieldConfig(0.0))


def test_degenerate_frame_raises():
    # A/2 exactly cancels gamma_n B
    b = FieldConfig(1e-4)
    cancel = -2.0 * 6.73e7 * 1e-4
    with pytest.raises(DegenerateFrameError):
        effective_frame(HyperfineSpin(np.array([0.0, 0.0, cancel])), b)


# ---------------------------------------------------------------- filter


def test_filter_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        tau = float(rng.uniform(10e-9, 2e-6))
        omega = float(rng.uniform(1e4, 5e7))
        seq = CpmgSequence(n, tau)
        assert filter_function(omega, seq) == pytest.approx(
            oracle_filter(omega, seq), abs=1e-12
        )


def test_filter_closed_forms():
    for n in (1, 2, 5, 12, 32):
        tau = 248e-9
        omega = np.pi / (2.0 * tau)
        assert filter_function(omega, CpmgSequence(n, tau)) == pytest.approx(
            2.0 * n, abs=1e-9
        )
    rng = np.random.default_rng(6)
    for _ in range(100):
        tau = float(rng.uniform(50e-9, 1e-6))
        omega = float(rng.uniform(1e5, 3e7))
        got = filter_function(omega, CpmgSequence(1, tau))
        assert got == pytest.approx(4.0 * np.sin(omega * tau / 2.0) ** 2,
                                    abs=1e-12)


def test_filter_vanishes_at_zero_frequency():
    assert filter_function(1e-9, CpmgSequence(8, 300e-9)) < 1e-10


# ------------------------------------------------------- exact propagator


def test_exact_propagator_matches_expm_oracle(field_305):
    rng = np.random.default_rng(21)
    for _ in range(30):
        spin = HyperfineSpin(rng.normal(scale=250.0 * TWO_PI_KHZ, size=3))
        seq = CpmgSequence(int(rng.integers(1, 17)),
                           float(rng.uniform(50e-9, 800e-9)))
        for branch in ("plus", "minus"):
            u = conditional_propagator_exact(spin, field_305, seq, branch)
            ref = oracle_propagator(spin, field_305, seq, branch)
            assert np.linalg.norm(u - ref) < 1e-9
            assert is_unitary(u)


def _assert_kernel_matches_product(spin, fieldcfg, taus, n_values):
    taus = np.asarray(taus, dtype=float)
    n_values = np.asarray(n_values)
    got = conditional_propagators(spin, fieldcfg, n_values[None, :],
                                  taus[:, None], "exact")
    for j, n in enumerate(n_values):
        ref = oracle_product(spin, fieldcfg, int(n), taus)
        for u, r in zip(got, ref):
            assert np.max(np.abs(u[:, j] - r)) < 1e-12


def test_exact_kernel_matches_product_form(field_305, scan_spin, bath_305):
    """Closed form in N against the interval-by-interval product, N = 1..64."""
    taus = np.linspace(100e-9, 900e-9, 21)
    for spin in [scan_spin] + list(bath_305):
        _assert_kernel_matches_product(spin, field_305, taus, np.arange(1, 65))


def test_exact_kernel_degenerate_inputs(field_305, scan_spin):
    """Zero field (h_minus = 0), a decoupled spin (A = 0), a_perp = 0 at
    omega tau = pi/2 (cycle -1) and omega tau = pi (cycle +1)."""
    n_values = np.arange(1, 65)
    coupled = effective_frame(scan_spin, field_305)
    axial = spin_from_frame_components(coupled.a_par, 0.0, field_305)
    axial_omega = effective_frame(axial, field_305).omega
    cases = [
        (scan_spin, FieldConfig(0.0), [150e-9, 456e-9]),
        (HyperfineSpin(np.zeros(3)), field_305, [150e-9, 456e-9]),
        (axial, field_305, [np.pi / (2.0 * axial_omega), np.pi / axial_omega]),
        (scan_spin, field_305, [np.pi / coupled.omega]),
    ]
    for spin, fieldcfg, taus in cases:
        _assert_kernel_matches_product(spin, fieldcfg, taus, n_values)


def test_magnus_batch_matches_single_calls(field_305, scan_spin):
    frame = effective_frame(scan_spin, field_305)
    taus = np.linspace(100e-9, 900e-9, 9)
    n_values = np.arange(1, 34)
    got = conditional_propagators(scan_spin, field_305, n_values[None, :],
                                  taus[:, None], "magnus")
    for i, tau in enumerate(taus):
        for j, n in enumerate(n_values):
            seq = CpmgSequence(int(n), float(tau))
            for u, branch in zip(got, ("plus", "minus")):
                ref = conditional_propagator_magnus(frame, seq, branch)
                assert np.max(np.abs(u[i, j] - ref)) < 1e-13


def test_kernel_rejects_bad_mode_and_pulse_number(field_305, scan_spin):
    with pytest.raises(ValueError):
        conditional_propagators(scan_spin, field_305, 4, 300e-9, "approximate")
    for mode in ("exact", "magnus"):
        for n in (np.array([2, 0]), np.array([2, 2.5]), np.inf, np.nan):
            with pytest.raises(ValueError, match="pulse numbers"):
                conditional_propagators(scan_spin, field_305, n, 300e-9, mode)


@pytest.mark.parametrize("row, message", [
    ([1e200, 0.0, 0.0], "beyond float's range"),
    ([1e154, 1e154, 1e154], "beyond float's range"),
])
def test_a_stack_is_checked_as_a_spin_is(field_305, scan_spin, row, message):
    """A (P, 3) stack row that ``HyperfineSpin`` refuses is refused by the
    frame and the kernel too, not turned into NaN coherence; rows whose
    squares are each finite pass, though their sum over the stack is not."""
    big = [1e154, 0.0, 0.0]
    np.testing.assert_array_equal(
        effective_frame(np.array([big, big]), field_305).a_par,
        effective_frame(HyperfineSpin(big), field_305).a_par)
    with pytest.raises(ValueError, match=message):
        HyperfineSpin(np.array(row))
    stack = np.array([scan_spin.a_vec, row])
    with pytest.raises(ValueError, match=message):
        effective_frame(stack, field_305)
    for mode in ("exact", "magnus"):
        with pytest.raises(ValueError, match=message):
            cpmg_cayley_klein(stack, field_305, 4, 300e-9, mode)


def test_decoupled_spin_pure_precession(field_305):
    spin = HyperfineSpin(np.zeros(3))
    seq = CpmgSequence(6, 300e-9)
    u_plus = conditional_propagator_exact(spin, field_305, seq, "plus")
    u_minus = conditional_propagator_exact(spin, field_305, seq, "minus")
    b_vec = np.array([0.0, 0.0, 6.73e7 * field_305.b_magnitude])
    ref = expm(-1.0j * spin_operator(b_vec) * seq.total_time())
    assert np.linalg.norm(u_plus - u_minus) < 1e-12
    assert np.linalg.norm(u_plus - ref) < 1e-9


def test_refocusing_when_coupling_parallel(field_305):
    a = 140.0 * TWO_PI_KHZ
    spin = HyperfineSpin(np.array([0.0, 0.0, a]))
    for n in (2, 4, 12):
        seq = CpmgSequence(n, 333e-9)
        u_plus = conditional_propagator_exact(spin, field_305, seq, "plus")
        u_minus = conditional_propagator_exact(spin, field_305, seq, "minus")
        assert np.linalg.norm(u_plus - u_minus) < 1e-10


def test_locked_eigenvectors_weak_coupling(field_305):
    omega = 500.0 * TWO_PI_KHZ
    a_perp = 0.05 * omega
    spin = spin_from_frame_components(
        frame_a_par_for(omega, a_perp, field_305), a_perp, field_305
    )
    frame = effective_frame(spin, field_305)
    seq = CpmgSequence(4, np.pi / (2.0 * frame.omega))
    u_plus = conditional_propagator_exact(spin, field_305, seq, "plus")
    _, vecs = np.linalg.eig(u_plus)
    _, perp_vecs = np.linalg.eigh(spin_operator(frame.n_perp))
    overlaps = np.abs(vecs.conj().T @ perp_vecs)
    best = max(min(overlaps[0, 0], overlaps[1, 1]),
               min(overlaps[0, 1], overlaps[1, 0]))
    assert best >= 1.0 - 1e-2


# ------------------------------------------------------ magnus propagator


def test_magnus_off_resonance_is_pure_precession(field_305, scan_spin):
    frame = effective_frame(scan_spin, field_305)
    tau = np.pi / frame.omega  # omega tau = pi: filter vanishes for even N
    seq = CpmgSequence(4, tau)
    assert filter_function(frame.omega, seq) < 1e-9
    u_plus = conditional_propagator_magnus(frame, seq, "plus")
    u_minus = conditional_propagator_magnus(frame, seq, "minus")
    ref = expm(-1.0j * frame.omega * spin_operator(frame.n_par)
               * seq.total_time())
    assert np.linalg.norm(u_plus - u_minus) < 1e-9
    assert np.linalg.norm(u_plus - ref) < 1e-9


def test_magnus_resonant_coherence_formula(field_305, scan_spin,
                                           scan_spin_resonant_tau):
    frame = effective_frame(scan_spin, field_305)
    ratio = frame.a_perp / frame.omega
    for n in (2, 4, 8, 12, 16):
        seq = CpmgSequence(n, scan_spin_resonant_tau)
        u_plus = conditional_propagator_magnus(frame, seq, "plus")
        u_minus = conditional_propagator_magnus(frame, seq, "minus")
        coherence = 0.5 * np.real(np.trace(u_plus.conj().T @ u_minus))
        assert coherence == pytest.approx(np.cos(n * ratio), abs=1e-9)


def test_magnus_quadratic_convergence(field_305):
    """Halving the hyperfine vector shrinks the worst-case Magnus error ~4x.

    The maximum is taken over an ensemble of weakly coupled spins
    (a_perp/omega <= 0.1); per-spin ratios fluctuate because the worst tau
    moves between scales, but the ensemble maximum scales quadratically.
    """
    rng = np.random.default_rng(33)
    spins = []
    for _ in range(100):
        a_par = float(rng.uniform(-200.0, 200.0)) * TWO_PI_KHZ
        probe = spin_from_frame_components(a_par, 0.0, field_305)
        omega = effective_frame(probe, field_305).omega
        a_perp = float(rng.uniform(0.02, 0.1)) * omega
        spin = spin_from_frame_components(a_par, a_perp, field_305)
        n = int(rng.integers(1, 33))
        tau = float(rng.uniform(100e-9, 900e-9))
        spins.append((spin, CpmgSequence(n, tau)))
    errs = []
    for factor in (1.0, 0.5):
        worst = 0.0
        for spin, seq in spins:
            scaled = HyperfineSpin(spin.a_vec * factor)
            frame = effective_frame(scaled, field_305)
            for branch in ("plus", "minus"):
                d = np.linalg.norm(
                    conditional_propagator_exact(scaled, field_305, seq, branch)
                    - conditional_propagator_magnus(frame, seq, branch)
                )
                worst = max(worst, d)
        errs.append(worst)
    assert errs[0] / errs[1] >= 3.5


def oracle_magnus_block(frame, edges, branch):
    """First-order average over one toggling block, built with expm.

    W exp(-i s M): exact precession over the block, then the conditional
    rotation M = (a_perp/2)(Re g I_perp - Im g I_cross) with the filter phase
    g = int s(t) exp(i omega t) dt of the block's own toggling pattern.
    """
    s = 1.0 if branch == "plus" else -1.0
    phases = np.exp(1.0j * frame.omega * np.asarray(edges))
    signs = (-1.0) ** np.arange(len(edges) - 1)
    g = np.sum(signs * (phases[1:] - phases[:-1])) / (1.0j * frame.omega)
    m = frame.a_perp / 2.0 * (np.real(g) * spin_operator(frame.n_perp)
                              - np.imag(g) * spin_operator(frame.n_cross))
    w = expm(-1.0j * frame.omega * edges[-1] * spin_operator(frame.n_par))
    return w @ expm(-1.0j * s * m)


def _cycle_product(frame, n, tau, branch):
    """CPMG-N as N // 2 repeated one-cycle products, then one half-cycle."""
    cycle = oracle_magnus_block(frame, (0.0, tau, 3.0 * tau, 4.0 * tau),
                                branch)
    u = np.eye(2, dtype=complex)
    for _ in range(n // 2):
        u = cycle @ u
    if n % 2:
        u = oracle_magnus_block(frame, (0.0, tau, 2.0 * tau), branch) @ u
    return cycle, u


def test_magnus_cycle_power_matches_repeated_products(field_305, scan_spin):
    frame = effective_frame(scan_spin, field_305)
    rng = np.random.default_rng(55)
    for tau in rng.uniform(100e-9, 900e-9, size=8):
        for n in (1, 2, 7, 12, 31, 32):
            for branch in ("plus", "minus"):
                _, ref = _cycle_product(frame, n, float(tau), branch)
                u = conditional_propagator_magnus(
                    frame, CpmgSequence(n, float(tau)), branch)
                assert np.max(np.abs(u - ref)) < 1e-12


def test_magnus_cycle_power_degenerate_axis(field_305, scan_spin):
    """Cycles equal to +/-1 have no rotation axis; the power must still hold.

    a_perp = 0 at omega tau = pi/2 gives the cycle -1; omega tau = pi gives +1
    for any coupling (zero cycle filter, a full precession turn).
    """
    coupled = effective_frame(scan_spin, field_305)
    axial = effective_frame(
        spin_from_frame_components(coupled.a_par, 0.0, field_305), field_305)
    assert not axial.transverse
    for frame, omega_tau, sign in ((axial, np.pi / 2.0, -1.0),
                                   (axial, np.pi, 1.0),
                                   (coupled, np.pi, 1.0)):
        tau = omega_tau / frame.omega
        for n in (1, 2, 3, 16, 17, 32):
            for branch in ("plus", "minus"):
                cycle, ref = _cycle_product(frame, n, tau, branch)
                assert np.max(np.abs(cycle - sign * np.eye(2))) < 1e-12
                u = conditional_propagator_magnus(frame, CpmgSequence(n, tau),
                                                  branch)
                assert np.max(np.abs(u - ref)) < 1e-12


def test_propagator_unitarity_both_modes(field_305):
    rng = np.random.default_rng(44)
    for _ in range(50):
        spin = HyperfineSpin(rng.normal(scale=200.0 * TWO_PI_KHZ, size=3))
        frame = effective_frame(spin, field_305)
        seq = CpmgSequence(int(rng.integers(1, 33)),
                           float(rng.uniform(50e-9, 1e-6)))
        for branch in ("plus", "minus"):
            assert is_unitary(
                conditional_propagator_exact(spin, field_305, seq, branch)
            )
            assert is_unitary(conditional_propagator_magnus(frame, seq, branch))
