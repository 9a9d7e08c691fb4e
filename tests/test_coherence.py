"""Coherence scans, bath products, dips, locked states, revival period."""

import warnings

import numpy as np
import pytest

from ddread.coherence import (
    CoherenceCurve,
    coherence_bath,
    coherence_single,
    find_dips,
    oscillation_period,
    scan_2d,
    scan_n,
    scan_tau,
)
from ddread.measurement import entanglement_vs_n
from ddread.sequence import CpmgSequence
from ddread.spincore import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineSpin,
    conditional_propagator_exact,
    conditional_propagators,
    effective_frame,
    spin_from_frame_components,
    spin_operator,
)

from conftest import TWO_PI_KHZ, frame_a_par_for


def test_decoupled_spin_full_coherence(field_305):
    spin = HyperfineSpin(np.zeros(3))
    for n, tau in ((1, 100e-9), (12, 248e-9), (7, 613e-9)):
        assert coherence_single(spin, field_305, CpmgSequence(n, tau)) == \
            pytest.approx(1.0, abs=1e-12)


def test_parallel_coupling_refocuses(field_305):
    spin = HyperfineSpin(np.array([0.0, 0.0, 150.0 * TWO_PI_KHZ]))
    for n in (2, 4, 10):
        assert coherence_single(spin, field_305, CpmgSequence(n, 400e-9)) == \
            pytest.approx(1.0, abs=1e-10)


def test_coherence_does_not_depend_on_the_nuclear_state():
    """Re Tr(rho U_plus^dag U_minus) from the propagator matrices equals
    ``coherence_single`` for every nuclear state rho = (1 + r.sigma)/2,
    |r| <= 1: the scalar part of U_plus^dag U_minus is all that survives
    the trace, so no state enters the coherence."""
    rng = np.random.default_rng(2024)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    worst = 0.0
    for _ in range(200):
        field = FieldConfig(rng.uniform(50.0, 1000.0) * 1e-4)
        spin = HyperfineSpin(rng.uniform(-500.0, 500.0, 3) * TWO_PI_KHZ)
        seq = CpmgSequence(int(rng.integers(1, 41)), rng.uniform(50e-9, 900e-9))
        r = rng.normal(size=3)
        r *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)  # in the ball
        rho = (np.eye(2) + np.tensordot(r, paulis, axes=1)) / 2.0
        for mode in ("exact", "magnus"):
            u_plus, u_minus = conditional_propagators(
                spin, field, seq.n_pulses, seq.tau, mode)
            direct = np.real(np.trace(rho @ u_plus.conj().T @ u_minus))
            worst = max(worst, abs(direct - coherence_single(spin, field, seq, mode)))
    assert worst <= 1e-14


def test_cosine_oscillation_at_resonance(field_305, scan_spin,
                                         scan_spin_resonant_tau):
    """L(N) ~ cos(a_perp N / omega): zero crossing near N = 8, revival near 16."""
    frame = effective_frame(scan_spin, field_305)
    curve = scan_n([scan_spin], field_305, scan_spin_resonant_tau, 20,
                   propagator_mode="magnus")
    ratio = frame.a_perp / frame.omega
    assert np.allclose(curve.values, np.cos(ratio * curve.abscissa), atol=1e-9)
    assert abs(curve.values[3]) < 0.1          # N = 4 near the zero crossing
    assert curve.values[7] < -0.95             # N = 8 near the dip minimum
    assert curve.values[15] > 0.95             # N = 16 near full revival
    # first dip is deep by N = 8 on the exact curve as well
    exact = scan_n([scan_spin], field_305, scan_spin_resonant_tau, 10)
    assert exact.values.min() <= -0.9


def test_bath_product_law(field_305, bath_305):
    seq = CpmgSequence(6, 350e-9)
    product = 1.0
    for spin in bath_305:
        product *= coherence_single(spin, field_305, seq)
    assert coherence_bath(bath_305, field_305, seq) == pytest.approx(
        product, abs=1e-12
    )
    assert coherence_bath([], field_305, seq) == 1.0
    assert coherence_bath(bath_305[:1], field_305, seq) == pytest.approx(
        coherence_single(bath_305[0], field_305, seq), abs=1e-12
    )


def test_bath_plateau_with_protected_point(field_305, bath_305):
    curve = scan_tau(bath_305, field_305, 12, (150e-9, 650e-9), 2e-9)
    # protected working point from the reference bath
    idx = int(np.argmin(np.abs(curve.abscissa - 200e-9)))
    assert curve.values[idx] > 0.9
    # plateau with isolated dips: about half the points high, some deep
    assert np.mean(curve.values > 0.8) > 0.45
    assert curve.values.min() < 0.2


def test_hahn_echo_hides_dips(field_305, bath_305):
    n1 = scan_tau(bath_305, field_305, 1, (150e-9, 650e-9), 2e-9)
    n12 = scan_tau(bath_305, field_305, 12, (150e-9, 650e-9), 2e-9)
    assert len(find_dips(n1)) == 0
    assert len(find_dips(n12)) >= 1


def test_scan_2d_dips_deepen_with_n(field_305, scan_spin):
    cmap = scan_2d([scan_spin], field_305, (400e-9, 560e-9), 2e-9,
                   [2, 4, 8])
    mins = cmap.values.min(axis=0)
    assert mins[0] > mins[1] > mins[2]


def test_scans_match_per_cell_bath_coherence(field_305, bath_305):
    tau = 456e-9
    n_list = [1, 2, 5, 12, 33]
    for mode in ("exact", "magnus"):
        curve = scan_n(bath_305, field_305, tau, 40, propagator_mode=mode)
        ref = [coherence_bath(bath_305, field_305, CpmgSequence(int(n), tau), mode)
               for n in curve.abscissa]
        assert np.max(np.abs(curve.values - ref)) < 1e-12
        cmap = scan_2d(bath_305, field_305, (300e-9, 500e-9), 10e-9, n_list,
                       propagator_mode=mode)
        ref = [[coherence_bath(bath_305, field_305, CpmgSequence(n, t), mode)
                for n in n_list] for t in cmap.tau_grid]
        assert np.max(np.abs(cmap.values - np.array(ref))) < 1e-12


def test_find_dips_on_synthetic_cosine():
    x = np.linspace(0.0, 2.0, 101)
    y = 1.0 - 0.8 * np.exp(-((x - 0.9371) / 0.15) ** 2)
    dips = find_dips(CoherenceCurve(axis="tau", abscissa=x, values=y))
    assert len(dips) == 1
    assert dips[0][0] == pytest.approx(0.9371, abs=0.01)
    flat = find_dips(CoherenceCurve(axis="tau", abscissa=x,
                                    values=np.linspace(1, 0.99, 101)))
    assert flat == []


def test_dip_near_456ns(field_305, dip_456_spin):
    curve = scan_tau([dip_456_spin], field_305, 12, (350e-9, 550e-9), 1e-9)
    dips = find_dips(curve)
    assert dips
    deepest = min(dips, key=lambda d: d[1])
    assert deepest[0] == pytest.approx(456e-9, abs=10e-9)


def locked_states(spin, fieldcfg, seq, consts=DEFAULT_CONSTANTS):
    """Eigenstates of the exact even-N propagator and the per-pulse phase.

    Returns (state_up, state_down, phase, info): the eigenvectors of U_plus
    ordered by their overlap with the +1/2 and -1/2 eigenstates of I_perp, the
    extracted conditional phase per pulse period (the angle phi in the
    branch eigenvalues exp(-/+ i N phi)), and a dict with the eigenbasis
    overlap and a degeneracy flag.
    """
    if seq.n_pulses % 2 != 0:
        raise ValueError("locked states are defined for even pulse numbers only")
    frame = effective_frame(spin, fieldcfg, consts)
    u_plus = conditional_propagator_exact(spin, fieldcfg, seq, "plus", consts)
    eigvals, eigvecs = np.linalg.eig(u_plus)
    if not frame.transverse:
        # a_perp = 0: U_plus is a rotation about n_par; the I_perp basis is
        # not singled out and the conditional phase vanishes.
        return eigvecs[:, 0], eigvecs[:, 1], 0.0, {
            "overlap": 0.0, "degenerate": True,
        }
    _, perp_vecs = np.linalg.eigh(spin_operator(frame.n_perp))
    # eigh sorts ascending: column 0 is the -1/2 ("down") state
    down_ref, up_ref = perp_vecs[:, 0], perp_vecs[:, 1]
    ov_up = np.abs(eigvecs.conj().T @ up_ref)
    i_up = int(np.argmax(ov_up))
    i_down = 1 - i_up
    overlap = float(min(ov_up[i_up], np.abs(eigvecs[:, i_down].conj() @ down_ref)))
    rel = np.angle(eigvals[i_down] / eigvals[i_up]) / 2.0
    phase = abs(rel) / seq.n_pulses
    return eigvecs[:, i_up], eigvecs[:, i_down], float(phase), {
        "overlap": overlap, "degenerate": False,
    }


def test_locked_states_weak_coupling(field_305):
    omega = 500.0 * TWO_PI_KHZ
    a_perp = 0.05 * omega
    spin = spin_from_frame_components(
        frame_a_par_for(omega, a_perp, field_305), a_perp, field_305
    )
    frame = effective_frame(spin, field_305)
    seq = CpmgSequence(4, np.pi / (2.0 * frame.omega))
    up, down, phase, info = locked_states(spin, field_305, seq)
    assert info["overlap"] >= 0.999
    assert not info["degenerate"]
    # conditional phase per pulse period: a_perp/(2 omega) at resonance;
    # the exact dip sits slightly off the first-order resonance tau, so the
    # agreement at tau = pi/(2 omega) is a few percent, not quadratic
    assert phase == pytest.approx(frame.a_perp / (2.0 * frame.omega), rel=0.05)


def test_locked_states_degenerate_and_odd(field_305):
    spin = HyperfineSpin(np.zeros(3))
    _, _, phase, info = locked_states(spin, field_305, CpmgSequence(4, 300e-9))
    assert info["degenerate"]
    assert phase == 0.0
    with pytest.raises(ValueError):
        locked_states(spin, field_305, CpmgSequence(3, 300e-9))


def test_revival_period_formula(field_305):
    """N-sweep revival period = 2 pi omega / a_perp within one pulse unit."""
    for ratio in (0.2, 0.35, 0.5):
        omega = 600.0 * TWO_PI_KHZ
        a_perp = ratio * omega
        spin = spin_from_frame_components(
            frame_a_par_for(omega, a_perp, field_305), a_perp, field_305
        )
        frame = effective_frame(spin, field_305)
        tau = np.pi / (2.0 * frame.omega)
        n_max = int(np.ceil(3.0 * 2.0 * np.pi / ratio))
        curve = scan_n([spin], field_305, tau, n_max, propagator_mode="magnus")
        period = oscillation_period(curve)
        assert abs(period - 2.0 * np.pi / ratio) < 1.0


def test_period_fit_of_exact_cosine_is_quiet(field_305):
    """The ratio-0.5 magnus N-sweep above equals cos(N a_perp / omega) to
    rounding; fitting it must not warn about the unused covariance."""
    omega = 600.0 * TWO_PI_KHZ
    a_perp = 0.5 * omega
    spin = spin_from_frame_components(
        frame_a_par_for(omega, a_perp, field_305), a_perp, field_305
    )
    tau = np.pi / (2.0 * effective_frame(spin, field_305).omega)
    curve = scan_n([spin], field_305, tau, 38, propagator_mode="magnus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        period = oscillation_period(curve)
    assert period == pytest.approx(4.0 * np.pi, abs=1e-6)


def test_curve_invariants_and_errors(field_305, scan_spin):
    with pytest.raises(ValueError):
        scan_tau([scan_spin], field_305, 4, (500e-9, 100e-9), 5e-9)
    with pytest.raises(ValueError):
        scan_n([scan_spin], field_305, 300e-9, 0)
    with pytest.raises(ValueError):
        CoherenceCurve(axis="tau", abscissa=np.array([1.0]),
                       values=np.array([1.5]))
    with pytest.raises(ValueError):
        CoherenceCurve(axis="bogus", abscissa=np.array([1.0]),
                       values=np.array([0.5]))
    for n in (2.5, 0.0, np.nan, 2.0**63):  # the fit reads N as int64
        with pytest.raises(ValueError, match="pulse numbers"):
            CoherenceCurve(axis="n", abscissa=np.array([1.0, n]),
                           values=np.array([0.5, 0.5]), tau=300e-9)


# each entry point of a pulse number, called on (spin, field, N, mode)
_N_ENTRIES = {
    "scan_n": lambda s, f, n, m: scan_n([s], f, 300e-9, n, m),
    "entanglement_vs_n": lambda s, f, n, m: entanglement_vs_n(s, f, 300e-9, n, m),
    "scan_2d": lambda s, f, n, m: scan_2d([s], f, (300e-9, 310e-9), 5e-9, n, m),
    "conditional_propagators":
        lambda s, f, n, m: conditional_propagators(s, f, n, 300e-9, m),
}


@pytest.mark.parametrize("mode", ["exact", "magnus"])
@pytest.mark.parametrize("entry, n", [
    ("scan_n", 2.5), ("entanglement_vs_n", 0), ("entanglement_vs_n", 2.5),
    ("scan_2d", [2.5, 3]), ("conditional_propagators", 2.5),
    ("scan_2d", [True, 2]), ("conditional_propagators", True),
    ("conditional_propagators", np.array([True, True])),
], ids=str)
def test_pulse_numbers_must_be_whole_and_positive(field_305, scan_spin, mode,
                                                  entry, n):
    """N = 0, 2.5 or a bool is refused wherever it enters, not scanned as
    nothing, as N = 2 (``n_max = 2.5`` scanned N = 1, 2, 3) or as N = 1
    (``True`` ran CPMG-1); ``scan_n`` with ``n_max = 0`` is in
    ``test_curve_invariants_and_errors``."""
    with pytest.raises(ValueError):
        _N_ENTRIES[entry](scan_spin, field_305, n, mode)


def test_curve_rejects_unknown_propagator_mode():
    with pytest.raises(ValueError, match="propagator_mode"):
        CoherenceCurve(axis="tau", abscissa=np.array([1.0]),
                       values=np.array([0.5]), n_pulses=4,
                       propagator_mode="magnsu")
