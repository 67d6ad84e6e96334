import numpy as np
import pytest

from bec_cavity import (
    ConvergenceError,
    SystemParams,
    integrate,
    make_grid,
    potential_profile,
    solve_ground_state,
    steady_alpha,
)
from bec_cavity import meanfield
from bec_cavity.grid import mirror_points, sector_basis
from conftest import dense_kinetic, wavenumbers


def params(**overrides):
    base = dict(
        delta_c=-1000.0, kappa=100.0, eta=1000.0, u0=-0.5,
        n_atoms=1000, grid_points=64,
    )
    base.update(overrides)
    return SystemParams(**base)


def test_steady_alpha_decoupled_amplitude():
    p = params(u0=0.0)
    alpha = steady_alpha(p, 0.0)
    expected = p.eta**2 / (p.delta_c**2 + p.kappa**2)
    assert abs(alpha) ** 2 == pytest.approx(expected, rel=1e-14)
    assert abs(alpha) ** 2 == pytest.approx(0.990099009900990, rel=1e-12)


def test_steady_alpha_undriven_cavity_is_empty():
    assert steady_alpha(params(eta=0.0), -0.3) == 0.0


def test_steady_alpha_on_resonance():
    p = params()
    u_avg = p.delta_c / p.n_atoms  # N<U> = delta_c
    assert abs(steady_alpha(p, u_avg)) ** 2 == pytest.approx(
        p.eta**2 / p.kappa**2, rel=1e-14
    )
    assert abs(steady_alpha(p, u_avg)) ** 2 == pytest.approx(100.0, rel=1e-14)


def test_uniform_ground_state_without_coupling():
    p = params(u0=0.0)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert st.converged
    assert np.abs(st.phi.real - 1.0 / np.sqrt(np.pi)).max() < 1e-12
    assert st.u_avg == 0.0
    assert abs(st.mu) < 1e-10
    assert abs(abs(st.alpha) ** 2 - p.eta**2 / (p.delta_c**2 + p.kappa**2)) < 1e-10
    assert not st.heating


def test_frozen_lattice_matches_dense_diagonalization():
    # a deep lattice one atom barely shifts: self-consistent |alpha|^2 u0 = -10.07
    p = params(u0=-10.0, n_atoms=1)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    h = dense_kinetic(g) + np.diag(abs(st.alpha) ** 2 * potential_profile(g, p.u0))
    evals, evecs = np.linalg.eigh(h)
    phi_ref = evecs[:, 0] / np.sqrt(g.dx)
    if phi_ref[int(np.argmin(potential_profile(g, p.u0)))] < 0:
        phi_ref = -phi_ref
    assert abs(st.mu - evals[0]) < 1e-10
    assert np.abs(st.phi.real - phi_ref).max() < 1e-10


def test_self_consistent_state_is_the_dense_ground_state():
    # production grid; a polish that stops on |d alpha| < 1e-14 |alpha| stalls here
    p = params(u0=-0.5, grid_points=200)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert abs(st.alpha - steady_alpha(p, st.u_avg)) <= 1e-12 * abs(st.alpha)
    h = dense_kinetic(g) + np.diag(abs(st.alpha) ** 2 * potential_profile(g, p.u0))
    evals, evecs = np.linalg.eigh(h)
    phi_ref = evecs[:, 0] / np.sqrt(g.dx)
    if phi_ref[int(np.argmin(potential_profile(g, p.u0)))] < 0:
        phi_ref = -phi_ref
    assert np.abs(st.phi.real - phi_ref).max() <= 1e-10
    assert abs(st.mu - evals[0]) <= 1e-10 * max(1.0, abs(evals[0]))


def test_energy_never_increases_with_frozen_cavity():
    # the reference loop; the package's loop is pinned to it step for step
    # by test_even_half_grid_loop_matches_the_full_grid_loop
    p = params(u0=-5.0)
    g = make_grid(p.grid_points)
    *_, energy = _full_grid_itp(p, g, frozen_alpha=1.0)
    assert (np.diff(energy) <= 1e-9).all()


def test_gauge_real_and_nonnegative_at_minimum():
    p = params()
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert np.abs(st.phi.imag).max() == 0.0
    u = potential_profile(g, p.u0)
    assert st.phi.real[int(np.argmin(u))] >= 0.0
    assert st.phi.real.min() > -1e-12  # nodeless ground state


def test_normalization_and_self_consistency():
    p = params()
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert abs(integrate(g, np.abs(st.phi) ** 2) - 1.0) < 1e-12
    assert abs(st.alpha - steady_alpha(p, st.u_avg)) < 1e-10
    assert st.residual_phi < 1e-9


@pytest.mark.parametrize("u0", [-0.1, -0.3, -0.7])
def test_light_shift_fraction_between_half_and_one(u0):
    p = params(u0=u0)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    fraction = st.u_avg / p.u0
    assert 0.5 <= fraction <= 1.0


def test_localization_close_to_resonance():
    # near N<U> = delta_c the condensate sits deep in the lattice wells
    p = params(u0=-1.0)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert st.u_avg / p.u0 > 0.8
    assert st.phi.real.max() > 2.0 / np.sqrt(np.pi)
    # the pulled resonance is still ahead: N<U> has not yet crossed delta_c
    assert p.n_atoms * st.u_avg > p.delta_c


def test_heating_regime_is_tagged():
    p = params(delta_c=1000.0, u0=0.0)
    g = make_grid(p.grid_points)
    st = solve_ground_state(p, g)
    assert st.heating


def test_nonconvergence_raises_with_residuals(monkeypatch):
    monkeypatch.setattr(meanfield, "MAX_ITERS", 3)
    p = params()
    g = make_grid(p.grid_points)
    with pytest.raises(ConvergenceError) as err:
        solve_ground_state(p, g)
    assert err.value.residual_phi > 0.0


def _full_grid_itp(p, g, *, itp_dt=meanfield.ITP_DT, tol_phi=1e-9, tol_alpha=1e-10, mixing=0.3,
                   max_iters=1_000_000, frozen_alpha=None):
    """Reference: the imaginary-time loop on all n grid points, with an
    fft/ifft pair for the kinetic step.  Returns (iterations, phi, alpha,
    u_avg, energies) or raises ConvergenceError."""
    n, dx = g.n, g.dx
    u_pot = potential_profile(g, p.u0)
    q2 = wavenumbers(g) ** 2
    kin_phase = np.exp(-itp_dt * q2)
    phi = np.full(n, 1.0 / np.sqrt(np.pi))
    u_avg = float((u_pot * phi**2).sum() * dx)
    alpha = frozen_alpha if frozen_alpha is not None else steady_alpha(p, u_avg)
    energies = []
    for iterations in range(1, max_iters + 1):
        half = np.exp(-0.5 * itp_dt * np.abs(alpha) ** 2 * u_pot)
        phi_new = np.fft.ifft(kin_phase * np.fft.fft(half * phi)).real
        phi_new *= half
        phi_new /= np.sqrt((phi_new**2).sum() * dx)
        u_new = float((u_pot * phi_new**2).sum() * dx)
        if frozen_alpha is not None:
            alpha_new = alpha
        else:
            alpha_new = (1.0 - mixing) * alpha + mixing * steady_alpha(p, u_new)
        d_phi = float(np.abs(phi_new - phi).max())
        d_alpha = abs(alpha_new - alpha)
        phi, alpha, u_avg = phi_new, alpha_new, u_new
        e_kin = float((q2 * np.abs(np.fft.fft(phi)) ** 2).sum() * dx / n)
        energies.append(e_kin + float((np.abs(alpha) ** 2 * u_pot * phi**2).sum() * dx))
        if d_phi < tol_phi * itp_dt and d_alpha < tol_alpha:
            return iterations, phi, alpha, u_avg, np.array(energies)
    raise ConvergenceError("reference did not converge", d_phi, float(d_alpha))


# the step count is a threshold crossing, so equal counts hold to roundoff
# only: at delta_c = -10000, u0 = -0.12 the reference took 4340, 4339 and
# 4340 steps at n = 16, 64 and 200 with a step of 1e-3; at 4e-3 it took 1086
# and at ITP_DT = 1e-2 it takes 435 at all three.  n_atoms None keeps the
# 1000 atoms of params(); one atom gives a deep lattice, |alpha|^2 u0 = -10.07
@pytest.mark.parametrize(
    "n, delta_c, u0, n_atoms",
    [(n, dc, u0, None) for n in (16, 64, 200) for dc in (-100.0, -1000.0, -10000.0)
     for u0 in (-0.05, -1.03)]
    + [(64, -1000.0, -10.0, 1)],
)
def test_even_half_grid_loop_matches_the_full_grid_loop(n, delta_c, u0, n_atoms):
    atoms = {} if n_atoms is None else {"n_atoms": n_atoms}
    p = params(delta_c=delta_c, eta=-delta_c, u0=u0, grid_points=n, **atoms)
    g = make_grid(n)
    iterations, phi, alpha, u_avg, _ = _full_grid_itp(p, g)
    phi_even, alpha_even, u_even, steps = meanfield._imaginary_time_start(p, g)
    assert steps == iterations
    assert abs(u_even - u_avg) <= 1e-13
    assert abs(alpha_even - alpha) <= 1e-12 * abs(alpha)
    j, mj = mirror_points(n)
    assert np.abs(phi_even - phi[j]).max() <= 1e-12
    assert np.abs(phi_even - phi[mj]).max() <= 1e-12
    # the polished solve reports the start's step count
    assert solve_ground_state(p, g).iterations == iterations


@pytest.mark.parametrize("n", [16, 64, 200])
def test_even_half_grid_loop_fails_with_the_full_grid_residuals(n, monkeypatch):
    monkeypatch.setattr(meanfield, "MAX_ITERS", 2)
    p = params(grid_points=n)
    g = make_grid(n)
    with pytest.raises(ConvergenceError) as ref:
        _full_grid_itp(p, g, max_iters=2)
    with pytest.raises(ConvergenceError) as err:
        solve_ground_state(p, g)
    assert abs(err.value.residual_phi - ref.value.residual_phi) <= 1e-12
    assert abs(err.value.residual_alpha - ref.value.residual_alpha) <= 1e-12


@pytest.mark.parametrize(
    "n, delta_c, u0",
    [(n, dc, u0) for n in (16, 64, 200) for dc in (-100.0, -1000.0, -10000.0)
     for u0 in (-0.05, -1.03)],
)
def test_solution_does_not_depend_on_the_start_step(n, delta_c, u0, monkeypatch):
    # the step moves only the polish's starting <U>; the polish solves the
    # same discrete fixed point, so the step's O(dt^2) bias must not show
    p = params(delta_c=delta_c, eta=-delta_c, u0=u0, grid_points=n)
    g = make_grid(n)
    dt, st = meanfield.ITP_DT, solve_ground_state(p, g)
    with monkeypatch.context() as patch:
        patch.setattr(meanfield, "TOL_PHI", np.inf)
        alpha_steps = meanfield._imaginary_time_start(p, g)[3]
    monkeypatch.setattr(meanfield, "ITP_DT", 1e-3)
    fine = solve_ground_state(p, g)
    assert abs(st.u_avg - fine.u_avg) <= 1e-11 * abs(fine.u_avg)
    assert abs(st.mu - fine.mu) <= 1e-10 * abs(fine.mu)
    # the start ends at the later of its two stops.  phi's bounds the change
    # per unit of imaginary time, so its cost scales as 1 / dt; alpha's
    # bounds the change per step (TOL_ALPHA), which is stricter per unit of
    # time at a larger step.  At delta_c = -1000, u0 = -1.03, where the
    # start is fastest, alpha's ends it at 140 steps on all three grids,
    # against a 1 / dt prediction of 101 (1012 steps at 1e-3)
    assert st.iterations == pytest.approx(
        max(fine.iterations * 1e-3 / dt, alpha_steps), rel=0.1
    )


def _eigh_polish(p, g, u_avg):
    """Reference: the polish's secant on F(u) = <U>(u) - u with one
    ``eigh`` of the even block per step, started from u_avg.  Returns
    (<U>, the number of eigh calls)."""
    basis = sector_basis(g.n)
    lattice = p.u0 * basis.lattice
    calls = 0

    def residual(u):
        nonlocal calls
        calls += 1
        depth = np.abs(steady_alpha(p, u)) ** 2
        vec = np.linalg.eigh(np.diag(basis.kinetic) + depth * lattice)[1][:, 0]
        return float(vec @ lattice @ vec) - u, vec

    f, vec = residual(u_avg)
    if f != 0.0:
        best_abs, best_vec = abs(f), vec
        u_prev, f_prev, u = u_avg, f, u_avg + f
        for step in range(meanfield.SECANT_STEPS):
            f, vec = residual(u)
            if abs(f) < best_abs:
                best_abs, best_vec = abs(f), vec
            elif step:
                break
            if f == 0.0 or f == f_prev:
                break
            u_prev, f_prev, u = u, f, u - f * (u - u_prev) / (f - f_prev)
        vec = best_vec
    return float(vec @ lattice @ vec), calls


def _polish(p, g, u_start):
    """<U> from the package's polish, started from u_start."""
    return meanfield._polish_fixed_point(p, sector_basis(g.n), u_start)[2]


@pytest.mark.parametrize(
    "n, delta_c, u0",
    [(n, dc, u0) for n in (16, 64, 200) for dc in (-100.0, -1000.0, -10000.0)
     for u0 in (-0.05, -0.5, -1.03, -1.2)],
)
def test_certified_polish_matches_an_eigh_polish(n, delta_c, u0):
    # a certified step finds the same ground state as an eigh, to the
    # eigen-residual RQI_TOL ||H|| over the gap; <U> agrees to rounding
    p = params(delta_c=delta_c, eta=-delta_c, u0=u0, grid_points=n)
    g = make_grid(n)
    u_start = meanfield._imaginary_time_start(p, g)[2]
    ref, _ = _eigh_polish(p, g, u_start)
    assert abs(_polish(p, g, u_start) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("delta_c", [-100.0, -1000.0, -10000.0])
def test_polish_takes_one_eigh_per_solve(delta_c, monkeypatch):
    # the anchor is the only eigh: every later step is certified by Weyl's
    # bound over the served light shifts
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(1) or eigh(h))
    g = make_grid(16)
    for u0 in np.linspace(-1.2, -0.01, 60):
        calls.clear()
        solve_ground_state(params(delta_c=delta_c, eta=-delta_c, u0=u0, grid_points=16), g)
        assert len(calls) == 1, f"u0 = {u0}: {len(calls)} eigh calls"


@pytest.mark.parametrize("n", [16, 200])
def test_an_uncertified_step_reanchors(n, monkeypatch):
    # an anchor with no gap certifies no step, so every step takes a fresh
    # anchor: one eigh per evaluation of F, as the reference does, at the
    # same u, so <U> is the reference's
    p = params(delta_c=-1000.0, eta=1000.0, u0=-0.5, grid_points=n)
    g = make_grid(n)
    u_start = meanfield._imaginary_time_start(p, g)[2]
    ref, evaluations = _eigh_polish(p, g, u_start)
    calls = []
    eigh = np.linalg.eigh

    def gapless(h):
        calls.append(1)
        levels, vecs = eigh(h)
        levels[1] = levels[0]
        return levels, vecs

    monkeypatch.setattr(np.linalg, "eigh", gapless)
    u_avg = _polish(p, g, u_start)
    assert evaluations > 2
    assert len(calls) == evaluations
    assert abs(u_avg - ref) <= 1e-11 * abs(ref)


def test_residual_alpha_is_the_polish_mismatch(monkeypatch):
    # phi is the ground state at the depth of the polish's best point, and
    # alpha is steady_alpha of phi's own <U>: they differ by that point's
    # |F|, which without a secant step is the start's O(dt^2) bias
    p = params(u0=-0.5, grid_points=64)
    g = make_grid(p.grid_points)
    polished = solve_ground_state(p, g)
    assert polished.residual_alpha <= 1e-12 * abs(polished.alpha)
    monkeypatch.setattr(meanfield, "SECANT_STEPS", 0)
    start = solve_ground_state(p, g)
    assert start.residual_alpha > 1e3 * polished.residual_alpha
    assert start.residual_alpha > 1e-10 * abs(start.alpha)
    assert start.alpha == steady_alpha(p, start.u_avg)


# delta_c and u0 over every perfbench workload and every shipped config
@pytest.mark.parametrize("delta_c", [-100.0, -1000.0, -10000.0])
def test_one_fixed_point_on_the_served_range(delta_c):
    # F(u) = <U>(ground state of K + |alpha(u)|^2 U) - u runs from F(u0) >= 0
    # to F(0) <= 0, since <U> lies in [u0, 0]; a 401-point scan of [u0, 0]
    # finds exactly one sign change, and the solve lands inside it at every
    # u0 (the mean field costs about 7 ms a point at n = 16)
    g = make_grid(16)
    basis = sector_basis(16)
    for u0 in np.linspace(-1.2, -0.01, 120):
        p = params(delta_c=delta_c, eta=-delta_c, u0=u0, grid_points=16)
        u = np.linspace(u0, 0.0, 401)
        depth = np.abs(steady_alpha(p, u)) ** 2
        lattice = u0 * basis.lattice
        vec = np.linalg.eigh(np.diag(basis.kinetic) + depth[:, None, None] * lattice)[1][:, :, 0]
        f = np.einsum("ui,ij,uj->u", vec, lattice, vec) - u
        (k,) = np.flatnonzero(np.diff(f > 0))
        st = solve_ground_state(p, g)
        assert u[k] - 1e-12 <= st.u_avg <= u[k + 1] + 1e-12


def test_a_non_finite_start_stops_at_its_first_bad_step():
    # a lattice so deep that exp(-dt/2 |alpha|^2 U) overflows turns phi nan;
    # the start stops at that step instead of running MAX_ITERS steps on nan
    p = SystemParams(delta_c=0.0, kappa=1.0, eta=1e4, u0=-5.0, n_atoms=10, grid_points=8)
    with pytest.raises(ConvergenceError, match=r"imaginary-time step \d+ is not finite") as err:
        solve_ground_state(p, make_grid(8))
    step = int(str(err.value).split()[2])
    assert step < 10 < meanfield.MAX_ITERS
    assert not np.isfinite(err.value.residual_phi)
