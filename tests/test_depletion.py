import math

import numpy as np
import pytest

from bec_cavity import (
    ModeDecomposition,
    OracleSingularError,
    StabilityError,
    StabilityReport,
    build_matrix,
    classify_stability,
    depletion_at_times,
    finite_time_kernel,
    lyapunov_oracle,
    make_grid,
    mode_projector,
    relaxation_time,
    solve_depletion_point,
    steady_state_depletion,
)
from bec_cavity.depletion import ORACLE_MAX_GRID, _noise_matrix
from bec_cavity.fluctuation import FluctuationMatrix
from conftest import run_pipeline


# ---------------------------------------------------------------------------
# kernel


def test_kernel_vanishes_at_zero_time():
    z = np.array([0.0, 1.0 + 0.5j, -3.0j])
    assert np.abs(finite_time_kernel(z, 0.0)).max() == 0.0


def test_kernel_limit_at_zero_frequency():
    assert finite_time_kernel(np.array([0.0]), 2.5)[0] == pytest.approx(2.5)


def test_kernel_series_branch_is_continuous():
    t = 1.0
    for z in (9.9e-5, 1.01e-4, (7e-5) * (1 + 1j) / np.sqrt(2)):
        small = finite_time_kernel(np.array([z * 0.999]), t)[0]
        direct = (1.0 - np.exp(-1j * z * 0.999 * t)) / (1j * z * 0.999)
        assert abs(small - direct) < 1e-11 * abs(direct)


def test_kernel_against_direct_formula():
    rng = np.random.default_rng(5)
    z = rng.normal(size=24) + 1j * rng.normal(size=24)
    t = 3.7
    expected = (1.0 - np.exp(-1j * z * t)) / (1j * z)
    assert np.abs(finite_time_kernel(z, t) - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# double-sum values


def test_depletion_zero_at_time_zero(pipeline):
    _, grid, _, _, dec = pipeline(u0=-0.5, ng=8)
    result = depletion_at_times(dec, grid, [0.0])
    assert result.values == [0.0]


def test_depletion_zero_without_coupling(pipeline):
    _, grid, _, _, dec = pipeline(u0=0.0, ng=16)
    result = depletion_at_times(dec, grid, [1.0, 10.0])
    assert max(abs(v) for v in result.values) < 1e-10


def test_noise_matrix_has_single_entry():
    d = _noise_matrix(10, 100.0)
    assert d[0, 1] == 200.0
    d[0, 1] = 0.0
    assert np.abs(d).max() == 0.0


@pytest.mark.parametrize("ng,u0", [(8, -0.5), (16, -0.5), (8, -0.1), (16, -0.1)])
def test_steady_state_matches_lyapunov_oracle(ng, u0):
    params, grid, state, fm, dec = run_pipeline(u0=u0, ng=ng)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    assert not steady.diverged
    proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
    oracle = lyapunov_oracle(fm, grid, steady=True, deflate=proj)
    assert steady.value == pytest.approx(oracle.values[0], rel=1e-6)
    assert steady.value > 0.0


def test_finite_time_matches_rk4_oracle():
    params, grid, state, fm, dec = run_pipeline(u0=-0.5, ng=8)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    times = [1.0, 10.0]
    formula = depletion_at_times(dec, grid, times, exclude_modes=steady.excluded_modes)
    proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
    oracle = lyapunov_oracle(fm, grid, times, deflate=proj)
    for a, b in zip(formula.values, oracle.values):
        assert a == pytest.approx(b, rel=1e-4)


def test_depletion_is_real_and_nonnegative(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    assert steady.value >= -1e-10
    result = depletion_at_times(dec, grid, [0.5, 5.0])
    assert all(v >= -1e-10 for v in result.values)
    assert result.values[0] < result.values[1]


def test_goldstone_pairs_are_left_out_of_both_sums(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    # the chain's left rows carry photon weight, so its pairs would count
    assert np.abs(dec.left[list(dec.goldstone), :2]).max() > 0.0
    times = [1.0, 100.0]
    result = depletion_at_times(dec, grid, times)
    assert depletion_at_times(dec, grid, times, exclude_modes=dec.goldstone).values == result.values
    steady = steady_state_depletion(dec, grid, classify_stability(dec), heating=state.heating)
    assert not set(dec.goldstone) & set(steady.excluded_modes)


def test_symmetry_paired_terms_dominate(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    assert steady.dominated_fraction is not None
    assert steady.dominated_fraction > 0.5  # measured: ~1.0 on the plateau


def test_order_of_limits(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    horizon = 100.0 * relaxation_time(dec)
    finite = depletion_at_times(
        dec, grid, [horizon], exclude_modes=steady.excluded_modes
    )
    assert finite.values[0] == pytest.approx(steady.value, rel=0.01)


def test_pump_strength_enters_only_through_mean_field(pipeline):
    import dataclasses

    params, grid, state, fm, dec = pipeline(u0=-0.5, ng=16)
    rescaled = dataclasses.replace(params, eta=17.0 * params.eta)
    fm2 = build_matrix(state, rescaled, grid)
    assert np.array_equal(fm.m, fm2.m)


def test_refusals_for_non_stable_states(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    with pytest.raises(StabilityError, match="heating"):
        steady_state_depletion(
            dec, grid, StabilityReport("stable", -1.0), heating=True
        )
    with pytest.raises(StabilityError, match="unstable"):
        steady_state_depletion(
            dec, grid, StabilityReport("unstable", 0.5), heating=False
        )
    with pytest.raises(StabilityError, match="marginal"):
        steady_state_depletion(
            dec, grid, StabilityReport("marginal", 0.0), heating=False
        )


def _toy_decomposition(omegas, kappa=100.0):
    dim = len(omegas)
    n = (dim - 2) // 2
    eye = np.eye(dim, dtype=complex)
    return ModeDecomposition(
        omegas=np.array(omegas, dtype=complex),
        right=eye.copy(),
        left=eye.copy(),
        cond_r=1.0,
        pairing=np.arange(dim),
        pairing_error=0.0,
        goldstone=(),
        chain=False,
        chain_coupling=0.0j,
        eigen_residual=0.0,
        biorth_defect=0.0,
        n_grid=n,
        dx=np.pi / n,
        kappa=kappa,
    )


def test_diverged_marker_for_resonant_pair():
    # identity eigenbasis: l1 weight sits on mode 0, l2 weight on mode 1;
    # their frequencies nearly cancel below the resolution floor
    dec = _toy_decomposition([5e-12, -4.99e-12, 1.0, -1.0, 2.0, -2.0])
    dec.pairing = np.array([1, 0, 3, 2, 5, 4])
    # give the (0, 1) pair an overlap so the weight is nonzero
    dec.right[2, 1] = 1.0  # r3 block of mode 1
    dec.right[2 + dec.n_grid, 0] = 1.0  # r4 block of mode 0
    grid = None
    steady = steady_state_depletion(
        dec, grid, StabilityReport("stable", -1e-3), heating=False
    )
    assert steady.diverged
    assert steady.value is None


def test_small_denominator_with_negligible_noise_is_skipped():
    dec = _toy_decomposition([5e-12, -4.99e-12, 1.0, -1.0, 2.0, -2.0])
    dec.pairing = np.array([1, 0, 3, 2, 5, 4])
    dec.left[0, 0] = 1e-13  # photon weights below the noise tolerance
    dec.left[1, 1] = 1e-13
    dec.left[0, 1] = 0.0
    dec.left[1, 0] = 0.0
    steady = steady_state_depletion(
        dec, None, StabilityReport("stable", -1e-3), heating=False
    )
    assert not steady.diverged
    assert steady.value == 0.0
    assert {0, 1} <= set(steady.excluded_modes)


def _steady_reference(dec, tol_pair=1e-8, tol_noise=1e-10):
    """The steady double sum evaluated on every one of the dim^2 pairs."""
    dim = dec.omegas.size
    n = dec.n_grid
    l1, l2 = dec.left[:, 0], dec.left[:, 1]
    overlap = dec.dx * (dec.right[2 + n :].T @ dec.right[2 : 2 + n])
    weight = np.outer(l1, l2) * overlap
    zsum = dec.omegas[:, None] + dec.omegas[None, :]
    keep = np.ones((dim, dim), dtype=bool)
    keep[list(dec.goldstone), :] = False
    keep[:, list(dec.goldstone)] = False
    small = (np.abs(zsum) < tol_pair) & (np.abs(np.outer(l1, l2)) < tol_noise) & keep
    keep &= ~small
    excluded = tuple(
        k for k in range(dim) if k not in dec.goldstone and small[k, dec.pairing[k]]
    )
    contrib = np.zeros((dim, dim), dtype=complex)
    for k, l in zip(*np.nonzero(keep)):
        contrib[k, l] = 2.0 * dec.kappa * weight[k, l] / (1j * zsum[k, l])
    value = contrib.sum().real
    paired = sum(contrib[k, dec.pairing[k]] for k in range(dim) if keep[k, dec.pairing[k]])
    return value, paired.real / value, excluded


# (-1000, -0.14) and (-100, -0.05) put even modes into the excluded set,
# their photon weight near tol_noise
@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize(
    "delta_c, u0", [(-1000.0, -0.5), (-10000.0, -0.05), (-1000.0, -0.14), (-100.0, -0.05)]
)
def test_steady_sum_matches_full_pair_reference(ng, delta_c, u0):
    _, grid, _, _, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    steady = steady_state_depletion(dec, grid, classify_stability(dec))
    value, dominated, excluded = _steady_reference(dec)
    assert steady.value == pytest.approx(value, rel=1e-12)
    assert steady.dominated_fraction == pytest.approx(dominated, rel=1e-12)
    assert steady.excluded_modes == excluded


def _finite_reference(dec, times, exclude_modes=()):
    """The finite-time double sum evaluated on every one of the dim^2 pairs."""
    n = dec.n_grid
    overlap = dec.dx * (dec.right[2 + n :].T @ dec.right[2 : 2 + n])
    weight = np.outer(dec.left[:, 0], dec.left[:, 1]) * overlap
    dropped = list(dec.goldstone) + list(exclude_modes)
    weight[dropped, :] = 0.0
    weight[:, dropped] = 0.0
    zsum = dec.omegas[:, None] + dec.omegas[None, :]
    return [2.0 * dec.kappa * (weight * finite_time_kernel(zsum, t)).sum().real for t in times]


@pytest.mark.parametrize("ng", [16, 200])
@pytest.mark.parametrize("delta_c, u0", [(-1000.0, -0.5), (-10000.0, -0.05), (-1000.0, -0.14)])
@pytest.mark.parametrize("exclude", [False, True])
def test_finite_sum_matches_full_pair_reference(ng, delta_c, u0, exclude):
    _, grid, _, _, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    excluded = steady_state_depletion(dec, grid, classify_stability(dec)).excluded_modes
    exclude_modes = excluded if exclude else ()
    times = [0.5, 10.0, 1e3, 1e5, 1e8]
    result = depletion_at_times(dec, grid, times, exclude_modes=exclude_modes)
    reference = _finite_reference(dec, times, exclude_modes)
    for value, expected in zip(result.values, reference):
        assert value == pytest.approx(expected, rel=1e-12)


def test_overflowing_times_are_nan_and_the_earlier_times_stay():
    # a growing mode beyond the critical depth: exp(-i z t) overflows by t = 1e4
    params, grid, _, _, dec = run_pipeline(u0=-1.2, ng=16)
    result = depletion_at_times(dec, grid, [1.0, 100.0, 1e4])
    assert math.isfinite(result.values[0]) and math.isfinite(result.values[1])
    assert math.isnan(result.values[2])
    rows = solve_depletion_point(params, grid, -1000.0, -1.2, times=[1.0, 100.0, 1e4])
    assert [r.status for r in rows] == ["ok", "ok", "diverged"]
    assert [r.depletion for r in rows[:2]] == result.values[:2]
    assert rows[2].depletion is None and rows[2].stability == "unstable"


def test_relaxation_time_infinite_without_coupling(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    assert relaxation_time(dec) == math.inf


def test_relaxation_time_slower_than_cavity(pipeline):
    params, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    tr = relaxation_time(dec)
    assert math.isfinite(tr)
    assert tr > 1.0 / params.kappa


def test_oracle_refuses_noise_fed_undamped_direction():
    # marginal toy: photon mode with zero linewidth receives all the noise
    n = 2
    dim = 2 * n + 2
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 5.0
    m[1, 1] = -5.0
    m[2:4, 2:4] = np.diag([1.0, 2.0])
    m[4:, 4:] = -np.diag([1.0, 2.0])
    phi = np.full(n, 1.0 / np.sqrt(np.pi))
    fm = FluctuationMatrix(
        m=m, a_diag=5.0 + 0j, n_grid=n, dx=np.pi / n, phi=phi,
        mu=0.0, kappa=100.0, subtract_mu=True,
    )
    with pytest.raises(OracleSingularError):
        lyapunov_oracle(fm, None, steady=True)


def test_oracle_zero_without_coupling(pipeline):
    _, grid, _, fm, _ = pipeline(u0=0.0, ng=8)
    steady = lyapunov_oracle(fm, grid, steady=True)
    assert abs(steady.values[0]) < 1e-10
    finite = lyapunov_oracle(fm, grid, [1.0, 5.0])
    assert max(abs(v) for v in finite.values) < 1e-10


def test_depletion_sweep_statuses(pipeline):
    params, grid, *_ = pipeline(u0=-0.5, ng=16)
    rows = [
        row for u0 in (0.0, -0.5) for row in solve_depletion_point(params, grid, params.delta_c, u0)
    ]
    assert len(rows) == 2
    by_u0 = {r.u0: r for r in rows}
    assert by_u0[0.0].status == "marginal"
    assert by_u0[0.0].depletion is None
    assert by_u0[-0.5].status == "ok"
    assert by_u0[-0.5].depletion > 0.0


def test_depletion_sweep_eta_follows_detuning(pipeline):
    params, grid, *_ = pipeline(u0=-0.5, ng=16)
    rows = solve_depletion_point(params, grid, -1000.0, -0.5)
    explicit = solve_depletion_point(params, grid, -1000.0, -0.5, eta_follows_detuning=False)
    # here eta = 1000 = -delta_c already, so both conventions agree
    assert rows[0].depletion == pytest.approx(explicit[0].depletion, rel=1e-12)


def test_depletion_sweep_finite_times(pipeline):
    params, grid, *_ = pipeline(u0=-0.5, ng=16)
    rows = solve_depletion_point(params, grid, params.delta_c, -0.5, times=[0.0, 1.0])
    assert [r.time for r in rows] == [0.0, 1.0]
    assert rows[0].depletion == 0.0
    assert rows[1].depletion > 0.0


def test_depletion_point_refuses_the_oracle_above_its_grid_cap():
    params, *_ = run_pipeline(u0=-0.5, ng=16)
    grid = make_grid(64)
    assert ORACLE_MAX_GRID < 64
    with pytest.raises(ValueError, match=str(ORACLE_MAX_GRID)):
        solve_depletion_point(params, grid, -1000.0, -0.5, oracle=True)
    with pytest.raises(ValueError, match=str(ORACLE_MAX_GRID)):
        solve_depletion_point(params, grid, -1000.0, -0.5, times=[1.0], oracle=True)
