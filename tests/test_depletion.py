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
    mode_projector,
    relaxation_time,
    solve_depletion_point,
    steady_state_depletion,
)
from bec_cavity.depletion import _noise_matrix
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


def test_goldstone_pairs_are_logged_not_silent(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    reasons = {r for (_, _, r) in steady.skipped_pairs}
    assert "goldstone-cluster" in reasons
    goldstone_rows = [
        (k, l) for (k, l, r) in steady.skipped_pairs if r == "goldstone-cluster"
    ]
    assert all(k in dec.goldstone or l in dec.goldstone for k, l in goldstone_rows)


def test_symmetry_paired_terms_dominate(pipeline):
    _, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    stability = classify_stability(dec)
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    assert steady.dominated_fraction is not None
    assert steady.dominated_fraction > 0.5  # measured: ~1.0 on the plateau
    assert steady.pair_contributions
    top_k, top_l, top_val = steady.pair_contributions[0]
    assert dec.pairing[top_k] == top_l


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
    assert any("non-negligible noise" in r for (_, _, r) in steady.skipped_pairs)


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
    assert any("negligible noise" in r for (_, _, r) in steady.skipped_pairs)


def _steady_reference(dec, tol_pair=1e-8, tol_noise=1e-10, top=20):
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
    flat = np.abs(contrib).ravel()
    order = [i for i in np.argsort(-flat, kind="stable") if flat[i] > 0.0][:top]
    pairs = [(int(i // dim), int(i % dim), contrib.flat[i]) for i in order]
    return value, paired.real / value, excluded, pairs


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("delta_c, u0", [(-1000.0, -0.5), (-10000.0, -0.05)])
def test_steady_sum_matches_full_pair_reference(ng, delta_c, u0):
    _, grid, _, _, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    steady = steady_state_depletion(dec, grid, classify_stability(dec))
    value, dominated, excluded, pairs = _steady_reference(dec)
    assert steady.value == pytest.approx(value, rel=1e-12)
    assert steady.dominated_fraction == pytest.approx(dominated, rel=1e-12)
    assert steady.excluded_modes == excluded
    assert [(k, l) for k, l, _ in steady.pair_contributions] == [(k, l) for k, l, _ in pairs]
    got = np.array([c for *_, c in steady.pair_contributions])
    assert np.abs(got - np.array([c for *_, c in pairs])).max() <= 1e-12 * np.abs(got).max()


def test_top_pairs_keep_the_pair_order_through_a_tie_at_the_cut():
    # every mode carries photon weight and the same matter profile, so a
    # term's size is set by its damping alone: three fast modes give 9
    # equal leading terms, and the next 2 * 3 * 15 equal terms straddle the
    # TOP_PAIRS = 20 cut
    dec = _toy_decomposition([-0.5j] * 3 + [-1.0j] * 15)
    n = dec.n_grid
    dec.left[:, :2] = 1.0
    dec.right[2:] = 1.0 / np.sqrt(n)
    stability = StabilityReport("stable", -0.5)
    steady = steady_state_depletion(dec, None, stability)
    value, dominated, excluded, pairs = _steady_reference(dec, top=21)
    magnitudes = [abs(c) for *_, c in pairs]
    assert magnitudes[8] > magnitudes[9] == magnitudes[19] == magnitudes[20]
    pairs = pairs[:20]
    assert steady.value == pytest.approx(value, rel=1e-12)
    assert steady.dominated_fraction == pytest.approx(dominated, rel=1e-12)
    assert steady.excluded_modes == excluded == ()
    assert [(k, l) for k, l, _ in steady.pair_contributions] == [(k, l) for k, l, _ in pairs]
    assert [c for *_, c in steady.pair_contributions] == [c for *_, c in pairs]


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
