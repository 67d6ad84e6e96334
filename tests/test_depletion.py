import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bec_cavity import (
    ModeDecomposition,
    OracleSingularError,
    StabilityError,
    StabilityReport,
    SystemParams,
    analyze_point,
    build_matrix,
    classify_stability,
    decompose,
    depletion_at_times,
    finite_time_kernel,
    lyapunov_oracle,
    make_grid,
    mode_projector,
    relaxation_time,
    solve_depletion_point,
    steady_state_depletion,
)
from bec_cavity import cli, depletion, fluctuation, spectral
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


def test_kernel_keeps_full_precision_at_small_arguments():
    # against the Taylor series in extended precision, which has no
    # cancellation at |z t| <= 1e-2; 1 - exp(-i z t) loses eps / |z t|
    rng = np.random.default_rng(3)
    for t in (1.0, 100.0, 1e4):
        zt = np.logspace(-12, -2, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
        w = -1j * zt.astype(np.clongdouble)
        term, series = np.ones_like(w), np.zeros_like(w)
        for k in range(2, 12):
            series += term
            term *= w / k
        expected = t * series
        got = finite_time_kernel(zt / t, t)
        assert np.abs((got - expected) / expected).max() <= 1e-14


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


@pytest.mark.parametrize("ng,u0", [(8, -0.5), (16, -0.5), (8, -0.1), (16, -0.1), (16, -0.13)])
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
    # a growing heating point at the production grid, nothing deflated
    _, grid, state, fm, dec = run_pipeline(u0=-0.5, ng=200, delta_c=-100.0, eta=100.0)
    assert state.heating and classify_stability(dec).label == "unstable"
    times = [1.0, 10.0, 100.0]
    formula = depletion_at_times(dec, grid, times)
    oracle = lyapunov_oracle(fm, grid, times)
    for a, b in zip(formula.values, oracle.values):
        assert a == pytest.approx(b, rel=1e-4)


def test_finite_time_oracle_deflates_the_chain_at_long_times():
    # a stable point at the production grid: undeflated, the rounding-split
    # Goldstone block made the doublings miss the sum by a factor 1e39
    _, grid, state, fm, dec = run_pipeline(u0=-0.5, ng=200)
    assert not state.heating and classify_stability(dec).label == "stable"
    formula = depletion_at_times(dec, grid, [1e8])
    oracle = lyapunov_oracle(fm, grid, [1e8])
    assert oracle.values[0] == pytest.approx(formula.values[0], rel=1e-4)


@pytest.mark.parametrize("ng", [16, 200])
@pytest.mark.parametrize("u0", [-0.5, 0.0])
def test_finite_time_oracle_deflates_the_decompositions_own_chain(ng, u0):
    # undeflated calls take the phase/number pair from spectral.phase_chain,
    # as decompose does; at u0 = 0 the decoupled pair is deflated too
    _, grid, _, fm, dec = run_pipeline(u0=u0, ng=ng)
    times = [1.0, 100.0, 1e4]
    plain = lyapunov_oracle(fm, grid, times).values
    deflated = lyapunov_oracle(fm, grid, times, deflate=mode_projector(dec, dec.goldstone)).values
    assert plain == pytest.approx(deflated, rel=1e-9)
    if u0 == 0.0:
        assert plain == [0.0, 0.0, 0.0]


def test_finite_time_oracle_is_nan_past_its_resolution_horizon():
    # t ||A|| eps is about 600 at t = 1e16; without the horizon the deflated
    # doublings return 6e131 there, against a mode sum of 16.19
    _, grid, state, fm, dec = run_pipeline(u0=-0.05, ng=16, delta_c=-100.0, eta=100.0)
    assert not state.heating and classify_stability(dec).label == "stable"
    inside, beyond = lyapunov_oracle(fm, grid, [1e4, 1e16]).values
    assert inside == pytest.approx(depletion_at_times(dec, grid, [1e4]).values[0], rel=1e-4)
    assert math.isnan(beyond)


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("delta_c", [-100.0, -1000.0, -10000.0])
@pytest.mark.parametrize("u0", [-1e-7, -1e-5, -4.26648e-4])
def test_weak_coupling_keeps_the_phase_number_chain(ng, delta_c, u0):
    # a coupling however weak makes the phase/number pair a Jordan chain;
    # taken for two eigenvectors, max|LR - I| reaches 3e-5 on the Goldstone
    # rows and decompose refuses 20 of these 27 points
    params = SystemParams(
        delta_c=delta_c, kappa=100.0, eta=-delta_c, u0=u0, n_atoms=1000, grid_points=ng
    )
    grid = make_grid(ng)
    point = analyze_point(params, grid)
    assert point.error is None
    dec = point.dec
    assert dec.chain and dec.biorth_defect <= 1e-10
    times = [1.0, 100.0, 1e4]
    sums = depletion_at_times(dec, grid, times).values
    for value, oracle in zip(sums, lyapunov_oracle(point.fm, grid, times).values):
        assert abs(value - oracle) <= 1e-4 * abs(oracle)
    if point.stability.label == "stable" and not point.state.heating:
        steady = steady_state_depletion(dec, grid, point.stability)
        proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
        oracle = lyapunov_oracle(point.fm, grid, steady=True, deflate=proj).values[0]
        assert abs(steady.value - oracle) <= 1e-6 * abs(oracle)


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
    assert np.abs(dec.even_left[list(dec.goldstone), :2]).max() > 0.0
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


def _toy_decomposition(omegas, right=None, left=None, kappa=100.0):
    """A sector-form record on the n = 2 grid, where every mode is even.

    Both points of that grid are fixed points of x -> pi - x, so the even
    sector basis is the grid basis itself: right and left (identity by
    default) read as grid columns and rows.
    """
    dim = len(omegas)
    n = (dim - 2) // 2
    right = np.eye(dim, dtype=complex) if right is None else right
    left = np.eye(dim, dtype=complex) if left is None else left
    return ModeDecomposition(
        omegas=np.array(omegas, dtype=complex),
        even_right=right,
        even_left=left,
        cond_r=1.0,
        pairing=np.arange(dim),
        pairing_error=0.0,
        goldstone=(),
        chain=False,
        chain_coupling=0.0j,
        biorth_defect=0.0,
        n_grid=n,
        dx=np.pi / n,
        kappa=kappa,
    )


def test_diverged_marker_for_resonant_pair():
    # identity eigenbasis: l1 weight sits on mode 0, l2 weight on mode 1;
    # their frequencies nearly cancel below the resolution floor
    right = np.eye(6, dtype=complex)
    # give the (0, 1) pair an overlap so the weight is nonzero
    right[2, 1] = 1.0  # r3 block of mode 1
    right[4, 0] = 1.0  # r4 block of mode 0
    dec = _toy_decomposition([5e-12, -4.99e-12, 1.0, -1.0, 2.0, -2.0], right=right)
    # on the grid the overlaps O_kl are the sector's: the cosine modes are orthonormal
    grid_right = dec.right
    assert np.allclose(grid_right[4:].T @ grid_right[2:4], right[4:].T @ right[2:4], atol=1e-15)
    dec.pairing = np.array([1, 0, 3, 2, 5, 4])
    grid = None
    steady = steady_state_depletion(
        dec, grid, StabilityReport("stable", -1e-3), heating=False
    )
    assert steady.diverged
    assert steady.value is None


def test_small_denominator_with_negligible_noise_is_skipped():
    left = np.eye(6, dtype=complex)
    left[0, 0] = 1e-13  # photon weights below the noise tolerance
    left[1, 1] = 1e-13
    left[0, 1] = 0.0
    left[1, 0] = 0.0
    dec = _toy_decomposition([5e-12, -4.99e-12, 1.0, -1.0, 2.0, -2.0], left=left)
    dec.pairing = np.array([1, 0, 3, 2, 5, 4])
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
    l1, l2 = dec.even_left[:, 0], dec.even_left[:, 1]
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
# their photon weight near NOISE_FLOOR
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
    weight = np.outer(dec.even_left[:, 0], dec.even_left[:, 1]) * overlap
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


def test_times_gather_the_pair_data_once_per_point(monkeypatch):
    calls = []
    pair_data = depletion._pair_data

    def counted(dec):
        calls.append(dec)
        return pair_data(dec)

    monkeypatch.setattr(depletion, "_pair_data", counted)
    params, grid, *_ = run_pipeline(u0=-0.5, ng=16)
    rows = solve_depletion_point(params, grid, -1000.0, -0.5, times=[1.0, 100.0, 1e4])
    assert [r.status for r in rows] == ["ok", "ok", "ok"]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "times, bound_mb",
    [(None, 3.2), ([1.0, 100.0, 1e4], 3.5)],
    ids=["steady", "times"],
)
def test_depletion_point_scratch_memory_is_bounded(times, bound_mb):
    # a warm n = 200 point keeps its mode record (1.44 MB) and, while it
    # decomposes, the generator (0.74 MB); every other array is scratch of
    # at most a few blocks of rows
    params = SystemParams(delta_c=-1000.0, kappa=100.0, eta=1000.0, u0=-0.3, n_atoms=1000, grid_points=200)
    grid = make_grid(200)
    solve_depletion_point(params, grid, -1000.0, -0.3, times=times)
    tracemalloc.start()
    try:
        rows = solve_depletion_point(params, grid, -1000.0, -0.3, times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.status == "ok" for r in rows)
    assert peak / 1e6 <= bound_mb


def test_sweep_path_never_assembles_the_grid_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep path must read the modes in sector form")

    monkeypatch.setattr(spectral, "synthesize_sector", refuse)
    monkeypatch.setattr(fluctuation, "_dense_generator", refuse)
    params, grid, _, fm, dec = run_pipeline(u0=-0.5, ng=16)
    with pytest.raises(AssertionError, match="sector form"):
        dec.right
    with pytest.raises(AssertionError, match="sector form"):
        fm.m
    steady = solve_depletion_point(params, grid, -1000.0, -0.5)
    assert [r.status for r in steady] == ["ok"]
    timed = solve_depletion_point(params, grid, -1000.0, -0.5, times=[1.0, 100.0])
    assert [r.status for r in timed] == ["ok", "ok"]
    rows = cli._spectrum_rows(-0.5, params, grid, nonneg_re_only=False)
    assert len(rows) == 2 * dec.n_grid + 2  # the odd modes too
    assert all(row[-1] == "ok" for row in rows)


def test_depletion_chain_never_reads_the_odd_sector():
    params, grid, _, fm, dec = run_pipeline(u0=-0.5, ng=16)
    blind = dataclasses.replace(fm, h_odd=np.full_like(fm.h_odd, np.nan))
    seen = decompose(blind)
    assert np.array_equal(seen.omegas, dec.omegas)
    assert classify_stability(seen) == classify_stability(dec)
    times = [1.0, 100.0]
    steady = steady_state_depletion(dec, grid, classify_stability(dec))
    assert steady_state_depletion(seen, grid, classify_stability(seen)) == steady
    assert depletion_at_times(seen, grid, times) == depletion_at_times(dec, grid, times)
    proj = mode_projector(seen, steady.excluded_modes + seen.goldstone)
    for kwargs in (dict(steady=True), dict(times=times)):
        assert lyapunov_oracle(blind, grid, deflate=proj, **kwargs) == lyapunov_oracle(
            fm, grid, deflate=mode_projector(dec, steady.excluded_modes + dec.goldstone), **kwargs
        )


def test_relaxation_time_infinite_without_coupling(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    assert relaxation_time(dec) == math.inf


def test_relaxation_time_slower_than_cavity(pipeline):
    params, grid, state, _, dec = pipeline(u0=-0.5, ng=16)
    tr = relaxation_time(dec)
    assert math.isfinite(tr)
    assert tr > 1.0 / params.kappa


def test_oracle_refuses_noise_fed_undamped_direction():
    # marginal toy: photon mode with zero linewidth receives all the noise;
    # at n = 2 both points are mirror fixed points, so the even sector is
    # all of M and the odd sector is empty.  The condensate sits on the
    # matter level 0, the phase null vector every built generator has; a
    # generator without one has no phase/number pair to deflate.
    n = 2
    dim = 2 * n + 2
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 5.0
    m[1, 1] = -5.0
    m[2:4, 2:4] = np.diag([0.0, 2.0])
    m[4:, 4:] = -np.diag([0.0, 2.0])
    phi = np.array([np.sqrt(2.0 / np.pi), 0.0])
    fm = FluctuationMatrix(
        even=m, h_odd=np.zeros((0, 0)), phi_even=phi, scale=5.0,
        n_grid=n, dx=np.pi / n, kappa=100.0,
    )
    with pytest.raises(OracleSingularError):
        lyapunov_oracle(fm, None, steady=True)
    m[2, 2], m[4, 4] = 1.0, -1.0
    with pytest.raises(spectral.DecompositionError, match="phase null vector"):
        lyapunov_oracle(fm, None, steady=True)


def test_oracle_refuses_the_corrupt_matrix_fault():
    params, grid, *_ = run_pipeline(u0=-0.5, ng=16)
    point = analyze_point(params, grid, fault_injection="corrupt-matrix")
    assert point.fm is not None and point.dec is None  # decompose refused it too
    assert isinstance(point.error, spectral.DecompositionError)
    with pytest.raises(ValueError, match="G M G"):
        lyapunov_oracle(point.fm, grid, steady=True)
    with pytest.raises(ValueError, match="G M G"):
        lyapunov_oracle(point.fm, grid, [1.0])


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
    explicit = solve_depletion_point(params, grid, -1000.0, -0.5, eta_follows_detuning=True)
    # here eta = 1000 = -delta_c already, so both conventions agree
    assert rows[0].depletion == pytest.approx(explicit[0].depletion, rel=1e-12)


def test_depletion_sweep_finite_times(pipeline):
    params, grid, *_ = pipeline(u0=-0.5, ng=16)
    rows = solve_depletion_point(params, grid, params.delta_c, -0.5, times=[0.0, 1.0])
    assert [r.time for r in rows] == [0.0, 1.0]
    assert rows[0].depletion == 0.0
    assert rows[1].depletion > 0.0

