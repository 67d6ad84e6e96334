import dataclasses
import tracemalloc

import numpy as np
import pytest

from bec_cavity import (
    ConvergenceError,
    DecompositionError,
    SystemParams,
    analyze_point,
    classify_stability,
    decompose,
    make_grid,
    petermann_raw,
    solve_depletion_point,
    symmetry_defect,
)
from bec_cavity import cli, meanfield, spectral
from bec_cavity.depletion import Z_FLOOR, error_status
from bec_cavity.fluctuation import bordered_sector
from bec_cavity.spectral import BIORTH_LIMIT, chain_duals, noise_coupled, odd_frequencies, phase_chain
from conftest import run_pipeline

EPS = np.finfo(float).eps


def test_zero_coupling_spectrum(pipeline):
    *_, fm, dec = pipeline(u0=0.0, ng=16)
    omegas = np.concatenate([dec.omegas, odd_frequencies(fm)])
    photon = omegas[np.argmin(np.abs(omegas - (1000.0 - 100.0j)))]
    assert abs(photon - (1000.0 - 100.0j)) < 1e-8 * abs(1000.0 - 100.0j)
    for n in (1, 2, 3):
        target = 4.0 * n**2
        assert (np.abs(omegas - target) < 1e-8 * target).sum() >= 2


def test_pairing_is_a_covering_involution(pipeline):
    *_, dec = pipeline(u0=-0.5, ng=16)
    pairing = dec.pairing
    assert np.array_equal(pairing[pairing], np.arange(pairing.size))
    scale = np.abs(dec.omegas).max()
    mism = np.abs(dec.omegas[pairing] + dec.omegas.conj())
    assert mism.max() <= 1e-8 * scale


@pytest.mark.parametrize("ng", [16, 64, 200])
def test_biorthonormality_and_reconstruction(pipeline, ng):
    *_, fm, dec = pipeline(u0=-0.5, ng=ng)
    assert dec.biorth_defect <= 1e-10
    # M_even = R J L, J diagonal but for the Goldstone chain coupling: the
    # eigen relation M R = R J, which decompose does not measure itself
    block = np.diag(dec.omegas)
    if dec.chain:
        g1, g2 = dec.goldstone
        block[g1, g2] = dec.chain_coupling
    rebuilt = dec.even_right() @ block @ dec.left_rows(slice(None))
    assert np.linalg.norm(rebuilt - fm.even) < 1e-8 * np.linalg.norm(fm.even)
    assert np.abs(rebuilt - fm.even).max() <= 1e-12 * fm.scale


def test_goldstone_cluster_detected(pipeline):
    *_, dec = pipeline(u0=-0.5, ng=16)
    assert len(dec.goldstone) == 2
    assert dec.chain
    assert max(abs(dec.omegas[k]) for k in dec.goldstone) < 1e-6
    # the zero mode proper carries no photon component at all
    photon = min(float(np.abs(dec.right[:2, k]).max()) for k in dec.goldstone)
    assert photon <= 1e-8
    # and the cluster's left space contains a photonless row
    left = dec.left_rows(slice(None))
    left_photon = min(
        float(np.abs(left[k, :2]).max() / np.linalg.norm(left[k])) for k in dec.goldstone
    )
    assert left_photon <= 1e-8


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize(
    "delta_c, u0", [(-1000.0, -0.5), (-10000.0, -0.05), (-10000.0, -0.02)]
)
def test_goldstone_chain_vector_matches_a_least_squares_solve(ng, delta_c, u0):
    # (-10000, -0.02) is the weakest coupling served: |r2| is about 2.5e4
    *_, fm, _ = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    m_even = fm.even
    chain, right, rows = phase_chain(m_even, fm.phi_even, fm.scale)
    assert chain
    r1, r2 = right.T
    # reference: the minimum-norm solution of M r = r1, made orthogonal to r1
    ref = np.linalg.lstsq(m_even, r1, rcond=None)[0]
    ref -= (r1.conj() @ ref) * r1
    assert np.linalg.norm(r2 - ref) <= 1e-8 * np.linalg.norm(ref)
    assert abs(r1.conj() @ r2) <= 1e-9 * np.linalg.norm(r2)
    residual = np.linalg.norm(m_even @ r2 - r1)
    assert residual <= 2.0 * np.linalg.norm(m_even @ ref - r1)
    # the left chain, y M = 0 and z M = y, to rounding of max|M| |row|
    y, z = rows
    assert np.abs(y @ m_even).max() <= 1e-12 * fm.scale * np.abs(y).max()
    assert np.abs(z @ m_even - y).max() <= 1e-12 * fm.scale * np.abs(z).max()
    # and the dual rows of the unit columns, L_G R_G = I
    unit = right / np.linalg.norm(right, axis=0)
    dual = np.linalg.solve(rows @ unit, rows)
    assert np.abs(dual @ unit - np.eye(2)).max() <= 1e-12


def test_odd_modes_are_noiseless_and_normal(pipeline):
    params, grid, _, fm, dec = pipeline(u0=-0.5, ng=16)
    n = dec.n_grid
    m = fm.m
    # the odd grid combinations e_j - e_(n - j), j = 1 .. n/2 - 1, of each
    # matter block neither feed nor receive the photon
    odd = np.zeros((2 * n + 2, n - 2))
    for col, (block, j) in enumerate((b, j) for b in (2, 2 + n) for j in range(1, n // 2)):
        odd[block + j, col], odd[block + n - j, col] = 1.0, -1.0
    assert np.all(m[:2] @ odd == 0.0)
    assert np.all(odd.T @ m[:, :2] == 0.0)
    # the spectrum lists them as +-e of the odd block, noiseless and normal
    energies = np.linalg.eigh(fm.h_odd)[0]
    rows = cli._spectrum_rows(-0.5, params, grid, nonneg_re_only=False)[dec.omegas.size :]
    listed = np.array([complex(row[2], row[3]) for row in rows])
    assert np.array_equal(np.sort_complex(listed), np.sort_complex(np.r_[energies, -energies]))
    assert all(row[4] == row[5] == 0.0 and row[6] == 1.0 for row in rows)


def test_mode_record_holds_no_grid_sized_basis():
    # h's 101-square eigh basis and the 204 x 16 block of the 14 coupled
    # modes and the phase/number pair, 155,928 bytes measured, against the
    # 0.68 MB of a square even_right and the 5.2 MB of dense 402 x 402
    # right and left vectors at n = 200
    *_, dec = run_pipeline(u0=-0.5, ng=200)
    arrays = [v for v in vars(dec).values() if isinstance(v, np.ndarray)]
    assert dec.coupled.size == 14
    assert sum(a.nbytes for a in arrays) <= 1.6e5
    with pytest.raises(AttributeError):
        dec.right = np.eye(dec.omegas.size)


@pytest.mark.parametrize("ng", [16, 64, 200])
def test_derived_left_rows_are_dual_to_the_right_vectors(ng):
    # the record stores no left row: left_rows derives them from the right
    # vectors, and it keeps the photon entries l1, l2 that the sums read
    *_, dec = run_pipeline(u0=-0.5, ng=ng)
    left = dec.left_rows(slice(None))
    assert np.abs(left @ dec.even_right() - np.eye(ng + 4)).max() <= BIORTH_LIMIT
    assert np.array_equal(left[:, 0], dec.l1) and np.array_equal(left[:, 1], dec.l2)
    cols = np.array([0, 5, *dec.goldstone])
    assert np.array_equal(dec.left_rows(cols), left[cols])
    arrays = {k: v for k, v in vars(dec).items() if isinstance(v, np.ndarray)}
    # the only 2-D arrays: h's eigh basis and the coupled modes' block
    assert [k for k, v in arrays.items() if v.ndim == 2 and min(v.shape) > 2] == ["basis", "coupled_right"]
    assert dec.basis.shape == (ng // 2 + 1, ng // 2 + 1)
    assert dec.coupled_right.shape == (ng + 4, dec.coupled.size + 2) and dec.coupled.size < ng + 2


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("delta_c", [-100.0, -1000.0, -10000.0])
@pytest.mark.parametrize("u0", [-0.5, -4.26648e-4])
def test_biorth_defect_from_the_split_gram_matches_the_full_product(ng, delta_c, u0):
    # u0 = -4.26648e-4 is a very weakly coupled chain; delta_c = -100 at
    # u0 = -0.5 a heating point
    _, _, state, _, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    assert state.heating == (delta_c == -100.0 and u0 == -0.5)
    full = np.abs(dec.left_rows(slice(None)) @ dec.even_right() - np.eye(ng + 4)).max()
    w_norms, defect = spectral._biorth_defect(dec)
    assert abs(defect - full) <= 1e-14
    # the record's normalizers and certificate are this pass's
    assert np.array_equal(w_norms, dec.w_norms) and defect == dec.biorth_defect


@pytest.mark.parametrize("ng", [16, 64, 200])
def test_biorth_defect_reports_an_entry_below_the_diagonal(ng):
    # scaling the photon entry of mode 1's stored right vector puts the
    # largest entry of L R - I in a photon root's row, below the diagonal;
    # the left rows are the ones the certificate's normalizers give
    *_, dec = run_pipeline(u0=-0.5, ng=ng)
    stored = dec.coupled_right.copy()
    assert dec.coupled[1] == 1
    stored[0, 1] *= 1.001
    w_norms, defect = spectral._biorth_defect(dataclasses.replace(dec, coupled_right=stored))
    bad = dataclasses.replace(dec, coupled_right=stored, w_norms=w_norms)
    product = np.abs(bad.left_rows(slice(None)) @ bad.even_right() - np.eye(ng + 4))
    row, col = np.unravel_index(np.argmax(product), product.shape)
    assert col < row < dec.w_norms.size
    assert product.max() > BIORTH_LIMIT
    assert abs(defect - product.max()) <= 1e-14


@pytest.mark.parametrize("col", [1, -1], ids=["secular", "pair"])
def test_biorth_defect_is_nan_when_an_entry_is(col):
    # a nan entry of the stored block fails the certificate by itself, in a
    # coupled root's column or in the phase/number pair's
    *_, dec = run_pipeline(u0=-0.5, ng=64)
    stored = dec.coupled_right.copy()
    stored[5, col] = np.nan
    assert np.isnan(spectral._biorth_defect(dataclasses.replace(dec, coupled_right=stored))[1])


@pytest.mark.parametrize("change", ["nan", "perturbed"])
@pytest.mark.parametrize("ng", [64, 200])
def test_biorth_defect_reads_the_stored_basis_of_a_deflated_level(ng, change):
    # a deflated root's right vector is its level's stored eigh column: the
    # certificate must measure that column, not take eigh's orthogonality
    # on trust, so a nan or a 1e-6 change in one of its entries fails it
    *_, dec = run_pipeline(u0=-0.5, ng=ng)
    deflated = np.setdiff1d(np.arange(dec.levels.size), dec.coupled)
    level = dec.levels[deflated[deflated.size // 2]]
    basis = dec.basis.copy()
    basis[3, level] = np.nan if change == "nan" else basis[3, level] + 1e-6
    bad = dataclasses.replace(dec, basis=basis)
    w_norms, defect = spectral._biorth_defect(bad)
    if change == "nan":
        assert np.isnan(defect)
    else:
        assert defect > BIORTH_LIMIT
        full = np.abs(dataclasses.replace(bad, w_norms=w_norms).left_rows(slice(None)) @ bad.even_right())
        assert abs(defect - np.abs(full - np.eye(ng + 4)).max()) <= 1e-14


def test_biorth_defect_is_nan_when_a_dual_row_entry_is():
    # the secular part stays finite and only the phase/number pair's part is
    # nan: the maximum over the parts must keep it (Python's max drops it)
    *_, dec = run_pipeline(u0=-0.5, ng=64)
    rows = dec.dual_rows.copy()
    rows[1, 5] = np.nan
    w_norms, defect = spectral._biorth_defect(dataclasses.replace(dec, dual_rows=rows))
    assert np.array_equal(w_norms, dec.w_norms) and np.isnan(defect)


@pytest.mark.parametrize(
    "limit, value, message",
    [("BIORTH_LIMIT", 0.0, "even modes not biorthogonal"),
     ("COND_LIMIT", 1.0, "right eigenvector basis is numerically singular")],
)
def test_decompose_refuses_a_failed_certificate(monkeypatch, limit, value, message):
    # below any decomposition's defect, or below the least condition bound,
    # n + 4 (every Petermann factor is at least 1), each gate refuses a
    # sound generator; analyze_point records the refusal and keeps no modes
    params, grid, _, fm, _ = run_pipeline(u0=-0.5, ng=16)
    monkeypatch.setattr(spectral, limit, value)
    with pytest.raises(DecompositionError, match=message):
        decompose(fm)
    point = analyze_point(params, grid)
    assert isinstance(point.error, DecompositionError) and message in str(point.error)
    assert point.fm is not None and point.dec is None and point.stability is None


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("u0", [-0.5, -0.16, -4.26648e-4])
def test_number_mode_row_has_exact_zero_photon_entries(ng, u0):
    # the number mode's dual row is y / (y . r2): no photon entry at all,
    # where a solve with Y R_G leaves one at rounding level
    *_, fm, dec = run_pipeline(u0=u0, ng=ng)
    number = dec.goldstone[1]
    assert dec.l1[number] == 0.0 and dec.l2[number] == 0.0
    chain, right, rows = phase_chain(fm.even, fm.phi_even, fm.scale)
    assert chain
    right = right / np.linalg.norm(right, axis=0)  # the closed form takes any column scaling
    closed = chain_duals(chain, right, rows)
    solved = np.linalg.solve(rows @ right, rows)
    assert np.abs(closed - solved).max() <= 1e-12 * np.abs(solved).max()
    assert np.abs(closed @ right - np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize("ng", [16, 64], ids=["True-16", "True-64"])
def test_decompose_spectrum_matches_plain_eigvals(ng):
    *_, fm, dec = run_pipeline(u0=-0.5, ng=ng)
    reference = np.sort(np.linalg.eigvals(fm.m))
    omegas = np.concatenate([dec.omegas, odd_frequencies(fm)])
    scale = np.abs(omegas).max()
    assert np.abs(np.sort(omegas) - reference).max() <= 1e-9 * scale


@pytest.mark.parametrize("u0, ng", [(-0.5, 16), (-1.0, 64)])
def test_pairs_are_exact_mirror_frequencies(u0, ng):
    *_, dec = run_pipeline(u0=u0, ng=ng)
    modes = np.setdiff1d(np.arange(dec.omegas.size), dec.goldstone)
    assert np.array_equal(dec.omegas[dec.pairing[modes]], -dec.omegas[modes].conj())


def test_decompose_refuses_a_matrix_without_the_g_symmetry(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    even = fm.even.copy()
    even[0, 0] += 1e-3  # breaks G M G = -conj(M): A no longer meets -conj(A)
    with pytest.raises(DecompositionError, match="G M G"):
        decompose(dataclasses.replace(fm, even=even))


def test_petermann_of_normal_spectrum_is_unity(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    raw = petermann_raw(dec)
    assert raw.min() >= 1.0 - 1e-10
    assert raw.max() <= 1.0 + 1e-6


def test_petermann_isolated_mode(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    photon = int(np.argmin(np.abs(dec.omegas - (1000.0 - 100.0j))))
    assert petermann_raw(dec)[photon] == pytest.approx(1.0, abs=1e-9)


def test_petermann_exceeds_unity_near_crossing():
    *_, dec = run_pipeline(u0=-1.0, ng=64)
    assert petermann_raw(dec).max() > 1.0 + 1e-6
    assert petermann_raw(dec).min() >= 1.0 - 1e-10


@pytest.mark.parametrize("ng", [16, 64, 200])
def test_norms_match_linalg_norm_without_a_sector_sized_temporary(ng):
    *_, dec = run_pipeline(u0=-0.5, ng=ng)
    right, left, dx = dec.even_right(), dec.left_rows(slice(None)), dec.dx
    reference = np.linalg.norm(left, axis=1) ** 2 * np.linalg.norm(right, axis=0) ** 2
    assert np.abs(petermann_raw(dec) / reference - 1.0).max() <= 1e-14
    # decompose scales each column to unit photon plus dx-weighted matter norm
    physical = np.linalg.norm(right[:2], axis=0) ** 2 + dx * np.linalg.norm(right[2:], axis=0) ** 2
    factors = spectral._physical_norm_factors(right, dx)
    assert np.abs(factors**-2 / physical - 1.0).max() <= 1e-14
    assert np.abs(physical - 1.0).max() <= 1e-14
    tracemalloc.start()
    try:
        petermann_raw(dec)
        spectral._physical_norm_factors(right, dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < right.nbytes


def test_stability_plateau_is_stable(pipeline):
    *_, dec = pipeline(u0=-0.5, ng=16)
    report = classify_stability(dec)
    assert report.label == "stable"
    # the deflated levels are undamped exactly, every coupled rung damped
    # (the weakest at -3.8e-27)
    assert report.max_growth_rate == 0.0
    assert dec.omegas[dec.coupled].imag.max() < 0.0


def test_stability_decoupled_is_marginal(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    report = classify_stability(dec)
    assert report.label == "marginal"
    # decoupled levels are undamped exactly: their secular offset is 0
    assert report.max_growth_rate == 0.0


def test_stability_beyond_critical_is_unstable():
    *_, dec = run_pipeline(u0=-1.2, ng=64)
    report = classify_stability(dec)
    assert report.label == "unstable"
    assert report.max_growth_rate > 1e-6


# two points of tests/test_scan.py's draw (seed 0), where the verdict
# depends on a rate far below any tolerance: the spectrum resolves the sign
# of each Im omega exactly, so no rate is too small to decide
SLOW_HEATING = SystemParams(  # draw 116: grows at 3.1e-8
    delta_c=465.6823010191256, kappa=9.715719656111878, eta=-2423.4215159308133,
    u0=0.023178093421277524, n_atoms=11, grid_points=8,
)
SLOW_COOLING = SystemParams(  # draw 48: slowest noise-coupled damping 2.2e-13
    delta_c=-17867.206784555412, kappa=0.5456346016292521, eta=358.94258365021955,
    u0=-2.1429982206980265, n_atoms=518, grid_points=8,
)


def test_heating_point_growing_below_a_micro_rate_is_unstable():
    point = analyze_point(SLOW_HEATING, make_grid(8))
    assert point.state.heating
    assert 0.0 < point.stability.max_growth_rate < 1e-6
    assert point.stability.label == "unstable"


def test_cooling_point_damped_below_the_sums_resolution_is_stable_and_diverged():
    grid = make_grid(8)
    point = analyze_point(SLOW_COOLING, grid)
    assert not point.state.heating
    rates = -point.dec.omegas[noise_coupled(point.dec)].imag
    assert 0.0 < rates.min() < 0.5 * Z_FLOOR
    assert point.stability.label == "stable"
    # the own pair of the slowest mode, 2 |Im omega| < Z_FLOOR, marks the sum
    (row,) = solve_depletion_point(SLOW_COOLING, grid, SLOW_COOLING.delta_c, SLOW_COOLING.u0)
    assert (row.status, row.stability, row.depletion) == ("diverged", "stable", None)


def test_spectrum_sweep_rows(pipeline):
    params, grid, *_ = pipeline(u0=0.0, ng=16)
    points = [
        analyze_point(dataclasses.replace(params, u0=u0), grid) for u0 in (0.0, -0.25, -0.5)
    ]
    u_avg = [p.state.u_avg for p in points]  # <U> follows u0: sweep order preserved
    assert u_avg[0] == 0.0 and u_avg[0] > u_avg[1] > u_avg[2]
    assert all(p.error is None and p.stability is not None for p in points)
    # photon line at (-delta_c, -kappa) when the coupling is off
    omegas0 = points[0].dec.omegas
    k = int(np.argmin(np.abs(omegas0 - (1000.0 - 100.0j))))
    assert omegas0[k].real == pytest.approx(1000.0, rel=1e-10)
    assert omegas0[k].imag == pytest.approx(-100.0, rel=1e-10)
    # low-lying motional branches stay flat across the plateau (the weak
    # lattice splits the lowest pair by a few percent at u0 = -0.5)
    for point in points:
        omegas = point.dec.omegas
        lowest = np.sort(omegas.real[omegas.real > 2.0])[0]
        assert lowest == pytest.approx(4.0, rel=0.05)


def test_spectrum_rows_list_the_even_sector_first(pipeline):
    # at a weak lattice each free level 4 k^2 splits into an even and an
    # odd mode only about 1e-12 apart, which a (Re, Im) sort over both
    # sectors orders by rounding; listed sector by sector they keep rows
    params, grid, _, fm, dec = pipeline(u0=-0.02, ng=64)
    n_even = dec.omegas.size
    w = np.concatenate([dec.omegas, odd_frequencies(fm)])
    even = np.lexsort((w[:n_even].imag, w[:n_even].real))
    odd = n_even + np.lexsort((w[n_even:].imag, w[n_even:].real))
    gap = np.abs(w[even][:, None].real - w[odd].real) / np.abs(w[odd].real)
    assert gap.min() <= 1e-10
    rows = cli._spectrum_rows(-0.02, params, grid, nonneg_re_only=False)
    order = np.concatenate([even, odd])
    assert [row[1] for row in rows] == list(range(w.size))
    assert [(row[2], row[3]) for row in rows] == [(w[k].real, w[k].imag) for k in order]
    # the odd rows are the noiseless ones, l1 = l2 = 0 exactly
    assert all(row[4] == row[5] == 0.0 for row in rows[n_even:])
    shown = cli._spectrum_rows(-0.02, params, grid, nonneg_re_only=True)
    assert [(row[2], row[3]) for row in shown] == [
        (w[k].real, w[k].imag) for k in order if w[k].real >= 0.0
    ]


def test_spectrum_sweep_records_failures(pipeline, monkeypatch):
    params, grid, *_ = pipeline(u0=0.0, ng=16)
    monkeypatch.setattr(meanfield, "MAX_ITERS", 2)
    point = analyze_point(dataclasses.replace(params, u0=-0.5), grid)
    assert isinstance(point.error, ConvergenceError)
    assert error_status(point.error).startswith("error: ConvergenceError:")
    assert point.state is None and point.fm is None and point.dec is None


def _even_modes(dec):
    """Indices of the modes whose right vectors are even under x -> pi - x."""
    n = dec.n_grid
    flip = (-np.arange(n)) % n
    mirror = np.concatenate([[0, 1], 2 + flip, 2 + n + flip])
    gap = np.abs(dec.right[mirror] - dec.right).max(axis=0)
    return np.flatnonzero(gap <= 1e-12 * np.abs(dec.right).max(axis=0))


def _assert_same_roots(got, reference, rtol):
    scale = np.abs(reference).max()
    dist = np.abs(got[:, None] - reference[None, :])
    assert dist.min(axis=1).max() <= rtol * scale
    assert dist.min(axis=0).max() <= rtol * scale
    assert got.size == reference.size


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize(
    "delta_c, u0, label",
    [
        pytest.param(-1000.0, 0.0, "marginal", id="-1000.0-0.0-True-marginal"),  # decoupled: g = 0
        pytest.param(-1000.0, -0.5, "stable", id="-1000.0--0.5-True-stable"),  # the plateau
        pytest.param(-1000.0, -1.2, "unstable", id="-1000.0--1.2-True-unstable"),
        # heating: past the cavity resonance
        pytest.param(-100.0, -0.5, "unstable", id="-100.0--0.5-True-unstable"),
    ],
)
def test_secular_spectrum_matches_eigvals(ng, delta_c, u0, label):
    params, _, state, fm, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    assert classify_stability(dec).label == label
    if delta_c == -100.0:
        assert state.heating
    even = _even_modes(dec)
    # a mode's index is its sector column: the even ones come first
    assert np.array_equal(even, np.arange(ng + 4))
    reference = np.linalg.eigvals(fm.even)
    # the phase/number pair: exact zeros here, split by +-sqrt(eps) in eig
    assert dec.goldstone == (ng + 2, ng + 3)
    assert dec.chain == (u0 != 0.0)
    reference = reference[np.argsort(np.abs(reference))[2:]]
    roots = np.setdiff1d(even, dec.goldstone)
    _assert_same_roots(dec.omegas[roots], reference, 1e-11)
    assert np.array_equal(dec.pairing[dec.pairing], np.arange(dec.omegas.size))
    assert dec.biorth_defect <= 1e-10
    if u0 == 0.0:
        # decoupled: the photon line and the free levels, each a unit vector
        # of its own block; only the photon modes carry photon weight
        left = dec.left_rows(slice(None))
        photon = np.flatnonzero(np.abs(left[:, :2]).max(axis=1) > 0)
        assert photon.size == 2
        assert np.array_equal(photon, np.flatnonzero(np.abs(dec.right[:2]).max(axis=0) > 0))
        for k in photon:
            unit = np.zeros(dec.right.shape[0])
            unit[np.argmax(np.abs(dec.right[:2, k]))] = 1.0
            assert np.array_equal(np.abs(dec.right[:, k]), unit)
            # the photon rows lead both layouts
            assert np.array_equal(np.abs(left[k]), unit[: left.shape[1]])


@pytest.mark.parametrize(
    "delta_c, u0",
    [(-100.0, -0.14), (-1000.0, -0.05), (-1000.0, -0.5), (-1000.0, -1.0), (-10000.0, -0.5)],
)
def test_no_mode_of_a_stable_point_grows(delta_c, u0):
    # the secular weights carry their block's sign exactly, so a weak coupled
    # rung's Im omega, down to 1e-31 here, keeps the sign of its damping;
    # weights taken as the rounded products col_q,k row_q,k give such a rung
    # a random sign; a deflated level is undamped exactly
    *_, dec = run_pipeline(u0=u0, ng=64, delta_c=delta_c, eta=-delta_c)
    assert classify_stability(dec).label == "stable"
    assert dec.omegas[dec.coupled].imag.max() < 0.0
    deflated = np.setdiff1d(np.arange(dec.omegas.size), [*dec.coupled, *dec.goldstone])
    assert deflated.size > 0 and np.all(dec.omegas[deflated].imag == 0.0)


@pytest.mark.parametrize("offset", [1e-3, 1e-4, 2e-5])
def test_near_resonance_photon_roots_are_imaginary_and_self_paired(offset, monkeypatch):
    # just on the stable side of criterion 6's critical point (about
    # u0 = -1.05131 at delta_c = -1000): both photon roots sit on the
    # imaginary axis, each its own mirror partner, so they are no (z, -conj z)
    # pair and must both be found, in a few sweeps (they take 7 or 8)
    *_, fm, _ = run_pipeline(u0=-1.05131 + offset, ng=200)
    monkeypatch.setattr(spectral, "SECULAR_STEPS", 12)
    dec = decompose(fm)
    assert classify_stability(dec).label == "stable"
    modes = np.setdiff1d(np.arange(dec.omegas.size), dec.goldstone)
    left = dec.left_rows(slice(None))
    photon = modes[np.argsort(-np.abs(left[modes, 0] * left[modes, 1]))[:2]]
    assert np.all(dec.omegas[photon].real == 0.0)
    assert np.array_equal(dec.pairing[photon], photon)
    assert abs(dec.omegas[photon[0]] - dec.omegas[photon[1]]) > 0.1
    reference = np.linalg.eigvals(fm.even)
    for k in photon:
        assert np.abs(reference - dec.omegas[k]).min() <= 1e-11 * np.abs(reference).max()
    if offset == 1e-3:
        assert np.abs(dec.omegas[photon] + 102.26j).min() < 5e-3


def test_decompose_refuses_an_anomalous_matter_block(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    n_e = fm.phi_even.size
    even = fm.even.copy()
    # a pairing term dPsi <-> dPsi^dag along the condensate: reflection even,
    # and G M G = -conj(M) still holds, but the even matter blocks are no
    # longer diag(h, -h)
    pairing_term = 0.5 * np.outer(fm.phi_even, fm.phi_even)
    even[2 : 2 + n_e, 2 + n_e :] += pairing_term
    even[2 + n_e :, 2 : 2 + n_e] -= pairing_term
    corrupt = dataclasses.replace(fm, even=even)
    assert symmetry_defect(corrupt.m) == 0.0
    with pytest.raises(DecompositionError, match="bordered form"):
        decompose(corrupt)


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("u0", [0.0, -0.5])
def test_the_even_sector_is_symmetric_under_w(ng, u0):
    # W = diag(conj beta, -beta, dx 1, -dx 1), beta = alpha / conj(alpha):
    # W M is symmetric, M^T = W M W^-1, and decompose takes each left vector
    # as the transpose of W r
    _, grid, state, fm, _ = run_pipeline(u0=u0, ng=ng)
    n_e = fm.phi_even.size
    beta = state.alpha / np.conj(state.alpha)
    w = np.concatenate([[np.conj(beta), -beta], np.full(n_e, grid.dx), np.full(n_e, -grid.dx)])
    w_m = w[:, None] * fm.even
    assert np.abs(w_m - w_m.T).max() <= 1e-15 * fm.scale


def test_decompose_refuses_a_photon_row_off_the_photon_column(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    even = fm.even.copy()
    # the photon row a on both matter blocks, and row a^dag with it as its G
    # image: G M G = -conj(M) and the block form hold, but row = beta dx col
    # does not, and with it the symmetry of W M
    even[:2, 2:] *= 1.0 + 1e-6
    assert symmetry_defect(even) == 0.0
    with pytest.raises(DecompositionError, match="bordered form"):
        decompose(dataclasses.replace(fm, even=even))


@pytest.mark.parametrize("shift", [1.0, -1.0])
def test_decompose_refuses_a_sector_without_the_phase_null_vector(pipeline, shift):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    n_e = fm.phi_even.size
    even = fm.even.copy()
    # matter blocks h + c and -(h + c): G M G = -conj(M) and the bordered form
    # hold, but (0, 0, phi, -phi) is no longer a null vector
    even[2 : 2 + n_e, 2 : 2 + n_e] += shift * np.eye(n_e)
    even[2 + n_e :, 2 + n_e :] -= shift * np.eye(n_e)
    corrupt = dataclasses.replace(fm, even=even)
    assert symmetry_defect(corrupt.m) == 0.0
    with pytest.raises(DecompositionError, match="phase null vector"):
        decompose(corrupt)


def test_phase_chain_refuses_a_null_vector_that_heads_no_chain():
    # the photon on resonance, A = -i kappa: the cavity's static response
    # vanishes, so K = h keeps the condensate's null vector and M r = r1
    # has no solution
    profile = np.array([1.0, 1.0])
    even = bordered_sector(-100.0j, profile, profile, np.diag([0.0, 2.0]))
    with pytest.raises(DecompositionError, match="heads no phase/number chain"):
        phase_chain(even, np.array([1.0, 0.0]), 100.0)


@pytest.mark.parametrize("ng", [16, 200])
def test_decompose_uses_no_dense_eigensolver_or_inverse(ng, monkeypatch):
    *_, fm, reference = run_pipeline(u0=-0.5, ng=ng)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose must not call a dense eig, inverse or SVD")

    for name in ("eig", "eigvals", "inv", "pinv", "svd", "cond", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    dec = decompose(fm)
    assert np.array_equal(dec.omegas, reference.omegas)
    assert dec.biorth_defect <= 1e-10


def test_secular_roots_that_do_not_converge_are_refused(monkeypatch):
    *_, fm, _ = run_pipeline(u0=-0.5, ng=16)
    monkeypatch.setattr(spectral, "SECULAR_STEPS", 1)
    with pytest.raises(DecompositionError, match="unconverged"):
        decompose(fm)


def test_mirror_pairing_certificates():
    roots = np.array([3.0 - 0.1j, -3.0 - 0.1j, -2.0j, 1.0 - 1.0j, -1.0 - 1.0j])
    offsets = np.array([0.01j, -0.01j, 0.0, 0.0, 0.0])
    pairing, mismatch = spectral._mirror_pairing(roots, offsets, 10.0, 3.0)
    assert list(pairing) == [1, 0, 2, 4, 3] and mismatch == 0.0
    # the mismatch is measured, not implied by the pairing
    _, mismatch = spectral._mirror_pairing(roots + np.array([0, 1e-9, 0, 0, 0]), offsets, 10.0, 3.0)
    assert mismatch == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(DecompositionError, match="distinct"):
        spectral._mirror_pairing(np.append(roots, roots[0]), np.append(offsets, 0.0), 10.0, 3.0)
    with pytest.raises(DecompositionError, match="pair"):
        spectral._mirror_pairing(roots + np.array([0, 0, 0, 0, 0.5]), offsets, 10.0, 3.0)
    with pytest.raises(DecompositionError, match="trace"):
        spectral._mirror_pairing(roots, offsets + 1e-6, 10.0, 3.0)


def test_pairing_error_is_the_measured_mismatch(pipeline):
    # the roots as solved pair to rounding, not exactly; the recorded error
    # is that mismatch, taken before each pair is averaged to its mirror
    *_, dec = pipeline(u0=-0.5, ng=16)
    scale = float(np.abs(dec.omegas).max())
    assert 0.0 < dec.pairing_error <= spectral.PAIRING_RTOL * scale


def _levels(fm):
    """h's eigh levels and columns, as decompose takes them, with the
    levels that carry a root pair: root i < n/2 sits at +e of free[i], root
    n/2 + i at -e."""
    n_e = fm.phi_even.size
    h = fm.even[2 : 2 + n_e, 2 : 2 + n_e].real
    energies, basis = np.linalg.eigh(0.5 * (h + h.T))
    zero = int(np.argmax(np.abs(basis.T @ fm.phi_even)))
    return energies, basis, np.flatnonzero(np.arange(n_e) != zero)


def _deflated(dec):
    return np.setdiff1d(np.arange(dec.omegas.size), [*dec.coupled, *dec.goldstone])


@pytest.mark.parametrize("ng", [64, 200])
@pytest.mark.parametrize("delta_c", [-100.0, -1000.0, -10000.0])
@pytest.mark.parametrize("u0", [-0.05, -0.5])
def test_a_deflated_mode_is_an_exact_eigh_pair(ng, delta_c, u0):
    # a deflated root is its level of h, +-e_j exactly and real, with the
    # eigh column q_j as its right vector in its own block, no photon entry
    # and a Petermann factor of exactly 1; it is an eigenpair of M_even to
    # the rounding eigh leaves
    *_, fm, dec = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    energies, basis, free = _levels(fm)
    n_e, half = fm.phi_even.size, free.size
    deflated = _deflated(dec)
    assert deflated.size > 0 and np.isin(dec.pairing[dec.coupled], dec.coupled).all()
    for k in deflated:
        level, block = (free[k], 2) if k < half else (free[k - half], 2 + n_e)
        assert dec.omegas[k] == (energies[level] if k < half else -energies[level])
        assert dec.omegas[k].imag == 0.0 and dec.pairing[dec.pairing[k]] == k
        assert dec.l1[k] == 0.0 and dec.l2[k] == 0.0 and petermann_raw(dec)[k] == 1.0
        column = dec.even_right([k])[:, 0]
        own = column[block : block + n_e]
        assert not np.delete(column, np.arange(block, block + n_e)).any()
        assert np.all(own.imag == 0.0)
        # the eigh column, scaled to unit quadrature-weighted norm
        assert np.abs(own.real * np.sqrt(fm.dx) - basis[:, level]).max() <= 16 * EPS
    right = dec.even_right(deflated)
    right /= np.linalg.norm(right, axis=0)
    residual = np.linalg.norm(fm.even @ right - right * dec.omegas[deflated], axis=0)
    assert residual.max() <= 16 * EPS * fm.scale


@pytest.mark.parametrize("ng", [64, 200])
def test_rung_2_stays_coupled_and_keeps_its_damping(ng, monkeypatch):
    # rung 2 at delta_c = -1000, u0 = -0.05 (Re omega near 16, Im omega
    # -1.04e-11, |l1 l2| 1.6e-12) is resolved, not noise: the deflation must
    # keep it, and with it the damping an undeflated solve gives
    *_, fm, dec = run_pipeline(u0=-0.05, ng=ng, delta_c=-1000.0, eta=1000.0)
    monkeypatch.setattr(spectral, "DEFLATION_TOL", 0.0)
    full = decompose(fm)
    assert full.coupled.size == ng + 2 and not _deflated(full).size
    half = ng // 2
    matter = dec.coupled[dec.coupled < half]  # the field-block roots
    rung = matter[np.argsort(dec.omegas[matter].real)[1]]
    assert abs(dec.omegas[rung].real - 16.0) < 1.0
    assert -2e-11 < dec.omegas[rung].imag < -5e-12
    assert abs(dec.omegas[rung].imag - full.omegas[rung].imag) <= 1e-12 * abs(full.omegas[rung].imag)
    assert abs(dec.l1[rung] * dec.l2[rung]) > 1e-12
