import dataclasses

import numpy as np
import pytest

from bec_cavity import (
    ConvergenceError,
    DecompositionError,
    analyze_point,
    classify_stability,
    decompose,
    petermann_raw,
    symmetry_defect,
)
from bec_cavity import cli, meanfield, spectral
from bec_cavity.depletion import error_status
from bec_cavity.fluctuation import bordered_sector
from bec_cavity.spectral import odd_frequencies, phase_chain
from conftest import run_pipeline


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
    rebuilt = dec.even_right @ block @ dec.even_left
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
    left_photon = min(
        float(np.abs(dec.even_left[k, :2]).max() / np.linalg.norm(dec.even_left[k]))
        for k in dec.goldstone
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
    # the even sector's (n + 4)^2 blocks, against the 5.2 MB of
    # dense 402 x 402 right and left vectors at n = 200
    *_, dec = run_pipeline(u0=-0.5, ng=200)
    arrays = [v for v in vars(dec).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 2e6
    with pytest.raises(AttributeError):
        dec.right = np.eye(dec.omegas.size)


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


def test_stability_plateau_is_stable(pipeline):
    *_, dec = pipeline(u0=-0.5, ng=16)
    report = classify_stability(dec)
    assert report.label == "stable"
    assert report.max_growth_rate <= 1e-6


def test_stability_decoupled_is_marginal(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    report = classify_stability(dec)
    assert report.label == "marginal"
    assert abs(report.max_growth_rate) <= 1e-6


def test_stability_beyond_critical_is_unstable():
    *_, dec = run_pipeline(u0=-1.2, ng=64)
    report = classify_stability(dec)
    assert report.label == "unstable"
    assert report.max_growth_rate > 1e-6


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
        photon = np.flatnonzero(np.abs(dec.even_left[:, :2]).max(axis=1) > 0)
        assert photon.size == 2
        assert np.array_equal(photon, np.flatnonzero(np.abs(dec.right[:2]).max(axis=0) > 0))
        for k in photon:
            unit = np.zeros(dec.right.shape[0])
            unit[np.argmax(np.abs(dec.right[:2, k]))] = 1.0
            assert np.array_equal(np.abs(dec.right[:, k]), unit)
            # the photon rows lead both layouts
            assert np.array_equal(np.abs(dec.even_left[k]), unit[: dec.even_left.shape[1]])


@pytest.mark.parametrize(
    "delta_c, u0",
    [(-100.0, -0.14), (-1000.0, -0.05), (-1000.0, -0.5), (-1000.0, -1.0), (-10000.0, -0.5)],
)
def test_no_mode_of_a_stable_point_grows(delta_c, u0):
    # the secular weights carry their block's sign exactly, so a weak rung's
    # Im omega, of order 1e-40 here, keeps the sign of its damping; weights
    # taken as the rounded products col_q,k row_q,k give such a rung a random
    # sign, and 2 to 8 modes of each of these points a growth rate
    *_, dec = run_pipeline(u0=u0, ng=64, delta_c=delta_c, eta=-delta_c)
    assert classify_stability(dec).label == "stable"
    rates = np.delete(dec.omegas.imag, list(dec.goldstone))
    assert rates.max() < 0.0


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
    photon = modes[np.argsort(-np.abs(dec.even_left[modes, 0] * dec.even_left[modes, 1]))[:2]]
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
    pairing, mismatch = spectral._mirror_pairing(roots, offsets, 10.0)
    assert list(pairing) == [1, 0, 2, 4, 3] and mismatch == 0.0
    # the mismatch is measured, not implied by the pairing
    _, mismatch = spectral._mirror_pairing(roots + np.array([0, 1e-9, 0, 0, 0]), offsets, 10.0)
    assert mismatch == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(DecompositionError, match="distinct"):
        spectral._mirror_pairing(np.append(roots, roots[0]), np.append(offsets, 0.0), 10.0)
    with pytest.raises(DecompositionError, match="pair"):
        spectral._mirror_pairing(roots + np.array([0, 0, 0, 0, 0.5]), offsets, 10.0)
    with pytest.raises(DecompositionError, match="trace"):
        spectral._mirror_pairing(roots, offsets + 1e-6, 10.0)


def test_pairing_error_is_the_measured_mismatch(pipeline):
    # the roots as solved pair to rounding, not exactly; the recorded error
    # is that mismatch, taken before each pair is averaged to its mirror
    *_, dec = pipeline(u0=-0.5, ng=16)
    scale = float(np.abs(dec.omegas).max())
    assert 0.0 < dec.pairing_error <= spectral.PAIRING_RTOL * scale
