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
from bec_cavity import spectral
from bec_cavity.depletion import error_status
from bec_cavity.grid import mirror_points
from bec_cavity.spectral import _canonical_goldstone, _sector_pairs
from conftest import run_pipeline


def test_zero_coupling_spectrum(pipeline):
    *_, dec = pipeline(u0=0.0, ng=16)
    omegas = dec.omegas
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


def test_biorthonormality_and_reconstruction(pipeline):
    *_, fm, dec = pipeline(u0=-0.5, ng=16)
    assert dec.biorth_defect <= 1e-10
    # M = R B L, B diagonal but for the Goldstone chain coupling
    block = np.diag(dec.omegas)
    if dec.chain:
        g1, g2 = dec.goldstone
        block[g1, g2] = dec.chain_coupling
    rebuilt = dec.right @ block @ dec.left
    assert np.linalg.norm(rebuilt - fm.m) < 1e-8 * np.linalg.norm(fm.m)


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
        float(np.abs(dec.left[k, :2]).max() / np.linalg.norm(dec.left[k]))
        for k in dec.goldstone
    )
    assert left_photon <= 1e-8


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("delta_c, u0", [(-1000.0, -0.5), (-10000.0, -0.05)])
def test_goldstone_chain_vector_matches_a_least_squares_solve(ng, delta_c, u0):
    *_, fm, _ = run_pipeline(u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c)
    p, q, s, *_ = _sector_pairs(ng)
    cols = s * (fm.m[:, p] + fm.m[:, q])
    m_even = s[:, None] * (cols[p] + cols[q])
    j, mj = mirror_points(ng)
    phi_even = s[2 : 3 + ng // 2] * (fm.phi[j] + fm.phi[mj])
    kind, r1, r2 = _canonical_goldstone(m_even, phi_even, ng // 2 + 1)
    assert kind == "chain"
    # reference: the minimum-norm solution of M r = r1, made orthogonal to r1
    ref = np.linalg.lstsq(m_even, r1, rcond=None)[0]
    ref -= (r1.conj() @ ref) * r1
    assert np.linalg.norm(r2 - ref) <= 1e-8 * np.linalg.norm(ref)
    assert abs(r1.conj() @ r2) <= 1e-9 * np.linalg.norm(r2)
    residual = np.linalg.norm(m_even @ r2 - r1)
    assert residual <= 2.0 * np.linalg.norm(m_even @ ref - r1)


def test_odd_modes_are_noiseless_and_normal(pipeline):
    *_, dec = pipeline(u0=-0.5, ng=16)
    n = dec.n_grid
    flip = (-np.arange(n)) % n  # grid point j -> n - j under x -> pi - x
    mirror = np.concatenate([[0, 1], 2 + flip, 2 + n + flip])
    right = dec.right
    odd = np.nonzero(
        np.abs(right[mirror] + right).max(axis=0) <= 1e-12 * np.abs(right).max(axis=0)
    )[0]
    assert odd.size == n - 2
    assert np.all(dec.left[odd, 0] == 0.0) and np.all(dec.left[odd, 1] == 0.0)
    assert np.abs(petermann_raw(dec)[odd] - 1.0).max() <= 1e-12


def test_decompose_refuses_a_parity_breaking_matrix(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    m = fm.m.copy()
    m[0, 3] += 1e-3 * (1.0 + 1.0j)  # the corrupt-matrix fault of `verify`
    with pytest.raises(DecompositionError, match="parity"):
        decompose(dataclasses.replace(fm, m=m))


@pytest.mark.parametrize("ng", [16, 64])
@pytest.mark.parametrize("subtract_mu", [True, False])
def test_decompose_spectrum_matches_plain_eigvals(ng, subtract_mu):
    *_, fm, dec = run_pipeline(u0=-0.5, ng=ng, subtract_mu=subtract_mu)
    reference = np.sort(np.linalg.eigvals(fm.m))
    scale = np.abs(dec.omegas).max()
    assert np.abs(np.sort(dec.omegas) - reference).max() <= 1e-9 * scale


@pytest.mark.parametrize("u0, ng", [(-0.5, 16), (-1.0, 64)])
def test_pairs_are_exact_mirror_frequencies(u0, ng):
    *_, dec = run_pipeline(u0=u0, ng=ng)
    modes = np.setdiff1d(np.arange(dec.omegas.size), dec.goldstone)
    assert np.array_equal(dec.omegas[dec.pairing[modes]], -dec.omegas[modes].conj())


def test_decompose_refuses_a_matrix_without_the_g_symmetry(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    m = fm.m.copy()
    m[0, 0] += 1e-3  # keeps reflection parity, breaks G M G = -conj(M)
    with pytest.raises(DecompositionError):
        decompose(dataclasses.replace(fm, m=m))


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


def test_spectrum_sweep_records_failures(pipeline):
    params, grid, *_ = pipeline(u0=0.0, ng=16)
    point = analyze_point(
        dataclasses.replace(params, u0=-0.5), grid, solver_options={"max_iters": 2}
    )
    assert isinstance(point.error, ConvergenceError)
    assert error_status(point.error).startswith("error: ConvergenceError:")
    assert point.state is None and point.fm is None and point.dec is None


def _even_sector(fm):
    p, q, s, *_ = _sector_pairs(fm.n_grid)
    cols = s * (fm.m[:, p] + fm.m[:, q])
    return s[:, None] * (cols[p] + cols[q])


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
    "delta_c, u0, subtract_mu, label",
    [
        (-1000.0, 0.0, True, "marginal"),  # decoupled: g = 0
        (-1000.0, -0.5, True, "stable"),  # the plateau
        (-1000.0, -1.2, True, "unstable"),
        (-100.0, -0.5, True, "unstable"),  # heating: past the cavity resonance
        (-1000.0, -0.5, False, "unstable"),  # no zero level: every pole active
    ],
)
def test_secular_spectrum_matches_eigvals(ng, delta_c, u0, subtract_mu, label):
    params, _, state, fm, dec = run_pipeline(
        u0=u0, ng=ng, delta_c=delta_c, eta=-delta_c, subtract_mu=subtract_mu
    )
    assert classify_stability(dec).label == label
    if delta_c == -100.0:
        assert state.heating
    even = _even_modes(dec)
    assert even.size == ng + 4
    reference = np.linalg.eigvals(_even_sector(fm))
    if subtract_mu:
        # the phase/number pair: exact zeros here, split by +-sqrt(eps) in eig
        assert len(dec.goldstone) == 2 and set(dec.goldstone) <= set(even)
        assert dec.chain == (u0 != 0.0)
        reference = reference[np.argsort(np.abs(reference))[2:]]
    else:
        assert dec.goldstone == ()
    roots = np.setdiff1d(even, dec.goldstone)
    _assert_same_roots(dec.omegas[roots], reference, 1e-11)
    assert np.array_equal(dec.pairing[dec.pairing], np.arange(dec.omegas.size))
    assert dec.biorth_defect <= 1e-10
    if u0 == 0.0:
        # decoupled: the photon line and the free levels, each a unit vector
        # of its own block; only the photon modes carry photon weight
        photon = np.flatnonzero(np.abs(dec.left[:, :2]).max(axis=1) > 0)
        assert photon.size == 2
        assert np.array_equal(photon, np.flatnonzero(np.abs(dec.right[:2]).max(axis=0) > 0))
        for k in photon:
            unit = np.zeros(dec.omegas.size)
            unit[np.argmax(np.abs(dec.right[:2, k]))] = 1.0
            assert np.array_equal(np.abs(dec.right[:, k]), unit)
            assert np.array_equal(np.abs(dec.left[k]), unit)


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
    photon = modes[np.argsort(-np.abs(dec.left[modes, 0] * dec.left[modes, 1]))[:2]]
    assert np.all(dec.omegas[photon].real == 0.0)
    assert np.array_equal(dec.pairing[photon], photon)
    assert abs(dec.omegas[photon[0]] - dec.omegas[photon[1]]) > 0.1
    reference = np.linalg.eigvals(_even_sector(fm))
    for k in photon:
        assert np.abs(reference - dec.omegas[k]).min() <= 1e-11 * np.abs(reference).max()
    if offset == 1e-3:
        assert np.abs(dec.omegas[photon] + 102.26j).min() < 5e-3


def test_decompose_refuses_an_anomalous_matter_block(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    n = fm.n_grid
    m = fm.m.copy()
    # a pairing term dPsi <-> dPsi^dag along the condensate: reflection even,
    # absent from the odd sector, and G M G = -conj(M) still holds, but the
    # even matter blocks are no longer diag(h, -h)
    pairing_term = 0.5 * np.outer(fm.phi, fm.phi)
    m[2 : 2 + n, 2 + n :] += pairing_term
    m[2 + n :, 2 : 2 + n] -= pairing_term
    assert symmetry_defect(m) == 0.0
    with pytest.raises(DecompositionError, match="bordered form"):
        decompose(dataclasses.replace(fm, m=m))


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
    assert list(spectral._mirror_pairing(roots, offsets, 10.0)) == [1, 0, 2, 4, 3]
    with pytest.raises(DecompositionError, match="distinct"):
        spectral._mirror_pairing(np.append(roots, roots[0]), np.append(offsets, 0.0), 10.0)
    with pytest.raises(DecompositionError, match="pair"):
        spectral._mirror_pairing(roots + np.array([0, 0, 0, 0, 0.5]), offsets, 10.0)
    with pytest.raises(DecompositionError, match="trace"):
        spectral._mirror_pairing(roots, offsets + 1e-6, 10.0)
