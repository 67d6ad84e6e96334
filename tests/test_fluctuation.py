import dataclasses

import numpy as np
import pytest

from bec_cavity import build_matrix, symmetry_defect


def test_symmetry_holds_exactly(pipeline):
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    assert symmetry_defect(fm.m) <= 1e-13


def test_gamma_symmetry_applied_columnwise(pipeline):
    *_, fm, _ = pipeline(u0=-0.3, ng=16)
    m = fm.m
    dim = m.shape[0]
    n = (dim - 2) // 2
    # G swaps da <-> da^dag and dPsi <-> dPsi^dag
    swap = np.concatenate([[1, 0], np.arange(2 + n, dim), np.arange(2, 2 + n)])
    g = np.eye(dim)[swap]
    assert np.abs(g @ m @ g + m.conj()).max() <= 1e-13


def test_block_diagonal_without_coupling(pipeline):
    params, grid, state, fm, _ = pipeline(u0=0.0, ng=16)
    n = grid.n
    m = fm.m
    assert np.abs(m[:2, 2:]).max() == 0.0
    assert np.abs(m[2:, :2]).max() == 0.0
    assert fm.a_diag == pytest.approx(1000.0 - 100.0j)
    assert m[0, 0] == fm.a_diag and m[1, 1] == -np.conj(fm.a_diag)
    assert np.abs(m[2 : 2 + n, 2 + n :]).max() == 0.0


def test_spectrum_without_coupling_is_photon_plus_free_gas(pipeline):
    *_, fm, _ = pipeline(u0=0.0, ng=16)
    eigs = np.linalg.eigvals(fm.m)
    for target in (1000.0 - 100.0j, -1000.0 - 100.0j):
        assert np.abs(eigs - target).min() < 1e-8 * abs(target)
    for n in (1, 2, 3):
        for sign in (1.0, -1.0):
            target = sign * 4.0 * n**2
            assert (np.abs(eigs - target) < 1e-8 * abs(target)).sum() >= 2


def test_goldstone_vector_is_null(pipeline):
    params, grid, state, fm, _ = pipeline(u0=-0.5, ng=16)
    n = grid.n
    v = np.zeros(2 * n + 2, dtype=complex)
    v[2 : 2 + n] = state.phi.real
    v[2 + n :] = -state.phi.real
    v /= np.linalg.norm(v)
    assert np.abs(fm.m @ v).max() < 1e-8 * np.abs(fm.m).max()


def test_non_normality_vanishes_only_without_coupling(pipeline):
    *_, fm0, _ = pipeline(u0=0.0, ng=16)
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    scale0 = np.linalg.norm(fm0.m) ** 2
    scale = np.linalg.norm(fm.m) ** 2

    def commutator(m):  # Frobenius norm of [M, M^dag], zero iff M is normal
        return np.linalg.norm(m @ m.conj().T - m.conj().T @ m)

    assert commutator(fm0.m) < 1e-8 * scale0
    assert commutator(fm.m) > 1e-8 * scale


def test_matter_rows_couple_to_both_photon_quadratures(pipeline):
    params, grid, _, fm, _ = pipeline(u0=-0.5, ng=16)
    n = grid.n
    assert np.abs(fm.m[2 : 2 + n, 0]).max() > 0.0
    assert np.abs(fm.m[2 : 2 + n, 1]).max() > 0.0


def test_rejects_unconverged_state(pipeline):
    params, grid, state, *_ = pipeline(u0=-0.5, ng=16)
    broken = dataclasses.replace(state, converged=False)
    with pytest.raises(ValueError, match="not converged"):
        build_matrix(broken, params, grid)


def test_mu_subtraction_shifts_matter_blocks(pipeline):
    params, grid, state, fm, _ = pipeline(u0=-0.5, ng=16)
    bare = build_matrix(state, params, grid, subtract_mu=False)
    n = grid.n
    diff = bare.m - fm.m
    expect = state.mu * np.eye(n)
    assert np.abs(diff[2 : 2 + n, 2 : 2 + n] - expect).max() < 1e-12
    assert np.abs(diff[2 + n :, 2 + n :] + expect).max() < 1e-12
    assert np.abs(diff[:2, :]).max() == 0.0
