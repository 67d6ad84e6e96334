import dataclasses

import numpy as np
import pytest

from bec_cavity import build_matrix, potential_profile, symmetry_defect
from bec_cavity.fluctuation import synthesize_sector
from bec_cavity.grid import sector_basis
from conftest import dense_kinetic, run_pipeline


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
    assert fm.even[0, 0] == pytest.approx(1000.0 - 100.0j)
    assert m[0, 0] == fm.even[0, 0] and m[1, 1] == -np.conj(fm.even[0, 0])
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
    n = grid.n
    h0 = dense_kinetic(grid) + np.diag(abs(state.alpha) ** 2 * potential_profile(grid, params.u0))
    expect = h0 - state.mu * np.eye(n)
    assert np.abs(fm.m[2 : 2 + n, 2 : 2 + n] - expect).max() < 1e-12
    assert np.abs(fm.m[2 + n :, 2 + n :] + expect).max() < 1e-12
    # in the frame of mu the condensate phase (0, 0, phi, -phi) is a zero mode
    phi = state.phi.real
    phase = np.concatenate([[0.0, 0.0], phi, -phi])
    assert np.abs(fm.m @ phase).max() <= 1e-10 * fm.scale


def _dense_generator(state, params, grid):
    """M entry by entry in the layout of R, independent of the sector build."""
    n, dx = grid.n, grid.dx
    phi = state.phi.real
    alpha = complex(state.alpha)
    u_pot = potential_profile(grid, params.u0)
    sqrt_n = np.sqrt(params.n_atoms)
    y = sqrt_n * phi * u_pot
    coupl = phi * u_pot * dx * sqrt_n
    a_diag = -params.delta_c + params.n_atoms * state.u_avg - 1j * params.kappa
    h0 = dense_kinetic(grid) + np.diag(np.abs(alpha) ** 2 * u_pot) - state.mu * np.eye(n)
    m = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    m[0, 0] = a_diag
    m[1, 1] = -np.conj(a_diag)
    m[0, 2 : 2 + n] = alpha * coupl
    m[0, 2 + n :] = alpha * coupl
    m[1, 2 : 2 + n] = -np.conj(alpha) * coupl
    m[1, 2 + n :] = -np.conj(alpha) * coupl
    m[2 : 2 + n, 0] = np.conj(alpha) * y
    m[2 : 2 + n, 1] = alpha * y
    m[2 + n :, 0] = -np.conj(alpha) * y
    m[2 + n :, 1] = -alpha * y
    m[2 : 2 + n, 2 : 2 + n] = h0
    m[2 + n :, 2 + n :] = -h0
    return m


@pytest.mark.parametrize("ng", [16, 64, 200])
@pytest.mark.parametrize("u0", [-0.5, 0.0], ids=["-0.5-True", "0.0-True"])
def test_sectors_are_the_folds_of_the_dense_generator(ng, u0):
    # the sectors are the dense M folded onto the cosine (even) and sine
    # (odd) modes, M's own rows and columns of each block projected
    params, grid, state, fm, _ = run_pipeline(u0=u0, ng=ng)
    ref = _dense_generator(state, params, grid)
    n, k = ng, ng // 2 - 1
    cosines = sector_basis(n).synthesis
    sines = sector_basis(n, odd=True).synthesis
    even = synthesize_sector(np.eye(2 * cosines.shape[1] + 2))  # E
    odd = np.block([[sines, np.zeros_like(sines)], [np.zeros_like(sines), sines]])
    folded_odd = odd.T @ ref[2:, 2:] @ odd

    # max|M| on the grid, kept as the reference of every relative threshold
    assert abs(fm.scale - np.abs(ref).max()) <= 1e-12 * fm.scale
    assert abs(fm.scale - np.abs(fm.m).max()) <= 1e-12 * fm.scale
    assert np.abs(fm.even - even.T @ ref @ even).max() <= 1e-14 * fm.scale
    assert np.abs(fm.h_odd - folded_odd[:k, :k]).max() <= 1e-14 * fm.scale
    assert np.abs(fm.phi_even - cosines.T @ state.phi.real).max() <= 1e-14 * np.abs(fm.phi_even).max()
    # what the sector form leaves out of the dense M is roundoff
    cross = odd.T @ ref[2:, :] @ even
    assert np.abs(cross).max() <= 1e-14 * fm.scale
    assert np.abs(folded_odd[k:, k:] + folded_odd[:k, :k]).max() <= 1e-14 * fm.scale
    assert np.abs(folded_odd[:k, k:]).max() <= 1e-14 * fm.scale
    assert np.abs(fm.m - ref).max() <= 1e-14 * fm.scale
    with pytest.raises(ValueError, match="read-only"):
        fm.m[0, 3] += 1.0
