import numpy as np
import pytest

from bec_cavity import integrate, make_grid, potential_profile
from bec_cavity.grid import mirror_points, sector_basis
from bec_cavity.meanfield import ITP_DT, _folded_propagator
from conftest import dense_kinetic, wavenumbers


@pytest.fixture(scope="module")
def grid():
    return make_grid(64)


def test_points_cover_one_period(grid):
    assert grid.points[0] == 0.0
    assert grid.points[-1] < np.pi
    assert np.allclose(np.diff(grid.points), grid.dx)


def test_quadrature_of_one_is_period(grid):
    assert integrate(grid, np.ones(grid.n)) == pytest.approx(np.pi, abs=1e-14)


def test_quadrature_of_cos_squared(grid):
    f = np.cos(grid.points) ** 2
    assert integrate(grid, f) == pytest.approx(np.pi / 2, abs=1e-13)


def test_normalized_state_integrates_to_one(grid):
    phi = np.full(grid.n, 1.0 / np.sqrt(np.pi))
    assert integrate(grid, np.abs(phi) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_integrate_rejects_wrong_length(grid):
    with pytest.raises(ValueError):
        integrate(grid, np.ones(grid.n + 1))


def test_integrate_is_linear_and_conjugation_commuting(grid):
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    g = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = integrate(grid, a * f + b * g)
    rhs = a * integrate(grid, f) + b * integrate(grid, g)
    assert abs(lhs - rhs) < 1e-12
    assert integrate(grid, f.conj()) == pytest.approx(
        np.conj(integrate(grid, f)), abs=1e-14
    )


def _grid_kinetic(n):
    """The package's -d^2/dx^2 on the grid points: diag(4 m^2) in the
    cosine and sine modes, synthesized."""
    even, odd = sector_basis(n), sector_basis(n, odd=True)
    return sum(b.synthesis @ np.diag(b.kinetic) @ b.synthesis.T for b in (even, odd))


@pytest.mark.parametrize("n", [8, 16, 64, 200])
def test_cosine_and_sine_modes_are_one_orthonormal_basis(n):
    modes = np.hstack([sector_basis(n).synthesis, sector_basis(n, odd=True).synthesis])
    assert modes.shape == (n, n)
    assert np.abs(modes.T @ modes - np.eye(n)).max() <= 1e-14
    points = make_grid(n).points
    m = np.arange(n // 2 + 1)
    # column m is cos 2mx (sin 2mx), to its norm; the even ones mirror-even
    cosines = sector_basis(n).synthesis
    assert np.abs(cosines * np.sqrt(n / 2.0) * np.where((m == 0) | (m == n // 2), np.sqrt(2.0), 1.0)
                  - np.cos(2.0 * np.outer(points, m))).max() <= 1e-12
    sines = sector_basis(n, odd=True).synthesis
    assert np.abs(sines * np.sqrt(n / 2.0) - np.sin(2.0 * np.outer(points, m[1:-1]))).max() <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 64, 200])
@pytest.mark.parametrize("odd", [False, True])
def test_sector_blocks_are_the_dense_operators_in_the_modes(n, odd):
    # the closed forms against the dense FFT kinetic matrix and the lattice
    # sampled on the points: diag(4 m^2), and T tridiagonal with 1/2 and 1/4
    # (1/(2 sqrt 2) at the cosine block's two corners)
    grid = make_grid(n)
    basis = sector_basis(n, odd=odd)
    modes = basis.synthesis
    kinetic = modes.T @ dense_kinetic(grid) @ modes
    assert np.abs(kinetic - np.diag(basis.kinetic)).max() <= 1e-14 * basis.kinetic.max()
    lattice = modes.T @ (np.cos(grid.points)[:, None] ** 2 * modes)
    assert np.abs(lattice - basis.lattice).max() <= 1e-15
    k = basis.kinetic.size
    assert np.array_equal(basis.lattice, basis.lattice.T)
    assert np.array_equal(np.diag(basis.lattice), np.full(k, 0.5))
    corner = np.sqrt(0.125) if not odd else 0.25
    assert list(np.diag(basis.lattice, 1)[[0, -1]]) == [corner, corner]
    assert np.all(np.diag(basis.lattice, 1)[1:-1] == 0.25)
    assert np.count_nonzero(basis.lattice) == 3 * k - 2


def test_kinetic_annihilates_constant(grid):
    k = _grid_kinetic(grid.n)
    assert sector_basis(grid.n).kinetic[0] == 0.0
    assert np.abs(k @ np.ones(grid.n)).max() < 1e-11


def test_kinetic_eigenfunction_cos_two_x(grid):
    k = _grid_kinetic(grid.n)
    f = np.cos(2.0 * grid.points)
    assert np.abs(k @ f - 4.0 * f).max() < 1e-10


def test_kinetic_is_exactly_symmetric(pipeline):
    # diagonal in the modes, so the matter blocks H0 - mu of both sectors
    # are exactly symmetric, as the lattice's matrix T is
    *_, fm, _ = pipeline(u0=-0.5, ng=16)
    n_e = fm.phi_even.size
    h = fm.even[2 : 2 + n_e, 2 : 2 + n_e]
    assert np.array_equal(h, h.T)
    assert np.array_equal(fm.h_odd, fm.h_odd.T)


def test_kinetic_spectrum_matches_free_particle(grid):
    # independent oracle: the dense FFT matrix's levels are the two
    # sectors' 4 m^2, each nonzero level once in each sector but the last
    eigs = np.sort(np.linalg.eigvalsh(dense_kinetic(grid)))
    levels = np.sort(np.concatenate([sector_basis(grid.n).kinetic,
                                     sector_basis(grid.n, odd=True).kinetic]))
    assert np.abs(eigs - levels).max() <= 1e-10 * levels.max()
    for n in range(1, grid.n // 2):
        assert (levels == 4.0 * n**2).sum() == 2, f"level 4*{n}^2 not doubly degenerate"
    assert levels[0] == 0.0


def test_potential_profile_range_and_symmetry(grid):
    u0 = -0.7
    u = potential_profile(grid, u0)
    ratio = u / u0
    assert ratio.min() >= -1e-15 and ratio.max() <= 1.0 + 1e-15
    # symmetric about x = pi/2 on the grid, i.e. under j -> n - j
    mirrored = u[(-np.arange(grid.n)) % grid.n]
    assert np.abs(u - mirrored).max() < 1e-14


def test_grid_matrices_are_built_once_and_read_only():
    for n in (16, 64):
        grid_n = make_grid(n)
        for odd in (False, True):
            basis = sector_basis(n, odd=odd)
            assert sector_basis(n, odd=odd) is basis
            for array in (basis.kinetic, basis.lattice, basis.synthesis):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        j, mj = mirror_points(n)
        step = _folded_propagator(n, ITP_DT)
        assert _folded_propagator(n, ITP_DT) is step
        # the dense FFT propagator, its columns j and n - j summed
        kinetic_step = np.fft.ifft(
            np.exp(-ITP_DT * wavenumbers(grid_n) ** 2)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
        ).real
        expected = kinetic_step[np.ix_(j, j)]
        expected[:, 1:-1] += kinetic_step[np.ix_(j, mj[1:-1])]
        assert np.abs(step - expected).max() <= 1e-15
        with pytest.raises(ValueError, match="read-only"):
            step[0, 0] = 1.0
        # keyed on the step too: a patched ITP_DT never reads a stale propagator
        assert not np.array_equal(_folded_propagator(n, 2.0 * ITP_DT), step)
