import numpy as np
import pytest

from bec_cavity import integrate, kinetic_matrix, make_grid, potential_profile
from bec_cavity.grid import mirror_points, multiplier_matrix
from bec_cavity.meanfield import ITP_DT, _fold, _folded_propagator


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


def test_kinetic_annihilates_constant(grid):
    k = kinetic_matrix(grid)
    assert np.abs(k @ np.ones(grid.n)).max() < 1e-11


def test_kinetic_eigenfunction_cos_two_x(grid):
    k = kinetic_matrix(grid)
    f = np.cos(2.0 * grid.points)
    assert np.abs(k @ f - 4.0 * f).max() < 1e-10


def test_kinetic_is_exactly_symmetric(grid):
    k = kinetic_matrix(grid)
    assert np.array_equal(k, k.T)


def test_kinetic_spectrum_matches_free_particle(grid):
    # independent oracle: dense symmetric diagonalization against 4 n^2
    k = kinetic_matrix(grid)
    eigs = np.sort(np.linalg.eigvalsh(k))
    ns = np.sort(np.abs(2.0 * np.fft.fftfreq(grid.n, 2.0 / grid.n)))
    expected = np.sort((2.0 * np.fft.fftfreq(grid.n, 1.0 / grid.n)) ** 2)
    assert eigs.shape == expected.shape
    for n in range(1, grid.n // 4):
        target = 4.0 * n**2
        close = np.abs(eigs - target) < 1e-10 * target
        assert close.sum() >= 2, f"missing doubly degenerate level 4*{n}^2"
    assert abs(eigs[0]) < 1e-10


def test_potential_profile_range_and_symmetry(grid):
    u0 = -0.7
    u = potential_profile(grid, u0)
    ratio = u / u0
    assert ratio.min() >= -1e-15 and ratio.max() <= 1.0 + 1e-15
    # symmetric about x = pi/2 on the grid, i.e. under j -> n - j
    mirrored = u[(-np.arange(grid.n)) % grid.n]
    assert np.abs(u - mirrored).max() < 1e-14


def test_grid_matrices_are_built_once_and_read_only():
    grid = make_grid(64)
    kin = kinetic_matrix(grid)
    assert kinetic_matrix(make_grid(64)) is kin
    fresh = multiplier_matrix(grid, grid.wavenumbers**2)
    assert np.array_equal(kin, 0.5 * (fresh + fresh.T))
    for n in (16, 64):
        grid_n = make_grid(n)
        j, mj = mirror_points(n)
        step = _folded_propagator(n, ITP_DT)
        assert _folded_propagator(n, ITP_DT) is step
        symbol = np.exp(-ITP_DT * grid_n.wavenumbers**2)
        expected = _fold(multiplier_matrix(grid_n, symbol), j, mj)
        assert np.array_equal(step, expected)
        with pytest.raises(ValueError, match="read-only"):
            step[0, 0] = 1.0
        # keyed on the step too: a patched ITP_DT never reads a stale propagator
        assert not np.array_equal(_folded_propagator(n, 2.0 * ITP_DT), step)
    with pytest.raises(ValueError, match="read-only"):
        kin[0, 0] = 1.0
