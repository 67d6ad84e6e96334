import numpy as np
import pytest

from bec_cavity import (
    SystemParams,
    build_matrix,
    decompose,
    make_grid,
    solve_ground_state,
    validate,
)

_CACHE = {}


def run_pipeline(
    u0=-0.5,
    ng=16,
    delta_c=-1000.0,
    kappa=100.0,
    eta=1000.0,
    n_atoms=1000,
):
    """Solve + build + decompose, cached across the whole test session."""
    key = (u0, ng, delta_c, kappa, eta, n_atoms)
    if key not in _CACHE:
        params = validate(
            SystemParams(
                delta_c=delta_c, kappa=kappa, eta=eta, u0=u0,
                n_atoms=n_atoms, grid_points=ng,
            )
        )
        grid = make_grid(ng)
        state = solve_ground_state(params, grid)
        fm = build_matrix(state, params, grid)
        dec = decompose(fm)
        _CACHE[key] = (params, grid, state, fm, dec)
    return _CACHE[key]


@pytest.fixture(scope="session")
def pipeline():
    return run_pipeline


def wavenumbers(grid):
    """The plane waves' wavenumbers q = 2m in FFT order: fftfreq(n, 1/n)
    enumerates the integers 0 .. n/2 - 1, -n/2 .. -1."""
    return 2.0 * np.fft.fftfreq(grid.n, 1.0 / grid.n)


def dense_kinetic(grid):
    """-d^2/dx^2 on the grid points: the multiplier q^2 conjugated by the
    DFT, symmetrized.  A dense reference that shares nothing with the
    package's cosine and sine modes."""
    symbol = wavenumbers(grid)[:, None] ** 2
    mat = np.fft.ifft(symbol * np.fft.fft(np.eye(grid.n), axis=0), axis=0).real
    return 0.5 * (mat + mat.T)
