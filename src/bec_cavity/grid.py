"""Periodic spatial grid on one half-wavelength cell.

The cell is x in [0, pi), sampled uniformly with the endpoint excluded.
Plane waves exp(i*2n*x) are periodic on the cell, so the wavenumbers are
the even integers and the free-particle energies are 4 n^2 in recoil
units.  The quadrature rule is the periodic trapezoid rule (identical to
the midpoint rule on a uniform periodic grid), which is spectrally
accurate for smooth periodic integrands.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with quadrature weight and plane-wave set."""

    n: int
    points: np.ndarray
    dx: float
    wavenumbers: np.ndarray


def make_grid(n_points: int) -> Grid:
    """Build the grid with x_j = j*pi/n, j = 0 .. n-1."""
    if n_points < 8 or n_points % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n_points}")
    points = np.arange(n_points) * (np.pi / n_points)
    # fftfreq(n, 1/n) enumerates the integers 0..n/2-1, -n/2..-1 in FFT order
    wavenumbers = 2.0 * np.fft.fftfreq(n_points, 1.0 / n_points)
    points.setflags(write=False)
    wavenumbers.setflags(write=False)
    return Grid(n=n_points, points=points, dx=np.pi / n_points, wavenumbers=wavenumbers)


def potential_profile(grid: Grid, u0: float) -> np.ndarray:
    """Lattice potential u0 * cos(x)^2 sampled on the grid."""
    return u0 * np.cos(grid.points) ** 2


def mirror_points(n: int):
    """Grid points j = 0 .. n/2 and their images (n - j) mod n under x -> pi - x.

    j = 0 and n/2 are the fixed points; every other j pairs with n - j.
    """
    j = np.arange(n // 2 + 1)
    return j, (-j) % n


def _mirror_embedding(n: int, odd: bool):
    """(j, mj, s, op) of the orthonormal reflection embedding S of the grid.

    Even column c of S is s_c (e_j + e_(n-j)) for the points j = 0 .. n/2,
    with s = 1/2 on the fixed points j = n - j (the column is e_j) and
    1/sqrt 2 on the mirror pairs; odd column c is (e_j - e_(n-j)) / sqrt 2
    for j = 1 .. n/2 - 1.  Together the two are an orthogonal basis.
    """
    j, mj = mirror_points(n)
    if odd:
        return j[1:-1], mj[1:-1], np.sqrt(0.5), np.subtract
    return j, mj, np.where(j == mj, 0.5, np.sqrt(0.5)), np.add


def mirror_fold(values: np.ndarray, odd: bool = False) -> np.ndarray:
    """S^T v of a grid vector, or S^T A S of a grid matrix, for the even
    (or odd) embedding S of ``_mirror_embedding``.

    Index gathers only, in one fixed order (columns first; combine the
    mirror pair, then scale), so a fold is reproducible to the last bit.
    """
    j, mj, s, op = _mirror_embedding(values.shape[0], odd)
    if values.ndim == 1:
        return op(values[j], values[mj]) * s
    cols = op(values[:, j], values[:, mj]) * s
    return op(cols[j], cols[mj]) * np.reshape(s, (-1, 1))


def mirror_unfold(values: np.ndarray, odd: bool = False) -> np.ndarray:
    """S x along the first axis: sector rows back on the grid points.

    A fixed point takes its row whole; the two points of a mirror pair
    take s times it, with the sign of the sector on n - j.  The odd
    sector leaves the fixed points zero.
    """
    n = 2 * values.shape[0] + (2 if odd else -2)
    j, mj, s, _ = _mirror_embedding(n, odd)
    rows = values * np.reshape(np.where(j == mj, 1.0, s), (-1,) + (1,) * (values.ndim - 1))
    out = np.zeros((n,) + values.shape[1:], values.dtype)
    out[j] = rows
    out[mj] = -rows if odd else rows  # a fixed point (mj = j) gets its row again
    return out


def multiplier_matrix(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Dense point-basis matrix of the Fourier multiplier diag(symbol(q)).

    Built by conjugating the diagonal in the plane-wave basis with the
    DFT; the symbol must be even in q, so the matrix is real.
    """
    mat = np.fft.ifft(symbol[:, None] * np.fft.fft(np.eye(grid.n), axis=0), axis=0)
    return mat.real


def kinetic_matrix(grid: Grid) -> np.ndarray:
    """Dense matrix of -d^2/dx^2 in the point basis.

    The multiplier q^2, symmetrized, so its eigenvalues are the exact
    free-particle energies 4 n^2 up to roundoff.  It depends on the grid
    size alone, so it is built once per size and shared read-only.
    """
    return _kinetic_matrix(grid.n)


@functools.lru_cache(maxsize=4)
def _kinetic_matrix(n_points: int) -> np.ndarray:
    grid = make_grid(n_points)
    mat = multiplier_matrix(grid, grid.wavenumbers**2)
    mat = 0.5 * (mat + mat.T)
    mat.setflags(write=False)
    return mat


def integrate(grid: Grid, values: np.ndarray) -> complex:
    """Quadrature of a grid function: sum of the samples times dx."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
    return complex(values.sum() * grid.dx)
