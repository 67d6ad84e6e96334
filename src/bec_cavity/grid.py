"""Periodic spatial grid on one half-wavelength cell, and the cosine and
sine modes of its two reflection-parity sectors.

The cell is x in [0, pi), sampled uniformly with the endpoint excluded.
Plane waves exp(i*2m*x) are periodic on the cell, so the wavenumbers are
the even integers and the free-particle energies are 4 m^2 in recoil
units.  The quadrature rule is the periodic trapezoid rule (identical to
the midpoint rule on a uniform periodic grid), which is spectrally
accurate for smooth periodic integrands.

The lattice cos^2 x and the condensate are even under x -> pi - x.  On
the grid points the cosines cos 2mx, m = 0 .. n/2, span the even grid
functions and the sines sin 2mx, m = 1 .. n/2 - 1, the odd ones;
normalized on the points, the two sets are one orthonormal basis.  In it
-d^2/dx^2 (the multiplier q^2 of the discrete Fourier transform) is
diag(4 m^2), and cos^2 x couples only neighbouring modes,
cos^2 x cos 2mx = 1/2 cos 2mx + 1/4 cos 2(m - 1)x + 1/4 cos 2(m + 1)x:
a tridiagonal matrix, with 1/(2 sqrt 2) at the cosine block's two corners
(m = 0 <-> 1 and n/2 - 1 <-> n/2), where cos 0 and cos nx carry their
own norm and cos (n + 2)x is cos (n - 2)x on the points.  So the matter
blocks are closed forms, and the grid comes back only where an output is
a grid function, through the synthesis matrix of ``sector_basis``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with its quadrature weight."""

    n: int
    points: np.ndarray
    dx: float


def make_grid(n_points: int) -> Grid:
    """Build the grid with x_j = j*pi/n, j = 0 .. n-1."""
    if n_points < 8 or n_points % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got {n_points}")
    points = np.arange(n_points) * (np.pi / n_points)
    points.setflags(write=False)
    return Grid(n=n_points, points=points, dx=np.pi / n_points)


def potential_profile(grid: Grid, u0: float) -> np.ndarray:
    """Lattice potential u0 * cos(x)^2 sampled on the grid."""
    return u0 * np.cos(grid.points) ** 2


def mirror_points(n: int):
    """Grid points j = 0 .. n/2 and their images (n - j) mod n under x -> pi - x.

    j = 0 and n/2 are the fixed points; every other j pairs with n - j.
    """
    j = np.arange(n // 2 + 1)
    return j, (-j) % n


@dataclass(frozen=True)
class SectorBasis:
    """The cosine (even) or sine (odd) modes of one reflection-parity sector.

    kinetic   -- the free-particle energies 4 m^2: -d^2/dx^2 is diag(kinetic)
    lattice   -- the tridiagonal matrix of cos^2 x
    synthesis -- n x k, column m the mode on the grid points, with unit norm:
                 synthesis @ c is the grid function of the coefficients c,
                 and synthesis.T @ f the coefficients of an f of the sector
    """

    kinetic: np.ndarray
    lattice: np.ndarray
    synthesis: np.ndarray


@functools.lru_cache(maxsize=8)
def sector_basis(n_points: int, odd: bool = False) -> SectorBasis:
    """The modes cos 2mx, m = 0 .. n/2 (or sin 2mx, m = 1 .. n/2 - 1), built
    once per grid size and parity and shared read-only."""
    half = n_points // 2
    m = np.arange(1, half) if odd else np.arange(half + 1)
    # the phase 2 m x_j = pi p / n, p = 2 m j mod 2n reduced exactly in
    # integers and folded onto [0, pi] (the sine onto [0, pi/2]), so that
    # the points j and n - j take the same cosine and opposite sines, bit
    # for bit, and a sine of pi is 0
    p = (2 * np.outer(np.arange(n_points), m)) % (2 * n_points)
    q = np.minimum(p, 2 * n_points - p)
    if odd:
        sines = np.sin((np.pi / n_points) * np.minimum(q, n_points - q))
        synthesis = np.sqrt(2.0 / n_points) * np.where(p > n_points, -sines, sines)
    else:
        synthesis = np.sqrt(2.0 / n_points) * np.cos((np.pi / n_points) * q)
    lattice = 0.5 * np.eye(m.size) + 0.25 * (np.eye(m.size, k=1) + np.eye(m.size, k=-1))
    if not odd:
        synthesis[:, [0, -1]] *= np.sqrt(0.5)
        lattice[[0, 1, -1, -2], [1, 0, -2, -1]] = np.sqrt(0.125)
    basis = SectorBasis(kinetic=4.0 * m.astype(float) ** 2, lattice=lattice, synthesis=synthesis)
    for array in (basis.kinetic, basis.lattice, basis.synthesis):
        array.setflags(write=False)
    return basis


def integrate(grid: Grid, values: np.ndarray) -> complex:
    """Quadrature of a grid function: sum of the samples times dx."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
    return complex(values.sum() * grid.dx)
