"""Linearized fluctuation generator around the mean-field steady state.

Fluctuations are arranged as the vector

    R = [da, da^dag, dPsi(x_0..x_{n-1}), dPsi^dag(x_0..x_{n-1})]

and obey i dR/dt = M R + i xi with xi = [xi, xi^dag, 0, 0].  M is
complex and non-normal.  Discretization conventions: rows that realize
an integral operator (the photon rows) carry the quadrature weight dx;
rows that act pointwise (the matter rows) carry none.  M is taken in
the frame that rotates with the chemical potential, with the condensate
phase rotated away: the matter diagonal blocks are H0 - mu and
-(H0 - mu), with no anomalous blocks, and the condensate phase
fluctuation (0, 0, phi, -phi) is a zero mode.

The permutation G exchanging da <-> da^dag and dPsi <-> dPsi^dag gives
the exact symmetry G M G = -conj(M), which pairs the eigenvalues as
(w, -conj(w)).  The lattice cos^2 x and the condensate are even under
x -> pi - x, so M commutes with that reflection and is held as its two
sectors, folded straight from the mean-field state by the orthonormal
embedding of ``grid.mirror_fold``.  The even sector holds the photon
pair and the even matter modes: an arrowhead, matter blocks h and -h
with one coupling profile in the photon rows and columns, which
``spectral.decompose`` solves from a scalar secular equation.  The odd
sector never touches the photon: it is diag(h_odd, -h_odd) with
h_odd the odd fold of H0 - mu.  No coupling between the sectors can be
represented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, kinetic_matrix, mirror_fold, mirror_unfold, potential_profile
from .meanfield import MeanFieldState
from .params import SystemParams


@dataclass
class FluctuationMatrix:
    """The generator as its two reflection-parity sectors.

    even     -- (n + 4)-square complex block: photon rows 0 and 1, then the
                points j = 0 .. n/2 of the field block and of the conjugate
                block
    h_odd    -- (n/2 - 1)-square real symmetric odd fold of H0 - mu; the
                odd sector is diag(h_odd, -h_odd)
    phi_even -- the real condensate amplitude folded onto the even points
    scale    -- max|M|, the reference for every relative threshold
    m        -- the dense (2 n + 2)-square M, assembled read-only on access
    """

    even: np.ndarray
    h_odd: np.ndarray
    phi_even: np.ndarray
    scale: float
    n_grid: int
    dx: float
    kappa: float

    @property
    def m(self) -> np.ndarray:
        return _dense_generator(self)


def build_matrix(
    state: MeanFieldState,
    params: SystemParams,
    grid: Grid,
) -> FluctuationMatrix:
    """The parity sectors of M from a converged mean-field state.

    Requires state.converged and the real-nonnegative gauge for phi.
    """
    if not state.converged:
        raise ValueError("mean-field state is not converged")
    phi = np.asarray(state.phi)
    if np.abs(phi.imag).max() > 1e-10:
        raise ValueError("phi must be gauge fixed to a real wavefunction")
    phi = phi.real

    n = grid.n
    dx = grid.dx
    alpha = complex(state.alpha)
    u_pot = potential_profile(grid, params.u0)
    sqrt_n = np.sqrt(params.n_atoms)
    y = sqrt_n * phi * u_pot  # pointwise coupling profile
    coupl = phi * u_pot * dx * sqrt_n  # integral-operator row, weight included

    a_diag = -params.delta_c + params.n_atoms * state.u_avg - 1j * params.kappa
    # H0 - mu: one copy of the cached kinetic matrix, its diagonal
    # (K_jj + |alpha|^2 u_j) - mu
    h0 = kinetic_matrix(grid).copy()
    np.fill_diagonal(h0, (np.diagonal(h0) + np.abs(alpha) ** 2 * u_pot) - state.mu)

    row = alpha * coupl  # photon row a on the field block
    col = np.conj(alpha) * y  # field rows of the photon column a
    # the entries of M are these, their conjugates and negatives, and A
    # (|A| by numpy's abs too, which may differ from hypot in the last bit)
    scale = max(np.abs(a_diag), np.abs(row).max(), np.abs(col).max(), np.abs(h0).max())
    h_odd = mirror_fold(h0, odd=True)
    return FluctuationMatrix(
        even=bordered_sector(a_diag, mirror_fold(row), mirror_fold(col), mirror_fold(h0)),
        h_odd=0.5 * (h_odd + h_odd.T),
        phi_even=mirror_fold(phi),
        scale=float(scale),
        n_grid=n,
        dx=dx,
        kappa=params.kappa,
    )


def sector_blocks(a_diag: complex, row: np.ndarray, col: np.ndarray, h: np.ndarray):
    """The even sector's bordered form, block by block: (index, entries)
    pairs that cover the sector, with G M G = -conj(M) built in.

    A and -conj(A) on the photon diagonal, matter blocks h and -h, photon
    row a equal to row on both matter blocks and photon column a equal to
    col and -col; photon row and column a^dag are their G images.  Every
    other block is zero.
    """
    n_e = h.shape[0]
    f, c = slice(2, 2 + n_e), slice(2 + n_e, None)
    return [
        ((0, 0), a_diag), ((1, 1), -np.conj(a_diag)), ((0, 1), 0.0), ((1, 0), 0.0),
        ((0, f), row), ((0, c), row), ((1, f), -row.conj()), ((1, c), -row.conj()),
        ((f, 0), col), ((c, 0), -col), ((f, 1), col.conj()), ((c, 1), -col.conj()),
        ((f, f), h), ((c, c), -h), ((f, c), 0.0), ((c, f), 0.0),
    ]


def bordered_sector(a_diag: complex, row: np.ndarray, col: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The even sector assembled from its blocks (``sector_blocks``)."""
    dim = 2 + 2 * h.shape[0]
    even = np.empty((dim, dim), dtype=complex)
    for index, entries in sector_blocks(a_diag, row, col, h):
        even[index] = entries
    return even


def unfold_sector(x: np.ndarray, odd: bool = False) -> np.ndarray:
    """S x: the rows of a parity sector's layout on the rows of M's.

    The even layout is the photon pair, then the points j = 0 .. n/2 of
    the field block and of the conjugate block; the odd layout has no
    photon rows and the points j = 1 .. n/2 - 1 of each block.
    """
    photon = 0 if odd else 2
    field, conj = np.split(x[photon:], 2)
    return np.concatenate([x[:photon], mirror_unfold(field, odd), mirror_unfold(conj, odd)])


def _dense_generator(fm: FluctuationMatrix) -> np.ndarray:
    """M = E even E^T + O diag(h_odd, -h_odd) O^T, read-only.

    Each entry is scaled copies of one or two sector entries, the same
    operations on both halves of every G pair, so G M G = -conj(M) holds
    exactly when the sectors carry it.
    """
    m = unfold_sector(unfold_sector(fm.even).T).T
    h = fm.h_odd
    zero = np.zeros_like(h)
    odd = np.block([[h, zero], [zero, -h]])
    m[2:, 2:] += unfold_sector(unfold_sector(odd, odd=True).T, odd=True).T
    m.setflags(write=False)
    return m


def symmetry_defect(m: np.ndarray) -> float:
    """Max-entry magnitude of G M G + conj(M); zero for a valid build."""
    dim = m.shape[0]
    n = (dim - 2) // 2
    perm = np.empty(dim, dtype=int)
    perm[0], perm[1] = 1, 0
    perm[2 : 2 + n] = np.arange(2 + n, dim)
    perm[2 + n :] = np.arange(2, 2 + n)
    g_m_g = m[np.ix_(perm, perm)]
    return float(np.abs(g_m_g + np.conj(m)).max())
