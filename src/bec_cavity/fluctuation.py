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
sectors, in the cosine and sine modes of ``grid.sector_basis``, where
each block is a closed form: h = diag(4 m^2) + |alpha|^2 u0 T - mu, T the
tridiagonal matrix of cos^2 x, and the coupling y = sqrt(N) u0 T v of the
condensate's cosine coefficients v.  The even sector holds the photon
pair and the even matter modes: an arrowhead, matter blocks h and -h
with one coupling profile in the photon rows and columns, which
``spectral.decompose`` solves from a scalar secular equation.  The odd
sector never touches the photon: it is diag(h_odd, -h_odd), h_odd the
same form in the sine modes.  No coupling between the sectors can be
represented.  The grid layout above is synthesized only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, potential_profile, sector_basis
from .meanfield import MeanFieldState
from .params import SystemParams


@dataclass
class FluctuationMatrix:
    """The generator as its two reflection-parity sectors.

    even     -- (n + 4)-square complex block: photon rows 0 and 1, then the
                cosine modes m = 0 .. n/2 of the field block and of the
                conjugate block
    h_odd    -- (n/2 - 1)-square real symmetric H0 - mu in the sine modes
                m = 1 .. n/2 - 1; the odd sector is diag(h_odd, -h_odd)
    phi_even -- the cosine coefficients of the real condensate amplitude
    scale    -- max|M| of M on the grid points, the reference for every
                relative threshold
    m        -- the dense (2 n + 2)-square M on the grid points, synthesized
                read-only on access; read by the benchmark's tracer and
                the tests, never by the solve chain
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
    depth = np.abs(alpha) ** 2 * params.u0
    sqrt_n = np.sqrt(params.n_atoms)
    even, odd = sector_basis(n), sector_basis(n, odd=True)
    phi_even = even.synthesis.T @ phi
    y = (sqrt_n * params.u0) * (even.lattice @ phi_even)  # sqrt N U phi
    row = (alpha * dx) * y  # photon row a on the field block, weight included
    col = np.conj(alpha) * y  # field rows of the photon column a
    a_diag = -params.delta_c + params.n_atoms * state.u_avg - 1j * params.kappa
    h = depth * even.lattice + np.diag(even.kinetic - state.mu)  # H0 - mu
    h_odd = depth * odd.lattice + np.diag(odd.kinetic - state.mu)

    # max|M| on the grid, where M holds A, the coupling rows (the photon
    # row is dx < 1 times the column) and H0 - mu, whose kinetic part is the
    # circulant with first column kin
    u_pot = potential_profile(grid, params.u0)
    kin = even.synthesis @ (even.kinetic * even.synthesis[0])
    kin[0] = np.abs(kin[0] + np.abs(alpha) ** 2 * u_pot - state.mu).max()
    col_max = np.abs(alpha) * sqrt_n * np.abs(phi * u_pot).max()
    scale = max(np.abs(a_diag), col_max, np.abs(kin).max())
    return FluctuationMatrix(
        even=bordered_sector(a_diag, row, col, h),
        h_odd=h_odd,
        phi_even=phi_even,
        scale=float(scale),
        n_grid=n,
        dx=dx,
        kappa=params.kappa,
    )


def border_blocks(a_diag: complex, row: np.ndarray, col: np.ndarray):
    """The photon rows and columns of the even sector's bordered form:
    (index, entries) pairs, with G M G = -conj(M) built in.

    A and -conj(A) on the photon diagonal, photon row a equal to row on
    both matter blocks and photon column a equal to col and -col; photon
    row and column a^dag are their G images.  The matter blocks, h and -h
    with zero blocks between them, complete the sector.
    """
    n_e = row.size
    f, c = slice(2, 2 + n_e), slice(2 + n_e, None)
    return [
        ((0, 0), a_diag), ((1, 1), -np.conj(a_diag)), ((0, 1), 0.0), ((1, 0), 0.0),
        ((0, f), row), ((0, c), row), ((1, f), -row.conj()), ((1, c), -row.conj()),
        ((f, 0), col), ((c, 0), -col), ((f, 1), col.conj()), ((c, 1), -col.conj()),
    ]


def bordered_sector(a_diag: complex, row: np.ndarray, col: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The even sector assembled from its border (``border_blocks``) and
    its matter blocks h and -h."""
    n_e = h.shape[0]
    even = np.zeros((2 + 2 * n_e, 2 + 2 * n_e), dtype=complex)
    for index, entries in border_blocks(a_diag, row, col):
        even[index] = entries
    even[2 : 2 + n_e, 2 : 2 + n_e] = h
    even[2 + n_e :, 2 + n_e :] = -h
    return even


def synthesize_sector(x: np.ndarray) -> np.ndarray:
    """E x: the even sector's rows of x in the layout of M on the grid.

    E keeps the photon rows 0 and 1 and synthesizes the field block and
    the conjugate block from their cosine modes m = 0 .. n/2, one product
    per block.
    """
    field, conj = np.split(x[2:], 2)
    synthesis = sector_basis(2 * field.shape[0] - 2).synthesis
    return np.concatenate([x[:2], synthesis @ field, synthesis @ conj])


def _dense_generator(fm: FluctuationMatrix) -> np.ndarray:
    """M = E even E^T + O diag(h_odd, -h_odd) O^T on the grid, read-only.

    E even E^T is synthesized one block at a time: the rows of each of the
    sector's column blocks, then the columns of each of the grid's row
    blocks, with real and imaginary parts by separate real products.  The
    two halves of every G pair take the same operations on inputs that
    differ only in sign, so G M G = -conj(M) holds exactly when the
    sectors carry it.
    """
    n, n_e = fm.n_grid, fm.phi_even.size
    m = np.empty((2 * n + 2, 2 * n + 2), dtype=complex)
    for part, out in ((fm.even.real, m.real), (fm.even.imag, m.imag)):
        rows = np.hstack([synthesize_sector(b) for b in np.split(part, [1, 2, 2 + n_e], axis=1)])
        np.concatenate([synthesize_sector(b.T).T for b in np.split(rows, [1, 2, 2 + n])], out=out)
    sines = sector_basis(n, odd=True).synthesis
    odd = sines @ fm.h_odd @ sines.T
    m[2 : 2 + n, 2 : 2 + n] += odd
    m[2 + n :, 2 + n :] -= odd
    m.setflags(write=False)
    return m


def symmetry_defect(m: np.ndarray) -> float:
    """Max-entry magnitude of G M G + conj(M); zero for a valid build.

    m is M on the grid or its even sector: both order their rows as
    (a, a^dag, field block, conjugate block), which G swaps pairwise.
    """
    dim = m.shape[0]
    n = (dim - 2) // 2
    perm = np.empty(dim, dtype=int)
    perm[0], perm[1] = 1, 0
    perm[2 : 2 + n] = np.arange(2 + n, dim)
    perm[2 + n :] = np.arange(2, 2 + n)
    g_m_g = m[np.ix_(perm, perm)]
    return float(np.abs(g_m_g + np.conj(m)).max())
