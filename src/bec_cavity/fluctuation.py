"""Linearized fluctuation generator around the mean-field steady state.

Fluctuations are arranged as the vector

    R = [da, da^dag, dPsi(x_0..x_{n-1}), dPsi^dag(x_0..x_{n-1})]

and obey i dR/dt = M R + i xi with xi = [xi, xi^dag, 0, 0].  M is dense,
complex and non-normal.  Discretization conventions: rows that realize
an integral operator (the photon rows) carry the quadrature weight dx;
rows that act pointwise (the matter rows) carry none.  With the
condensate phase rotated away, the matter diagonal blocks are
H0 - mu (the shift is the ``subtract_mu`` switch; without it the matrix
is built in the bare frame).

The permutation G exchanging da <-> da^dag and dPsi <-> dPsi^dag gives
the exact symmetry G M G = -conj(M), which pairs the eigenvalues as
(w, -conj(w)).  The lattice cos^2 x is even under x -> pi - x, so M also
commutes with that reflection and splits into an even and an odd sector.
Its matter blocks are H0 - mu and -(H0 - mu) with no anomalous blocks,
and its photon rows and columns carry one coupling profile, so the even
sector is an arrowhead that ``spectral.decompose`` solves from a scalar
secular equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Grid, kinetic_matrix, potential_profile
from .meanfield import MeanFieldState
from .params import SystemParams


@dataclass
class FluctuationMatrix:
    """Dense generator plus the context needed downstream.

    m       -- complex matrix of dimension 2*n_grid + 2
    a_diag  -- photon diagonal A = -delta_c + N<U> - i*kappa
    phi     -- real condensate amplitude on the grid (gauge fixed)
    """

    m: np.ndarray
    a_diag: complex
    n_grid: int
    dx: float
    phi: np.ndarray
    mu: float
    kappa: float
    subtract_mu: bool


def gamma_transform(v: np.ndarray) -> np.ndarray:
    """Apply the block swap (da <-> da^dag, dPsi <-> dPsi^dag) to a vector."""
    v = np.asarray(v)
    dim = v.shape[0]
    if dim < 4 or dim % 2 != 0:
        raise ValueError(f"state vector length must be even and >= 4, got {dim}")
    n = (dim - 2) // 2
    out = np.empty_like(v)
    out[0], out[1] = v[1], v[0]
    out[2 : 2 + n] = v[2 + n :]
    out[2 + n :] = v[2 : 2 + n]
    return out


def build_matrix(
    state: MeanFieldState,
    params: SystemParams,
    grid: Grid,
    *,
    subtract_mu: bool = True,
) -> FluctuationMatrix:
    """Assemble M from a converged mean-field state.

    Requires state.converged and the real-nonnegative gauge for phi.
    """
    if not state.converged:
        raise ValueError("mean-field state is not converged")
    phi = np.asarray(state.phi)
    if np.abs(phi.imag).max() > 1e-10:
        raise ValueError("phi must be gauge fixed to a real wavefunction")
    phi = phi.real.copy()

    n = grid.n
    dx = grid.dx
    alpha = complex(state.alpha)
    u_pot = potential_profile(grid, params.u0)
    sqrt_n = np.sqrt(params.n_atoms)
    y = sqrt_n * phi * u_pot  # pointwise coupling profile
    coupl = phi * u_pot * dx * sqrt_n  # integral-operator row, weight included

    a_diag = -params.delta_c + params.n_atoms * state.u_avg - 1j * params.kappa
    h0 = kinetic_matrix(grid) + np.diag(np.abs(alpha) ** 2 * u_pot)
    if subtract_mu:
        h0 = h0 - state.mu * np.eye(n)

    dim = 2 * n + 2
    m = np.zeros((dim, dim), dtype=complex)
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

    return FluctuationMatrix(
        m=m,
        a_diag=a_diag,
        n_grid=n,
        dx=dx,
        phi=phi,
        mu=state.mu,
        kappa=params.kappa,
        subtract_mu=subtract_mu,
    )


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


def non_normality(fm: FluctuationMatrix) -> float:
    """Frobenius norm of the commutator [M, M^dag], zero iff M is normal."""
    m = fm.m
    mh = m.conj().T
    return float(np.linalg.norm(m @ mh - mh @ m))


def save_matrix(fm: FluctuationMatrix, path: str) -> None:
    """Dump M as row-major re/im pairs for debugging."""
    payload = {
        "dim": fm.m.shape[0],
        "n_grid": fm.n_grid,
        "subtract_mu": fm.subtract_mu,
        "data": [[z.real, z.imag] for z in fm.m.ravel()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
