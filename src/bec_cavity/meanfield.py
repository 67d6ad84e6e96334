"""Self-consistent mean-field steady state of the condensate-cavity system.

The coupled equations are

    i d(alpha)/dt = [-delta_c + N <U> - i kappa] alpha + i eta
    i d(phi)/dt   = [-d^2/dx^2 + |alpha|^2 U(x)] phi

with <U> = integral of U |phi|^2.  The stationary cavity amplitude for a
given <U> is the closed form ``steady_alpha``.

The steady state is the fixed point u = <U>(ground state of
K + |alpha(u)|^2 U).  The ground state is reflection even and <U> is a
scalar, so a secant polish on F(u) = <U>(u) - u solves it to near machine
precision in the cosine modes of ``grid.sector_basis``, where
H(u) = diag(4 m^2) + |alpha(u)|^2 u0 T, T the tridiagonal matrix of
cos^2 x.  Its ground vector and H0 phi are synthesized on the grid once,
at the end.

The block.  The condensate's cosine coefficients v_m fall
super-exponentially, as a Mathieu function's do, so it occupies the
leading few of the n/2 + 1 modes whatever n is (5 to 16 above eps max|v|
on the shipped sweep).  The polish runs on the leading b modes:
kinetic[:b] and lattice[:b, :b] of the n-grid's own H, which are exactly
H's leading block, so neither its cost nor its rounding grows with n.  T
couples the block to the rest through one entry, so H applied to the
block's ground vector v, padded with zeros, leaves the block's own
eigen-residual and a spill t |v_{b-1}| on mode b, t = |alpha|^2 |u0|
T[b-1, b] (1/4 away from the corner).  By the Davis-Kahan sin theta
theorem the full ground state is about t |v_{b-1}| / gap away from v
(Parlett, The Symmetric Eigenvalue Problem, SIAM 1998), while the
block's ``eigh`` leaves an eigen-residual of at most EIGH_RESIDUAL
||H_b||, which leaves v about EIGH_RESIDUAL ||H_b|| / gap away from the
block's own ground state.  So the block is certified when

    t |v_{b-1}| <= EIGH_RESIDUAL ||H_b||:

the cut then moves the state no more than the block's own rounding does.
The first b takes every cosine coefficient of the start above eps of its
largest and the next one, or every mode of the start's grid when none
falls to eps.  A block that fails the certificate doubles, up to n/2 + 1,
where nothing spills and the certificate holds by itself, and is
polished again from the current <U>.  residual_phi is still taken on the
full grid with the full H0, spill included, so a block too small shows
there as well.

Each evaluation of F(u) in the polish is one ``eigh`` of the block's
H(u): its ground vector gives <U>, and its extreme levels give ||H_b||_2
for the certificate.

The start.  The polish needs a starting <U> near the root, which an
imaginary-time start gives: split-step propagation of the uniform
condensate (a normalized gradient flow, Bao & Du, SIAM J. Sci. Comput.
25, 1674, 2004), the cavity amplitude updated under-relaxed after every
step.  The start and every split step are even under the reflection
x -> pi - x, so it runs on the values phi[j], j = 0 .. n/2, of its grid:
the kinetic step is one product with the propagator exp(-dt K) folded
over the mirror pairs (j, n - j), built from the cosine modes.  It only
seeds the polish, so its grid is its own: the smallest even grid that
holds every mode one kinetic step exp(-4 m^2 ITP_DT) does not damp below
eps, m <= sqrt(ln(1/eps) / (4 ITP_DT)) (60 points at ITP_DT = 1e-2), or
the n-grid when that is smaller.  It runs once: on a lattice so deep
that the condensate fills every mode of that grid, the start still seeds
the polish, and the block then begins with all of the start grid's modes.

The step dt sets only the start's cost.  Its stop rule bounds the change
of phi per unit of imaginary time, so the start ends about as close to
the flow's fixed point whatever dt is; the splitting's O(dt^2) bias
moves only the polish's starting <U>, and the polish solves the same
discrete fixed point from there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, make_grid, mirror_points, potential_profile, sector_basis
from .params import SystemParams


# the imaginary-time start: its step, its stop on the sup-norm change of phi
# per unit of imaginary time (TOL_PHI, so TOL_PHI * ITP_DT per step) and of
# alpha per step (TOL_ALPHA), the under-relaxation of alpha, and the cap on
# the steps of each of its runs.  The step sets the start's cost (a median
# 446 steps over the shipped detunings and light shifts, 1,102 at 4e-3)
# and its grid (60 points at 1e-2); a larger step leaves the polish more
# secant steps, each one eigh of the block
ITP_DT = 1e-2
TOL_PHI = 1e-9
TOL_ALPHA = 1e-10
MIXING = 0.3
MAX_ITERS = 1_000_000
# cap on the secant steps of the fixed-point polish, which takes 2-7 from
# the start (a median of 3 at n = 16, 64 and 200, so a median of 4 and at
# most 8 eigh calls per solve) over the shipped detunings and light shifts
# -0.02 .. -1.04
SECANT_STEPS = 50
# a bound on the eigen-residual an eigh of the polish's block leaves,
# relative to the block's ||H||_2 (under 0.5 eps on the shipped sweep); it
# also bounds the spill of the block's truncation certificate.  The block's
# norm is set by its 6 to 18 modes on the shipped sweep, not by the grid's
# n/2 + 1, so neither the bound nor what the block's rounding leaves in <U>
# grows with n
EIGH_RESIDUAL = 4.0 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """Imaginary-time iteration exhausted MAX_ITERS steps, or took a step
    that is not finite.

    ``residual_phi`` and ``residual_alpha`` hold the changes over the last
    step, the sup-norm change of phi and the change of alpha, which the
    stop rule reads; the message gives them as well.
    """

    def __init__(self, message: str, residual_phi: float, residual_alpha: float):
        super().__init__(message)
        self.residual_phi = residual_phi
        self.residual_alpha = residual_alpha


@dataclass
class MeanFieldState:
    """Converged self-consistent solution.

    phi is gauge fixed: real, nonnegative at the potential minimum, and
    normalized so that integrate(|phi|^2) = 1.  mu is the chemical
    potential <phi|H0|phi> of the final single-particle Hamiltonian
    H0 = kinetic + |alpha|^2 U(x).  residual_phi is max|H0 phi - mu phi|
    on the grid, with the full H0; residual_alpha is |alpha - alpha'|,
    where alpha = steady_alpha(u_avg) and alpha' is the amplitude whose
    lattice depth phi is the ground state of.  iterations counts the
    imaginary-time steps of the start, which runs once on its own grid.
    block is the number b of leading cosine modes
    phi was solved on, and tail = |v_{b-1}| / max|v| the truncation
    certificate's last coefficient (module docstring).  heating flags
    delta_c - N<U> > 0, the regime where cavity back-action amplifies
    atomic motion.
    """

    phi: np.ndarray
    alpha: complex
    u_avg: float
    mu: float
    converged: bool
    residual_phi: float
    residual_alpha: float
    iterations: int
    heating: bool
    block: int
    tail: float


def steady_alpha(params: SystemParams, u_avg: float) -> complex:
    """Stationary cavity amplitude i*eta / (delta_c - N*u_avg + i*kappa).

    The denominator never vanishes for kappa > 0, so the root is unique
    and finite; |alpha|^2 = eta^2 / ((delta_c - N*u_avg)^2 + kappa^2).
    """
    return 1j * params.eta / (params.delta_c - params.n_atoms * u_avg + 1j * params.kappa)


@functools.lru_cache(maxsize=4)
def _folded_propagator(n_points: int, dt: float) -> np.ndarray:
    """The kinetic step exp(-dt K) on the even values j = 0 .. n/2, built
    once per grid size and step and shared read-only.

    On an even grid function it is C diag(exp(-dt 4 m^2)) C^T with C the
    cosine synthesis; C^T sums the points j_c and n - j_c, once on the
    fixed points j = 0, n/2.
    """
    j, mj = mirror_points(n_points)
    basis = sector_basis(n_points)
    cosines = basis.synthesis[j]
    step = (cosines * np.exp(-dt * basis.kinetic)) @ (cosines.T * np.where(j == mj, 1.0, 2.0))
    step.setflags(write=False)
    return step


def _imaginary_time_start(params: SystemParams, grid: Grid):
    """Split-step imaginary-time propagation from the uniform condensate
    on the even values, alpha under-relaxed after every step.

    Stops when the sup-norm change of phi per step falls below
    TOL_PHI * ITP_DT and the change of alpha below TOL_ALPHA, and returns
    (phi at j = 0 .. n/2, alpha, <U>, steps).  Raises ConvergenceError
    at the first step that is not finite (a lattice so deep that
    exp(-dt/2 |alpha|^2 U) overflows) and when MAX_ITERS steps are
    exhausted.
    """
    # each value's quadrature weight, dx on the fixed points j = 0, n/2 and
    # 2 dx on the mirror pairs, and the lattice there
    j, mj = mirror_points(grid.n)
    weight = np.where(j == mj, grid.dx, 2.0 * grid.dx)
    u_pot = potential_profile(grid, params.u0)
    u_even = 0.5 * (u_pot[j] + u_pot[mj])
    u_weight = weight * u_even
    propagator = _folded_propagator(grid.n, ITP_DT)

    phi = np.full(j.size, 1.0 / np.sqrt(np.pi))
    u_avg = float(u_weight @ phi**2)
    alpha = steady_alpha(params, u_avg)

    d_phi = d_alpha = np.inf
    # a lattice step that overflows turns phi nan; the check below stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_ITERS + 1):
            half = np.exp((-0.5 * ITP_DT * abs(alpha) ** 2) * u_even)
            phi_new = propagator @ (half * phi)
            phi_new *= half
            phi_new /= np.sqrt(weight @ phi_new**2)

            u_new = float(u_weight @ phi_new**2)
            alpha_new = (1.0 - MIXING) * alpha + MIXING * steady_alpha(params, u_new)

            d_phi = float(abs(phi_new - phi).max())
            d_alpha = abs(alpha_new - alpha)
            if not (math.isfinite(d_phi) and math.isfinite(d_alpha)):
                raise ConvergenceError(
                    f"imaginary-time step {iterations} is not finite "
                    f"(|d phi| = {d_phi:.3e}, |d alpha| = {d_alpha:.3e})",
                    residual_phi=d_phi,
                    residual_alpha=float(d_alpha),
                )
            phi, alpha, u_avg = phi_new, alpha_new, u_new

            if d_phi < TOL_PHI * ITP_DT and d_alpha < TOL_ALPHA:
                return phi, alpha, u_avg, iterations

    raise ConvergenceError(
        f"no convergence after {MAX_ITERS} imaginary-time steps "
        f"(|d phi| = {d_phi:.3e}, |d alpha| = {d_alpha:.3e})",
        residual_phi=d_phi,
        residual_alpha=float(d_alpha),
    )


def _start(params: SystemParams, n_points: int):
    """The imaginary-time start on its own grid (module docstring).

    Returns (<U>, phi's cosine coefficients on the start's grid, steps).
    """
    eps = np.finfo(float).eps
    size = min(n_points, 2 * int(math.sqrt(math.log(1.0 / eps) / (4.0 * ITP_DT))))
    phi, _, u_avg, steps = _imaginary_time_start(params, make_grid(size))
    # the cosine coefficients of the even values, up to a common factor
    j, mj = mirror_points(size)
    coeffs = sector_basis(size).synthesis[j].T @ (np.where(j == mj, 1.0, 2.0) * phi)
    return u_avg, coeffs, steps


def _first_block(coeffs: np.ndarray) -> int:
    """The first block: the leading modes up to the start's first cosine
    coefficient at or below eps of its largest, or all of the start
    grid's modes."""
    small = np.abs(coeffs) <= np.finfo(float).eps * np.abs(coeffs).max()
    return int(np.argmax(small)) + 1 if small.any() else coeffs.size


def solve_ground_state(params: SystemParams, grid: Grid) -> MeanFieldState:
    """Solve the coupled mean-field equations for the steady state.

    The imaginary-time start gives <U> near the fixed point, at a cost
    set by ITP_DT; the polish then solves the fixed point to the discrete
    ground state of H0 on a certified block of leading cosine modes, so
    the result depends neither on the step nor, once n holds the block,
    on the grid, and phi is synthesized on the grid once.  The polish
    takes one ``eigh`` of the block per evaluation of the fixed point.

    Raises ConvergenceError when the start exhausts MAX_ITERS steps or
    takes a step that is not finite.
    """
    u_avg, coeffs, iterations = _start(params, grid.n)
    basis = sector_basis(grid.n)
    size = basis.kinetic.size
    block = _first_block(coeffs)
    while True:
        kinetic, lattice = basis.kinetic[:block], basis.lattice[:block, :block]
        vec, alpha, u_avg, alpha_built, norm = _polish_fixed_point(params, kinetic, lattice, u_avg)
        # H0 vec in the cosine modes: the block's rows, then the one entry
        # across the cut, which is the certificate's spill t v_{b-1}
        depth = np.abs(alpha) ** 2 * params.u0
        h_vec = kinetic * vec + depth * (lattice @ vec)
        spill = depth * (basis.lattice[block - 1, block] if block < size else 0.0) * vec[-1]
        if abs(spill) <= EIGH_RESIDUAL * norm:
            break
        block = min(2 * block, size)

    mu = float(vec @ h_vec)
    # phi and H0 phi on the grid from one synthesis; max|H0 phi - mu phi|
    # there, the spill included
    modes = np.zeros((min(block + 1, size), 2))
    modes[:block] = np.column_stack([vec, h_vec])
    modes[block:, 1] = spill
    phi, h_phi = (basis.synthesis[:, : modes.shape[0]] @ modes).T / np.sqrt(grid.dx)
    residual_phi = float(np.abs(h_phi - mu * phi).max())
    # gauge: real phi, nonnegative at the potential minimum
    if phi[int(np.argmin(potential_profile(grid, params.u0)))] < 0:
        phi = -phi
    # alpha_built set the lattice depth of phi; alpha is steady_alpha of phi's <U>
    residual_alpha = abs(alpha - alpha_built)
    heating = (params.delta_c - params.n_atoms * u_avg) > 0

    return MeanFieldState(
        phi=phi.astype(complex),
        alpha=complex(alpha),
        u_avg=u_avg,
        mu=mu,
        converged=True,
        residual_phi=residual_phi,
        residual_alpha=float(residual_alpha),
        iterations=iterations,
        heating=heating,
        block=block,
        tail=float(abs(vec[-1]) / np.abs(vec).max()),
    )


def _polish_fixed_point(params, kinetic, lattice, u_avg):
    """Polish the fixed point to the discrete ground state of H0 on a block
    of leading cosine modes.

    The split-step fixed point carries an O(dt^2) bias relative to the
    discrete ground state.  That state is reflection even, so it is the
    lowest eigenvector of H(u) = diag(kinetic) + d(u) U, d(u) = |alpha(u)|^2
    and U = u0 lattice, the block of cos^2 x.  With alpha = steady_alpha(u)
    the fixed point is the root of F(u) = <U> - u; a secant method started
    at u_avg finds it, and stops when |F| stops falling.

    Each F(u) is one ``eigh`` of H(u), whose ground vector gives <U>.

    Returns the unit eigenvector, phi's leading cosine coefficients times
    sqrt(dx), with its alpha and <U>, the alpha whose lattice depth built
    it, and ||H||_2 of that depth, max(|lambda_0|, |lambda_max|).
    """
    kinetic = np.diag(kinetic)
    lattice = params.u0 * lattice

    def residual(u):
        """(F(u), the even ground state it comes from, ||H(u)||_2)."""
        depth = np.abs(steady_alpha(params, u)) ** 2
        levels, vecs = np.linalg.eigh(kinetic + depth * lattice)
        vec = vecs[:, 0]
        return float(vec @ lattice @ vec) - u, vec, max(abs(levels[0]), abs(levels[-1]))

    u_built = u_avg
    f, vec, norm = residual(u_built)
    if f != 0.0:
        best_abs, best = abs(f), (vec, norm)
        # a fixed-point step gives the second secant point
        u_prev, f_prev, u = u_avg, f, u_avg + f
        for step in range(SECANT_STEPS):
            f, vec, norm = residual(u)
            if abs(f) < best_abs:
                best_abs, best, u_built = abs(f), (vec, norm), u
            elif step:
                break  # |F| stopped falling
            if f == 0.0 or f == f_prev:
                break
            u_prev, f_prev, u = u, f, u - f * (u - u_prev) / (f - f_prev)
        vec, norm = best
    u_avg = float(vec @ lattice @ vec)
    return vec, steady_alpha(params, u_avg), u_avg, steady_alpha(params, u_built), norm
