"""Self-consistent mean-field steady state of the condensate-cavity system.

The coupled equations are

    i d(alpha)/dt = [-delta_c + N <U> - i kappa] alpha + i eta
    i d(phi)/dt   = [-d^2/dx^2 + |alpha|^2 U(x)] phi

with <U> = integral of U |phi|^2.  The stationary cavity amplitude for a
given <U> is the closed form ``steady_alpha``.

The steady state is the fixed point u = <U>(ground state of
K + |alpha(u)|^2 U).  The ground state is reflection even and <U> is a
scalar, so a secant polish on F(u) = <U>(u) - u solves it to near machine
precision on the (n/2 + 1)-dimensional even block of H0, in the cosine
modes of ``grid.sector_basis`` H(u) = diag(4 m^2) + |alpha(u)|^2 u0 T,
T the tridiagonal matrix of cos^2 x.  Its eigenvector and H0 phi are
synthesized on the grid once, at the end.  The polish takes one
``eigh`` of H, the anchor.  Each later step finds the ground state by
shifted inverse iteration from the previous vector, an LU solve or two,
and certifies it by Weyl's bound against the anchor's ground level and
gap; a step the bound does not certify takes a fresh anchor, so the
certificate costs time, never a point.

The polish needs a starting <U> near the root, which an imaginary-time
start gives: split-step propagation of the uniform condensate (a
normalized gradient flow, Bao & Du, SIAM J. Sci. Comput. 25, 1674, 2004),
the cavity amplitude updated under-relaxed after every step.  The start
and every split step are even under the reflection x -> pi - x, so it
runs on the n/2 + 1 values phi[j], j = 0 .. n/2: the kinetic step is one
product with the propagator exp(-dt K) folded over the mirror pairs
(j, n - j), built from the cosine modes.

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

from .grid import Grid, SectorBasis, mirror_points, potential_profile, sector_basis
from .params import SystemParams


# the imaginary-time start: its step, its stop on the sup-norm change of phi
# per unit of imaginary time (TOL_PHI, so TOL_PHI * ITP_DT per step) and of
# alpha per step (TOL_ALPHA), the under-relaxation of alpha, and the cap on
# its steps.  The step sets only the start's cost (a median 446 steps over
# the shipped detunings and light shifts, 1,102 at 4e-3); a larger step
# leaves the polish more secant steps, each an LU solve or two
ITP_DT = 1e-2
TOL_PHI = 1e-9
TOL_ALPHA = 1e-10
MIXING = 0.3
MAX_ITERS = 1_000_000
# cap on the secant steps of the fixed-point polish, which takes 1-6 from
# the start (a median of 3 at n = 16, 4 at n = 64 and 200; one eigh and a
# mean of 2.3-2.5 LU solves per solve) over the shipped detunings and
# light shifts -0.01 .. -1.2
SECANT_STEPS = 50
# the polish's inverse iteration: its shift below the Rayleigh quotient and
# its stop on the eigen-residual, both relative to ||H||, and its cap on LU
# solves per step (it takes at most 2).  A stop at 1e-14 ||H|| would leave
# <U> about 5e-11 off at n = 200
RQI_SHIFT = 1e-10
RQI_TOL = 4.0 * np.finfo(float).eps
RQI_SOLVES = 3


class ConvergenceError(RuntimeError):
    """Imaginary-time iteration exhausted MAX_ITERS steps, or took a step
    that is not finite.

    Carries the final residuals in ``residual_phi`` and ``residual_alpha``.
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
    H0 = kinetic + |alpha|^2 U(x).  residual_phi is max|H0 phi - mu phi|;
    residual_alpha is |alpha - alpha'|, where alpha = steady_alpha(u_avg)
    and alpha' is the amplitude whose lattice depth phi is the ground state
    of.  iterations counts the imaginary-time steps of the start.  heating
    flags delta_c - N<U> > 0, the regime where cavity back-action
    amplifies atomic motion.
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


def solve_ground_state(params: SystemParams, grid: Grid) -> MeanFieldState:
    """Solve the coupled mean-field equations for the steady state.

    The imaginary-time start gives <U> near the fixed point, at a cost
    set by ITP_DT; the polish then solves the fixed point to the discrete
    ground state of H0 in the cosine modes, so the result does not depend
    on the step, and phi is synthesized on the grid once.  The polish
    takes one anchor ``eigh`` and certified inverse-iteration steps.

    Raises ConvergenceError when the start exhausts MAX_ITERS steps or
    takes a step that is not finite.
    """
    _, _, u_start, iterations = _imaginary_time_start(params, grid)
    basis = sector_basis(grid.n)
    vec, alpha, u_avg, alpha_built = _polish_fixed_point(params, basis, u_start)

    # H0 vec in the cosine modes; mu and max|H0 phi - mu phi| on the grid
    # from one synthesis of vec and H0 vec
    h_vec = basis.kinetic * vec + (np.abs(alpha) ** 2 * params.u0) * (basis.lattice @ vec)
    mu = float(vec @ h_vec)
    phi, h_phi = (basis.synthesis @ np.column_stack([vec, h_vec])).T / np.sqrt(grid.dx)
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
    )


def _polish_fixed_point(params, basis: SectorBasis, u_avg):
    """Polish the fixed point to the discrete ground state of H0.

    The split-step fixed point carries an O(dt^2) bias relative to the
    discrete ground state.  That state is reflection even, so it is the
    lowest eigenvector of the (n/2 + 1)-dimensional even block
    H(u) = diag(4 m^2) + d(u) U, d(u) = |alpha(u)|^2 and U = u0 T the
    lattice in the cosine modes.  With alpha = steady_alpha(u) the fixed
    point is the root of F(u) = <U> - u; a secant method started at the
    imaginary-time <U> finds it, and stops when |F| stops falling.

    The first F(u) is an anchor: one ``eigh``, which keeps the ground
    state, its level lambda0 and the gap g to the next level.  Every later
    F(u) takes the ground state of H(u) by shifted inverse iteration from
    the previous vector (``_inverse_iteration``), and certifies it by
    Weyl's bound: H(u) - H(anchor) = (d(u) - d_anchor) U, whose 2-norm is
    |d(u) - d_anchor| |u0| (the levels of T are the values of cos^2 x on
    the even points, 1 at x = 0), so with
    delta = |d(u) - d_anchor| |u0| + ||H v - lambda v||, the vector is the
    ground state when |lambda - lambda0| <= delta and 2 delta < g
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).  A step the
    bound does not certify takes a fresh anchor at its u.

    Returns the unit eigenvector, phi's cosine coefficients times
    sqrt(dx), with its alpha and <U>, and the alpha whose lattice depth
    built it.
    """
    kinetic = np.diag(basis.kinetic)
    lattice = params.u0 * basis.lattice
    u_scale = abs(params.u0)
    anchor = {}

    def ground_state(u, vec):
        depth = np.abs(steady_alpha(params, u)) ** 2
        ham = kinetic + depth * lattice
        if anchor:
            shift = abs(depth - anchor["depth"]) * u_scale
            # ||H(u)||_2 by Weyl's bound from the anchor's extreme levels
            found = _inverse_iteration(ham, vec, anchor["norm"] + shift)
            if found is not None:
                vec, level, resid = found
                delta = shift + resid
                if abs(level - anchor["level"]) <= delta and 2.0 * delta < anchor["gap"]:
                    return vec
        levels, vecs = np.linalg.eigh(ham)
        anchor.update(
            depth=depth,
            level=levels[0],
            gap=levels[1] - levels[0],
            norm=max(abs(levels[0]), abs(levels[-1])),
        )
        return vecs[:, 0]

    def residual(u, vec):
        """(F(u), the even ground state it comes from)."""
        vec = ground_state(u, vec)
        return float(vec @ lattice @ vec) - u, vec

    u_built = u_avg
    f, vec = residual(u_built, None)
    if f != 0.0:
        best_abs, best_vec = abs(f), vec
        # a fixed-point step gives the second secant point
        u_prev, f_prev, u = u_avg, f, u_avg + f
        for step in range(SECANT_STEPS):
            f, vec = residual(u, vec)
            if abs(f) < best_abs:
                best_abs, best_vec, u_built = abs(f), vec, u
            elif step:
                break  # |F| stopped falling
            if f == 0.0 or f == f_prev:
                break
            u_prev, f_prev, u = u, f, u - f * (u - u_prev) / (f - f_prev)
        vec = best_vec
    u_avg = float(vec @ lattice @ vec)
    return vec, steady_alpha(params, u_avg), u_avg, steady_alpha(params, u_built)


def _inverse_iteration(ham, vec, norm):
    """Rayleigh-quotient iteration on a real symmetric ham from the unit vec.

    Each solve is shifted to just below the Rayleigh quotient lambda, by
    RQI_SHIFT ||ham||, so the LU is never exactly singular; it stops when
    ||ham v - lambda v|| <= RQI_TOL ||ham||.  Returns (v, lambda,
    ||ham v - lambda v||), which the caller certifies, or None when
    RQI_SOLVES solves do not get there.
    """
    eye = np.eye(vec.size)
    for solve in range(RQI_SOLVES + 1):
        h_vec = ham @ vec
        level = float(vec @ h_vec)
        resid = float(np.linalg.norm(h_vec - level * vec))
        if resid <= RQI_TOL * norm:
            return vec, level, resid
        if solve < RQI_SOLVES:
            vec = np.linalg.solve(ham - (level - RQI_SHIFT * norm) * eye, vec)
            vec /= np.linalg.norm(vec)
    return None
