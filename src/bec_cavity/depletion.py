"""Cavity-noise-induced condensate depletion.

Two independent routes to the same number:

* the quasi-normal-mode double sum

      dN(t) = 2 kappa  sum_{k,l} f(w_k + w_l, t) l1_k l2_l O_kl,

  with f(z, t) = (1 - exp(-i z t)) / (i z), the photon components
  l1_k = left[k, 0], l2_l = left[l, 1] of the left vectors, and the
  unconjugated overlap O_kl = dx * sum_j r4_k(x_j) r3_l(x_j); the
  steady state drops the exponential.  The odd modes of the reflection
  x -> pi - x have l1 = l2 = 0 exactly, so the sum runs over the pairs
  of photon-weighted (even) modes alone, about a quarter of the dim^2;

* the second-moment (Lyapunov) oracle, which never touches the
  eigenbasis: the ordered moment matrix S = <R R^T> obeys
  dS/dt = -i M S - i S M^T + D with the single noise entry
  D[0, 1] = 2 kappa, and dN = dx * trace of the (dPsi^dag, dPsi) block;
  its Kronecker form costs dim^6, so it runs on at most ORACLE_MAX_GRID
  grid points.

The condensate phase/number chain sector is excluded from the sums and
its noise drive is projected out of the oracle: photon noise leaking
through the number mode makes the condensate phase diffuse, which shows
up in the unprojected <dPsi^dag dPsi> as secular growth that is
condensate bookkeeping, not occupation of other modes.  Both routes
apply the same exclusion, so they remain directly comparable.

Every command reaches these sums through ``analyze_point``, the one
chain mean field -> generator M -> biorthogonal modes -> stability
verdict.  It records the exception that stops the chain instead of
raising it, so a failed point becomes a status and never aborts a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .fluctuation import FluctuationMatrix, build_matrix
from .grid import Grid
from .meanfield import MeanFieldState, solve_ground_state
from .params import SystemParams
from .spectral import ModeDecomposition, StabilityReport, classify_stability, decompose

# numerical resolution floor for frequency sums and for the singular values
# of the second-moment flow; anything below it counts as exactly zero
Z_FLOOR = 1e-11
# largest grid the Kronecker (dim^2-square) second-moment oracle runs on
ORACLE_MAX_GRID = 32


class StabilityError(RuntimeError):
    """Steady-state depletion requested for a non-stable steady state."""


class OracleSingularError(RuntimeError):
    """The steady second-moment equation has no solution: noise drives an
    undamped direction (marginal or unstable dynamics)."""


@dataclass
class DepletionResult:
    """Depletion values at the requested times.

    times may contain math.inf for the steady-state entry.  A value is
    nan where the mode sum overflows: a growing mode at a long time.
    """

    times: list[float]
    values: list[float]


@dataclass
class SteadyDepletion:
    """Steady-state double sum, or a divergence marker.

    value is None exactly when diverged is True: some pair has a
    frequency denominator below the numerical resolution floor while
    carrying non-negligible photon noise weight, the signature of the
    cavity resonance.  excluded_modes lists the modes whose own
    symmetry pair falls under the zero-denominator skip rule; feeding
    them to the Lyapunov oracle's deflation makes the two routes
    compute the same observable.
    """

    value: float | None
    diverged: bool
    dominated_fraction: float | None
    excluded_modes: tuple[int, ...] = ()


def finite_time_kernel(z, t: float):
    """(1 - exp(-i z t)) / (i z), series branch near z t = 0.

    The four-term series keeps the relative error below 1e-12 at the
    switchover |z t| = 1e-4 and removes the 0/0 at z = 0 (the kernel
    tends to t there).
    """
    z = np.asarray(z, dtype=complex)
    zt = z * t
    small = np.abs(zt) < 1e-4
    w = -1j * np.where(small, zt, 0.0)
    series = t * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
    safe = np.where(small, 1.0, z)
    direct = (1.0 - np.exp(-1j * np.where(small, 0.0, zt))) / (1j * safe)
    return np.where(small, series, direct)


def _pair_data(dec: ModeDecomposition):
    """(modes, photon, weight, zsum) on the modes that carry photon weight.

    Odd modes have l1 = l2 = 0 exactly, so only pairs of the returned
    modes can have a nonzero weight l1_k l2_l O_kl; photon = l1_k l2_l,
    weight and zsum are indexed by positions in ``modes``.
    """
    n = dec.n_grid
    l1 = dec.left[:, 0]
    l2 = dec.left[:, 1]
    modes = np.flatnonzero((l1 != 0) | (l2 != 0))
    r3 = dec.right[2 : 2 + n, modes]
    r4 = dec.right[2 + n :, modes]
    overlap = dec.dx * (r4.T @ r3)  # no conjugation anywhere in O_kl
    photon = np.outer(l1[modes], l2[modes])
    weight = photon * overlap
    zsum = dec.omegas[modes, None] + dec.omegas[None, modes]
    return modes, photon, weight, zsum


def _to_real(value: complex, floor: float = 1e-10) -> float:
    if abs(value.imag) > max(1e-8 * abs(value.real), floor):
        raise RuntimeError(
            f"depletion acquired a non-negligible imaginary part: {value!r}"
        )
    return float(value.real)


def _kept_pairs(modes: np.ndarray, dropped) -> np.ndarray:
    """Pair mask on ``modes``: False on every row and column of a dropped mode."""
    keep = ~np.isin(modes, list(dropped))
    return keep[:, None] & keep[None, :]


def depletion_at_times(
    dec: ModeDecomposition,
    grid: Grid,
    times,
    *,
    exclude_modes=(),
) -> DepletionResult:
    """Finite-time depletion from the mode double sum.

    Well defined for any spectrum and any t >= 0; dN(0) = 0 exactly.
    The Goldstone modes never enter the sum, and exclude_modes drops
    more (e.g. the steady-state rule's exclusion set, for like-for-like
    comparison with a deflated oracle run).  A growing mode makes the
    kernel overflow at long times: such a time's value is nan.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    modes, _, weight, zsum = _pair_data(dec)
    keep = _kept_pairs(modes, dec.goldstone + tuple(exclude_modes))
    weight = np.where(keep, weight, 0.0)
    # the kernel depends on w_k + w_l alone: one evaluation per unordered pair
    diagonal = np.diag(weight).copy()
    weight = weight + weight.T
    np.fill_diagonal(weight, diagonal)
    carried = (weight != 0) & ~np.tri(modes.size, k=-1, dtype=bool)
    weight, zsum = weight[carried], zsum[carried]
    values = []
    for t in times:
        if t == 0.0:
            values.append(0.0)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            total = 2.0 * dec.kappa * (weight * finite_time_kernel(zsum, t)).sum()
        values.append(_to_real(total) if np.isfinite(total) else math.nan)
    return DepletionResult(times=times, values=values)


def steady_state_depletion(
    dec: ModeDecomposition,
    grid: Grid,
    stability: StabilityReport,
    *,
    heating: bool = False,
    tol_pair: float = 1e-8,
    tol_noise: float = 1e-10,
) -> SteadyDepletion:
    """Steady-state depletion, refusing non-stable states.

    The sum runs over the pairs of photon-weighted modes, the Goldstone
    modes left out.  Zero-denominator policy: pairs with
    |w_k + w_l| < tol_pair and photon noise weight |l1_k l2_l| < tol_noise
    are dropped (they are exactly the numerically unresolvable, noise-free
    pairs).  A pair below the resolution floor Z_FLOOR that still carries
    weight above tol_noise makes the sum meaningless and the result is
    flagged diverged.  Pairs between Z_FLOOR and tol_pair with real weight
    are kept: their denominators are accurate, since the paired
    eigenvalues are symmetrized against the exact G M G = -conj(M)
    relation.  excluded_modes applies the same rule to each mode's own
    symmetry pair (k, pairing[k]), over every mode, the odd ones
    included.  The dominated_fraction is the share contributed by the
    symmetry-paired terms.
    """
    if heating:
        raise StabilityError(
            "steady-state depletion refused: heating regime (delta_c > N<U>)"
        )
    if stability.label != "stable":
        raise StabilityError(
            f"steady-state depletion requires a stable spectrum, got "
            f"'{stability.label}' (max growth rate {stability.max_growth_rate:.3e})"
        )
    modes, photon, weight, zsum = _pair_data(dec)
    keep = _kept_pairs(modes, dec.goldstone)
    absz = np.abs(zsum)
    noise = np.abs(photon)
    if ((absz < Z_FLOOR) & (noise >= tol_noise) & keep).any():
        return SteadyDepletion(value=None, diverged=True, dominated_fraction=None)
    keep &= ~((absz < tol_pair) & (noise < tol_noise))

    own_z = np.abs(dec.omegas + dec.omegas[dec.pairing])
    own_noise = np.abs(dec.left[:, 0] * dec.left[dec.pairing, 1])
    own_pair = (own_z < tol_pair) & (own_noise < tol_noise)
    own_pair[list(dec.goldstone)] = False
    excluded = tuple(int(k) for k in np.flatnonzero(own_pair))

    contrib = np.zeros_like(weight)
    contrib[keep] = 2.0 * dec.kappa * weight[keep] / (1j * zsum[keep])
    value = _to_real(contrib.sum())

    position = np.full(dec.omegas.size, -1)
    position[modes] = np.arange(modes.size)
    partner = position[dec.pairing[modes]]
    rows = np.flatnonzero(partner >= 0)
    paired = np.zeros_like(keep)
    paired[rows, partner[rows]] = True
    paired_sum = contrib[paired & keep].sum().real
    dominated = paired_sum / value if value != 0.0 else None
    return SteadyDepletion(
        value=value, diverged=False, dominated_fraction=dominated, excluded_modes=excluded
    )


def relaxation_time(dec: ModeDecomposition, *, tol_noise: float = 1e-10) -> float:
    """1 / |slowest decay| over the noise-coupled, non-Goldstone modes.

    Infinity when no damped noise-coupled mode exists (decoupled cavity).
    """
    idx = np.delete(np.arange(dec.omegas.size), list(dec.goldstone))
    coupled = idx[np.abs(dec.left[idx, 0] * dec.left[idx, 1]) > tol_noise]
    if coupled.size == 0:
        return math.inf
    max_im = float(dec.omegas[coupled].imag.max())
    if max_im >= 0.0:
        return math.inf
    return 1.0 / abs(max_im)


# ---------------------------------------------------------------------------
# second-moment (Lyapunov) oracle


def _noise_matrix(dim: int, kappa: float) -> np.ndarray:
    # only <xi xi^dag> is nonvanishing, so only (row da, col da^dag) sources
    d = np.zeros((dim, dim), dtype=complex)
    d[0, 1] = 2.0 * kappa
    return d


def _refined_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares with one step of iterative refinement."""
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    x = x + np.linalg.lstsq(a, b - a @ x, rcond=None)[0]
    return x


def _chain_projector(fm: FluctuationMatrix) -> np.ndarray | None:
    """Oblique projector onto the complement of the phase/number chain.

    Built from the analytic null vectors and least-squares solves only,
    so the oracle stays independent of the eigendecomposition.  Returns
    None when the chain structure is absent (e.g. decoupled cavity or
    unshifted matter blocks).
    """
    m = fm.m
    n = fm.n_grid
    dim = m.shape[0]
    scale = float(np.abs(m).max())
    phi = fm.phi

    r1 = np.zeros(dim, dtype=complex)
    r1[2 : 2 + n] = phi
    r1[2 + n :] = -phi
    r1 /= np.linalg.norm(r1)
    l2 = np.zeros(dim, dtype=complex)
    l2[2 : 2 + n] = phi
    l2[2 + n :] = phi
    l2 /= np.linalg.norm(l2)
    if np.abs(m @ r1).max() > 1e-7 * scale or np.abs(l2 @ m).max() > 1e-7 * scale:
        return None
    r2 = _refined_lstsq(m, r1)
    if np.linalg.norm(m @ r2 - r1) > 1e-7:
        return None
    l1 = _refined_lstsq(m.T, l2)
    if np.linalg.norm(l1 @ m - l2) > 1e-7:
        return None
    c1 = l1 @ r1
    c2 = l2 @ r2
    if abs(c1) < 1e-12 or abs(c2) < 1e-12:
        return None
    l1 = l1 - ((l1 @ r2) / c2) * l2  # gauge: l1 r2 = 0 (l2 r1 = 0 already)
    c1 = l1 @ r1
    q = np.outer(r1, l1) / c1 + np.outer(r2, l2) / c2
    return np.eye(dim) - q


def mode_projector(dec: ModeDecomposition, modes) -> np.ndarray:
    """Oblique projector annihilating the given decomposition modes.

    Used to hand the double sum's excluded sector to the Lyapunov
    oracle: the exclusion defines the observable, while the oracle still
    computes its value without touching the eigenbasis.
    """
    modes = sorted(set(int(k) for k in modes))
    dim = dec.omegas.size
    p = np.eye(dim, dtype=complex)
    if modes:
        p -= dec.right[:, modes] @ dec.left[modes, :]
    return p


def _moment_to_depletion(s_mat: np.ndarray, n: int, dx: float) -> float:
    total = dx * np.trace(s_mat[2 + n :, 2 : 2 + n])
    return _to_real(complex(total))


def _gershgorin_bound(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=1).max())


def lyapunov_oracle(
    fm: FluctuationMatrix,
    grid: Grid,
    times=None,
    *,
    steady: bool = False,
    deflate: np.ndarray | None = None,
) -> DepletionResult:
    """Depletion from direct second-moment propagation.

    Time-dependent values integrate dS/dt = -i M S - i S M^T + D with a
    fixed-step fourth-order Runge-Kutta rule, dt <= 0.1 / max|w|
    (Gershgorin bound); the one-step update of this linear ODE is itself
    a fixed affine map, so the N-step result is evaluated by repeated
    squaring of that map, which is the same scheme reorganized to run in
    O(log N) dense products.  The steady state solves the vectorized
    linear system, truncating singular directions below the Z_FLOOR
    resolution limit; directions dropped that way must carry negligible
    noise, otherwise no steady state exists and OracleSingularError is
    raised.

    ``deflate`` optionally projects the noise input (e.g. the
    mode_projector of the double sum's excluded modes, so both routes
    evaluate the same observable).  Without it the phase/number chain is
    deflated from analytic null vectors alone.

    Intended for moderate grids: cost grows as dim^6 with the matrix
    dimension, and solve_depletion_point refuses it above
    ORACLE_MAX_GRID grid points.
    """
    m = fm.m
    dim = m.shape[0]
    n = fm.n_grid
    d = _noise_matrix(dim, fm.kappa)
    proj = deflate if deflate is not None else _chain_projector(fm)
    if proj is not None:
        d = proj @ d @ proj.T

    if steady:
        value = _steady_moment_value(m, d, n, fm.dx, proj)
        return DepletionResult(times=[math.inf], values=[value])

    times = [float(t) for t in times or []]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    eye = np.eye(dim)
    l_super = -1j * (np.kron(m, eye) + np.kron(eye, m))
    rhs = d.ravel()
    h_max = 0.1 / _gershgorin_bound(m)
    values = []
    for t in times:
        if t == 0.0:
            values.append(0.0)
            continue
        n_steps = max(1, math.ceil(t / h_max))
        h = t / n_steps
        s_mat = _rk4_fixed_steps(l_super, rhs, h, n_steps).reshape(dim, dim)
        if proj is not None:
            # noise deflation is exact only to the projector's own defect;
            # projecting the moments removes the amplified leftover exactly
            s_mat = proj @ s_mat @ proj.T
        values.append(_moment_to_depletion(s_mat, n, fm.dx))
    return DepletionResult(times=times, values=values)


def _steady_moment_value(m, d, n, dx, proj=None):
    dim = m.shape[0]
    eye = np.eye(dim)
    k_super = np.kron(m, eye) + np.kron(eye, m)  # vec(M S + S M^T), row-major
    rhs = (-1j * d).ravel()
    u, s, vh = np.linalg.svd(k_super)
    coeff = u.conj().T @ rhs
    keep = s >= Z_FLOOR
    dropped = np.abs(coeff[~keep]) if (~keep).any() else np.zeros(1)
    if dropped.max() > 1e-6 * max(np.abs(rhs).max(), 1e-300):
        raise OracleSingularError(
            "noise drives an undamped direction of the second-moment flow; "
            "the steady state does not exist (marginal or unstable dynamics)"
        )
    x = vh.conj().T @ np.where(keep, coeff / np.where(keep, s, 1.0), 0.0)
    s_mat = x.reshape(dim, dim)
    if proj is not None:
        s_mat = proj @ s_mat @ proj.T
    return _moment_to_depletion(s_mat, n, dx)


def _rk4_fixed_steps(l_super, forcing_vec, h, n_steps):
    """N identical RK4 steps of vec' = L vec + c from vec(0) = 0."""
    a = h * l_super
    a2 = a @ a
    a3 = a2 @ a
    eye = np.eye(a.shape[0])
    k_step = eye + a + a2 / 2.0 + a3 / 6.0 + (a3 @ a) / 24.0
    d_step = h * ((eye + a / 2.0 + a2 / 6.0 + a3 / 24.0) @ forcing_vec)

    acc = np.zeros_like(d_step)
    base_k = k_step
    base_d = d_step
    steps = n_steps
    while steps:
        if steps & 1:
            acc = base_k @ acc + base_d
        steps >>= 1
        if steps:
            base_d = base_k @ base_d + base_d
            base_k = base_k @ base_k
    return acc


# ---------------------------------------------------------------------------
# one parameter point


def error_status(exc: Exception) -> str:
    """Status cell recording an exception raised inside one sweep point."""
    return f"error: {type(exc).__name__}: {exc}"


@dataclass
class PointAnalysis:
    """The layer chain at one parameter point.

    Stages fill in order; error holds the exception that stopped the
    chain, and every stage after it stays None.  One record holds M and
    both dense mode bases (about 8 MB at n = 200), so sweeps reduce it to
    rows where it is made; the depletion sums read only the bases'
    photon-weighted columns.
    """

    state: MeanFieldState | None = None
    fm: FluctuationMatrix | None = None
    dec: ModeDecomposition | None = None
    stability: StabilityReport | None = None
    error: Exception | None = None


def analyze_point(
    params: SystemParams,
    grid: Grid,
    *,
    solver_options: dict | None = None,
    subtract_mu: bool = True,
    tol_zero: float = 1e-6,
    tol_noise: float = 1e-10,
    fault_injection: str | None = None,
) -> PointAnalysis:
    """Mean field, generator, decomposition and stability verdict.

    fault_injection "corrupt-matrix" breaks the symmetry of M before it
    is decomposed, as a negative control for the invariant checks.
    """
    point = PointAnalysis()
    try:
        point.state = solve_ground_state(params, grid, **(solver_options or {}))
        point.fm = build_matrix(point.state, params, grid, subtract_mu=subtract_mu)
        if fault_injection == "corrupt-matrix":
            point.fm.m[0, 3] += 1e-3 * (1.0 + 1.0j)
        point.dec = decompose(point.fm)
        point.stability = classify_stability(point.dec, tol_zero=tol_zero, tol_noise=tol_noise)
    except Exception as exc:  # one failed point must never abort a sweep
        point.error = exc
    return point


@dataclass
class DepletionPoint:
    """One row of a depletion sweep."""

    delta_c: float
    u0: float
    status: str
    depletion: float | None = None
    stability: str | None = None
    dominated_fraction: float | None = None
    time: float | None = None
    oracle: float | None = None


def solve_depletion_point(
    params: SystemParams,
    grid: Grid,
    delta_c: float,
    u0: float,
    *,
    eta_follows_detuning: bool = True,
    times=None,
    oracle: bool = False,
    solver_options: dict | None = None,
    subtract_mu: bool = True,
    tol_pair: float = 1e-8,
    tol_noise: float = 1e-10,
    tol_zero: float = 1e-6,
) -> list[DepletionPoint]:
    """Depletion rows at one (detuning, light shift) point.

    Returns one row for the steady state, or one row per requested time.
    Divergences, refusals and any exception raised on the way land in
    the status field, never in the numeric columns: a time whose mode
    sum overflows is "diverged", and the point's other times keep their
    values.  Raises ValueError up front when the oracle is requested
    above ORACLE_MAX_GRID grid points.
    """
    if oracle and grid.n > ORACLE_MAX_GRID:
        raise ValueError(
            f"the second-moment oracle runs on at most {ORACLE_MAX_GRID} grid points, "
            f"got {grid.n}"
        )
    eta = -delta_c if eta_follows_detuning else params.eta
    point = dc_replace(params, delta_c=float(delta_c), u0=float(u0), eta=float(eta))
    chain = analyze_point(
        point, grid, solver_options=solver_options, subtract_mu=subtract_mu,
        tol_zero=tol_zero, tol_noise=tol_noise,
    )
    try:
        if chain.error is not None:
            raise chain.error
        fm, dec, label = chain.fm, chain.dec, chain.stability.label

        if times:
            result = depletion_at_times(dec, grid, times)
            rows = [
                DepletionPoint(
                    delta_c=delta_c, u0=u0, status="ok" if math.isfinite(value) else "diverged",
                    depletion=value if math.isfinite(value) else None, stability=label, time=t,
                )
                for t, value in zip(result.times, result.values)
            ]
            if oracle:
                oracle_result = lyapunov_oracle(fm, grid, times)
                for row, value in zip(rows, oracle_result.values):
                    row.oracle = value
            return rows

        heating = chain.state.heating
        if heating or label != "stable":
            status = "heating" if heating else label
            return [DepletionPoint(delta_c=delta_c, u0=u0, status=status, stability=label)]
        steady = steady_state_depletion(
            dec, grid, chain.stability, heating=heating,
            tol_pair=tol_pair, tol_noise=tol_noise,
        )
        if steady.diverged:
            return [DepletionPoint(delta_c=delta_c, u0=u0, status="diverged", stability=label)]
        row = DepletionPoint(
            delta_c=delta_c,
            u0=u0,
            status="ok",
            depletion=steady.value,
            stability=label,
            dominated_fraction=steady.dominated_fraction,
        )
        if oracle:
            try:
                proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
                oracle_result = lyapunov_oracle(fm, grid, steady=True, deflate=proj)
                row.oracle = oracle_result.values[0]
            except OracleSingularError:
                pass
        return [row]
    except Exception as exc:  # one failed point must never abort a sweep
        return [DepletionPoint(delta_c=delta_c, u0=u0, status=error_status(exc))]
