"""Cavity-noise-induced condensate depletion.

Two independent routes to the same number:

* the quasi-normal-mode double sum

      dN(t) = 2 kappa  sum_{k,l} f(w_k + w_l, t) l1_k l2_l O_kl,

  with f(z, t) = (1 - exp(-i z t)) / (i z), the photon components
  l1_k = left[k, 0], l2_l = left[l, 1] of the left vectors, and the
  unconjugated overlap O_kl = dx * sum_j r4_k(x_j) r3_l(x_j); the steady
  state drops the exponential.  The odd modes of the reflection
  x -> pi - x have l1 = l2 = 0 exactly and are not in the mode record;
  the even modes that ``decompose`` deflates have l1 = l2 = 0 exactly
  too.  The sum runs over the pairs of the record's ``coupled`` modes
  alone: k^2 pairs for the k coupled roots, k = 8 to 28 at n = 200 on
  the shipped sweep, against (n + 4)^2 = 41,616 even pairs.  It reads them
  in the even sector's orthonormal basis, from the record's block
  ``coupled_right`` and its photon entries ``l1`` and ``l2`` of the left
  rows, where O_kl is the same sum
  over the n/2 + 1 cosine modes m = 0 .. n/2; both sums add up their
  pairs a block of rows at a time, each block as it forms, so neither
  holds an array of the pair count;

* the second-moment (Lyapunov) oracle, which never touches the
  eigenbasis: the ordered moment matrix S = <R R^T> obeys
  dS/dt = -i M S - i S M^T + D with the single noise entry
  D[0, 1] = 2 kappa, and dN = dx * trace of the (dPsi^dag, dPsi) block.
  Noise enters through the even photon, so the oracle solves the even
  sector alone, in real quadratures, at O(n^3) on any grid.

The condensate phase/number chain sector is excluded from the sums and
its noise drive is projected out of the oracle: photon noise leaking
through the number mode makes the condensate phase diffuse, which shows
up in the unprojected <dPsi^dag dPsi> as secular growth that is
condensate bookkeeping, not occupation of other modes.  Both routes take
the pair from the same closed form, ``spectral.phase_chain``, so they
remain directly comparable; the oracle still never reads the other modes.

Every command reaches these sums through ``analyze_point``, the one
chain mean field -> generator M -> biorthogonal modes -> stability
verdict.  It records the exception that stops the chain instead of
raising it, so a failed point becomes a status and never aborts a sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .fluctuation import FluctuationMatrix, build_matrix
from .grid import Grid
from .meanfield import MeanFieldState, solve_ground_state
from .params import SystemParams
from .spectral import (
    NOISE_FLOOR,
    STRUCTURE_TOL,
    ModeDecomposition,
    StabilityReport,
    chain_duals,
    classify_stability,
    decompose,
    noise_coupled,
    phase_chain,
    row_blocks,
)

# numerical resolution floor for the frequency sums; a pair denominator
# below it counts as exactly zero
Z_FLOOR = 1e-11
# a pair denominator below it is skipped when the pair carries no photon
# noise weight (below NOISE_FLOOR): numerically unresolvable and noise-free
PAIR_TOL = 1e-8
# bound on t ||A||_inf eps, the generator's rounding accumulated over t;
# past it a finite-time oracle value is nan
RESOLUTION_HORIZON = 1e-3


class StabilityError(RuntimeError):
    """Steady-state depletion requested for a non-stable steady state."""


class OracleSingularError(RuntimeError):
    """The steady second-moment equation has no solution: noise drives an
    undamped direction (marginal or unstable dynamics)."""


@dataclass
class DepletionResult:
    """Depletion values at the requested times.

    times may contain math.inf for the steady-state entry.  A value is
    nan where the mode sum, or the oracle's propagated moments, overflow
    (a growing mode at a long time), or past the oracle's horizon.  The
    mode sum also fills errors, one entry per time: None, or the
    RuntimeError of a sum that kept a non-negligible imaginary part (its
    value is nan).
    """

    times: list[float]
    values: list[float]
    errors: list[RuntimeError | None] = field(default_factory=list)


@dataclass
class SteadyDepletion:
    """Steady-state double sum, or a divergence marker.

    value is None exactly when diverged is True: some pair has a
    frequency denominator below the numerical resolution floor while
    carrying non-negligible photon noise weight, the signature of the
    cavity resonance or of a noise-coupled mode damped below Z_FLOOR / 2
    (its own pair's denominator is 2|Im omega|).  excluded_modes lists
    the even modes whose own symmetry pair falls under the zero-denominator
    skip rule; feeding them to the Lyapunov oracle's deflation makes the
    two routes compute the same observable.
    """

    value: float | None
    diverged: bool
    dominated_fraction: float | None
    excluded_modes: tuple[int, ...] = ()


def finite_time_kernel(z, t: float):
    """(1 - exp(-i z t)) / (i z), as -expm1(-i z t) / (i z).

    expm1 keeps full relative precision at small |z t|, where 1 - exp
    cancels; the kernel tends to t at z = 0, which is taken exactly.
    """
    z = np.asarray(z, dtype=complex)
    safe = np.where(z == 0, 1.0, z)
    return np.where(z == 0, t, -np.expm1(-1j * z * t) / (1j * safe))


def _pair_weights(dec: ModeDecomposition, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """weight l1_k l2_l O_kl of the pairs of modes k in rows, l in cols.

    The pair's frequency sum is omegas[k] + omegas[l].  The cosine modes
    of the even sector are orthonormal, so O_kl is the sum over the modes
    m = 0 .. n/2, formed from the coupled modes' columns of coupled_right.
    """
    modes = dec.n_grid // 2 + 1
    right = dec.coupled_right
    r4 = right[2 + modes :, np.searchsorted(dec.coupled, rows)]
    block = np.matmul(r4.T, right[2 : 2 + modes, np.searchsorted(dec.coupled, cols)])  # O_kl: no conjugation
    block *= dec.dx
    block *= dec.l1[rows, None]
    block *= dec.l2[cols]
    return block


def _to_real(value: complex) -> float:
    if abs(value.imag) > max(1e-8 * abs(value.real), 1e-10):
        raise RuntimeError(
            f"depletion acquired a non-negligible imaginary part: {value!r}"
        )
    return float(value.real)


def depletion_at_times(
    dec: ModeDecomposition,
    grid: Grid,
    times,
    *,
    exclude_modes=(),
) -> DepletionResult:
    """Finite-time depletion from the mode double sum.

    Well defined for any spectrum and any t >= 0; dN(0) = 0 exactly.
    The sum runs over the coupled modes (``ModeDecomposition.coupled``):
    every other mode has l1 = l2 = 0, and the Goldstone modes never
    enter.  exclude_modes drops more (e.g. the steady-state rule's
    exclusion set, for like-for-like comparison with a deflated oracle
    run).  The kernel depends on w_k + w_l alone, so each unordered pair
    is one term, weight_kl + weight_lk, taken a block of rows k at a time
    over l >= k;
    each block's pairs of non-zero weight are summed into every time's
    total as the block forms.  Each time is checked on its own: a growing
    mode makes the kernel overflow at long times, and such a time's value
    is nan; a time whose sum keeps a non-negligible imaginary part has its
    RuntimeError in ``errors`` and nan as its value.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    modes = dec.coupled[~np.isin(dec.coupled, list(exclude_modes))]
    totals = np.zeros(len(times), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(modes.size):
            mine, upper = modes[rows], modes[rows.start :]
            # weight_kl + weight_lk for l >= k, the diagonal taken once
            block = np.triu(_pair_weights(dec, mine, upper))
            block += np.triu(_pair_weights(dec, upper, mine).T, k=1)
            carried = block != 0
            weight = block[carried]
            zsum = (dec.omegas[mine, None] + dec.omegas[upper])[carried]
            for i, t in enumerate(times):
                if t > 0.0:  # dN(0) = 0 exactly
                    totals[i] += weight @ finite_time_kernel(zsum, t)
        totals *= 2.0 * dec.kappa
    values, errors = [], []
    for total in totals:
        try:
            values.append(_to_real(total) if np.isfinite(total) else math.nan)
            errors.append(None)
        except RuntimeError as exc:
            values.append(math.nan)
            errors.append(exc)
    return DepletionResult(times=times, values=values, errors=errors)


def steady_state_depletion(
    dec: ModeDecomposition,
    grid: Grid,
    stability: StabilityReport,
    *,
    heating: bool = False,
) -> SteadyDepletion:
    """Steady-state depletion, refusing non-stable states.

    The sum runs over the pairs of the coupled modes
    (``ModeDecomposition.coupled``), the only ones with photon weight; the
    Goldstone modes are not among them.  Zero-denominator policy: pairs with
    |w_k + w_l| < PAIR_TOL and photon noise weight |l1_k l2_l| < NOISE_FLOOR
    are dropped (they are exactly the numerically unresolvable, noise-free
    pairs).  A pair below the resolution floor Z_FLOOR that still carries
    weight above NOISE_FLOOR makes the sum meaningless and the result is
    flagged diverged.  Pairs between Z_FLOOR and PAIR_TOL with real weight
    are kept: their denominators are accurate, since the paired
    eigenvalues are symmetrized against the exact G M G = -conj(M)
    relation.  excluded_modes applies the same rule to each even mode's
    own symmetry pair (k, pairing[k]), read off the sum's own mask for a
    coupled mode; a deflated mode's own pair, e_j - e_j = 0 with no photon
    weight, is always dropped.  It holds both modes of a pair dropped in
    either order, so that its mode_projector is real in the oracle's
    quadratures.  The dominated_fraction is the share contributed by the
    symmetry-paired terms.  The pair denominators and masks are formed a
    block of rows at a time, each pair's term written over its weight.
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
    size = dec.omegas.size
    modes = dec.coupled
    abs_l1, abs_l2 = np.abs(dec.l1[modes]), np.abs(dec.l2[modes])
    omegas, pairing = dec.omegas[modes], dec.pairing
    own = np.searchsorted(modes, pairing[modes])  # the coupled set is closed under pairing
    total = 0.0
    paired = np.zeros(size, dtype=complex)  # each mode's own-pair term
    own_kept = np.zeros(size, dtype=bool)
    for rows in row_blocks(modes.size):
        weight = _pair_weights(dec, modes[rows], modes)
        mine = np.arange(rows.stop - rows.start)
        zsum = omegas[rows, None] + omegas
        absz = np.abs(zsum)
        noisy = np.outer(abs_l1[rows], abs_l2) >= NOISE_FLOOR
        if ((absz < Z_FLOOR) & noisy).any():
            return SteadyDepletion(value=None, diverged=True, dominated_fraction=None)
        keep = (absz >= PAIR_TOL) | noisy
        # each kept pair's term 2 kappa weight / (i zsum), in place of its weight
        np.divide(weight, zsum, out=weight, where=keep)
        weight[~keep] = 0.0
        weight *= -2j * dec.kappa
        total += weight.sum()
        own_kept[modes[rows]] = keep[mine, own[rows]]
        paired[modes[rows]] = weight[mine, own[rows]]

    own_dropped = ~own_kept
    own_dropped[list(dec.goldstone)] = False
    own_dropped |= own_dropped[pairing]  # the rule drops a pair, so both of its modes
    excluded = tuple(int(k) for k in np.flatnonzero(own_dropped))

    value = _to_real(complex(total))
    paired_sum = paired[own_kept].sum().real
    dominated = paired_sum / value if value != 0.0 else None
    return SteadyDepletion(
        value=value, diverged=False, dominated_fraction=dominated, excluded_modes=excluded
    )


def relaxation_time(dec: ModeDecomposition) -> float:
    """1 / |slowest decay| over the noise-coupled, non-Goldstone modes.

    Infinity when no damped noise-coupled mode exists (decoupled cavity).
    """
    coupled = noise_coupled(dec)
    if coupled.size == 0:
        return math.inf
    max_im = float(dec.omegas[coupled].imag.max())
    if max_im >= 0.0:
        return math.inf
    return 1.0 / abs(max_im)


# ---------------------------------------------------------------------------
# second-moment (Lyapunov) oracle


def mode_projector(dec: ModeDecomposition, modes) -> np.ndarray:
    """Oblique projector annihilating the given decomposition modes.

    Used to hand the double sum's excluded sector to the Lyapunov
    oracle: the exclusion defines the observable, while the oracle still
    computes its value without touching the eigenbasis.  The projector
    acts on the even sector, in its orthonormal basis, the only one that
    receives noise; it derives the left rows of the given modes alone.
    """
    cols = np.unique(np.asarray(list(modes), dtype=int))
    return np.eye(dec.omegas.size) - dec.even_right(cols) @ dec.left_rows(cols)


def _quadratures(mat: np.ndarray) -> np.ndarray:
    """T mat T^H with x = (a + a^dag) / sqrt 2, p = -i (a - a^dag) / sqrt 2.

    mat is in the even sector's layout: photon rows 0 and 1, then the
    field block and the conjugate block.  x takes the slot of a (row 0
    and the field block), p the slot of a^dag.
    """
    dim = mat.shape[0]
    a_slot = np.r_[0, 2 : dim // 2 + 1]
    b_slot = np.r_[1, dim // 2 + 1 : dim]
    t = np.zeros((dim, dim), dtype=complex)
    t[a_slot, a_slot] = t[a_slot, b_slot] = np.sqrt(0.5)
    t[b_slot, a_slot] = -1j * np.sqrt(0.5)
    t[b_slot, b_slot] = 1j * np.sqrt(0.5)
    return t @ mat @ t.conj().T


def _real(mat: np.ndarray, reason: str) -> np.ndarray:
    defect = np.abs(mat.imag).max() / np.abs(mat).max()
    if defect > STRUCTURE_TOL:
        raise ValueError(f"not real in the quadratures ({defect:.2e} max): {reason}")
    return mat.real


def _moment_depletion(s_mat: np.ndarray, dx: float) -> float:
    """dx sum_j <dPsi^dag_j dPsi_j> from the quadrature moments.

    s_mat is S_re + S_im, the solutions for Re D_X and Im D_X, which are
    its symmetric and antisymmetric parts; per point the value is
    (S_re[x, x] + S_re[p, p]) / 2 - S_im[x, p].
    """
    half = (s_mat.shape[0] - 2) // 2
    x, p = slice(2, 2 + half), slice(2 + half, None)
    xp = np.trace(s_mat[x, p]) - np.trace(s_mat[p, x])
    total = 0.5 * dx * (np.trace(s_mat[x, x]) + np.trace(s_mat[p, p]) - xp)
    return float(total) if np.isfinite(total) else math.nan


def lyapunov_oracle(
    fm: FluctuationMatrix,
    grid: Grid,
    times=None,
    *,
    steady: bool = False,
    deflate: np.ndarray | None = None,
) -> DepletionResult:
    """Depletion from the second moments of the even sector.

    Noise enters only through the photon, which is even, so the moments
    live on the even sector (n + 4 rows, ``fm.even``).  In the quadratures
    x = (a + a^dag) / sqrt 2, p = -i (a - a^dag) / sqrt 2 its generator
    A = T (-i M_even) T^H is real, since G M G = -conj(M) (refused
    otherwise), and the noise
    D_X = T D T^T is kappa [[1, i], [-i, 1]] on the photon quadratures.
    The ordered moments S = <X X^T> obey dS/dt = A S + S A^T + D_X.  Re D_X
    is symmetric and Im D_X antisymmetric, so one real equation driven by
    their sum gives both solutions as its symmetric and antisymmetric
    parts, and dN comes out real by construction.

    Both paths run on A P - (I - P), which keeps A on the kept modes and
    damps the deflated ones (projector P) at unit rate; undeflated, the
    phase/number block, split by rounding, would grow under the doublings.

    Finite t: the Van Loan block exponential (IEEE TAC 23, 395, 1978) of
    [[A, D], [0, -A^T]] on h = t / 2^s gives S(h); s doublings
    S <- E S E^T + S, E <- E^2 then reach t.  Each doubling adds its
    rounding, so h is the longest step expm takes without squaring of its
    own: s = ceil(log2(t ||A||_inf / theta_13)), theta_13 = 4.25 the
    Pade [13/13] bound of Al-Mohy and Higham's scaling (SIMAX 31, 970,
    2009), which scipy's expm uses.  A growing mode overflows the
    doublings at long times; that time's value is nan, as is one past the
    horizon t ||A||_inf eps > RESOLUTION_HORIZON.

    Steady state: one Bartels-Stewart solve (scipy's
    solve_continuous_lyapunov).  Its own residual is the verdict: above
    1e-8 of the noise, noise drives an undamped direction and
    OracleSingularError is raised.

    ``deflate`` is an even-sector projector, as mode_projector returns
    (e.g. of the double sum's excluded modes, so both routes evaluate the
    same observable); it projects the noise and the moments.  It defaults
    to I - R_G L_G of the phase/number pair from ``spectral.phase_chain``,
    the pair the mode sums leave out, so a generator without that pair
    raises its DecompositionError.
    """
    from scipy.linalg import expm, solve_continuous_lyapunov

    a = _real(_quadratures(-1j * fm.even), "M breaks G M G = -conj(M)")
    dim = a.shape[0]
    if deflate is None:
        chain, r_g, y_g = phase_chain(fm.even, fm.phi_even, fm.scale)
        deflate = np.eye(dim) - r_g @ chain_duals(chain, r_g, y_g)
    proj = _real(_quadratures(deflate), "deflated modes without their (w, -conj w) partners")
    noise = np.zeros_like(a)
    noise[:2, :2] = fm.kappa * np.array([[1.0, 1.0], [-1.0, 1.0]])  # Re D_X + Im D_X
    noise = proj @ noise @ proj.T
    # a deflated mode moves to -1 (one recoil frequency): through the
    # projector's rounding each kept rung w picks up an error of order
    # |w + shift|, so the shift stays below the lowest rung (Re w near 4)
    a_d = a @ proj - (np.eye(dim) - proj)

    def depletion(s_mat):
        # noise deflation is exact only to the projector's own defect;
        # projecting the moments removes the amplified leftover exactly
        return _moment_depletion(proj @ s_mat @ proj.T, fm.dx)

    if steady:
        with warnings.catch_warnings():
            # an undamped pair makes trsyl perturb A; the residual below rules
            warnings.filterwarnings("ignore", 'Input "a" has an eigenvalue pair', RuntimeWarning)
            s_mat = solve_continuous_lyapunov(a_d, -noise)
        residual = np.linalg.norm(a_d @ s_mat + s_mat @ a_d.T + noise)
        if not residual <= 1e-8 * np.linalg.norm(noise):
            raise OracleSingularError(
                f"noise drives an undamped direction of the second-moment flow "
                f"(Lyapunov residual {residual:.2e}); the steady state does not exist"
            )
        return DepletionResult(times=[math.inf], values=[depletion(s_mat)])

    times = [float(t) for t in times or []]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    norm_a = np.linalg.norm(a_d, np.inf)
    van_loan = np.block([[a_d, noise], [np.zeros_like(a_d), -a_d.T]])
    values = []
    for t in times:
        if t == 0.0:
            values.append(0.0)
            continue
        if t * norm_a * np.finfo(float).eps > RESOLUTION_HORIZON:
            values.append(math.nan)
            continue
        doublings = max(0, math.ceil(math.log2(t * norm_a / 4.25)))  # theta_13
        block = expm(van_loan * (t / 2.0**doublings))
        step = block[:dim, :dim]
        s_mat = block[:dim, dim:] @ step.T
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(doublings):
                s_mat = step @ s_mat @ step.T + s_mat
                step = step @ step
            values.append(depletion(s_mat))
    return DepletionResult(times=times, values=values)


# ---------------------------------------------------------------------------
# one parameter point


def error_status(exc: Exception) -> str:
    """Status cell recording an exception raised inside one sweep point."""
    return f"error: {type(exc).__name__}: {exc}"


@dataclass
class PointAnalysis:
    """The layer chain at one parameter point.

    Stages fill in order; error holds the exception that stopped the
    chain, and every stage after it stays None.  One record holds the
    generator's two parity sectors (0.75 MB at n = 200) and the even
    sector's modes (0.16 MB: h's eigh basis, the coupled modes' right
    vectors, the photon entries of the left rows), so sweeps reduce it to
    rows where it is made.  No stage adds an array of the sector's size:
    a warm n = 200 depletion point peaks at 1.37 MB of numpy memory while
    it decomposes (the generator beside its structure check, or beside the
    certificate's deflated-level products), with finite times or without.
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
    fault_injection: str | None = None,
) -> PointAnalysis:
    """Mean field, generator, decomposition and stability verdict.

    fault_injection "corrupt-matrix" breaks G M G = -conj(M) before the
    generator is decomposed, as a negative control for the invariant
    checks: it shifts the even sector's photon row a at the field block's
    cosine mode m = 1, entry [0, 3].
    """
    point = PointAnalysis()
    try:
        point.state = solve_ground_state(params, grid)
        point.fm = build_matrix(point.state, params, grid)
        if fault_injection == "corrupt-matrix":
            point.fm.even[0, 3] += 1e-3 * (1.0 + 1.0j)
        point.dec = decompose(point.fm)
        point.stability = classify_stability(point.dec)
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
    eta_follows_detuning: bool = False,
    times=None,
    oracle: bool = False,
) -> list[DepletionPoint]:
    """Depletion rows at one (detuning, light shift) point.

    Returns one row for the steady state, or one row per requested time.
    Divergences, refusals and any exception raised on the way land in
    the status field, never in the numeric columns: a steady sum with a
    noise-carrying pair below Z_FLOOR (so also a noise-coupled mode damped
    below Z_FLOOR / 2) or a time whose mode sum overflows is "diverged",
    one whose sum keeps a non-negligible imaginary part is an error, and
    the point's other times keep their values; an oracle value that
    overflows or lies past the oracle's resolution horizon, or a steady
    oracle that finds no steady state, is left blank.
    eta_follows_detuning sets eta = -delta_c at each point; otherwise the
    point keeps params.eta.
    """
    eta = -delta_c if eta_follows_detuning else params.eta
    point = dc_replace(params, delta_c=float(delta_c), u0=float(u0), eta=float(eta))
    chain = analyze_point(point, grid)
    try:
        if chain.error is not None:
            raise chain.error
        dec, label = chain.dec, chain.stability.label
        # the sums read only the modes; the generator stays for the oracle alone
        fm = chain.fm if oracle else None
        chain.fm = None

        if times:
            rows = []
            finite = depletion_at_times(dec, grid, times)
            for t, value, error in zip(finite.times, finite.values, finite.errors):
                row = DepletionPoint(delta_c=delta_c, u0=u0, status="ok", stability=label, time=t)
                # each time's own sum: one that fails its check costs no other row
                if error is not None:
                    row.status = error_status(error)
                elif math.isfinite(value):
                    row.depletion = value
                else:
                    row.status = "diverged"
                rows.append(row)
            if oracle:
                oracle_result = lyapunov_oracle(fm, grid, times)
                for row, value in zip(rows, oracle_result.values):
                    row.oracle = value if math.isfinite(value) else None
            return rows

        heating = chain.state.heating
        if heating or label != "stable":
            status = "heating" if heating else label
            return [DepletionPoint(delta_c=delta_c, u0=u0, status=status, stability=label)]
        steady = steady_state_depletion(dec, grid, chain.stability, heating=heating)
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
