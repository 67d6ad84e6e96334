"""Biorthogonal eigendecomposition of the fluctuation generator.

The lattice potential cos^2 x and the condensate are even under the
reflection x -> pi - x, so M splits into two exact sectors.  Only even
matter modes couple to the cavity.  The odd modes form the real
symmetric block diag(H0 - mu, -(H0 - mu)) on the odd grid combinations,
solved by one ``eigh``: normal and noiseless, with right and left
vectors (v, 0) at +e and (0, v) at -e.  The non-normality, and with it
the Petermann-type excess noise, lives in the even sector of dimension
n + 4 (the photon pair plus the even combinations of each matter block).
Both sectors are folded out of M by index gathers over the mirror pairs
(j, n - j).

The even sector gets one dense eigensolve in quadrature form.  The
symmetry G M G = -conj(M) makes A = T (-i M) T^H real, with T taking each
(field, conjugate) pair to its quadratures (x, p); so a real ``eig``
solves it, and its conjugate eigenvalue pairs lambda, conj(lambda) are
the mode pairs omega = i lambda, -conj(omega), matched exactly with no
search.  The left matrix is the (refined) inverse of the right one, and
the right basis condition number is the honesty metric.  The eigen
residual and the biorthogonality defect are computed sector by sector;
the blocks between the sectors vanish by construction.  Rows of ``left``
satisfy left @ right = I, so row k conjugated is the left eigenvector in
the conjugate-linear scalar product convention; the noise weights used
by the depletion sums are exactly left[k, 0] and left[k, 1].

Phase symmetry of the condensate makes the even sector defective: with
the chemical potential subtracted the vector (0, 0, phi, -phi) is an
exact null vector whose dual partner (the number fluctuation) forms a
2 x 2 Jordan chain with it.  A naive eigensolve splits this pair into
two spurious eigenvalues ~ +/- sqrt(eps) with nearly parallel vectors,
which poisons the inverse.  ``decompose`` detects the cluster and
replaces it by the analytically known chain basis (exact zeros, well
conditioned); the cluster indices are exposed so downstream sums can
treat them separately.

The module sees only the generator: the mean field and the per-point
chain that feeds M in here are ``depletion.analyze_point``'s business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluctuation import FluctuationMatrix
from .grid import mirror_points

# largest right-basis condition number accepted before the decomposition
# is declared numerically singular
COND_LIMIT = 1e12
# |omega| below which a condensate-direction mode joins the Goldstone cluster
GOLDSTONE_TOL = 1e-3
# slowest decay rate classify_stability resolves as damping
DAMPING_FLOOR = 5e-12
# relative frequency spread of a degenerate cluster in petermann_factor
CLUSTER_RTOL = 1e-6


class DecompositionError(RuntimeError):
    """Eigendecomposition unusable (non-convergence or singular basis)."""


class DegenerateClusterError(ValueError):
    """Petermann factor requested for a mode inside a degenerate cluster."""

    def __init__(self, message: str, cluster: tuple[int, ...], condition_number: float):
        super().__init__(message)
        self.cluster = cluster
        self.condition_number = condition_number


@dataclass
class StabilityReport:
    label: str  # "stable", "unstable" or "marginal"
    max_growth_rate: float  # max Im omega over non-Goldstone modes


@dataclass
class ModeDecomposition:
    """Eigenvalues with paired left/right vectors, biorthonormalized.

    omegas    -- complex mode frequencies, sorted by (Re, Im); the
                 Goldstone cluster entries are exact zeros when the
                 chain basis was substituted
    right     -- columns are right vectors (unit photon plus
                 quadrature-weighted matter norm)
    left      -- rows, with left @ right = I
    pairing   -- involution k -> k' with omega_k' = -conj(omega_k)
                 exactly (Goldstone modes pair with themselves)
    goldstone -- indices of the condensate phase/number cluster
    chain     -- True when the cluster is a Jordan chain
                 (M r2 = c r1, M r1 = 0) rather than two eigenvectors;
                 the coupling c is stored in chain_coupling
    """

    omegas: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond_r: float
    pairing: np.ndarray
    pairing_error: float
    goldstone: tuple[int, ...]
    chain: bool
    chain_coupling: complex
    eigen_residual: float
    biorth_defect: float
    n_grid: int
    dx: float
    kappa: float


def eigendecompose(m: np.ndarray):
    """Plain biorthogonal decomposition of a dense complex matrix.

    Returns (omegas, right, left, cond_r) with columns of ``right``
    normalized and phase-fixed, rows of ``left`` from the refined
    inverse.  Raises DecompositionError when the right basis is
    numerically singular; the second-moment (Lyapunov) path does not
    need the eigenbasis and is the fallback in that case.
    """
    omegas, right = np.linalg.eig(m)
    order = np.lexsort((omegas.imag, omegas.real))
    omegas = omegas[order]
    right = right[:, order]
    right, _ = _canonical_columns(right)
    left, cond_r = _refined_inverse(right)
    return omegas, right, left, cond_r


def _canonical_columns(vecs: np.ndarray):
    """Unit-normalize columns and rotate the largest entry real positive."""
    norms = np.linalg.norm(vecs, axis=0)
    vecs = vecs / norms
    idx = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    phases = pivots / np.abs(pivots)
    return vecs / phases, norms


def _physical_norm_factors(vecs: np.ndarray, dx: float) -> np.ndarray:
    """Column factors giving unit photon + quadrature-weighted matter norm.

    Makes per-mode quantities such as the photon noise weights |l1 l2|
    grid-resolution invariant, so the absolute skip tolerances of the
    depletion sums mean the same thing at every grid size.
    """
    photon = np.abs(vecs[0, :]) ** 2 + np.abs(vecs[1, :]) ** 2
    atom = np.linalg.norm(vecs[2:, :], axis=0) ** 2
    return 1.0 / np.sqrt(photon + dx * atom)


def _refined_inverse(right: np.ndarray):
    """(left, cond_r): the inverse of a right basis that is not singular."""
    cond_r = float(np.linalg.cond(right))
    if not np.isfinite(cond_r) or cond_r > COND_LIMIT:
        raise DecompositionError(
            f"right eigenvector basis is numerically singular "
            f"(cond = {cond_r:.3e} > {COND_LIMIT:.1e}); "
            "use the Lyapunov second-moment oracle instead"
        )
    # one Newton step on the inverse knocks the biorthogonality defect
    # down to the product-evaluation noise floor
    left = np.linalg.inv(right)
    return left + (np.eye(right.shape[0]) - left @ right) @ left, cond_r


def _goldstone_cluster(
    omegas: np.ndarray,
    right: np.ndarray,
    phi: np.ndarray,
    n: int,
) -> tuple[int, ...]:
    """Indices of near-zero modes living in the condensate direction."""
    phi_unit = phi / np.linalg.norm(phi)
    r3 = right[2 : 2 + n, :]
    r4 = right[2 + n :, :]
    photon_frac = np.abs(right[0, :]) ** 2 + np.abs(right[1, :]) ** 2
    c3 = phi_unit @ r3
    c4 = phi_unit @ r4
    atom_norm = np.linalg.norm(r3, axis=0) ** 2 + np.linalg.norm(r4, axis=0) ** 2
    cond_frac = np.where(
        atom_norm > 0, (np.abs(c3) ** 2 + np.abs(c4) ** 2) / np.maximum(atom_norm, 1e-300), 0.0
    )
    mask = (np.abs(omegas) < GOLDSTONE_TOL) & (photon_frac < 1e-6) & (cond_frac > 0.5)
    return tuple(int(i) for i in np.nonzero(mask)[0])


def _canonical_goldstone(m: np.ndarray, phi: np.ndarray, n: int):
    """Analytic basis for the phase/number sector.

    Returns (kind, v1, v2) with kind "chain" when M v2 = v1, M v1 = 0
    (the generic defective case) or "pair" when both are eigenvectors
    (decoupled cavity), or None when neither structure is present to
    solver accuracy.
    """
    dim = m.shape[0]
    scale = float(np.abs(m).max())
    r1 = np.zeros(dim, dtype=complex)
    r1[2 : 2 + n] = phi
    r1[2 + n :] = -phi
    r1 /= np.linalg.norm(r1)
    if np.abs(m @ r1).max() > 1e-7 * scale:
        return None
    # y = (0, 0, phi, phi) is a left null vector (y^T M = 0 as H0 phi = mu phi),
    # so [[M, y], [r1^H, 0]] is nonsingular exactly when r1 heads a Jordan
    # chain, and its solution is the chain vector orthogonal to r1
    bordered = np.zeros((dim + 1, dim + 1), dtype=complex)
    bordered[:dim, :dim] = m
    y = np.concatenate([phi, phi])
    bordered[2:dim, dim] = y / np.linalg.norm(y)
    bordered[dim, :dim] = r1.conj()
    try:
        r2 = np.linalg.solve(bordered, np.append(r1, 0.0))[:dim]
    except np.linalg.LinAlgError:  # a singular border: no chain
        r2 = None
    if r2 is not None and np.linalg.norm(m @ r2 - r1) < 1e-7:
        return ("chain", r1, r2)
    ra = np.zeros(dim, dtype=complex)
    ra[2 : 2 + n] = phi
    ra /= np.linalg.norm(ra)
    rb = np.zeros(dim, dtype=complex)
    rb[2 + n :] = phi
    rb /= np.linalg.norm(rb)
    if np.abs(m @ ra).max() < 1e-7 * scale and np.abs(m @ rb).max() < 1e-7 * scale:
        return ("pair", ra, rb)
    return None


# largest coupling between the parity sectors, departure of the odd block
# from diag(H0 - mu, mu - H0), or imaginary part of the even quadrature
# matrix that decompose accepts as roundoff, relative to max|M|; the
# assembled generator sits near 1e-15
PARITY_TOL = 1e-12


def _sector_pairs(n: int):
    """Index pairs (p, q) and weights s of the reflection parity sectors.

    Even column c of the embedding is s_c (e_p + e_q), odd column c is
    (e_p - e_q) / sqrt 2, in the layout of M; q is the mirror image of p
    under x -> pi - x (grid point j -> n - j in both matter blocks).  The
    even sector holds the photon rows and points j = 0 .. n/2 of each
    block, n + 4 columns with s = 1/2 on the fixed points (p = q) and
    1/sqrt 2 on pairs; the odd sector holds j = 1 .. n/2 - 1 of each block.
    """
    j, mj = mirror_points(n)
    p_even = np.concatenate([[0, 1], 2 + j, 2 + n + j])
    q_even = np.concatenate([[0, 1], 2 + mj, 2 + n + mj])
    p_odd = np.concatenate([2 + j[1:-1], 2 + n + j[1:-1]])
    q_odd = np.concatenate([2 + mj[1:-1], 2 + n + mj[1:-1]])
    s_even = np.where(p_even == q_even, 0.5, np.sqrt(0.5))
    return p_even, q_even, s_even, p_odd, q_odd


def decompose(fm: FluctuationMatrix) -> ModeDecomposition:
    """Full decomposition of a fluctuation matrix, one parity sector at a time.

    In the even sector the phase/number cluster is replaced by its
    analytic (chain or pair) basis before inverting.  Raises
    DecompositionError when M couples the sectors beyond PARITY_TOL,
    when it breaks G M G = -conj(M) beyond PARITY_TOL, or when the even
    right basis is numerically singular.
    """
    m = fm.m
    n = fm.n_grid
    dim = m.shape[0]
    half = n // 2
    k = half - 1  # odd points per matter block; the even sector has half + 1
    p_e, q_e, s_e, p_o, q_o = _sector_pairs(n)
    s_o = np.sqrt(0.5)
    m_e_cols = s_e * (m[:, p_e] + m[:, q_e])  # M E
    m_o_cols = s_o * (m[:, p_o] - m[:, q_o])  # M O
    m_even = s_e[:, None] * (m_e_cols[p_e] + m_e_cols[q_e])
    m_odd = s_o * (m_o_cols[p_o] - m_o_cols[q_o])
    h_odd = 0.5 * (m_odd[:k, :k] + m_odd[:k, :k].T).real
    m_odd[:k, :k] -= h_odd
    m_odd[k:, k:] += h_odd
    scale = np.abs(m).max()
    leftover = max(
        np.abs(m_e_cols[p_o] - m_e_cols[q_o]).max() * s_o,  # O^T M E
        np.abs(s_e[:, None] * (m_o_cols[p_e] + m_o_cols[q_e])).max(),  # E^T M O
        np.abs(m_odd).max(),
    ) / scale
    if leftover > PARITY_TOL:
        raise DecompositionError(f"M breaks reflection parity ({leftover:.2e} max|M|)")

    # G M G = -conj(M) makes A = T (-i M) T^H real, where T takes each
    # (field, conjugate) pair to (x, p) = ((f + c), -i (f - c)) / sqrt 2; so
    # the even modes come from one real eig, in exact pairs lambda,
    # conj(lambda) <-> omega = i lambda, -conj(omega)
    field = np.r_[0, 2 : 3 + half]
    conj = np.r_[1, 3 + half : 4 + 2 * half]
    b = -1j * m_even
    ff, fc = b[np.ix_(field, field)], b[np.ix_(field, conj)]
    cf, cc = b[np.ix_(conj, field)], b[np.ix_(conj, conj)]
    quad = 0.5 * np.block([
        [ff + cf + fc + cc, 1j * (ff + cf - fc - cc)],
        [-1j * (ff - cf + fc - cc), ff - cf - fc + cc],
    ])
    breach = np.abs(quad.imag).max() / scale
    if breach > PARITY_TOL:
        raise DecompositionError(f"M breaks G M G = -conj(M) ({breach:.2e} max|M|)")
    lam, v = np.linalg.eig(quad.real)
    lam = lam.astype(complex)
    right_even = np.empty((n + 4, n + 4), dtype=complex)
    right_even[field] = np.sqrt(0.5) * (v[: half + 2] + 1j * v[half + 2 :])
    right_even[conj] = np.sqrt(0.5) * (v[: half + 2] - 1j * v[half + 2 :])
    omegas_even = 1j * lam
    # eig lists each conjugate pair in a row, positive imaginary part first
    pairing_even = np.arange(n + 4)
    upper = np.flatnonzero(lam.imag > 0)
    pairing_even[upper] = upper + 1
    pairing_even[upper + 1] = upper

    right_even, _ = _canonical_columns(right_even)
    j, mj = mirror_points(n)
    phi_even = s_e[2 : 3 + half] * (fm.phi[j] + fm.phi[mj])
    cluster = _goldstone_cluster(omegas_even, right_even, phi_even, half + 1)
    chain = False
    if len(cluster) == 2:
        canonical = _canonical_goldstone(m_even, phi_even, half + 1)
        if canonical is not None:
            kind, v1, v2 = canonical
            right_even[:, cluster[0]] = v1
            right_even[:, cluster[1]] = v2
            omegas_even[list(cluster)] = 0.0
            pairing_even[list(cluster)] = cluster
            chain = kind == "chain"

    # W S (M + i kappa P) is Hermitian (W: quadrature weights, S: +1 on field
    # and -1 on conjugate rows, P: photon projector), so Im omega is exactly
    # -kappa (|r0|^2 - |r1|^2) / (r^H W S r) where that norm is not null; eig
    # resolves Im omega only to eps max|M|, coarser than slow modes' damping
    metric = np.concatenate([[1.0, -1.0], np.full(half + 1, fm.dx), np.full(half + 1, -fm.dx)])
    weights = np.abs(right_even) ** 2
    norm = metric @ weights
    definite = np.abs(norm) > 1e-3 * (np.abs(metric) @ weights)
    definite[list(cluster)] = False
    damping = -fm.kappa * (weights[0] - weights[1]) / np.where(definite, norm, 1.0)
    omegas_even[definite] = omegas_even[definite].real + 1j * damping[definite]

    # the even embedding is orthonormal, so this is also the sector's
    # condition number in the grid basis
    left_even, cond_r = _refined_inverse(right_even)
    energies, vecs = np.linalg.eigh(h_odd)

    # rescaling columns by f and rows by 1/f keeps left @ right = I exactly
    f_even = _physical_norm_factors(right_even, fm.dx)
    f_odd = 1.0 / np.sqrt(fm.dx * (vecs**2).sum(axis=0))  # no photon rows
    right_even *= f_even
    left_even /= f_even[:, None]
    chain_coupling = 0.0 + 0.0j
    if chain:
        chain_coupling = complex(f_even[cluster[1]] / f_even[cluster[0]])

    omegas = np.concatenate([omegas_even, energies, -energies])
    order = np.lexsort((omegas.imag, omegas.real))
    omegas = omegas[order]
    slot = np.empty(dim, dtype=int)
    slot[order] = np.arange(dim)
    even_slots, plus_slots, minus_slots = slot[: n + 4], slot[n + 4 : n + 4 + k], slot[n + 4 + k :]

    # scatter E right_even and left_even E^T; fixed points (p = q) get both halves
    right = np.zeros((dim, dim), dtype=complex)
    left = np.zeros_like(right)
    right[np.ix_(q_e, even_slots)] = s_e[:, None] * right_even
    right[np.ix_(p_e, even_slots)] += s_e[:, None] * right_even
    left[np.ix_(even_slots, q_e)] = left_even * s_e
    left[np.ix_(even_slots, p_e)] += left_even * s_e
    # (v, 0) at +e and (0, v) at -e, each its own left vector
    right_odd = s_o * vecs * f_odd
    left_odd = (s_o * vecs / f_odd).T
    for block, slots in ((slice(None, k), plus_slots), (slice(k, None), minus_slots)):
        right[np.ix_(p_o[block], slots)] = right_odd
        right[np.ix_(q_o[block], slots)] = -right_odd
        left[np.ix_(slots, p_o[block])] = left_odd
        left[np.ix_(slots, q_o[block])] = -left_odd
    goldstone = tuple(int(even_slots[c]) for c in cluster)

    # pairs never straddle the sectors; odd pairs are +e and -e exactly
    pairing = np.empty(dim, dtype=int)
    pairing[even_slots] = even_slots[pairing_even]
    pairing[plus_slots] = minus_slots
    pairing[minus_slots] = plus_slots
    pairing_error = float(np.abs(omegas[pairing] + omegas.conj()).max())
    # G M G = -conj(M) holds exactly for the assembled matrix, so the true
    # spectrum is exactly (-conj)-symmetric; averaging each pair removes the
    # damping identity's rounding, which otherwise leaks a spurious real
    # part into the near-zero pair denominators of the depletion sums
    omegas = 0.5 * (omegas - omegas[pairing].conj())

    # sector by sector; the blocks between the sectors vanish by construction
    res_even = m_e_cols @ right_even - right[:, even_slots] * omegas[even_slots]
    if chain:
        # the chain column satisfies M r2 = c r1 instead of an eigen relation
        res_even[:, cluster[1]] -= chain_coupling * right[:, goldstone[0]]
    eigen_residual = float(np.abs(res_even).max())
    for cols, slots in ((m_o_cols[:, :k], plus_slots), (m_o_cols[:, k:], minus_slots)):
        res_odd = cols @ (vecs * f_odd) - right[:, slots] * omegas[slots]
        eigen_residual = max(eigen_residual, float(np.abs(res_odd).max()))
    biorth_defect = max(
        float(np.abs(left_even @ right_even - np.eye(n + 4)).max()),
        float(np.abs(vecs.T @ vecs - np.eye(k)).max()),
    )

    return ModeDecomposition(
        omegas=omegas,
        right=right,
        left=left,
        cond_r=cond_r,
        pairing=pairing,
        pairing_error=pairing_error,
        goldstone=goldstone,
        chain=chain,
        chain_coupling=chain_coupling,
        eigen_residual=eigen_residual,
        biorth_defect=biorth_defect,
        n_grid=n,
        dx=fm.dx,
        kappa=fm.kappa,
    )


def reconstruction_defect(dec: ModeDecomposition, m: np.ndarray) -> float:
    """Relative norm of M - R B L, with B the (quasi-)diagonal block."""
    block = np.diag(dec.omegas.astype(complex))
    if dec.chain:
        g1, g2 = dec.goldstone
        block[g1, g2] = dec.chain_coupling
    rebuilt = dec.right @ block @ dec.left
    return float(np.linalg.norm(rebuilt - m) / np.linalg.norm(m))


def classify_stability(
    dec: ModeDecomposition,
    *,
    tol_zero: float = 1e-6,
    tol_noise: float = 1e-10,
) -> StabilityReport:
    """Stability of the steady state from the mode spectrum.

    Unstable when any non-Goldstone mode grows faster than tol_zero.
    Otherwise the verdict rests on the noise-coupled modes only (photon
    weight |l1 l2| above tol_noise): a steady state exists when every
    such mode decays at a numerically resolvable rate (at least
    DAMPING_FLOOR).  No coupled mode at all (decoupled cavity), or a
    coupled one whose decay is unresolvable, means marginal.  Modes with
    negligible photon weight never receive noise, so their numerically
    zero damping is harmless for the existence of the steady state.
    """
    dim = dec.omegas.size
    non_g = np.array([k for k in range(dim) if k not in dec.goldstone], dtype=int)
    growth = dec.omegas[non_g].imag
    max_growth = float(growth.max())
    if max_growth > tol_zero:
        return StabilityReport("unstable", max_growth)
    weights = np.abs(dec.left[non_g, 0] * dec.left[non_g, 1])
    coupled = weights > tol_noise
    if coupled.any() and (growth[coupled] < -DAMPING_FLOOR).all():
        return StabilityReport("stable", max_growth)
    return StabilityReport("marginal", max_growth)


def petermann_factor(
    dec: ModeDecomposition,
    k: int,
    *,
    on_degenerate: str = "cluster_cond",
):
    """Excess-noise factor K_k = |l|^2 |r|^2 under (l, r) = 1.

    Equals 1 exactly for normal matrices and exceeds 1 when the
    eigenbasis is skewed.  For a mode inside a degenerate cluster the
    per-mode factor is ill defined; depending on ``on_degenerate`` this
    returns the condition number of the cluster's right-vector block
    ("cluster_cond"), raises ("raise"), or computes the raw product
    anyway ("raw").
    """
    omegas = dec.omegas
    scale = float(np.abs(omegas).max())
    cluster = np.nonzero(np.abs(omegas - omegas[k]) <= CLUSTER_RTOL * max(scale, 1.0))[0]
    if cluster.size > 1 and on_degenerate != "raw":
        cond = float(np.linalg.cond(dec.right[:, cluster]))
        if on_degenerate == "raise":
            raise DegenerateClusterError(
                f"mode {k} sits in a degenerate cluster of size {cluster.size} "
                f"(basis condition number {cond:.3e})",
                cluster=tuple(int(i) for i in cluster),
                condition_number=cond,
            )
        return cond
    return float(
        (np.linalg.norm(dec.left[k]) * np.linalg.norm(dec.right[:, k])) ** 2
    )


def petermann_raw(dec: ModeDecomposition) -> np.ndarray:
    """Raw K_k for every mode (no degeneracy handling), for sweep tables."""
    return (
        np.linalg.norm(dec.left, axis=1) * np.linalg.norm(dec.right, axis=0)
    ) ** 2
