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

The even sector is an arrowhead.  In the eigenbasis of its real
symmetric matter block h = Q diag(e) Q^T (one ``eigh``) it is the
diagonal +e_j, -e_j with a border two rows and two columns wide: the
photon column carries y_c = Q^T M[f, 0], the photon row y_r = Q^T M[0, f],
and G M G = -conj(M) ties the second photon row and column to them
through the phase beta = alpha / conj(alpha).  Both photon rows carry the
same profile, so the 2 x 2 secular problem of Golub (SIAM Rev. 15, 318,
1973) collapses to one scalar equation for every even frequency,

    (w - A)(w + conj A) = 2 Re A sum_j g_j 2 e_j / (w^2 - e_j^2),

with A = M[0, 0] and g_j = y_r,j y_c,j real.  The condensate's own level
e = 0 drops out, its term carrying the factor 2 e_j, which leaves n + 2
roots beside the phase/number pair.  Each root is solved in offset form
w = anchor + delta, anchored at its own pole +-e_j or at A or -conj(A),
so that Im w, the damping of a weakly coupled rung, keeps full relative
precision; a dense eigensolver resolves it only to eps max|M|.  The right
and left vectors are closed-form resolvent columns (Gu and Eisenstat,
SIMAX 16, 172, 1995): the right vector has matter parts
y_c,j / (w - e_j) and -y_c,j / (w + e_j) and photon parts X / (w - A)
and -X / (beta (w + conj A)), with X = sum_j g_j (1/(w - e_j) - 1/(w + e_j));
the left vector is the transposed analogue with y_r, and l . r = 1 comes
from the same products.  Q maps both back to the grid.  Nothing is
inverted and no dense eigensolver runs; instead ``decompose`` certifies
the result (distinct roots, an exact mirror pairing, the trace identity
sum w = tr M_even, biorthogonality, a condition bound) and raises
DecompositionError when a certificate fails.

Rows of ``left`` satisfy left @ right = I, so row k conjugated is the
left eigenvector in the conjugate-linear scalar product convention; the
noise weights used by the depletion sums are exactly left[k, 0] and
left[k, 1].

Phase symmetry of the condensate makes the even sector defective: with
the chemical potential subtracted the vector (0, 0, phi, -phi) is an
exact null vector whose dual partner (the number fluctuation) forms a
2 x 2 Jordan chain with it.  ``decompose`` takes that pair from the
analytic chain basis (exact zeros, well conditioned) and its left rows
from the other modes' spectral projector; the pair's indices are exposed
so downstream sums can treat them separately.

The module sees only the generator: the mean field and the per-point
chain that feeds M in here are ``depletion.analyze_point``'s business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluctuation import FluctuationMatrix
from .grid import mirror_points

EPS = np.finfo(float).eps

# largest right-basis condition number accepted before the decomposition
# is declared numerically singular
COND_LIMIT = 1e12
# largest biorthogonality defect max|L R - I| of the even modes accepted
BIORTH_LIMIT = 1e-10
# largest mirror-pairing mismatch |w_k' + conj(w_k)|, relative to max|w|
PAIRING_RTOL = 1e-8
# cap on the Aberth sweeps of the secular solve, which takes 3-8 (up to
# about 17 without the chemical potential subtracted)
SECULAR_STEPS = 50
# slowest decay rate classify_stability resolves as damping
DAMPING_FLOOR = 5e-12


class DecompositionError(RuntimeError):
    """Eigendecomposition unusable: M off its block form, or a failed certificate."""


@dataclass
class StabilityReport:
    label: str  # "stable", "unstable" or "marginal"
    max_growth_rate: float  # max Im omega over non-Goldstone modes


@dataclass
class ModeDecomposition:
    """Eigenvalues with paired left/right vectors, biorthonormalized.

    omegas    -- complex mode frequencies, sorted by (Re, Im); the
                 Goldstone entries are exact zeros
    right     -- columns are right vectors (unit photon plus
                 quadrature-weighted matter norm, largest entry real
                 positive); the Goldstone columns are the analytic basis
    left      -- rows, with left @ right = I
    cond_r    -- ||R||_F ||L||_F of the even right basis with unit columns,
                 an upper bound on its 2-norm condition number:
                 sqrt((n + 4) * sum of the even Petermann factors)
    pairing   -- involution k -> k' with omega_k' = -conj(omega_k)
                 exactly (Goldstone modes pair with themselves)
    goldstone -- indices of the condensate phase/number pair
    chain     -- True when the pair is a Jordan chain
                 (M r2 = c r1, M r1 = 0) rather than two eigenvectors;
                 the coupling c is stored in chain_coupling
    eigen_residual -- max|M r - omega r| over the modes, each parity
                 sector in its orthonormal basis (the chain column
                 against its chain relation); the odd sector's is
                 bounded by the residual of its real block plus the
                 measured departure of M from diag(h, -h)
    biorth_defect  -- max|L R - I|, sector by sector
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


def _physical_norm_factors(vecs: np.ndarray, dx: float) -> np.ndarray:
    """Column factors giving unit photon + quadrature-weighted matter norm.

    Makes per-mode quantities such as the photon noise weights |l1 l2|
    grid-resolution invariant, so the absolute skip tolerances of the
    depletion sums mean the same thing at every grid size.
    """
    photon = np.abs(vecs[0, :]) ** 2 + np.abs(vecs[1, :]) ** 2
    atom = np.linalg.norm(vecs[2:, :], axis=0) ** 2
    return 1.0 / np.sqrt(photon + dx * atom)


def _canonical_goldstone(m: np.ndarray, phi: np.ndarray, n: int):
    """Analytic basis for the phase/number sector.

    Returns (kind, v1, v2) with kind "pair" when both are eigenvectors
    (decoupled cavity) or "chain" when M v2 = v1, M v1 = 0 (the generic
    defective case), or None when neither structure is present to solver
    accuracy.  The chain residual is bounded relative to |v2|, the scale
    of the solve's backward error: the weaker the coupling, the longer the
    chain vector (|v2| about 2.5e4 at delta_c = -10000, u0 = -0.02).
    """
    dim = m.shape[0]
    scale = float(np.abs(m).max())
    r1 = np.zeros(dim, dtype=complex)
    r1[2 : 2 + n] = phi
    r1[2 + n :] = -phi
    r1 /= np.linalg.norm(r1)
    if np.abs(m @ r1).max() > 1e-7 * scale:
        return None
    ra = np.zeros(dim, dtype=complex)
    ra[2 : 2 + n] = phi
    ra /= np.linalg.norm(ra)
    rb = np.zeros(dim, dtype=complex)
    rb[2 + n :] = phi
    rb /= np.linalg.norm(rb)
    if np.abs(m @ ra).max() < 1e-7 * scale and np.abs(m @ rb).max() < 1e-7 * scale:
        return ("pair", ra, rb)
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
        return None
    if np.linalg.norm(m @ r2 - r1) <= 1e-7 * max(1.0, float(np.linalg.norm(r2))):
        return ("chain", r1, r2)
    return None


# largest coupling between the parity sectors, departure of the odd block
# from diag(H0 - mu, mu - H0), or departure of the even sector from its
# bordered form that decompose accepts as roundoff, relative to max|M|; the
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


def _secular_roots(poles: np.ndarray, weights: np.ndarray, a_diag: complex):
    """Every root of the even sector's secular equation, in offset form.

    The equation is f(w) = (w - A)(w + conj A) - 2 Re A sum_k c_k / (w - p_k)
    with real poles p_k and weights c_k; it has one root per pole plus
    two.  Root i is anchors[i] + delta[i]: roots 0 .. P-1 are anchored at
    their own pole p_i, the last two at the photon frequencies A and
    -conj(A).  The anchor is subtracted exactly (w - p_i = delta_i), so
    delta keeps full relative precision however close the root sits to
    its pole, and with it the damping Im w of a weakly coupled mode.

    Aberth-Ehrlich iteration: each sweep takes a Newton step on every
    unconverged root, corrected by the repulsion of all the other roots,
    so two approximations cannot settle on the same root and a root off
    the real axis, or a pair on the imaginary axis, is found like any
    other.  A matter root iterates on h(delta) = delta f(p_i + delta),
    which has no pole at its anchor.  The start is one Newton step from
    each pole; one photon start is moved off its anchor, since a start set
    symmetric under w -> -conj(w) stays symmetric and cannot split into
    two roots on the imaginary axis.  A root stops when its step is a few
    ulps, or when the step stalls at the rounding floor of f.  Raises
    DecompositionError when a root still moves after SECULAR_STEPS sweeps.
    """
    two_re = 2.0 * a_diag.real
    n_poles = poles.size
    anchors = np.concatenate([poles, [a_diag, -a_diag.conjugate()]])
    to_a = anchors - a_diag  # w - A = to_a + delta, exactly 0 + delta at A
    to_b = anchors + a_diag.conjugate()
    own_weight = np.concatenate([weights, [0.0, 0.0]])

    with np.errstate(divide="ignore"):
        inv = 1.0 / (poles[:, None] - poles)
    np.fill_diagonal(inv, 0.0)
    rest = (poles - a_diag) * (poles + a_diag.conjugate()) - two_re * (inv @ weights)
    delta = np.zeros(anchors.size, dtype=complex)
    delta[:n_poles] = two_re * weights / rest
    delta[n_poles] = 1e-3j * abs(a_diag)  # breaks the mirror symmetry of the start

    active = np.arange(anchors.size)
    last = np.full(anchors.size, np.inf)  # each root's previous step size
    for _ in range(SECULAR_STEPS):
        d = delta[active]
        rows = np.arange(active.size)
        matter = active < n_poles
        own = (rows[matter], active[matter])
        inv = anchors[active, None] - poles
        inv += d[:, None]
        inv[own] = 1.0
        np.reciprocal(inv, out=inv)
        inv[own] = 0.0  # sums over the other poles
        rest = inv @ weights
        slope = np.square(inv) @ weights
        wa = to_a[active] + d
        wb = to_b[active] + d
        f = wa * wb - two_re * rest
        fp = wa + wb + two_re * slope
        h = np.where(matter, d * f - two_re * own_weight[active], f)
        hp = np.where(matter, f + d * fp, fp)
        # Aberth term: the other roots' sum of 1/(z - z_k), less the
        # 1/(z - p_k) of each matter root's pole already in h'/h, is -push;
        # per matter root the difference is -delta_k / ((z - p_k)(z - z_k)),
        # free of cancellation
        repel = anchors[active, None] - anchors
        repel += d[:, None]
        repel -= delta
        repel[rows, active] = 1.0
        np.reciprocal(repel, out=repel)
        repel[rows, active] = 0.0
        push = repel[:, n_poles:].sum(axis=1)
        repel = repel[:, :n_poles]
        repel *= inv
        push += repel @ delta[:n_poles]
        step = h / (hp - h * push)  # Newton-Aberth: 1 / (h'/h - push)
        delta[active] = d - step
        # converged to the last bits, or stalled at the rounding floor of f
        size = np.abs(step)
        moving = (size > 4.0 * EPS * np.abs(delta[active])) & (
            (size < 0.5 * last[active]) | (size > 1e-8 * np.abs(delta[active]))
        )
        last[active] = size
        active = active[moving]
        if not active.size:
            return anchors, delta
    raise DecompositionError(
        f"secular equation: {active.size} roots unconverged after {SECULAR_STEPS} sweeps"
    )


def _rotate(basis: np.ndarray, z: np.ndarray) -> np.ndarray:
    """basis @ z for real basis and complex z, as one real product."""
    z = np.ascontiguousarray(z)
    return (basis @ z.view(float).reshape(z.shape[0], -1)).view(complex)


def _resolvent_vectors(basis, levels, weight_r, weight_l, poles, anchors, delta, a_diag, beta):
    """Closed-form right and left vectors of the secular roots, sector basis.

    In the eigenbasis of h the right vector of root w has matter entries
    weight_r[k] / (w - levels[k]) and photon entries X / (w - A) and
    -X / (beta (w + conj A)), X = y_r . (u + v) from the photon row; the
    left vector has weight_l[k] / (w - levels[k]), X' / (w - A) and
    beta X' / (w + conj A).  Each is scaled so that its entry at the root's
    own anchor is 1 (the photon entry for a photon root), so nothing is
    0/0 when a mode decouples and its offset vanishes.  Returns the
    (n + 4)-square right and left arrays with the roots in the first
    columns (rows), and the products l . r of each pair.
    """
    n_e = basis.shape[0]
    n_roots = anchors.size
    n_poles = poles.size
    two_re = 2.0 * a_diag.real
    wa = (anchors - a_diag) + delta  # w - A
    wb = (anchors + a_diag.conjugate()) + delta  # w + conj A
    t_r = np.zeros(n_roots, dtype=complex)  # the scale of each vector
    t_l = np.zeros(n_roots, dtype=complex)
    np.divide(delta[:n_poles], weight_r[poles], out=t_r[:n_poles], where=weight_r[poles] != 0)
    np.divide(delta[:n_poles], weight_l[poles], out=t_l[:n_poles], where=weight_l[poles] != 0)
    t_r[-2] = t_l[-2] = two_re / wb[-2]  # the root at A: delta / X from the secular equation
    t_r[-1] = -beta * two_re / wa[-1]  # the root at -conj(A)
    t_l[-1] = two_re / (beta * wa[-1])
    own = (poles, np.arange(n_poles))
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = anchors - levels[:, None]
        gaps += delta
        np.reciprocal(gaps, out=gaps)  # 1 / (w_i - level_k); inf at delta = 0
    right_q = weight_r[:, None] * gaps
    right_q *= t_r
    right_q[own] = 1.0
    left_q = gaps
    left_q *= weight_l[:, None]
    left_q *= t_l
    left_q[own] = 1.0
    x_r = weight_l @ right_q
    x_l = weight_r @ left_q
    with np.errstate(divide="ignore", invalid="ignore"):  # the photon roots are set below
        r0, r1 = x_r / wa, -x_r / (beta * wb)
        l0, l1 = x_l / wa, beta * x_l / wb
    r0[-2], r1[-2] = 1.0, -delta[-2] / (beta * wb[-2])
    l0[-2], l1[-2] = 1.0, beta * delta[-2] / wb[-2]
    r0[-1], r1[-1] = -beta * delta[-1] / wa[-1], 1.0
    l0[-1], l1[-1] = delta[-1] / (beta * wa[-1]), 1.0
    dots = r0 * l0 + r1 * l1 + np.einsum("ki,ki->i", right_q, left_q)

    dim = 2 + 2 * n_e
    f, c = slice(2, 2 + n_e), slice(2 + n_e, dim)
    right = np.empty((dim, dim), dtype=complex)
    left = np.empty((dim, dim), dtype=complex)
    right[0, :n_roots], right[1, :n_roots] = r0, r1
    right[f, :n_roots] = _rotate(basis, right_q[:n_e])
    right[c, :n_roots] = _rotate(basis, right_q[n_e:])
    left[:n_roots, 0], left[:n_roots, 1] = l0, l1
    left[:n_roots, f] = _rotate(basis, left_q[:n_e]).T
    left[:n_roots, c] = _rotate(basis, left_q[n_e:]).T
    return right, left, dots


def _mirror_pairing(roots: np.ndarray, delta: np.ndarray, scale: float) -> np.ndarray:
    """The involution k -> k' with roots[k'] = -conj(roots[k]), certified.

    Raises DecompositionError unless the roots are distinct, pair under
    an involution to PAIRING_RTOL, and meet the trace identity: the
    anchors sum to tr M_even exactly, so the offsets must sum to zero.
    Distances are squared moduli, |w_i - w_k|^2 and |w_i + conj(w_k)|^2.
    """
    re_sum = roots.real[:, None] + roots.real
    im_gap = np.square(roots.imag[:, None] - roots.imag)
    mirror = np.square(re_sum) + im_gap
    re_sum -= 2.0 * roots.real  # now re_i - re_k
    spread = np.square(re_sum, out=re_sum)
    spread += im_gap
    np.fill_diagonal(spread, np.inf)
    w_scale = float(np.abs(roots).max())
    gap = float(np.sqrt(spread.min()))
    if not gap > 1e-12 * w_scale:
        raise DecompositionError(f"secular roots not distinct ({gap:.2e} apart)")
    pairing = np.argmin(mirror, axis=1)
    mismatch = float(np.sqrt(mirror[np.arange(roots.size), pairing].max()))
    if not np.array_equal(pairing[pairing], np.arange(roots.size)) or mismatch > PAIRING_RTOL * w_scale:
        raise DecompositionError(f"secular roots do not pair as w, -conj(w) ({mismatch:.2e})")
    trace = abs(delta.sum())
    if not trace <= PARITY_TOL * scale:
        raise DecompositionError(f"secular roots miss the trace of M ({trace:.2e})")
    return pairing


@dataclass
class _EvenModes:
    """The even sector's modes in its orthonormal basis; see ``decompose``.

    goldstone holds the sector indices of the phase/number pair, the last
    two columns; residual is max|M_even R - R W|, the chain column taken
    against its chain relation.
    """

    omegas: np.ndarray
    right: np.ndarray
    left: np.ndarray
    pairing: np.ndarray
    goldstone: tuple[int, ...]
    chain: bool
    chain_coupling: complex
    cond_r: float
    biorth_defect: float
    residual: float


def _even_modes(m_even: np.ndarray, phi_even: np.ndarray, dx: float, scale: float) -> _EvenModes:
    """Modes of the even sector from its secular equation (module docstring)."""
    n_e = phi_even.size
    f = slice(2, 2 + n_e)
    c = slice(2 + n_e, 2 + 2 * n_e)
    a_diag = complex(m_even[0, 0])
    col = m_even[f, 0]  # matter rows of the photon column, conj(alpha) y
    row = m_even[0, f]  # photon row on the matter columns, alpha y dx
    pivot = col[np.argmax(np.abs(col))]
    beta = np.conj(pivot) / pivot if pivot != 0 else 1.0  # alpha / conj(alpha)
    h = m_even[f, f].real
    h = 0.5 * (h + h.T)
    # the form build_matrix gives, with G M G = -conj(M) built in: matter
    # blocks h and -h, no anomalous blocks, and a rank-one photon border
    model = np.zeros_like(m_even)
    model[0, 0] = a_diag
    model[1, 1] = -a_diag.conjugate()
    model[f, 0], model[c, 0] = col, -col
    model[f, 1], model[c, 1] = col.conj(), -col.conj()
    model[0, f] = model[0, c] = row
    model[1, f] = model[1, c] = -row.conj()
    model[f, f], model[c, c] = h, -h
    model -= m_even
    breach = max(
        np.abs(model).max(),
        np.abs(col.conj() - beta * col).max(),
        np.abs(row.conj() - row / beta).max(),
    ) / scale
    del model
    if breach > PARITY_TOL:
        raise DecompositionError(
            f"M breaks G M G = -conj(M) or the bordered form of the even sector "
            f"({breach:.2e} max|M|)"
        )

    energies, basis = np.linalg.eigh(h)
    col_q = basis.T @ col
    row_q = basis.T @ row
    coupled = np.ones(n_e, dtype=bool)
    canonical = _canonical_goldstone(m_even, phi_even, n_e)
    if canonical is not None:
        # the condensate's own level is the exact zero of H0 - mu; its pole
        # pair cancels from the secular sum (its term carries 2 e_j)
        zero = int(np.argmax(np.abs(basis.T @ phi_even)))
        energies[zero] = 0.0
        coupled[zero] = False
    # the matter levels +e_j (field block) and -e_j (conjugate block)
    levels = np.concatenate([energies, -energies])
    weight_r = np.concatenate([col_q, -col_q])  # right vectors: +-y_c / (w -+ e)
    weight_l = np.concatenate([row_q, row_q])  # left vectors: y_r / (w -+ e)
    poles = np.concatenate([np.flatnonzero(coupled), n_e + np.flatnonzero(coupled)])
    anchors, delta = _secular_roots(
        levels[poles], (weight_r[poles] * weight_l[poles]).real, a_diag
    )
    n_roots = anchors.size
    omegas = anchors + delta
    pairing = _mirror_pairing(omegas, delta, scale)
    # the exact mirror pairs: a self-paired root lands on the imaginary axis
    omegas = 0.5 * (omegas - omegas[pairing].conj())

    right, left, dots = _resolvent_vectors(
        basis, levels, weight_r, weight_l, poles, anchors, delta, a_diag, beta
    )
    dim = right.shape[0]
    # unit photon plus quadrature-weighted matter norm, largest entry real
    # positive; each left row rescaled to l . r = 1
    pivots = right[np.argmax(np.abs(right[:, :n_roots]), axis=0), np.arange(n_roots)]
    scales = np.abs(pivots) / pivots * _physical_norm_factors(right[:, :n_roots], dx)
    right[:, :n_roots] *= scales
    left[:n_roots] /= (dots * scales)[:, None]

    omegas = np.concatenate([omegas, np.zeros(dim - n_roots)])
    pairing = np.concatenate([pairing, np.arange(n_roots, dim)])  # Goldstone: itself
    goldstone = tuple(range(n_roots, dim))
    chain = False
    chain_coupling = 0.0 + 0.0j
    if canonical is not None:
        kind, v1, v2 = canonical
        right[:, n_roots] = v1
        right[:, n_roots + 1] = v2
        factors = _physical_norm_factors(right[:, n_roots:], dx)
        right[:, n_roots:] *= factors
        chain = kind == "chain"
        if chain:
            chain_coupling = complex(factors[1] / factors[0])
        # the dual rows: R_G^H projected off the other modes' spectral projector
        r_g = right[:, n_roots:]
        r_gh = r_g.conj().T
        left[n_roots:] = np.linalg.solve(
            r_gh @ r_g, r_gh - (r_gh @ right[:, :n_roots]) @ left[:n_roots]
        )

    biorth_defect = float(np.abs(left @ right - np.eye(dim)).max())
    if not biorth_defect <= BIORTH_LIMIT:
        raise DecompositionError(f"even modes not biorthogonal (max|LR - I| = {biorth_defect:.2e})")
    # ||R||_F ||L||_F over unit columns bounds the 2-norm condition number
    petermann = (np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=0)) ** 2
    cond_r = float(np.sqrt(dim * petermann.sum()))
    if not cond_r <= COND_LIMIT:
        raise DecompositionError(
            f"right eigenvector basis is numerically singular "
            f"(cond <= {cond_r:.3e} > {COND_LIMIT:.1e}); "
            "use the Lyapunov second-moment oracle instead"
        )
    residual = m_even @ right
    residual -= right * omegas
    if chain:
        # the chain column satisfies M r2 = c r1 instead of an eigen relation
        residual[:, -1] -= chain_coupling * right[:, -2]
    residual = float(np.abs(residual).max())
    return _EvenModes(
        omegas, right, left, pairing, goldstone, chain, chain_coupling, cond_r,
        biorth_defect, residual,
    )


def decompose(fm: FluctuationMatrix) -> ModeDecomposition:
    """Full decomposition of a fluctuation matrix, one parity sector at a time.

    The even sector is solved from its secular equation (see the module
    docstring), the odd block by one ``eigh``.  Raises DecompositionError
    when M couples the sectors beyond PARITY_TOL, when its even sector
    departs from the bordered form with G M G = -conj(M) beyond
    PARITY_TOL, or when the even modes fail a certificate: n + 2 distinct
    non-Goldstone roots (n + 4 without the phase mode), an exact mirror
    pairing, the trace identity, biorthogonality to BIORTH_LIMIT, and a
    condition bound within COND_LIMIT.  There is no fallback solve.
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
    scale = np.abs(m).max()
    leftover = max(
        np.abs(m_e_cols[p_o] - m_e_cols[q_o]).max() * s_o,  # O^T M E
        np.abs(s_e[:, None] * (m_o_cols[p_e] + m_o_cols[q_e])).max(),  # E^T M O
        np.abs(m_odd[:k, :k] - h_odd).max(),
        np.abs(m_odd[k:, k:] + h_odd).max(),
        np.abs(m_odd[:k, k:]).max(),
        np.abs(m_odd[k:, :k]).max(),
    ) / scale
    if leftover > PARITY_TOL:
        raise DecompositionError(f"M breaks reflection parity ({leftover:.2e} max|M|)")
    del m_e_cols, m_o_cols, m_odd

    j, mj = mirror_points(n)
    phi_even = s_e[2 : 3 + half] * (fm.phi[j] + fm.phi[mj])
    even = _even_modes(m_even, phi_even, fm.dx, scale)
    del m_even
    energies, vecs = np.linalg.eigh(h_odd)
    f_odd = 1.0 / np.sqrt(fm.dx * (vecs**2).sum(axis=0))  # no photon rows
    w_odd = vecs * f_odd  # the odd right vectors in the sector basis

    omegas = np.concatenate([even.omegas, energies, -energies])
    order = np.lexsort((omegas.imag, omegas.real))
    omegas = omegas[order]
    slot = np.empty(dim, dtype=int)
    slot[order] = np.arange(dim)
    even_slots, plus_slots, minus_slots = slot[: n + 4], slot[n + 4 : n + 4 + k], slot[n + 4 + k :]

    # scatter E right_even and left_even E^T: both points of a mirror pair
    # get s times the sector entry, a fixed point (p = q) gets it whole;
    # (v, 0) at +e and (0, v) at -e are odd, each its own left vector
    weight = np.where(p_e == q_e, 1.0, s_e)
    pairs = np.flatnonzero(p_e != q_e)
    even.right *= weight[:, None]
    even.left *= weight
    right_odd = s_o * w_odd
    left_odd = (s_o * vecs / f_odd).T
    right = np.zeros((dim, dim), dtype=complex)
    left = np.zeros_like(right)
    right[np.ix_(p_e, even_slots)] = even.right
    right[np.ix_(q_e[pairs], even_slots)] = even.right[pairs]
    left[np.ix_(even_slots, p_e)] = even.left
    left[np.ix_(even_slots, q_e[pairs])] = even.left[:, pairs]
    for block, slots in ((slice(None, k), plus_slots), (slice(k, None), minus_slots)):
        right[np.ix_(p_o[block], slots)] = right_odd
        right[np.ix_(q_o[block], slots)] = -right_odd
        left[np.ix_(slots, p_o[block])] = left_odd
        left[np.ix_(slots, q_o[block])] = -left_odd
    goldstone = tuple(int(even_slots[c]) for c in even.goldstone)

    # pairs never straddle the sectors; odd pairs are +e and -e exactly
    pairing = np.empty(dim, dtype=int)
    pairing[even_slots] = even_slots[even.pairing]
    pairing[plus_slots] = minus_slots
    pairing[minus_slots] = plus_slots
    pairing_error = float(np.abs(omegas[pairing] + omegas.conj()).max())
    # G M G = -conj(M) holds exactly for the assembled matrix, so the true
    # spectrum is exactly (-conj)-symmetric; averaging each pair makes the
    # near-zero pair denominators of the depletion sums exactly imaginary
    omegas = 0.5 * (omegas - omegas[pairing].conj())

    # max|M r - w r| sector by sector, each in its orthonormal basis, the
    # blocks between the sectors being below PARITY_TOL; the odd one is the
    # residual of h_odd plus what M departs from diag(h_odd, -h_odd)
    res_odd = float(np.abs(h_odd @ w_odd - w_odd * energies).max())
    res_odd += leftover * scale * float(np.abs(w_odd).sum(axis=0).max())
    eigen_residual = max(even.residual, res_odd)
    biorth_defect = max(even.biorth_defect, float(np.abs(vecs.T @ vecs - np.eye(k)).max()))

    return ModeDecomposition(
        omegas=omegas,
        right=right,
        left=left,
        cond_r=even.cond_r,
        pairing=pairing,
        pairing_error=pairing_error,
        goldstone=goldstone,
        chain=even.chain,
        chain_coupling=even.chain_coupling,
        eigen_residual=eigen_residual,
        biorth_defect=biorth_defect,
        n_grid=n,
        dx=fm.dx,
        kappa=fm.kappa,
    )


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
    non_g = np.delete(np.arange(dec.omegas.size), list(dec.goldstone))
    growth = dec.omegas[non_g].imag
    max_growth = float(growth.max())
    if max_growth > tol_zero:
        return StabilityReport("unstable", max_growth)
    weights = np.abs(dec.left[non_g, 0] * dec.left[non_g, 1])
    coupled = weights > tol_noise
    if coupled.any() and (growth[coupled] < -DAMPING_FLOOR).all():
        return StabilityReport("stable", max_growth)
    return StabilityReport("marginal", max_growth)


def petermann_raw(dec: ModeDecomposition) -> np.ndarray:
    """Excess-noise factor K_k = |l_k|^2 |r_k|^2 under l_k . r_k = 1 for every
    mode: 1 for a normal mode, above 1 where the eigenbasis is skewed."""
    return (
        np.linalg.norm(dec.left, axis=1) * np.linalg.norm(dec.right, axis=0)
    ) ** 2
