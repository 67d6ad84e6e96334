"""Biorthogonal eigendecomposition of the fluctuation generator.

The lattice potential cos^2 x and the condensate are even under the
reflection x -> pi - x, so M splits into two exact sectors.  Only even
matter modes couple to the cavity.  The odd modes form the real
symmetric block diag(H0 - mu, -(H0 - mu)) on the sine modes sin 2mx:
normal and noiseless, with right and left vectors (v, 0) at +e and
(0, v) at -e.  The non-normality, and with it the Petermann-type excess
noise, lives in the even sector of dimension n + 4 (the photon pair plus
the cosine modes cos 2mx of each matter block), and ``decompose`` solves
that sector alone; ``odd_frequencies`` gives the odd modes' frequencies
to the spectrum listing, the one place that shows them.
``build_matrix`` builds both sectors straight from the mean field, so
no coupling between them exists to check for.

The even sector is an arrowhead.  In the eigenbasis of its real
symmetric matter block h = Q diag(e) Q^T (one ``eigh``) it is the
diagonal +e_j, -e_j with a border two rows and two columns wide: the
photon column carries y_c = Q^T M[f, 0], the photon row y_r = Q^T M[0, f],
and G M G = -conj(M) ties the second photon row and column to them
through the phase beta = alpha / conj(alpha).  Both photon rows carry the
same profile, so the 2 x 2 secular problem of Golub (SIAM Rev. 15, 318,
1973) collapses to one scalar equation for every even frequency,

    (w - A)(w + conj A) = 2 Re A sum_j g_j 2 e_j / (w^2 - e_j^2),

with A = M[0, 0] and g_j = y_r,j y_c,j = |alpha|^2 dx q_j^2, q = Q^T y, taken
as |y_r,j y_c,j| so that its sign is exact.  The condensate's own level
e = 0 drops out, its term carrying the factor 2 e_j, which leaves n + 2
roots beside the phase/number pair.  Each root is solved in offset form
w = anchor + delta, anchored at its own pole +-e_j or at A or -conj(A),
so that Im w, the damping of a weakly coupled rung, keeps full relative
precision; a dense eigensolver resolves it only to eps max|M|.  The right
vectors are closed-form resolvent columns (Gu and Eisenstat, SIMAX 16,
172, 1995), with matter parts y_c,j / (w - e_j) and -y_c,j / (w + e_j)
and photon parts X / (w - A) and -X / (beta (w + conj A)), where
X = sum_j g_j (1/(w - e_j) - 1/(w + e_j)); Q maps them back to the cosine
modes.

The left vectors need no second solve: the sector is reciprocal.  With
W = diag(conj beta, -beta, dx 1, -dx 1) on (a, a^dag, field modes,
conjugate modes), W M is symmetric, M^T = W M W^-1, because the photon
row is row = beta dx col on both matter blocks, the a^dag row and column
are the G images of the a ones, and h is real symmetric.  So (W r)^T is
a left vector of the right vector r, and l = (W r)^T / (r^T W r): the
adjoint mode of a complex-symmetric system is its transpose (Siegman,
PRA 39, 1253, 1989).  ``decompose``'s structure check asserts each of
those relations to STRUCTURE_TOL before any vector is built, so the
identity holds to the rounding that the biorthogonality certificate
measures.  Nothing is inverted and no dense eigensolver runs; instead
``decompose`` certifies the result (distinct roots, an exact mirror
pairing, the trace identity sum w = tr M_even, biorthogonality, a
condition bound) and raises DecompositionError when a certificate fails.

``decompose`` keeps the even modes in this sector form: their right and
left vectors in the sector's orthonormal basis, a mode's index its
column there.  The noise weights used by the depletion sums are exactly
the photon entries even_left[k, 0] and even_left[k, 1], the first two
columns of the left rows.

Phase symmetry of the condensate makes the even sector defective: in the
frame of the chemical potential the vector (0, 0, phi, -phi) is an
exact null vector whose dual partner (the number fluctuation) forms a
2 x 2 Jordan chain with it (two eigenvectors when the cavity decouples;
Castin and Dum, PRA 57, 3008, 1998).  ``phase_chain`` gives that pair's
right columns and left rows in closed form, from one real solve with the
matter block; ``decompose`` takes the pair from it as exact zeros and
refuses a generator without it, and the Lyapunov oracle deflates the
same pair.  Its vectors are self-orthogonal, r^T W r = 0, so its dual
rows are ``phase_chain``'s, not the transposes.  The pair's indices are
exposed so downstream sums can treat them separately.

The module sees only the generator: the mean field and the per-point
chain that feeds M in here are ``depletion.analyze_point``'s business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluctuation import FluctuationMatrix, sector_blocks, synthesize_sector

EPS = np.finfo(float).eps

# largest right-basis condition number accepted before the decomposition
# is declared numerically singular
COND_LIMIT = 1e12
# largest biorthogonality defect max|L R - I| of the even modes accepted
BIORTH_LIMIT = 1e-10
# largest mirror-pairing mismatch |w_k' + conj(w_k)|, relative to max|w|
PAIRING_RTOL = 1e-8
# cap on the Aberth sweeps of the secular solve, which takes 3-8
SECULAR_STEPS = 50
# slowest decay rate classify_stability resolves as damping
DAMPING_FLOOR = 5e-12
# smallest photon noise weight |l1 l2| through which a mode counts as
# coupled to the cavity noise, in classify_stability and the depletion sums
NOISE_FLOOR = 1e-10
# largest growth rate Im w that classify_stability does not call unstable
GROWTH_TOL = 1e-6


class DecompositionError(RuntimeError):
    """Eigendecomposition unusable: M off its block form, or a failed certificate."""


@dataclass
class StabilityReport:
    label: str  # "stable", "unstable" or "marginal"
    max_growth_rate: float  # max Im omega over non-Goldstone modes


@dataclass
class ModeDecomposition:
    """The even sector's eigenvalues with paired left/right vectors, in
    sector form.

    The modes are kept in the sector's orthonormal basis.  A mode's index
    is its column of even_right.  Each right vector is fixed up to a
    phase, and its left row takes the inverse phase; nothing read from
    the modes (Petermann factors, |l1|, |l2|, the pair weights
    l1_k l2_l O_kl, projectors) depends on it.

    omegas      -- complex mode frequencies: the n + 2 secular roots, then
                   the phase/number pair as exact zeros
    even_right  -- (n + 4)-square: columns are the right vectors in the
                   even sector basis (photon rows 0 and 1, then the
                   cosine modes m = 0 .. n/2 of the field block and of
                   the conjugate block), with unit photon plus
                   quadrature-weighted matter norm; the Goldstone
                   columns are the analytic basis
    even_left   -- rows, with even_left @ even_right = I: (W r_k)^T / (r_k^T W r_k)
                   for the secular roots (module docstring), ``phase_chain``'s
                   dual rows for the phase/number pair; built as the
                   transpose of an array whose columns are the left vectors
    cond_r      -- ||R||_F ||L||_F of the right basis with unit columns,
                   an upper bound on its 2-norm condition number:
                   sqrt((n + 4) * sum of the Petermann factors)
    pairing     -- involution k -> k' with omega_k' = -conj(omega_k)
                   exactly (Goldstone modes pair with themselves)
    pairing_error -- max|w_k' + conj(w_k)| of the secular roots as solved,
                   before each pair is averaged to its exact mirror
    goldstone   -- indices of the condensate phase/number pair, (n + 2, n + 3)
    chain       -- True when the pair is a Jordan chain
                   (M r2 = c r1, M r1 = 0) rather than two eigenvectors;
                   the coupling c is stored in chain_coupling
    biorth_defect  -- max|L R - I|
    """

    omegas: np.ndarray
    even_right: np.ndarray
    even_left: np.ndarray
    cond_r: float
    pairing: np.ndarray
    pairing_error: float
    goldstone: tuple[int, ...]
    chain: bool
    chain_coupling: complex
    biorth_defect: float
    n_grid: int
    dx: float
    kappa: float

    @property
    def right(self) -> np.ndarray:
        """Right vectors as the columns of a dense (2n + 2) x (n + 4) array
        in the layout of M on the grid points, E even_right
        (``fluctuation.synthesize_sector``), assembled afresh on every
        access; read by the benchmark's tracer and the tests."""
        return synthesize_sector(self.even_right)


def _physical_norm_factors(vecs: np.ndarray, dx: float) -> np.ndarray:
    """Column factors giving unit photon + quadrature-weighted matter norm.

    Makes per-mode quantities such as the photon noise weights |l1 l2|
    grid-resolution invariant, so the absolute skip tolerances of the
    depletion sums mean the same thing at every grid size.
    """
    photon = np.abs(vecs[0, :]) ** 2 + np.abs(vecs[1, :]) ** 2
    atom = _column_norms(vecs[2:, :]) ** 2
    return 1.0 / np.sqrt(photon + dx * atom)


# rows (or columns) per block wherever a temporary the size of the even
# sector is cut into blocks
BLOCK = 32


def row_blocks(size: int, step: int = BLOCK) -> list[slice]:
    """Slices of at most step indices that cover range(size), in order."""
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _column_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=0) of a complex x, bit for bit, through
    temporaries of BLOCK rows: that norm adds the squares row by row, so
    each block continues the running sums in the same order."""
    sums = np.zeros((BLOCK + 1, x.shape[1]))
    for rows in row_blocks(x.shape[0]):
        block = x[rows]
        sums[1 : block.shape[0] + 1] = (block.conj() * block).real
        sums[0] = np.add.reduce(sums[: block.shape[0] + 1], axis=0)
    return np.sqrt(sums[0])


def _petermann_factors(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """(|l_k| |r_k|)^2 of each column of right and row of left, the norms
    taken BLOCK rows at a time (``decompose`` holds left as a transpose)."""
    return (_column_norms(left.T) * _column_norms(right)) ** 2


def phase_chain(even: np.ndarray, phi_even: np.ndarray, scale: float):
    """The condensate's phase/number pair of the even sector, in closed form.

    Returns (chain, right, rows): right holds the columns R_G = [r1, r2],
    rows the left rows Y = [y; z] of the same pair, which meet every other
    mode's right vector at zero, so that the dual rows are
    L_G = solve(Y R_G, Y).  With A = even[0, 0], row = even[0, f],
    col = even[f, 0], h = even[f, f] on the field block's modes f, and phi
    scaled so that |r1| = 1, the chain (chain True) is

        K = h - 4 Re(outer(col, row) / A),   K s = 2 phi,
        r1 = (0, 0, phi, -phi),   r2 = (-row.s / A, -conj(row).s / conj(A), s/2, s/2),
        y = (0, 0, phi, phi),     z = (-col.s / A, conj(col).s / conj(A), s/2, -s/2),

    with M r1 = 0, M r2 = r1, r1^H r2 = 0, y M = 0 and z M = y.  K is the
    real symmetric matter block plus the cavity's static response, so the
    chain costs one (n/2 + 1)-square real solve.  When the cavity
    decouples, row and col exactly zero (u0 = 0 or eta = 0), the pair is
    two eigenvectors, (0, 0, phi, 0) and (0, 0, 0, phi), each its own left
    row (chain False).  The branch follows that structure, not a
    tolerance: a coupling however weak gives a chain (Castin and Dum).

    Raises DecompositionError when the phase null vector, or a coupled
    sector's chain relation, misses by more than 1e-7: without them the
    sector is not the generator of fluctuations in the chemical
    potential's frame.  The null vector's residual is bounded relative to
    scale, max|M| on the grid (``FluctuationMatrix.scale``), and the chain
    residual relative to |r2|:
    the weaker the coupling, the longer the chain vector (|r2| about 2.5e4
    at delta_c = -10000, u0 = -0.02).
    """
    n_e = phi_even.size
    f, c = slice(2, 2 + n_e), slice(2 + n_e, None)
    phi = phi_even / np.linalg.norm(phi_even)
    pair = np.zeros((even.shape[0], 2), dtype=complex)
    pair[f, 0] = pair[c, 1] = phi
    phi = phi / np.sqrt(2.0)  # |r1| = 1
    right = np.zeros_like(pair)
    right[f, 0], right[c, 0] = phi, -phi
    if np.abs(even @ right[:, 0]).max() > 1e-7 * scale:
        raise DecompositionError("even sector has no phase null vector (0, 0, phi, -phi)")
    if not (even[0, f].any() or even[f, 0].any()):
        return False, pair, pair.T.copy()

    a_diag = even[0, 0]
    row, col = even[0, f], even[f, 0]
    k = even[f, f].real - 4.0 * (np.outer(col, row) / a_diag).real
    try:
        s = np.linalg.solve(k, 2.0 * phi)
    except np.linalg.LinAlgError:  # a singular K: no chain, refused below
        s = np.full(n_e, np.nan)
    right[0, 1] = -(row @ s) / a_diag
    right[1, 1] = right[0, 1].conjugate()
    right[f, 1] = right[c, 1] = 0.5 * s
    length = float(np.linalg.norm(right[:, 1]))
    if not np.linalg.norm(even @ right[:, 1] - right[:, 0]) <= 1e-7 * max(1.0, length):
        raise DecompositionError("even sector's phase null vector heads no phase/number chain")
    rows = np.zeros((2, even.shape[0]), dtype=complex)
    rows[0, f] = rows[0, c] = phi
    rows[1, 0] = -(col @ s) / a_diag
    rows[1, 1] = -rows[1, 0].conjugate()
    rows[1, f], rows[1, c] = 0.5 * s, -0.5 * s
    return True, right, rows


# largest departure of the even sector from its bordered form with
# G M G = -conj(M), or miss of the trace identity, that decompose accepts as
# roundoff, relative to max|M|; the built generator sits near 1e-15
STRUCTURE_TOL = 1e-12


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
        matter = active < n_poles
        rest, slope, push = (np.empty(active.size, dtype=complex) for _ in range(3))
        # the sums BLOCK active roots at a time, so a sweep's scratch is a
        # few BLOCK-row arrays instead of (n + 2)-square ones
        for rows in row_blocks(active.size):
            roots, d_rows = active[rows], d[rows]
            mine = np.arange(roots.size)
            own = (mine[roots < n_poles], roots[roots < n_poles])
            inv = anchors[roots, None] - poles
            inv += d_rows[:, None]
            inv[own] = 1.0
            np.reciprocal(inv, out=inv)
            inv[own] = 0.0  # sums over the other poles
            rest[rows] = inv @ weights
            slope[rows] = np.square(inv) @ weights
            # Aberth term: the other roots' sum of 1/(z - z_k), less the
            # 1/(z - p_k) of each matter root's pole already in h'/h, is
            # -push; per matter root the difference is
            # -delta_k / ((z - p_k)(z - z_k)), free of cancellation
            repel = anchors[roots, None] - anchors
            repel += d_rows[:, None]
            repel -= delta
            repel[mine, roots] = 1.0
            np.reciprocal(repel, out=repel)
            repel[mine, roots] = 0.0
            push[rows] = repel[:, n_poles:].sum(axis=1)
            repel = repel[:, :n_poles]
            repel *= inv
            push[rows] += repel @ delta[:n_poles]
        wa = to_a[active] + d
        wb = to_b[active] + d
        f = wa * wb - two_re * rest
        fp = wa + wb + two_re * slope
        h = np.where(matter, d * f - two_re * own_weight[active], f)
        hp = np.where(matter, f + d * fp, fp)
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


def _resolvent_vectors(basis, levels, weight, profile, poles, anchors, delta, a_diag, beta):
    """Closed-form right vectors of the secular roots, sector basis.

    In the eigenbasis of h the right vector of root w has matter entries
    weight[k] / (w - levels[k]) and photon entries X / (w - A) and
    -X / (beta (w + conj A)), X = profile . (u + v) from the photon row.
    Each is scaled so that its entry at the root's own anchor is 1 (the
    photon entry for a photon root), so nothing is 0/0 when a mode
    decouples and its offset vanishes.  Returns the (n + 4)-square array
    with the roots in its first columns; the left vectors are their
    transposes under W (module docstring).

    Each vector is built in its own column, and Q is applied in place
    through one buffer of half that size: no other (n + 4)-square array
    is made.
    """
    n_e = basis.shape[0]
    n_roots = anchors.size
    n_poles = poles.size
    two_re = 2.0 * a_diag.real
    wa = (anchors - a_diag) + delta  # w - A
    wb = (anchors + a_diag.conjugate()) + delta  # w + conj A
    scale = np.zeros(n_roots, dtype=complex)  # the scale of each vector
    np.divide(delta[:n_poles], weight[poles], out=scale[:n_poles], where=weight[poles] != 0)
    scale[-2] = two_re / wb[-2]  # the root at A: delta / X from the secular equation
    scale[-1] = -beta * two_re / wa[-1]  # the root at -conj(A)
    dim = 2 + 2 * n_e
    right = np.empty((dim, dim), dtype=complex)
    right_q = right[2:, :n_roots]
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.subtract(anchors, levels[:, None], out=right_q)
        gaps += delta
        np.reciprocal(gaps, out=gaps)  # 1 / (w_i - level_k); inf at delta = 0
    np.multiply(weight[:, None], right_q, out=right_q)
    right_q *= scale
    right_q[poles, np.arange(n_poles)] = 1.0
    x = np.concatenate([profile, profile]) @ right_q
    with np.errstate(divide="ignore", invalid="ignore"):  # the photon roots are set below
        right[0, :n_roots], right[1, :n_roots] = x / wa, -x / (beta * wb)
    right[:2, n_roots - 2] = 1.0, -delta[-2] / (beta * wb[-2])
    right[:2, n_roots - 1] = -beta * delta[-1] / wa[-1], 1.0

    product = np.empty((n_e, n_roots), dtype=complex)
    for z in (right[2 : 2 + n_e, :n_roots], right[2 + n_e :, :n_roots]):
        # Q z for real Q and complex z as one real product, through one buffer
        np.matmul(basis, z.view(float), out=product.view(float))
        z[...] = product
    return right


def _mirror_pairing(roots: np.ndarray, delta: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """The involution k -> k' with roots[k'] = -conj(roots[k]), certified.

    Returns (pairing, mismatch), mismatch = max|w_k' + conj(w_k)|.  Raises
    DecompositionError unless the roots are distinct, pair under
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
    if not trace <= STRUCTURE_TOL * scale:
        raise DecompositionError(f"secular roots miss the trace of M ({trace:.2e})")
    return pairing, mismatch


def decompose(fm: FluctuationMatrix) -> ModeDecomposition:
    """The even sector's modes from its secular equation (module docstring).

    The odd sector is not read: its modes are normal and noiseless.
    Raises DecompositionError when the even sector departs from the
    bordered form with G M G = -conj(M) beyond STRUCTURE_TOL, when it has
    no phase/number pair (see ``phase_chain``), or when the modes fail a
    certificate: n + 2 distinct roots beside that pair, an exact mirror
    pairing, the trace identity, biorthogonality to BIORTH_LIMIT, and a
    condition bound within COND_LIMIT.  There is no fallback solve.
    """
    m_even, phi_even, dx, scale = fm.even, fm.phi_even, fm.dx, fm.scale
    n_e = phi_even.size
    f = slice(2, 2 + n_e)
    a_diag = complex(m_even[0, 0])
    col = m_even[f, 0]  # matter rows of the photon column, conj(alpha) y
    row = m_even[0, f]  # photon row on the matter columns, alpha y dx
    pivot = col[np.argmax(np.abs(col))]
    beta = np.conj(pivot) / pivot if pivot != 0 else 1.0  # alpha / conj(alpha)
    h = m_even[f, f].real
    h = 0.5 * (h + h.T)
    # the form build_matrix gives: matter blocks h and -h, no anomalous
    # blocks, and a rank-one photon border, row = beta dx col; compared
    # block by block
    model = sector_blocks(a_diag, row, col, h)
    breach = max(
        np.max([np.abs(entries - m_even[index]).max() for index, entries in model]),
        np.abs(col.conj() - beta * col).max(),
        np.abs(row - beta * dx * col).max(),
    ) / scale
    if breach > STRUCTURE_TOL:
        raise DecompositionError(
            f"M breaks G M G = -conj(M) or the bordered form of the even sector "
            f"({breach:.2e} max|M|)"
        )

    chain, r_g, y_g = phase_chain(m_even, phi_even, scale)
    energies, basis = np.linalg.eigh(h)
    del h, model  # freed before the vectors are built, where a point's memory peaks
    col_q = basis.T @ col
    row_q = basis.T @ row
    # the condensate's own level is the exact zero of H0 - mu; its pole
    # pair cancels from the secular sum (its term carries 2 e_j)
    zero = int(np.argmax(np.abs(basis.T @ phi_even)))
    energies[zero] = 0.0
    coupled = np.ones(n_e, dtype=bool)
    coupled[zero] = False
    # the matter levels +e_j (field block) and -e_j (conjugate block)
    levels = np.concatenate([energies, -energies])
    weight = np.concatenate([col_q, -col_q])  # right vectors: +-y_c / (w -+ e)
    poles = np.concatenate([np.flatnonzero(coupled), n_e + np.flatnonzero(coupled)])
    # the weights are col_q,k row_q,k = |alpha|^2 dx q_k^2, q = Q^T y: their
    # sign is the block's, + on the field poles and - on the conjugate ones,
    # exactly, where a weak rung's rounded product would take a random sign
    coupling = np.abs(col_q * row_q)
    anchors, delta = _secular_roots(
        levels[poles], np.concatenate([coupling, -coupling])[poles], a_diag
    )
    n_roots = anchors.size
    omegas = anchors + delta
    pairing, pairing_error = _mirror_pairing(omegas, delta, scale)
    # the exact mirror pairs: a self-paired root lands on the imaginary axis
    omegas = 0.5 * (omegas - omegas[pairing].conj())

    right = _resolvent_vectors(basis, levels, weight, row_q, poles, anchors, delta, a_diag, beta)
    dim = right.shape[0]
    # unit photon plus quadrature-weighted matter norm; the phase stays the
    # closed form's, real positive at the root's own anchor in the
    # eigenbasis of h
    right[:, :n_roots] *= _physical_norm_factors(right[:, :n_roots], dx)
    # W M is symmetric (module docstring), so the left vector of r is
    # (W r)^T / (r^T W r); W R fills the columns of left.T
    symmetrizer = np.concatenate([[np.conj(beta), -beta], np.full(n_e, dx), np.full(n_e, -dx)])
    w_r = np.empty_like(right)
    np.multiply(symmetrizer[:, None], right[:, :n_roots], out=w_r[:, :n_roots])
    w_r[:, :n_roots] /= np.einsum("ki,ki->i", right[:, :n_roots], w_r[:, :n_roots])
    left = w_r.T

    # the phase/number pair fills the last two columns
    omegas = np.concatenate([omegas, np.zeros(2)])
    pairing = np.concatenate([pairing, [n_roots, n_roots + 1]])  # Goldstone: itself
    goldstone = (n_roots, n_roots + 1)
    factors = _physical_norm_factors(r_g, dx)
    right[:, n_roots:] = r_g * factors
    chain_coupling = complex(factors[1] / factors[0]) if chain else 0.0 + 0.0j
    left[n_roots:] = np.linalg.solve(y_g @ right[:, n_roots:], y_g)

    # L R - I, BLOCK rows at a time through one scratch block
    work = np.empty((BLOCK, dim), dtype=complex)
    defects = []
    for rows in row_blocks(dim):
        block = work[: rows.stop - rows.start]
        np.matmul(left[rows], right, out=block)
        block[np.arange(len(block)), np.arange(rows.start, rows.stop)] -= 1.0
        defects.append(np.abs(block).max())
    biorth_defect = float(np.max(defects))
    if not biorth_defect <= BIORTH_LIMIT:
        raise DecompositionError(f"even modes not biorthogonal (max|LR - I| = {biorth_defect:.2e})")
    # ||R||_F ||L||_F over unit columns bounds the 2-norm condition number
    cond_r = float(np.sqrt(dim * _petermann_factors(right, left).sum()))
    if not cond_r <= COND_LIMIT:
        raise DecompositionError(
            f"right eigenvector basis is numerically singular "
            f"(cond <= {cond_r:.3e} > {COND_LIMIT:.1e}); "
            "use the Lyapunov second-moment oracle instead"
        )
    return ModeDecomposition(
        omegas=omegas,
        even_right=right,
        even_left=left,
        cond_r=cond_r,
        pairing=pairing,
        pairing_error=pairing_error,
        goldstone=goldstone,
        chain=chain,
        chain_coupling=chain_coupling,
        biorth_defect=biorth_defect,
        n_grid=fm.n_grid,
        dx=dx,
        kappa=fm.kappa,
    )


def classify_stability(dec: ModeDecomposition) -> StabilityReport:
    """Stability of the steady state from the mode spectrum.

    Unstable when any non-Goldstone mode grows faster than GROWTH_TOL.
    Otherwise the verdict rests on the noise-coupled modes only (photon
    weight |l1 l2| above NOISE_FLOOR): a steady state exists when every
    such mode decays at a numerically resolvable rate (at least
    DAMPING_FLOOR).  No coupled mode at all (decoupled cavity), or a
    coupled one whose decay is unresolvable, means marginal.  Modes with
    negligible photon weight never receive noise, so their numerically
    zero damping is harmless for the existence of the steady state.
    """
    max_growth = float(np.delete(dec.omegas.imag, list(dec.goldstone)).max())
    if max_growth > GROWTH_TOL:
        return StabilityReport("unstable", max_growth)
    coupled = noise_coupled(dec)
    if coupled.size and (dec.omegas[coupled].imag < -DAMPING_FLOOR).all():
        return StabilityReport("stable", max_growth)
    return StabilityReport("marginal", max_growth)


def noise_coupled(dec: ModeDecomposition) -> np.ndarray:
    """Indices of the noise-coupled modes: the non-Goldstone modes whose
    photon noise weight |l1 l2| exceeds NOISE_FLOOR."""
    photon = dec.even_left[:, :2]
    modes = np.delete(np.arange(photon.shape[0]), list(dec.goldstone))
    return modes[np.abs(photon[modes, 0] * photon[modes, 1]) > NOISE_FLOOR]


def petermann_raw(dec: ModeDecomposition) -> np.ndarray:
    """Excess-noise factor K_k = |l_k|^2 |r_k|^2 under l_k . r_k = 1 for every
    mode: 1 for a normal mode, above 1 where the eigenbasis is skewed.  For
    a secular root l_k = (W r_k)^T / (r_k^T W r_k) (module docstring), so
    K_k = |W r_k|^2 |r_k|^2 / |r_k^T W r_k|^2, Siegman's form for a
    complex-symmetric system.  The even sector's basis is orthonormal, so
    the factors come from the sector vectors."""
    return _petermann_factors(dec.even_right, dec.even_left)


def odd_frequencies(fm: FluctuationMatrix) -> np.ndarray:
    """Frequencies of the reflection-odd modes, +e then -e, from the real
    odd block h_odd (module docstring): normal modes with no photon weight
    and a Petermann factor of 1, which ``decompose`` leaves out."""
    # eigh, not eigvalsh: the two differ in the last bits, and the listed
    # frequencies are eigh's
    energies = np.linalg.eigh(fm.h_odd)[0]
    return np.concatenate([energies, -energies])
