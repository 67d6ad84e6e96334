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

Most matter levels never see the cavity: the photon border's entries in
the eigenbasis of h fall super-exponentially with the level, as the
condensate's cosine coefficients do: at n = 200, 3 to 13 of the 100
levels keep one above rounding over the shipped depletion sweep.
``decompose`` deflates the rest before the secular solve, the step of the
divide-and-conquer eigensolver (Cuppen, Numer. Math. 36, 177, 1981; Gu
and Eisenstat, SIMAX 16, 172, 1995).  A level j is decoupled when both
of its border entries, |y_c,j| and |y_r,j|, are at most DEFLATION_TOL
max|M| = eps max|M|.  Setting them to zero perturbs M by no more than
the rounding that ``eigh`` already leaves in e_j, so the decomposition
stays backward stable.  The level enters the secular equation only
through g_j = |y_c,j y_r,j| <= (eps max|M|)^2, over the photon factors
(w - A)(w + conj A), each at least kappa = |Im A| on the real axis, so
deflation moves the root near e_j by about 2 |A| g_j / kappa^2 at most:
second order in eps.  A deflated level is an exact eigenpair of the deflated
sector: frequency +-e_j, right vector the ``eigh`` column q_j in its own
matter block, photon entries and with them l1 and l2 exact zeros, and
Petermann factor 1.  Only the coupled levels and the photon pair go
through the Aberth solve and the resolvent vectors, and the depletion
sums read only their columns.  The Aberth sweep and the pairing
certificate each form whole k x k tables over the k coupled roots: k is
8 to 28 at n = 200 on the shipped sweep, and at most 32 at n = 200 down
to u0 = -398 with one atom.  It reaches its bound n + 2 only where no
level deflates, as at n = 64 with one atom at u0 = -700, whose
condensate fills all 33 cosine modes; a full complex table at n = 200
would take 0.65 MB, below the 0.75 MB generator.

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
measures.  The normalizers r^T W r are the diagonal of the Gram R^T W R,
so a secular root's (L R)_kk is 1 by construction and the certificate
measures the entries off it, over all n + 4 modes (``_biorth_defect``).
Nothing is inverted and no dense eigensolver runs; instead ``decompose``
certifies the result (distinct roots, an exact mirror pairing, the trace
identity sum w = tr M_even, biorthogonality, a condition bound) and
raises DecompositionError when a certificate fails.

``decompose`` keeps the even modes in this sector form
(``ModeDecomposition``): h's eigh basis, which gives every deflated
vector, one block of the coupled modes' vectors, and of the left rows
only their photon entries l1 and l2, the noise weights that the sums read.

Phase symmetry of the condensate makes the even sector defective: in the
frame of the chemical potential the vector (0, 0, phi, -phi) is an
exact null vector whose dual partner (the number fluctuation) forms a
2 x 2 Jordan chain with it (two eigenvectors when the cavity decouples;
Castin and Dum, PRA 57, 3008, 1998).  ``phase_chain`` gives that pair's
right columns and left rows in closed form, from one real solve with the
matter block; ``decompose`` takes the pair from it as exact zeros and
refuses a generator without it, and the Lyapunov oracle deflates the
same pair.  Its vectors are self-orthogonal, r^T W r = 0, so its dual
rows come from ``phase_chain``'s rows (``chain_duals``), not from the
transposes, and the record stores them.  The pair's indices are
exposed so downstream sums can treat them separately.

The module sees only the generator: the mean field and the per-point
chain that feeds M in here are ``depletion.analyze_point``'s business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fluctuation import FluctuationMatrix, border_blocks, synthesize_sector

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
# largest photon border entry of a matter level in the eigenbasis of h,
# relative to max|M|, at which the level deflates (module docstring)
DEFLATION_TOL = EPS
# smallest photon noise weight |l1 l2| through which a mode counts as
# coupled to the cavity noise, in classify_stability and the depletion sums;
# the verdict itself takes no rate tolerance (see classify_stability)
NOISE_FLOOR = 1e-10


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

    The modes are kept in the sector's orthonormal basis, a mode's index
    its column there; ``even_right`` and ``left_rows`` assemble any
    dense column or row on demand.  Each right vector is fixed up to a
    phase, and its left row takes the inverse phase; nothing read from the
    modes (Petermann factors, |l1|, |l2|, the pair weights l1_k l2_l O_kl,
    projectors) depends on it.

    omegas      -- complex mode frequencies: the n + 2 secular roots, then
                   the phase/number pair as exact zeros; root i < n/2 sits
                   at or near +e_j of level levels[i] of h, root n/2 + i
                   at or near -e_j, the last two near A and -conj(A)
    basis       -- h's real (n/2 + 1)-square ``eigh`` basis Q; a deflated
                   root's right vector is its level's column q_j / sqrt(dx)
                   in its own matter block, zero elsewhere
    levels      -- the level of h, a column of basis, that roots i and
                   n/2 + i sit at: every level but the condensate's own
    coupled     -- ascending indices of the secular roots that were not
                   deflated (module docstring): the coupled levels' roots
                   and the photon pair, closed under pairing; every other
                   non-Goldstone mode has omega = +-e_j exactly and
                   l1 = l2 = 0, so the depletion sums read these columns
                   alone
    coupled_right -- (n + 4) x (k + 2): the k coupled modes' resolvent
                   vectors, then the phase/number pair's analytic ones, in
                   the sector basis (photon rows 0 and 1, then the cosine
                   modes m = 0 .. n/2 of the field and conjugate blocks),
                   with unit photon plus quadrature-weighted matter norm
    l1, l2      -- the photon entries of every left row, columns 0 and 1
                   of left_rows(slice(None)): all that the depletion sums
                   read of them
    w_norms     -- r_k^T W r_k of each secular root (module docstring), the
                   diagonal of the Gram that the certificate forms
    beta        -- alpha / conj(alpha), the photon entries of W
    dual_rows   -- the phase/number pair's two left rows, from ``chain_duals``
    cond_r      -- ||R||_F ||L||_F of the right basis with unit columns,
                   an upper bound on its 2-norm condition number:
                   sqrt((n + 4) * sum of the Petermann factors)
    pairing     -- involution k -> k' with omega_k' = -conj(omega_k)
                   exactly (Goldstone modes pair with themselves)
    pairing_error -- max|w_k' + conj(w_k)| of the coupled roots as solved,
                   before each pair is averaged to its exact mirror; a
                   deflated pair +-e_j is exact
    goldstone   -- indices of the condensate phase/number pair, (n + 2, n + 3)
    chain       -- True when the pair is a Jordan chain
                   (M r2 = c r1, M r1 = 0) rather than two eigenvectors;
                   the coupling c is stored in chain_coupling
    biorth_defect  -- max|L R - I| over all n + 4 modes
    """

    omegas: np.ndarray
    basis: np.ndarray
    levels: np.ndarray
    coupled: np.ndarray
    coupled_right: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    w_norms: np.ndarray
    beta: complex
    dual_rows: np.ndarray
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
        return synthesize_sector(self.even_right())

    @property
    def symmetrizer(self) -> np.ndarray:
        """The diagonal of W = diag(conj beta, -beta, dx 1, -dx 1)."""
        matter = np.full(self.n_grid // 2 + 1, self.dx)
        return np.concatenate([[np.conj(self.beta), -self.beta], matter, -matter])

    def even_right(self, cols=slice(None)) -> np.ndarray:
        """The (n + 4)-row right vectors of the modes cols (ascending indices
        or a slice), assembled afresh from the record's fields; read by
        ``depletion.mode_projector`` and the tests, never by the sums."""
        index = np.arange(self.omegas.size)[cols]
        stored = np.concatenate([self.coupled, np.asarray(self.goldstone, dtype=int)])
        at = np.minimum(np.searchsorted(stored, index), stored.size - 1)
        kept = stored[at] == index
        half, n_e = self.levels.size, self.basis.shape[0]
        out = np.zeros((2 + 2 * n_e, index.size), dtype=complex)
        out[:, kept] = self.coupled_right[:, at[kept]]
        for block, mine in ((slice(2, 2 + n_e), index < half), (slice(2 + n_e, None), index >= half)):
            mine &= ~kept
            out[block, mine] = self.basis[:, self.levels[index[mine] % half]] / math.sqrt(self.dx)
        return out

    def left_rows(self, cols) -> np.ndarray:
        """The left rows of the modes cols (ascending indices or a slice),
        with left_rows(slice(None)) @ even_right() = I: (W r_k)^T / (r_k^T W r_k) for a
        secular root (module docstring), the stored dual row for the
        phase/number pair."""
        index = np.arange(self.omegas.size)[cols]
        split = int(np.searchsorted(index, self.w_norms.size))
        out = np.empty((index.size, self.omegas.size), dtype=complex)
        np.multiply(self.symmetrizer, self.even_right(index[:split]).T, out=out[:split])
        out[:split] /= self.w_norms[index[:split], None]
        out[split:] = self.dual_rows[index[split:] - self.w_norms.size]
        return out


def _squared_column_norms(x: np.ndarray) -> np.ndarray:
    """sum_i |x_ik|^2 of each column k of a complex x, reduced by einsum over
    its real and imaginary views, with no temporary of x's size."""
    return np.einsum("ik,ik->k", x.real, x.real) + np.einsum("ik,ik->k", x.imag, x.imag)


def _physical_norm_factors(vecs: np.ndarray, dx: float) -> np.ndarray:
    """Column factors 1 / sqrt(|photon|^2 + dx |matter|^2) giving unit photon
    plus quadrature-weighted matter norm, from the squared column norms of
    the photon rows 0, 1 and of the matter rows below them.

    Makes per-mode quantities such as the photon noise weights |l1 l2|
    grid-resolution invariant, so the absolute skip tolerances of the
    depletion sums mean the same thing at every grid size.
    """
    return 1.0 / np.sqrt(_squared_column_norms(vecs[:2]) + dx * _squared_column_norms(vecs[2:]))


def phase_chain(even: np.ndarray, phi_even: np.ndarray, scale: float):
    """The condensate's phase/number pair of the even sector, in closed form.

    Returns (chain, right, rows): right holds the columns R_G = [r1, r2],
    rows the left rows Y = [y; z] of the same pair, which meet every other
    mode's right vector at zero, so that the dual rows are
    L_G = (Y R_G)^-1 Y (``chain_duals``).  With A = even[0, 0],
    row = even[0, f], col = even[f, 0], h = even[f, f] on the field block's
    modes f, and phi scaled so that |r1| = 1, the chain (chain True) is

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


def chain_duals(chain: bool, right: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The dual rows L_G = (Y R_G)^-1 Y of the phase/number pair's columns
    right (``phase_chain``'s, each scaled as the caller likes), from its
    rows Y.

    For a chain, y . r1 is exactly zero, so Y R_G = [[0, b], [c, d]] and
    L_G = [[-d / (b c), 1 / c], [1 / b, 0]] Y in closed form: the number
    mode's row is y / b, with the exact zero photon entries of y, where a
    solve would mix in a rounded multiple of z.  Two eigenvectors (chain
    False) are each their own dual row, and take a plain solve."""
    gram = rows @ right
    if not chain:
        return np.linalg.solve(gram, rows)
    (_, b), (c, d) = gram
    return np.array([(-d / (b * c)) * rows[0] + rows[1] / c, rows[0] / b])


# largest departure of the even sector from its bordered form with
# G M G = -conj(M), or miss of the trace identity, that decompose accepts as
# roundoff, relative to max|M|; the built generator sits near 1e-15
STRUCTURE_TOL = 1e-12


def _secular_roots(poles: np.ndarray, weights: np.ndarray, a_diag: complex):
    """Every root of the even sector's secular equation, in offset form.

    The equation is f(w) = (w - A)(w + conj A) - 2 Re A sum_k c_k / (w - p_k)
    with real poles p_k and weights c_k; it has one root per pole plus
    two.  Returns the offsets delta: root i is anchor_i + delta[i], where
    roots 0 .. P-1 are anchored at their own pole p_i, the last two at
    the photon frequencies A and -conj(A).  The anchor is subtracted exactly (w - p_i = delta_i), so
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
    rest = (poles - a_diag) * (poles + a_diag.conjugate())
    rest -= two_re * (inv @ weights)
    delta = np.zeros(anchors.size, dtype=complex)
    delta[:n_poles] = two_re * weights / rest
    delta[n_poles] = 1e-3j * abs(a_diag)  # breaks the mirror symmetry of the start

    active = np.arange(anchors.size)
    last = np.full(anchors.size, np.inf)  # each root's previous step size
    for _ in range(SECULAR_STEPS):
        d = delta[active]
        matter = active < n_poles
        mine = np.arange(active.size)
        own = (mine[matter], active[matter])
        inv = anchors[active, None] - poles
        inv += d[:, None]
        inv[own] = 1.0
        np.reciprocal(inv, out=inv)
        inv[own] = 0.0  # sums over the other poles
        rest = inv @ weights
        slope = np.square(inv) @ weights
        # Aberth term: the other roots' sum of 1/(z - z_k), less the
        # 1/(z - p_k) of each matter root's pole already in h'/h, is
        # -push; per matter root the difference is
        # -delta_k / ((z - p_k)(z - z_k)), free of cancellation
        repel = anchors[active, None] - anchors
        repel += d[:, None]
        repel -= delta
        repel[mine, active] = 1.0
        np.reciprocal(repel, out=repel)
        repel[mine, active] = 0.0
        push = repel[:, n_poles:].sum(axis=1)
        repel = repel[:, :n_poles]
        repel *= inv
        push += repel @ delta[:n_poles]
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
            return delta
    raise DecompositionError(
        f"secular equation: {active.size} roots unconverged after {SECULAR_STEPS} sweeps"
    )


def _resolvent_vectors(basis, levels, weight, profile, poles, anchors, delta, a_diag, beta):
    """Closed-form right vectors of the secular roots, sector basis.

    basis holds the ``eigh`` columns of the levels the vectors reach (the
    coupled ones and the condensate's), levels their +e then -e, weight
    the photon column's entries +-y_c there and profile the photon row's
    y_r; every other level is deflated, so no vector has an entry on it.
    In the eigenbasis of h the right vector of root w has matter entries
    weight[k] / (w - levels[k]) and photon entries X / (w - A) and
    -X / (beta (w + conj A)), X = profile . (u + v) from the photon row.
    Each is scaled so that its entry at the root's own anchor, levels[poles[i]]
    for a matter root i, is 1 (the photon entry for a photon root), so
    nothing is 0/0 when a mode decouples and its offset vanishes.  Returns
    the (n + 4)-row array of the vectors, one column per root; the left
    vectors are their transposes under W (module docstring).
    """
    n_e, n_kept = basis.shape
    n_poles = poles.size
    two_re = 2.0 * a_diag.real
    wa = (anchors - a_diag) + delta  # w - A
    wb = (anchors + a_diag.conjugate()) + delta  # w + conj A
    scale = np.zeros(anchors.size, dtype=complex)  # the scale of each vector
    np.divide(delta[:n_poles], weight[poles], out=scale[:n_poles], where=weight[poles] != 0)
    scale[-2] = two_re / wb[-2]  # the root at A: delta / X from the secular equation
    scale[-1] = -beta * two_re / wa[-1]  # the root at -conj(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        # w_i - level_k as (anchor_i - level_k) + delta_i: exact at its own pole
        eig = np.reciprocal((anchors - levels[:, None]) + delta)  # inf at delta = 0
    eig *= weight[:, None]
    eig *= scale
    eig[poles, np.arange(n_poles)] = 1.0
    x = np.concatenate([profile, profile]) @ eig
    right = np.empty((2 + 2 * n_e, anchors.size), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):  # the photon roots are set below
        right[0], right[1] = x / wa, -x / (beta * wb)
    right[:2, -2] = 1.0, -delta[-2] / (beta * wb[-2])
    right[:2, -1] = -beta * delta[-1] / wa[-1], 1.0
    # Q z for real Q and complex z as one real product, per matter block
    right[2 : 2 + n_e] = np.matmul(basis, eig[:n_kept].view(float)).view(complex)
    right[2 + n_e :] = np.matmul(basis, eig[n_kept:].view(float)).view(complex)
    return right


def _mirror_pairing(
    roots: np.ndarray, delta: np.ndarray, scale: float, w_scale: float
) -> tuple[np.ndarray, float]:
    """The involution k -> k' with roots[k'] = -conj(roots[k]), certified.

    Returns (pairing, mismatch), mismatch = max|w_k' + conj(w_k)|.  Raises
    DecompositionError unless the roots are distinct to 1e-12 w_scale, pair
    under an involution to PAIRING_RTOL w_scale, and meet the trace
    identity: the anchors sum to tr M_even exactly, so the offsets must sum
    to zero.  w_scale is max|w| over every even root, deflated ones too.
    Distances are squared moduli, |w_i - w_k|^2 and |w_i + conj(w_k)|^2.
    """
    im_gap = np.square(roots.imag[:, None] - roots.imag)
    mirror = np.square(roots.real[:, None] + roots.real) + im_gap
    spread = np.square(roots.real[:, None] - roots.real) + im_gap
    np.fill_diagonal(spread, np.inf)
    pairing = np.argmin(mirror, axis=1)
    gap = float(np.sqrt(spread.min()))
    if not gap > 1e-12 * w_scale:
        raise DecompositionError(f"secular roots not distinct ({gap:.2e} apart)")
    mismatch = float(np.sqrt(mirror.min(axis=1).max()))
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
    certificate: distinct coupled roots, an exact mirror pairing, the
    trace identity, biorthogonality of all n + 4 columns to BIORTH_LIMIT,
    and a condition bound within COND_LIMIT.  The deflated levels (module
    docstring) pair exactly and add nothing to the trace by construction.
    There is no fallback solve.
    """
    m_even, phi_even, dx, scale = fm.even, fm.phi_even, fm.dx, fm.scale
    n_e = phi_even.size
    f, c = slice(2, 2 + n_e), slice(2 + n_e, None)
    a_diag = complex(m_even[0, 0])
    col = m_even[f, 0]  # matter rows of the photon column, conj(alpha) y
    row = m_even[0, f]  # photon row on the matter columns, alpha y dx
    pivot = col[np.argmax(np.abs(col))]
    beta = np.conj(pivot) / pivot if pivot != 0 else 1.0  # alpha / conj(alpha)
    h = m_even[f, f].real + m_even[f, f].real.T
    h *= 0.5
    # the form build_matrix gives: a rank-one photon border, row = beta dx
    # col, compared block by block, and matter blocks h and -h with no
    # anomalous blocks, compared against h with the real and imaginary parts
    # apart, so that no sector-sized or complex array is made
    breach = max(
        max(np.abs(entries - m_even[index]).max() for index, entries in border_blocks(a_diag, row, col)),
        np.abs(col.conj() - beta * col).max(),
        np.abs(row - beta * dx * col).max(),
        np.hypot(m_even[f, f].real - h, m_even[f, f].imag).max(),
        np.hypot(m_even[c, c].real + h, m_even[c, c].imag).max(),
        np.abs(m_even[f, c]).max(),
        np.abs(m_even[c, f]).max(),
    )
    breach /= scale
    if breach > STRUCTURE_TOL:
        raise DecompositionError(
            f"M breaks G M G = -conj(M) or the bordered form of the even sector "
            f"({breach:.2e} max|M|)"
        )

    chain, r_g, y_g = phase_chain(m_even, phi_even, scale)
    energies, basis = np.linalg.eigh(h)
    del h  # freed before the vectors are built, where a point's memory peaks
    col_q = basis.T @ col
    row_q = basis.T @ row
    # the condensate's own level is the exact zero of H0 - mu; its pole
    # pair cancels from the secular sum (its term carries 2 e_j), but its
    # entries stay in the coupled roots' vectors
    zero = int(np.argmax(np.abs(basis.T @ phi_even)))
    energies[zero] = 0.0
    free = np.flatnonzero(np.arange(n_e) != zero)  # the levels with a root pair
    bound = DEFLATION_TOL * scale
    live = (np.abs(col_q) > bound) | (np.abs(row_q) > bound)  # not deflated
    half = free.size
    # root i < half at +e of level free[i], root half + i at -e, then the
    # photon roots; a deflated root stays exactly at its level
    levels = np.concatenate([energies[free], -energies[free]])
    anchors = np.concatenate([levels, [a_diag, -a_diag.conjugate()]])
    n_roots = anchors.size
    coupled = np.flatnonzero(np.concatenate([live[free], live[free], [True, True]]))
    # the weights are col_q,k row_q,k = |alpha|^2 dx q_k^2, q = Q^T y: their
    # sign is the block's, + on the field poles and - on the conjugate ones,
    # exactly, where a weak rung's rounded product would take a random sign
    coupling = np.abs(col_q * row_q)[free]
    poles = coupled[:-2]
    offsets = _secular_roots(levels[poles], np.concatenate([coupling, -coupling])[poles], a_diag)
    delta = np.zeros(n_roots, dtype=complex)
    delta[coupled] = offsets
    omegas = anchors + delta
    # a deflated pair +-e_j is exact; the coupled roots are certified
    pairing = np.concatenate([np.arange(half, 2 * half), np.arange(half), [0, 0]])
    sub, pairing_error = _mirror_pairing(
        omegas[coupled], offsets, scale, float(np.abs(omegas).max())
    )
    pairing[coupled] = coupled[sub]
    # the exact mirror pairs: a self-paired root lands on the imaginary axis
    omegas = 0.5 * (omegas - omegas[pairing].conj())

    reached = np.flatnonzero(live | (np.arange(n_e) == zero))  # the vectors' levels
    own = np.searchsorted(reached, free[poles % half]) + np.where(poles < half, 0, reached.size)
    vectors = _resolvent_vectors(
        basis[:, reached],
        np.concatenate([energies[reached], -energies[reached]]),
        np.concatenate([col_q[reached], -col_q[reached]]),  # right vectors: +-y_c / (w -+ e)
        row_q[reached],
        own,
        anchors[coupled],
        offsets,
        a_diag,
        beta,
    )
    # unit photon plus quadrature-weighted matter norm; the phase stays the
    # closed form's, real positive at the root's own anchor in the
    # eigenbasis of h; the phase/number pair fills the last two columns
    vectors *= _physical_norm_factors(vectors, dx)
    factors = _physical_norm_factors(r_g, dx)
    stored = np.concatenate([vectors, r_g * factors], axis=1)
    del vectors
    dec = ModeDecomposition(
        omegas=np.concatenate([omegas, np.zeros(2)]),
        basis=basis,
        levels=free,
        coupled=coupled,
        coupled_right=stored,
        l1=np.zeros(n_roots + 2, dtype=complex),
        l2=np.zeros(n_roots + 2, dtype=complex),
        w_norms=np.empty(n_roots, dtype=complex),
        beta=beta,
        dual_rows=chain_duals(chain, stored[:, -2:], y_g),
        cond_r=math.nan,
        pairing=np.concatenate([pairing, [n_roots, n_roots + 1]]),  # Goldstone: itself
        pairing_error=pairing_error,
        goldstone=(n_roots, n_roots + 1),
        chain=chain,
        chain_coupling=complex(factors[1] / factors[0]) if chain else 0.0 + 0.0j,
        biorth_defect=math.nan,
        n_grid=fm.n_grid,
        dx=dx,
        kappa=fm.kappa,
    )
    dec.w_norms, dec.biorth_defect = _biorth_defect(dec)
    if not dec.biorth_defect <= BIORTH_LIMIT:
        raise DecompositionError(
            f"even modes not biorthogonal (max|LR - I| = {dec.biorth_defect:.2e})"
        )
    # W M is symmetric (module docstring), so the left vector of r is
    # (W r)^T / (r^T W r); a deflated mode's photon entries stay exact zeros
    for photon, out in ((0, dec.l1), (1, dec.l2)):
        out[coupled] = dec.symmetrizer[photon] * stored[photon, :-2] / dec.w_norms[coupled]
        out[n_roots:] = dec.dual_rows[:, photon]
    # ||R||_F ||L||_F over unit columns bounds the 2-norm condition number
    dec.cond_r = float(np.sqrt(stored.shape[0] * petermann_raw(dec).sum()))
    if not dec.cond_r <= COND_LIMIT:
        raise DecompositionError(
            f"right eigenvector basis is numerically singular "
            f"(cond <= {dec.cond_r:.3e} > {COND_LIMIT:.1e}); "
            "use the Lyapunov second-moment oracle instead"
        )
    return dec


def _biorth_defect(dec: ModeDecomposition) -> tuple[np.ndarray, float]:
    """The normalizers w_k = r_k^T W r_k of the secular roots and the
    certificate max|L R - I| over all n + 4 modes; dec.w_norms is not read.

    w is the diagonal of the Gram G = R^T W R, and a secular root's left
    row is (W r_k)^T / w_k, so (L R)_kl = G_kl / w_k, 1 on the diagonal by
    construction.  The stored block gives its (k + 2)-square Gram, the
    phase/number pair its dual rows.  A deflated root's vector is
    q_j / sqrt(dx) in one matter block, where W is +dx or -dx, and the two
    blocks share no support, so the real products Q_d^T Q_d and Q_d^T (the
    block's and the dual rows' field or conjugate rows), d the deflated
    levels, give every other entry.  A nan anywhere is the verdict."""
    stored, k = dec.coupled_right, dec.coupled.size
    n_e, half = dec.basis.shape[0], dec.levels.size
    f, c = slice(2, 2 + n_e), slice(2 + n_e, None)
    scale = 1.0 / math.sqrt(dec.dx)  # a deflated right vector is q_j scale
    gram = stored.T @ (dec.symmetrizer[:, None] * stored)
    w_stored = gram.diagonal()[:k].copy()
    # the deflated field-block roots; np.setdiff1d would import numpy.ma (1.2 MB)
    deflated = np.flatnonzero(~np.isin(np.arange(half), dec.coupled))
    q = dec.basis[:, dec.levels[deflated]]
    overlap = q.T @ q
    norms = overlap.diagonal().copy()
    columns = [stored[f], stored[c], dec.dual_rows[:, f].T, dec.dual_rows[:, c].T]
    cross = np.matmul(q.T, np.concatenate(columns, axis=1).view(float)).view(complex)  # q_j . column
    on_block = cross[:, : 2 * k + 4].reshape(-1, 2, k + 2)  # per q_j: field rows, conjugate rows
    eye = np.eye(k + 2)
    with np.errstate(invalid="ignore", divide="ignore"):  # a nan or inf is the verdict
        overlap /= norms[:, None]
        overlap.flat[:: norms.size + 1] -= 1.0
        parts = [
            gram[:k] / w_stored[:, None] - eye[:k],  # secular stored rows on the block
            dec.dual_rows @ stored - eye[k:],  # the pair's rows on the block
            overlap,  # deflated rows on deflated columns, alike in both blocks
            on_block / (scale * norms[:, None, None]),  # deflated rows on the block
            dec.dx * scale * on_block[..., :k] / w_stored,  # secular stored rows on deflated
            scale * cross[:, 2 * k + 4 :],  # the pair's rows on deflated columns
        ]
    w_norms = np.empty(2 * half + 2, dtype=complex)
    w_norms[dec.coupled] = w_stored
    w_norms[deflated] = dec.dx * scale**2 * norms
    w_norms[half + deflated] = -w_norms[deflated]
    return w_norms, float(np.max([np.abs(part).max(initial=0.0) for part in parts]))


def classify_stability(dec: ModeDecomposition) -> StabilityReport:
    """Stability of the steady state from the sign of each Im omega.

    Unstable when any non-Goldstone mode grows, Im omega > 0.  Stable when
    some mode is noise-coupled (``noise_coupled``) and every such mode is
    damped, Im omega < 0, so that a steady state exists.  Otherwise
    marginal: no mode couples to the noise (a decoupled cavity), or one is
    undamped.  No tolerance enters: the secular solve gives each Im omega
    to full relative precision and with an exact sign, and a coupled mode
    damped below the sums' resolution, 2|Im omega| < ``depletion.Z_FLOOR``,
    is the steady sum's to mark diverged.  A deflated mode (module
    docstring) has l1 = l2 = 0 and a real omega exactly: it is never
    noise-coupled, and its Im omega of 0 is no growth.
    """
    max_growth = float(np.delete(dec.omegas.imag, list(dec.goldstone)).max())
    coupled = noise_coupled(dec)
    damped = coupled.size > 0 and (dec.omegas[coupled].imag < 0.0).all()
    label = "unstable" if max_growth > 0.0 else "stable" if damped else "marginal"
    return StabilityReport(label, max_growth)


def noise_coupled(dec: ModeDecomposition) -> np.ndarray:
    """Indices of the noise-coupled modes: the non-Goldstone modes whose
    photon noise weight |l1 l2| exceeds NOISE_FLOOR."""
    modes = np.delete(np.arange(dec.omegas.size), list(dec.goldstone))
    return modes[np.abs(dec.l1[modes] * dec.l2[modes]) > NOISE_FLOOR]


def petermann_raw(dec: ModeDecomposition) -> np.ndarray:
    """Excess-noise factor K_k = |l_k|^2 |r_k|^2 under l_k . r_k = 1 for every
    mode: 1 for a normal mode, above 1 where the eigenbasis is skewed.  For
    a secular root l_k = (W r_k)^T / (r_k^T W r_k) (module docstring), so
    K_k = |W r_k|^2 |r_k|^2 / |r_k^T W r_k|^2, Siegman's form for a
    complex-symmetric system; the phase/number pair's |l_k|^2 are its dual
    rows' own.  A deflated root's vector lies in one matter block, where W
    is dx or -dx, so its K is 1 exactly.  The even sector's basis is
    orthonormal, so every norm is one einsum over the stored vectors."""
    stored, k = dec.coupled_right, dec.coupled.size
    vectors = stored[:, :k]
    left = abs(dec.beta) ** 2 * _squared_column_norms(vectors[:2])
    left += dec.dx**2 * _squared_column_norms(vectors[2:])
    left /= np.square(np.abs(dec.w_norms[dec.coupled]))
    raw = np.ones(dec.omegas.size)
    raw[dec.coupled] = left * _squared_column_norms(vectors)
    raw[list(dec.goldstone)] = _squared_column_norms(dec.dual_rows.T) * _squared_column_norms(stored[:, k:])
    return raw


def odd_frequencies(fm: FluctuationMatrix) -> np.ndarray:
    """Frequencies of the reflection-odd modes, +e then -e, from the real
    odd block h_odd (module docstring): normal modes with no photon weight
    and a Petermann factor of 1, which ``decompose`` leaves out."""
    # eigh, not eigvalsh: the two differ in the last bits, and the listed
    # frequencies are eigh's
    energies = np.linalg.eigh(fm.h_odd)[0]
    return np.concatenate([energies, -energies])
