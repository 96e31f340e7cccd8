"""Decision procedures for the separating / biseparating properties.

A linear map T : M_n -> M_m is *separating* when A @ B = 0 implies
T(A) @ T(B) = 0.  The exact checker rests on the following reduction,
re-derived here so the implementation can be audited on its own:

1. A @ B = 0 iff range(B) is contained in ker(A), so any zero-product
   pair decomposes as A = sum_i u_i (x) f_i, B = sum_j v_j (x) g_j with
   all pairings f_i(v_j) = 0.  By bilinearity of (A, B) -> T(A) T(B),
   T is separating iff f(v) = 0 implies T(u (x) f) T(v (x) g) = 0 for
   all u, f, v, g.
2. For fixed u, g and a fixed output entry (p, q), the map
   (f, v) -> [T(u (x) f) T(v (x) g)]_{pq} is a bilinear form.  A
   bilinear form that vanishes whenever f(v) = 0 is a scalar multiple
   of the pairing itself, because the rank-one traceless matrices
   v f^T span the whole traceless hyperplane (n >= 2; for n = 1 the
   statement is vacuous and every linear map is separating, scalars
   having no nonzero zero-divisors).
3. Membership of a bilinear image in the line spanned by the pairing is
   a linear condition, so checking it on basis pairs suffices.

Concretely: T is separating iff for every i, l in [n] and every output
entry (p, q), the n x n matrix M with M_ab = [T(E_ia) T(E_bl)]_{pq} is a
scalar multiple of the identity.  Each deviation yields an explicit
zero-product certificate:

* off-diagonal entry M_ab (a != b):  A = E_ia, B = E_bl;
* diagonal mismatch M_aa != M_bb:    A = E_ia + E_ib, B = E_al - E_bl;

both pairs satisfy A @ B = 0 exactly.  The reported counterexample is
the lexicographically smallest violating tuple (i, l, p, q, a, b)
(off-diagonal before diagonal on ties) whose certificate self-verifies,
i.e. ||T(A) T(B)||_F exceeds the decision threshold; off-diagonal
certificates always do.  In the boundary sliver where violations exist
but no certificate self-verifies (possible only when every M is within
3x tolerance of a scalar matrix), the map is declared separating.

Because the order starts with (i, l), the checker walks one (i, l) block
at a time: it builds the n^2 m^2 products [T(E_ia) T(E_bl)]_{pq} of one
block (O(n^2 m^2) memory), tries that block's violations in order, and
stops at the first certificate that verifies.  The time is O(n^2 m^3)
when the first block holds the certificate, and at most O(n^4 m^3).

Fast accept.  M_n is zero product determined (Bresar, Grasic, Sanchez
Ortega, Linear Algebra Appl. 2009; Chebotar, Ke, Lee, Wong, Studia Math.
2003), so T is separating iff T(x) T(y) = T(xy) T(1).  Before the walk, a
one-sided test certifies that every mask bit the walk would compute is
clear; it then returns SEPARATING, which is what the walk returns.  In
every other case the walk runs unchanged, so each NOT_SEPARATING verdict
and certificate is the walk's own.  Write im_ia = T(E_ia) and
N = sum_i im_ii = T(1); if N is singular by the rank rule the test gives
up.  Otherwise let X be a computed inverse of N and h_ia = fl(im_ia X),
and measure, with about 5 n^2 products of m x m matrices:

* c_bl  = N im_bl - im_bl N                (commutation with N),
* e1_ab = h_0a h_b0 - delta_ab h_00        (matrix-unit products),
* e2_il = h_il - h_i0 h_0l                 (factorisation through row 0),
* R     = X N - I                          (quality of the inverse).

For any N, X and h these identities are exact (rho_ia = im_ia - h_ia N):

  h_ia h_bl   = delta_ab h_il + F_iabl,
  F_iabl      = h_i0 e1_ab h_0l + h_i0 h_0a e2_bl + e2_ia h_bl
                - delta_ab (e2_il + e2_i0 h_0l),
  im_ia im_bl = delta_ab h_il N^2 + E_iabl,
  E_iabl      = F_iabl N^2 + h_ia rho_bl N + h_ia c_bl + rho_ia im_bl.

(Expand im_ia = h_ia N + rho_ia, then N im_bl = im_bl N + c_bl, then
im_bl = h_bl N + rho_bl.)  With Frobenius norms, ||N||_2 the spectral
norm, M = max ||im||, H = max ||h|| and the maxima of the residuals,

  ||F|| <= H^2 ||e1|| + (H + 1)^2 ||e2||,
  ||E|| <= ||F|| ||N||_2^2 + H rho ||N||_2 + H ||c|| + rho M = beta,
  rho   <= M ||R|| + g M ||X|| ||N||_2.

Every residual is taken as its computed norm plus the rounding of its
own products: with g = (m + 3) eps, |fl(AB) - AB| <= g |A||B| over both
fields (sqrt(2) gamma_{m+2} for complex arithmetic), and ||A||B||| <=
||A|| ||B||; so ||R|| gains g ||X|| ||N||, ||c|| gains 2 g ||N|| M, and
each ||e|| gains g H^2.  The term g M ||X|| ||N||_2 in rho is the rounding
of h itself.

An entry of im_ia im_bl off the diagonal (a != b) is then at most beta,
and a difference of two diagonal ones at most 2 beta (both are within
beta of the common h_il N^2).  The walk's einsum adds at most g M^2 to
each entry, so every mask bit is clear when 2 (beta + g M^2) < thr.  The
norms and the bound are evaluated in floating point too; each carries a
relative error below m^2 eps and the bound multiplies at most five of
them, so the test asks 2 (beta + g M^2) (1 + 8 (m^2 + 4) eps) < thr.
The first residual, h_00 h_00 - h_00, is measured alone first: one
product that already rejects a perturbed map, since beta >=
||h_00||^2 ||e1_00|| ||N||_2^2.  For n >= 2 the residual e1_11 =
h_01 h_10 - h_00 comes next, one more product that rejects a transpose
(for which h_00 is idempotent), since beta >= max(||h_01||, ||h_10||)^2
||e1_11|| ||N||_2^2.  On accept the time is O(n^2 m^3).

Form first.  A bijective zero-product preserving linear map of M_n is
c Ad_S (Chebotar, Ke, Lee, Wong, Studia Math. 2003; the source paper
proves the operator-algebra version), so a certified form already
decides "biseparating": alpha Ad_S is invertible with the separating
inverse alpha^{-1} Ad_{S^{-1}}.  :func:`is_biseparating` therefore first
reads the form off the basis images (``structure.fit_conjugation``: the
columns of S from T(E_i1), one inversion of the gauged S, alpha from T(I),
one residual pass).  A map that is not a conjugation stops early: a
perturbed one at the rank of T(E_11), one m x m SVD; a transpose at the
second column of S.  The form certifies when its residual is within
tol_rel, the test ``recover_conjugation`` makes.  Two bounds then stand in
for the walks on T and on T^{-1}; where one does not clear, its check runs
as before.  A T which ``inverse`` refuses (the rank rule caps cond(T) =
cond(S)^2 at 1/tol_rel) is BISEPARATING when the recovery of its kind
returns (:func:`biseparating`).

The bound on T.  Write Y for the computed inverse of S (Y is not exact),
R = Y S - I, mod_ia = alpha S E_ia Y, D = max ||im_ia - mod_ia|| and
M_0 = max ||mod_ia|| = |alpha| max_i ||S e_i|| max_l ||e_l^T Y||.  Since
mod_ia mod_bl = alpha^2 S E_ia (I + R) E_bl Y,

  im_ia im_bl = delta_ab alpha^2 S E_il Y + alpha^2 R_ab S E_il Y
                + (im_ia - mod_ia) im_bl + mod_ia (im_bl - mod_bl),

and ||alpha^2 R_ab S E_il Y|| <= |alpha| M_0 ||R||.  So an entry off the
diagonal (a != b) is at most D (M + M_0) + |alpha| M_0 ||R||, a difference
of two diagonal ones at most twice that, and with the walk's rounding
g M^2 per entry every mask bit is clear when
2 (D (M + M_0) + |alpha| M_0 ||R|| + g M^2) < thr.  (|alpha| M_0 ||R|| is
at most M_0^2 ||R|| once max ||S e_i|| max ||e_l^T Y|| >= 1.)

The bound on T^{-1}, without inverting T.  Let F = alpha Ad_S, which maps
X to alpha S X Y, G = alpha^{-1} Ad_Y, which maps X to alpha^{-1} Y X S,
R_1 = S Y - I, E = T - F, and read operator norms on the vectorised
matrices.  Then F G X = (I + R_1) X (I + R_1), so T G = I + Delta with
||Delta|| <= 2 ||R_1|| + ||R_1||^2 + ||E|| ||G|| = delta, where
||E|| <= ||E||_F = ||(D_ia)|| (the unit deviations) and ||G|| =
||S||_2 ||Y||_2 / |alpha|.  If delta < 1, T is invertible and
T^{-1} - G = -G Delta (I + Delta)^{-1}, so each unit image of T^{-1} is
within D_1 = ||G|| (2 ||R_1|| + ||R_1||^2 + ||E|| M_1 + delta^2 / (1 - delta))
of G(E_ia) = alpha^{-1} Y E_ia S, where M_1 = max ||G(E_ia)|| =
max ||Y e_i|| max ||e_l^T S|| / |alpha| (||E G(E_ia)|| <= ||E|| M_1).  G is
the form (alpha^{-1}, Y) with inverse S and R_1 in place of R, and the
image scale of T^{-1} lies within D_1 of M_1; so the bound on T, read for
T^{-1}, clears its walk when 2 (D_1 (2 M_1 + D_1) + M_1 ||R_1|| / |alpha| +
g (M_1 + D_1)^2) < tol_abs + tol_rel (M_1 - D_1)^2.  It bounds the walk on
the exact T^{-1}; the fallback walks a computed inverse, whose rounding
the bound does not cover.  Conjugations with cond(S) near 100 at n = 14
reach about half this threshold; one with cond(S) = 1e3 does not clear it.

Rounding, bounded as for the fast accept: the computed model
alpha (S_pi Y_jq) carries two products per entry, a relative error below
6 eps over both fields, so the true D is at most the computed one plus
6 eps M_0, and ||E||_F at most its computed value plus 6 n eps M_0;
||R|| and ||R_1|| gain g ||Y|| ||S|| (one product each, g = (n + 3) eps);
and each computed norm, maximum and spectral norm and the at most six
factors of a term carry relative errors below (n^2 + 4) eps, so each
test multiplies its left side by 1 + 8 (n^2 + 4) eps.  Everything is
O(n^4), linear in the size of T, where the inverse costs O(n^6).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BisepError, RecoveryError, SingularMatrix
from .linalg import _rank, frob, gaussian
from .structure import fit_conjugation, recover_conjugation
from .superop import Superoperator, apply, basis_image_array, image_scale, inverse, unvec, vec

SEPARATING = "separating"
NOT_SEPARATING = "not_separating"
BISEPARATING = "biseparating"
NOT_INVERTIBLE = "not_invertible"

FORWARD = "forward"
INVERSE = "inverse"


@dataclass(frozen=True)
class Counterexample:
    """A zero-product pair whose images fail to multiply to zero."""

    A: np.ndarray
    B: np.ndarray
    product_in_norm: float
    violation_norm: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of a separating-style check.

    ``counterexample`` is a :class:`Counterexample` for matrix-algebra
    checks, or a function-pair witness for the function-algebra checks.
    """

    status: str
    counterexample: object = None
    direction: str | None = None

    def __bool__(self):
        return self.status in (SEPARATING, BISEPARATING)


def _scalar_violations(M, thr):
    """Flat indices, into M.shape + (2,) in C order, of what keeps each trailing
    n x n matrix of M from being scalar at threshold thr: off-diagonal entries
    above it (kind 0 on the last axis), and diagonal pairs a < b whose difference
    is above it (kind 1)."""
    ar = np.arange(M.shape[-1])
    off = np.abs(M) > thr
    np.einsum("...ii->...i", off)[...] = False  # a writable view of the diagonals
    D = M[..., ar, ar]
    diag = np.abs(D[..., :, None] - D[..., None, :]) > thr
    diag &= ar[:, None] < ar[None, :]
    if not (off.any() or diag.any()):
        return np.empty(0, dtype=np.intp)  # a clear block costs no stack and no scan
    return np.flatnonzero(np.stack((off, diag), axis=-1))


def _unit(n, i, dtype):
    v = np.zeros(n, dtype=dtype)
    v[i] = 1
    return v


def _certificate(T, i, l, a, b, kind):
    """Build the zero-product pair for a violating tuple."""
    n = T.n_in
    dt = T.cfg.dtype
    if kind == 0:  # off-diagonal: E_ia, E_bl
        A = np.outer(_unit(n, i, dt), _unit(n, a, dt))
        B = np.outer(_unit(n, b, dt), _unit(n, l, dt))
    else:  # diagonal mismatch: (E_ia + E_ib), (E_al - E_bl)
        A = np.outer(_unit(n, i, dt), _unit(n, a, dt) + _unit(n, b, dt))
        B = np.outer(_unit(n, a, dt) - _unit(n, b, dt), _unit(n, l, dt))
    return A, B


@np.errstate(over="ignore", invalid="ignore")  # inf and nan bounds reject
def _certified_separating(T, im, thr):
    """True when the zero-product identity bounds every basis-product entry the
    walk masks below ``thr`` (the fast accept of the module docstring); False
    decides nothing."""
    m = T.n_out
    ar = np.arange(T.n_in)
    N = im[ar, ar].sum(axis=0)  # T(1)
    s = np.linalg.svd(N, compute_uv=False)
    if _rank(s, T.cfg) < m or not T.n_in:
        return False
    eps = np.finfo(np.float64).eps
    g = (m + 3) * eps
    N2 = s.max(initial=0.0)
    X = np.linalg.solve(N, np.eye(m, dtype=N.dtype))
    # staged: h(E_11) must be idempotent; beta >= ||h_00||^2 ||e1_00|| ||N||_2^2
    h00 = im[0, 0] @ X
    if 2 * frob(h00) ** 2 * frob(h00 @ h00 - h00) * N2**2 >= thr:
        return False
    # then h(E_12) h(E_21) = h(E_11); beta >= max(||h_01||, ||h_10||)^2 ||e1_11|| ||N||_2^2
    if T.n_in >= 2:
        h01, h10 = im[0, 1] @ X, im[1, 0] @ X
        if 2 * max(frob(h01), frob(h10)) ** 2 * frob(h01 @ h10 - h00) * N2**2 >= thr:
            return False
    h = im @ X
    c = N @ im - im @ N
    e1 = h[0][:, None] @ h[None, :, 0]  # e1[a, b] = h_0a h_b0 - delta_ab h_00
    e1[ar, ar] -= h[0, 0]
    e2 = h - h[:, :1] @ h[:1, :]  # e2[i, l] = h_il - h_i0 h_0l
    M, H, XF, NF = image_scale(im), image_scale(h), frob(X), frob(N)
    rho = M * (frob(X @ N - np.eye(m)) + g * XF * NF) + g * M * XF * N2
    F = H**2 * (image_scale(e1) + g * H**2) + (H + 1) ** 2 * (image_scale(e2) + g * H**2)
    beta = F * N2**2 + H * rho * N2 + H * (image_scale(c) + 2 * g * NF * M) + rho * M
    return 2 * (beta + g * M**2) * (1 + 8 * (m * m + 4) * eps) < thr


def is_separating_exact(T: Superoperator, *, scale: float | None = None) -> Verdict:
    """Exact separating check via the scalar-identity reduction (see module docstring).

    ``scale`` overrides the violation scale (default: the squared max basis
    image norm of T itself); the function-algebra checks pass a global one.
    First the fast accept: when T(1) is invertible and the residuals of
    T(x) T(y) = T(xy) T(1) on matrix units bound every basis-product entry
    below the threshold, T is separating, in O(n^2 m^3) time.  Otherwise the
    walk builds one (i, l) block of basis products at a time, O(n^2 m^2)
    memory, and stops at the first certificate that verifies; the time is
    O(n^2 m^3) when the first block holds it, and at most O(n^4 m^3).
    """
    im = basis_image_array(T.mat)  # im[i, a] = T(E_ia)
    if scale is None:
        scale = image_scale(im) ** 2
    thr = T.cfg.threshold(scale)
    if _certified_separating(T, im, thr):
        return Verdict(SEPARATING)
    for i, l in np.ndindex(T.n_in, T.n_in):
        # P[p, q, a, b] = [T(E_ia) @ T(E_bl)]_{pq}; einsum fills the (a, b, p, q)
        # layout faster than (p, q, a, b), with the same bits
        P = np.einsum("apr,brq->abpq", im[i], im[:, l]).transpose(2, 3, 0, 1)
        # C order over (p, q, a, b, kind) is the lexicographic order of the
        # block's violations, off-diagonal (kind 0) before diagonal (kind 1) on ties
        for hit in _scalar_violations(P, thr):
            _p, _q, a, b, kind = np.unravel_index(hit, P.shape + (2,))
            A, B = _certificate(T, i, l, a, b, kind)
            violation = frob(apply(T, A) @ apply(T, B))
            if violation > thr:
                ce = Counterexample(A=A, B=B, product_in_norm=frob(A @ B), violation_norm=violation)
                return Verdict(NOT_SEPARATING, counterexample=ce)
    # no violation, or only certificates within the threshold: the map is
    # within a whisker of separating and no self-verifying witness exists
    return Verdict(SEPARATING)


def _standard_pairs(n, rng, rank_a, rank_b, count, cfg):
    """Batched zero-product pairs: range(B) inside a random subspace W,
    rows of A in the (bilinear) annihilator of W; needs rank_a + rank_b <= n."""

    def gauss(*shape):
        return gaussian(rng, shape, cfg)

    Q, _ = np.linalg.qr(gauss(count, n, n))
    W = Q[:, :, :rank_b]
    K = Q[:, :, rank_b:].conj()  # W^T K = 0 also over the complex field
    B = W @ gauss(count, rank_b, n)
    A = gauss(count, n, rank_a) @ gauss(count, rank_a, n - rank_b) @ K.transpose(0, 2, 1)
    return A, B


def _feasible_splits(n):
    return [(ra, rb) for ra in range(1, n) for rb in range(1, n - ra + 1)]


def is_separating_sampled(T: Superoperator, trials: int, seed) -> Verdict:
    """Monte-Carlo separating check over random zero-product pairs.

    Draws pairs across all feasible rank splits; a violation yields a
    self-verified counterexample, absence of one gives only one-sided
    confidence (a SEPARATING verdict can be wrong, NOT_SEPARATING cannot).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = T.n_in
    splits = _feasible_splits(n)
    if not splits:
        return Verdict(SEPARATING)
    thr = T.cfg.threshold(image_scale(basis_image_array(T.mat)) ** 2)
    rng = np.random.default_rng(seed)
    per = -(-trials // len(splits))
    for ra, rb in splits:
        A, B = _standard_pairs(n, rng, ra, rb, per, T.cfg)
        na = np.linalg.norm(A, axis=(1, 2), keepdims=True)
        nb = np.linalg.norm(B, axis=(1, 2), keepdims=True)
        A = A / np.where(na > 0, na, 1.0)
        B = B / np.where(nb > 0, nb, 1.0)
        prod = unvec(vec(A) @ T.mat.T, T.n_out) @ unvec(vec(B) @ T.mat.T, T.n_out)
        norms = np.linalg.norm(prod, axis=(1, 2))
        bad = np.flatnonzero(norms > thr)
        if bad.size:
            t = int(bad[0])
            ce = Counterexample(
                A=A[t],
                B=B[t],
                product_in_norm=frob(A[t] @ B[t]),
                violation_norm=float(norms[t]),
            )
            return Verdict(NOT_SEPARATING, counterexample=ce)
    return Verdict(SEPARATING)


@np.errstate(over="ignore", invalid="ignore")  # inf and nan bounds decide nothing
def _form_bounds(T: Superoperator):
    """None when T has no form with residual within tol_rel; else the
    certified form's deviation bounds over the walk's thresholds, on T and on
    T^{-1} (module docstring).  A bound below 1 clears its walk."""
    if not T.is_endo or not T.n_in:
        return None
    im = basis_image_array(T.mat)
    try:
        form, Y, dev, M = fit_conjugation(im, T.cfg)
    except RecoveryError:
        return None
    if not form.residual <= T.cfg.tol_rel:
        return None
    n, S, a = T.n_in, form.S, abs(form.alpha)
    eps = np.finfo(np.float64).eps
    g = (n + 3) * eps
    I = np.eye(n)
    S_cols, S_rows = np.linalg.norm(S, axis=0).max(), np.linalg.norm(S, axis=1).max()
    Y_cols, Y_rows = np.linalg.norm(Y, axis=0).max(), np.linalg.norm(Y, axis=1).max()
    # T against alpha Ad_S, with the model's rounding added to D
    M0 = a * S_cols * Y_rows
    D = float(dev.max()) + 6 * eps * M0
    R = frob(Y @ S - I) + g * frob(Y) * frob(S)
    forward = 2 * (D * (M + M0) + a * M0 * R + g * M**2)
    # T^{-1} against alpha^{-1} Ad_Y, whose unit images are at most M1
    M1 = Y_cols * S_rows / a
    R1 = frob(S @ Y - I) + g * frob(S) * frob(Y)
    E = frob(dev) + 6 * n * eps * M0  # >= ||T - alpha Ad_S||_2
    gamma = np.linalg.norm(S, 2) * np.linalg.norm(Y, 2) / a  # ||alpha^{-1} Ad_Y||_2
    delta = 2 * R1 + R1**2 + E * gamma
    D1 = gamma * (2 * R1 + R1**2 + E * M1 + delta**2 / (1 - delta)) if delta < 1 else np.inf
    backward = 2 * (D1 * (2 * M1 + D1) + M1 * R1 / a + g * (M1 + D1) ** 2)
    k = 1 + 8 * (n * n + 4) * eps
    cfg = T.cfg
    return forward * k / cfg.threshold(M**2), backward * k / cfg.threshold(max(M1 - D1, 0.0) ** 2)


def biseparating(T, is_separating, inverse, recover, form_bounds=None) -> Verdict:
    """The biseparating decision for both map kinds, in this order: T separating
    (else NOT_SEPARATING, FORWARD), T invertible, T^{-1} separating (else
    NOT_SEPARATING, INVERSE); then BISEPARATING.  A map that is neither
    separating nor invertible thus gets the forward witness, and only a
    separating map is inverted.

    Where ``inverse`` raises SingularMatrix, ``recover``, the form recovery of
    the map's kind, decides: a recovered form is a direct sum of scaled
    similarities, invertible with a separating inverse whatever the rank rule
    says, so T is BISEPARATING if ``recover`` returns and NOT_INVERTIBLE if it
    raises.

    ``form_bounds``, when given, is a certified shortcut into that order: it
    returns None when T has no certified form, else the form's bounds on T and
    on T^{-1} over their walks' thresholds.  A bound below 1 stands in for its
    check, which would find T, or T^{-1}, separating."""
    bounds = form_bounds(T) if form_bounds else None
    if bounds is None or not bounds[0] < 1:
        forward = is_separating(T)
        if not forward:
            return Verdict(NOT_SEPARATING, counterexample=forward.counterexample, direction=FORWARD)
    if bounds is not None and bounds[1] < 1:
        return Verdict(BISEPARATING)
    try:
        T_inv = inverse(T)
    except SingularMatrix:
        try:
            recover(T)
        except BisepError:
            return Verdict(NOT_INVERTIBLE)
        return Verdict(BISEPARATING)
    backward = is_separating(T_inv)
    if not backward:
        return Verdict(NOT_SEPARATING, counterexample=backward.counterexample, direction=INVERSE)
    return Verdict(BISEPARATING)


def is_biseparating(T: Superoperator) -> Verdict:
    """:func:`biseparating` with the certified form first, then the exact checker,
    the superoperator inverse and, for a refused inverse, the form recovery."""
    return biseparating(T, is_separating_exact, inverse, recover_conjugation, _form_bounds)
