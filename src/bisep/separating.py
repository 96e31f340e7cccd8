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
"""

from dataclasses import dataclass

import numpy as np

from .config import FieldConfig
from .errors import InfeasibleRanks, SingularMatrix
from .linalg import frob, gaussian
from .superop import Superoperator, apply, basis_image_array, inverse

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


def scalar_identity_test(M, cfg: FieldConfig, scale: float):
    """Decide whether M is a scalar multiple of the identity at tolerance.

    Returns (is_scalar, c) with c the mean of the diagonal.  Off-diagonal
    entries and pairwise diagonal differences are compared against
    ``tol_abs + tol_rel * scale``.
    """
    M = np.asarray(M)
    n = M.shape[0]
    thr = cfg.threshold(scale)
    diag = np.diagonal(M)
    c = diag.mean()
    off = M - np.diag(diag)
    if np.abs(off).max(initial=0.0) > thr:
        return False, c
    if n > 1:
        spread = np.abs(diag[:, None] - diag[None, :]).max()
        if spread > thr:
            return False, c
    return True, c


def _unit(n, i, dtype):
    v = np.zeros(n, dtype=dtype)
    v[i] = 1
    return v


def _image_scale(T: Superoperator) -> float:
    im = basis_image_array(T)
    return float(np.sqrt((np.abs(im) ** 2).sum(axis=(2, 3))).max())


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


def is_separating_exact(
    T: Superoperator, cfg: FieldConfig | None = None, scale: float | None = None
) -> Verdict:
    """Exact separating check via the scalar-identity reduction (see module docstring).

    ``scale`` overrides the violation scale (default: the squared max basis
    image norm of T itself); the function-algebra checks pass a global one.
    Cost is O(n^4 m^3) after precomputing basis images; fine for n, m <= 12.
    """
    cfg = cfg or T.cfg
    n, m = T.n_in, T.n_out
    im = basis_image_array(T)  # im[i, a] = T(E_ia)
    if scale is None:
        scale = _image_scale(T) ** 2
    thr = cfg.threshold(scale)

    # P[i, l, p, q, a, b] = [T(E_ia) @ T(E_bl)]_{pq}
    P = np.einsum("iapr,blrq->ilpqab", im, im)

    off_mask = np.abs(P) > thr
    ar = np.arange(n)
    off_mask[..., ar, ar] = False

    D = P[..., ar, ar]  # D[i, l, p, q, a]
    diff = np.abs(D[..., :, None] - D[..., None, :])
    diag_mask = diff > thr
    diag_mask &= ar[:, None] < ar[None, :]  # unordered pairs a < b

    if not off_mask.any() and not diag_mask.any():
        return Verdict(SEPARATING)

    # C order over (i, l, p, q, a, b, kind) is the lexicographic order of the
    # violations, off-diagonal (kind 0) before diagonal (kind 1) on ties
    flags = np.stack((off_mask, diag_mask), axis=-1).ravel()
    start = 0
    while start < flags.size:
        hit = start + int(np.argmax(flags[start:]))
        if not flags[hit]:
            break
        i, l, _p, _q, a, b, kind = np.unravel_index(hit, off_mask.shape + (2,))
        A, B = _certificate(T, i, l, a, b, kind)
        violation = frob(apply(T, A) @ apply(T, B))
        if violation > thr:
            ce = Counterexample(A=A, B=B, product_in_norm=frob(A @ B), violation_norm=violation)
            return Verdict(NOT_SEPARATING, counterexample=ce)
        start = hit + 1
    # every certificate is below threshold: the map is within a whisker of
    # separating and no self-verifying witness exists
    return Verdict(SEPARATING)


def _standard_pairs(n, rng, rank_a, rank_b, count, cfg):
    """Batched zero-product pairs: range(B) inside a random subspace W,
    rows of A in the (bilinear) annihilator of W."""
    if rank_a < 0 or rank_b < 0 or rank_a + rank_b > n:
        raise InfeasibleRanks(f"ranks ({rank_a}, {rank_b}) infeasible in dimension {n}")

    def gauss(*shape):
        return gaussian(rng, shape, cfg)

    Q, _ = np.linalg.qr(gauss(count, n, n))
    W = Q[:, :, :rank_b]
    K = Q[:, :, rank_b:].conj()  # W^T K = 0 also over the complex field
    B = W @ gauss(count, rank_b, n)
    A = gauss(count, n, rank_a) @ gauss(count, rank_a, n - rank_b) @ K.transpose(0, 2, 1)
    return A, B


def random_zero_product_pair(n, rank_a, rank_b, seed, cfg: FieldConfig | None = None):
    """Seeded random pair (A, B) with A @ B = 0 to machine precision and the
    requested numeric ranks."""
    cfg = cfg or FieldConfig()
    rng = np.random.default_rng(seed)
    A, B = _standard_pairs(n, rng, rank_a, rank_b, 1, cfg)
    return A[0], B[0]


def _feasible_splits(n):
    return [(ra, rb) for ra in range(1, n) for rb in range(1, n - ra + 1)]


def _batch_apply(T, X):
    """Apply T to a stack of matrices, shape (count, n, n) -> (count, m, m)."""
    count = X.shape[0]
    vecs = X.transpose(0, 2, 1).reshape(count, -1)
    out = vecs @ T.mat.T
    return out.reshape(count, T.n_out, T.n_out).transpose(0, 2, 1)


def is_separating_sampled(
    T: Superoperator, trials: int, seed, cfg: FieldConfig | None = None
) -> Verdict:
    """Monte-Carlo separating check over random zero-product pairs.

    Draws pairs across all feasible rank splits; a violation yields a
    self-verified counterexample, absence of one gives only one-sided
    confidence (a SEPARATING verdict can be wrong, NOT_SEPARATING cannot).
    """
    cfg = cfg or T.cfg
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = T.n_in
    splits = _feasible_splits(n)
    if not splits:
        return Verdict(SEPARATING)
    thr = cfg.threshold(_image_scale(T) ** 2)
    rng = np.random.default_rng(seed)
    per = -(-trials // len(splits))
    for ra, rb in splits:
        A, B = _standard_pairs(n, rng, ra, rb, per, cfg)
        na = np.linalg.norm(A, axis=(1, 2), keepdims=True)
        nb = np.linalg.norm(B, axis=(1, 2), keepdims=True)
        A = A / np.where(na > 0, na, 1.0)
        B = B / np.where(nb > 0, nb, 1.0)
        prod = _batch_apply(T, A) @ _batch_apply(T, B)
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


def is_biseparating(T: Superoperator, cfg: FieldConfig | None = None) -> Verdict:
    """Separating check on T and on T^{-1}; NOT_INVERTIBLE when no inverse exists."""
    cfg = cfg or T.cfg
    if not T.is_endo:
        return Verdict(NOT_INVERTIBLE)
    try:
        T_inv = inverse(T)
    except SingularMatrix:
        return Verdict(NOT_INVERTIBLE)
    forward = is_separating_exact(T, cfg)
    if not forward:
        return Verdict(NOT_SEPARATING, counterexample=forward.counterexample, direction=FORWARD)
    backward = is_separating_exact(T_inv, cfg)
    if not backward:
        return Verdict(NOT_SEPARATING, counterexample=backward.counterexample, direction=INVERSE)
    return Verdict(BISEPARATING)
