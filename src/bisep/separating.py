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

Because the order starts with i, the checker walks one row at a time: it
builds the slice of products for one i (O(n^3 m^2) memory), tries that
slice's violations in order, and stops at the first certificate that
verifies.  The time is at most O(n^4 m^3).
"""

from dataclasses import dataclass

import numpy as np

from .config import FieldConfig
from .errors import InfeasibleRanks, SingularMatrix
from .linalg import frob, gaussian
from .superop import Superoperator, apply, basis_image_array, image_scale, inverse

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
    """Masks of what keeps each trailing n x n matrix of M from being scalar at
    threshold thr: off-diagonal entries above it, and diagonal pairs a < b whose
    difference is above it."""
    ar = np.arange(M.shape[-1])
    off = np.abs(M) > thr
    off[..., ar, ar] = False
    D = M[..., ar, ar]
    diag = np.abs(D[..., :, None] - D[..., None, :]) > thr
    diag &= ar[:, None] < ar[None, :]
    return off, diag


def scalar_identity_test(M, cfg: FieldConfig, scale: float):
    """Decide whether M is a scalar multiple of the identity at tolerance.

    Returns (is_scalar, c) with c the mean of the diagonal.  Off-diagonal
    entries and pairwise diagonal differences are compared against
    ``tol_abs + tol_rel * scale``.
    """
    M = np.asarray(M)
    off, diag = _scalar_violations(M, cfg.threshold(scale))
    return not (off.any() or diag.any()), np.diagonal(M).mean()


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


def is_separating_exact(T: Superoperator, *, scale: float | None = None) -> Verdict:
    """Exact separating check via the scalar-identity reduction (see module docstring).

    ``scale`` overrides the violation scale (default: the squared max basis
    image norm of T itself); the function-algebra checks pass a global one.
    The walk builds one row slice of basis products at a time, O(n^3 m^2)
    memory, and stops at the first certificate that verifies; the time is at
    most O(n^4 m^3) after precomputing basis images.
    """
    im = basis_image_array(T.mat)  # im[i, a] = T(E_ia)
    if scale is None:
        scale = image_scale(im) ** 2
    thr = T.cfg.threshold(scale)
    for i in range(T.n_in):
        # P[l, p, q, a, b] = [T(E_ia) @ T(E_bl)]_{pq}
        P = np.einsum("apr,blrq->lpqab", im[i], im)
        # C order over (l, p, q, a, b, kind) is the lexicographic order of the
        # slice's violations, off-diagonal (kind 0) before diagonal (kind 1) on ties
        flags = np.stack(_scalar_violations(P, thr), axis=-1)
        for hit in np.flatnonzero(flags):
            l, _p, _q, a, b, kind = np.unravel_index(hit, flags.shape)
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


def is_biseparating(T: Superoperator) -> Verdict:
    """Separating check on T and on T^{-1}; NOT_INVERTIBLE when no inverse exists."""
    if not T.is_endo:
        return Verdict(NOT_INVERTIBLE)
    try:
        T_inv = inverse(T)
    except SingularMatrix:
        return Verdict(NOT_INVERTIBLE)
    forward = is_separating_exact(T)
    if not forward:
        return Verdict(NOT_SEPARATING, counterexample=forward.counterexample, direction=FORWARD)
    backward = is_separating_exact(T_inv)
    if not backward:
        return Verdict(NOT_SEPARATING, counterexample=backward.counterexample, direction=INVERSE)
    return Verdict(BISEPARATING)
