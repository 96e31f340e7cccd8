"""Dense-matrix primitives: rank-one calculus and tolerance-governed rank work.

Matrices, vectors and covectors are plain numpy arrays over the field
fixed by a :class:`~bisep.config.FieldConfig`.  Covectors act
*bilinearly* on vectors, ``f(v) = sum_a f_a v_a``, with no conjugation
even over the complex field; all dual pairings and transposes in this
package are the algebraic (non-Hermitian) ones.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import DimensionMismatch, NotRankOne, SingularMatrix, ZeroMatrix


def pair(f, v):
    """Bilinear dual pairing f(v) = sum_a f_a * v_a (no conjugation)."""
    f = np.asarray(f)
    v = np.asarray(v)
    if f.shape != v.shape:
        raise DimensionMismatch(f"covector dim {f.shape} != vector dim {v.shape}")
    return f @ v


def outer(u, f):
    """Rank-one operator u (x) f, acting as v -> f(v) * u.

    Entry (p, q) of the result is u_p * f_q.
    """
    u = np.asarray(u)
    f = np.asarray(f)
    if u.ndim != 1 or f.ndim != 1 or u.shape != f.shape:
        raise DimensionMismatch(f"outer needs equal-length 1-d arrays, got {u.shape} and {f.shape}")
    return np.outer(u, f)


@dataclass(frozen=True)
class RankOneFactor:
    """Factorization A = outer(u, f) with the covector gauge-fixed.

    Gauge: ||f||_2 = 1 and the first entry of f with modulus above
    tol_abs is real positive; all scale sits in u.
    """

    u: np.ndarray
    f: np.ndarray


def _fix_covector_gauge(u, f, tol_abs):
    """Rescale (u, f) so f is unit norm with a real-positive leading entry."""
    norm = np.linalg.norm(f)
    u = u * norm
    f = f / norm
    idx = np.flatnonzero(np.abs(f) > tol_abs)
    if idx.size:
        lead = f[idx[0]]
        phase = lead / abs(lead)
        f = f / phase
        u = u * phase
    return u, f


def rank_one_factor(A, cfg: FieldConfig = DEFAULT) -> RankOneFactor:
    """Factor a rank-one matrix as outer(u, f).

    Raises ZeroMatrix if the numeric rank is 0 and NotRankOne if it exceeds 1.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    U, s, Vh = np.linalg.svd(A)
    rank = _rank(s, cfg)
    if rank == 0:
        raise ZeroMatrix("matrix is zero at tolerance; no rank-one factor exists")
    if rank > 1:
        raise NotRankOne(f"second singular value {s[1]:.3e} exceeds tol * sigma_1 = {cfg.tol_rel * s[0]:.3e}")
    # A ~= outer(s[0] * U[:,0], Vh[0]): the Vh row is already the bilinear covector
    u = s[0] * U[:, 0]
    f = Vh[0]
    u, f = _fix_covector_gauge(u, f, cfg.tol_abs)
    return RankOneFactor(u=u, f=f)


def _rank(s, cfg: FieldConfig):
    """The rank rule on singular values s (last axis, descending): the count of
    those above tol_rel * sigma_1, or 0 when sigma_1 <= tol_abs.  Vectorised
    over leading axes."""
    top = s.max(axis=-1, initial=0.0, keepdims=True)
    return np.where(top[..., 0] > cfg.tol_abs, np.count_nonzero(s > cfg.tol_rel * top, axis=-1), 0)


def numeric_rank(A, cfg: FieldConfig = DEFAULT):
    """Numeric rank of a matrix, or an array of ranks for a stack of matrices."""
    ranks = _rank(np.linalg.svd(np.asarray(A), compute_uv=False), cfg)
    return int(ranks) if ranks.ndim == 0 else ranks


def invert(A, cfg: FieldConfig = DEFAULT):
    """Invert a square matrix, returning (inverse, condition estimate).

    Raises SingularMatrix when the numeric rank is deficient.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"cannot invert non-square shape {A.shape}")
    n = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    rank = _rank(s, cfg)
    if rank < n:
        raise SingularMatrix(f"numeric rank {rank} < {n}")
    cond = float(s[0] / s[-1])
    inv = np.linalg.solve(A, np.eye(n, dtype=A.dtype))
    return inv, cond


def kernel_basis(A, cfg: FieldConfig = DEFAULT):
    """Orthonormal basis of the null space of A at tolerance.

    Returned as a list of vectors (possibly empty).
    """
    A = np.asarray(A)
    _, s, Vh = np.linalg.svd(A)
    return [Vh[i].conj() for i in range(_rank(s, cfg), A.shape[1])]


def frob(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def gaussian(rng, shape, cfg: FieldConfig = DEFAULT):
    """Standard normal array from ``rng`` in the field's dtype; over the complex
    field the imaginary parts are drawn after all the real parts."""
    g = rng.standard_normal(shape)
    if cfg.is_complex:
        g = g + 1j * rng.standard_normal(shape)
    return g.astype(cfg.dtype)
