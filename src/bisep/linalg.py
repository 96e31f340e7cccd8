"""Dense-matrix primitives: the rank rule and what rests on it (numeric rank,
inversion, kernels).

Matrices, vectors and covectors are plain numpy arrays over the field
fixed by a :class:`~bisep.config.FieldConfig`.  Covectors act
*bilinearly* on vectors, ``f(v) = sum_a f_a v_a``, with no conjugation
even over the complex field; all dual pairings and transposes in this
package are the algebraic (non-Hermitian) ones.
"""

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import DimensionMismatch, SingularMatrix


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
    """Invert a square matrix, returning (inverse, condition estimate); for a
    stack of matrices (leading axes), the stack of inverses and the array of
    estimates, each bit for bit what a call on that matrix alone returns.

    Raises SingularMatrix when the numeric rank of a matrix is deficient, or
    when its inverse fails the admission rule of :meth:`FieldConfig.asarray`;
    both rules apply to each matrix of a stack on its own.  So a matrix of
    condition number >= 1/tol_rel counts as singular: the biseparating
    decisions overrule that for a map whose certified form shows it invertible.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"cannot invert non-square shape {A.shape}")
    n, stack = A.shape[-1], A.shape[:-2]
    if not n:
        return np.zeros_like(A), np.ones(stack) if stack else 1.0
    s = np.linalg.svd(A, compute_uv=False)
    rank = _rank(s, cfg)
    low = rank.min() if stack else rank  # the smallest rank in a stack
    if low < n:
        raise SingularMatrix(f"numeric rank {low} < {n}")
    eye = np.eye(n, dtype=A.dtype)
    inv = np.linalg.solve(A, np.broadcast_to(eye, A.shape) if stack else eye)
    try:
        cfg.asarray(inv, stacked=bool(stack))
    except ValueError as exc:
        raise SingularMatrix(f"inverse too large to represent: {exc}") from exc
    return inv, s[..., 0] / s[..., -1] if stack else float(s[0] / s[-1])


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
