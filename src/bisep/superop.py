"""Linear maps between matrix algebras M_n -> M_m, stored as vectorized matrices.

Vectorization is column-major throughout the package: entry (p, q) of an
n x n matrix sits at vec index q*n + p, so the superoperator column for
the matrix unit E_pq is q*n + p.  Mixing conventions silently corrupts
everything downstream, so the convention is asserted here and recorded
in the file format.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import DimensionMismatch, SingularMatrix
from .linalg import invert

VEC_CONVENTION = "column-major"


def vec(A):
    """Column-major vectorization of a matrix."""
    return np.asarray(A).reshape(-1, order="F")


def unvec(v, rows, cols=None):
    """Inverse of :func:`vec`."""
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols, order="F")


@dataclass(frozen=True)
class Superoperator:
    """A linear map M_{n_in} -> M_{n_out} as an n_out^2 x n_in^2 matrix."""

    n_in: int
    n_out: int
    mat: np.ndarray
    cfg: FieldConfig = DEFAULT

    def __post_init__(self):
        mat = self.cfg.asarray(self.mat)
        if mat.shape != (self.n_out**2, self.n_in**2):
            raise DimensionMismatch(
                f"superoperator matrix shape {mat.shape} != {(self.n_out**2, self.n_in**2)}"
            )
        object.__setattr__(self, "mat", mat)

    @property
    def is_endo(self):
        return self.n_in == self.n_out


def apply(T: Superoperator, A) -> np.ndarray:
    """Apply T to a matrix: unvec(T.mat @ vec(A))."""
    A = np.asarray(A)
    if A.shape != (T.n_in, T.n_in):
        raise DimensionMismatch(f"input shape {A.shape} != {(T.n_in, T.n_in)}")
    return unvec(T.mat @ vec(A), T.n_out)


def basis_image_array(mat) -> np.ndarray:
    """Basis images of a map matrix, or of each in a stack of them:
    IM[..., p, q, :, :] = T(E_pq), shape (..., n, n, m, m)."""
    k = mat.ndim - 2
    m, n = math.isqrt(mat.shape[-2]), math.isqrt(mat.shape[-1])
    # column q*n+p holds vec(T(E_pq)); peel both column-major indexings apart
    return mat.reshape(mat.shape[:-2] + (m, m, n, n)).transpose(*range(k), k + 3, k + 2, k + 1, k)


def image_scale(im) -> float:
    """Largest Frobenius norm among basis images (trailing two axes of im)."""
    return float(np.linalg.norm(im, axis=(-2, -1)).max(initial=0.0))


def from_basis_images(images, cfg: FieldConfig = DEFAULT) -> Superoperator:
    """Assemble a superoperator from the list of basis images, element
    q*n_in + p being T(E_pq) (column-major basis order); no arithmetic, so
    its :func:`basis_image_array` holds those images bit for bit.
    """
    count = len(images)
    n_in = int(round(count**0.5))
    if n_in * n_in != count:
        raise DimensionMismatch(f"image list length {count} is not a perfect square")
    shapes = {np.asarray(im).shape for im in images}
    if len(shapes) != 1:
        raise DimensionMismatch(f"basis images disagree on shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"basis images must be square, got {shape}")
    n_out = shape[0]
    mat = np.column_stack([vec(np.asarray(im)) for im in images])
    return Superoperator(n_in=n_in, n_out=n_out, mat=mat, cfg=cfg)


def identity_superop(n, cfg: FieldConfig = DEFAULT) -> Superoperator:
    return Superoperator(n_in=n, n_out=n, mat=np.eye(n * n, dtype=cfg.dtype), cfg=cfg)


def compose(T2: Superoperator, T1: Superoperator) -> Superoperator:
    """T2 after T1."""
    if T1.n_out != T2.n_in:
        raise DimensionMismatch(f"cannot compose: inner dims {T1.n_out} != {T2.n_in}")
    return Superoperator(n_in=T1.n_in, n_out=T2.n_out, mat=T2.mat @ T1.mat, cfg=T2.cfg)


def inverse(T: Superoperator) -> Superoperator:
    """Inverse superoperator; raises SingularMatrix when T is not a bijection."""
    if not T.is_endo:
        raise SingularMatrix(f"non-endomorphism {T.n_in} -> {T.n_out} has no inverse")
    inv, _cond = invert(T.mat, T.cfg)
    return Superoperator(n_in=T.n_out, n_out=T.n_in, mat=inv, cfg=T.cfg)


def _kron(A, B):
    """np.kron of the n x n matrices A and B, or of each pair in two stacks: its
    products, in its layout, which fixes their rounding, and its one temporary,
    freed before the result is returned."""
    n = A.shape[-1]
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(A.shape[:-2] + (n * n, n * n))


def conjugation_superop(alpha, S, cfg: FieldConfig = DEFAULT) -> Superoperator:
    """The map A -> alpha * S A S^{-1} as a superoperator.

    Requires S invertible at tolerance and |alpha| > tol_abs.
    """
    S = np.asarray(S)
    if S.ndim != 2:
        raise DimensionMismatch(f"S must be square, got {S.shape}")
    n = S.shape[0]
    return Superoperator(n_in=n, n_out=n, mat=conjugation_matrices(alpha, S, cfg), cfg=cfg)


def conjugation_matrices(alpha, S, cfg: FieldConfig = DEFAULT) -> np.ndarray:
    """The matrix of :func:`conjugation_superop`, or for a stack of alphas
    (shape s) and of S (shape s + (n, n)) the stack of the maps' matrices
    (shape s + (n^2, n^2)), each bit for bit its own map's matrix, refused as
    that map would be and, in a stack, admitted on its own."""
    S = np.asarray(S)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise DimensionMismatch(f"S must be square, got {S.shape}")
    stacked = S.ndim > 2
    S = cfg.asarray(S, stacked=stacked)
    alpha = np.asarray(alpha, dtype=cfg.dtype)
    small = np.abs(alpha) <= cfg.tol_abs
    if small.any():
        raise ValueError(f"alpha = {alpha.flat[np.argmax(small)]} is zero at tolerance")
    S_inv, _cond = invert(S, cfg)
    # vec(S A S^{-1}) = (S^{-T} kron S) vec(A) under column-major stacking
    mat = alpha[..., None, None] * _kron(S_inv.swapaxes(-1, -2), S)
    # one matrix is admitted by the Superoperator that conjugation_superop makes of it
    return cfg.asarray(mat, stacked=True) if stacked else mat
