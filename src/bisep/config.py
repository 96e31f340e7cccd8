"""Scalar-field configuration and the shared tolerance policy.

Two rules decide what is zero.  A quantity x at context scale s is zero
iff ``|x| <= tol_abs + tol_rel * s`` (:meth:`FieldConfig.threshold`).  The
numeric rank of a matrix (``linalg.numeric_rank``, also behind inversion,
kernels and the rank-one image of E_11 that ``structure.fit_conjugation``
factors) counts its singular values above ``tol_rel * sigma_1``, and is 0
when ``sigma_1 <= tol_abs``; so ``invert`` counts a matrix with condition
number >= 1/tol_rel as singular.  The biseparating decision
(``separating.biseparating``) overrules that for a map of either kind whose
form is recovered, a conjugation form or a pointwise form: the form shows
the map is invertible whatever its condition number.
Functions that take a map read both tolerances from the map's ``cfg``.

:meth:`FieldConfig.asarray`, through which every map and matrix enters, admits
an array only if its entries are finite and twice its squared Frobenius norm
is a finite double.  An entry of a product of two basis images, and the
difference of two diagonal ones, is at most that much, so no threshold or
violation the checkers compute can overflow.
"""

from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True)
class FieldConfig:
    """Scalar field plus the relative/absolute tolerance pair."""

    field: str = REAL
    tol_rel: float = 1e-9
    tol_abs: float = 1e-12

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {self.field!r}")
        if not (self.tol_rel > 0 and self.tol_abs > 0):
            raise ValueError("tolerances must be positive")

    @property
    def dtype(self):
        return np.complex128 if self.field == COMPLEX else np.float64

    @property
    def is_complex(self):
        return self.field == COMPLEX

    def threshold(self, scale):
        """Zero-threshold at the given context scale."""
        return self.tol_abs + self.tol_rel * float(scale)

    def asarray(self, a, stacked=False):
        """Coerce to a dense array of the configured dtype, rejecting non-finite
        entries and arrays too large to multiply (see the module docstring).
        With ``stacked``, ``a`` is a stack of matrices (last two axes) and each
        is admitted on its own, as one call per matrix would admit it."""
        out = np.asarray(a, dtype=self.dtype)
        if not np.isfinite(out).all():
            raise ValueError("non-finite entries are not admitted")
        # vdot and einsum overflow to inf or nan without a warning, and both fail the test
        if stacked:  # the largest of the matrices' squared norms, nan if any is nan
            squares = np.einsum("...ij,...ij->...", out.conj(), out).real.max(initial=0.0)
        else:
            squares = np.vdot(out, out).real
        if not squares <= np.finfo(np.float64).max / 2:
            raise ValueError("entries too large: twice the squared Frobenius norm overflows a double")
        return out


DEFAULT = FieldConfig()
