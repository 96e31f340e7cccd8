"""Recovery of the scaled-similarity form T(A) = alpha * S A S^{-1}.

The reconstruction follows the rank-one image structure of such maps:
a map of this form sends u (x) f to (S u) (x) (Psi f) with
Psi = alpha * (S^{-1})^T, so the images of the matrix units E_i1 all
share one covector and their vector parts are the columns of S up to a
common scalar.  The recovery extracts those columns, reads alpha off
the image of the identity, and certifies the result by a full residual
over the matrix-unit basis.  Each failure mode names the step that
rejected the map.  :func:`fit_conjugation` holds every step but the
rank-one test, for the recovery and for the biseparating decision alike.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import FieldConfig
from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NotFactorizable,
    NotInvertibleS,
    NotRankOne,
    NotRankOnePreserving,
    NotStandardForm,
    SingularMatrix,
    ZeroMatrix,
)
from .linalg import frob, invert, numeric_rank, rank_one_factor
from .superop import Superoperator, basis_image_array, image_scale


@dataclass(frozen=True)
class ConjugationForm:
    """Certificate (alpha, S) for T(A) = alpha * S A S^{-1}.

    Gauge: ||S||_F = sqrt(n) and the first column-major entry of S with
    modulus above tol_abs is real positive.  alpha is gauge-free (the
    form is invariant under S -> c S).  ``residual`` is :func:`verify_form`'s
    value, measured when the form was recovered (None for a given form).
    """

    alpha: complex | float
    S: np.ndarray
    residual: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class PsiMap:
    """Covector-side companion of S: satisfies S^T @ mat = alpha * I."""

    mat: np.ndarray


def gauge_normalize(S, cfg: FieldConfig):
    """Rescale S to the ConjugationForm gauge."""
    S = np.asarray(S)
    n = S.shape[0]
    norm = frob(S)
    if norm <= cfg.tol_abs:
        raise ZeroMatrix("cannot gauge-normalize a zero matrix")
    if n == 1:
        return np.eye(1, dtype=cfg.dtype)  # the gauge class of any nonzero scalar
    S = S * (np.sqrt(n) / norm)
    flat = S.reshape(-1, order="F")
    idx = np.flatnonzero(np.abs(flat) > cfg.tol_abs)
    if idx.size:
        lead = flat[idx[0]]
        S = S * (abs(lead) / lead)
    if not cfg.is_complex:
        S = S.real
    return S


def check_rank_one_preserving(T: Superoperator) -> bool:
    """True iff every matrix-unit image has numeric rank one.

    This names the step at which a map fails; it does not decide the form.
    Other rank-one inputs are not probed: a map that passes here but is not
    of the form fails a later step, at the latest ``verify_form``'s
    residual over the whole basis."""
    cfg = T.cfg
    im = basis_image_array(T.mat)
    # E_11 alone rejects most maps that fail, without the n^2 SVDs of the batch
    return numeric_rank(im[0, 0], cfg) == 1 and bool((numeric_rank(im, cfg) == 1).all())


def _deviations(im, alpha, S, S_inv):
    # model[i, j] = alpha * S E_ij S^{-1} = alpha * outer(S[:, i], S_inv[j, :])
    return np.linalg.norm(im - alpha * np.einsum("pi,jq->ijpq", S, S_inv), axis=(2, 3))


def unit_deviations(im, form: ConjugationForm, cfg: FieldConfig) -> np.ndarray:
    """||T(E_ij) - alpha S E_ij S^{-1}||_F for every matrix unit, from the basis images im."""
    S_inv, _ = invert(form.S, cfg)
    return _deviations(im, form.alpha, form.S, S_inv)


def verify_form(T: Superoperator, form: ConjugationForm) -> float:
    """Relative residual of the form against T over the matrix-unit basis:
    max_ij ||T(E_ij) - alpha S E_ij S^{-1}||_F / max_ij ||T(E_ij)||_F."""
    S = np.asarray(form.S)
    if S.shape != (T.n_in, T.n_in) or not T.is_endo:
        raise DimensionMismatch(f"form shape {S.shape} does not match map {T.n_in} -> {T.n_out}")
    im = basis_image_array(T.mat)
    scale = image_scale(im)
    if scale <= T.cfg.tol_abs:
        raise DegenerateMap("all basis images vanish; residual is undefined")
    return float(unit_deviations(im, form, T.cfg).max()) / scale


def fit_conjugation(T: Superoperator, im):
    """The form of an endomorphism T read off its basis images ``im``, with
    every step of :func:`recover_conjugation` but the rank-one test.

    Returns (form, S_inv, dev, M): S_inv the computed inverse of form.S,
    dev[i, j] = ||T(E_ij) - alpha S E_ij S^{-1}||_F, M the image scale, and
    form.residual = max(dev) / M, which is not compared with tol_rel here.
    Raises the RecoveryError of the step that fails; a T(E_11) of rank above
    one is NotRankOnePreserving.
    """
    cfg, n = T.cfg, T.n_in
    if n == 1:
        alpha = T.mat[0, 0]
        if abs(alpha) <= cfg.tol_abs:
            raise NotStandardForm("1x1 map is zero at tolerance; alpha must be nonzero")
        S = np.eye(1, dtype=cfg.dtype)
    else:
        try:
            first = rank_one_factor(im[0, 0], cfg)
        except ZeroMatrix as exc:
            raise NotFactorizable(f"image of E_11 has no rank-one factor: {exc}") from exc
        except NotRankOne as exc:
            raise NotRankOnePreserving(f"image of E_11 is not rank one: {exc}") from exc
        f = first.f
        w = int(np.argmax(np.abs(f)))  # ties resolve to the lowest index via argmax
        rest = im[1:, 0]  # T(E_i1) for i >= 1; its column w over f[w] is column i of S
        cols = rest[:, :, w] / f[w]
        misfit = np.linalg.norm(rest - cols[:, :, None] * f, axis=(1, 2))
        bad = np.flatnonzero(misfit > cfg.tol_abs + cfg.tol_rel * np.linalg.norm(rest, axis=(1, 2)))
        if bad.size:
            raise NotFactorizable(
                f"image of E_{bad[0] + 2}1 does not share the covector of the E_11 image"
            )
        S = np.column_stack((first.u, *cols))
        try:
            invert(S, cfg)
        except SingularMatrix as exc:
            raise NotInvertibleS(f"recovered column matrix is singular: {exc}") from exc

        T_id = im[np.arange(n), np.arange(n)].sum(axis=0)  # T(I)
        alpha = np.trace(T_id) / n
        if frob(T_id - alpha * np.eye(n)) > cfg.threshold(frob(T_id)):
            raise NotStandardForm("image of the identity is not a scalar matrix")
        if abs(alpha) <= cfg.tol_abs:
            raise NotStandardForm("scalar alpha vanishes at tolerance")
        S = gauge_normalize(S, cfg)
    alpha = complex(alpha) if cfg.is_complex else float(alpha.real)

    S_inv, _ = invert(S, cfg)
    M = image_scale(im)
    dev = _deviations(im, alpha, S, S_inv)
    return ConjugationForm(alpha=alpha, S=S, residual=float(dev.max()) / M), S_inv, dev, M


def recover_conjugation(T: Superoperator) -> ConjugationForm:
    """Reconstruct (alpha, S) from a map of the scaled-similarity form; the
    returned form carries its residual.

    Raises NotRankOnePreserving, NotFactorizable, NotInvertibleS or
    NotStandardForm naming the reconstruction step that failed.
    """
    if not T.is_endo:
        raise DimensionMismatch(f"recovery needs n_in = n_out, got {T.n_in} -> {T.n_out}")
    if T.n_in > 1 and not check_rank_one_preserving(T):
        raise NotRankOnePreserving("a rank-one input maps to a non-rank-one image")
    form = fit_conjugation(T, basis_image_array(T.mat))[0]
    if form.residual > T.cfg.tol_rel:
        raise NotStandardForm(
            f"rank-one columns assemble, but the full-basis residual {form.residual:.3e} "
            f"exceeds tolerance",
            residual=form.residual,
        )
    return form


def psi_of(form: ConjugationForm, cfg: FieldConfig | None = None) -> PsiMap:
    """Covector companion Psi = alpha * (S^{-1})^T, so that
    T(u (x) f) = (S u) (x) (Psi f)."""
    cfg = cfg or FieldConfig()
    S_inv, _ = invert(np.asarray(form.S), cfg)
    return PsiMap(mat=form.alpha * S_inv.T)
