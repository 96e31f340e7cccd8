"""Recovery of the scaled-similarity form T(A) = alpha * S A S^{-1}.

The reconstruction follows the rank-one image structure of such maps:
a map of this form sends u (x) f to (S u) (x) (Psi f) with
Psi = alpha * (S^{-1})^T, so the images of the matrix units E_i1 all
share one covector and their vector parts are the columns of S up to a
common scalar.  The recovery extracts those columns, reads alpha off
the image of the identity, and certifies the result by a full residual
over the matrix-unit basis.  Each failure mode names the step that
rejected the map.
"""

from dataclasses import dataclass

import numpy as np

from .config import FieldConfig
from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NotFactorizable,
    NotInvertibleS,
    NotRankOnePreserving,
    NotStandardForm,
    SingularMatrix,
    ZeroMatrix,
)
from .linalg import frob, invert, numeric_rank, outer, rank_one_factor
from .superop import Superoperator, basis_image_array, image_scale


@dataclass(frozen=True)
class ConjugationForm:
    """Certificate (alpha, S) for T(A) = alpha * S A S^{-1}.

    Gauge: ||S||_F = sqrt(n) and the first column-major entry of S with
    modulus above tol_abs is real positive.  alpha is gauge-free (the
    form is invariant under S -> c S).
    """

    alpha: complex | float
    S: np.ndarray


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


def unit_deviations(im, form: ConjugationForm, cfg: FieldConfig) -> np.ndarray:
    """||T(E_ij) - alpha S E_ij S^{-1}||_F for every matrix unit, from the basis images im."""
    S_inv, _ = invert(form.S, cfg)
    # model[i, j] = alpha * S E_ij S^{-1} = alpha * outer(S[:, i], S_inv[j, :])
    model = form.alpha * np.einsum("pi,jq->ijpq", form.S, S_inv)
    return np.linalg.norm(im - model, axis=(2, 3))


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


def recover_conjugation(T: Superoperator) -> ConjugationForm:
    """Reconstruct (alpha, S) from a map of the scaled-similarity form.

    Raises NotRankOnePreserving, NotFactorizable, NotInvertibleS or
    NotStandardForm naming the reconstruction step that failed.
    """
    cfg = T.cfg
    if not T.is_endo:
        raise DimensionMismatch(f"recovery needs n_in = n_out, got {T.n_in} -> {T.n_out}")
    n = T.n_in

    if n == 1:
        alpha = T.mat[0, 0]
        if abs(alpha) <= cfg.tol_abs:
            raise NotStandardForm("1x1 map is zero at tolerance; alpha must be nonzero")
        alpha = complex(alpha) if cfg.is_complex else float(alpha.real)
        return ConjugationForm(alpha=alpha, S=np.eye(1, dtype=cfg.dtype))

    if not check_rank_one_preserving(T):
        raise NotRankOnePreserving("a rank-one input maps to a non-rank-one image")

    im = basis_image_array(T.mat)
    try:
        first = rank_one_factor(im[0, 0], cfg)
    except (ZeroMatrix,) as exc:
        raise NotFactorizable(f"image of E_11 has no rank-one factor: {exc}") from exc
    f = first.f
    columns = [first.u]
    w = int(np.argmax(np.abs(f)))  # ties resolve to the lowest index via argmax
    for i in range(1, n):
        M_i = im[i, 0]
        s_i = M_i[:, w] / f[w]
        if frob(M_i - outer(s_i, f)) > cfg.threshold(frob(M_i)):
            raise NotFactorizable(
                f"image of E_{i + 1}1 does not share the covector of the E_11 image"
            )
        columns.append(s_i)
    S = np.column_stack(columns)

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
    alpha = complex(alpha) if cfg.is_complex else float(alpha.real)

    form = ConjugationForm(alpha=alpha, S=gauge_normalize(S, cfg))
    residual = verify_form(T, form)
    if residual > cfg.tol_rel:
        raise NotStandardForm(
            f"rank-one columns assemble, but the full-basis residual {residual:.3e} "
            f"exceeds tolerance",
            residual=residual,
        )
    return form


def psi_of(form: ConjugationForm, cfg: FieldConfig | None = None) -> PsiMap:
    """Covector companion Psi = alpha * (S^{-1})^T, so that
    T(u (x) f) = (S u) (x) (Psi f)."""
    cfg = cfg or FieldConfig()
    S_inv, _ = invert(np.asarray(form.S), cfg)
    return PsiMap(mat=form.alpha * S_inv.T)
