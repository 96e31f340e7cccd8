"""Recovery of the scaled-similarity form T(A) = alpha * S A S^{-1}.

The reconstruction follows the rank-one image structure of such maps:
a map of this form sends u (x) f to (S u) (x) (Psi f) with
Psi = alpha * (S^{-1})^T, so the images of the matrix units E_i1 all
share one covector and their vector parts are the columns of S up to a
common scalar.  The recovery reads that covector off one SVD of T(E_11),
extracts the columns, gauges S and inverts it once, reads alpha off the
image of the identity, and certifies the result by a full residual over
the matrix-unit basis.  That residual within tol_rel is the only
certificate of a form; each earlier step only names where a map that
fails stopped.  :func:`fit_conjugation` holds every step, for the
recovery, for the biseparating decision and, one block at a time, for the
pointwise recovery, which judges no block by this residual: the pointwise
form's own residual, at the map's scale, is its one test.
"""

from dataclasses import dataclass, field

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
from .linalg import _rank, frob, invert
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


def _deviations(im, alpha, S, S_inv):
    # model[..., i, j] = alpha * S E_ij S^{-1} = alpha * outer(S[..., :, i], S_inv[..., j, :]).
    # One point's alpha stays 0-d: as a (1, 1, 1, 1) array it cost gen_conjugation
    # about 100 page faults per call at n = 12..14
    alpha = np.asarray(alpha)
    model = (alpha[..., None, None, None, None] if alpha.ndim else alpha) * np.einsum(
        "...pi,...jq->...ijpq", S, S_inv
    )
    return np.linalg.norm(np.subtract(im, model, out=model), axis=(-2, -1))


def unit_deviations(im, alpha, S, cfg: FieldConfig) -> np.ndarray:
    """||T(E_ij) - alpha S E_ij S^{-1}||_F for every matrix unit, from the basis
    images im.  Over stacks of images, alphas and S (leading axes), the stack of
    the points' arrays, each bit for bit a call on that point alone."""
    S_inv, _ = invert(S, cfg)
    return _deviations(im, alpha, S, S_inv)


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
    return float(unit_deviations(im, form.alpha, S, T.cfg).max()) / scale


def fit_conjugation(im, cfg: FieldConfig):
    """The form of an endomorphism T of M_n read off its basis images
    ``im[i, j] = T(E_ij)``, shape (n, n, n, n): the steps of
    :func:`recover_conjugation` up to its residual.

    T(E_11) = u (x) f is factored by one SVD and the rank rule, with f gauged
    to unit norm and a real-positive leading entry; column i of S is T(E_i1)
    read along f.  S is gauged, then inverted once: a gauged S that is zero
    at tolerance, or that the rank rule or the admission of its inverse
    refuses, is NotInvertibleS.

    Returns (form, S_inv, dev, M): S_inv the computed inverse of form.S,
    dev[i, j] = ||T(E_ij) - alpha S E_ij S^{-1}||_F, M the image scale, and
    form.residual = max(dev) / M, which is not compared with tol_rel here.
    Raises the RecoveryError of the step that fails; a T(E_11) of rank above
    one is NotRankOnePreserving.
    """
    n = im.shape[0]
    if n == 1:
        alpha = im[0, 0, 0, 0]
        if abs(alpha) <= cfg.tol_abs:
            raise NotStandardForm("1x1 map is zero at tolerance; alpha must be nonzero")
        S = np.eye(1, dtype=cfg.dtype)
    else:
        U, s, Vh = np.linalg.svd(im[0, 0])
        rank = _rank(s, cfg)
        if rank == 0:
            raise NotFactorizable("image of E_11 has no rank-one factor: matrix is zero at "
                                  "tolerance; no rank-one factor exists")
        if rank > 1:
            raise NotRankOnePreserving(f"image of E_11 is not rank one: second singular value "
                                       f"{s[1]:.3e} exceeds tol * sigma_1 = {cfg.tol_rel * s[0]:.3e}")
        # T(E_11) ~= outer(u, f): the Vh row is already the bilinear covector
        norm = np.linalg.norm(Vh[0])
        u, f = s[0] * U[:, 0] * norm, Vh[0] / norm
        idx = np.flatnonzero(np.abs(f) > cfg.tol_abs)
        if idx.size:
            phase = f[idx[0]] / abs(f[idx[0]])
            u, f = u * phase, f / phase
        w = int(np.argmax(np.abs(f)))  # ties resolve to the lowest index via argmax
        rest = im[1:, 0]  # T(E_i1) for i >= 1; its column w over f[w] is column i of S
        cols = rest[:, :, w] / f[w]
        misfit = np.linalg.norm(rest - cols[:, :, None] * f, axis=(1, 2))
        bad = np.flatnonzero(misfit > cfg.tol_abs + cfg.tol_rel * np.linalg.norm(rest, axis=(1, 2)))
        if bad.size:
            raise NotFactorizable(
                f"image of E_{bad[0] + 2}1 does not share the covector of the E_11 image"
            )
        S = np.column_stack((u, *cols))
    try:
        S = gauge_normalize(S, cfg)
        S_inv, _ = invert(S, cfg)
    except (ZeroMatrix, SingularMatrix) as exc:
        raise NotInvertibleS(f"recovered column matrix is singular: {exc}") from exc
    if n > 1:
        T_id = im[np.arange(n), np.arange(n)].sum(axis=0)  # T(I)
        alpha = np.trace(T_id) / n
        if frob(T_id - alpha * np.eye(n)) > cfg.threshold(frob(T_id)):
            raise NotStandardForm("image of the identity is not a scalar matrix")
        if abs(alpha) <= cfg.tol_abs:
            raise NotStandardForm("scalar alpha vanishes at tolerance")
    alpha = complex(alpha) if cfg.is_complex else float(alpha.real)

    M = image_scale(im)
    dev = _deviations(im, alpha, S, S_inv)
    return ConjugationForm(alpha=alpha, S=S, residual=float(dev.max()) / M), S_inv, dev, M


def recover_conjugation(T: Superoperator) -> ConjugationForm:
    """Reconstruct (alpha, S) from a map of the scaled-similarity form: the
    form of :func:`fit_conjugation` when its residual is within tol_rel.  The
    returned form carries its residual.

    Raises NotRankOnePreserving (T(E_11) is not rank one), NotFactorizable,
    NotInvertibleS or NotStandardForm naming the reconstruction step that
    failed; a residual above tol_rel is NotStandardForm.
    """
    if not T.is_endo:
        raise DimensionMismatch(f"recovery needs n_in = n_out, got {T.n_in} -> {T.n_out}")
    form = fit_conjugation(basis_image_array(T.mat), T.cfg)[0]
    if form.residual > T.cfg.tol_rel:
        raise NotStandardForm(
            f"rank-one columns assemble, but the full-basis residual {form.residual:.3e} "
            f"exceeds tolerance",
            residual=form.residual,
        )
    return form
