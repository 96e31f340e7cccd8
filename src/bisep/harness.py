"""Seeded instance generators and perturbations.

Positive instances come with their ground truth attached; negative
instances are curated (transpose, point mixing, perturbation) rather
than random, because a generic linear map already fails the separating
property and exercises nothing specific.

A block map's points are drawn one seed each and then built as one stack:
the k maps (``superop.conjugation_matrices``), their gauged truths and each
point's residual against its truth.  Every stacked helper computes each
point bit for bit as a call on that point alone, so the maps, truths and
files are those of building one point at a time, and ``gen_conjugation``
is the one-point case of the same build.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import BisepError, DimensionMismatch
from .funcalg import BigSuperoperator, DiscreteSpace, PointwiseForm
from .linalg import frob, gaussian
from .structure import ConjugationForm, gauge_normalize, unit_deviations
from .superop import Superoperator, basis_image_array, conjugation_matrices, conjugation_superop

DEFAULT_COND_CAP = 100.0
DEFAULT_ALPHA_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class InstanceBundle:
    """A generated map together with its ground truth (when one exists)."""

    map: Superoperator | BigSuperoperator
    ground_truth: ConjugationForm | PointwiseForm | None = None


def _random_conditioned(rng, n, cond_cap, cfg):
    """Random invertible matrix with condition number at most cond_cap."""
    while True:
        S = gaussian(rng, (n, n), cfg)
        s = np.linalg.svd(S, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= cond_cap:
            return S


def _random_alpha(rng, alpha_range, cfg):
    lo, hi = alpha_range
    if not (0 < lo <= hi < np.inf):
        raise ValueError(f"alpha_range must satisfy 0 < lo <= hi, got {alpha_range}")
    mag = rng.uniform(lo, hi)
    if cfg.is_complex:
        return mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return float(mag * rng.choice([-1.0, 1.0]))


def _random_form(seed, n, alpha_range, cond_cap, cfg):
    """One point's (alpha, S), drawn from ``seed``: S first, then alpha."""
    rng = np.random.default_rng(seed)
    S = np.eye(n, dtype=cfg.dtype) if cond_cap == 1 else _random_conditioned(rng, n, cond_cap, cfg)
    return _random_alpha(rng, alpha_range, cfg), S


def _checked_truths(mats, alphas, Ss, cfg):
    """The gauged S of one point, or of every point of a stack, from the maps'
    matrices ``mats`` and their (alpha, S).  Raises BisepError unless each map
    is within 1e-10 of its truth, relative to its own largest basis image."""
    n = Ss.shape[-1]
    truths = np.stack([gauge_normalize(S, cfg) for S in Ss.reshape(-1, n, n)]).reshape(Ss.shape)
    im = basis_image_array(mats)
    # every scale is at least |alpha| > tol_abs: ||S e_i|| ||e_i^T S^{-1}|| >= 1
    scale = np.linalg.norm(im, axis=(-2, -1)).max(axis=(-2, -1))
    residual = unit_deviations(im, alphas, truths, cfg).max(axis=(-2, -1)) / scale
    if not (residual <= 1e-10).all():  # nan, from an overflow, fails too
        raise BisepError(
            f"generated conjugation map misses its ground truth: residual {residual.max():.3g}"
        )
    return truths


def gen_conjugation(
    n,
    seed,
    alpha_range=DEFAULT_ALPHA_RANGE,
    cond_cap=DEFAULT_COND_CAP,
    cfg: FieldConfig = DEFAULT,
) -> InstanceBundle:
    """Random scaled-similarity map with ground truth in gauge; the one-point
    case of :func:`gen_pointwise`'s build.

    S is rejection-resampled until its condition number is below cond_cap
    (cond_cap = 1 forces S = I)."""
    if n < 1 or not cond_cap >= 1:  # also refuses nan, which no S would meet
        raise ValueError("need n >= 1 and cond_cap >= 1")
    alpha, S = _random_form(seed, n, alpha_range, cond_cap, cfg)
    T = conjugation_superop(alpha, S, cfg)
    truth = ConjugationForm(alpha=alpha, S=_checked_truths(T.mat, np.array(alpha), S, cfg))
    return InstanceBundle(map=T, ground_truth=truth)


def _point_labels(k, prefix):
    return tuple(f"{prefix}{i + 1}" for i in range(k))


def gen_pointwise(k, n, seed, cfg: FieldConfig = DEFAULT) -> InstanceBundle:
    """Random permutation phi with an independent conjugation at every point.

    Each point's (alpha, S) is drawn from its own seed, in point order, as
    :func:`gen_conjugation` draws one; the k maps, their truths and their
    residuals are then built as one stack."""
    if k < 1 or n < 1:
        raise ValueError("need k, n >= 1")
    rng = np.random.default_rng(seed)
    space_in = DiscreteSpace(_point_labels(k, "x"))
    space_out = DiscreteSpace(_point_labels(k, "y"))
    perm = rng.permutation(k)  # phi(y_i) = x_{perm[i]}
    forms = [
        _random_form(s, n, DEFAULT_ALPHA_RANGE, DEFAULT_COND_CAP, cfg)
        for s in rng.integers(0, 2**63, size=k).tolist()
    ]
    alphas = [alpha for alpha, _ in forms]
    Ss = np.stack([S for _, S in forms])
    mats = conjugation_matrices(np.array(alphas), Ss, cfg)
    truths = _checked_truths(mats, np.array(alphas), Ss, cfg)
    blocks = np.zeros((k, k, n * n, n * n), dtype=cfg.dtype)
    blocks[np.arange(k), perm] = mats
    T = BigSuperoperator(
        space_in=space_in, space_out=space_out, n_in=n, n_out=n, blocks=blocks, cfg=cfg
    )
    labels_in = [space_in.labels[x1] for x1 in perm]
    truth = PointwiseForm(
        phi=dict(zip(space_out.labels, labels_in)),
        alphas=dict(zip(space_out.labels, alphas)),
        S=dict(zip(space_out.labels, truths)),
    )
    return InstanceBundle(map=T, ground_truth=truth)


def gen_transpose(n, cfg: FieldConfig = DEFAULT) -> Superoperator:
    """The transposition map A -> A^T; an anti-homomorphism, hence not
    separating for n >= 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    mat = np.zeros((n * n, n * n), dtype=cfg.dtype)
    for p in range(n):
        for q in range(n):
            mat[p * n + q, q * n + p] = 1
    return Superoperator(n_in=n, n_out=n, mat=mat, cfg=cfg)


def gen_point_mixing(k, n, seed, cfg: FieldConfig = DEFAULT) -> BigSuperoperator:
    """A block map whose first output point averages two input points,
    breaking strict separation (needs k >= 2)."""
    if k < 2:
        raise ValueError("point mixing needs k >= 2")
    base = gen_pointwise(k, n, seed, cfg).map
    blocks = base.blocks.copy()
    rng = np.random.default_rng(seed)
    donors = rng.choice(k, size=2, replace=False)
    mix_a, mix_b = int(donors[0]), int(donors[1])
    sub_a = gen_conjugation(n, seed=seed + 1, cfg=cfg).map.mat
    sub_b = gen_conjugation(n, seed=seed + 2, cfg=cfg).map.mat
    blocks[0, :, :, :] = 0
    blocks[0, mix_a] = 0.5 * sub_a
    blocks[0, mix_b] = 0.5 * sub_b
    return replace(base, blocks=blocks)


def perturb(map_, eps, seed):
    """Add eps times a seeded random direction of unit Frobenius norm.

    eps = 0 returns the map unchanged (same matrix bits)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return map_
    if isinstance(map_, Superoperator):
        attr = "mat"
    elif isinstance(map_, BigSuperoperator):
        attr = "blocks"
    else:
        raise DimensionMismatch(f"cannot perturb object of type {type(map_).__name__}")
    values = getattr(map_, attr)
    G = gaussian(np.random.default_rng(seed), values.shape, map_.cfg)
    G /= frob(G)
    return replace(map_, **{attr: values + eps * G})
