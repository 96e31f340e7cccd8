"""Seeded instance generators and perturbations.

Positive instances come with their ground truth attached; negative
instances are curated (transpose, point mixing, perturbation) rather
than random, because a generic linear map already fails the separating
property and exercises nothing specific.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import BisepError, DimensionMismatch
from .funcalg import BigSuperoperator, DiscreteSpace, PointwiseForm, verify_pointwise
from .linalg import frob, gaussian
from .structure import ConjugationForm, gauge_normalize, verify_form
from .superop import Superoperator, conjugation_superop

DEFAULT_COND_CAP = 100.0
DEFAULT_ALPHA_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class InstanceBundle:
    """A generated map together with its ground truth (when one exists)."""

    description: str
    map: Superoperator | BigSuperoperator
    seed: int
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


def gen_conjugation(
    n,
    seed,
    alpha_range=DEFAULT_ALPHA_RANGE,
    cond_cap=DEFAULT_COND_CAP,
    cfg: FieldConfig = DEFAULT,
) -> InstanceBundle:
    """Random scaled-similarity map with ground truth in gauge.

    S is rejection-resampled until its condition number is below cond_cap
    (cond_cap = 1 forces S = I)."""
    if n < 1 or not cond_cap >= 1:  # also refuses nan, which no S would meet
        raise ValueError("need n >= 1 and cond_cap >= 1")
    rng = np.random.default_rng(seed)
    if cond_cap == 1:
        S = np.eye(n, dtype=cfg.dtype)
    else:
        S = _random_conditioned(rng, n, cond_cap, cfg)
    alpha = _random_alpha(rng, alpha_range, cfg)
    T = conjugation_superop(alpha, S, cfg)
    truth = ConjugationForm(alpha=alpha, S=gauge_normalize(S, cfg))
    residual = verify_form(T, truth)
    if not residual <= 1e-10:  # nan, from an overflow, fails too
        raise BisepError(
            f"generated conjugation map misses its ground truth: residual {residual:.3g}"
        )
    return InstanceBundle(
        description=f"conjugation n={n} seed={seed}", map=T, seed=seed, ground_truth=truth
    )


def _point_labels(k, prefix):
    return tuple(f"{prefix}{i + 1}" for i in range(k))


def gen_pointwise(k, n, seed, cfg: FieldConfig = DEFAULT) -> InstanceBundle:
    """Random permutation phi with an independent conjugation at every point."""
    if k < 1 or n < 1:
        raise ValueError("need k, n >= 1")
    rng = np.random.default_rng(seed)
    space_in = DiscreteSpace(_point_labels(k, "x"))
    space_out = DiscreteSpace(_point_labels(k, "y"))
    perm = rng.permutation(k)  # phi(y_i) = x_{perm[i]}
    blocks = np.zeros((k, k, n * n, n * n), dtype=cfg.dtype)
    phi, alphas, Ss = {}, {}, {}
    for x2 in range(k):
        sub = gen_conjugation(n, seed=int(rng.integers(0, 2**63)), cfg=cfg)
        x1 = int(perm[x2])
        blocks[x2, x1] = sub.map.mat
        label2 = space_out.labels[x2]
        phi[label2] = space_in.labels[x1]
        alphas[label2] = sub.ground_truth.alpha
        Ss[label2] = sub.ground_truth.S
    T = BigSuperoperator(
        space_in=space_in, space_out=space_out, n_in=n, n_out=n, blocks=blocks, cfg=cfg
    )
    truth = PointwiseForm(phi=phi, alphas=alphas, S=Ss)
    residual = verify_pointwise(T, truth)
    if not residual <= 1e-10:
        raise BisepError(
            f"generated pointwise map misses its ground truth: residual {residual:.3g}"
        )
    return InstanceBundle(
        description=f"pointwise k={k} n={n} seed={seed}", map=T, seed=seed, ground_truth=truth
    )


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
    return BigSuperoperator(
        space_in=base.space_in,
        space_out=base.space_out,
        n_in=n,
        n_out=n,
        blocks=blocks,
        cfg=cfg,
    )


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
