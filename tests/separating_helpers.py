"""Test helpers over the separating module's internals: the scalar-identity
test on one n x n matrix and seeded zero-product pairs."""

import numpy as np

from bisep import FieldConfig, separating


def scalar_identity_test(M, cfg: FieldConfig, scale: float):
    """Decide whether M is a scalar multiple of the identity at tolerance.

    Returns (is_scalar, c) with c the mean of the diagonal.  Off-diagonal
    entries and pairwise diagonal differences are compared against
    ``tol_abs + tol_rel * scale``, with the exact checker's masks.
    """
    M = np.asarray(M)
    return not separating._scalar_violations(M, cfg.threshold(scale)).size, np.diagonal(M).mean()


def random_zero_product_pair(n, rank_a, rank_b, seed, cfg: FieldConfig | None = None):
    """Seeded random pair (A, B) with A @ B = 0 to machine precision and the
    requested numeric ranks, drawn as the sampled checker draws its pairs."""
    cfg = cfg or FieldConfig()
    rng = np.random.default_rng(seed)
    A, B = separating._standard_pairs(n, rng, rank_a, rank_b, 1, cfg)
    return A[0], B[0]
