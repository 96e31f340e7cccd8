"""One-point-at-a-time references for the stacked block-map builds.

``harness.gen_pointwise`` draws every point's (alpha, S) and then builds the
k maps, truths and residuals as one stack; ``funcalg.verify_pointwise``
measures all k phi-blocks in one pass.  The functions here do the same work
one point at a time, with the formulas written out as the generators and the
residual used them before they were stacked: the map as a Python-scalar alpha
times ``np.kron(S^{-T}, S)``, the gauge and the deviations on one matrix.
They call no package helper that the stacked builds use for those values, so
a change to a helper cannot move the generated maps unseen.  The tests
compare the two bit for bit.
"""

import numpy as np

from bisep import BigSuperoperator, DiscreteSpace, PointwiseForm, Superoperator
from bisep.errors import DegenerateMap, ZeroMatrix
from bisep.harness import DEFAULT_ALPHA_RANGE, DEFAULT_COND_CAP
from bisep.linalg import gaussian, invert
from bisep.superop import basis_image_array, image_scale


def _inverse(S, cfg):
    invert(S, cfg)  # refuses S by the package's rank rule and admission
    return np.linalg.solve(S, np.eye(S.shape[0], dtype=S.dtype))


def _conjugation(alpha, S, cfg):
    n = S.shape[0]
    mat = (complex(alpha) if cfg.is_complex else float(alpha)) * np.kron(_inverse(S, cfg).T, S)
    return Superoperator(n_in=n, n_out=n, mat=mat, cfg=cfg)


def _gauge(S, cfg):
    n = S.shape[0]
    norm = float(np.linalg.norm(S))
    if norm <= cfg.tol_abs:
        raise ZeroMatrix("cannot gauge-normalize a zero matrix")
    if n == 1:
        return np.eye(1, dtype=cfg.dtype)
    S = S * (np.sqrt(n) / norm)
    flat = S.reshape(-1, order="F")
    idx = np.flatnonzero(np.abs(flat) > cfg.tol_abs)
    if idx.size:
        lead = flat[idx[0]]
        S = S * (abs(lead) / lead)
    return S if cfg.is_complex else S.real


def _deviations(im, alpha, S, cfg):
    return np.linalg.norm(im - alpha * np.einsum("pi,jq->ijpq", S, _inverse(S, cfg)), axis=(2, 3))


def reference_conjugation(n, seed, cfg, alpha_range=DEFAULT_ALPHA_RANGE, cond_cap=DEFAULT_COND_CAP):
    """(T, alpha, gauged S) of ``gen_conjugation(n, seed, alpha_range, cond_cap, cfg)``:
    S rejection-sampled under cond_cap, then alpha, from one generator."""
    rng = np.random.default_rng(seed)
    if cond_cap == 1:
        S = np.eye(n, dtype=cfg.dtype)
    else:
        while True:
            S = gaussian(rng, (n, n), cfg)
            s = np.linalg.svd(S, compute_uv=False)
            if s[-1] > 0 and s[0] / s[-1] <= cond_cap:
                break
    lo, hi = alpha_range
    mag = rng.uniform(lo, hi)
    if cfg.is_complex:
        alpha = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    else:
        alpha = float(mag * rng.choice([-1.0, 1.0]))
    return _conjugation(alpha, S, cfg), alpha, _gauge(S, cfg)


def reference_pointwise(k, n, seed, cfg):
    """(map, truth) of ``gen_pointwise(k, n, seed, cfg)``, one point at a time."""
    rng = np.random.default_rng(seed)
    space_in = DiscreteSpace(tuple(f"x{i + 1}" for i in range(k)))
    space_out = DiscreteSpace(tuple(f"y{i + 1}" for i in range(k)))
    perm = rng.permutation(k)
    blocks = np.zeros((k, k, n * n, n * n), dtype=cfg.dtype)
    phi, alphas, Ss = {}, {}, {}
    for x2, label2 in enumerate(space_out.labels):
        T, alpha, S = reference_conjugation(n, int(rng.integers(0, 2**63)), cfg)
        blocks[x2, perm[x2]] = T.mat
        phi[label2] = space_in.labels[perm[x2]]
        alphas[label2] = alpha
        Ss[label2] = S
    T = BigSuperoperator(space_in=space_in, space_out=space_out, n_in=n, n_out=n, blocks=blocks, cfg=cfg)
    return T, PointwiseForm(phi=phi, alphas=alphas, S=Ss)


def reference_point_mixing(k, n, seed, cfg):
    """The blocks of ``gen_point_mixing(k, n, seed, cfg)``, one point at a time."""
    blocks = reference_pointwise(k, n, seed, cfg)[0].blocks.copy()
    mix_a, mix_b = np.random.default_rng(seed).choice(k, size=2, replace=False)
    blocks[0] = 0
    blocks[0, mix_a] = 0.5 * reference_conjugation(n, seed + 1, cfg)[0].mat
    blocks[0, mix_b] = 0.5 * reference_conjugation(n, seed + 2, cfg)[0].mat
    return blocks


def reference_verify_pointwise(T, form):
    """``verify_pointwise(T, form)`` as a loop over the output points."""
    imgs = basis_image_array(T.blocks)
    img_scale = image_scale(imgs)
    if img_scale <= T.cfg.tol_abs:
        raise DegenerateMap("all blocks vanish; residual is undefined")
    mass = np.linalg.norm(T.blocks, axis=(2, 3))
    worst = 0.0
    off_mass = 0.0
    for x2, label2 in enumerate(T.space_out.labels):
        x1 = T.space_in.index(form.phi[label2])
        dev = _deviations(imgs[x2, x1], form.alphas[label2], np.asarray(form.S[label2]), T.cfg).max()
        worst = max(worst, float(dev))
        others = np.delete(mass[x2], x1)
        if others.size:
            off_mass = max(off_mass, float(others.max()))
    return max(worst / img_scale, off_mass / float(mass.max()))
