"""Verdict corpus: replays pinned outcomes of `check` and `decompose` logic.

``verdict_corpus.json`` holds generator recipes, never matrices.  Each recipe
is rebuilt with the package's seeded generators (``build``), decided and
recovered (``outcome``), and compared with the stored outcome: the check
status, direction and certificate, the decompose status or failing step, and
``phi``, ``alpha`` and ``S`` to 1e-12.  The cases cover near-boundary
perturbations (eps = 1e-14 ... 1e-3), explicitly built S with cond(S) up to
1e6, both fields, n = 1, non-endomorphisms and k_in != k_out.

A new case's expectation is ``outcome(build(recipe))`` at the commit that
adds it.  A disagreement is a behaviour change: explain it, do not rewrite
the stored outcome to match.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bisep import (
    BigSuperoperator,
    DiscreteSpace,
    FieldConfig,
    Superoperator,
    conjugation_superop,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    is_biseparating,
    is_biseparating_fn,
    perturb,
    recover_conjugation,
    recover_pointwise,
)
from bisep.errors import DimensionMismatch, RecoveryError
from bisep.instancefile import counterexample_to_json, form_to_json
from bisep.linalg import gaussian

CORPUS = json.loads((Path(__file__).resolve().parent / "verdict_corpus.json").read_text())
FORM_TOL = 1e-12


def _conditioned_S(n, cond, seed, cfg):
    """Q1 diag(1 ... 1/cond) Q2 with seeded unitary factors: cond(S) = cond."""
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(gaussian(rng, (n, n), cfg))
    Q2, _ = np.linalg.qr(gaussian(rng, (n, n), cfg))
    return Q1 @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ Q2


def _points(k, prefix):
    return DiscreteSpace(tuple(f"{prefix}{i + 1}" for i in range(k)))


def build(recipe):
    """The map a recipe describes."""
    cfg = FieldConfig(field=recipe["field"], tol_rel=recipe.get("tol_rel", 1e-9))
    kind, seed = recipe["map"], recipe.get("seed", 0)
    if kind == "conjugation":
        if "cond" in recipe:
            S = _conditioned_S(recipe["n"], recipe["cond"], seed, cfg)
            T = conjugation_superop(1.5, S, cfg)
        else:
            T = gen_conjugation(recipe["n"], seed, cfg=cfg).map
    elif kind == "transpose":
        T = gen_transpose(recipe["n"], cfg)
    elif kind == "embed":  # A -> V A W with W V = I: a homomorphism M_n_in -> M_n_out
        V = gaussian(np.random.default_rng(seed), (recipe["n_out"], recipe["n_in"]), cfg)
        W = np.linalg.pinv(V)
        T = Superoperator(recipe["n_in"], recipe["n_out"], np.kron(W.T, V), cfg)
    elif kind == "random":
        n_in, n_out = recipe["n_in"], recipe["n_out"]
        mat = gaussian(np.random.default_rng(seed), (n_out**2, n_in**2), cfg)
        T = Superoperator(n_in, n_out, mat, cfg)
    elif kind == "pointwise":
        k_in, k_out = recipe["k_in"], recipe["k_out"]
        base = gen_pointwise(max(k_in, k_out), recipe["n"], seed, cfg).map
        T = BigSuperoperator(
            space_in=_points(k_in, "x"), space_out=_points(k_out, "y"), n_in=recipe["n"],
            n_out=recipe["n"], blocks=base.blocks[:k_out, :k_in], cfg=cfg,
        )
    elif kind == "mixing":
        T = gen_point_mixing(recipe["k"], recipe["n"], seed, cfg)
    else:
        raise ValueError(f"unknown recipe map {kind!r}")
    return perturb(T, recipe["eps"], seed) if "eps" in recipe else T


def outcome(T):
    """What `check` and `decompose` decide about T, in JSON form."""
    field = T.cfg.field
    if isinstance(T, Superoperator):
        verdict, recover = is_biseparating(T), recover_conjugation
    else:
        verdict, recover = is_biseparating_fn(T), recover_pointwise
    out = {
        "check": verdict.status,
        "direction": verdict.direction,
        "certificate": None
        if verdict.counterexample is None
        else counterexample_to_json(verdict.counterexample, field),
    }
    try:
        form = recover(T)
    except RecoveryError as exc:
        out["decompose"] = exc.step
    except DimensionMismatch:
        out["decompose"] = "dimension_mismatch"
    else:
        out["decompose"] = "ok"
        out.update(form_to_json(form, field))
    return out


def _case_id(case):
    return ",".join(f"{k}={v}" for k, v in case["recipe"].items())


@pytest.mark.parametrize("case", CORPUS["cases"], ids=_case_id)
def test_corpus_case_replays(case):
    want = case["expect"]
    got = outcome(build(case["recipe"]))
    for key in ("check", "direction", "certificate", "decompose", "phi"):
        assert got.get(key) == want.get(key), key
    for key in ("alpha", "S"):
        assert (key in got) == (key in want), key
        if key in want:
            g, w = got[key], want[key]
            if isinstance(w, dict):  # pointwise: keyed by output label
                assert g.keys() == w.keys()
                g, w = [g[lab] for lab in w], [w[lab] for lab in w]
            np.testing.assert_allclose(np.array(g), np.array(w), rtol=0, atol=FORM_TOL)


def test_corpus_covers_the_boundaries():
    recipes = [case["recipe"] for case in CORPUS["cases"]]
    eps = {r["eps"] for r in recipes if "eps" in r}
    assert min(eps) <= 1e-14 and max(eps) >= 1e-3
    assert max(r.get("cond", 0) for r in recipes) >= 1e6
    assert any(r["field"] == "complex" for r in recipes)
    assert any(r.get("n") == 1 for r in recipes)
    assert any(r.get("n_in", 0) != r.get("n_out", 0) for r in recipes)
    assert any(r.get("k_in", 0) != r.get("k_out", 0) for r in recipes)
