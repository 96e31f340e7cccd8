"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; every criterion carries its stated tolerance and scale.
"""

import json
import time

import numpy as np
import pytest

from bisep import (
    FieldConfig,
    Superoperator,
    MatrixFunction,
    DiscreteSpace,
    ai_membership,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    inverse_fn,
    is_biseparating,
    is_separating_exact,
    is_separating_fn,
    is_separating_sampled,
    is_strictly_separating,
    perturb,
    recover_conjugation,
    recover_pointwise,
    verify_form,
)
from bisep.errors import RecoveryError
from bisep.linalg import kernel_basis, numeric_rank
from bisep.superop import apply, basis_image_array, image_scale

CFG = FieldConfig()


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_conjugation_round_trip():
    t0 = time.perf_counter()
    worst_alpha = worst_s = worst_resid = 0.0
    for n in range(1, 9):
        for seed in range(25):
            bundle = gen_conjugation(n, seed=seed)
            form = recover_conjugation(bundle.map)
            truth = bundle.ground_truth
            worst_alpha = max(worst_alpha, abs(form.alpha - truth.alpha) / abs(truth.alpha))
            worst_s = max(worst_s, float(np.linalg.norm(form.S - truth.S)))
            worst_resid = max(worst_resid, verify_form(bundle.map, form))
    elapsed = time.perf_counter() - t0
    ok = worst_alpha <= 1e-8 and worst_s <= 1e-8 and worst_resid <= 1e-8 and elapsed <= 30
    report(
        1,
        ok,
        f"200 round trips n=1..8: alpha err {worst_alpha:.2e}, S err {worst_s:.2e}, "
        f"residual {worst_resid:.2e}, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_separating_checker_soundness():
    t0 = time.perf_counter()
    all_separating = True
    for t in range(200):
        n = 1 + (t % 6)
        verdict = is_separating_exact(gen_conjugation(n, seed=t).map)
        all_separating = all_separating and verdict.status == "separating"
    transpose_ok = True
    for n in range(2, 7):
        T = gen_transpose(n)
        verdict = is_separating_exact(T)
        ce = verdict.counterexample
        scale = image_scale(basis_image_array(T.mat)) ** 2
        good = (
            verdict.status == "not_separating"
            and np.linalg.norm(ce.A @ ce.B)
            <= 1e-13 * np.linalg.norm(ce.A) * np.linalg.norm(ce.B)
            and np.linalg.norm(apply(T, ce.A) @ apply(T, ce.B)) > 1e-6 * scale
        )
        transpose_ok = transpose_ok and good
    elapsed = time.perf_counter() - t0
    ok = all_separating and transpose_ok and elapsed <= 20
    report(
        2,
        ok,
        f"200 conjugations separating: {all_separating}; transpose n=2..6 self-verified "
        f"counterexamples: {transpose_ok}; {elapsed:.1f}s (limit 20s)",
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    disagreements = 0
    # 200 random superoperators at the stated 1e4 trials
    for t in range(200):
        n = 2 if t < 100 else 3
        T = Superoperator(n_in=n, n_out=n, mat=rng.standard_normal((n * n, n * n)))
        exact = is_separating_exact(T).status
        sampled = is_separating_sampled(T, 10_000, seed=t).status
        disagreements += exact != sampled
    # structured maps so both statuses are exercised, n=2 at 1e5 pairs
    for t in range(200):
        kind = t % 4
        if kind == 0:
            T = gen_conjugation(2, seed=t).map
        elif kind == 1:
            T = gen_transpose(2)
        elif kind == 2:
            T = perturb(gen_conjugation(2, seed=t).map, 1e-3, seed=t)
        else:
            T = Superoperator(n_in=2, n_out=2, mat=rng.standard_normal((4, 4)))
        exact = is_separating_exact(T).status
        sampled = is_separating_sampled(T, 100_000, seed=t).status
        disagreements += exact != sampled
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed <= 60
    report(
        3,
        ok,
        f"400 maps (200 random @ 1e4 trials, 200 structured @ 1e5): "
        f"{disagreements} disagreements; {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_4_biseparating_implies_standard_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    passing = rejected = 0
    for t in range(500):
        n = 1 + (t % 4)
        kind = t % 5
        if kind == 0:
            T = gen_conjugation(n, seed=t).map
        elif kind == 1:
            T = perturb(gen_conjugation(n, seed=t).map, 1e-3, seed=t)
        elif kind == 2:
            T = perturb(gen_conjugation(n, seed=t).map, 1e-12, seed=t)
        elif kind == 3:
            T = gen_transpose(max(n, 2))
        else:
            T = Superoperator(n_in=n, n_out=n, mat=rng.standard_normal((n * n, n * n)))
        if is_biseparating(T).status != "biseparating":
            continue
        passing += 1
        try:
            form = recover_conjugation(T)
            if verify_form(T, form) > 1e-8:
                rejected += 1
        except RecoveryError:
            rejected += 1
    elapsed = time.perf_counter() - t0
    ok = rejected == 0 and passing >= 100
    report(
        4,
        ok,
        f"500 candidates n<=4: {passing} passed the biseparating check, "
        f"{rejected} rejected by recovery (must be 0); {elapsed:.1f}s",
    )


def test_criterion_5_pointwise_round_trip():
    t0 = time.perf_counter()
    worst_alpha = worst_s = 0.0
    phi_exact = scalar_shape_ok = True
    for k in range(1, 6):
        for n in range(1, 4):
            for seed in range(10):
                bundle = gen_pointwise(k, n, seed=seed)
                form = recover_pointwise(bundle.map)
                truth = bundle.ground_truth
                phi_exact = phi_exact and form.phi == truth.phi
                for lab in form.phi:
                    worst_alpha = max(
                        worst_alpha,
                        abs(form.alphas[lab] - truth.alphas[lab]) / abs(truth.alphas[lab]),
                    )
                    worst_s = max(
                        worst_s, float(np.linalg.norm(form.S[lab] - truth.S[lab]))
                    )
                    if n == 1:
                        scalar_shape_ok = (
                            scalar_shape_ok
                            and np.array_equal(form.S[lab], np.eye(1))
                            and abs(form.alphas[lab]) > 0
                        )
    elapsed = time.perf_counter() - t0
    ok = (
        phi_exact
        and worst_alpha <= 1e-8
        and worst_s <= 1e-8
        and scalar_shape_ok
        and elapsed <= 60
    )
    report(
        5,
        ok,
        f"150 pointwise round trips (k<=5, n<=3): phi exact {phi_exact}, alpha err "
        f"{worst_alpha:.2e}, S err {worst_s:.2e}, scalar fibers canonical "
        f"{scalar_shape_ok}; {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_6_bridge_property():
    t0 = time.perf_counter()
    exceptions = recovery_failures = 0
    count = 0
    for seed in range(34):
        for (k, n) in ((2, 2), (3, 2), (4, 3)):
            count += 1
            if count > 100:
                break
            T = gen_pointwise(k, n, seed=seed).map
            algebraic = bool(is_separating_fn(T))
            try:
                inv = inverse_fn(T)
                algebraic = algebraic and bool(is_separating_fn(inv))
            except Exception:
                algebraic = False
            if algebraic and not is_strictly_separating(T):
                exceptions += 1
            if algebraic:
                # passers must also admit the pointwise form
                try:
                    recover_pointwise(T)
                except RecoveryError:
                    recovery_failures += 1
    mixing_ok = True
    for seed in range(10):
        for k in (2, 3, 4):
            verdict = is_strictly_separating(gen_point_mixing(k, 2, seed=seed))
            mixing_ok = mixing_ok and (
                verdict.status == "not_separating" and verdict.counterexample is not None
            )
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and recovery_failures == 0 and mixing_ok
    report(
        6,
        ok,
        f"100 biseparating instances: {exceptions} bridge exceptions, "
        f"{recovery_failures} recovery failures (both must be 0); "
        f"30 mixing instances all flagged with witnesses: {mixing_ok}; {elapsed:.1f}s",
    )


def _sample_left_annihilators(rng, H_val, count):
    n = H_val.shape[0]
    r = numeric_rank(H_val, CFG)
    if r == n:
        return np.zeros((count, n, n))
    if r == 0:
        return rng.standard_normal((count, n, n))
    K = np.array(kernel_basis(H_val.T, CFG)).T
    C = rng.standard_normal((count, n, K.shape[1]))
    return C @ K.T


def test_criterion_7_ai_characterization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    space = DiscreteSpace(("x1", "x2"))
    disagreements = members = non_members = 0

    def random_value(kind, x):
        if kind == "invertible":
            return rng.standard_normal((2, 2)) + 2 * np.eye(2)
        if kind == "zero":
            return np.zeros((2, 2))
        u = rng.standard_normal(2)
        return np.outer(u, rng.standard_normal(2))

    member_kinds = [("invertible", "invertible"), ("zero", "invertible"), ("zero", "zero")]
    bad_kinds = [("singular", "invertible"), ("singular", "zero"), ("singular", "singular")]
    cases = [member_kinds[i % 3] for i in range(51)] + [bad_kinds[i % 3] for i in range(51)]
    for kinds in cases:
        H = MatrixFunction(
            space=space, values=np.array([random_value(kinds[x], x) for x in range(2)])
        )
        is_member_brute = True
        for x in range(2):
            Gs = _sample_left_annihilators(rng, H.values[x], 10_000)
            prods = H.values[x] @ Gs
            if np.abs(prods).max(initial=0.0) > 1e-9 * max(np.abs(H.values[x]).max(), 1.0):
                is_member_brute = False
        if is_member_brute:
            members += 1
        else:
            non_members += 1
        disagreements += is_member_brute != ai_membership(H)
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and members >= 50 and non_members >= 50
    report(
        7,
        ok,
        f"{members} members / {non_members} non-members, 1e4 annihilator samples each: "
        f"{disagreements} disagreements with the pointwise zero-or-invertible "
        f"characterization; {elapsed:.1f}s",
    )


def test_criterion_8_perturbation_detection():
    t0 = time.perf_counter()
    flagged = false_alarms = 0
    for seed in range(100):
        base = gen_conjugation(3, seed=seed).map
        if is_separating_exact(perturb(base, 1e-3, seed=seed)).status == "not_separating":
            flagged += 1
        if is_separating_exact(perturb(base, 0.0, seed=seed)).status != "separating":
            false_alarms += 1
    elapsed = time.perf_counter() - t0
    ok = flagged >= 95 and false_alarms == 0
    report(
        8,
        ok,
        f"eps=1e-3 flagged {flagged}/100 (need >= 95); eps=0 false alarms "
        f"{false_alarms} (must be 0); {elapsed:.1f}s",
    )


def test_criterion_9_cli_contract(tmp_path, capsys):
    from bisep.cli import main
    from bisep.instancefile import load_truth

    def run(*argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out
        return code, json.loads(out)

    # schema-invalid file: exit 1 with a field-naming message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "superop", "field": "real", "n_in": 2, "n_out": 2}))
    code, rep = run("check", bad)
    schema_ok = code == 1 and "vec_convention" in rep["error"]

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"kind": "sup')
    code, _ = run("check", truncated)
    schema_ok = schema_ok and code == 1

    # gen -> check -> decompose through files alone, against the truth files
    pipeline_ok = True
    for n, seed in ((1, 0), (4, 1), (8, 2)):
        inst = tmp_path / f"sup{n}_{seed}.json"
        code, rep = run("gen", "superop", inst, "--n", n, "--seed", seed)
        pipeline_ok = pipeline_ok and code == 0
        truth = load_truth(rep["truth_path"])
        code, rep = run("check", inst)
        pipeline_ok = pipeline_ok and code == 0 and rep["status"] == "biseparating"
        code, rep = run("decompose", inst)
        pipeline_ok = pipeline_ok and code == 0
        pipeline_ok = pipeline_ok and abs(rep["alpha"] - truth.alpha) <= 1e-8 * abs(truth.alpha)
        pipeline_ok = (
            pipeline_ok and np.linalg.norm(np.array(rep["S"]) - truth.S) <= 1e-8
        )
    for k, n, seed in ((1, 2, 0), (3, 2, 1), (5, 3, 2), (4, 1, 3)):
        inst = tmp_path / f"big{k}_{n}_{seed}.json"
        code, rep = run("gen", "big_superop", inst, "--k", k, "--n", n, "--seed", seed)
        pipeline_ok = pipeline_ok and code == 0
        truth = load_truth(rep["truth_path"])
        code, rep = run("check", inst)
        pipeline_ok = pipeline_ok and code == 0 and rep["status"] == "biseparating"
        code, rep = run("decompose", inst)
        pipeline_ok = pipeline_ok and code == 0 and rep["phi"] == truth.phi
        for lab, alpha in rep["alpha"].items():
            got = complex(alpha[0], alpha[1]) if isinstance(alpha, list) else alpha
            pipeline_ok = pipeline_ok and abs(got - truth.alphas[lab]) <= 1e-8 * abs(
                truth.alphas[lab]
            )
            pipeline_ok = (
                pipeline_ok
                and np.linalg.norm(np.array(rep["S"][lab]) - truth.S[lab]) <= 1e-8
            )
    ok = schema_ok and pipeline_ok
    with capsys.disabled():
        report(
            9,
            ok,
            f"schema rejection with named fields: {schema_ok}; file-only "
            f"gen/check/decompose pipeline reproduces ground truth: {pipeline_ok}",
        )
