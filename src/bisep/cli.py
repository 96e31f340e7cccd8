"""Command-line front end: check / decompose / gen / roundtrip.

Every command prints one JSON report to stdout and communicates its
outcome through the exit code:

    0   property holds / decomposition succeeded
    1   I/O, schema or parameter error
    2   property fails (a witness is in the report) or recovery rejected
    3   the map is not invertible
"""

import argparse
import sys
import time

import numpy as np

from .config import COMPLEX, REAL, FieldConfig
from .errors import BisepError, DimensionMismatch, RecoveryError, SchemaError, SingularMatrix
from .funcalg import (
    NOT_STRICTLY_SEPARATING,
    PointwiseForm,
    is_biseparating_fn,
    is_strictly_separating,
    recover_pointwise,
    verify_pointwise,
)
from .harness import (
    DEFAULT_ALPHA_RANGE,
    DEFAULT_COND_CAP,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    perturb,
)
from .instancefile import (
    KIND_BIG,
    KIND_SUPEROP,
    counterexample_to_json,
    dumps,
    form_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    save_truth,
    truth_path_for,
)
from .separating import (
    BISEPARATING,
    FORWARD,
    NOT_INVERTIBLE,
    NOT_SEPARATING,
    Verdict,
    is_biseparating,
    is_separating_sampled,
)
from .structure import recover_conjugation, verify_form
from .superop import Superoperator

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILS = 2
EXIT_NOT_INVERTIBLE = 3


def _emit(report, t0):
    report["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    print(dumps(report))


def _tolerances(args):
    return {"tol_rel": args.tol, "tol_abs": args.tol_abs}


def _load(args, report, t0):
    """The instance at ``args.path``, or None after emitting a schema_error report."""
    try:
        return load_instance(args.path, tol_rel=args.tol, tol_abs=args.tol_abs)
    except SchemaError as exc:
        report["status"] = "schema_error"
        report["error"] = str(exc)
        if exc.field:
            report["field"] = exc.field
        _emit(report, t0)
        return None


# ---------------------------------------------------------------------------
# check


def cmd_check(args):
    t0 = time.perf_counter()
    report = {"command": "check", "tolerances": _tolerances(args)}
    if args.seed is not None:
        report["seed"] = args.seed
    T = _load(args, report, t0)
    if T is None:
        return EXIT_ERROR
    sampled = None
    if isinstance(T, Superoperator):
        verdict = is_biseparating(T)
        if args.sampled is not None and verdict.status != NOT_INVERTIBLE:
            sampled = is_separating_sampled(T, args.sampled, args.seed)
            if sampled.status == NOT_SEPARATING and verdict.status == BISEPARATING:
                verdict = Verdict(NOT_SEPARATING, sampled.counterexample, FORWARD)
    else:
        verdict = is_biseparating_fn(T)
        if verdict.status in (BISEPARATING, NOT_STRICTLY_SEPARATING):
            report["strictly_separating"] = verdict.status == BISEPARATING
    report["status"] = verdict.status
    if verdict.direction:
        report["direction"] = verdict.direction
    if verdict.counterexample is not None:
        report["counterexample"] = counterexample_to_json(verdict.counterexample, T.cfg.field)
    if sampled is not None:
        report["sampled_status"] = sampled.status
    _emit(report, t0)
    return {BISEPARATING: EXIT_OK, NOT_INVERTIBLE: EXIT_NOT_INVERTIBLE}.get(
        verdict.status, EXIT_FAILS
    )


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args):
    t0 = time.perf_counter()
    report = {"command": "decompose", "tolerances": _tolerances(args)}
    T = _load(args, report, t0)
    if T is None:
        return EXIT_ERROR
    try:
        if isinstance(T, Superoperator):
            form = recover_conjugation(T)
            residual = verify_form(T, form)
        else:
            form = recover_pointwise(T)
            residual = verify_pointwise(T, form)
        report["status"] = "ok"
        report.update(form_to_json(form, T.cfg.field))
        report["residual"] = residual
        _emit(report, t0)
        return EXIT_OK
    except RecoveryError as exc:
        report["status"] = exc.step
        report["error"] = str(exc)
        if exc.residual is not None:
            report["residual"] = exc.residual
    except (DimensionMismatch, SingularMatrix) as exc:
        report["status"] = "dimension_mismatch"
        report["error"] = str(exc)
    _emit(report, t0)
    return EXIT_FAILS


# ---------------------------------------------------------------------------
# gen


def _parse_negative(text):
    if text is None:
        return None, None
    if text in ("transpose", "mixing"):
        return text, None
    if text.startswith("perturb:"):
        try:
            return "perturb", float(text.split(":", 1)[1])
        except ValueError:
            pass
    raise ValueError(
        f"--negative must be 'transpose', 'mixing' or 'perturb:EPS', got {text!r}"
    )


def cmd_gen(args):
    t0 = time.perf_counter()
    report = {"command": "gen", "seed": args.seed, "tolerances": _tolerances(args)}
    cfg = FieldConfig(field=args.field, tol_rel=args.tol, tol_abs=args.tol_abs)
    try:
        negative, eps = _parse_negative(args.negative)
        if negative == "mixing" and args.kind == KIND_SUPEROP:
            raise ValueError("point mixing needs kind 'big_superop'")
        if negative == "transpose" and args.kind == KIND_BIG:
            raise ValueError("the transpose negative needs kind 'superop'")
        bundle = None
        if negative == "transpose":
            instance = gen_transpose(args.n, cfg)
        elif negative == "mixing":
            instance = gen_point_mixing(args.k, args.n, args.seed, cfg)
        else:
            if args.kind == KIND_SUPEROP:
                bundle = gen_conjugation(args.n, args.seed, tuple(args.alpha), args.cond_cap, cfg)
            else:
                bundle = gen_pointwise(args.k, args.n, args.seed, cfg)
            instance = bundle.map
            if negative == "perturb":
                instance, bundle = perturb(instance, eps, args.seed), None
    except (ValueError, BisepError) as exc:
        report["status"] = "invalid_params"
        report["error"] = str(exc)
        _emit(report, t0)
        return EXIT_ERROR
    try:
        save_instance(args.out, instance)
        report["instance_path"] = args.out
        report["truth_path"] = None
        if bundle is not None and bundle.ground_truth is not None:
            tp = truth_path_for(args.out)
            save_truth(tp, bundle.ground_truth, cfg.field)
            report["truth_path"] = tp
    except OSError as exc:
        report["status"] = "io_error"
        report["error"] = str(exc)
        _emit(report, t0)
        return EXIT_ERROR
    report["status"] = "ok"
    _emit(report, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# roundtrip


def _json_cycle(instance, tol_rel, tol_abs):
    """Push an instance through its JSON form, as the file pipeline would."""
    return instance_from_json(instance_to_json(instance), tol_rel=tol_rel, tol_abs=tol_abs)


def _compare_truth(form, truth):
    """(same phi, worst error) of a recovered form against the generator's truth.

    The error is the larger of the relative alpha error and the S error,
    over every output point of a pointwise form; a conjugation has no phi.
    """
    if isinstance(form, PointwiseForm):
        errs = [_compare_truth(form.point_form(lab), truth.point_form(lab))[1] for lab in form.phi]
        return form.phi == truth.phi, max(errs)
    a_err = abs(form.alpha - truth.alpha) / abs(truth.alpha)
    return True, max(a_err, float(np.linalg.norm(form.S - truth.S)))


def cmd_roundtrip(args):
    t0 = time.perf_counter()
    tol = args.tol
    truth_gate = max(tol, 1e-8)
    cfg = FieldConfig(field=args.field, tol_rel=args.tol, tol_abs=args.tol_abs)
    cases = failures = 0
    worst_residual = 0.0
    worst_truth_err = 0.0
    failed_cases = []

    def record(name, ok):
        nonlocal cases, failures
        cases += 1
        if not ok:
            failures += 1
            if len(failed_cases) < 20:
                failed_cases.append(name)

    def positive(name, bundle, decide, recover, verify):
        """Decide, recover and verify a generated positive after a JSON round trip."""
        nonlocal worst_residual, worst_truth_err
        T = _json_cycle(bundle.map, args.tol, args.tol_abs)
        ok = decide(T).status == BISEPARATING
        try:
            form = recover(T)
            residual = verify(T, form)
        except (RecoveryError, SingularMatrix):
            record(name, False)
            return
        same_phi, err = _compare_truth(form, bundle.ground_truth)
        worst_residual = max(worst_residual, residual)
        worst_truth_err = max(worst_truth_err, err)
        record(name, ok and residual <= tol and same_phi and err <= truth_gate)

    if args.seeds > 0:
        for n in range(1, args.max_n + 1):
            for seed in range(args.seeds):
                positive(f"superop n={n} seed={seed}", gen_conjugation(n, seed, cfg=cfg),
                         is_biseparating, recover_conjugation, verify_form)
        for n in range(2, args.max_n + 1):
            T = _json_cycle(gen_transpose(n, cfg), args.tol, args.tol_abs)
            verdict = is_biseparating(T)
            ok = verdict.status == NOT_SEPARATING and verdict.counterexample is not None
            record(f"transpose n={n}", ok)
        for k in range(1, args.max_k + 1):
            for n in range(1, min(3, args.max_n) + 1):
                for seed in range(args.seeds):
                    positive(f"big k={k} n={n} seed={seed}", gen_pointwise(k, n, seed, cfg=cfg),
                             is_biseparating_fn, recover_pointwise, verify_pointwise)
        for k in range(2, args.max_k + 1):
            T = _json_cycle(gen_point_mixing(k, 2, seed=k, cfg=cfg), args.tol, args.tol_abs)
            verdict = is_strictly_separating(T)
            ok = verdict.status == NOT_SEPARATING and verdict.counterexample is not None
            record(f"mixing k={k}", ok)

    report = {
        "command": "roundtrip",
        "status": "ok" if failures == 0 else "failed",
        "tolerances": _tolerances(args),
        "cases": cases,
        "failures": failures,
        "worst_residual": worst_residual,
        "worst_truth_error": worst_truth_err,
    }
    if cases == 0:
        report["note"] = "no cases run (seeds = 0)"
    if failed_cases:
        report["failed_cases"] = failed_cases
    _emit(report, t0)
    return EXIT_OK if failures == 0 else EXIT_FAILS


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (exit 2 is reserved for property failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser():
    parser = _Parser(
        prog="bisep",
        description="Separating/biseparating checks and conjugation-form recovery "
        "for linear maps on matrix algebras and finite function algebras over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p):
        p.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")
        p.add_argument(
            "--tol-abs", type=float, default=1e-12, help="absolute tolerance floor (default 1e-12)"
        )

    p = sub.add_parser("check", help="decide the (bi)separating property of an instance file")
    p.add_argument("path")
    add_tols(p)
    p.add_argument("--sampled", type=int, default=None, metavar="TRIALS",
                   help="additionally run the Monte-Carlo checker with this many trials")
    p.add_argument("--seed", type=int, default=0, help="seed for --sampled")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="recover the conjugation/pointwise form of an instance")
    p.add_argument("path")
    add_tols(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gen", help="generate an instance file (plus ground truth when one exists)")
    p.add_argument("kind", choices=[KIND_SUPEROP, KIND_BIG])
    p.add_argument("out", help="output path for the instance JSON")
    p.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    p.add_argument("--k", type=int, default=2, help="number of points for big_superop (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    p.add_argument("--alpha", type=float, nargs=2, default=list(DEFAULT_ALPHA_RANGE),
                   metavar=("LO", "HI"), help="range for |alpha| (default 0.5 2.0)")
    p.add_argument("--cond-cap", type=float, default=DEFAULT_COND_CAP,
                   help="condition-number cap for S (default 100)")
    p.add_argument("--negative", default=None,
                   help="curated negative: 'transpose', 'mixing' or 'perturb:EPS'")
    add_tols(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("roundtrip", help="generate -> check -> decompose -> verify matrix")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--seeds", type=int, default=25)
    p.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    add_tols(p)
    p.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BisepError as exc:
        print(dumps({"command": args.command, "status": "error", "error": str(exc)}))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
