"""Command-line front end: check / decompose / gen / roundtrip.

Every command prints one JSON report to stdout and communicates its
outcome through the exit code:

    0   property holds / decomposition succeeded
    1   I/O, schema or parameter error
    2   property fails (a witness is in the report) or recovery rejected
    3   the map is separating but not invertible by the rank rule (for both
        map kinds, a map that is neither exits 2 with the forward witness;
        a superop that ``decompose`` recovers is invertible and never exits
        3, whatever its condition number)

Each ``cmd_*`` fills in the report ``main`` hands it; ``main`` maps a raised
error to the report's status and prints the report once.  Bad arguments are
usage errors: a message on stderr, no report, exit 1.
"""

import argparse
import functools
import math
import sys
import time

import numpy as np

from .config import COMPLEX, DEFAULT, REAL, FieldConfig
from .errors import BisepError, DimensionMismatch, RecoveryError, SchemaError, SingularMatrix
from .funcalg import (
    NOT_STRICTLY_SEPARATING,
    PointwiseForm,
    is_biseparating_fn,
    is_strictly_separating,
    recover_pointwise,
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
    check_size,
    counterexample_to_json,
    dumps,
    dumps_ascii,
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
from .structure import recover_conjugation
from .superop import Superoperator

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILS = 2
EXIT_NOT_INVERTIBLE = 3

# report status of a command that raised, most specific class first
_ERROR_STATUS = ((SchemaError, "schema_error"), (ValueError, "invalid_params"),
                 (OSError, "io_error"), (BisepError, "error"))


# ---------------------------------------------------------------------------
# check


def cmd_check(args, report):
    report["seed"] = args.seed
    T = load_instance(args.path, tol_rel=args.tol, tol_abs=args.tol_abs)
    if args.sampled is not None and not isinstance(T, Superoperator):
        raise ValueError("--sampled needs kind 'superop'")
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
    return {BISEPARATING: EXIT_OK, NOT_INVERTIBLE: EXIT_NOT_INVERTIBLE}.get(
        verdict.status, EXIT_FAILS
    )


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args, report):
    T = load_instance(args.path, tol_rel=args.tol, tol_abs=args.tol_abs)
    try:
        form = recover_conjugation(T) if isinstance(T, Superoperator) else recover_pointwise(T)
        report["status"] = "ok"
        report.update(form_to_json(form, T.cfg.field))
        report["residual"] = form.residual
        return EXIT_OK
    except RecoveryError as exc:
        report["status"] = exc.step
        report["error"] = str(exc)
        if exc.residual is not None:
            report["residual"] = exc.residual
    except (DimensionMismatch, SingularMatrix) as exc:
        report["status"] = "dimension_mismatch"
        report["error"] = str(exc)
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


def cmd_gen(args, report):
    report["seed"] = args.seed
    cfg = FieldConfig(field=args.field, tol_rel=args.tol, tol_abs=args.tol_abs)
    negative, eps = _parse_negative(args.negative)
    if negative == "mixing" and args.kind == KIND_SUPEROP:
        raise ValueError("point mixing needs kind 'big_superop'")
    if negative == "transpose" and args.kind == KIND_BIG:
        raise ValueError("the transpose negative needs kind 'superop'")
    k = 1 if args.kind == KIND_SUPEROP else args.k
    bundle = None
    try:  # a map too large for the reader, or one the tolerances refuse, is a bad parameter
        check_size(args.n, args.n, k, k)
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
    except BisepError as exc:
        raise ValueError(str(exc)) from None
    save_instance(args.out, instance)
    report["instance_path"] = args.out
    report["truth_path"] = None
    if bundle is not None and bundle.ground_truth is not None:
        tp = truth_path_for(args.out)
        save_truth(tp, bundle.ground_truth, cfg.field)
        report["truth_path"] = tp
    report["status"] = "ok"
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


def cmd_roundtrip(args, report):
    truth_gate = max(args.tol, 1e-8)
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

    def positive(name, bundle, decide, recover):
        """Decide and recover a generated positive after a JSON round trip."""
        nonlocal worst_residual, worst_truth_err
        T = _json_cycle(bundle.map, args.tol, args.tol_abs)
        ok = decide(T).status == BISEPARATING
        try:
            form = recover(T)
        except (RecoveryError, SingularMatrix):
            record(name, False)
            return
        same_phi, err = _compare_truth(form, bundle.ground_truth)
        worst_residual = max(worst_residual, form.residual)
        worst_truth_err = max(worst_truth_err, err)
        record(name, ok and form.residual <= args.tol and same_phi and err <= truth_gate)

    def negative(name, instance, decide):
        """A curated negative must fail with a certificate after a JSON round trip."""
        verdict = decide(_json_cycle(instance, args.tol, args.tol_abs))
        record(name, verdict.status == NOT_SEPARATING and verdict.counterexample is not None)

    if args.seeds > 0:
        for n in range(1, args.max_n + 1):
            for seed in range(args.seeds):
                positive(f"superop n={n} seed={seed}", gen_conjugation(n, seed, cfg=cfg),
                         is_biseparating, recover_conjugation)
        for n in range(2, args.max_n + 1):
            negative(f"transpose n={n}", gen_transpose(n, cfg), is_biseparating)
        for k in range(1, args.max_k + 1):
            for n in range(1, min(3, args.max_n) + 1):
                for seed in range(args.seeds):
                    positive(f"big k={k} n={n} seed={seed}", gen_pointwise(k, n, seed, cfg=cfg),
                             is_biseparating_fn, recover_pointwise)
        for k in range(2, args.max_k + 1):
            negative(f"mixing k={k}", gen_point_mixing(k, 2, k, cfg), is_strictly_separating)

    report["status"] = "ok" if failures == 0 else "failed"
    report["cases"] = cases
    report["failures"] = failures
    report["worst_residual"] = worst_residual
    report["worst_truth_error"] = worst_truth_err
    if cases == 0:
        report["note"] = "no cases run (seeds = 0)"
    if failed_cases:
        report["failed_cases"] = failed_cases
    return EXIT_OK if failures == 0 else EXIT_FAILS


# ---------------------------------------------------------------------------


def positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (exit 2 is reserved for property failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.cache
def build_parser():
    """The argument parser, built once per process; it holds no command
    functions, so ``main`` finds each ``cmd_*`` when it is called."""
    parser = _Parser(
        prog="bisep",
        description="Separating/biseparating checks and conjugation-form recovery "
        "for linear maps on matrix algebras and finite function algebras over them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p):
        p.add_argument("--tol", type=positive_float, default=DEFAULT.tol_rel,
                       help="relative tolerance (default %(default)g)")
        p.add_argument("--tol-abs", type=positive_float, default=DEFAULT.tol_abs,
                       help="absolute tolerance floor (default %(default)g)")

    p = sub.add_parser("check", help="decide the (bi)separating property of an instance file")
    p.add_argument("path")
    add_tols(p)
    p.add_argument("--sampled", type=positive_int, default=None, metavar="TRIALS",
                   help="also run the Monte-Carlo checker with this many trials (superop only)")
    p.add_argument("--seed", type=int, default=0, help="seed for --sampled")

    p = sub.add_parser("decompose", help="recover the conjugation/pointwise form of an instance")
    p.add_argument("path")
    add_tols(p)

    p = sub.add_parser("gen", help="generate an instance file (plus ground truth when one exists)")
    p.add_argument("kind", choices=[KIND_SUPEROP, KIND_BIG])
    p.add_argument("out", help="output path for the instance JSON")
    p.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    p.add_argument("--k", type=int, default=2, help="number of points for big_superop (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    p.add_argument("--alpha", type=float, nargs=2, default=DEFAULT_ALPHA_RANGE,
                   metavar=("LO", "HI"), help="range for |alpha| (default 0.5 2.0)")
    p.add_argument("--cond-cap", type=float, default=DEFAULT_COND_CAP,
                   help="condition-number cap for S (default 100)")
    p.add_argument("--negative", default=None,
                   help="curated negative: 'transpose', 'mixing' or 'perturb:EPS'")
    add_tols(p)

    p = sub.add_parser("roundtrip", help="generate -> check -> decompose -> verify matrix")
    p.add_argument("--max-n", type=positive_int, default=6)
    p.add_argument("--max-k", type=positive_int, default=4)
    p.add_argument("--seeds", type=non_negative_int, default=25)
    p.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    add_tols(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    report = {"command": args.command, "tolerances": {"tol_rel": args.tol, "tol_abs": args.tol_abs}}
    # looked up per call, so a cmd_* replaced on this module is the one that runs
    command = {"check": cmd_check, "decompose": cmd_decompose, "gen": cmd_gen,
               "roundtrip": cmd_roundtrip}[args.command]
    try:
        code = command(args, report)
    except (ValueError, OSError, BisepError) as exc:
        report["status"] = next(status for cls, status in _ERROR_STATUS if isinstance(exc, cls))
        report["error"] = str(exc)
        if isinstance(exc, SchemaError) and exc.field:
            report["field"] = exc.field
        code = EXIT_ERROR
    report["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    try:
        print(dumps(report))
    except UnicodeEncodeError:  # a stdout that cannot write UTF-8 text
        print(dumps_ascii(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
