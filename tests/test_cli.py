import io
import json
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bisep import cli
from bisep.cli import main
from bisep.instancefile import MAX_ENTRIES, instance_to_json, load_truth, save_instance
from bisep import (FieldConfig, Superoperator, conjugation_superop, gen_conjugation, gen_pointwise,
                   gen_transpose)
from bisep.errors import DimensionMismatch
from bisep.separating import NOT_SEPARATING, Counterexample, Verdict
from bisep.superop import apply

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def report_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "report.schema.json").read_text())

    def check(report):
        jsonschema.validate(report, schema)

    return check


class TestPipeline:
    def test_gen_check_decompose_superop(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "inst.json"
        code, rep = run_cli(capsys, "gen", "superop", inst, "--n", 2, "--seed", 0)
        assert code == 0 and rep["status"] == "ok"
        report_schema(rep)
        truth = load_truth(rep["truth_path"])

        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "biseparating"
        report_schema(rep)

        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 0 and rep["status"] == "ok"
        report_schema(rep)
        assert rep["alpha"] == pytest.approx(truth.alpha, rel=1e-8)
        np.testing.assert_allclose(np.array(rep["S"]), truth.S, atol=1e-8)
        assert rep["residual"] <= 1e-8

    def test_gen_check_decompose_big(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "big.json"
        code, rep = run_cli(capsys, "gen", "big_superop", inst, "--k", 3, "--n", 2, "--seed", 5)
        assert code == 0
        truth = load_truth(rep["truth_path"])

        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "biseparating"
        assert rep["strictly_separating"] is True
        report_schema(rep)

        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 0 and rep["status"] == "ok"
        report_schema(rep)
        assert rep["phi"] == truth.phi
        assert sorted(rep["phi"].values()) == ["x1", "x2", "x3"]
        for lab, alpha in rep["alpha"].items():
            assert alpha == pytest.approx(truth.alphas[lab], rel=1e-8)

    def test_scalar_fiber_report_shape(self, tmp_path, capsys):
        inst = tmp_path / "scalar.json"
        run_cli(capsys, "gen", "big_superop", inst, "--k", 3, "--n", 1, "--seed", 1)
        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 0
        for lab, S in rep["S"].items():
            assert S == [[1.0]]
            assert abs(rep["alpha"][lab]) > 0

    def test_complex_field_pipeline(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "cplx.json"
        code, rep = run_cli(
            capsys, "gen", "superop", inst, "--n", 2, "--seed", 6, "--field", "complex"
        )
        assert code == 0
        truth = load_truth(rep["truth_path"])
        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "biseparating"
        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 0
        report_schema(rep)
        got = complex(rep["alpha"][0], rep["alpha"][1])
        assert got == pytest.approx(truth.alpha, rel=1e-8)
        S = np.array([[complex(re, im) for re, im in row] for row in rep["S"]])
        np.testing.assert_allclose(S, truth.S, atol=1e-8)


class TestCheckOutcomes:
    def test_transpose_exits_2_with_witness(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "tr.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2, "--negative", "transpose")
        code, rep = run_cli(capsys, "check", inst)
        assert code == 2 and rep["status"] == "not_separating"
        assert rep["direction"] == "forward"
        ce = rep["counterexample"]
        A, B = np.array(ce["A"]), np.array(ce["B"])
        assert np.all(A @ B == 0)
        assert np.linalg.norm(A.T @ B.T) > 0  # violates under transposition
        assert ce["violation_norm"] > 1e-6
        report_schema(rep)

    def test_perturbed_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "pert.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 3, "--seed", 2,
                "--negative", "perturb:1e-3")
        code, rep = run_cli(capsys, "check", inst)
        assert code == 2 and rep["status"] == "not_separating"

    def test_mixing_exits_2(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "mix.json"
        run_cli(capsys, "gen", "big_superop", inst, "--k", 2, "--n", 2, "--negative", "mixing")
        code, rep = run_cli(capsys, "check", inst)
        assert code == 2
        ce = rep["counterexample"]
        assert "F1" in ce and "F2" in ce and "point" in ce
        report_schema(rep)

    def test_rectangular_big_map_not_invertible(self, tmp_path, capsys):
        from bisep import BigSuperoperator, DiscreteSpace
        from bisep.instancefile import save_instance as save

        T = BigSuperoperator(
            space_in=DiscreteSpace(("x1", "x2")),
            space_out=DiscreteSpace(("y1",)),
            n_in=2,
            n_out=2,
            blocks=np.ones((1, 2, 4, 4)),
        )
        inst = tmp_path / "rect.json"
        save(inst, T)
        code, rep = run_cli(capsys, "check", inst)
        # point mixing fails the algebraic check before invertibility is reached
        assert code in (2, 3)
        inst2 = tmp_path / "rect2.json"
        blocks = np.zeros((1, 2, 4, 4))
        blocks[0, 0] = np.eye(4)
        save(inst2, BigSuperoperator(
            space_in=DiscreteSpace(("x1", "x2")),
            space_out=DiscreteSpace(("y1",)),
            n_in=2,
            n_out=2,
            blocks=blocks,
        ))
        code, rep = run_cli(capsys, "check", inst2)
        assert code == 3 and rep["status"] == "not_invertible"

    def test_rank_deficient_exits_2_with_forward_witness(self, tmp_path, capsys, report_schema):
        # neither separating nor invertible: the forward check runs first
        T = gen_conjugation(2, seed=3).map
        mat = T.mat.copy()
        mat[:, 0] = 0.0
        T = Superoperator(n_in=2, n_out=2, mat=mat)
        inst = tmp_path / "sing.json"
        save_instance(inst, T)
        code, rep = run_cli(capsys, "check", inst)
        assert code == 2 and rep["status"] == "not_separating" and rep["direction"] == "forward"
        A, B = np.array(rep["counterexample"]["A"]), np.array(rep["counterexample"]["B"])
        assert np.all(A @ B == 0)
        violation = np.linalg.norm(apply(T, A) @ apply(T, B))
        assert violation == pytest.approx(rep["counterexample"]["violation_norm"])
        assert violation > 1e-9 * np.linalg.norm(mat, axis=0).max() ** 2
        report_schema(rep)

    def test_tiny_basis_image_exits_2_with_forward_witness(self, tmp_path, capsys, report_schema):
        # full rank at these tolerances and its inverse too large to admit, but
        # one basis image 1e-200 times the others already fails the forward check
        T = Superoperator(n_in=2, n_out=2, mat=np.diag([1.0, 1e-200, 1.0, 1.0]))
        inst = tmp_path / "tiny.json"
        save_instance(inst, T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "check", inst, "--tol", "1e-300", "--tol-abs", "1e-300")
        assert code == 2 and rep["status"] == "not_separating" and rep["direction"] == "forward"
        A, B = np.array(rep["counterexample"]["A"]), np.array(rep["counterexample"]["B"])
        assert np.all(A @ B == 0)
        assert np.linalg.norm(apply(T, A) @ apply(T, B)) > 0.5
        report_schema(rep)

    @pytest.mark.parametrize("kind", ["big_superop", "scaled_identity"])
    def test_inverse_too_large_to_admit_exits_3(self, tmp_path, capsys, report_schema, kind):
        # separating and full rank at these tolerances, but the inverse fails
        # the admission rule
        from bisep import BigSuperoperator, DiscreteSpace

        if kind == "scaled_identity":
            T = Superoperator(n_in=2, n_out=2, mat=1e-200 * np.eye(4))
        else:
            T = BigSuperoperator(space_in=DiscreteSpace(("x",)), space_out=DiscreteSpace(("y",)),
                                 n_in=2, n_out=2, blocks=1e-200 * np.eye(4)[None, None])
        inst = tmp_path / "tiny.json"
        save_instance(inst, T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "check", inst, "--tol", "1e-300", "--tol-abs", "1e-300")
        assert code == 3 and rep["status"] == "not_invertible"
        report_schema(rep)

    def test_sampled_flag(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2, "--seed", 4)
        code, rep = run_cli(capsys, "check", inst, "--sampled", 500, "--seed", 7)
        assert code == 0
        assert rep["sampled_status"] == "separating"

    def test_sampled_witness_overrules_a_positive(self, tmp_path, capsys, monkeypatch,
                                                  report_schema):
        # a sampled not_separating verdict on a map the exact check passes is
        # the report's verdict, with the sampled pair as its forward witness
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2, "--seed", 4)
        A, B = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
        witness = Counterexample(A=A, B=B, product_in_norm=0.0, violation_norm=0.25)
        calls = []

        def sampled(T, trials, seed):
            calls.append((trials, seed))
            return Verdict(NOT_SEPARATING, counterexample=witness)

        monkeypatch.setattr("bisep.cli.is_separating_sampled", sampled)
        code, rep = run_cli(capsys, "check", inst, "--sampled", 10, "--seed", 3)
        assert (code, calls) == (2, [(10, 3)])
        assert (rep["status"], rep["direction"], rep["sampled_status"]) == (
            "not_separating", "forward", "not_separating")
        assert rep["counterexample"] == {"product_in_norm": 0.0, "violation_norm": 0.25,
                                         "A": A.tolist(), "B": B.tolist()}
        report_schema(rep)

    def test_sampled_flag_on_a_block_map_is_invalid(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "big.json"
        run_cli(capsys, "gen", "big_superop", inst, "--k", 2, "--n", 2, "--seed", 4)
        code, rep = run_cli(capsys, "check", inst, "--sampled", 100, "--seed", 4)
        assert code == 1 and rep["status"] == "invalid_params"
        assert rep["error"] == "--sampled needs kind 'superop'"
        assert "sampled_status" not in rep
        report_schema(rep)


class TestSchemaFailures:
    def test_truncated_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "superop", "fie')
        code, rep = run_cli(capsys, "check", bad)
        assert code == 1 and rep["status"] == "schema_error"

    def test_missing_field_named_in_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "superop", "field": "real", "n_in": 2, "n_out": 2}))
        code, rep = run_cli(capsys, "check", bad)
        assert code == 1
        assert rep["field"] == "vec_convention"
        assert "vec_convention" in rep["error"]

    def test_huge_declared_map_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"kind": "superop", "field": "real", "n_in": 10**7,
                                   "n_out": 2, "vec_convention": "column-major",
                                   "matrix": [[0.0]] * 4}))
        code, rep = run_cli(capsys, "check", bad)
        assert code == 1 and rep["status"] == "schema_error"
        assert rep["field"] == "n_in"

    def test_huge_integer_entry_is_one_report(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2)
        obj = json.loads(inst.read_text())
        obj["matrix"][0][1] = 10**400
        inst.write_text(json.dumps(obj))
        for verb in ("check", "decompose"):
            code = main([verb, str(inst)])
            rep = json.loads(capsys.readouterr().out)  # exactly one JSON document
            assert code == 1 and rep["status"] == "schema_error"
            assert rep["field"] == "matrix[0][1]"
            report_schema(rep)

    def test_decompose_bad_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code, rep = run_cli(capsys, "decompose", bad)
        assert code == 1

    def test_gen_invalid_params_exit_1(self, tmp_path, capsys):
        code, rep = run_cli(
            capsys, "gen", "superop", tmp_path / "x.json", "--negative", "mixing"
        )
        assert code == 1 and rep["status"] == "invalid_params"
        code, rep = run_cli(
            capsys, "gen", "superop", tmp_path / "x.json", "--negative", "bogus"
        )
        assert code == 1
        for n in (0, -3):
            code, rep = run_cli(
                capsys, "gen", "superop", tmp_path / "x.json", "--n", n, "--negative", "transpose"
            )
            assert code == 1 and rep["status"] == "invalid_params"
        # maps over instancefile.MAX_ENTRIES are refused before any is generated
        for argv in (("superop", "--n", 1000, "--negative", "transpose"),
                     ("superop", "--n", 1000),
                     ("big_superop", "--k", 3000, "--n", 2)):
            start = time.perf_counter()
            code, rep = run_cli(capsys, "gen", argv[0], tmp_path / "x.json", *argv[1:])
            assert time.perf_counter() - start < 1.0
            assert code == 1 and rep["status"] == "invalid_params"
            assert str(MAX_ENTRIES) in rep["error"]
        # products of the basis images would overflow, so the map is refused
        # before anything computes with it, and no numpy warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "gen", "superop", tmp_path / "x.json", "--n", 3,
                                "--alpha", 0.5, 1e300)
        assert code == 1 and rep["status"] == "invalid_params"
        assert "too large" in rep["error"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @pytest.mark.parametrize("kind", ["transpose", "conjugation"])
    def test_map_too_large_to_multiply_exits_1(self, tmp_path, capsys, command, kind):
        # finite entries whose products overflow: once decided by accident
        # (the transpose as biseparating), now refused without a warning
        T = gen_transpose(3) if kind == "transpose" else gen_conjugation(3, seed=1).map
        obj = instance_to_json(T)
        obj["matrix"] = [[v * 1e160 for v in row] for row in obj["matrix"]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, command, path)
        assert code == 1 and rep["status"] == "schema_error"
        assert rep["field"] == "matrix" and "too large" in rep["error"]


def _superop_text(entry="0.5"):
    """An n = 2 instance file with ``entry`` as the token of matrix[0][1]."""
    obj = instance_to_json(gen_conjugation(2, seed=3).map)
    obj["matrix"][0][1] = "ENTRY"
    return json.dumps(obj).replace('"ENTRY"', entry)


def _labelled_big_bytes(label):
    """A k = 2 block map file whose first input point is written as ``label``
    (raw bytes between the quotes)."""
    obj = instance_to_json(gen_pointwise(2, 1, seed=3).map)
    obj["points_in"][0] = "LABEL"
    obj["blocks"] = {key.replace("/x1", "/LABEL"): rows for key, rows in obj["blocks"].items()}
    return json.dumps(obj).encode().replace(b"LABEL", label)


# Files that orjson refuses or reads differently from stdlib json:
# (name, file bytes, exit code, status, field, a pattern of the error).
# Each gives the report of a reader that decodes with stdlib json alone,
# except the header integers beyond 64 bits, which orjson reads as floats.
HOSTILE_FILES = [
    ("nan", _superop_text("NaN").encode(), 1, "schema_error", "matrix",
     r"^field 'matrix' contains non-finite entries$"),
    ("infinity", _superop_text("Infinity").encode(), 1, "schema_error", "matrix",
     r"^field 'matrix' contains non-finite entries$"),
    ("-infinity", _superop_text("-Infinity").encode(), 1, "schema_error", "matrix",
     r"^field 'matrix' contains non-finite entries$"),
    ("1e400", _superop_text("1e400").encode(), 1, "schema_error", "matrix",
     r"^field 'matrix' contains non-finite entries$"),
    ("over DBL_MAX", _superop_text("1.7976931348623159e308").encode(), 1, "schema_error",
     "matrix", r"^field 'matrix' contains non-finite entries$"),
    ("10**400", _superop_text(str(10**400)).encode(), 1, "schema_error", "matrix[0][1]",
     r"^entry at matrix\[0\]\[1\] is too large for a double$"),
    ("5000 digits", _superop_text("7" * 5000).encode(), 1, "schema_error", "$",
     r"is not valid JSON: Exceeds the limit \(4300 digits\)"),
    ("lone surrogate", _labelled_big_bytes(rb"\ud800"), 0, "biseparating", None, None),
    ("invalid utf-8", _labelled_big_bytes(b"x\xff"), 1, "schema_error", "$",
     r"is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("utf-8 bom", b"\xef\xbb\xbf" + _superop_text().encode(), 1, "schema_error", "$",
     r"is not valid JSON: Unexpected UTF-8 BOM"),
    # stdlib json read these as integers: 'header declares ... map entries'
    # naming n_in for all three, or "'n_in' and 'n_out' must be positive"
    ("n_in = 2**64", _superop_text().replace('"n_in": 2', f'"n_in": {2**64}').encode(),
     1, "schema_error", "n_in", r"^field 'n_in' must be int, got float$"),
    ("n_out = 2**64", _superop_text().replace('"n_out": 2', f'"n_out": {2**64}').encode(),
     1, "schema_error", "n_out", r"^field 'n_out' must be int, got float$"),
    ("n_in = -2**63 - 1",
     _superop_text().replace('"n_in": 2', f'"n_in": {-(2**63) - 1}').encode(),
     1, "schema_error", "n_in", r"^field 'n_in' must be int, got float$"),
]


@pytest.mark.parametrize("name,data,code,status,field,error", HOSTILE_FILES,
                         ids=[case[0] for case in HOSTILE_FILES])
def test_hostile_file(tmp_path, capsys, report_schema, name, data, code, status, field, error):
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    got, rep = run_cli(capsys, "check", path)
    assert (got, rep["status"], rep.get("field")) == (code, status, field)
    if error is not None:
        assert re.search(error, rep["error"]), rep["error"]
    report_schema(rep)


def test_deeply_nested_file_does_not_crash_the_interpreter(tmp_path, report_schema):
    # orjson would overflow the C stack here; stdlib json decides the file, and
    # its recursion limit ends in a schema_error report
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**6 + "]" * 10**6)
    proc = subprocess.run([sys.executable, "-m", "bisep.cli", "check", str(path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    assert (report["status"], report["field"]) == ("schema_error", "$")
    assert "nested too deeply" in report["error"]
    report_schema(report)


def test_instance_nested_past_the_guard_is_a_schema_error(tmp_path, report_schema):
    # an instance with a field nested 2 * 10**5 deep: the depth guard keeps it
    # from orjson, whose recursion would overflow the C stack
    path = tmp_path / "deep.json"
    depth = 2 * 10**5
    path.write_text('{"kind": "superop", "x": ' + "[" * depth + "]" * depth + "}")
    proc = subprocess.run([sys.executable, "-m", "bisep.cli", "check", str(path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    assert (report["status"], report["field"]) == ("schema_error", "$")
    assert "nested too deeply" in report["error"]
    report_schema(report)


def test_instance_nested_past_orjsons_depth_reads_through_stdlib_json(tmp_path, capsys,
                                                                      monkeypatch):
    from bisep import instancefile

    obj = instance_to_json(Superoperator(1, 1, np.array([[2.0]])))
    text = json.dumps(obj)[:-1] + ', "extra": ' + "[" * 500 + "]" * 500 + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert instancefile._nesting_depth(text.encode()) > instancefile.ORJSON_MAX_DEPTH
    decoded = []
    monkeypatch.setattr(instancefile.json, "loads",
                        lambda s, _loads=json.loads: decoded.append(len(s)) or _loads(s))
    code, rep = run_cli(capsys, "check", path)
    assert (code, rep["status"]) == (0, "biseparating")
    assert decoded[0] == len(text)  # the file, and then the report run_cli reads back


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # a reader that closes the pipe before the report is written: no
    # traceback, and the exit code is the property's
    inst = tmp_path / "tr.json"
    save_instance(inst, gen_transpose(12))
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-m", "bisep.cli", "check", str(inst)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (2, b"")


def test_non_ascii_report_on_an_ascii_stdout(tmp_path, monkeypatch):
    # the report names a path orjson writes as UTF-8; stdlib json escapes it
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="ascii"))
    path = tmp_path / "caf\u00e9.json"
    code = main(["gen", "superop", str(path), "--n", "2"])
    sys.stdout.flush()
    report = json.loads(out.getvalue())
    assert (code, report["status"], report["instance_path"]) == (0, "ok", str(path))


def test_every_failure_prints_one_report(tmp_path, capsys, monkeypatch, report_schema):
    """main maps what a command raises to one schema-valid report and exit 1."""
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen", "superop", inst, "--n", 2)
    cases = [
        (["check", bad], "schema_error"),
        (["decompose", tmp_path / "missing.json"], "schema_error"),
        (["gen", "superop", tmp_path / "x.json", "--cond-cap", "0.5"], "invalid_params"),
        (["gen", "superop", tmp_path / "x.json", "--n", "4", "--tol", "0.5"], "invalid_params"),
        (["gen", "superop", tmp_path / "no_dir" / "x.json"], "io_error"),
        (["check", inst], "error"),
    ]

    def broken(T):
        raise DimensionMismatch("injected")

    monkeypatch.setattr("bisep.cli.is_biseparating", broken)
    for argv, status in cases:
        code = main([str(a) for a in argv])
        rep = json.loads(capsys.readouterr().out)  # exactly one JSON document
        assert code == 1 and rep["status"] == status, argv
        assert rep["elapsed_ms"] >= 0 and rep["error"]
        report_schema(rep)


class TestDecomposeFailures:
    def test_non_endomorphism_is_a_dimension_mismatch(self, tmp_path, capsys, report_schema):
        inst = tmp_path / "rect.json"
        save_instance(inst, Superoperator(2, 3, np.ones((9, 4))))
        code, rep = run_cli(capsys, "decompose", inst)
        assert (code, rep["status"]) == (2, "dimension_mismatch")
        assert rep["error"] == "recovery needs n_in = n_out, got 2 -> 3"
        assert "residual" not in rep
        report_schema(rep)

    def test_failed_fit_reports_its_residual(self, tmp_path, capsys, report_schema):
        # E_12's image moved by 1e-6 of its norm: every fit step passes, and
        # the full-basis residual refuses the form
        T = gen_conjugation(3, 1).map
        mat = T.mat.copy()
        mat[:, 3] += 1e-6 * np.linalg.norm(mat[:, 3])  # column-major vec index of E_12
        inst = tmp_path / "near.json"
        save_instance(inst, Superoperator(3, 3, mat))
        code, rep = run_cli(capsys, "decompose", inst)
        assert (code, rep["status"]) == (2, "not_standard_form")
        assert rep["residual"] == pytest.approx(1.3549e-6, rel=1e-4)
        assert "residual" in rep["error"]
        report_schema(rep)

    def test_transpose_names_the_failing_step(self, tmp_path, capsys):
        inst = tmp_path / "tr.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2, "--negative", "transpose")
        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 2
        assert rep["status"] == "not_factorizable"

    @pytest.mark.parametrize("field, seed", [("real", 2), ("complex", 1)])
    def test_an_unheard_block_over_the_reach_threshold_is_not_strict(self, tmp_path, capsys,
                                                                      report_schema, field, seed):
        # y1 hears its phi-point and, at 1.1 tol_rel of the largest block mass, the
        # other input point: separating and invertible, but not strictly separating
        cfg = FieldConfig(field=field)
        T = gen_pointwise(2, 2, seed, cfg).map
        mass = np.linalg.norm(T.blocks, axis=(2, 3))
        unheard = 1 - int(np.argmax(mass[0]))
        rng = np.random.default_rng(2)
        G = rng.standard_normal((4, 4))
        if field == "complex":
            G = G + 1j * rng.standard_normal((4, 4))
        blocks = T.blocks.copy()
        blocks[0, unheard] = 1.1 * cfg.tol_rel * mass.max() * G / np.linalg.norm(G)
        inst = tmp_path / "unheard.json"
        save_instance(inst, replace(T, blocks=blocks))
        code, rep = run_cli(capsys, "check", inst)
        assert code == 2 and rep["status"] == "not_strictly_separating", rep
        assert rep["strictly_separating"] is False and "direction" not in rep
        witness = rep["counterexample"]
        assert witness["point"] == "y1" and {"F1", "F2"} <= witness.keys()
        report_schema(rep)
        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 2 and rep["status"] == "not_local", rep
        assert rep["error"] == "output point 'y1' hears 2 input points (need exactly 1)"

    def test_mixing_reports_not_local(self, tmp_path, capsys):
        inst = tmp_path / "mix.json"
        run_cli(capsys, "gen", "big_superop", inst, "--k", 2, "--n", 2, "--negative", "mixing")
        code, rep = run_cli(capsys, "decompose", inst)
        assert code == 2 and rep["status"] == "not_local"

    def test_singular_gauged_s_is_not_invertible_s(self, tmp_path, capsys, report_schema):
        # cond(S) = 1e3 = 1 / tol_rel: the rank rule refuses the gauged S, and
        # the endomorphism is not a dimension mismatch
        rng = np.random.default_rng(1)
        Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        S = (Q1 * np.geomspace(1, 1e-3, 4)) @ Q2
        mat = conjugation_superop(1.5, S, FieldConfig(tol_rel=1e-12)).mat
        inst = tmp_path / "cond.json"
        save_instance(inst, Superoperator(4, 4, mat, FieldConfig(tol_rel=1e-3)))
        code, rep = run_cli(capsys, "decompose", inst, "--tol", "1e-3")
        assert code == 2 and rep["status"] == "not_invertible_s", rep
        assert rep["error"].startswith("recovered column matrix is singular: numeric rank ")
        report_schema(rep)
        code, rep = run_cli(capsys, "check", inst, "--tol", "1e-3")
        assert code == 3 and rep["status"] == "not_invertible"


class TestRoundtrip:
    def test_small_matrix_passes(self, capsys, report_schema):
        code, rep = run_cli(capsys, "roundtrip", "--max-n", 3, "--max-k", 2, "--seeds", 2)
        assert code == 0 and rep["status"] == "ok"
        assert rep["failures"] == 0 and rep["cases"] > 0
        assert rep["worst_residual"] <= 1e-9
        report_schema(rep)

    def test_defaults_pass(self, capsys, report_schema):
        code, rep = run_cli(capsys, "roundtrip")
        assert code == 0 and rep["status"] == "ok"
        assert rep["cases"] > 400 and rep["failures"] == 0
        assert rep["worst_residual"] <= 1e-9
        report_schema(rep)

    def test_zero_seeds_flagged(self, capsys):
        code, rep = run_cli(capsys, "roundtrip", "--seeds", 0)
        assert code == 0 and rep["cases"] == 0
        assert "no cases" in rep["note"]

    def test_impossible_tolerance_fails(self, capsys):
        code, rep = run_cli(
            capsys, "roundtrip", "--max-n", 5, "--max-k", 2, "--seeds", 5, "--tol", "1e-15"
        )
        assert code == 2 and rep["status"] == "failed"
        assert rep["failures"] > 0

    def test_complex_field_matrix(self, capsys):
        code, rep = run_cli(
            capsys, "roundtrip", "--max-n", 2, "--max-k", 2, "--seeds", 2, "--field", "complex"
        )
        assert code == 0 and rep["failures"] == 0

    @pytest.mark.parametrize("flag, value", [("--max-n", 65), ("--max-k", 456)])
    def test_maps_over_the_size_limit_are_refused_before_any_is_made(self, capsys, monkeypatch,
                                                                     flag, value):
        # n = 65 is a 65^4 > 2^24 entry superop; k = 456 a 456^2 * 3^4 > 2^24 entry block map
        def refuse(*args, **kwargs):
            raise AssertionError("a map was generated")

        for name in ("gen_conjugation", "gen_pointwise", "gen_transpose", "gen_point_mixing"):
            monkeypatch.setattr(cli, name, refuse)
        code, rep = run_cli(capsys, "roundtrip", flag, value)
        assert code == 1 and rep["status"] == "invalid_params", rep
        assert f"over the limit of {MAX_ENTRIES}" in rep["error"]


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "superop"])  # missing output path
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", "x.json", "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    # numeric flags out of range are usage errors too: a report would echo an
    # invalid tolerance (the schema wants tol_rel > 0)
    bad_flags = [("--tol", "0"), ("--tol", "nan"), ("--tol", "-1e-9"), ("--tol", "inf"),
                 ("--tol-abs", "-1"), ("--tol-abs", "0")]
    argvs = [["check", "x.json", *flag] for flag in bad_flags]
    argvs += [["check", "x.json", "--sampled", "0"], ["check", "x.json", "--sampled", "-5"]]
    argvs += [["decompose", "x.json", "--tol", "0"], ["gen", "superop", "x.json", "--tol", "nan"],
              ["roundtrip", "--tol", "-1"], ["roundtrip", "--tol-abs", "nan"]]
    # a roundtrip over no sizes would report a wrong reason for running no cases
    argvs += [["roundtrip", "--max-n", "0"], ["roundtrip", "--max-k", "0"],
              ["roundtrip", "--max-n", "-3"], ["roundtrip", "--seeds", "-2"],
              ["roundtrip", "--max-n", "0", "--max-k", "0", "--seeds", "5"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, argv


class TestRepeatedMain:
    """main parses with one parser per process; calls must not share state."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sampled_check_then_plain_check(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2, "--seed", 4)
        code, rep = run_cli(capsys, "check", inst, "--sampled", 50, "--seed", 3)
        assert code == 0 and rep["sampled_status"] == "separating" and rep["seed"] == 3
        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "biseparating"
        assert "sampled_status" not in rep and rep["seed"] == 0

    def test_gen_defaults_after_explicit_flags(self, tmp_path, capsys):
        first, second, plain = (tmp_path / f"{name}.json" for name in ("a", "b", "c"))
        run_cli(capsys, "gen", "superop", first, "--n", 3, "--seed", 2, "--alpha", 3, 4,
                "--field", "complex")
        run_cli(capsys, "gen", "superop", second, "--n", 2)
        code = main(["gen", "superop", str(plain)])
        capsys.readouterr()
        assert code == 0 and second.read_bytes() == plain.read_bytes()

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "superop", str(inst), "--n", "two"])
        assert exc.value.code == 1 and not inst.exists()
        capsys.readouterr()
        code, rep = run_cli(capsys, "gen", "superop", inst, "--n", 2)
        assert code == 0 and rep["status"] == "ok"
        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "biseparating"

    def test_command_replaced_after_the_first_call_runs(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "gen", "superop", inst, "--n", 2)
        run_cli(capsys, "check", inst)

        def replaced(args, report):
            report["status"] = "replaced"
            return 0

        monkeypatch.setattr(cli, "cmd_check", replaced)
        code, rep = run_cli(capsys, "check", inst)
        assert code == 0 and rep["status"] == "replaced"


def test_reports_round_trip_through_json(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen", "superop", inst, "--n", 2, "--seed", 11)
    code = main(["decompose", str(inst)])
    text = capsys.readouterr().out
    parsed = json.loads(text)
    from bisep.instancefile import dumps

    assert json.loads(dumps(parsed)) == parsed


def test_console_entry_point(tmp_path):
    inst = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bisep.cli", "gen", "superop", str(inst), "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert inst.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "bisep.cli", "check", str(inst)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "biseparating"


@pytest.mark.parametrize("kind", ["superop", "big_superop"])
def test_decompose_reports_the_recovered_residual(tmp_path, capsys, kind):
    # decompose reports the residual its recovery measured, bit for bit what
    # verify_form / verify_pointwise compute
    from bisep import recover_conjugation, recover_pointwise, verify_form, verify_pointwise
    from bisep.instancefile import load_instance

    inst = tmp_path / "inst.json"
    run_cli(capsys, "gen", kind, inst, "--n", 3, "--k", 3, "--seed", 4, "--field", "complex")
    code, rep = run_cli(capsys, "decompose", inst)
    assert code == 0
    T = load_instance(str(inst))
    if kind == "superop":
        assert rep["residual"] == verify_form(T, recover_conjugation(T))
    else:
        assert rep["residual"] == verify_pointwise(T, recover_pointwise(T))
