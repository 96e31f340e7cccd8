"""The benchmark's own tests.  Run with ``python -m pytest perfbench``.

They start the benchmark as a subprocess from the repository root, with a short
``--seconds``; the whole file takes a few minutes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, key):
    result = result_of(run_bench("file_io", 3, trace))
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["file_io", "superop_neg"])
def test_same_seed_repeats_counts_and_failures(workload):
    first, second = (result_of(run_bench(workload, 5, 1)) for _ in range(2))
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert any(calls[0].values())
    for key in ("attempted", "failed"):
        assert first[key] == second[key]


def test_workload_list_depends_on_seed_only():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, s) for s in (7, 7, 8))
        assert a == b
        assert a[0] != c[0]


def test_every_workload_puts_ten_commands_beyond_p90():
    import bench

    for name in workloads.WORKLOADS:
        assert len(workloads.build(name, 1)[1]) > bench.MIN_COMMANDS


def test_memory_guard_names_the_oversized_instance():
    _, commands, _ = workloads.build("superop_pos", 1)
    workloads.check_memory_budget("superop_pos", commands)
    big = workloads.Instance("pos_real16_0", "superop", "real", 16, None, 1)
    with pytest.raises(workloads.MemoryBudgetError, match="pos_real16_0"):
        workloads.check_memory_budget("superop_pos", commands + [workloads.Command("check", big)])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("file_io", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture()
def checked(tmp_path):
    """Run one bisep command in-process and hand its report to the Checker."""
    sys.path.insert(0, str(ROOT / "src"))
    from bisep import cli

    import bench

    checker = answers.Checker(bench.report_validator(), None, tmp_path)

    def run(cmd, edit=None):
        for step in [cmd.inst.gen_argv(tmp_path), cmd.argv(tmp_path)]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(step)
        report = json.loads(out.getvalue())
        if edit is not None:
            edit(report)
        return checker.check(cmd, code, json.dumps(report))

    return run


def test_checker_accepts_right_answers_and_rejects_wrong_ones(checked):
    pert = workloads.Instance("pert", "superop", "real", 4, None, 3, "perturb:0.001")
    pos = workloads.Instance("pos", "superop", "complex", 4, None, 3)
    mix = workloads.Instance("mix", "big_superop", "real", 2, 4, 3, "mixing")
    assert checked(workloads.Command("check", pert)) is None
    assert checked(workloads.Command("decompose", pos)) is None
    assert checked(workloads.Command("check", mix)) is None

    def zero_b(report):
        report["counterexample"]["B"] = [[0.0] * 4 for _ in range(4)]

    def shift_alpha(report):
        report["alpha"][0] += 1e-6

    def drop_point(report):
        report["counterexample"]["point"] = "nowhere"

    def flip_status(report):
        report["status"] = "biseparating"

    assert "within the threshold" in checked(workloads.Command("check", pert), zero_b)
    assert "alpha" in checked(workloads.Command("decompose", pos), shift_alpha)
    assert checked(workloads.Command("check", mix), drop_point) is not None
    assert checked(workloads.Command("check", pert), flip_status) is not None
