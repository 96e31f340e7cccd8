"""One run of one workload: set-up, the measured pass, answer checks, metrics.

Every command is an in-process ``bisep.cli.main(argv)`` call, so interpreter
start-up is not counted.  The load is a closed loop: one client, one process,
the next command starts when the previous one returns.

``--trace 0`` runs as many whole passes over the command list as fit in
``--seconds`` of the commands' own time, at least MIN_PASSES, and prints the
end-to-end metrics.  It sets up afresh (instance generation, file writing
and one warm-up command) before the first pass and before the first pass after
each SETUPS-th part of ``--seconds``, and after the last pass as often as
that left it short of SETUPS; ``setup_s`` is the median of these set-ups.

The latency and throughput metrics come from each command's fastest time
across the passes: on a shared host a busy neighbour can make every command
up to twice as slow for seconds or minutes, and the fastest of several passes
is nearest the time the command itself needs.  ``ops_per_s`` is the commands
of a pass over the sum of their fastest times.  ``op_ms_p50`` and
``op_ms_p90`` are Harrell-Davis estimates of those quantiles of the fastest
times: a weighted mean of all of them, heaviest near the quantile, which moves
smoothly when one command's time crosses a gap between groups of like
commands, where the plain median would jump from one group to the next.
Every workload has over MIN_COMMANDS commands, so ten or more lie beyond
op_ms_p90.

``--trace 1`` sets up once, traced, then runs ``--seconds // 20`` rounds (at
least one) in which each command runs untraced and then traced, and one last
round under tracemalloc for the memory peaks.  The command list is fixed, so
a seed repeats every span count.  It prints the per-layer metrics, a
per-size kernel table and each layer's share of self time, and writes the
spans to ``.bench_work/trace-<workload>-seed<seed>.json``.

Every report is validated against ``schemas/report.schema.json`` and every
command's answer is checked (answers.py), outside the measured time.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

import answers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SCHEMA = ROOT / "schemas" / "report.schema.json"
MIN_COMMANDS = 120  # op_ms_p90 needs ten commands beyond it
MIN_PASSES = 3
SETUPS = 3
TRACE_ROUND_SECONDS = 20
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_bisep():
    """bisep's cli and harness, imported from this checkout's sources."""
    if not (ROOT / "src" / "bisep" / "__init__.py").is_file() or not SCHEMA.is_file():
        raise BenchError(f"{ROOT} holds no bisep sources (src/bisep, schemas/); "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    from bisep import cli, config, harness

    return cli, config, harness


def report_validator():
    try:
        import jsonschema
    except ImportError as exc:
        raise BenchError("the report check needs the jsonschema package") from exc
    schema = json.loads(SCHEMA.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def environment():
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(f"{dep.get('name')} {dep.get('version')} "
                        f"{dep.get('openblas configuration', '')}".split())
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "numpy": np.__version__, "blas": blas}


def execute(main, argv):
    """Run one CLI command in-process: (exit code or error text, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a command that raises is a failed command
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


class Workload:
    """A workload's instances, commands and answer checks for one seed."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.instances, self.commands, self.warmup = workloads.build(name, seed)
        workloads.check_memory_budget(name, self.commands)
        self.cli, self.config, self.harness = import_bisep()
        self.workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.checker = answers.Checker(report_validator(), self._expected_map, self.workdir)
        self._maps = {}
        self.attempted = 0
        self.failures = []

    def _expected_map(self, inst):
        """The map ``gen`` builds in memory for a positive or perturbed instance."""
        if inst not in self._maps:
            cfg = self.config.FieldConfig(field=inst.field)
            if inst.kind == "superop":
                built = self.harness.gen_conjugation(inst.n, inst.seed, cfg=cfg).map
            else:
                built = self.harness.gen_pointwise(inst.k, inst.n, inst.seed, cfg).map
            if inst.negative is not None:
                eps = float(inst.negative.split(":", 1)[1])
                built = self.harness.perturb(built, eps, inst.seed)
            self._maps[inst] = built.mat if inst.kind == "superop" else built.blocks
        return self._maps[inst]

    def set_up(self):
        """Generate every instance file and run one warm-up command; seconds taken."""
        start = time.perf_counter()
        for inst in self.instances:
            argv = inst.gen_argv(self.workdir)
            code, out, _ = execute(self.cli.main, argv)
            if code != 0:
                raise BenchError(f"set-up `bisep {' '.join(argv)}` gave {code}: {out[:300]}")
        execute(self.cli.main, self.warmup.argv(self.workdir))
        return time.perf_counter() - start

    def run(self, cmd):
        """Run and check one command of the pass; its seconds."""
        code, out, seconds = execute(self.cli.main, cmd.argv(self.workdir))
        self.attempted += 1
        if isinstance(code, str):
            reason = code
        else:
            reason = self.checker.check(cmd, code, out)
        if reason is not None:
            self.failures.append(f"bisep {' '.join(cmd.argv(self.workdir))}: {reason}")
        return seconds

    def result(self, metrics, units):
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the p-quantile of ``values``."""
    x = np.sort(values)
    n = len(x)
    edges = special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def timed_run(wl, seconds):
    setups, passes = [], []
    spent = 0.0
    # stop before a pass that would run past --seconds
    while len(passes) < MIN_PASSES or spent * (len(passes) + 1) / len(passes) <= seconds:
        if len(setups) < SETUPS and spent >= len(setups) * seconds / SETUPS:
            setups.append(wl.set_up())
        passes.append([wl.run(cmd) for cmd in wl.commands])
        spent += sum(passes[-1])
    while len(setups) < SETUPS:
        setups.append(wl.set_up())
    fastest = [min(cmd_times) for cmd_times in zip(*passes)]
    metrics = {
        "ops_per_s": len(fastest) / sum(fastest),
        "op_ms_p50": harrell_davis(fastest, 0.5) * 1e3,
        "op_ms_p90": harrell_davis(fastest, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    beyond = sum(t > metrics["op_ms_p90"] / 1e3 for t in fastest)
    notes = {"ops_per_s": f"{len(fastest)} commands' fastest of {len(passes)} passes",
             "op_ms_p90": f"{beyond} of {len(fastest)} commands beyond it",
             "setup_s": f"median of {len(setups)} set-ups"}
    print(f"# {wl.name} seed={wl.seed}: {len(passes) * len(fastest)} commands in "
          f"{spent:.2f} s of command time, {len(passes)} passes")
    for name, unit in END_TO_END:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<14}{metrics[name]:>12.4f} {unit}{note}")
    print(f"{'failed_frac':<14}{len(wl.failures) / wl.attempted:>12.4f} ratio  "
          f"({len(wl.failures)} of {wl.attempted})")
    return wl.result(metrics, dict(END_TO_END))


def traced_run(wl, seconds):
    tracer = tracing.Tracer()
    with tracer.command("setup"):
        wl.set_up()
    sizes = {}
    untraced = traced = 0.0
    for r in range(max(1, int(seconds // TRACE_ROUND_SECONDS))):
        for i, cmd in enumerate(wl.commands):
            untraced += wl.run(cmd)
            cmd_id = f"{r}:{i}"
            sizes[cmd_id] = cmd.inst.size_key
            with tracer.command(cmd_id):
                traced += wl.run(cmd)
    memory = tracing.MemoryTracer()
    for cmd in wl.commands:
        with memory.installed():
            wl.run(cmd)
    metrics = tracing.layer_metrics(tracer.spans, memory.peaks, 1.0 - untraced / traced)

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"trace-{wl.name}-seed{wl.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": wl.name, "seed": wl.seed,
        "fields": ["name", "start", "end", "parent", "command"],
        "commands": {cid: list(key) for cid, key in sizes.items()},
        "spans": [s[:5] for s in tracer.spans],
    }))
    print(f"# {wl.name} seed={wl.seed}: {len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    print("# per-size kernel times over the traced commands")
    for line in tracing.size_table(tracer.spans, sizes.get):
        print("#  " + line)
    shares = tracing.layer_shares(tracer.spans, sizes.__contains__)
    print("# layer share of traced self time: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, unit, _ in tracing.PER_LAYER:
        print(f"{name:<44}{metrics[name]:>14.4f} {unit}")
    print(f"{'failed_frac':<44}{len(wl.failures) / wl.attempted:>14.4f} ratio  "
          f"({len(wl.failures)} of {wl.attempted})")
    return wl.result(metrics, units)


def run_one(name, seed, seconds, trace):
    wl = Workload(name, seed)
    wl.workdir.mkdir(parents=True, exist_ok=True)
    try:
        print("# env " + json.dumps(environment()))
        result = traced_run(wl, seconds) if trace else timed_run(wl, seconds)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    for failure in wl.failures[:10]:
        print(f"# FAILED {failure}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh process; one combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=4 * args.seconds + 120)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the bisep command line.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_one(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, workloads.MemoryBudgetError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
