"""Spans around bisep's cross-module calls, recorded from the benchmark's side.

``Tracer`` replaces each traced function at every place a bisep module looks
it up (``bisep.cli.is_biseparating``, ``bisep.funcalg.is_separating_exact``,
``invert`` in ``superop``, ``funcalg`` and ``structure``, ...) with a wrapper
that records a span: name, start, end, parent span and command id.  Spans
stay in memory until the run ends.  The originals are put back after every
command, so untraced commands run bisep's code unchanged.
"""

import contextlib
import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "instancefile", "separating", "superop", "linalg", "structure", "funcalg",
          "harness")
SPANS = (
    "cli.cmd_check", "cli.cmd_decompose", "cli.cmd_gen",
    "instancefile.load_instance", "instancefile.save_instance", "instancefile.dumps",
    "instancefile.counterexample_to_json",
    "separating.is_biseparating", "separating.is_separating_exact",
    "separating.is_separating_sampled",
    "superop.inverse", "superop.apply",
    "linalg.invert",
    "structure.recover_conjugation", "structure.verify_form",
    "funcalg.is_separating_fn", "funcalg.inverse_fn", "funcalg.is_strictly_separating",
    "funcalg.recover_pointwise", "funcalg.verify_pointwise",
    "harness.gen_conjugation", "harness.gen_pointwise", "harness.perturb",
)
MEMORY_SPANS = ("separating.is_separating_exact", "instancefile.load_instance")
EXACT = "separating.is_separating_exact"

# (name, unit, better) of every per-layer metric, in print order
DERIVED = (
    ("separating.is_separating_exact.peak_mb", "MB", "lower"),
    ("instancefile.load_instance.peak_mb", "MB", "lower"),
    ("separating.certificate_yield", "ratio", "higher"),
    ("funcalg.same_point_useful_frac", "ratio", "higher"),
    ("instancefile.parse_mb_per_s", "MB/s", "higher"),
    ("instancefile.emit_mb_per_s", "MB/s", "higher"),
    ("tracing_overhead_frac", "ratio", "lower"),
)
PER_LAYER = tuple(
    (f"{span}.{stat}", unit, "lower")
    for span in SPANS
    for stat, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))
) + DERIVED

# span record fields
NAME, START, END, PARENT, CMD, NOTE = range(6)


def _targets(names):
    """Map the id of each traced function to its span name."""
    out = {}
    for name in names:
        module, attr = name.split(".")
        out[id(getattr(importlib.import_module(f"bisep.{module}"), attr))] = name
    return out


def _sites(names):
    """(module, attribute, layer of the caller, span name) for every lookup site."""
    targets = _targets(names)
    sites = []
    for layer in LAYERS:
        module = importlib.import_module(f"bisep.{layer}")
        for attr, value in vars(module).items():
            if id(value) in targets:
                sites.append((module, attr, layer, targets[id(value)]))
    return sites


class _Patched:
    """Installs wrappers at every site for the duration of a ``with`` block."""

    def __init__(self, names):
        self._sites = _sites(names)
        self._wrappers = [self._wrap(getattr(m, a), layer, name)
                          for m, a, layer, name in self._sites]

    @contextlib.contextmanager
    def installed(self):
        originals = [getattr(m, a) for m, a, _, _ in self._sites]
        try:
            for (module, attr, _, _), wrapper in zip(self._sites, self._wrappers):
                setattr(module, attr, wrapper)
            yield
        finally:
            for (module, attr, _, _), fn in zip(self._sites, originals):
                setattr(module, attr, fn)


class Tracer(_Patched):
    """Records one span per call of a traced function, with its parent and command."""

    def __init__(self):
        self.spans = []
        self.cmd = None
        self._stack = []
        super().__init__(SPANS)

    def command(self, cmd_id):
        """Context manager: trace the calls made inside it as command ``cmd_id``."""
        self.cmd = cmd_id
        return self.installed()

    def _wrap(self, fn, caller, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _note_for(fn, caller, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cmd, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper


class MemoryTracer(_Patched):
    """Records the tracemalloc peak inside each call of the MEMORY_SPANS."""

    def __init__(self):
        self.peaks = defaultdict(int)
        super().__init__(MEMORY_SPANS)

    def _wrap(self, fn, caller, name):
        peaks = self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper


def _note_for(fn, caller, name):
    """What a span of ``name`` records beyond its times, or None."""
    if name in ("instancefile.load_instance", "instancefile.save_instance"):
        return lambda args, kwargs, result: os.path.getsize(args[0])  # file bytes
    if name != EXACT:
        return None
    signature = inspect.signature(fn)

    def note(args, kwargs, result):
        certificate = result.counterexample is not None
        if caller != "funcalg":
            return certificate, None
        # same-point block check: every entry of T(E_ia) T(E_bl), and every
        # difference of two diagonal ones, is at most 2 ||T||_F^2, so a block
        # within the threshold there cannot produce a violation
        bound = signature.bind(*args, **kwargs).arguments
        block = bound["T"]
        cfg = bound.get("cfg") or block.cfg
        mass = float(np.linalg.norm(block.mat))
        scale = bound.get("scale")
        useful = 2 * mass**2 > cfg.threshold(0.0 if scale is None else scale)
        return certificate, useful

    return note


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans, peaks, overhead_frac):
    """Every per-layer metric, from the spans of a traced run."""
    selfs = self_times(spans)
    values = {}
    for name in SPANS:
        values[f"{name}.calls"] = 0
        values[f"{name}.ms"] = 0.0
        values[f"{name}.self_ms"] = 0.0
    file_bytes = defaultdict(int)
    certificates = candidates = useful = same_point = 0
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        values[f"{name}.calls"] += 1
        values[f"{name}.ms"] += (s[END] - s[START]) * 1e3
        values[f"{name}.self_ms"] += self_s * 1e3
        if name in ("instancefile.load_instance", "instancefile.save_instance"):
            file_bytes[name] += s[NOTE]
        elif name == EXACT:
            certificates += s[NOTE][0]
            if s[NOTE][1] is not None:
                same_point += 1
                useful += s[NOTE][1]
        elif name == "superop.apply" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == EXACT:
            candidates += 0.5  # a candidate pair is two apply calls
    for name in MEMORY_SPANS:
        values[f"{name}.peak_mb"] = peaks.get(name, 0) / 2**20
    values["separating.certificate_yield"] = certificates / candidates if candidates else 0.0
    values["funcalg.same_point_useful_frac"] = useful / same_point if same_point else 0.0
    for metric, span in (("instancefile.parse_mb_per_s", "instancefile.load_instance"),
                         ("instancefile.emit_mb_per_s", "instancefile.save_instance")):
        ms = values[f"{span}.ms"]
        values[metric] = file_bytes[span] / 2**20 / (ms / 1e3) if ms else 0.0
    values["tracing_overhead_frac"] = overhead_frac
    return values


def size_table(spans, size_of):
    """Lines of per-kernel times grouped by (kind, field, n, k).

    ``size_of(cmd_id)`` gives a command's size key, or None to leave it out.
    """
    selfs = self_times(spans)
    groups = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for s, self_s in zip(spans, selfs):
        key = size_of(s[CMD])
        if key is None:
            continue
        row = groups[key][s[NAME]]
        row[0] += 1
        row[1] += (s[END] - s[START]) * 1e3
        row[2] += self_s * 1e3
    lines = [f"{'kind':<12}{'field':<8}{'n':>3}{'k':>4}  {'span':<38}"
             f"{'calls':>7}{'ms':>11}{'self_ms':>11}{'ms/call':>10}"]
    for key in sorted(groups, key=lambda kf: tuple(-1 if v is None else v for v in kf)):
        kind, field, n, k = key
        for name in SPANS:
            if name in groups[key]:
                calls, ms, self_ms = groups[key][name]
                lines.append(f"{kind:<12}{field:<8}{n:>3}{'-' if k is None else k:>4}  "
                             f"{name:<38}{calls:>7}{ms:>11.2f}{self_ms:>11.2f}"
                             f"{ms / calls:>10.3f}")
    return lines


def layer_shares(spans, keep):
    """Self time per layer as a share of the self time of the commands ``keep`` accepts."""
    totals = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        if keep(s[CMD]):
            totals[s[NAME].split(".")[0]] += self_s
    whole = sum(totals.values()) or 1.0
    return {layer: totals[layer] / whole for layer in LAYERS}
