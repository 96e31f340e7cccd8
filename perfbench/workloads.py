"""The workloads: seeded instance ladders and the CLI commands run on them.

A workload is a fixed list of ``bisep`` CLI invocations over instance files
the benchmark generates from its seed.  Sizes are constants.  The seed picks
the matrix contents, which of the same-size instances gets ``check --sampled``,
and the command order, so every seed gives a pass with the same cost mix.
"""

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("superop_pos", "superop_neg", "file_io")

# The exact checker builds a tensor of n^4 m^2 entries (n = m here).  On a
# perturbed map its peak RSS is about 13x that tensor: 1.7 GB at n = 16,
# 3.4 GB at n = 18 and 6.0 GB at n = 20 (real field).  64 MiB admits real
# n = 14 and complex n = 10 and keeps a run below about 0.8 GB, which a shared
# machine with 8 GB and no swap can carry.
TENSOR_BUDGET_BYTES = 64 * 2**20

SAMPLED_TRIALS = 2000
# One row per size: field, n, seeded conjugations in superop_pos, perturbed
# maps in superop_neg (beside one transpose), their perturbation eps, and
# whether one seeded instance of the size also gets `check --sampled`.  More
# of the cheap sizes than of the dear ones, so that a pass holds over 120
# commands (ten or more beyond op_ms_p90) in about 4 s, and a run holds
# several passes.  The counts put op_ms_p90 inside a group of like checks
# whose times vary little with the seed: real n = 10 in superop_pos, real and
# complex n = 10 in superop_neg.  At eps = 1e-5 a perturbed real n = 10 check
# takes anywhere from 55 to 120 ms; at 1e-4 it varies much less.  The
# largest real size gets the largest eps, whose many violations make the
# checker's memory peak.  The eps ladder stops at 1e-6: at 1e-7 a
# perturbation of that Frobenius norm spreads over n^4 entries and falls
# inside tol_rel * scale for some seeds at n >= 10, so `check` reports some of
# those maps biseparating and the answer is not known.
SUPEROP_LADDER = (
    ("real", 8, 19, 16, 1e-6, True),
    ("real", 10, 7, 7, 1e-4, True),
    ("real", 12, 2, 2, 1e-4, False),
    ("real", 14, 1, 1, 1e-3, False),
    ("complex", 6, 21, 18, 1e-5, True),
    ("complex", 8, 10, 7, 1e-4, True),
    ("complex", 10, 3, 2, 1e-3, True),
)
# (n, files) for `gen superop`, and (k, n, files) for dense perturbed
# `gen big_superop`; each file is read back by one command.
FILE_IO_SUPEROP = ((10, 21), (12, 8), (14, 3))
FILE_IO_BIG = ((16, 2, 19), (24, 2, 8), (32, 2, 3))
FILE_IO_EPS = "perturb:0.001"
# One small positive block map, so that the full pointwise path (every block
# pair of is_separating_fn, inverse_fn, strict separation, recover_pointwise)
# runs in file_io while the JSON layer still dominates its time.
FILE_IO_POINTWISE = (8, 2)


class MemoryBudgetError(Exception):
    """A workload's largest exact check would not fit the memory budget."""


@dataclass(frozen=True)
class Instance:
    """One generated map: what ``bisep gen`` is asked for."""

    name: str
    kind: str  # "superop" or "big_superop"
    field: str
    n: int
    k: int | None  # points per side for big_superop
    seed: int
    negative: str | None = None  # None, "transpose", "mixing" or "perturb:EPS"

    @property
    def positive(self):
        return self.negative is None

    @property
    def size_key(self):
        return (self.kind, self.field, self.n, self.k)

    def path(self, workdir):
        return str(workdir / f"{self.name}.json")

    def gen_argv(self, workdir):
        argv = ["gen", self.kind, self.path(workdir), "--n", str(self.n),
                "--seed", str(self.seed), "--field", self.field]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        if self.negative is not None:
            argv += ["--negative", self.negative]
        return argv


@dataclass(frozen=True)
class Command:
    """One CLI call: ``verb`` is check, decompose or gen."""

    verb: str
    inst: Instance
    sampled_seed: int | None = None

    def argv(self, workdir):
        if self.verb == "gen":
            return self.inst.gen_argv(workdir)
        argv = [self.verb, self.inst.path(workdir)]
        if self.sampled_seed is not None:
            argv += ["--sampled", str(SAMPLED_TRIALS), "--seed", str(self.sampled_seed)]
        return argv


def _superop_pos(draw, pick):
    units = []
    for field, n, count, _, _, sampled in SUPEROP_LADDER:
        same_size = [Instance(f"pos_{field}{n}_{t}", "superop", field, n, None, draw())
                     for t in range(count)]
        for inst in same_size:
            units += [[Command("check", inst)], [Command("decompose", inst)]]
        if sampled:
            units.append([Command("check", same_size[pick(count)], sampled_seed=draw())])
    return units


def _superop_neg(draw, pick):
    units = []
    for field, n, _, count, eps, sampled in SUPEROP_LADDER:
        perturbed = [Instance(f"pert_{field}{n}_{t}", "superop", field, n, None, draw(),
                              f"perturb:{eps:g}") for t in range(count)]
        transpose = Instance(f"tr_{field}{n}", "superop", field, n, None, 0, "transpose")
        for inst in (transpose, *perturbed):
            units += [[Command("check", inst)], [Command("decompose", inst)]]
        if sampled:
            units.append([Command("check", perturbed[pick(count)], sampled_seed=draw())])
    return units


def _file_io(draw, pick):
    # each file is written by `gen` in the pass and then read, so the pair
    # moves through the shuffle as one unit
    units = []
    for n, count in FILE_IO_SUPEROP:
        for t in range(count):
            inst = Instance(f"io_n{n}_{t}", "superop", "real", n, None, draw())
            units.append([Command("gen", inst), Command("decompose", inst)])
    for k, n, count in FILE_IO_BIG:
        for t in range(count):
            inst = Instance(f"io_k{k}n{n}_{t}", "big_superop", "real", n, k, draw(),
                            FILE_IO_EPS)
            units.append([Command("gen", inst), Command("check", inst)])
    k, n = FILE_IO_POINTWISE
    inst = Instance(f"io_pos_k{k}n{n}", "big_superop", "real", n, k, draw())
    units.append([Command("gen", inst), Command("check", inst), Command("decompose", inst)])
    return units


_UNIT_LISTS = {"superop_pos": _superop_pos, "superop_neg": _superop_neg, "file_io": _file_io}


def build(workload, seed):
    """Instances, the ordered commands of one pass, and the warm-up command.

    The warm-up is the same kind of command on the same size for every seed.
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    units = _UNIT_LISTS[workload](lambda: int(rng.integers(2**31)), lambda m: int(rng.integers(m)))
    commands = [cmd for i in rng.permutation(len(units)) for cmd in units[i]]
    instances = list(dict.fromkeys(cmd.inst for cmd in commands))
    return instances, commands, units[0][0]


def exact_tensor_bytes(inst):
    """Bytes of the exact checker's n^4 m^2 tensor (per block for big_superop)."""
    itemsize = 16 if inst.field == "complex" else 8
    return inst.n**6 * itemsize


def check_memory_budget(workload, commands):
    """Refuse a workload whose largest checked instance is over budget."""
    checked = [cmd.inst for cmd in commands if cmd.verb == "check"]
    if not checked:
        return
    worst = max(checked, key=exact_tensor_bytes)
    size = exact_tensor_bytes(worst)
    if size > TENSOR_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"workload {workload!r}: instance {worst.name!r} ({worst.field}, n={worst.n}) "
            f"needs a {size / 2**20:.1f} MiB exact-checker tensor, over the "
            f"{TENSOR_BUDGET_BYTES / 2**20:.0f} MiB budget"
        )
