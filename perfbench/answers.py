"""Known-answer checks for every command, made with plain json and numpy.

Instance files, truth files and reports are parsed with ``json``; nothing
here calls bisep's reader or checker.  Counterexamples are re-verified on the
instance matrix, recovered forms are compared with the generator's
``.truth.json``, and each file ``gen`` writes is compared bit for bit with the
map the generator builds in memory.
"""

import json
import math

import numpy as np

TRUTH_TOL = 1e-8
RECOVERY_STEPS = {
    "not_rank_one_preserving", "not_factorizable", "not_invertible_s", "not_standard_form",
    "not_local", "phi_not_bijective", "degenerate_map", "dimension_mismatch",
}
FAILED_STATUSES = {"not_separating", "not_strictly_separating"}


def _array(rows, field):
    """JSON matrix to an array, bit-exact (complex entries are [re, im] pairs)."""
    raw = np.asarray(rows, dtype=np.float64)
    if field != "complex":
        return raw
    out = raw[..., 0].astype(np.complex128)
    out.imag = raw[..., 1]
    return out


def _scalar(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _frob(A):
    return float(np.linalg.norm(A))


def read_instance(path):
    """The map in a file: ``mat`` (m^2, n^2) or ``blocks`` (k2, k1, m^2, n^2)."""
    with open(path) as fh:
        obj = json.load(fh)
    field, n, m = obj["field"], obj["n_in"], obj["n_out"]
    inst = {"kind": obj["kind"], "field": field, "n": n, "m": m}
    if obj["kind"] == "superop":
        inst["mat"] = _array(obj["matrix"], field)
        return inst
    pin, pout = obj["points_in"], obj["points_out"]
    blocks = np.zeros((len(pout), len(pin), m * m, n * n),
                      dtype=np.complex128 if field == "complex" else np.float64)
    for key, rows in obj["blocks"].items():
        y, x = key.split("/")
        blocks[pout.index(y), pin.index(x)] = _array(rows, field)
    inst.update(points_in=pin, points_out=pout, blocks=blocks)
    return inst


def _threshold(tolerances, scale):
    return tolerances["tol_abs"] + tolerances["tol_rel"] * scale


def _apply(mat, A, m):
    """unvec(mat @ vec(A)) with column-major vec."""
    return (mat @ A.reshape(-1, order="F")).reshape(m, m, order="F")


def _apply_fn(blocks, F, m):
    """Image of a function (k1, n, n) under a block map: (k2, m, m)."""
    vecs = F.transpose(0, 2, 1).reshape(F.shape[0], -1)
    out = np.einsum("yxab,xb->ya", blocks, vecs)
    return out.reshape(blocks.shape[0], m, m).transpose(0, 2, 1)


def _inverse_blocks(blocks):
    k2, k1, m2, n2 = blocks.shape
    flat = blocks.transpose(0, 2, 1, 3).reshape(k2 * m2, k1 * n2)
    return np.linalg.inv(flat).reshape(k1, n2, k2, m2).transpose(0, 2, 1, 3)


def _verify_superop_ce(inst, report):
    mat = inst["mat"]
    if report.get("direction") == "inverse":
        mat = np.linalg.inv(mat)
    ce = report["counterexample"]
    A, B = _array(ce["A"], inst["field"]), _array(ce["B"], inst["field"])
    tol = report["tolerances"]
    if _frob(A @ B) > _threshold(tol, _frob(A) * _frob(B)):
        return "counterexample A.B is not zero"
    scale = float(np.linalg.norm(mat, axis=0).max()) ** 2  # largest basis image, squared
    m = math.isqrt(mat.shape[0])
    if _frob(_apply(mat, A, m) @ _apply(mat, B, m)) <= _threshold(tol, scale):
        return "counterexample T(A).T(B) is within the threshold"
    return None


def _function(obj, labels, field):
    if obj["points"] != labels:
        raise ValueError(f"function points {obj['points']} are not the map's {labels}")
    return np.stack([_array(obj["values"][lab], field) for lab in labels])


def _verify_big_ce(inst, report):
    blocks, labels_in, labels_out = inst["blocks"], inst["points_in"], inst["points_out"]
    if report.get("direction") == "inverse":
        blocks = _inverse_blocks(blocks)
        labels_in, labels_out = labels_out, labels_in
    ce = report["counterexample"]
    F1 = _function(ce["F1"], labels_in, inst["field"])
    F2 = _function(ce["F2"], labels_in, inst["field"])
    tol = report["tolerances"]
    top = lambda F: float(np.linalg.norm(F, axis=(1, 2)).max())  # noqa: E731
    if top(F1 @ F2) > _threshold(tol, top(F1) * top(F2)):
        return "counterexample F1.F2 is not zero"
    y = labels_out.index(ce["point"])
    G1, G2 = _apply_fn(blocks, F1, inst["m"])[y], _apply_fn(blocks, F2, inst["m"])[y]
    scale = float(np.linalg.norm(blocks, axis=2).max()) ** 2
    if report["status"] == "not_separating":
        violation = _frob(G1 @ G2)
    else:  # strict separation fails: the two images share the output point
        violation = _frob(G1) * _frob(G2)
    if violation <= _threshold(tol, scale):
        return f"counterexample images at {ce['point']!r} are within the threshold"
    return None


def _close(got, want):
    return abs(got - want) <= TRUTH_TOL * abs(want)


def _close_matrix(got, want):
    return _frob(got - want) <= TRUTH_TOL * _frob(want)


class Checker:
    """Judges each command's exit code and report against the known answer.

    ``expected_map(inst)`` returns the array ``gen`` must have written for an
    instance (``mat`` or ``blocks``), built in memory by the generator.
    """

    def __init__(self, validator, expected_map, workdir):
        self.validator = validator
        self.expected_map = expected_map
        self.workdir = workdir
        self._instances = {}

    def _instance(self, inst):
        path = inst.path(self.workdir)
        if path not in self._instances:
            self._instances[path] = read_instance(path)
        return self._instances[path]

    def check(self, cmd, code, stdout):
        """None when the command got the known answer, else the reason it did not."""
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"exit {code}: stdout is not one JSON report"
        error = next(self.validator.iter_errors(report), None)
        if error is not None:
            return f"report breaks the schema: {error.message}"
        if report["command"] != cmd.verb:
            return f"report is for command {report['command']!r}"
        try:
            return getattr(self, "_" + cmd.verb)(cmd.inst, code, report, cmd.sampled_seed)
        except (OSError, KeyError, ValueError, TypeError, IndexError, np.linalg.LinAlgError) as exc:
            return f"report cannot be checked: {type(exc).__name__}: {exc}"

    def _check(self, inst, code, report, sampled_seed):
        status = report["status"]
        if inst.positive:
            if code != 0 or status != "biseparating":
                return f"positive instance: exit {code}, status {status!r}"
            if inst.kind == "big_superop" and report.get("strictly_separating") is not True:
                return "positive block map is not reported strictly separating"
            if sampled_seed is not None and report.get("sampled_status") != "separating":
                return f"sampled check says {report.get('sampled_status')!r}"
            return None
        if code != 2 or status not in FAILED_STATUSES:
            return f"negative instance: exit {code}, status {status!r}"
        if "counterexample" not in report:
            return "negative verdict without a counterexample"
        inst_data = self._instance(inst)
        if inst.kind == "superop":
            return _verify_superop_ce(inst_data, report)
        return _verify_big_ce(inst_data, report)

    def _decompose(self, inst, code, report, sampled_seed):
        status = report["status"]
        if not inst.positive:
            if code != 2 or status not in RECOVERY_STEPS:
                return f"negative instance: exit {code}, status {status!r}"
            return None
        if code != 0 or status != "ok":
            return f"positive instance: exit {code}, status {status!r}"
        truth_path = inst.path(self.workdir)[: -len(".json")] + ".truth.json"
        with open(truth_path) as fh:
            truth = json.load(fh)
        field = inst.field
        if inst.kind == "superop":
            if not _close(_scalar(report["alpha"]), _scalar(truth["alpha"])):
                return "recovered alpha is off the truth"
            if not _close_matrix(_array(report["S"], field), _array(truth["S"], field)):
                return "recovered S is off the truth"
            return None
        if report["phi"] != truth["phi"]:
            return "recovered phi differs from the truth"
        for lab in truth["phi"]:
            if not _close(_scalar(report["alpha"][lab]), _scalar(truth["alpha"][lab])):
                return f"recovered alpha at {lab!r} is off the truth"
            if not _close_matrix(_array(report["S"][lab], field), _array(truth["S"][lab], field)):
                return f"recovered S at {lab!r} is off the truth"
        return None

    def _gen(self, inst, code, report, sampled_seed):
        if code != 0 or report["status"] != "ok":
            return f"exit {code}, status {report['status']!r}"
        path = inst.path(self.workdir)
        self._instances.pop(path, None)
        written = self._instance(inst)
        got = written["mat"] if inst.kind == "superop" else written["blocks"]
        want = self.expected_map(inst)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            return "file does not reload bit-identical to the generated map"
        if inst.positive and report.get("truth_path") is None:
            return "positive instance written without a truth file"
        return None
