"""JSON interchange for instances, ground-truth certificates and reports.

Scalars follow the declared field: plain numbers for "real", two-element
[re, im] arrays for "complex".  The vectorization convention is stored
redundantly in every instance file and must read "column-major"; any
other value is rejected so foreign files cannot be misread silently.
Floats are emitted with 17 significant digits, which round-trips IEEE
doubles exactly.  A file may declare at most MAX_ENTRIES map entries; the
header is checked before the map is allocated.
"""

import json
import math
import os
import tempfile

import numpy as np

from .config import COMPLEX, REAL, FieldConfig
from .errors import SchemaError
from .funcalg import BigSuperoperator, DiscreteSpace, MatrixFunction, PointwiseForm
from .structure import ConjugationForm
from .superop import VEC_CONVENTION, Superoperator

KIND_SUPEROP = "superop"
KIND_BIG = "big_superop"

# Largest number of map entries an instance file may declare (128 MiB of real
# doubles), checked against the header before the map is allocated.
MAX_ENTRIES = 2**24


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite floats cannot be serialized")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps(obj, indent: int | None = 2) -> str:
    """Serialize dict/list/str/int/float/bool/None to JSON text with
    full-precision floats."""

    def render(node, depth):
        pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
        end = "" if indent is None else "\n" + " " * (indent * depth)
        sep = "," if indent is None else ","
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [
                f"{pad}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in node.items()
            ]
            return "{" + sep.join(items) + end + "}"
        if isinstance(node, (list, tuple)):
            if not len(node):
                return "[]"
            items = [f"{pad}{render(v, depth + 1)}" for v in node]
            return "[" + sep.join(items) + end + "]"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return _fmt_float(node)
        if node is None:
            return "null"
        if isinstance(node, str):
            return json.dumps(node)
        raise TypeError(f"cannot serialize {type(node).__name__}")

    return render(obj, 0)


def scalar_to_json(x, field):
    if field == COMPLEX:
        x = complex(x)
        return [x.real, x.imag]
    x = complex(x)
    return x.real


def matrix_to_json(A, field):
    A = np.asarray(A)
    if field == COMPLEX:
        return [[[float(v.real), float(v.imag)] for v in row] for row in A]
    return [[float(v.real) for v in row] for row in A]


def write_atomic(path, text):
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# parsing / validation


def _need(obj, key, kind, where="instance"):
    if key not in obj:
        raise SchemaError(f"missing required field {key!r} in {where}", field=key)
    value = obj[key]
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SchemaError(
            f"field {key!r} must be {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
            field=key,
        )
    return value


def _scalar_from_json(v, field, where):
    if field == COMPLEX:
        if not (isinstance(v, list) and len(v) == 2 and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)):
            raise SchemaError(f"complex entry at {where} must be a [re, im] pair", field=where)
        return complex(v[0], v[1])
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(f"real entry at {where} must be a number", field=where)
    return float(v)


def matrix_from_json(rows, field, shape, where):
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise SchemaError(
            f"field {where!r} must be a list of {shape[0]} rows", field=where
        )
    out = np.zeros(shape, dtype=np.complex128 if field == COMPLEX else np.float64)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise SchemaError(
                f"row {where}[{r}] must have {shape[1]} entries", field=f"{where}[{r}]"
            )
        for c, v in enumerate(row):
            out[r, c] = _scalar_from_json(v, field, f"{where}[{r}][{c}]")
    if not np.isfinite(out).all():
        raise SchemaError(f"field {where!r} contains non-finite entries", field=where)
    return out


def _labels_from_json(obj, key):
    labels = _need(obj, key, list)
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or not lab:
            raise SchemaError(f"{key}[{i}] must be a non-empty string", field=f"{key}[{i}]")
        if "/" in lab:
            raise SchemaError(
                f"{key}[{i}] must not contain '/' (reserved as the block-key separator)",
                field=f"{key}[{i}]",
            )
    if len(set(labels)) != len(labels):
        raise SchemaError(f"field {key!r} contains duplicate labels", field=key)
    return tuple(labels)


def _common_header(obj):
    kind = _need(obj, "kind", str)
    if kind not in (KIND_SUPEROP, KIND_BIG):
        raise SchemaError(f"field 'kind' must be '{KIND_SUPEROP}' or '{KIND_BIG}'", field="kind")
    field = _need(obj, "field", str)
    if field not in (REAL, COMPLEX):
        raise SchemaError(f"field 'field' must be '{REAL}' or '{COMPLEX}'", field="field")
    convention = _need(obj, "vec_convention", str)
    if convention != VEC_CONVENTION:
        raise SchemaError(
            f"field 'vec_convention' must be '{VEC_CONVENTION}', got {convention!r}",
            field="vec_convention",
        )
    n_in = _need(obj, "n_in", int)
    n_out = _need(obj, "n_out", int)
    if n_in < 1 or n_out < 1:
        raise SchemaError("fields 'n_in' and 'n_out' must be positive", field="n_in")
    return kind, field, n_in, n_out


def _check_size(n_in, n_out, k_in, k_out):
    """Reject a header that declares more than MAX_ENTRIES map entries, before
    anything of that size is allocated."""
    per_block = n_out**2 * n_in**2
    for entries, field in ((per_block, "n_in"), (k_out * k_in * per_block, "points_in")):
        if entries > MAX_ENTRIES:
            raise SchemaError(
                f"header declares {entries} map entries (n_in = {n_in}, n_out = {n_out}, "
                f"{k_in} x {k_out} points), over the limit of {MAX_ENTRIES}",
                field=field,
            )


def instance_to_json(obj) -> dict:
    """Instance file content for a Superoperator or BigSuperoperator."""
    if isinstance(obj, Superoperator):
        return {
            "kind": KIND_SUPEROP,
            "field": obj.cfg.field,
            "n_in": obj.n_in,
            "n_out": obj.n_out,
            "vec_convention": VEC_CONVENTION,
            "matrix": matrix_to_json(obj.mat, obj.cfg.field),
        }
    if isinstance(obj, BigSuperoperator):
        blocks = {}
        for x2, lab2 in enumerate(obj.space_out.labels):
            for x1, lab1 in enumerate(obj.space_in.labels):
                if np.any(obj.blocks[x2, x1] != 0):
                    blocks[f"{lab2}/{lab1}"] = matrix_to_json(obj.blocks[x2, x1], obj.cfg.field)
        return {
            "kind": KIND_BIG,
            "field": obj.cfg.field,
            "n_in": obj.n_in,
            "n_out": obj.n_out,
            "vec_convention": VEC_CONVENTION,
            "points_in": list(obj.space_in.labels),
            "points_out": list(obj.space_out.labels),
            "blocks": blocks,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__} as an instance")


def instance_from_json(obj, tol_rel=None, tol_abs=None):
    """Parse and validate an instance, returning a Superoperator or
    BigSuperoperator.  Raises SchemaError naming the offending field."""
    if not isinstance(obj, dict):
        raise SchemaError("instance file must contain a JSON object", field="$")
    kind, field, n_in, n_out = _common_header(obj)
    cfg_kwargs = {}
    if tol_rel is not None:
        cfg_kwargs["tol_rel"] = tol_rel
    if tol_abs is not None:
        cfg_kwargs["tol_abs"] = tol_abs
    cfg = FieldConfig(field=field, **cfg_kwargs)
    if kind == KIND_SUPEROP:
        _check_size(n_in, n_out, 1, 1)
        mat = matrix_from_json(
            _need(obj, "matrix", list), field, (n_out**2, n_in**2), "matrix"
        )
        return Superoperator(n_in=n_in, n_out=n_out, mat=mat, cfg=cfg)

    points_in = _labels_from_json(obj, "points_in")
    points_out = _labels_from_json(obj, "points_out")
    _check_size(n_in, n_out, len(points_in), len(points_out))
    space_in = DiscreteSpace(points_in)
    space_out = DiscreteSpace(points_out)
    raw_blocks = _need(obj, "blocks", dict)
    blocks = np.zeros((space_out.k, space_in.k, n_out**2, n_in**2), dtype=cfg.dtype)
    for key, rows in raw_blocks.items():
        parts = key.split("/")
        if len(parts) != 2 or parts[0] not in points_out or parts[1] not in points_in:
            raise SchemaError(
                f"blocks key {key!r} must be 'out_point/in_point' with known labels",
                field=f"blocks[{key!r}]",
            )
        x2 = points_out.index(parts[0])
        x1 = points_in.index(parts[1])
        blocks[x2, x1] = matrix_from_json(
            rows, field, (n_out**2, n_in**2), f"blocks[{key!r}]"
        )
    return BigSuperoperator(
        space_in=space_in, space_out=space_out, n_in=n_in, n_out=n_out, blocks=blocks, cfg=cfg
    )


def load_instance(path, tol_rel=None, tol_abs=None):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}", field="$") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}", field="$") from exc
    return instance_from_json(obj, tol_rel=tol_rel, tol_abs=tol_abs)


def save_instance(path, obj):
    write_atomic(path, dumps(instance_to_json(obj)))


# ---------------------------------------------------------------------------
# ground-truth certificates


def form_to_json(form, field) -> dict:
    """alpha and S of a ConjugationForm; phi and per-point alpha and S of a PointwiseForm."""
    if isinstance(form, ConjugationForm):
        return {"alpha": scalar_to_json(form.alpha, field), "S": matrix_to_json(form.S, field)}
    if isinstance(form, PointwiseForm):
        return {
            "phi": dict(form.phi),
            "alpha": {lab: scalar_to_json(a, field) for lab, a in form.alphas.items()},
            "S": {lab: matrix_to_json(S, field) for lab, S in form.S.items()},
        }
    raise TypeError(f"cannot serialize {type(form).__name__} as a canonical form")


def truth_to_json(truth, field) -> dict:
    kind = "pointwise_form" if isinstance(truth, PointwiseForm) else "conjugation_form"
    return {"kind": kind, "field": field, **form_to_json(truth, field)}


def truth_from_json(obj):
    kind = _need(obj, "kind", str, where="truth")
    field = _need(obj, "field", str, where="truth")
    if kind == "conjugation_form":
        S_rows = _need(obj, "S", list, where="truth")
        n = len(S_rows)
        S = matrix_from_json(S_rows, field, (n, n), "S")
        alpha = _scalar_from_json(obj.get("alpha"), field, "alpha")
        return ConjugationForm(alpha=alpha, S=S)
    if kind == "pointwise_form":
        phi = _need(obj, "phi", dict, where="truth")
        alphas = {
            lab: _scalar_from_json(v, field, f"alpha[{lab!r}]")
            for lab, v in _need(obj, "alpha", dict, where="truth").items()
        }
        Ss = {}
        for lab, rows in _need(obj, "S", dict, where="truth").items():
            n = len(rows) if isinstance(rows, list) else 0
            Ss[lab] = matrix_from_json(rows, field, (n, n), f"S[{lab!r}]")
        return PointwiseForm(phi=dict(phi), alphas=alphas, S=Ss)
    raise SchemaError(f"unknown truth kind {kind!r}", field="kind")


def load_truth(path):
    with open(path) as fh:
        return truth_from_json(json.load(fh))


def save_truth(path, truth, field):
    write_atomic(path, dumps(truth_to_json(truth, field)))


def truth_path_for(instance_path) -> str:
    base = str(instance_path)
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".truth.json"


# ---------------------------------------------------------------------------
# counterexample / function serialization for reports


def counterexample_to_json(ce, field) -> dict:
    out = {
        "product_in_norm": float(ce.product_in_norm),
        "violation_norm": float(ce.violation_norm),
    }
    if hasattr(ce, "A"):
        out["A"] = matrix_to_json(ce.A, field)
        out["B"] = matrix_to_json(ce.B, field)
    else:
        out["F1"] = function_to_json(ce.F1, field)
        out["F2"] = function_to_json(ce.F2, field)
        out["point"] = ce.point
    return out


def function_to_json(F: MatrixFunction, field) -> dict:
    return {
        "points": list(F.space.labels),
        "values": {
            lab: matrix_to_json(F.values[i], field) for i, lab in enumerate(F.space.labels)
        },
    }
