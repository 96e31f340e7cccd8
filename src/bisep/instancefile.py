"""JSON interchange for instances, ground-truth certificates and reports.

Scalars follow the declared field: plain numbers for "real", two-element
[re, im] arrays for "complex".  The vectorization convention is stored
redundantly in every instance file and must read "column-major"; any
other value is rejected so foreign files cannot be misread silently.  A
file may declare at most MAX_ENTRIES map entries; the header is checked
before the map is allocated.

``dumps`` writes with orjson, indented by two spaces: floats as the shortest
text that reads back as the same double, strings as UTF-8 (non-ASCII
characters are not escaped).  stdlib json decides only what orjson refuses
(an integer outside [-2**63, 2**64), a lone surrogate) or renders as null
(None, and NaN and the infinities, which it refuses with ValueError); it
writes the same layout, floats by repr and non-ASCII escaped.

``matrix_from_json``, and the block-map reader for all its blocks at once,
builds one float64 array once the shape and the entry types check out.
Every matrix entry must be a JSON number that is a finite double; on a bad
entry the per-entry walk runs and its SchemaError names the entry.  A map,
or one block of it, that ``FieldConfig.asarray`` refuses as too large is a
SchemaError naming ``matrix`` or the block key.

Files are decoded by orjson from their bytes.  stdlib json decides only the
files orjson refuses (NaN and Infinity tokens, numbers beyond the double
range, lone surrogates, invalid UTF-8, a BOM) and those nested more than
ORJSON_MAX_DEPTH deep, reading them as ``open`` would: such a file is either
not valid JSON, nested too deeply for stdlib json's recursion limit, or the
validation above names its bad entry.  So every error report is the one a
reader using stdlib json alone gives, but one: orjson reads an integer
outside [-2**63, 2**64) as a float, so such an ``n_in`` or ``n_out`` is
refused as not an integer.
"""

import io
import json
import os
import re
import tempfile
from itertools import chain

import numpy as np
import orjson

from .config import COMPLEX, DEFAULT, REAL, FieldConfig
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


# orjson writes NaN and the infinities as null, and numpy scalars as their values
_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY


def _plain(obj):
    """A numpy value as the Python value stdlib json writes."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize dict/list/str/int/float/bool/None, and numpy values, to JSON
    text indented by two spaces, each float as the shortest text that reads
    back as the same double.  A non-finite float raises ValueError."""
    try:
        text = orjson.dumps(obj, option=_ORJSON_OPTIONS)
        if b"null" not in text:
            return text.decode()
    except orjson.JSONEncodeError:  # an int beyond 64 bits, a lone surrogate
        pass
    # a null may be None or a non-finite float: stdlib json tells them apart
    return dumps_ascii(obj)


def dumps_ascii(obj) -> str:
    """What ``dumps`` writes, by stdlib json: floats by repr, non-ASCII
    characters \\u-escaped.  A non-finite float raises ValueError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise ValueError("non-finite floats cannot be serialized") from exc


def scalar_to_json(x, field):
    if field == COMPLEX:
        x = complex(x)
        return [x.real, x.imag]
    x = complex(x)
    return x.real


def matrix_to_json(A, field):
    A = np.asarray(A)
    parts = np.stack((A.real, A.imag), -1) if field == COMPLEX else A.real
    return parts.astype(np.float64, copy=False).tolist()


def write_atomic(path, text):
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
    if kind is int:
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
    elif not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(f"real entry at {where} must be a number", field=where)
    try:
        return complex(v[0], v[1]) if field == COMPLEX else float(v)
    except OverflowError:  # a JSON integer beyond the range of a double
        raise SchemaError(f"entry at {where} is too large for a double", field=where) from None


def _nest_shape(values):
    """(shape, entries) when the list ``values`` nests non-empty lists evenly
    down to entries that are all ints or floats, with the entries flattened in
    C order; None otherwise."""
    shape, level = [len(values)], values
    while True:
        kinds = set(map(type, level))
        if kinds and kinds <= {float, int}:
            return tuple(shape), level
        widths = set(map(len, level)) if kinds == {list} else ()
        if len(widths) != 1 or 0 in widths:
            return None
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))


def _float_rows(rows, field, shape):
    """``rows`` as an array of ``shape``, built in one step; None when any
    check fails, so that the per-entry walk names the bad entry."""
    full = shape + ((2,) if field == COMPLEX else ())
    # int and float entries only: bools, strings and null go to the walk
    nest = _nest_shape(rows) if isinstance(rows, list) else None
    if nest is None or nest[0] != full:
        return None
    try:
        a = np.array(nest[1], dtype=np.float64).reshape(full)
    except OverflowError:
        return None
    if not np.isfinite(a).all():
        return None
    # the [re, im] pairs viewed as complex128 keep signed zeros, as complex(re, im) does
    return a.view(np.complex128).reshape(shape) if field == COMPLEX else a


def matrix_from_json(rows, field, shape, where):
    block = _float_rows(rows, field, shape)
    if block is not None:
        return block
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


def _admit(cfg, a, where):
    """``a`` as ``cfg`` admits it; a refusal is a SchemaError naming ``where``."""
    try:
        return cfg.asarray(a)
    except ValueError as exc:
        raise SchemaError(f"field {where!r}: {exc}", field=where) from None


def _admits(cfg, a):
    """Whether ``cfg`` admits ``a``."""
    try:
        cfg.asarray(a)
    except ValueError:
        return False
    return True


def _block_index(raw_blocks, points_out, points_in):
    """(out indices, in indices) of the 'out_point/in_point' keys of
    ``raw_blocks``, in key order; None when a key names no known pair."""
    out_at = {lab: x for x, lab in enumerate(points_out)}
    in_at = {lab: x for x, lab in enumerate(points_in)}
    # labels hold no '/', so a key with another '/' leaves no label on the right
    pairs = [key.partition("/")[::2] for key in raw_blocks]
    x2 = [out_at.get(lab_out) for lab_out, _ in pairs]
    x1 = [in_at.get(lab_in) for _, lab_in in pairs]
    if None in x2 or None in x1:
        return None
    return x2, x1


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


def check_size(n_in, n_out, k_in, k_out):
    """Reject a map of more than MAX_ENTRIES entries, before anything of that
    size is allocated; the SchemaError names ``n_in`` when one block is over."""
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
        kind, body = KIND_SUPEROP, {"matrix": matrix_to_json(obj.mat, obj.cfg.field)}
    elif isinstance(obj, BigSuperoperator):
        x2s, x1s = np.nonzero((obj.blocks != 0).any(axis=(2, 3)))
        # the nonzero blocks converted as one stack, in the same key order
        rows = matrix_to_json(obj.blocks[x2s, x1s], obj.cfg.field)
        blocks = {
            f"{obj.space_out.labels[x2]}/{obj.space_in.labels[x1]}": block
            for x2, x1, block in zip(x2s, x1s, rows)
        }
        kind, body = KIND_BIG, {"points_in": list(obj.space_in.labels),
                                "points_out": list(obj.space_out.labels), "blocks": blocks}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as an instance")
    return {"kind": kind, "field": obj.cfg.field, "n_in": obj.n_in, "n_out": obj.n_out,
            "vec_convention": VEC_CONVENTION, **body}


def instance_from_json(obj, tol_rel=DEFAULT.tol_rel, tol_abs=DEFAULT.tol_abs):
    """Parse and validate an instance, returning a Superoperator or
    BigSuperoperator.  Raises SchemaError naming the offending field."""
    if not isinstance(obj, dict):
        raise SchemaError("instance file must contain a JSON object", field="$")
    kind, field, n_in, n_out = _common_header(obj)
    cfg = FieldConfig(field=field, tol_rel=tol_rel, tol_abs=tol_abs)
    if kind == KIND_SUPEROP:
        check_size(n_in, n_out, 1, 1)
        mat = matrix_from_json(_need(obj, "matrix", list), field, (n_out**2, n_in**2), "matrix")
        try:
            return Superoperator(n_in=n_in, n_out=n_out, mat=mat, cfg=cfg)
        except ValueError as exc:  # a map too large to multiply
            raise SchemaError(f"field 'matrix': {exc}", field="matrix") from None

    points_in = _labels_from_json(obj, "points_in")
    points_out = _labels_from_json(obj, "points_out")
    check_size(n_in, n_out, len(points_in), len(points_out))
    space_in = DiscreteSpace(points_in)
    space_out = DiscreteSpace(points_out)
    raw_blocks = _need(obj, "blocks", dict)
    blocks = np.zeros((space_out.k, space_in.k, n_out**2, n_in**2), dtype=cfg.dtype)
    # all blocks in one array build, admitted and placed at once; if any key,
    # entry or block is bad, each block is read on its own, so the first bad
    # key, entry or block is the one named
    stack = _float_rows(list(raw_blocks.values()), field, (len(raw_blocks),) + blocks.shape[2:])
    index = _block_index(raw_blocks, points_out, points_in)
    if stack is not None and index is not None and _admits(cfg, stack):
        blocks[index] = stack
    else:
        for key, rows in raw_blocks.items():
            parts = key.split("/")
            if len(parts) != 2 or parts[0] not in points_out or parts[1] not in points_in:
                raise SchemaError(
                    f"blocks key {key!r} must be 'out_point/in_point' with known labels",
                    field=f"blocks[{key!r}]",
                )
            where = f"blocks[{key!r}]"
            block = matrix_from_json(rows, field, blocks.shape[2:], where)
            blocks[points_out.index(parts[0]), points_in.index(parts[1])] = _admit(cfg, block, where)
    try:
        return BigSuperoperator(
            space_in=space_in, space_out=space_out, n_in=n_in, n_out=n_out, blocks=blocks, cfg=cfg
        )
    except ValueError as exc:  # blocks that each pass can still be too large together
        raise SchemaError(f"field 'blocks': {exc}", field="blocks") from None


# orjson (3.8) builds nested values by recursion without a limit: a file
# nested 2 * 10**5 deep overflows an 8 MiB C stack.  Files nested deeper than
# this (instance and truth files nest 5 deep) are left to stdlib json, whose
# recursion limit raises RecursionError.
ORJSON_MAX_DEPTH = 64

# every byte but the brackets and the quote
_NOT_STRUCTURE = bytes(set(range(256)) - set(b'[]{}"'))


def _nesting_depth(data):
    """How deep arrays and objects nest in the JSON text ``data``, exact when
    ``data`` is valid JSON."""
    if b"\\" in data:
        data = re.sub(rb"\\.", b"", data)  # escapes hold no quote or bracket
    tokens = np.frombuffer(data.translate(None, _NOT_STRUCTURE), np.uint8)
    quote = tokens == ord('"')
    in_string = np.cumsum(quote) % 2 == 1
    opens = (tokens == ord("[")) | (tokens == ord("{"))
    steps = np.where(quote | in_string, 0, np.where(opens, 1, -1))
    return int(np.cumsum(steps).max(initial=0))


def _read_json(path):
    """The JSON value in the file at ``path``; SchemaError naming ``$`` when
    the file cannot be read or is not valid JSON."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}", field="$") from exc
    if _nesting_depth(data) <= ORJSON_MAX_DEPTH:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        # the text open(path) reads: a BOM or bad UTF-8 is not valid JSON
        return json.loads(io.TextIOWrapper(io.BytesIO(data)).read())
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over the digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}", field="$") from exc
    except RecursionError:  # about 1000 levels: stdlib json's recursion limit
        raise SchemaError(f"{path} is nested too deeply", field="$") from None


def load_instance(path, tol_rel=DEFAULT.tol_rel, tol_abs=DEFAULT.tol_abs):
    return instance_from_json(_read_json(path), tol_rel=tol_rel, tol_abs=tol_abs)


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
    return truth_from_json(_read_json(path))


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
