import decimal
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bisep import (
    BigSuperoperator,
    FieldConfig,
    SchemaError,
    Superoperator,
    gen_conjugation,
    gen_pointwise,
    perturb,
)
from bisep.instancefile import (
    _float_rows,
    _nesting_depth,
    _read_json,
    dumps,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_truth,
    matrix_from_json,
    matrix_to_json,
    save_instance,
    save_truth,
    truth_from_json,
    truth_path_for,
    truth_to_json,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


# doubles at the edges of the shortest text's layouts: integer-valued with
# ".0", the decimal/exponent switch at 1e16 and at 1e-5, subnormal, largest
HAZARD_FLOATS = (0.0, -0.0, 1.0, -3.0, 1e16, 1e17, 5e-324, 1.7976931348623157e308, 0.1,
                 9999999999999998.0, 1e15, 1e-5, 9.999999999999999e-06, 1.5e-5, 1e-4)


class TestDumps:
    def test_floats_written_shortest(self):
        assert dumps(0.1) == "0.1"

    def test_floats_always_read_back_as_floats(self):
        text = dumps({"x": 1.0, "y": -3.0})
        parsed = json.loads(text)
        assert isinstance(parsed["x"], float) and parsed["x"] == 1.0
        assert parsed["y"] == -3.0

    def test_round_trip_equality(self):
        report = {
            "command": "check",
            "status": "biseparating",
            "tolerances": {"tol_rel": 1e-9, "tol_abs": 1e-12},
            "residual": 2.220446049250313e-16,
            "values": [1.5, -2.25, 0.3333333333333333],
            "n": 4,
            "flag": True,
            "nothing": None,
        }
        assert json.loads(dumps(report)) == report

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_next_to_none(self, bad):
        for obj in ({"path": None, "x": bad}, [None, [1.0, bad]], {"a": np.array([0.5, bad])}):
            with pytest.raises(ValueError, match="non-finite"):
                dumps(obj)

    def test_none_and_numpy_values_next_to_none(self):
        obj = {"truth_path": None, "x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True)}
        assert json.loads(dumps(obj)) == {"truth_path": None, "x": 0.1, "n": 3, "ok": True}

    def test_strings_written_as_utf8(self):
        assert dumps({"path": "caf\u00e9/\u2028"}) == '{\n  "path": "caf\u00e9/\u2028"\n}'

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**30, "bad\udc80path", {"k": "\udcff"}])
    def test_what_orjson_refuses_falls_back_and_round_trips(self, value):
        for obj in (value, {"seed": value, "x": 0.1, "m": [[1.5, -0.0]]}):
            assert json.loads(dumps(obj)) == obj
        assert dumps({"seed": value}) == json.dumps({"seed": value}, indent=2)

    @pytest.mark.parametrize("x", HAZARD_FLOATS)
    def test_hazard_float_tokens_keep_their_bits(self, x):
        _assert_tokens_keep_bits(np.array([[x, -x], [0.5, x]]))


def _assert_tokens_keep_bits(A):
    """Every float token dumps writes for A, in both fields, reads back through
    stdlib json as a float with A's bits."""
    for M in (A, A + 1j * A[::-1]):
        field = "complex" if np.iscomplexobj(M) else "real"
        parts = np.stack((M.real, M.imag), -1) if field == "complex" else M
        text = dumps({"matrix": matrix_to_json(M, field)})
        tokens = []
        json.loads(text, parse_float=lambda t: tokens.append(t) or float(t),
                   parse_int=lambda t: pytest.fail(f"{t} reads back as an int"))
        back = np.array([float(t) for t in tokens])
        assert back.tobytes() == parts.ravel().tobytes()  # signed zeros too


def _shortest(x):
    """x as the shortest digits that read back as x (repr's), laid out as orjson
    lays them out: decimal from 1e-5 up to 1e16, d.ddde<exp> outside."""
    if x == 0:
        return "-0.0" if math.copysign(1.0, x) < 0 else "0.0"
    sign, digits, exp = decimal.Decimal(repr(x)).normalize().as_tuple()
    d = "".join(map(str, digits))
    kk = len(d) + exp  # 10**(kk - 1) <= |x| < 10**kk
    if 0 <= exp and kk <= 16:
        text = d + "0" * exp + ".0"
    elif 0 < kk <= 16:
        text = d[:kk] + "." + d[kk:]
    elif -5 < kk <= 0:
        text = "0." + "0" * -kk + d
    else:
        text = (d[0] + "." + d[1:] if len(d) > 1 else d) + f"e{kk - 1}"
    return "-" * sign + text


def _reference_dumps(obj):
    """The float-by-float renderer whose bytes dumps must reproduce."""

    def fmt_float(x):
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite floats cannot be serialized")
        return _shortest(x)

    def render(node, depth):
        pad = "\n" + "  " * (depth + 1)
        end = "\n" + "  " * depth
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [f"{pad}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in node.items()]
            return "{" + ",".join(items) + end + "}"
        if isinstance(node, (list, tuple)):
            if not len(node):
                return "[]"
            return "[" + ",".join(f"{pad}{render(v, depth + 1)}" for v in node) + end + "]"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return fmt_float(node)
        if node is None:
            return "null"
        if isinstance(node, str):
            return json.dumps(node)
        raise TypeError(f"cannot serialize {type(node).__name__}")

    return render(obj, 0)


def _reference_matrix_to_json(A, field):
    """Entry-by-entry matrix_to_json, the reference for the array version."""
    A = np.asarray(A)
    if field == "complex":
        return [[[float(v.real), float(v.imag)] for v in row] for row in A]
    return [[float(v.real) for v in row] for row in A]


class TestDumpsMatchesReference:
    @pytest.mark.parametrize("x", HAZARD_FLOATS)
    def test_hazard_floats(self, x):
        for obj in (x, -x, [x], [x, -x, 2.5], [[x, -x], [0.5, x]], {"a": [[x]], "b": [x, 1.5]}):
            assert dumps(obj) == _reference_dumps(obj)

    def test_all_hazards_in_one_block(self):
        row = list(HAZARD_FLOATS) + [-v for v in HAZARD_FLOATS]
        for obj in (row, [row, row[::-1]], {"x": {"y": [row] * 3}}):
            assert dumps(obj) == _reference_dumps(obj)

    def test_mixed_and_irregular_lists(self):
        for obj in (
            [1, 2.0, -0.0, 3],
            [[1.0, 2], [3.0, 4.0]],
            [[1.0], [2.0, 3.0]],
            [(1.0, 2.0), [3.0, 4.0]],
            (0.5, -0.0),
            [True, 1.0],
            [None, 1.0, "a"],
            [[1.0, 2.0], 3.0],
            [np.float64(1.0), 2.0],
            [[[1.0, -0.0], [2.0, 0.0]], [[3.5, 1e17], [-1e16, 5e-324]]],
        ):
            assert dumps(obj) == _reference_dumps(obj)

    def test_empty_lists_and_nested_dicts(self):
        nested = {"a": {"b": [1.0, 2.0], "c": {"d": [[0.5, -0.0]]}}, "e": {}}
        for obj in ([], [[]], [[], []], {}, {"a": []}, nested):
            assert dumps(obj) == _reference_dumps(obj)

    def test_dicts_of_blocks(self):
        rng = np.random.default_rng(0)
        big = rng.standard_normal((40, 40))
        big[::3, ::2] = np.round(big[::3, ::2])  # integer-valued entries in a mixed pattern
        for obj in (
            {"x": 1.0, "y": -0.0},
            {"x": 1.0, "y": 2},
            {"a%s": [[1.0, 2.0]], "b%%d": [[3.0, -0.0]], "%(c)s": [[5e-324, 1e17]]},
            {"y1/x1": [[[1.0, 0.0]]], "y2/x2": [[[0.5, -0.0]]]},
            {"a": [[1.0]], "b": [[1.0, 2.0]]},
            {"a": [[1.0]], "b": [[True]]},
            {"m": big.tolist()},
            {"p": big.tolist(), "q": (-big).tolist(), "r": big.T.tolist()},
            [big.tolist(), big.tolist()],
        ):
            assert dumps(obj) == _reference_dumps(obj)

    def test_complex_pairs_with_signed_zeros(self):
        A = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)], [1 + 0j, complex(-3.5, 2.0)]])
        obj = matrix_to_json(A, "complex")
        assert obj == _reference_matrix_to_json(A, "complex")
        assert dumps(obj) == _reference_dumps(_reference_matrix_to_json(A, "complex"))
        assert dumps({"S": obj}) == _reference_dumps({"S": obj})

    def test_non_finite_in_a_block_rejected(self):
        for bad in ([1.0, float("nan")], [[1.0], [float("inf")]], [[0.5, -float("inf")]]):
            with pytest.raises(ValueError, match="non-finite"):
                dumps(bad)

    @settings(max_examples=60, deadline=None)
    @given(
        A=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-(2**60), 2**60).map(float),
                st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
                st.sampled_from(HAZARD_FLOATS),
            ),
        ),
        field=st.sampled_from(["real", "complex"]),
    )
    def test_random_arrays(self, A, field):
        M = A + 1j * A[::-1] if field == "complex" else A
        obj = matrix_to_json(M, field)
        reference = _reference_matrix_to_json(M, field)
        text = dumps({"matrix": obj})
        assert text == _reference_dumps({"matrix": reference})
        blocks = {"y1/x1": obj, "y2/x1": matrix_to_json(-M, field)}
        assert dumps({"blocks": blocks}) == _reference_dumps({"blocks": blocks})
        back = matrix_from_json(json.loads(text)["matrix"], field, M.shape, "matrix")
        assert back.dtype == M.dtype and back.tobytes() == M.tobytes()  # signed zeros too
        if field == "real":
            _assert_tokens_keep_bits(A)


class TestInstanceRoundTrip:
    def test_superop_real(self):
        T = gen_conjugation(3, seed=0).map
        T2 = instance_from_json(instance_to_json(T))
        assert isinstance(T2, Superoperator)
        np.testing.assert_array_equal(T.mat, T2.mat)
        assert T2.cfg.field == "real"

    def test_superop_complex(self):
        cfg = FieldConfig(field="complex")
        T = gen_conjugation(2, seed=1, cfg=cfg).map
        T2 = instance_from_json(instance_to_json(T))
        np.testing.assert_array_equal(T.mat, T2.mat)
        assert T2.cfg.field == "complex"

    def test_big_superop(self):
        T = gen_pointwise(3, 2, seed=2).map
        T2 = instance_from_json(instance_to_json(T))
        np.testing.assert_array_equal(T.blocks, T2.blocks)
        assert T2.space_in.labels == T.space_in.labels
        assert T2.space_out.labels == T.space_out.labels

    def test_zero_blocks_omitted(self):
        T = gen_pointwise(3, 2, seed=3).map
        obj = instance_to_json(T)
        assert len(obj["blocks"]) == 3  # one nonzero block per output point

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_block_stack_writes_the_per_block_text(self, field):
        # the nonzero blocks are converted as one stack; the keys, their order
        # and the written text are those of one matrix_to_json per block
        cfg = FieldConfig(field=field)
        for k, n, eps in ((1, 1, 0.0), (3, 2, 0.0), (5, 3, 1e-6), (8, 2, 1e-3)):
            T = perturb(gen_pointwise(k, n, seed=k, cfg=cfg).map, eps, seed=k)
            blocks = T.blocks.copy()
            blocks[0, 0] = -0.0  # a block of signed zeros only is omitted
            T = BigSuperoperator(space_in=T.space_in, space_out=T.space_out, n_in=n, n_out=n,
                                 blocks=blocks, cfg=cfg)
            obj = instance_to_json(T)
            per_block = {
                f"{T.space_out.labels[x2]}/{T.space_in.labels[x1]}": matrix_to_json(T.blocks[x2, x1], field)
                for x2 in range(k) for x1 in range(k) if (T.blocks[x2, x1] != 0).any()
            }
            assert list(obj["blocks"]) == list(per_block)
            assert dumps(obj) == dumps({**obj, "blocks": per_block})

    def test_file_round_trip(self, tmp_path):
        T = gen_conjugation(2, seed=4).map
        path = tmp_path / "inst.json"
        save_instance(path, T)
        T2 = load_instance(path)
        np.testing.assert_array_equal(T.mat, T2.mat)

    def test_tolerance_override(self):
        T = gen_conjugation(2, seed=5).map
        T2 = instance_from_json(instance_to_json(T), tol_rel=1e-6, tol_abs=1e-10)
        assert T2.cfg.tol_rel == 1e-6 and T2.cfg.tol_abs == 1e-10


class TestTruthRoundTrip:
    def test_conjugation(self, tmp_path):
        b = gen_conjugation(3, seed=6)
        obj = truth_to_json(b.ground_truth, "real")
        back = truth_from_json(obj)
        assert back.alpha == b.ground_truth.alpha
        np.testing.assert_array_equal(back.S, b.ground_truth.S)

    def test_pointwise(self):
        b = gen_pointwise(3, 2, seed=7)
        back = truth_from_json(truth_to_json(b.ground_truth, "real"))
        assert back.phi == b.ground_truth.phi
        for lab in back.phi:
            assert back.alphas[lab] == b.ground_truth.alphas[lab]
            np.testing.assert_array_equal(back.S[lab], b.ground_truth.S[lab])

    def test_truth_path_naming(self):
        assert truth_path_for("a/b/inst.json") == "a/b/inst.truth.json"
        assert truth_path_for("plain") == "plain.truth.json"

    def test_truncated_truth_file(self, tmp_path):
        path = tmp_path / "inst.truth.json"
        save_truth(path, gen_conjugation(3, seed=6).ground_truth, "real")
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SchemaError, match="not valid JSON") as exc:
            load_truth(path)
        assert exc.value.field == "$"

    def test_missing_truth_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read") as exc:
            load_truth(tmp_path / "absent.truth.json")
        assert exc.value.field == "$"


def _valid_superop_obj():
    return instance_to_json(gen_conjugation(2, seed=8).map)


def _valid_big_obj():
    return instance_to_json(gen_pointwise(2, 2, seed=9).map)


class TestSchemaErrors:
    def test_missing_field_named(self):
        obj = _valid_superop_obj()
        del obj["vec_convention"]
        with pytest.raises(SchemaError, match="vec_convention"):
            instance_from_json(obj)

    def test_wrong_convention_rejected(self):
        obj = _valid_superop_obj()
        obj["vec_convention"] = "row-major"
        with pytest.raises(SchemaError, match="column-major"):
            instance_from_json(obj)

    def test_bad_kind(self):
        obj = _valid_superop_obj()
        obj["kind"] = "mystery"
        with pytest.raises(SchemaError, match="kind"):
            instance_from_json(obj)

    def test_matrix_shape_mismatch_names_row(self):
        obj = _valid_superop_obj()
        obj["matrix"] = obj["matrix"][:-1]
        with pytest.raises(SchemaError, match="matrix"):
            instance_from_json(obj)
        obj = _valid_superop_obj()
        obj["matrix"][2] = obj["matrix"][2][:-1]
        with pytest.raises(SchemaError, match=r"matrix\[2\]"):
            instance_from_json(obj)

    def test_complex_entries_must_be_pairs(self):
        obj = _valid_superop_obj()
        obj["field"] = "complex"
        with pytest.raises(SchemaError, match=r"matrix\[0\]\[0\]"):
            instance_from_json(obj)

    def test_non_finite_rejected(self):
        obj = _valid_superop_obj()
        obj["matrix"][0][0] = 1e400  # json parses as inf
        with pytest.raises(SchemaError, match="non-finite"):
            instance_from_json(obj)

    def test_map_too_large_to_multiply(self):
        # finite entries, but twice the squared norm overflows a double
        obj = _valid_superop_obj()
        obj["matrix"] = [[v * 1e160 for v in row] for row in obj["matrix"]]
        with pytest.raises(SchemaError, match="too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == "matrix"

    def test_block_too_large_to_multiply(self):
        obj = _valid_big_obj()
        key = list(obj["blocks"])[-1]
        obj["blocks"][key] = [[v * 1e160 for v in row] for row in obj["blocks"][key]]
        with pytest.raises(SchemaError, match="too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{key!r}]"

    def test_blocks_too_large_together(self):
        # each block alone is admitted, all of them together are not
        obj = _valid_big_obj()
        assert len(obj["blocks"]) == 2
        for key, rows in obj["blocks"].items():
            block = np.array(rows)
            block *= math.sqrt(0.375 * np.finfo(np.float64).max) / np.linalg.norm(block)
            obj["blocks"][key] = block.tolist()
        with pytest.raises(SchemaError, match="too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == "blocks"

    def test_overflow_edge_names_blocks(self):
        # the stack of listed blocks and the zero-padded map sum their squares
        # in different orders, so at the overflow edge the stack can be
        # admitted and the whole map refused: that refusal names 'blocks' too
        rng = np.random.default_rng(0)
        outcomes = set()
        for _ in range(100):
            stack = rng.standard_normal((4, 4, 4))
            stack *= math.sqrt(np.finfo(np.float64).max / 2) / np.linalg.norm(stack)
            cells = rng.choice(9, size=4, replace=False)
            for factor in (1 - 2e-16, 1 - 1e-16, 1.0, 1 + 1e-16, 1 + 2e-16):
                obj = instance_to_json(gen_pointwise(3, 2, seed=0).map)
                obj["blocks"] = {f"y{c // 3 + 1}/x{c % 3 + 1}": (factor * block).tolist()
                                 for c, block in zip(cells, stack)}
                try:
                    instance_from_json(obj)
                    outcomes.add("admitted")
                except SchemaError as exc:
                    assert exc.field == "blocks"
                    outcomes.add("refused")
        assert outcomes == {"admitted", "refused"}

    def test_huge_integer_real_entry(self):
        obj = _valid_superop_obj()
        obj["matrix"][0][1] = 10**400
        with pytest.raises(SchemaError, match=r"matrix\[0\]\[1\] is too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == "matrix[0][1]"

    def test_huge_integer_complex_pair(self):
        obj = instance_to_json(gen_conjugation(2, seed=8, cfg=FieldConfig(field="complex")).map)
        obj["matrix"][3][2] = [0.5, -(10**400)]
        with pytest.raises(SchemaError, match=r"matrix\[3\]\[2\] is too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == "matrix[3][2]"

    def test_huge_integer_in_a_block(self):
        obj = _valid_big_obj()
        key = next(iter(obj["blocks"]))
        obj["blocks"][key][1][0] = 10**400
        with pytest.raises(SchemaError, match="too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{key!r}][1][0]"

    def test_integer_over_the_digit_limit(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_valid_superop_obj()).replace("[[", "[[" + "7" * 5000 + ", ", 1))
        with pytest.raises(SchemaError, match="not valid JSON") as exc:
            load_instance(path)
        assert exc.value.field == "$"

    def test_duplicate_labels(self):
        obj = _valid_big_obj()
        obj["points_in"] = ["x1", "x1"]
        with pytest.raises(SchemaError, match="points_in"):
            instance_from_json(obj)

    def test_label_with_slash(self):
        obj = _valid_big_obj()
        obj["points_in"] = ["x/1", "x2"]
        with pytest.raises(SchemaError, match=r"points_in\[0\]"):
            instance_from_json(obj)

    def test_first_bad_block_in_file_order_is_named(self):
        obj = _valid_big_obj()
        first = next(iter(obj["blocks"]))
        obj["blocks"][first][0][0] = True
        obj["blocks"]["y1/zz"] = obj["blocks"][first]
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{first!r}][0][0]"
        obj["blocks"] = {"y1/zz": [[0.0]], **obj["blocks"]}
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert exc.value.field == "blocks['y1/zz']"

    def test_unknown_block_key(self):
        obj = _valid_big_obj()
        obj["blocks"]["y1/zz"] = obj["blocks"][next(iter(obj["blocks"]))]
        with pytest.raises(SchemaError, match="y1/zz"):
            instance_from_json(obj)

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            instance_from_json([1, 2, 3])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not valid JSON"):
            (tmp_path / "t.json").write_text("{truncated")
            load_instance(tmp_path / "t.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_instance(tmp_path / "absent.json")


# Hazards that one array build would accept or mangle; each must get the
# field and message of the per-entry walk: (field, where, entry, SchemaError
# field, message).  A complex entry is replaced as a whole.
PARSE_HAZARDS = [
    ("real", (2, 1), True, "matrix[2][1]", "real entry at matrix[2][1] must be a number"),
    ("real", (2, 1), "1.0", "matrix[2][1]", "real entry at matrix[2][1] must be a number"),
    ("real", (2, 1), None, "matrix[2][1]", "real entry at matrix[2][1] must be a number"),
    ("real", (2, 1), [1.0], "matrix[2][1]", "real entry at matrix[2][1] must be a number"),
    ("real", (2, 1), 1e400, "matrix", "field 'matrix' contains non-finite entries"),
    ("complex", (1, 3), [1.0, 0.0, 0.0], "matrix[1][3]",
     "complex entry at matrix[1][3] must be a [re, im] pair"),
    ("complex", (1, 3), [[1.0, 0.0]], "matrix[1][3]",
     "complex entry at matrix[1][3] must be a [re, im] pair"),
    ("complex", (1, 3), [True, 0.0], "matrix[1][3]",
     "complex entry at matrix[1][3] must be a [re, im] pair"),
    ("complex", (1, 3), [0.0, None], "matrix[1][3]",
     "complex entry at matrix[1][3] must be a [re, im] pair"),
    ("complex", (1, 3), 1.0, "matrix[1][3]",
     "complex entry at matrix[1][3] must be a [re, im] pair"),
    ("complex", (1, 3), [0.0, 1e400], "matrix", "field 'matrix' contains non-finite entries"),
]


class TestParseHazards:
    @pytest.mark.parametrize("field,where,entry,err_field,message", PARSE_HAZARDS)
    def test_entry(self, field, where, entry, err_field, message):
        obj = instance_to_json(gen_conjugation(2, seed=8, cfg=FieldConfig(field=field)).map)
        obj["matrix"][where[0]][where[1]] = entry
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert (exc.value.field, str(exc.value)) == (err_field, message)

    def test_ragged_row(self):
        obj = _valid_superop_obj()
        obj["matrix"][1].append(0.0)
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert (exc.value.field, str(exc.value)) == (
            "matrix[1]", "row matrix[1] must have 4 entries")

    def test_one_nesting_level_too_many(self):
        obj = _valid_superop_obj()
        obj["matrix"] = [[[v] for v in row] for row in obj["matrix"]]
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert (exc.value.field, str(exc.value)) == (
            "matrix[0][0]", "real entry at matrix[0][0] must be a number")

    def test_real_matrix_in_a_complex_file(self):
        obj = _valid_superop_obj()
        obj["field"] = "complex"
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert (exc.value.field, str(exc.value)) == (
            "matrix[0][0]", "complex entry at matrix[0][0] must be a [re, im] pair")

    def test_integers_read_as_the_nearest_double(self):
        obj = {**_header("superop", 1, 2), "matrix": [[2**53 + 1], [-(2**64) - 1], [3], [-0.0]]}
        mat = instance_from_json(obj).mat
        assert mat[:, 0].tolist() == [float(2**53 + 1), float(-(2**64) - 1), 3.0, 0.0]
        assert math.copysign(1.0, mat[3, 0]) == -1.0

    def test_signed_zeros_survive_in_complex_pairs(self):
        obj = {**_header("superop", 1, 2), "field": "complex",
               "matrix": [[[-0.0, -0.0]], [[0, -0.0]], [[-0.0, 0]], [[1, 2]]]}
        mat = instance_from_json(obj).mat
        expected = np.array([complex(-0.0, -0.0), complex(0, -0.0), complex(-0.0, 0), 1 + 2j])
        assert mat[:, 0].tobytes() == expected.tobytes()


# entries that one array build must read as the float() of each: integers
# beyond 2**53 and 2**64, signed zeros, subnormals and ordinary doubles
_ENTRIES = st.one_of(
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _nests(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    full = shape + ((2,) if field == "complex" else ())
    flat = draw(st.lists(_ENTRIES, min_size=math.prod(full), max_size=math.prod(full)))
    rows = np.array(flat, dtype=object).reshape(full).tolist()
    return field, shape, rows


class TestFloatRows:
    @settings(max_examples=300, deadline=None)
    @given(case=_nests())
    def test_bit_equal_to_one_array_build_of_the_nest(self, case):
        field, shape, rows = case
        reference = np.array(rows, dtype=np.float64)
        if field == "complex":
            reference = reference.view(np.complex128).reshape(shape)
        got = _float_rows(rows, field, shape)
        assert got.dtype == reference.dtype and got.shape == reference.shape
        assert got.tobytes() == reference.tobytes()

    def test_integer_beyond_a_double_goes_to_the_walk(self):
        assert _float_rows([[1.0, 10**400]], "real", (1, 2)) is None


def _midpoint(x):
    """The exact decimal halfway between ``x`` and its neighbour towards zero."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # enough for every such midpoint, subnormal ones too
        mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, 0.0))) / 2
    return format(mid, "e")


# zeros of both signs, the smallest subnormal, a decimal just above half of
# it (read as the smallest subnormal) and the largest subnormal
_SMALL_TOKENS = ["-0.0", "-0", "0e0", "5e-324", "2.4703282292062328e-324",
                 "2.2250738585072009e-308"]


def _tokens(floats, integers, specials):
    """JSON number tokens: ``floats`` written with %.17g, repr and %.25e and as
    exact halfway decimals, ``integers`` and ``specials``."""
    formats = st.sampled_from(["%.17g".__mod__, repr, "%.25e".__mod__, _midpoint])
    return st.one_of(
        st.builds(lambda x, fmt: fmt(x), floats, formats),
        integers.map(str),
        st.sampled_from(specials),
    )


def _matrix_file(path, tokens):
    """Write an n = 2 real instance whose 16 matrix entries are ``tokens``;
    its text."""
    rows = ", ".join("[" + ", ".join(tokens[i:i + 4]) + "]" for i in range(0, 16, 4))
    text = json.dumps(_header("superop", 2, 2))[:-1] + ', "matrix": [' + rows + "]}"
    path.write_text(text)
    return text


class TestDecodeMatchesStdlib:
    """orjson reads every finite number token as stdlib json and float() do."""

    FILE_EXAMPLES = settings(max_examples=200, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])

    @FILE_EXAMPLES
    @given(tokens=st.lists(_tokens(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(-(10**300), 10**300),
                                   _SMALL_TOKENS + ["1.7976931348623157e308"]),
                           min_size=16, max_size=16))
    def test_decode_over_the_double_range(self, tmp_path, tokens):
        # entries this large are refused as too large to multiply, so the
        # bits are compared where the file is decoded
        text = _matrix_file(tmp_path / "inst.json", tokens)
        reference = np.array(json.loads(text)["matrix"], dtype=np.float64)
        got = np.array(_read_json(tmp_path / "inst.json")["matrix"], dtype=np.float64)
        assert got.tobytes() == reference.tobytes()

    @FILE_EXAMPLES
    @given(tokens=st.lists(_tokens(st.floats(-1e150, 1e150), st.integers(-(10**150), 10**150),
                                   _SMALL_TOKENS),
                           min_size=16, max_size=16))
    def test_load_instance_within_the_admitted_range(self, tmp_path, tokens):
        text = _matrix_file(tmp_path / "inst.json", tokens)
        reference = np.array(json.loads(text)["matrix"], dtype=np.float64)
        assert load_instance(tmp_path / "inst.json").mat.tobytes() == reference.tobytes()


def _depth(value):
    if isinstance(value, (list, dict)):
        children = value.values() if isinstance(value, dict) else value
        return 1 + max(map(_depth, children), default=0)
    return 0


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestNestingDepth:
    @pytest.mark.parametrize("text,depth", [
        ("1", 0), ('""', 0), ("[]", 1), ('{"a": [[1], {}]}', 3),
        ('["[[[", {"a]]]\\"]]": [[[2]]]}]', 5),
        ('[["\\\\"], "]"]', 2),
        ('["\\u005b\\"{", [[]]]', 3),
    ])
    def test_brackets_in_strings_do_not_count(self, text, depth):
        assert _nesting_depth(text.encode()) == depth

    @settings(max_examples=200, deadline=None)
    @given(value=_JSON_VALUES, ascii_only=st.booleans())
    def test_depth_of_any_json_text(self, value, ascii_only):
        text = json.dumps(value, ensure_ascii=ascii_only)
        assert _nesting_depth(text.encode("utf-8", "surrogatepass")) == _depth(value)


def _dense_big_obj():
    """A perturbed block map on 3 points: all 9 blocks are in the file."""
    obj = instance_to_json(perturb(gen_pointwise(3, 2, seed=4).map, 1e-3, seed=4))
    assert len(obj["blocks"]) == 9
    return obj


class TestBlockMapReader:
    """The one-step reader names a bad block exactly as the per-block walk does."""

    POSITIONS = pytest.mark.parametrize("position", [0, 4, 8])

    @POSITIONS
    def test_unknown_key(self, position):
        obj = _dense_big_obj()
        items = list(obj["blocks"].items())
        items[position] = ("y1/zz", items[position][1])
        obj["blocks"] = dict(items)
        with pytest.raises(SchemaError, match="known labels") as exc:
            instance_from_json(obj)
        assert exc.value.field == "blocks['y1/zz']"

    @POSITIONS
    @pytest.mark.parametrize("key_form", ["y1", "y1/x1/x2", "/x1", "y1/"])
    def test_malformed_key(self, position, key_form):
        obj = _dense_big_obj()
        items = list(obj["blocks"].items())
        items[position] = (key_form, items[position][1])
        obj["blocks"] = dict(items)
        with pytest.raises(SchemaError, match="known labels") as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{key_form!r}]"

    @POSITIONS
    def test_bad_entry(self, position):
        obj = _dense_big_obj()
        key = list(obj["blocks"])[position]
        obj["blocks"][key][2][1] = None
        with pytest.raises(SchemaError, match="must be a number") as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{key!r}][2][1]"

    @POSITIONS
    def test_block_too_large(self, position):
        obj = _dense_big_obj()
        key = list(obj["blocks"])[position]
        obj["blocks"][key] = [[v * 1e160 for v in row] for row in obj["blocks"][key]]
        with pytest.raises(SchemaError, match="too large") as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{key!r}]"

    def test_first_of_several_bad_blocks_is_named(self):
        obj = _dense_big_obj()
        keys = list(obj["blocks"])
        obj["blocks"][keys[8]][0][0] = "x"
        obj["blocks"][keys[4]] = [[v * 1e160 for v in row] for row in obj["blocks"][keys[4]]]
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert exc.value.field == f"blocks[{keys[4]!r}]"  # the per-block walk names it first
        items = list(obj["blocks"].items())
        items[1] = ("y9/x1", items[1][1])
        obj["blocks"] = dict(items)
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert exc.value.field == "blocks['y9/x1']"

    def test_blocks_land_where_their_keys_say(self):
        obj = _dense_big_obj()
        obj["blocks"] = dict(reversed(list(obj["blocks"].items())))
        T = instance_from_json(obj)
        for key, rows in obj["blocks"].items():
            out_label, in_label = key.split("/")
            x2, x1 = T.space_out.index(out_label), T.space_in.index(in_label)
            assert T.blocks[x2, x1].tobytes() == np.array(rows, dtype=np.float64).tobytes()


def _header(kind, n_in, n_out):
    return {"kind": kind, "field": "real", "vec_convention": "column-major",
            "n_in": n_in, "n_out": n_out}


class TestSizeLimit:
    """Small files that declare maps of 2**40 bytes or more are rejected from
    the header, before anything is allocated."""

    def test_superop_with_huge_n_in(self):
        obj = {**_header("superop", 10**7, 2), "matrix": [[0.0]] * 4}
        with pytest.raises(SchemaError, match="n_in") as exc:
            instance_from_json(obj)
        assert exc.value.field == "n_in"

    def test_block_map_with_huge_n_in(self):
        obj = {**_header("big_superop", 10**7, 2), "points_in": ["x1"], "points_out": ["y1"],
               "blocks": {}}
        with pytest.raises(SchemaError) as exc:
            instance_from_json(obj)
        assert exc.value.field == "n_in"

    def test_block_map_with_many_points(self):
        # every 64 x 64 block is within the limit; 4096 x 4096 of them are not
        labels = [f"p{i}" for i in range(4096)]
        obj = {**_header("big_superop", 64, 64), "points_in": labels, "points_out": labels,
               "blocks": {}}
        with pytest.raises(SchemaError, match="points") as exc:
            instance_from_json(obj)
        assert exc.value.field == "points_in"


class TestAgainstShippedSchemas:
    """Generated artifacts must validate against the schema documents."""

    def test_instances_validate(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "instance.schema.json").read_text())
        for obj in (
            _valid_superop_obj(),
            _valid_big_obj(),
            instance_to_json(gen_conjugation(2, seed=10, cfg=FieldConfig(field="complex")).map),
        ):
            cycled = json.loads(dumps(obj))
            jsonschema.validate(cycled, schema)

    def test_schema_rejects_bad_convention(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "instance.schema.json").read_text())
        obj = _valid_superop_obj()
        obj["vec_convention"] = "row-major"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema)


# the report schema's scalar and matrix before they were written as one
# subschema without oneOf and $ref
_ONE_OF_DEFS = {
    "scalar": {
        "oneOf": [
            {"type": "number"},
            {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
        ]
    },
    "matrix": {
        "type": "array",
        "items": {"type": "array", "items": {"$ref": "#/$defs/scalar"}},
    },
}

_json_leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
                | st.text(max_size=2))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, min_size=1, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=10,
)
# would-be scalars (numbers, bools, lists of 1, 2 or 3 items, nesting) and
# matrices of them, most of whose entries are numbers or lists of 2 or 3 numbers
_numbers = st.integers(-3, 3) | st.floats(-2, 2)
_scalar_like = (_json_leaves | st.lists(_numbers, min_size=1, max_size=3)
                | st.lists(_json_leaves, min_size=1, max_size=3)
                | st.lists(st.lists(st.floats(-2, 2), max_size=2), max_size=2))
_pair_like = _numbers | st.lists(_numbers, min_size=2, max_size=3)
_matrix_like = (st.lists(st.lists(_pair_like, min_size=1, max_size=3), min_size=1, max_size=2)
                | st.lists(st.lists(_scalar_like, max_size=3), max_size=2))


class TestReportScalarSchema:
    """The report schema's scalar is one subschema of type number or array; it
    accepts exactly what the oneOf of a number and an [re, im] pair accepted."""

    @staticmethod
    @functools.cache
    def _validators():
        jsonschema = pytest.importorskip("jsonschema")
        text = (SCHEMA_DIR / "report.schema.json").read_text()
        new, old = json.loads(text), json.loads(text)
        old["$defs"].update(_ONE_OF_DEFS)
        cls = jsonschema.validators.validator_for(new)
        return cls(old), cls(new)

    @settings(max_examples=150, deadline=None)
    @given(value=st.one_of(_json_values, _scalar_like, _matrix_like),
           position=st.sampled_from(["alpha", "S", "A"]))
    def test_old_and_new_schema_agree(self, value, position):
        old, new = self._validators()
        report = {"command": "check", "status": "ok", "elapsed_ms": 1.0}
        if position == "A":
            report["counterexample"] = {"product_in_norm": 0.0, "violation_norm": 0.0, "A": value}
        else:
            report[position] = value
        assert old.is_valid(report) == new.is_valid(report)

    def test_both_verdicts_occur(self):
        old, new = self._validators()
        for value, valid in ((1, True), (0.5, True), ([1, 2.5], True), ([1, 2, 3], False),
                             ([1], False), (True, False), ([True, 1], False), ("1", False),
                             (None, False), ([[1, 2]], False)):
            report = {"command": "check", "status": "ok", "elapsed_ms": 1.0, "alpha": value}
            assert old.is_valid(report) == new.is_valid(report) == valid, value
        for S, valid in (([[1, [2, 3]]], True), ([[1, [2, 3, 4]]], False), ([[[1]]], False),
                         ([[[1, [2]]]], False), ([[1, [True, 2]]], False)):
            report = {"command": "check", "status": "ok", "elapsed_ms": 1.0, "S": S}
            assert old.is_valid(report) == new.is_valid(report) == valid, S
