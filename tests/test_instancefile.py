import json
from pathlib import Path

import numpy as np
import pytest

from bisep import FieldConfig, SchemaError, Superoperator, gen_conjugation, gen_pointwise
from bisep.instancefile import (
    dumps,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    truth_from_json,
    truth_path_for,
    truth_to_json,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


class TestDumps:
    def test_floats_keep_17_significant_digits(self):
        assert dumps(0.1) == "0.10000000000000001"

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
