import numpy as np
import pytest

from bisep import FieldConfig


class TestFieldConfig:
    def test_defaults(self):
        cfg = FieldConfig()
        assert cfg.field == "real" and cfg.tol_rel == 1e-9 and cfg.tol_abs == 1e-12
        assert cfg.dtype == np.float64 and not cfg.is_complex

    def test_complex(self):
        cfg = FieldConfig(field="complex")
        assert cfg.dtype == np.complex128 and cfg.is_complex

    def test_rejects_bad_field(self):
        with pytest.raises(ValueError):
            FieldConfig(field="rational")

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            FieldConfig(tol_rel=0.0)
        with pytest.raises(ValueError):
            FieldConfig(tol_abs=-1e-9)

    def test_threshold_combines_scales(self):
        cfg = FieldConfig(tol_rel=1e-6, tol_abs=1e-10)
        assert cfg.threshold(100.0) == pytest.approx(1e-10 + 1e-4)
        assert 5e-5 <= cfg.threshold(100.0) < 5e-3

    def test_asarray_rejects_non_finite(self):
        cfg = FieldConfig()
        with pytest.raises(ValueError):
            cfg.asarray([[1.0, np.inf]])
        with pytest.raises(ValueError):
            FieldConfig(field="complex").asarray([[1.0, complex(np.nan, 0)]])

    def test_asarray_rejects_arrays_too_large_to_multiply(self):
        # admitted iff twice the squared Frobenius norm is a finite double
        cfg = FieldConfig()
        assert cfg.asarray([[9e153]])[0, 0] == 9e153
        for a in ([[1e154]], [[9e153, 9e153]], [[1e160, 0.0]]):
            with pytest.raises(ValueError, match="too large"):
                cfg.asarray(a)
        with pytest.raises(ValueError, match="too large"):
            FieldConfig(field="complex").asarray([[complex(9e153, 9e153)]])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_asarray_admits_each_matrix(self, field):
        # two matrices that each pass, but whose sum of squares would not
        cfg = FieldConfig(field=field)
        stack = np.full((2, 1, 1), 9e153, dtype=cfg.dtype)
        with pytest.raises(ValueError, match="too large"):
            cfg.asarray(stack)
        assert cfg.asarray(stack, stacked=True) is not None
        stack[1, 0, 0] = 1e154
        with pytest.raises(ValueError, match="too large"):
            cfg.asarray(stack, stacked=True)
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cfg.asarray(stack, stacked=True)
