import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bisep import FieldConfig, SingularMatrix, invert, kernel_basis, numeric_rank
from bisep.linalg import gaussian

CFG = FieldConfig()
CFG_C = FieldConfig(field="complex")

finite_entries = st.floats(min_value=-10, max_value=10, allow_nan=False)


def vec_strategy(n):
    return arrays(np.float64, (n,), elements=finite_entries)


class TestOuter:
    """Rank-one operators u (x) f = np.outer(u, f) under the module's pairing."""

    def test_apply_is_pairing_times_u(self):
        # the pairing is bilinear: no conjugation, also over the complex field
        rng = np.random.default_rng(3)
        u, f, v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        np.testing.assert_allclose(np.outer(u, f) @ v, (f @ v) * u, rtol=1e-12)
        assert abs(f @ v - np.vdot(f, v)) > 1e-3


@settings(max_examples=60, deadline=None)
@given(
    u=vec_strategy(3), f=vec_strategy(3), v=vec_strategy(3), g=vec_strategy(3)
)
def test_outer_composition_rule(u, f, v, g):
    # (u (x) f)(v (x) g) = f(v) * (u (x) g), the pairing bilinear
    lhs = np.outer(u, f) @ np.outer(v, g)
    rhs = (f @ v) * np.outer(u, g)
    scale = np.linalg.norm(u) * np.linalg.norm(f) * np.linalg.norm(v) * np.linalg.norm(g)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)


class TestNumericRank:
    def test_zero(self):
        assert numeric_rank(np.zeros((2, 2)), CFG) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(3), CFG) == 3

    def test_threshold_forced(self):
        assert numeric_rank(np.diag([1.0, 1e-13]), CFG) == 1

    def test_transpose_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(1, 6)
            r = rng.integers(0, n + 1)
            A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            assert numeric_rank(A, CFG) == numeric_rank(A.T, CFG) == r

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(6)
        for cfg in (CFG, CFG_C):
            # ranks 0..3, plus directions scaled to sit on both sides of tol_rel and tol_abs
            factors = [rng.standard_normal((4, r)) @ rng.standard_normal((r, 4)) for r in range(4)]
            stack = np.array(factors + [np.diag([1.0, 2e-9, 5e-10, 0.0]),
                                        np.diag([2e-12, 1e-12, 0.0, 0.0]),
                                        np.diag([5e-13, 0.0, 0.0, 0.0])], dtype=cfg.dtype)
            stack = np.stack([stack, 1j * stack if cfg.is_complex else -stack])
            ranks = numeric_rank(stack, cfg)
            assert ranks.shape == stack.shape[:2]
            for idx in np.ndindex(*ranks.shape):
                assert ranks[idx] == numeric_rank(stack[idx], cfg)
            assert list(ranks[0]) == [0, 1, 2, 3, 2, 2, 0]


class TestInvert:
    def test_identity(self):
        inv, cond = invert(np.eye(2), CFG)
        np.testing.assert_array_equal(inv, np.eye(2))
        assert cond == pytest.approx(1.0)

    def test_involution(self):
        sw = np.array([[0.0, 1.0], [1.0, 0.0]])
        inv, _ = invert(sw, CFG)
        np.testing.assert_allclose(inv, sw, atol=1e-15)

    def test_unitriangular(self):
        inv, _ = invert(np.array([[1.0, 1.0], [0.0, 1.0]]), CFG)
        np.testing.assert_allclose(inv, np.array([[1.0, -1.0], [0.0, 1.0]]), atol=1e-15)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        inv, cond = invert(A, CFG)
        resid = np.linalg.norm(A @ inv - np.eye(6))
        assert resid <= 1e-12 * cond

    def test_empty(self):
        inv, cond = invert(np.zeros((0, 0)), CFG)
        assert inv.shape == (0, 0) and cond == 1.0

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]), CFG)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_inverse_too_large_to_admit_is_singular(self, field):
        # full rank at these tolerances, but the inverse fails the admission rule
        cfg = FieldConfig(field=field, tol_rel=1e-300, tol_abs=1e-300)
        with pytest.raises(SingularMatrix, match="inverse too large to represent"):
            invert(np.diag([1.0, 1e-200]).astype(cfg.dtype), cfg)
        inv, _ = invert(np.diag([1.0, 1e-150]).astype(cfg.dtype), cfg)
        assert inv[1, 1] == 1e150

    @pytest.mark.parametrize("cfg", [CFG, CFG_C])
    def test_stack_is_each_matrix_bit_for_bit(self, cfg):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5):
            stack = gaussian(rng, (2, 3, n, n), cfg)
            inv, cond = invert(stack, cfg)
            assert inv.shape == stack.shape and cond.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                one, one_cond = invert(stack[idx], cfg)
                assert inv[idx].tobytes() == one.tobytes() and cond[idx] == one_cond

    def test_stack_with_a_singular_matrix_is_singular(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2))])
        with pytest.raises(SingularMatrix, match="numeric rank 0 < 2"):
            invert(stack, CFG)
        with pytest.raises(SingularMatrix, match="numeric rank 1 < 2"):
            invert(stack[:2], CFG)

    def test_stack_admits_each_inverse_on_its_own(self):
        # each inverse passes the admission rule, their stack as one array would not
        cfg = FieldConfig(tol_rel=1e-300, tol_abs=1e-300)
        stack = np.stack([np.diag([1.0, 1.1e-154]), np.diag([1.0, 1.1e-154])])
        inv, _ = invert(stack, cfg)
        assert inv[1, 1, 1] == invert(stack[1], cfg)[0][1, 1]
        with pytest.raises(SingularMatrix, match="inverse too large"):
            invert(np.stack([np.eye(2), np.diag([1.0, 1e-200])]), cfg)

    def test_empty_stack_of_empty_matrices(self):
        inv, cond = invert(np.zeros((3, 0, 0)), CFG)
        assert inv.shape == (3, 0, 0) and cond.tolist() == [1.0, 1.0, 1.0]


class TestKernelBasis:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(np.eye(2), CFG) == []

    def test_zero_matrix(self):
        basis = kernel_basis(np.zeros((2, 2)), CFG)
        assert len(basis) == 2
        G = np.array(basis)
        np.testing.assert_allclose(G @ G.conj().T, np.eye(2), atol=1e-14)

    def test_matrix_unit_kernel(self):
        (v,) = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), CFG)
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0], atol=1e-14)

    def test_vectors_annihilated(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        for v in kernel_basis(A, CFG):
            assert np.linalg.norm(A @ v) <= 1e-12 * np.linalg.norm(A)
