import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bisep import (
    FieldConfig,
    NotRankOne,
    SingularMatrix,
    ZeroMatrix,
    invert,
    kernel_basis,
    numeric_rank,
    outer,
    pair,
    rank_one_factor,
)
from bisep.errors import DimensionMismatch

CFG = FieldConfig()
CFG_C = FieldConfig(field="complex")

finite_entries = st.floats(min_value=-10, max_value=10, allow_nan=False)


def vec_strategy(n):
    return arrays(np.float64, (n,), elements=finite_entries)


class TestOuter:
    def test_matrix_unit(self):
        np.testing.assert_array_equal(
            outer([1.0, 0.0], [0.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(outer([0.0, 0.0], [3.0, -1.0]), np.zeros((2, 2)))

    def test_direct_expansion(self):
        np.testing.assert_array_equal(
            outer([1.0, 1.0], [1.0, -1.0]), np.array([[1.0, -1.0], [1.0, -1.0]])
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            outer([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_apply_is_pairing_times_u(self):
        rng = np.random.default_rng(3)
        u, f, v = rng.standard_normal((3, 4))
        np.testing.assert_allclose(outer(u, f) @ v, pair(f, v) * u, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    u=vec_strategy(3), f=vec_strategy(3), v=vec_strategy(3), g=vec_strategy(3)
)
def test_outer_composition_rule(u, f, v, g):
    # (u (x) f)(v (x) g) = f(v) * (u (x) g)
    lhs = outer(u, f) @ outer(v, g)
    rhs = pair(f, v) * outer(u, g)
    scale = np.linalg.norm(u) * np.linalg.norm(f) * np.linalg.norm(v) * np.linalg.norm(g)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(scale, 1.0)


@settings(max_examples=60, deadline=None)
@given(u=vec_strategy(4), f=vec_strategy(4))
def test_rank_one_factor_round_trip(u, f):
    A = outer(u, f)
    if np.linalg.norm(A) < 1e-6:
        return
    r = rank_one_factor(A, CFG)
    np.testing.assert_allclose(outer(r.u, r.f), A, atol=1e-12 * np.linalg.norm(A))
    assert abs(np.linalg.norm(r.f) - 1.0) < 1e-12
    lead = r.f[np.flatnonzero(np.abs(r.f) > CFG.tol_abs)[0]]
    assert lead.real > 0 and abs(lead.imag) < 1e-12 if np.iscomplexobj(r.f) else lead > 0


class TestRankOneFactor:
    def test_matrix_unit(self):
        r = rank_one_factor(np.array([[0.0, 1.0], [0.0, 0.0]]), CFG)
        np.testing.assert_allclose(r.f, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(r.u, [1.0, 0.0], atol=1e-15)

    def test_identity_not_rank_one(self):
        with pytest.raises(NotRankOne):
            rank_one_factor(np.eye(2), CFG)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            rank_one_factor(np.zeros((3, 3)), CFG)

    def test_frozen_example(self):
        # [[2,4],[1,2]] = outer(u, f) with f = (1,2)/sqrt(5) in gauge, u = sqrt(5)*(2,1)
        A = np.array([[2.0, 4.0], [1.0, 2.0]])
        r = rank_one_factor(A, CFG)
        s5 = np.sqrt(5.0)
        np.testing.assert_allclose(r.f, np.array([1.0, 2.0]) / s5, rtol=1e-12)
        np.testing.assert_allclose(r.u, np.array([2.0, 1.0]) * s5, rtol=1e-12)
        np.testing.assert_allclose(outer(r.u, r.f), A, atol=1e-12)

    def test_complex_gauge(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        A = outer(u, f)
        r = rank_one_factor(A, CFG_C)
        np.testing.assert_allclose(outer(r.u, r.f), A, atol=1e-12 * np.linalg.norm(A))
        lead = r.f[np.flatnonzero(np.abs(r.f) > CFG_C.tol_abs)[0]]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12


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

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]), CFG)


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
