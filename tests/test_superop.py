import numpy as np
import pytest

from bisep import (
    FieldConfig,
    SingularMatrix,
    Superoperator,
    apply,
    conjugation_superop,
    from_basis_images,
    inverse,
    unvec,
    vec,
)
from bisep.errors import DimensionMismatch
from bisep.linalg import gaussian
from bisep.superop import basis_image_array, conjugation_matrices

CFG = FieldConfig()
E = [[np.zeros((2, 2)) for _ in range(2)] for _ in range(2)]
for p in range(2):
    for q in range(2):
        E[p][q] = np.zeros((2, 2))
        E[p][q][p, q] = 1.0


def test_vec_convention_is_column_major():
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(A), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(A), 2), A)
    # a stack of matrices is vectorized matrix by matrix, bit for bit
    stack = gaussian(np.random.default_rng(0), (5, 3, 3), FieldConfig(field="complex"))
    vecs = vec(stack)
    assert vecs.tobytes() == np.stack([vec(M) for M in stack]).tobytes()
    assert unvec(vecs, 3).tobytes() == np.stack([unvec(v, 3) for v in vecs]).tobytes()
    assert unvec(vecs, 3).tobytes() == stack.tobytes()


def test_identity_superop():
    T = Superoperator(n_in=3, n_out=3, mat=np.eye(9))
    A = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(apply(T, A), A)


def test_scaling_superop():
    T = Superoperator(n_in=2, n_out=2, mat=2.0 * np.eye(4))
    A = np.array([[1.0, -2.0], [0.5, 3.0]])
    np.testing.assert_array_equal(apply(T, A), 2.0 * A)


def test_conjugation_swap_moves_units():
    # oracle: direct matrix product S E11 S^{-1} with S the swap
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = conjugation_superop(1.0, S, CFG)
    expected = S @ E[0][0] @ np.linalg.inv(S)
    np.testing.assert_allclose(apply(T, E[0][0]), expected, atol=1e-14)
    np.testing.assert_allclose(apply(T, E[0][0]), E[1][1], atol=1e-14)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(Superoperator(n_in=2, n_out=2, mat=np.eye(4)), np.eye(3))


def test_apply_linearity():
    rng = np.random.default_rng(0)
    T = Superoperator(n_in=3, n_out=2, mat=rng.standard_normal((4, 9)))
    A, B = rng.standard_normal((2, 3, 3))
    a, b = 1.7, -0.3
    lhs = apply(T, a * A + b * B)
    rhs = a * apply(T, A) + b * apply(T, B)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestBasisImages:
    def test_identity_order(self):
        # images[p, q] is the image of E_pq
        images = basis_image_array(np.eye(4))
        for p, q in np.ndindex(2, 2):
            np.testing.assert_array_equal(images[p, q], E[p][q])

    def test_zero_superop(self):
        T = Superoperator(n_in=2, n_out=3, mat=np.zeros((9, 4)))
        images = basis_image_array(T.mat)
        assert images.shape == (2, 2, 3, 3) and not images.any()

    def test_scaled_identity_conjugation(self):
        images = basis_image_array(conjugation_superop(3.0, np.eye(2), CFG).mat)
        for p, q in np.ndindex(2, 2):
            np.testing.assert_allclose(images[p, q], 3.0 * E[p][q], atol=1e-14)

    def test_from_basis_images_identity(self):
        T = from_basis_images([E[0][0], E[1][0], E[0][1], E[1][1]])
        np.testing.assert_array_equal(T.mat, np.eye(4))

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(1)
        T = Superoperator(n_in=2, n_out=3, mat=rng.standard_normal((9, 4)))
        images = basis_image_array(T.mat)
        # the list is in column-major basis order: element q*n + p is T(E_pq)
        T2 = from_basis_images([images[p, q] for q in range(2) for p in range(2)])
        assert np.array_equal(basis_image_array(T2.mat), images)
        assert np.array_equal(T.mat, T2.mat)

    def test_single_nonzero_image(self):
        images = [E[0][1], np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        T = from_basis_images(images)
        np.testing.assert_array_equal(apply(T, E[0][0]), E[0][1])
        np.testing.assert_array_equal(apply(T, E[1][0]), np.zeros((2, 2)))

    def test_bad_lengths(self):
        with pytest.raises(DimensionMismatch):
            from_basis_images([np.eye(2)] * 3)
        with pytest.raises(DimensionMismatch):
            from_basis_images([np.eye(2), np.eye(3), np.eye(2), np.eye(2)])


class TestComposeInverse:
    def test_inverse_identity(self):
        T = inverse(Superoperator(n_in=2, n_out=2, mat=np.eye(4)))
        np.testing.assert_array_equal(T.mat, np.eye(4))

    def test_compose_with_inverse(self):
        rng = np.random.default_rng(2)
        T = Superoperator(n_in=2, n_out=2, mat=rng.standard_normal((4, 4)) + np.eye(4))
        np.testing.assert_allclose(T.mat @ inverse(T).mat, np.eye(4), atol=1e-12)

    def test_inverse_of_conjugation(self):
        # oracle: compose to the identity, and compare to the closed form
        rng = np.random.default_rng(3)
        S = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        T = conjugation_superop(2.0, S, CFG)
        T_inv = inverse(T)
        closed = conjugation_superop(0.5, np.linalg.inv(S), CFG)
        np.testing.assert_allclose(T_inv.mat, closed.mat, atol=1e-12)
        np.testing.assert_allclose(T.mat @ T_inv.mat, np.eye(9), atol=1e-12)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrix):
            inverse(Superoperator(n_in=2, n_out=2, mat=np.zeros((4, 4))))


class TestConjugation:
    def test_identity_form(self):
        np.testing.assert_array_equal(conjugation_superop(1.0, np.eye(2), CFG).mat, np.eye(4))

    def test_doubling(self):
        np.testing.assert_array_equal(conjugation_superop(2.0, np.eye(2), CFG).mat, 2 * np.eye(4))

    def test_shear_on_unit(self):
        # frozen: S E21 S^{-1} = [[1,-1],[1,-1]] for the unit shear
        T = conjugation_superop(1.0, np.array([[1.0, 1.0], [0.0, 1.0]]), CFG)
        np.testing.assert_allclose(
            apply(T, E[1][0]), np.array([[1.0, -1.0], [1.0, -1.0]]), atol=1e-14
        )

    def test_scale_gauge_freedom(self):
        rng = np.random.default_rng(4)
        S = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        for c in (2.0, -0.3):
            a = conjugation_superop(1.5, S, CFG).mat
            b = conjugation_superop(1.5, c * S, CFG).mat
            np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(a).max())

    def test_scale_gauge_freedom_complex_phase(self):
        cfg = FieldConfig(field="complex")
        rng = np.random.default_rng(5)
        S = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
        a = conjugation_superop(1.0 + 1j, S, cfg).mat
        b = conjugation_superop(1.0 + 1j, np.exp(0.7j) * S, cfg).mat
        np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(a).max())

    def test_composition_law(self):
        rng = np.random.default_rng(6)
        S1 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        S2 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        # the first map applied after the second: the matrices multiply in that order
        lhs = conjugation_superop(2.0, S1, CFG).mat @ conjugation_superop(-0.5, S2, CFG).mat
        rhs = conjugation_superop(-1.0, S1 @ S2, CFG)
        np.testing.assert_allclose(lhs, rhs.mat, atol=1e-10)

    def test_rejects_maps_too_large_to_multiply(self):
        # finite entries, but an entry of T(E_ia) T(E_bl) would overflow
        with pytest.raises(ValueError, match="too large"):
            Superoperator(n_in=2, n_out=2, mat=1e160 * np.eye(4))
        with pytest.raises(ValueError, match="too large"):
            conjugation_superop(1e160, np.eye(2), CFG)

    def test_rejects_zero_alpha_and_singular_s(self):
        with pytest.raises(ValueError):
            conjugation_superop(0.0, np.eye(2), CFG)
        with pytest.raises(SingularMatrix):
            conjugation_superop(1.0, np.array([[1.0, 1.0], [1.0, 1.0]]), CFG)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_is_each_map_bit_for_bit(self, field):
        cfg = FieldConfig(field=field)
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            Ss = gaussian(rng, (5, n, n), cfg) + 3 * np.eye(n)
            alphas = gaussian(rng, (5,), cfg) + 2
            mats = conjugation_matrices(alphas, Ss, cfg)
            assert mats.shape == (5, n * n, n * n)
            for x in range(5):
                assert mats[x].tobytes() == conjugation_superop(alphas[x], Ss[x], cfg).mat.tobytes()

    def test_stack_refuses_as_one_point_does(self):
        Ss = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="alpha = 0.0 is zero"):
            conjugation_matrices(np.array([1.0, 0.0]), Ss, CFG)
        with pytest.raises(ValueError, match="too large"):
            conjugation_matrices(np.array([1.0, 1e160]), Ss, CFG)
        with pytest.raises(SingularMatrix):
            conjugation_matrices(np.array([1.0, 1.0]), np.stack([np.eye(2), np.ones((2, 2))]), CFG)
        with pytest.raises(DimensionMismatch):
            conjugation_matrices(np.array([1.0]), np.ones((1, 2, 3)), CFG)
        with pytest.raises(DimensionMismatch):  # conjugation_superop takes one S
            conjugation_superop(np.array([1.0, 1.0]), Ss, CFG)
