import numpy as np
import pytest

from bisep import (
    ConjugationForm,
    FieldConfig,
    NotFactorizable,
    NotInvertibleS,
    NotRankOnePreserving,
    NotStandardForm,
    Superoperator,
    conjugation_superop,
    from_basis_images,
    gauge_normalize,
    gen_conjugation,
    gen_transpose,
    perturb,
    recover_conjugation,
    verify_form,
)
from bisep import structure
from bisep.errors import DegenerateMap
from bisep.linalg import gaussian, invert, kernel_basis
from bisep.structure import fit_conjugation, unit_deviations
from bisep.superop import apply, basis_image_array

CFG = FieldConfig()
CFG_C = FieldConfig(field="complex")


def random_s(rng, n, complex_field=False):
    S = rng.standard_normal((n, n))
    if complex_field:
        S = S + 1j * rng.standard_normal((n, n))
    # keep conditioning sane for round-trip tests
    return S + 2 * np.eye(n)


class TestGauge:
    def test_norm_and_leading_entry(self):
        S = gauge_normalize(np.array([[-2.0, 0.0], [0.0, -2.0]]), CFG)
        assert np.linalg.norm(S) == pytest.approx(np.sqrt(2))
        assert S[0, 0] > 0

    def test_complex_phase(self):
        S0 = (1.0 + 1.0j) * np.array([[1.0, 0.5], [0.0, 2.0]])
        S = gauge_normalize(S0, CFG_C)
        flat = S.reshape(-1, order="F")
        lead = flat[np.flatnonzero(np.abs(flat) > CFG_C.tol_abs)[0]]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12
        assert np.linalg.norm(S) == pytest.approx(np.sqrt(2))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((3, 3))
        once = gauge_normalize(S, CFG)
        np.testing.assert_allclose(gauge_normalize(once, CFG), once, atol=1e-14)


class TestRecover:
    def test_identity(self):
        form = recover_conjugation(Superoperator(n_in=2, n_out=2, mat=np.eye(4)))
        assert form.alpha == pytest.approx(1.0)
        np.testing.assert_allclose(form.S, np.eye(2), atol=1e-14)

    def test_shear_example(self):
        S0 = np.array([[1.0, 1.0], [0.0, 1.0]])
        T = conjugation_superop(3.0, S0, CFG)
        form = recover_conjugation(T)
        assert form.alpha == pytest.approx(3.0)
        np.testing.assert_allclose(form.S, S0 * np.sqrt(2.0 / 3.0), atol=1e-12)
        assert verify_form(T, form) <= 1e-10

    def test_transpose_rejected_at_covector_step(self):
        # recorded: the shared-covector comparison is the step that fires
        with pytest.raises(NotFactorizable):
            recover_conjugation(gen_transpose(2))

    def test_round_trip_all_sizes_both_fields(self):
        for cfg, complex_field in ((CFG, False), (CFG_C, True)):
            rng = np.random.default_rng(7)
            for n in range(1, 9):
                for trial in range(3):
                    S = random_s(rng, n, complex_field)
                    alpha = rng.uniform(0.5, 2.0)
                    if complex_field:
                        alpha = alpha * np.exp(1j * rng.uniform(0, 2 * np.pi))
                    T = conjugation_superop(alpha, S, cfg)
                    form = recover_conjugation(T)
                    # alpha is gauge-free, so it must match exactly (not up to scale)
                    assert abs(form.alpha - alpha) <= 1e-8 * abs(alpha)
                    np.testing.assert_allclose(
                        form.S, gauge_normalize(S, cfg), atol=1e-8
                    )
                    assert verify_form(T, form) <= 1e-8

    def test_gauge_scale_of_input_is_irrelevant(self):
        rng = np.random.default_rng(8)
        S = random_s(rng, 3)
        a = recover_conjugation(conjugation_superop(1.2, S, CFG))
        b = recover_conjugation(conjugation_superop(1.2, -5.0 * S, CFG))
        assert a.alpha == pytest.approx(b.alpha)
        np.testing.assert_allclose(a.S, b.S, atol=1e-10)

    def test_n1_degenerate(self):
        form = recover_conjugation(Superoperator(n_in=1, n_out=1, mat=[[4.0]]))
        assert form.alpha == pytest.approx(4.0)
        np.testing.assert_array_equal(form.S, np.eye(1))
        with pytest.raises(NotStandardForm):
            recover_conjugation(Superoperator(n_in=1, n_out=1, mat=[[0.0]]))

    def test_not_rank_one_preserving_error(self):
        images = [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        with pytest.raises(NotRankOnePreserving):
            recover_conjugation(from_basis_images(images))

    def test_rank_one_units_but_not_rank_one_preserving(self):
        # the identity with the images of E_11 and E_12 swapped: every unit
        # image is rank one, but E_11 + E_21 maps to E_12 + E_21, of rank two.
        # Only the matrix units are rank-tested, so the covector step names
        # the failure
        E = [np.outer(np.eye(2)[p], np.eye(2)[q]) for q in range(2) for p in range(2)]
        T = from_basis_images([E[2], E[1], E[0], E[3]])
        assert (np.linalg.matrix_rank(basis_image_array(T.mat)) == 1).all()
        assert np.linalg.matrix_rank(apply(T, E[0] + E[1])) == 2
        with pytest.raises(NotFactorizable, match="E_21 does not share the covector of the E_11"):
            recover_conjugation(T)

    def test_not_invertible_s_error(self):
        # A -> e1 (ones^T A): rank-one preserving, but all columns collapse onto e1
        ones = np.ones(2)
        e1 = np.array([1.0, 0.0])
        images = []
        for q in range(2):
            for p in range(2):
                unit = np.zeros((2, 2))
                unit[p, q] = 1.0
                images.append(np.outer(e1, ones @ unit))
        with pytest.raises(NotInvertibleS):
            recover_conjugation(from_basis_images(images))

    def test_not_standard_form_error(self):
        # E_ij -> c_j E_ij with c = (1, 2): shared covectors, invertible S,
        # but the identity maps to diag(1, 2)
        c = [1.0, 2.0]
        images = []
        for q in range(2):
            for p in range(2):
                unit = np.zeros((2, 2))
                unit[p, q] = c[q]
                images.append(unit)
        with pytest.raises(NotStandardForm):
            recover_conjugation(from_basis_images(images))


class TestVerifyForm:
    def test_round_trip_residual(self):
        rng = np.random.default_rng(9)
        S = random_s(rng, 4)
        T = conjugation_superop(1.7, S, CFG)
        assert verify_form(T, recover_conjugation(T)) <= 1e-10

    def test_wrong_alpha_visible(self):
        # identity map against the form (2, I): every image off by a factor 2
        T = Superoperator(n_in=2, n_out=2, mat=np.eye(4))
        residual = verify_form(T, ConjugationForm(alpha=2.0, S=np.eye(2)))
        assert residual == pytest.approx(1.0)
        assert residual > 0.1

    def test_zero_map_guard(self):
        T = Superoperator(n_in=2, n_out=2, mat=np.zeros((4, 4)))
        with pytest.raises(DegenerateMap):
            verify_form(T, ConjugationForm(alpha=1.0, S=np.eye(2)))

    @pytest.mark.parametrize("cfg", [CFG, CFG_C])
    def test_stacked_unit_deviations_are_each_points_bit_for_bit(self, cfg):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3):
            Ss = gaussian(rng, (4, n, n), cfg) + 2 * np.eye(n)
            alphas = gaussian(rng, (4,), cfg) + 2
            im = basis_image_array(gaussian(rng, (4, n * n, n * n), cfg))
            dev = unit_deviations(im, alphas, Ss, cfg)
            assert dev.shape == (4, n, n)
            for x in range(4):
                assert dev[x].tobytes() == unit_deviations(im[x], alphas[x], Ss[x], cfg).tobytes()


class TestPsi:
    """The covector companion Psi = alpha * (S^{-1})^T of a form (alpha, S)."""

    def test_identity(self):
        np.testing.assert_array_equal(1.0 * np.linalg.inv(np.eye(2)).T, np.eye(2))

    def test_scaling(self):
        np.testing.assert_array_equal(2.0 * np.linalg.inv(np.eye(2)).T, 2.0 * np.eye(2))

    def test_shear_frozen(self):
        Psi = 1.0 * np.linalg.inv(np.array([[1.0, 1.0], [0.0, 1.0]])).T
        np.testing.assert_allclose(Psi, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-14)

    def test_rank_one_image_identity(self):
        # T(u (x) f) = (S u) (x) (Psi f) on random rank-one inputs
        rng = np.random.default_rng(10)
        S = random_s(rng, 3)
        alpha = 1.9
        T = conjugation_superop(alpha, S, CFG)
        form = recover_conjugation(T)
        Psi = form.alpha * np.linalg.inv(form.S).T
        for _ in range(10):
            u = rng.standard_normal(3)
            f = rng.standard_normal(3)
            lhs = apply(T, np.outer(u, f))
            rhs = np.outer(form.S @ u, Psi @ f)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * np.linalg.norm(lhs))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        form = recover_conjugation(conjugation_superop(1.3, random_s(rng, 4), CFG))
        Psi = form.alpha * np.linalg.inv(form.S).T
        np.testing.assert_allclose(form.S.T @ Psi, form.alpha * np.eye(4), atol=1e-9)

    def test_kernel_identity(self):
        # the covector Psi(f) annihilates exactly the S-image of ker(f)
        rng = np.random.default_rng(15)
        form = recover_conjugation(conjugation_superop(1.1, random_s(rng, 4), CFG))
        Psi = form.alpha * np.linalg.inv(form.S).T
        f = rng.standard_normal(4)
        basis = kernel_basis(f[None, :], CFG)  # ker of the covector f
        assert len(basis) == 3
        for v in basis:
            assert abs((Psi @ f) @ (form.S @ v)) <= 1e-9


class TestCompositionIdentity:
    def test_inverse_conjugation_rescales_units(self):
        # composing with the inverse similarity leaves alpha times each unit
        rng = np.random.default_rng(12)
        S = random_s(rng, 3)
        alpha = 1.4
        T = conjugation_superop(alpha, S, CFG)
        form = recover_conjugation(T)
        S_rec_inv, _ = invert(form.S, CFG)
        T_tilde = conjugation_superop(1.0, S_rec_inv, CFG)
        images = basis_image_array(T_tilde.mat @ T.mat)  # T_tilde after T
        for p, q in np.ndindex(3, 3):
            unit = np.zeros((3, 3))
            unit[p, q] = 1.0
            np.testing.assert_allclose(images[p, q], alpha * unit, atol=1e-9)

    def test_alpha_cross_check_via_covector_route(self):
        # alpha equals the trace of the image of E_11 for maps in standard form
        rng = np.random.default_rng(13)
        for n in (2, 4):
            S = random_s(rng, n)
            alpha = rng.uniform(0.5, 2.0)
            T = conjugation_superop(alpha, S, CFG)
            assert np.trace(apply(T, np.outer(_e(n, 0), _e(n, 0)))) == pytest.approx(alpha)


def _e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_biseparating_implies_recoverable():
    """Maps passing the biseparating check must be accepted by recovery."""
    from bisep import is_biseparating, perturb, gen_conjugation

    rng = np.random.default_rng(14)
    passing = rejected = 0
    for t in range(60):
        kind = t % 3
        if kind == 0:
            T = gen_conjugation(3, seed=t).map
        elif kind == 1:
            T = perturb(gen_conjugation(3, seed=t).map, 1e-3, seed=t)
        else:
            T = Superoperator(n_in=3, n_out=3, mat=rng.standard_normal((9, 9)))
        if is_biseparating(T).status == "biseparating":
            passing += 1
            form = recover_conjugation(T)
            if verify_form(T, form) > 1e-8:
                rejected += 1
    assert passing >= 20 and rejected == 0


class TestFitConjugation:
    def test_residual_is_verify_forms(self):
        # the recovered form carries the residual that verify_form computes, bit for bit
        for cfg in (CFG, CFG_C):
            for n in range(1, 7):
                for seed in range(3):
                    T = gen_conjugation(n, seed, cfg=cfg).map
                    for U in (T, perturb(T, 1e-12, seed)):
                        form = recover_conjugation(U)
                        assert form.residual == verify_form(U, form)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_conjugations_stop_before_s_is_inverted(self, field, monkeypatch):
        # a perturbed map stops at the rank of T(E_11), a transpose at the second
        # column of S: neither inverts S nor makes the residual pass
        def refuse(*args):
            raise AssertionError("S was inverted or the residual pass ran")

        cfg = FieldConfig(field=field)
        sizes = range(2, 9)
        perturbed = [perturb(gen_conjugation(n, n, cfg=cfg).map, 1e-6, n) for n in sizes]
        transposes = [gen_transpose(n, cfg) for n in sizes]
        monkeypatch.setattr(structure, "invert", refuse)
        monkeypatch.setattr(structure, "_deviations", refuse)
        for T in perturbed:
            with pytest.raises(NotRankOnePreserving):
                fit_conjugation(basis_image_array(T.mat), T.cfg)
        for T in transposes:
            with pytest.raises(NotFactorizable):
                fit_conjugation(basis_image_array(T.mat), T.cfg)
