import numpy as np
import pytest

from bisep import (
    BigSuperoperator,
    FieldConfig,
    Superoperator,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    is_separating_exact,
    is_separating_sampled,
    is_strictly_separating,
    perturb,
    recover_conjugation,
    verify_form,
    verify_pointwise,
)
from bisep.errors import BisepError
from bisep.harness import DEFAULT_ALPHA_RANGE, _checked_truths
from bisep.superop import conjugation_matrices
from pointwise_reference import reference_conjugation, reference_point_mixing, reference_pointwise

CFG = FieldConfig()


class TestGenConjugation:
    def test_round_trip_against_truth(self):
        b = gen_conjugation(2, seed=0)
        form = recover_conjugation(b.map)
        assert abs(form.alpha - b.ground_truth.alpha) <= 1e-10
        np.testing.assert_allclose(form.S, b.ground_truth.S, atol=1e-10)

    def test_identity_like_instance(self):
        b = gen_conjugation(3, seed=1, alpha_range=(1.0, 1.0), cond_cap=1)
        np.testing.assert_array_equal(np.abs(b.ground_truth.alpha), 1.0)
        # S = I in gauge: norm sqrt(3), positive leading entry
        np.testing.assert_allclose(b.ground_truth.S, np.eye(3), atol=1e-14)

    def test_condition_cap_respected(self):
        for seed in range(10):
            b = gen_conjugation(4, seed=seed, cond_cap=50.0)
            s = np.linalg.svd(b.ground_truth.S, compute_uv=False)
            assert s[0] / s[-1] <= 50.0

    def test_loose_conditioning_still_recovers(self):
        worst = 0.0
        for seed in range(20):
            b = gen_conjugation(8, seed=seed, cond_cap=1e3)
            form = recover_conjugation(b.map)
            worst = max(worst, verify_form(b.map, form))
        assert worst <= 1e-7

    def test_construction_invariant(self):
        for seed in range(5):
            b = gen_conjugation(5, seed=seed)
            assert verify_form(b.map, b.ground_truth) <= 1e-10

    def test_complex_field(self):
        cfg = FieldConfig(field="complex")
        b = gen_conjugation(3, seed=2, cfg=cfg)
        assert np.iscomplexobj(b.map.mat)
        form = recover_conjugation(b.map)
        assert abs(form.alpha - b.ground_truth.alpha) <= 1e-9 * abs(b.ground_truth.alpha)


class TestGenPointwise:
    def test_k1_degenerates_to_single_conjugation(self):
        b = gen_pointwise(1, 2, seed=3)
        assert b.map.space_in.k == 1 and b.map.space_out.k == 1
        assert recover_conjugation(b.map.block(0, 0)) is not None

    def test_round_trip_permutation(self):
        from bisep import recover_pointwise

        b = gen_pointwise(3, 2, seed=5)
        assert recover_pointwise(b.map).phi == b.ground_truth.phi

    def test_scalar_instance_shape(self):
        b = gen_pointwise(4, 1, seed=6)
        for lab, S in b.ground_truth.S.items():
            np.testing.assert_array_equal(S, np.eye(1))
            assert abs(b.ground_truth.alphas[lab]) > 0

    def test_one_block_per_row_and_column(self):
        b = gen_pointwise(4, 2, seed=7)
        mass = np.linalg.norm(b.map.blocks, axis=(2, 3))
        assert np.all((mass > 1e-9).sum(axis=0) == 1)
        assert np.all((mass > 1e-9).sum(axis=1) == 1)

    def test_construction_invariant(self):
        b = gen_pointwise(3, 3, seed=8)
        assert verify_pointwise(b.map, b.ground_truth) <= 1e-10


class TestNegatives:
    def test_transpose_counterexample(self):
        verdict = is_separating_exact(gen_transpose(2))
        assert verdict.status == "not_separating"
        # the classic violating pair, checked directly against transposition
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.all(E12 @ E11 == 0) and np.linalg.norm(E12.T @ E11.T) > 0

    def test_point_mixing_violation(self):
        verdict = is_strictly_separating(gen_point_mixing(2, 2, seed=9))
        assert verdict.status == "not_separating"
        assert verdict.counterexample is not None

    def test_point_mixing_needs_two_points(self):
        with pytest.raises(ValueError):
            gen_point_mixing(1, 2, seed=0)


class TestPerturb:
    def test_zero_eps_identical(self):
        b = gen_conjugation(3, seed=10)
        assert perturb(b.map, 0.0, seed=1) is b.map

    def test_direction_has_unit_norm(self):
        b = gen_conjugation(3, seed=11)
        p = perturb(b.map, 1e-3, seed=2)
        assert np.linalg.norm(p.mat - b.map.mat) == pytest.approx(1e-3)

    def test_big_superoperator_perturbation(self):
        b = gen_pointwise(2, 2, seed=12)
        p = perturb(b.map, 1e-4, seed=3)
        assert isinstance(p, BigSuperoperator)
        assert np.linalg.norm(p.blocks - b.map.blocks) == pytest.approx(1e-4)

    def test_detection_at_modest_eps(self):
        flagged = 0
        for seed in range(30):
            b = gen_conjugation(3, seed=seed)
            p = perturb(b.map, 1e-3, seed=seed)
            flagged += is_separating_exact(p).status == "not_separating"
        assert flagged >= 28  # generic perturbations leave the standard manifold


class TestDeterminism:
    def test_conjugation_bit_identical(self):
        a = gen_conjugation(4, seed=13)
        b = gen_conjugation(4, seed=13)
        assert np.array_equal(a.map.mat, b.map.mat)
        assert a.ground_truth.alpha == b.ground_truth.alpha

    def test_pointwise_bit_identical(self):
        a = gen_pointwise(3, 2, seed=14)
        b = gen_pointwise(3, 2, seed=14)
        assert np.array_equal(a.map.blocks, b.map.blocks)
        assert a.ground_truth.phi == b.ground_truth.phi


class TestOracle:
    def test_conjugations_pass(self):
        b = gen_conjugation(3, seed=15)
        assert is_separating_sampled(b.map, 500, seed=0).status == "separating"

    def test_transpose_fails_many_trials(self):
        verdict = is_separating_sampled(gen_transpose(2), 10_000, seed=1)
        assert verdict.status == "not_separating"

    def test_oracle_counterexample_self_verifies(self):
        T = gen_transpose(3)
        ce = is_separating_sampled(T, 1000, seed=2).counterexample
        assert np.linalg.norm(ce.A @ ce.B) <= 1e-13
        assert ce.violation_norm > 0


class TestStackedBuild:
    """gen_pointwise builds its k points as one stack; the result is bit for bit
    the one-point-at-a-time build of tests/pointwise_reference.py."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pointwise_matches_one_point_reference(self, field):
        cfg = FieldConfig(field=field)
        for k in (1, 2, 3, 5, 8, 16, 32):
            for n in (1, 2, 3):
                for seed in range(6):
                    b = gen_pointwise(k, n, seed, cfg)
                    T, truth = reference_pointwise(k, n, seed, cfg)
                    assert b.map.blocks.tobytes() == T.blocks.tobytes(), (k, n, seed)
                    assert b.ground_truth.phi == truth.phi
                    assert b.ground_truth.alphas == truth.alphas
                    assert all(type(a) is type(truth.alphas[lab]) for lab, a in b.ground_truth.alphas.items())
                    for lab, S in truth.S.items():
                        assert b.ground_truth.S[lab].tobytes() == S.tobytes(), (k, n, seed, lab)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_conjugation_matches_one_point_reference(self, field):
        cfg = FieldConfig(field=field)
        for n in range(1, 7):
            for seed in range(8):
                for alpha_range, cond_cap in ((DEFAULT_ALPHA_RANGE, 100.0), ((1e-3, 1e3), 1e4),
                                              (DEFAULT_ALPHA_RANGE, 1.0)):
                    b = gen_conjugation(n, seed, alpha_range, cond_cap, cfg)
                    T, alpha, S = reference_conjugation(n, seed, cfg, alpha_range, cond_cap)
                    assert b.map.mat.tobytes() == T.mat.tobytes(), (n, seed, cond_cap)
                    assert b.ground_truth.alpha == alpha
                    assert b.ground_truth.S.tobytes() == S.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_point_mixing_matches_one_point_reference(self, field):
        cfg = FieldConfig(field=field)
        for k in (2, 3, 5):
            for n in (1, 2, 3):
                for seed in range(3):
                    blocks = gen_point_mixing(k, n, seed, cfg).blocks
                    assert blocks.tobytes() == reference_point_mixing(k, n, seed, cfg).tobytes()

    def test_truth_check_is_per_point(self):
        # each point is held to 1e-10 at its own scale: a map that misses its
        # truth at one point is refused, however small that point's images
        cfg = FieldConfig()
        Ss = np.stack([np.eye(2), np.array([[2.0, 1.0], [0.0, 1.0]])])
        alphas = np.array([1e6, 1e-6])
        mats = conjugation_matrices(alphas, Ss, cfg)
        _checked_truths(mats, alphas, Ss, cfg)
        mats[1, 0, 0] += 1e-15  # 4.5e-10 of the small point's scale, 1e-21 of the large one's
        with pytest.raises(BisepError, match="misses its ground truth"):
            _checked_truths(mats, alphas, Ss, cfg)
