import itertools
import tracemalloc

import numpy as np
import pytest

from bisep import (
    BISEPARATING,
    FieldConfig,
    NOT_INVERTIBLE,
    NOT_SEPARATING,
    SEPARATING,
    Superoperator,
    conjugation_superop,
    gen_conjugation,
    gen_transpose,
    identity_superop,
    is_biseparating,
    is_separating_exact,
    is_separating_sampled,
    perturb,
    random_zero_product_pair,
    scalar_identity_test,
)
from bisep.errors import InfeasibleRanks
from bisep.linalg import frob, numeric_rank
from bisep.superop import apply, basis_image_array, image_scale

CFG = FieldConfig()


class TestScalarIdentityTest:
    def test_scaled_identity(self):
        ok, c = scalar_identity_test(5.0 * np.eye(3), CFG, scale=1.0)
        assert ok and c == pytest.approx(5.0)

    def test_matrix_unit_fails(self):
        ok, _ = scalar_identity_test(np.array([[0.0, 1.0], [0.0, 0.0]]), CFG, scale=1.0)
        assert not ok

    def test_within_tolerance(self):
        ok, c = scalar_identity_test(np.diag([1.0, 1.0 + 1e-12]), CFG, scale=1.0)
        assert ok and c == pytest.approx(1.0)

    def test_diagonal_mismatch_fails(self):
        ok, _ = scalar_identity_test(np.diag([1.0, 2.0]), CFG, scale=1.0)
        assert not ok


    def test_agrees_with_the_checker_on_basis_products(self):
        """The checker's verdict is separating iff every matrix M_ab of the
        module docstring passes scalar_identity_test at the checker's scale."""
        rng = np.random.default_rng(3)
        maps = [gen_transpose(3), gen_conjugation(3, seed=1).map]
        maps += [perturb(gen_conjugation(3, seed=s).map, eps, seed=s)
                 for s, eps in ((2, 1e-3), (3, 1e-8), (4, 1e-11))]
        maps += [Superoperator(n_in=2, n_out=2, mat=rng.standard_normal((4, 4)))]
        for T in maps:
            im = basis_image_array(T.mat)
            scale = image_scale(im) ** 2
            n, m = T.n_in, T.n_out
            scalar = all(
                scalar_identity_test(
                    np.array([[(im[i, a] @ im[b, l])[p, q] for b in range(n)] for a in range(n)]),
                    T.cfg, scale,
                )[0]
                for i, l, p, q in itertools.product(range(n), range(n), range(m), range(m))
            )
            assert scalar == (is_separating_exact(T).status == SEPARATING)


class TestExactChecker:
    def test_memory_stays_below_the_full_product_tensor(self):
        # one row slice at a time: the n^4 m^2 tensor of all basis products is never built
        n = 12
        for T in (gen_conjugation(n, seed=2).map, perturb(gen_conjugation(n, seed=2).map, 1e-3, seed=2)):
            tracemalloc.start()
            try:
                is_separating_exact(T)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n**6 * np.dtype(np.float64).itemsize

    def test_conjugations_are_separating(self):
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            S = rng.standard_normal((n, n)) + 2 * np.eye(n)
            alpha = rng.uniform(0.5, 2.0)
            assert is_separating_exact(conjugation_superop(alpha, S, CFG)).status == SEPARATING

    def test_transpose_not_separating(self):
        verdict = is_separating_exact(gen_transpose(2))
        assert verdict.status == NOT_SEPARATING
        ce = verdict.counterexample
        assert ce.product_in_norm == 0.0
        assert np.linalg.norm(ce.A @ ce.B) == 0.0
        T = gen_transpose(2)
        assert np.linalg.norm(apply(T, ce.A) @ apply(T, ce.B)) == pytest.approx(
            ce.violation_norm
        )
        assert ce.violation_norm > 1e-6

    def test_transpose_classic_pair_violates(self):
        # the classic pair: E12 @ E11 = 0 but E21 @ E11 = E21 != 0
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.all(E12 @ E11 == 0)
        assert np.linalg.norm(E12.T @ E11.T) == 1.0

    def test_counterexample_deterministic(self):
        a = is_separating_exact(gen_transpose(3)).counterexample
        b = is_separating_exact(gen_transpose(3)).counterexample
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_n_equals_one_always_separating(self):
        assert is_separating_exact(Superoperator(n_in=1, n_out=1, mat=[[7.0]])).status == SEPARATING
        assert is_separating_exact(Superoperator(n_in=1, n_out=1, mat=[[0.0]])).status == SEPARATING

    def test_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for c in (3.0, -0.03, 1e4):
            random_map = Superoperator(n_in=2, n_out=2, mat=rng.standard_normal((4, 4)))
            conj = conjugation_superop(1.3, rng.standard_normal((2, 2)) + 2 * np.eye(2), CFG)
            for T in (random_map, conj):
                scaled = Superoperator(n_in=T.n_in, n_out=T.n_out, mat=c * T.mat, cfg=T.cfg)
                assert is_separating_exact(T).status == is_separating_exact(scaled).status

    def test_non_square_output_algebra(self):
        # M_2 -> M_3 embedding A -> diag(A, 0) is an algebra morphism, hence separating
        mat = np.zeros((9, 4))
        for p in range(2):
            for q in range(2):
                mat[q * 3 + p, q * 2 + p] = 1.0
        T = Superoperator(n_in=2, n_out=3, mat=mat)
        assert is_separating_exact(T).status == SEPARATING


class TestZeroProductPairs:
    def test_small_pair(self):
        A, B = random_zero_product_pair(2, 1, 1, seed=0)
        assert np.linalg.norm(A @ B) <= 1e-14 * max(np.linalg.norm(A) * np.linalg.norm(B), 1.0)
        assert numeric_rank(A, CFG) == 1 and numeric_rank(B, CFG) == 1

    def test_zero_rank_a(self):
        A, B = random_zero_product_pair(3, 0, 2, seed=1)
        assert np.all(A == 0)
        assert numeric_rank(B, CFG) == 2

    def test_seed7_bound(self):
        A, B = random_zero_product_pair(4, 2, 2, seed=7)
        assert np.linalg.norm(A @ B) <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(B)
        assert numeric_rank(A, CFG) == 2 and numeric_rank(B, CFG) == 2

    def test_complex_field(self):
        cfg = FieldConfig(field="complex")
        A, B = random_zero_product_pair(3, 1, 2, seed=2, cfg=cfg)
        assert np.iscomplexobj(A)
        assert np.linalg.norm(A @ B) <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(B)

    def test_infeasible(self):
        with pytest.raises(InfeasibleRanks):
            random_zero_product_pair(2, 2, 1, seed=0)

    def test_determinism(self):
        A1, B1 = random_zero_product_pair(3, 1, 1, seed=42)
        A2, B2 = random_zero_product_pair(3, 1, 1, seed=42)
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


class TestSampledChecker:
    def test_identity_many_trials(self):
        assert is_separating_sampled(identity_superop(3), 1000, seed=0).status == SEPARATING

    def test_transpose_found_quickly(self):
        verdict = is_separating_sampled(gen_transpose(2), 200, seed=1)
        assert verdict.status == NOT_SEPARATING
        ce = verdict.counterexample
        assert ce.product_in_norm <= 1e-13
        assert ce.violation_norm > CFG.tol_rel

    def test_agreement_with_exact(self):
        # mixed pool: random maps (generically non-separating) and conjugations
        rng = np.random.default_rng(3)
        disagreements = 0
        for t in range(60):
            n = 3
            if t % 3 == 0:
                S = rng.standard_normal((n, n)) + 2 * np.eye(n)
                T = conjugation_superop(rng.uniform(0.5, 2.0), S, CFG)
            else:
                T = Superoperator(n_in=n, n_out=n, mat=rng.standard_normal((n * n, n * n)))
            exact = is_separating_exact(T).status
            sampled = is_separating_sampled(T, 2000, seed=t).status
            disagreements += exact != sampled
        assert disagreements == 0


class TestBiseparating:
    def test_conjugation(self):
        T = conjugation_superop(2.5, np.array([[2.0, 1.0], [1.0, 2.0]]), CFG)
        assert is_biseparating(T).status == BISEPARATING

    def test_transpose_direction(self):
        verdict = is_biseparating(gen_transpose(2))
        assert verdict.status == NOT_SEPARATING
        assert verdict.direction == "forward"
        assert verdict.counterexample is not None

    def test_rank_deficient(self):
        T = conjugation_superop(1.0, np.eye(2), CFG)
        mat = T.mat.copy()
        mat[:, 0] = 0.0  # zero out one basis image
        assert is_biseparating(Superoperator(n_in=2, n_out=2, mat=mat)).status == NOT_INVERTIBLE

    def test_non_endomorphism(self):
        T = Superoperator(n_in=2, n_out=3, mat=np.zeros((9, 4)))
        assert is_biseparating(T).status == NOT_INVERTIBLE

    def test_counterexample_self_verifies(self):
        for n in range(2, 5):
            T = gen_transpose(n)
            ce = is_biseparating(T).counterexample
            assert np.linalg.norm(ce.A @ ce.B) <= 1e-13 * np.linalg.norm(ce.A) * np.linalg.norm(
                ce.B
            )
            scale = max(np.linalg.norm(apply(T, u)) for u in _units(n)) ** 2
            assert ce.violation_norm > CFG.tol_rel * scale


def _units(n):
    for p in range(n):
        for q in range(n):
            u = np.zeros((n, n))
            u[p, q] = 1.0
            yield u


def test_exactness_lemma_cross_validation():
    """The exact reduction against brute-force sampling on a mixed pool."""
    rng = np.random.default_rng(4)
    for t in range(50):
        if t % 4 == 0:
            S = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            T = conjugation_superop(rng.uniform(0.5, 2.0), S, CFG)
        elif t % 4 == 1:
            T = gen_transpose(2)
        else:
            T = Superoperator(n_in=2, n_out=2, mat=rng.standard_normal((4, 4)))
        assert (
            is_separating_exact(T).status
            == is_separating_sampled(T, 2000, seed=t).status
        )


def _reference_counterexample(T, scale=None):
    """Plain-loop reference for the exact checker's certificate order.

    Walks (i, l, p, q, a, b) lexicographically, trying the off-diagonal
    candidate before the diagonal one on ties, and returns the first
    certificate that self-verifies as (A, B, violation, candidates tried),
    or None when none does.  ``scale`` overrides the violation scale, as
    in ``is_separating_exact``.
    """
    n, m, dt = T.n_in, T.n_out, T.cfg.dtype

    def unit(p, q):
        E = np.zeros((n, n), dtype=dt)
        E[p, q] = 1
        return E

    im = [[apply(T, unit(i, a)) for a in range(n)] for i in range(n)]
    if scale is None:
        scale = image_scale(basis_image_array(T.mat)) ** 2
    thr = T.cfg.threshold(scale)

    def entry(i, a, b, l, p, q):  # [T(E_ia) T(E_bl)]_pq
        return sum(im[i][a][p, r] * im[b][l][r, q] for r in range(m))

    tried = 0
    for i, l, p, q, a, b in itertools.product(range(n), range(n), range(m), range(m),
                                              range(n), range(n)):
        candidates = []
        if a != b and abs(entry(i, a, b, l, p, q)) > thr:
            candidates.append((unit(i, a), unit(b, l)))
        if a < b and abs(entry(i, a, a, l, p, q) - entry(i, b, b, l, p, q)) > thr:
            candidates.append((unit(i, a) + unit(i, b), unit(a, l) - unit(b, l)))
        for A, B in candidates:
            tried += 1
            violation = frob(apply(T, A) @ apply(T, B))
            if violation > thr:
                return A, B, violation, tried
    return None


def _rows_with_violations(T):
    """Rows i with some (l, p, q) whose M_ab = [T(E_ia) T(E_bl)]_pq is not scalar."""
    n, m = T.n_in, T.n_out
    im = basis_image_array(T.mat)
    scale = image_scale(im) ** 2
    rows = set()
    for i, l, p, q in itertools.product(range(n), range(n), range(m), range(m)):
        M = np.array([[(im[i, a] @ im[b, l])[p, q] for b in range(n)] for a in range(n)])
        if not scalar_identity_test(M, T.cfg, scale)[0]:
            rows.add(i)
    return rows


def _assert_matches_reference(T, scale=None):
    verdict = is_separating_exact(T, scale=scale)
    ref = _reference_counterexample(T, scale)
    if ref is None:
        assert verdict.status == SEPARATING
        return 0
    A, B, violation, tried = ref
    assert verdict.status == NOT_SEPARATING
    ce = verdict.counterexample
    assert np.array_equal(ce.A, A) and np.array_equal(ce.B, B)
    assert ce.violation_norm == violation
    return tried


class TestCertificateOrder:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_transposes(self, field):
        for n in (2, 3, 4):
            assert _assert_matches_reference(gen_transpose(n, FieldConfig(field=field))) == 1

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_maps(self, field):
        cfg = FieldConfig(field=field)
        rng = np.random.default_rng(21)
        for n_in, n_out in ((2, 2), (3, 3), (2, 3), (3, 2)):
            for _ in range(4):
                shape = (n_out**2, n_in**2)
                mat = rng.standard_normal(shape)
                if cfg.is_complex:
                    mat = mat + 1j * rng.standard_normal(shape)
                _assert_matches_reference(Superoperator(n_in=n_in, n_out=n_out, mat=mat, cfg=cfg))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_near_boundary_perturbations(self, field):
        cfg = FieldConfig(field=field)
        most_tried = 0
        for n in (2, 3):
            for eps in (1e-9, 3e-9, 1e-8, 3e-8):
                for seed in range(60):
                    T = perturb(gen_conjugation(n, seed=seed, cfg=cfg).map, eps, seed=seed)
                    most_tried = max(most_tried, _assert_matches_reference(T))
        assert most_tried > 1  # some walk went past a failed certificate

    def test_walk_past_seven_candidates(self):
        T = perturb(gen_conjugation(3, seed=53).map, 3e-8, seed=53)
        assert _assert_matches_reference(T) == 7

    def test_walk_crosses_a_row_slice(self):
        # the first violation is in row 0, the first certificate that verifies in row 1
        T = perturb(gen_conjugation(2, seed=47).map, 1e-8, seed=47)
        assert _rows_with_violations(T) == {0, 1}
        assert _assert_matches_reference(T) > 1
        A = is_separating_exact(T).counterexample.A
        assert np.flatnonzero(A.any(axis=1)).tolist() == [1]

    def test_violations_in_every_slice_but_no_certificate(self):
        T = perturb(gen_conjugation(2, seed=83).map, 1e-8, seed=83)
        assert _rows_with_violations(T) == {0, 1}
        assert _assert_matches_reference(T) == 0
        assert is_separating_exact(T).status == SEPARATING

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_scale_override(self, factor, field):
        cfg = FieldConfig(field=field)
        flipped = 0
        for n in (2, 3):
            for eps in (1e-9, 3e-9, 1e-8, 3e-8):
                for seed in range(20):
                    T = perturb(gen_conjugation(n, seed=seed, cfg=cfg).map, eps, seed=seed)
                    scale = factor * image_scale(basis_image_array(T.mat)) ** 2
                    _assert_matches_reference(T, scale)
                    flipped += is_separating_exact(T, scale=scale).status != is_separating_exact(T).status
        assert flipped  # the override reaches the decision
