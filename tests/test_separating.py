import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_biseparating,
    is_separating_exact,
    is_separating_sampled,
    perturb,
    recover_conjugation,
)
from bisep import separating
from bisep.errors import NotInvertibleS, RecoveryError, SingularMatrix
from bisep.linalg import frob, numeric_rank
from bisep.structure import fit_conjugation
from bisep.superop import apply, basis_image_array, from_basis_images, image_scale, inverse
from separating_helpers import random_zero_product_pair, scalar_identity_test
from test_corpus import CORPUS, _conditioned_S, build

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


def _reference_violations(M, thr):
    """The masks of _scalar_violations as separate arrays, indexed directly,
    stacked with the kind last and scanned in C order."""
    ar = np.arange(M.shape[-1])
    off = np.abs(M) > thr
    off[..., ar, ar] = False
    D = M[..., ar, ar]
    diag = np.abs(D[..., :, None] - D[..., None, :]) > thr
    diag &= ar[:, None] < ar[None, :]
    return np.flatnonzero(np.stack((off, diag), axis=-1))


@st.composite
def _near_scalar_blocks(draw):
    """Blocks M[p, q, a, b], given as the walk gives them (a transposed view),
    whose entries and diagonal differences sit at, just under and just over
    the threshold 1.0."""
    field = draw(st.sampled_from(["real", "complex"]))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # drawing from the first few steps only keeps a block clear, or nearly
    steps = np.array([0.0, 0.5, np.nextafter(1.0, 0), 1.0, np.nextafter(1.0, 2), 3.0])
    steps = steps[: draw(st.integers(1, len(steps)))]
    Q = rng.choice(steps, (n, n, m, m)) * rng.choice([-1.0, 1.0], (n, n, m, m))
    if field == "complex":
        Q = Q + 1j * rng.choice(steps, Q.shape)
    Q[np.arange(n), np.arange(n)] += rng.choice([0.0, 7.0]) + rng.choice(steps, (n, m, m))
    return Q.transpose(2, 3, 0, 1)


class TestScalarViolations:
    @settings(max_examples=300, deadline=None)
    @given(M=_near_scalar_blocks())
    def test_bit_equal_to_the_direct_masks(self, M):
        got = separating._scalar_violations(M, 1.0)
        assert got.tolist() == _reference_violations(M, 1.0).tolist()
        contiguous = np.ascontiguousarray(M)
        assert separating._scalar_violations(contiguous, 1.0).tolist() == got.tolist()

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3), (2, 2, 1, 1), (0, 0, 2, 2), (2, 2, 0, 0)])
    def test_shapes(self, shape):
        M = np.random.default_rng(1).standard_normal(shape)
        assert separating._scalar_violations(M, 0.1).tolist() == _reference_violations(M, 0.1).tolist()


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

    def test_determinism(self):
        A1, B1 = random_zero_product_pair(3, 1, 1, seed=42)
        A2, B2 = random_zero_product_pair(3, 1, 1, seed=42)
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


class TestSampledChecker:
    def test_identity_many_trials(self):
        T = Superoperator(n_in=3, n_out=3, mat=np.eye(9))
        assert is_separating_sampled(T, 1000, seed=0).status == SEPARATING

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
        # neither separating nor invertible: the forward check runs first
        T = conjugation_superop(1.0, np.eye(2), CFG)
        mat = T.mat.copy()
        mat[:, 0] = 0.0  # zero out one basis image
        T = Superoperator(n_in=2, n_out=2, mat=mat)
        verdict = is_biseparating(T)
        assert verdict.status == NOT_SEPARATING and verdict.direction == "forward"
        ce = verdict.counterexample
        assert np.all(ce.A @ ce.B == 0)
        assert frob(apply(T, ce.A) @ apply(T, ce.B)) == ce.violation_norm > CFG.tol_rel

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


def _rows_with_violations(T, scale=None):
    """Rows i with some (l, p, q) whose M_ab = [T(E_ia) T(E_bl)]_pq is not scalar."""
    n, m = T.n_in, T.n_out
    im = basis_image_array(T.mat)
    if scale is None:
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


def _fast_accepts(T, scale=None):
    im = basis_image_array(T.mat)
    if scale is None:
        scale = image_scale(im) ** 2
    return separating._certified_separating(T, im, T.cfg.threshold(scale))


def _assert_sound_if_accepted(T, scale=None):
    """A fast accept leaves no violation for the mask scan and no certificate."""
    if not _fast_accepts(T, scale):
        return False
    assert _rows_with_violations(T, scale) == set()
    assert _reference_counterexample(T, scale) is None
    return True


def _block_diagonal(T, c):
    """A -> diag(T(A), c T(A)): separating for every c; T(1) is singular when c = 0."""
    m = T.n_out
    images = []
    for image in basis_image_array(T.mat).transpose(1, 0, 2, 3).reshape(-1, m, m):
        Z = np.zeros((2 * m, 2 * m), dtype=T.cfg.dtype)
        Z[:m, :m], Z[m:, m:] = image, c * image
        images.append(Z)
    return from_basis_images(images, T.cfg)


class TestFastAccept:
    @settings(max_examples=120, deadline=None)
    @given(field=st.sampled_from(["real", "complex"]), n=st.integers(1, 5),
           exponent=st.floats(-12, -7), seed=st.integers(0, 10**6),
           factor=st.sampled_from([0.5, 1.0, 2.0]), inverted=st.booleans())
    def test_accepts_only_what_the_walk_accepts(self, field, n, exponent, seed, factor, inverted):
        T = perturb(gen_conjugation(n, seed=seed, cfg=FieldConfig(field=field)).map,
                    10.0**exponent, seed=seed)
        if inverted:
            T = inverse(T)
        scale = factor * image_scale(basis_image_array(T.mat)) ** 2
        _assert_sound_if_accepted(T, scale)

    def test_corpus_maps(self):
        accepted = 0
        for case in CORPUS["cases"]:
            T = build(case["recipe"])
            if not isinstance(T, Superoperator):
                continue
            maps = [T]
            try:
                maps.append(inverse(T))
            except SingularMatrix:
                pass
            accepted += sum(_assert_sound_if_accepted(U) for U in maps)
        # 84 of the 110 maps and inverses of the 55 biseparating cases accept (80
        # leaves room for another BLAS's rounding); the rest have cond(S) >= 1e5
        # or sit in the tolerance sliver
        assert accepted >= 80

    def test_maps_without_matrix_units(self):
        for n_in, n_out in ((0, 0), (0, 2), (2, 0)):
            T = Superoperator(n_in=n_in, n_out=n_out, mat=np.zeros((n_out**2, n_in**2)))
            assert is_separating_exact(T).status == SEPARATING

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_conjugations_never_enter_the_walk(self, field, monkeypatch):
        def walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(separating, "_scalar_violations", walk)
        cfg = FieldConfig(field=field)
        for n in range(2, 9):
            T = gen_conjugation(n, seed=n, cfg=cfg).map
            for U in (T, inverse(T), _block_diagonal(T, 2.0)):
                assert is_separating_exact(U).status == SEPARATING
            assert is_biseparating(T).status == BISEPARATING

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_singular_identity_image_and_transposes_take_the_walk(self, field, monkeypatch):
        cfg = FieldConfig(field=field)
        walks = []
        masks = separating._scalar_violations
        monkeypatch.setattr(separating, "_scalar_violations",
                            lambda *args: walks.append(1) or masks(*args))
        for n in (2, 3):
            T = gen_conjugation(n, seed=n, cfg=cfg).map
            zero = Superoperator(n_in=n, n_out=n, mat=np.zeros((n * n, n * n)), cfg=cfg)
            for U in (_block_diagonal(T, 0.0), zero, gen_transpose(n, cfg),
                      Superoperator(n, n, gen_transpose(n, cfg).mat @ T.mat, cfg)):
                assert not _fast_accepts(U)
                walks.clear()
                _assert_matches_reference(U)
                assert walks


def _record_blocks(monkeypatch):
    """A list that collects the products P[p, q, a, b] of each block the walk masks."""
    blocks = []
    masks = separating._scalar_violations
    monkeypatch.setattr(separating, "_scalar_violations",
                        lambda P, thr: blocks.append(P.copy()) or masks(P, thr))
    return blocks


class TestBlockWalk:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_blocks_are_bit_equal_to_row_slices(self, field, monkeypatch):
        # a huge scale leaves no violation, so the walk visits every block
        cfg = FieldConfig(field=field)
        rng = np.random.default_rng(9)
        monkeypatch.setattr(separating, "_certified_separating", lambda *args: False)
        blocks = _record_blocks(monkeypatch)
        for n_in, n_out in itertools.product(range(1, 7), repeat=2):
            shape = (n_out**2, n_in**2)
            mat = rng.standard_normal(shape)
            if cfg.is_complex:
                mat = mat + 1j * rng.standard_normal(shape)
            T = Superoperator(n_in=n_in, n_out=n_out, mat=mat, cfg=cfg)
            blocks.clear()
            assert is_separating_exact(T, scale=1e300).status == SEPARATING
            assert len(blocks) == n_in**2
            im = basis_image_array(T.mat)
            for (i, l), P in zip(np.ndindex(n_in, n_in), blocks):
                assert np.array_equal(P, np.einsum("apr,blrq->lpqab", im[i], im)[l])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_certificate_in_the_first_block_masks_one_block(self, field, monkeypatch):
        T = perturb(gen_conjugation(6, seed=3, cfg=FieldConfig(field=field)).map, 1e-4, seed=3)
        blocks = _record_blocks(monkeypatch)
        verdict = is_separating_exact(T)
        assert verdict.status == NOT_SEPARATING
        ce = verdict.counterexample
        assert np.flatnonzero(ce.A.any(axis=1)).tolist() == [0]  # i = 0
        assert np.flatnonzero(ce.B.any(axis=0)).tolist() == [0]  # l = 0
        assert len(blocks) == 1 and blocks[0].shape == (6, 6, 6, 6)

    def test_memory_stays_below_one_row_slice(self):
        n = 12
        T = perturb(gen_conjugation(n, seed=2).map, 1e-4, seed=2)
        tracemalloc.start()
        try:
            assert is_separating_exact(T).status == NOT_SEPARATING
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n**5 * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_fast_accept_rejects_transposes_before_the_batched_stage(self, field, monkeypatch):
        def batched(*args):
            raise AssertionError("the batched stage ran")

        monkeypatch.setattr(separating, "image_scale", batched)
        cfg = FieldConfig(field=field)
        for n in range(2, 11):
            T = gen_transpose(n, cfg)
            im = basis_image_array(T.mat)
            assert not separating._certified_separating(T, im, cfg.threshold(image_scale(im) ** 2))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_empty_map_is_biseparating(self, field):
        T = Superoperator(n_in=0, n_out=0, mat=np.zeros((0, 0)), cfg=FieldConfig(field=field))
        assert is_biseparating(T).status == BISEPARATING


def _walk_is_clear(T):
    """True when no basis product of T sets a mask bit of the exact walk, from
    the whole product tensor P[i, l, p, q, a, b] = [T(E_ia) T(E_bl)]_pq."""
    im = basis_image_array(T.mat)
    P = np.einsum("iapr,blrq->ilpqab", im, im)
    return not _reference_violations(P, T.cfg.threshold(image_scale(im) ** 2)).size


def _form_first_family():
    """Seeded conjugations alpha S A S^-1 with cond(S) = 1 ... 1e6, perturbed
    by eps = 0 and 1e-14 ... 1e-6, for n = 1 ... 6 over both fields; then the
    transposes, S = diag(1, cond) perturbed so that T(E_12) = E_12 / cond
    has rank two while the residual certifies, and the corpus's
    non-endomorphisms."""
    for field in ("real", "complex"):
        cfg = FieldConfig(field=field)
        for n in range(1, 7):
            for cond in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
                S = _conditioned_S(n, cond, 100 * n + int(np.log10(cond)), cfg)
                T = conjugation_superop(1.5, S, cfg)
                for eps in (0.0, 3e-9, *np.geomspace(1e-14, 1e-6, 9)):
                    yield perturb(T, eps, seed=n)
            yield gen_transpose(n, cfg)
        for cond in (1e5, 1e6):
            T = conjugation_superop(1.0, np.diag([1.0, cond]).astype(cfg.dtype), cfg)
            yield perturb(T, 1e-12, seed=0)
    for case in CORPUS["cases"]:
        if case["recipe"]["map"] == "embed":
            yield build(case["recipe"])


def _no_form(T):
    """A recovery that never returns: the decision order without the form."""
    raise RecoveryError("no form is recovered")


def _one_judge_family():
    """Conjugations 1.5 S A S^-1 with cond(S) = 1, 1e3 and 1e5 (n = 1 ... 6, 4
    seeds, both fields), perturbed by eps = 0 and 1e-12 ... 1e-7, and the
    diag(1, 1e5 or 1e6) conjugations perturbed by 1e-12."""
    for field in ("real", "complex"):
        cfg = FieldConfig(field=field)
        for n, seed, cond in itertools.product(range(1, 7), range(4), (1.0, 1e3, 1e5)):
            T = conjugation_superop(1.5, _conditioned_S(n, cond, 10 * n + seed, cfg), cfg)
            for eps in (0.0, *np.geomspace(1e-12, 1e-7, 6)):
                yield perturb(T, eps, seed=seed)
        for cond in (1e5, 1e6):
            T = conjugation_superop(1.0, np.diag([1.0, cond]).astype(cfg.dtype), cfg)
            yield perturb(T, 1e-12, seed=0)


class TestFormFirst:
    def test_agrees_with_the_order_without_the_form(self):
        """The form only turns not_invertible into biseparating, and only on
        maps that recover_conjugation recovers; every other status, direction
        and certificate is the one the order without the form gives."""
        flipped = 0
        for T in _form_first_family():
            new = is_biseparating(T)
            old = separating.biseparating(T, is_separating_exact, inverse, _no_form)
            if old.status == NOT_INVERTIBLE and new.status == BISEPARATING:
                recover_conjugation(T)  # raises unless recovered
                flipped += 1
                continue
            assert (new.status, new.direction) == (old.status, old.direction)
            got, want = new.counterexample, old.counterexample
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)
                assert got.violation_norm == want.violation_norm
            if new.status == NOT_INVERTIBLE and T.is_endo:
                with pytest.raises(RecoveryError):
                    recover_conjugation(T)
        assert flipped >= 50  # cond(S) >= 1e5 recovers at eps <= 1e-12 for every n

    def test_the_residual_is_the_only_judge(self):
        """recover_conjugation returns exactly when fit_conjugation's residual is
        within tol_rel, and no map with such a fit is not_invertible."""
        fitted = 0
        for T in _one_judge_family():
            try:
                fits = fit_conjugation(basis_image_array(T.mat), T.cfg)[0].residual <= T.cfg.tol_rel
            except RecoveryError:
                fits = False
            try:
                recover_conjugation(T)
            except RecoveryError:
                assert not fits
            else:
                assert fits
            if fits:
                fitted += 1
                assert is_biseparating(T).status != NOT_INVERTIBLE
        assert 0 < fitted < 1012

    def test_the_fit_raises_only_recovery_errors(self):
        """A refused S is NotInvertibleS, also where the rank rule refuses the
        gauged S and not the raw one: cond(S) = 1e3 = 1 / tol_rel."""
        maps = list(_one_judge_family())
        for field in ("real", "complex"):
            exact, cfg = FieldConfig(field=field, tol_rel=1e-12), FieldConfig(field=field, tol_rel=1e-3)
            for n, seed in itertools.product(range(2, 7), range(4)):
                mat = conjugation_superop(1.5, _conditioned_S(n, 1e3, 10 * n + seed, exact), exact).mat
                maps += [perturb(Superoperator(n, n, mat, cfg), eps, seed) for eps in (0.0, 1e-12)]
        refused = 0
        for T in maps:
            try:
                fit_conjugation(basis_image_array(T.mat), T.cfg)
            except RecoveryError as exc:
                refused += isinstance(exc, NotInvertibleS)
        assert refused  # some cond(S) = 1e3 maps stop at S

    def test_bounds_accept_only_what_the_walks_accept(self):
        accepted = [0, 0]
        gave_up = 0
        for field in ("real", "complex"):
            cfg = FieldConfig(field=field)
            for n in range(1, 7):
                for cond in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
                    S = _conditioned_S(n, cond, 7 * n + int(np.log10(cond)), cfg)
                    T0 = conjugation_superop(0.7, S, cfg)
                    for eps in (1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6):
                        T = perturb(T0, eps, seed=n + 1)
                        bounds = separating._form_bounds(T)
                        if bounds is None:
                            continue
                        if bounds[0] < 1:
                            accepted[0] += 1
                            assert _walk_is_clear(T)
                        else:
                            gave_up += 1
                        if bounds[1] < 1:
                            accepted[1] += 1
                            assert _walk_is_clear(inverse(T))
        # both bounds decide some maps, and some certified forms are left to the walks
        assert min(accepted) >= 100 and gave_up

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_conjugations_are_decided_without_a_walk_or_an_inverse(self, field, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a walk or an inverse ran")

        monkeypatch.setattr(separating, "is_separating_exact", refuse)
        monkeypatch.setattr(separating, "inverse", refuse)
        cfg = FieldConfig(field=field)
        for n in range(1, 11):
            assert is_biseparating(gen_conjugation(n, seed=n, cfg=cfg).map).status == BISEPARATING

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_cond_capped_conjugations_are_biseparating(self, field):
        # cond(T) = cond(S)^2 >= 1 / tol_rel: the rank rule refuses T, the form does not
        cfg = FieldConfig(field=field)
        for n in (2, 3, 4):
            T = conjugation_superop(1.5, _conditioned_S(n, 1e5, n, cfg), cfg)
            with pytest.raises(SingularMatrix):
                inverse(T)
            assert separating._form_bounds(T)[1] >= 1
            assert is_biseparating(T).status == BISEPARATING
