import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bisep import (
    BigSuperoperator,
    DiscreteSpace,
    FieldConfig,
    MatrixFunction,
    NotLocal,
    PhiNotBijective,
    PointwiseForm,
    Superoperator,
    ai_membership,
    apply_fn,
    conjugation_superop,
    delta_fn,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    inverse_fn,
    is_biseparating,
    is_biseparating_fn,
    is_separating_exact,
    is_separating_fn,
    is_strictly_separating,
    perturb,
    recover_conjugation,
    recover_pointwise,
    support,
    verify_form,
    verify_pointwise,
)
from bisep import funcalg, structure
from bisep.errors import DegenerateMap, DimensionMismatch, RecoveryError, SingularMatrix
from bisep.separating import BISEPARATING, FORWARD, NOT_INVERTIBLE, NOT_SEPARATING
from bisep.funcalg import _best_unit, _matrix_unit, _reach, multiply
from bisep.linalg import frob, gaussian, invert, kernel_basis, numeric_rank
from bisep.structure import fit_conjugation
from bisep.superop import basis_image_array, image_scale
from pointwise_reference import reference_verify_pointwise

CFG = FieldConfig()
X2 = DiscreteSpace(("x1", "x2"))


def _mf(space, *mats):
    return MatrixFunction(space=space, values=np.array(mats, dtype=float))


class TestSupport:
    def test_zero_function(self):
        assert support(_mf(X2, np.zeros((2, 2)), np.zeros((2, 2)))) == set()

    def test_delta(self):
        assert support(delta_fn(X2, "x1", np.eye(2))) == {"x1"}

    def test_relative_threshold(self):
        F = _mf(X2, np.eye(2), 1e-13 * np.eye(2))
        assert support(F) == {"x1"}


class TestAiMembership:
    def test_identity_everywhere(self):
        assert ai_membership(_mf(X2, np.eye(2), np.eye(2)))

    def test_zero_everywhere(self):
        assert ai_membership(_mf(X2, np.zeros((2, 2)), np.zeros((2, 2))))

    def test_singular_value_fails_with_witness(self):
        E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        F = delta_fn(X2, "x1", E11)
        assert not ai_membership(F)
        # witness: G = delta * (w (x) u) with u killing range(F) and w outside ker(F)
        G = delta_fn(X2, "x1", np.outer([1.0, 0.0], [0.0, 1.0]))  # E12
        assert np.all(multiply(G, F).values == 0)  # G F = 0
        assert np.linalg.norm(multiply(F, G).values) > 0  # F G != 0

    def test_mixed_points(self):
        F = _mf(X2, np.eye(2), np.zeros((2, 2)))
        assert ai_membership(F)
        F = _mf(X2, np.eye(2), np.diag([1.0, 0.0]))
        assert not ai_membership(F)


def _sample_left_annihilators(rng, H_val, count):
    """Random G values with G @ H_val = 0 (bilinear null-space construction)."""
    n = H_val.shape[0]
    r = numeric_rank(H_val, CFG)
    if r == n:
        return np.zeros((count, n, n))
    if r == 0:
        return rng.standard_normal((count, n, n))
    K = np.array(kernel_basis(H_val.T, CFG)).T  # columns span {v : v^T H = 0}^T
    C = rng.standard_normal((count, n, K.shape[1]))
    return C @ K.T


def test_ai_brute_force_characterization_small():
    """L(H) subset of R(H) iff H is pointwise zero-or-invertible (reduced run;
    the acceptance suite runs the full protocol)."""
    rng = np.random.default_rng(0)
    space = X2
    disagreements = 0
    for h in range(30):
        kind = h % 3
        values = []
        for x in range(2):
            if kind == 0:
                values.append(rng.standard_normal((2, 2)) + 2 * np.eye(2))
            elif kind == 1:
                values.append(np.zeros((2, 2)) if x == 0 else rng.standard_normal((2, 2)) + 2 * np.eye(2))
            else:
                u = rng.standard_normal(2)
                values.append(np.outer(u, rng.standard_normal(2)))
        H = MatrixFunction(space=space, values=np.array(values))
        # brute force: sample G in L(H), check H G = 0 for all of them
        holds = True
        for x in range(2):
            Gs = _sample_left_annihilators(rng, H.values[x], 400)
            prods = H.values[x] @ Gs
            if np.abs(prods).max(initial=0.0) > 1e-9 * max(np.abs(H.values[x]).max(), 1.0):
                holds = False
        disagreements += holds != ai_membership(H)
    assert disagreements == 0


class TestZeroProductEquivalence:
    """F1 F2 = 0 iff supp F1 and supp F2 are disjoint, for F2 pointwise zero or
    invertible; every value here is exactly zero or of order one, so the
    product is compared with zero exactly."""

    def test_disjoint(self):
        F1 = delta_fn(X2, "x1", np.array([[1.0, 2.0], [3.0, 4.0]]))
        F2 = delta_fn(X2, "x2", np.eye(2))
        assert not multiply(F1, F2).values.any() and not support(F1) & support(F2)

    def test_meeting_supports(self):
        F1 = delta_fn(X2, "x1", np.array([[1.0, 0.0], [0.0, 0.0]]))
        F2 = delta_fn(X2, "x1", np.eye(2))
        assert multiply(F1, F2).values.any() and support(F1) & support(F2)

    def test_requires_ai_member(self):
        # outside the zero-or-invertible functions the equivalence fails:
        # E12 E11 = 0 at a point both supports hold
        F1 = delta_fn(X2, "x1", np.array([[0.0, 1.0], [0.0, 0.0]]))
        F2 = delta_fn(X2, "x1", np.diag([1.0, 0.0]))
        assert not ai_membership(F2)
        assert not multiply(F1, F2).values.any() and support(F1) & support(F2)

    def test_randomized_suite(self):
        rng = np.random.default_rng(1)
        checked = 0
        for t in range(1000):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            space = DiscreteSpace(tuple(f"p{i}" for i in range(k)))
            vals1 = np.zeros((k, n, n))
            vals2 = np.zeros((k, n, n))
            for x in range(k):
                if rng.random() < 0.5:
                    vals1[x] = rng.standard_normal((n, n))
                if rng.random() < 0.5:
                    vals2[x] = rng.standard_normal((n, n)) + 2 * np.eye(n)
            F1 = MatrixFunction(space=space, values=vals1)
            F2 = MatrixFunction(space=space, values=vals2)
            assert ai_membership(F2)
            assert multiply(F1, F2).values.any() == bool(support(F1) & support(F2))
            checked += 1
        assert checked == 1000


class TestStrictlySeparating:
    def test_block_diagonal(self):
        b = gen_pointwise(3, 2, seed=0)
        assert is_strictly_separating(b.map).status == "separating"

    def test_permutation_blocks(self):
        b = gen_pointwise(4, 2, seed=1)
        assert is_strictly_separating(b.map).status == "separating"

    def test_point_mixing_violation(self):
        T = gen_point_mixing(3, 2, seed=2)
        verdict = is_strictly_separating(T)
        assert verdict.status == "not_separating"
        ce = verdict.counterexample
        # disjoint input supports, overlapping image supports at ce.point
        assert support(ce.F1) & support(ce.F2) == set()
        assert ce.product_in_norm == 0.0
        out1 = apply_fn(T, ce.F1)
        out2 = apply_fn(T, ce.F2)
        assert ce.point in support(out1) & support(out2)
        assert ce.violation_norm > 0


class TestSeparatingFn:
    def test_pointwise_conjugation(self):
        b = gen_pointwise(3, 2, seed=3)
        assert is_separating_fn(b.map).status == "separating"

    def test_embedded_transpose_localized(self):
        base = gen_pointwise(2, 2, seed=4)
        blocks = base.map.blocks.copy()
        x1 = int(np.argmax(np.linalg.norm(blocks[0], axis=(1, 2))))
        blocks[0, x1] = gen_transpose(2).mat
        T = BigSuperoperator(
            space_in=base.map.space_in,
            space_out=base.map.space_out,
            n_in=2,
            n_out=2,
            blocks=blocks,
        )
        verdict = is_separating_fn(T)
        assert verdict.status == "not_separating"
        ce = verdict.counterexample
        bad_label = base.map.space_in.labels[x1]
        assert support(ce.F1) == {bad_label} and support(ce.F2) == {bad_label}
        assert ce.point == "y1"
        assert ce.product_in_norm == 0.0 and ce.violation_norm > 0

    def test_k1_matches_matrix_algebra_checker(self):
        rng = np.random.default_rng(5)
        space = DiscreteSpace(("x1",))
        for t in range(50):
            mat = rng.standard_normal((4, 4))
            if t % 5 == 0:
                mat = conjugation_superop(1.5, rng.standard_normal((2, 2)) + 2 * np.eye(2), CFG).mat
            big = BigSuperoperator(
                space_in=space, space_out=space, n_in=2, n_out=2, blocks=mat[None, None]
            )
            from bisep import Superoperator

            small = Superoperator(n_in=2, n_out=2, mat=mat)
            assert is_separating_fn(big).status == is_separating_exact(small).status

    def test_both_directions_on_positive_instance(self):
        b = gen_pointwise(3, 2, seed=6)
        assert is_separating_fn(b.map).status == "separating"
        assert is_separating_fn(inverse_fn(b.map)).status == "separating"


def _unpruned_separating_fn(T):
    """Reference for is_separating_fn without its skips: every cross-point
    triple and every same-point block is checked, in the same order."""
    cfg = T.cfg
    imgs = basis_image_array(T.blocks)
    scale = image_scale(imgs) ** 2
    thr = cfg.threshold(scale)

    def unit(i, j):
        E = np.zeros((T.n_in, T.n_in), dtype=cfg.dtype)
        E[i, j] = 1
        return E

    def lifted(x, y, A, B, x2):
        F1 = delta_fn(T.space_in, T.space_in.labels[x], A, cfg)
        F2 = delta_fn(T.space_in, T.space_in.labels[y], B, cfg)
        out = multiply(apply_fn(T, F1), apply_fn(T, F2))
        return (F1.values, F2.values, T.space_out.labels[x2],
                float(np.linalg.norm(multiply(F1, F2).values, axis=(1, 2)).max()),
                float(np.linalg.norm(out.values, axis=(1, 2)).max()))

    k2, k1 = T.space_out.k, T.space_in.k
    for x in range(k1):
        for y in range(k1):
            for x2 in range(k2 if x != y else 0):
                bad = np.abs(np.einsum("ijpr,klrq->ijklpq", imgs[x2, x], imgs[x2, y])) > thr
                if bad.any():
                    i, j, k, l, _p, _q = np.argwhere(bad)[0]
                    return lifted(x, y, unit(i, j), unit(k, l), x2)
    for x in range(k1):
        for x2 in range(k2):
            verdict = is_separating_exact(T.block(x2, x), scale=scale)
            if not verdict:
                return lifted(x, x, verdict.counterexample.A, verdict.counterexample.B, x2)
    return None


def _with_blocks(T, blocks):
    return BigSuperoperator(space_in=T.space_in, space_out=T.space_out, n_in=T.n_in,
                            n_out=T.n_out, blocks=blocks, cfg=T.cfg)


class TestSeparatingFnSkips:
    """The skipped triples and blocks never hold a violation: the verdict and the
    certificate are bit-equal to the unpruned reference."""

    @staticmethod
    def _maps(field):
        cfg = FieldConfig(field=field)
        rng = np.random.default_rng(11)
        for seed in range(6):
            k, n = 2 + seed % 3, 1 + seed % 3
            b = gen_pointwise(k, n, seed=seed, cfg=cfg).map
            yield b
            yield inverse_fn(b)
            yield gen_point_mixing(k, n, seed=seed, cfg=cfg)
            for eps in (1e-9, 1e-6, 1e-3):
                yield perturb(b, eps, seed=seed)
            # faint off-phi blocks around the skip boundary, and one zeroed phi-block
            live = np.linalg.norm(b.blocks, axis=(2, 3)) > 0
            for faint in (1e-13, 1e-11, 1e-10, 1e-9):
                noise = rng.standard_normal(b.blocks.shape)
                if cfg.is_complex:
                    noise = noise + 1j * rng.standard_normal(b.blocks.shape)
                yield _with_blocks(b, np.where(live[..., None, None], b.blocks, faint * noise))
            blocks = b.blocks.copy()
            blocks[0][live[0]] = 0
            yield _with_blocks(b, blocks)
        # sparse faint off-phi blocks: each makes the triples with its row's
        # phi-block hot, none violates; the second map adds one loud off-phi
        # block late in the (x, y, x2) order, after several clean hot triples
        for k in range(6, 11):
            b = gen_pointwise(k, 1 + k % 3, seed=k, cfg=cfg).map
            mass = np.linalg.norm(b.blocks, axis=(2, 3))
            phi = mass.argmax(axis=1)
            thr = cfg.threshold(image_scale(basis_image_array(b.blocks)) ** 2)
            blocks = b.blocks.copy()
            for x2 in rng.choice(k, size=k // 2, replace=False):
                y = rng.choice(np.delete(np.arange(k), phi[x2]))
                noise = rng.standard_normal(blocks.shape[2:])
                if cfg.is_complex:
                    noise = noise + 1j * rng.standard_normal(blocks.shape[2:])
                # 2 * mass * faint > thr, and every product entry is at most
                # mass * faint < thr
                blocks[x2, y] = 0.75 * thr / mass[x2, phi[x2]] * noise / np.linalg.norm(noise)
            yield _with_blocks(b, blocks)
            x2 = int(np.flatnonzero(phi == k - 1)[0])
            blocks[x2, k - 2] = 1e-3 * blocks[x2, k - 1]
            yield _with_blocks(b, blocks)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_unpruned_reference(self, field):
        verdicts = set()
        for T in self._maps(field):
            ref = _unpruned_separating_fn(T)
            verdict = is_separating_fn(T)
            verdicts.add(verdict.status)
            if ref is None:
                assert verdict.status == "separating"
                continue
            ce = verdict.counterexample
            assert verdict.status == "not_separating"
            assert np.array_equal(ce.F1.values, ref[0]) and np.array_equal(ce.F2.values, ref[1])
            assert (ce.point, ce.product_in_norm, ce.violation_norm) == ref[2:]
        assert verdicts == {"separating", "not_separating"}

    def test_zero_blocks_skip_the_block_checker(self, monkeypatch):
        import bisep.funcalg

        calls = []
        checker = bisep.funcalg.is_separating_exact
        monkeypatch.setattr(bisep.funcalg, "is_separating_exact",
                            lambda *a, **kw: calls.append(1) or checker(*a, **kw))
        b = gen_pointwise(5, 2, seed=1).map
        assert is_separating_fn(b).status == "separating"
        assert len(calls) == 5  # one nonzero block per input point, not 25

    def test_light_blocks_skip_the_block_checker(self, monkeypatch):
        import bisep.funcalg

        calls = []
        checker = bisep.funcalg.is_separating_exact
        monkeypatch.setattr(bisep.funcalg, "is_separating_exact",
                            lambda *a, **kw: calls.append(1) or checker(*a, **kw))
        # every block of the perturbed map is nonzero; only the k phi-blocks
        # carry mass above half the square root of the threshold
        T = perturb(gen_pointwise(24, 2, seed=3).map, 1e-6, seed=3)
        assert is_separating_fn(T).status == "separating"
        assert len(calls) == 24  # not 576
        assert _unpruned_separating_fn(T) is None

    def test_masks_stay_quadratic_in_k(self):
        # one k x k mask per input point, never a k^3 cube (16 MiB of bools here)
        T = gen_pointwise(256, 1, seed=1).map
        tracemalloc.start()
        try:
            assert is_separating_fn(T).status == "separating"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _pair_loop_strictly_separating(T):
    """Reference for is_strictly_separating: every input pair in (xa, xb)
    order, the first common output point of the first colliding pair."""
    cfg = T.cfg
    reach = _reach(T)
    k1 = T.space_in.k
    imgs = basis_image_array(T.blocks)
    for xa in range(k1):
        for xb in range(xa + 1, k1):
            common = np.flatnonzero(reach[:, xa] & reach[:, xb])
            if common.size == 0:
                continue
            x2 = int(common[0])
            unit_a = _matrix_unit(T.n_in, *_best_unit(imgs[x2, xa]), cfg)
            unit_b = _matrix_unit(T.n_in, *_best_unit(imgs[x2, xb]), cfg)
            F1 = delta_fn(T.space_in, T.space_in.labels[xa], unit_a, cfg)
            F2 = delta_fn(T.space_in, T.space_in.labels[xb], unit_b, cfg)
            label2 = T.space_out.labels[x2]
            out1 = apply_fn(T, F1)
            out2 = apply_fn(T, F2)
            return F1.values, F2.values, label2, frob(out1.at(label2)) * frob(out2.at(label2))
    return None


class TestStrictlySeparatingOrder:
    """The first colliding pair from the reach product is the pair loop's."""

    @staticmethod
    def _maps(field):
        cfg = FieldConfig(field=field)
        rng = np.random.default_rng(23)
        for seed in range(8):
            k, n = 2 + seed, 1 + seed % 3
            yield gen_point_mixing(k, n, seed=seed, cfg=cfg)
            yield gen_pointwise(k, n, seed=seed, cfg=cfg).map
            # random reach patterns, most of them with several collisions
            for density in (0.2, 0.4, 0.7):
                shape = (k + seed % 2, k, n * n, n * n)
                blocks = rng.standard_normal(shape)
                if cfg.is_complex:
                    blocks = blocks + 1j * rng.standard_normal(shape)
                blocks *= (rng.random(shape[:2]) < density)[..., None, None]
                space_out = DiscreteSpace(tuple(f"y{i}" for i in range(shape[0])))
                space_in = DiscreteSpace(tuple(f"x{i}" for i in range(k)))
                yield BigSuperoperator(space_in=space_in, space_out=space_out, n_in=n,
                                       n_out=n, blocks=blocks, cfg=cfg)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_pair_loop(self, field):
        verdicts = set()
        for T in self._maps(field):
            ref = _pair_loop_strictly_separating(T)
            verdict = is_strictly_separating(T)
            verdicts.add(verdict.status)
            if ref is None:
                assert verdict.status == "separating"
                continue
            ce = verdict.counterexample
            assert verdict.status == "not_separating"
            assert np.array_equal(ce.F1.values, ref[0]) and np.array_equal(ce.F2.values, ref[1])
            assert (ce.point, ce.violation_norm) == ref[2:]
            assert ce.product_in_norm == 0.0
        assert verdicts == {"separating", "not_separating"}


class TestBiseparatingFn:
    @pytest.mark.parametrize(
        "k, n, field",
        [(1, 1, "real"), (1, 3, "real"), (4, 1, "real"), (3, 2, "real"), (2, 1, "complex"),
         (3, 2, "complex")],
    )
    def test_pointwise_positives(self, k, n, field):
        b = gen_pointwise(k, n, seed=k + n, cfg=FieldConfig(field=field))
        verdict = is_biseparating_fn(b.map)
        assert verdict.status == BISEPARATING
        assert verdict.counterexample is None and verdict.direction is None

    def test_point_mixing_fails_forward(self):
        verdict = is_biseparating_fn(gen_point_mixing(3, 2, seed=2))
        assert verdict.status == NOT_SEPARATING and verdict.direction == FORWARD
        assert verdict.counterexample.point == "y1"  # the output point that hears two inputs

    def test_rectangular_map_not_invertible(self):
        blocks = np.zeros((1, 2, 4, 4))
        blocks[0, 0] = np.eye(4)
        T = BigSuperoperator(
            space_in=X2, space_out=DiscreteSpace(("y1",)), n_in=2, n_out=2, blocks=blocks
        )
        assert is_separating_fn(T)
        assert is_biseparating_fn(T).status == NOT_INVERTIBLE

    def test_zeroed_block_not_invertible(self):
        base = gen_pointwise(3, 2, seed=0).map
        blocks = base.blocks.copy()
        blocks[0] = 0.0  # the output point y1 hears nothing
        T = BigSuperoperator(
            space_in=base.space_in, space_out=base.space_out, n_in=2, n_out=2, blocks=blocks
        )
        assert is_separating_fn(T)
        verdict = is_biseparating_fn(T)
        assert verdict.status == NOT_INVERTIBLE and verdict.counterexample is None

    @pytest.mark.parametrize("seed", [1, 2])
    def test_recovered_map_with_a_refused_inverse_is_biseparating(self, seed):
        # at tol_rel = 1e-3 the block inverse's rank rule refuses these maps,
        # yet recover_pointwise certifies them: a certified form is invertible
        cfg = FieldConfig(tol_rel=1e-3)
        T = gen_pointwise(3, 3, seed, cfg).map
        with pytest.raises(SingularMatrix):
            inverse_fn(T)
        assert recover_pointwise(T).residual <= 1e-14
        verdict = is_biseparating_fn(T)
        assert verdict.status == BISEPARATING and verdict.counterexample is None

    @pytest.mark.parametrize("tol_rel", [1e-9, 1e-3])
    def test_no_recovered_map_is_not_invertible(self, tol_rel):
        # pointwise maps, perturbed or with the output point y1 zeroed, k = 1 ... 3
        refused_but_recovered = 0
        statuses = set()
        for field in ("real", "complex"):
            cfg = FieldConfig(field=field, tol_rel=tol_rel)
            for k, n, seed in itertools.product((1, 2, 3), (2, 3), range(4)):
                base = gen_pointwise(k, n, seed, cfg).map
                blocks = base.blocks.copy()
                blocks[0] = 0.0
                zeroed = replace(base, blocks=blocks)
                for T in (base, perturb(base, 1e-12, seed), perturb(base, 1e-9, seed), zeroed):
                    status = is_biseparating_fn(T).status
                    statuses.add(status)
                    try:
                        recover_pointwise(T)
                    except RecoveryError:
                        continue
                    assert status != NOT_INVERTIBLE
                    try:
                        inverse_fn(T)
                    except SingularMatrix:
                        refused_but_recovered += 1
        assert {BISEPARATING, NOT_INVERTIBLE} <= statuses
        # at tol_rel = 1e-3 the rank rule refuses maps that recover
        assert (refused_but_recovered > 0) == (tol_rel == 1e-3)

    def test_recovery_runs_only_for_a_refused_inverse(self, monkeypatch):
        calls = []
        monkeypatch.setattr("bisep.funcalg.recover_pointwise", lambda T: calls.append(T))
        assert is_biseparating_fn(gen_pointwise(4, 2, seed=3).map).status == BISEPARATING
        assert is_biseparating_fn(gen_point_mixing(3, 2, seed=2)).status == NOT_SEPARATING
        assert not calls


class TestApplyInverse:
    def test_apply_matches_block_formula(self):
        b = gen_pointwise(3, 2, seed=7)
        T = b.map
        rng = np.random.default_rng(8)
        F = MatrixFunction(space=T.space_in, values=rng.standard_normal((3, 2, 2)))
        out = apply_fn(T, F)
        for x2 in range(3):
            manual = sum(
                (T.block(x2, x1).mat @ F.values[x1].reshape(-1, order="F")).reshape(
                    2, 2, order="F"
                )
                for x1 in range(3)
            )
            np.testing.assert_allclose(out.values[x2], manual, atol=1e-12)

    def test_inverse_round_trip(self):
        b = gen_pointwise(2, 3, seed=9)
        T = b.map
        rng = np.random.default_rng(10)
        F = MatrixFunction(space=T.space_in, values=rng.standard_normal((2, 3, 3)))
        back = apply_fn(inverse_fn(T), apply_fn(T, F))
        np.testing.assert_allclose(back.values, F.values, atol=1e-9)


class TestRecoverPointwise:
    def test_round_trip(self):
        b = gen_pointwise(3, 2, seed=11)
        form = recover_pointwise(b.map)
        truth = b.ground_truth
        assert form.phi == truth.phi
        for lab in form.phi:
            assert abs(form.alphas[lab] - truth.alphas[lab]) <= 1e-8 * abs(truth.alphas[lab])
            np.testing.assert_allclose(form.S[lab], truth.S[lab], atol=1e-8)

    def test_k1_reduces_to_conjugation_recovery(self):
        b = gen_pointwise(1, 2, seed=12)
        form = recover_pointwise(b.map)
        assert form.phi == {"y1": "x1"}
        single = recover_conjugation(b.map.block(0, 0))
        assert abs(form.alphas["y1"] - single.alpha) <= 1e-12
        np.testing.assert_allclose(form.S["y1"], single.S, atol=1e-12)

    def test_scalar_fibers_give_composition_shape(self):
        # n = 1: the form is exactly "multiply by alpha and permute points"
        b = gen_pointwise(4, 1, seed=13)
        form = recover_pointwise(b.map)
        assert sorted(form.phi.values()) == ["x1", "x2", "x3", "x4"]
        for lab, S in form.S.items():
            np.testing.assert_array_equal(S, np.eye(1))
            assert abs(form.alphas[lab]) > 0
        # tau = alpha reproduces the action on a random scalar function
        rng = np.random.default_rng(14)
        F = MatrixFunction(space=b.map.space_in, values=rng.standard_normal((4, 1, 1)))
        out = apply_fn(b.map, F)
        for x2, lab in enumerate(b.map.space_out.labels):
            expected = form.alphas[lab] * F.at(form.phi[lab])
            np.testing.assert_allclose(out.values[x2], expected, atol=1e-12)

    def test_not_local(self):
        T = gen_point_mixing(2, 2, seed=15)
        with pytest.raises(NotLocal):
            recover_pointwise(T)

    def test_phi_not_bijective(self):
        b = gen_pointwise(2, 2, seed=16)
        blocks = b.map.blocks.copy()
        blocks[1] = blocks[0]  # both outputs hear the same input point
        T = BigSuperoperator(
            space_in=b.map.space_in, space_out=b.map.space_out, n_in=2, n_out=2, blocks=blocks
        )
        with pytest.raises(PhiNotBijective):
            recover_pointwise(T)

    def test_point_count_mismatch_rejected_early(self):
        space_in = DiscreteSpace(("x1", "x2"))
        space_out = DiscreteSpace(("y1",))
        T = BigSuperoperator(
            space_in=space_in,
            space_out=space_out,
            n_in=2,
            n_out=2,
            blocks=np.zeros((1, 2, 4, 4)),
        )
        with pytest.raises(PhiNotBijective):
            recover_pointwise(T)

    def test_fiber_dimension_mismatch(self):
        space = DiscreteSpace(("x1",))
        T = BigSuperoperator(
            space_in=space, space_out=space, n_in=2, n_out=3, blocks=np.zeros((1, 1, 9, 4))
        )
        with pytest.raises(DimensionMismatch):
            recover_pointwise(T)

    def test_complex_field_round_trip(self):
        cfg = FieldConfig(field="complex")
        b = gen_pointwise(3, 2, seed=21, cfg=cfg)
        form = recover_pointwise(b.map)
        assert form.phi == b.ground_truth.phi
        for lab in form.phi:
            assert abs(form.alphas[lab] - b.ground_truth.alphas[lab]) <= 1e-8 * abs(
                b.ground_truth.alphas[lab]
            )
            np.testing.assert_allclose(form.S[lab], b.ground_truth.S[lab], atol=1e-8)

    def test_per_point_error_carries_label(self):
        base = gen_pointwise(2, 2, seed=17)
        blocks = base.map.blocks.copy()
        x1 = int(np.argmax(np.linalg.norm(blocks[1], axis=(1, 2))))
        blocks[1, x1] = gen_transpose(2).mat
        T = BigSuperoperator(
            space_in=base.map.space_in,
            space_out=base.map.space_out,
            n_in=2,
            n_out=2,
            blocks=blocks,
        )
        with pytest.raises(Exception, match="y2"):
            recover_pointwise(T)

    def test_the_residual_is_the_only_judge(self):
        """recover_pointwise returns exactly when every phi-block fits and the
        fitted form's verify_pointwise residual, at the map's scale, is within
        tol_rel; no block is judged at its own scale."""
        sliver = 0
        for field in ("real", "complex"):
            cfg = FieldConfig(field=field)
            for k, n, seed in itertools.product(range(1, 5), range(1, 4), range(4)):
                base = gen_pointwise(k, n, seed, cfg).map
                blocks = base.blocks.copy()
                blocks[0] *= 1e-3
                for U in (base, replace(base, blocks=blocks)):
                    for eps in (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6):
                        T = perturb(U, eps, seed)
                        reach = _reach(T)
                        x1 = reach.argmax(axis=1)
                        forms = None
                        if (reach.sum(axis=1) == 1).all() and len(set(x1)) == k:
                            blocks = [T.block(x2, x) for x2, x in enumerate(x1)]
                            try:
                                forms = [fit_conjugation(basis_image_array(B.mat), B.cfg)[0] for B in blocks]
                            except RecoveryError:
                                pass
                        residual = None
                        if forms is not None:
                            labels = T.space_out.labels
                            fitted = PointwiseForm(
                                phi={lab: T.space_in.labels[x] for lab, x in zip(labels, x1)},
                                alphas={lab: f.alpha for lab, f in zip(labels, forms)},
                                S={lab: f.S for lab, f in zip(labels, forms)},
                            )
                            residual = verify_pointwise(T, fitted)
                        try:
                            form = recover_pointwise(T)
                        except RecoveryError:
                            assert residual is None or residual > cfg.tol_rel
                            continue
                        assert residual is not None and residual <= cfg.tol_rel
                        assert form.phi == fitted.phi and form.alphas == fitted.alphas
                        assert all(np.array_equal(form.S[lab], fitted.S[lab]) for lab in form.phi)
                        assert form.residual == residual
                        sliver += max(f.residual for f in forms) > cfg.tol_rel
        # some recovered maps have a block whose own-scale residual is above tol_rel
        assert sliver

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_each_point_is_fitted_and_measured_once(self, field, monkeypatch):
        # one inversion of S per point, no per-block Superoperator, and the
        # residual is the one verify_pointwise measures on its own
        k = 8
        T = perturb(gen_pointwise(k, 3, 1, FieldConfig(field=field)).map, 1e-12, 1)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return invert(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a block was built as a Superoperator")

        monkeypatch.setattr(structure, "invert", counted)
        monkeypatch.setattr(funcalg, "Superoperator", refuse)
        form = recover_pointwise(T)
        assert calls == [(3, 3)] * k
        assert form.residual == verify_pointwise(T, form)


class TestVerifyPointwise:
    def test_round_trip(self):
        b = gen_pointwise(3, 2, seed=18)
        assert verify_pointwise(b.map, recover_pointwise(b.map)) <= 1e-10

    def test_wrong_permutation_dominates(self):
        b = gen_pointwise(3, 2, seed=19)
        form = recover_pointwise(b.map)
        labels = list(form.phi)
        swapped = dict(form.phi)
        swapped[labels[0]], swapped[labels[1]] = swapped[labels[1]], swapped[labels[0]]
        bad = PointwiseForm(phi=swapped, alphas=form.alphas, S=form.S)
        assert verify_pointwise(b.map, bad) > 0.5

    def test_identity_instance_zero_residual(self):
        space_in = DiscreteSpace(("x1", "x2"))
        space_out = DiscreteSpace(("y1", "y2"))
        blocks = np.zeros((2, 2, 1, 1))
        blocks[0, 0] = 1.0
        blocks[1, 1] = 1.0
        T = BigSuperoperator(space_in=space_in, space_out=space_out, n_in=1, n_out=1, blocks=blocks)
        form = PointwiseForm(
            phi={"y1": "x1", "y2": "x2"},
            alphas={"y1": 1.0, "y2": 1.0},
            S={"y1": np.eye(1), "y2": np.eye(1)},
        )
        assert verify_pointwise(T, form) <= 1e-14


class TestVerifyPointwiseStacked:
    """verify_pointwise measures all k phi-blocks in one pass; its value and its
    errors are the one-point loop's of tests/pointwise_reference.py."""

    @staticmethod
    def _same(T, form):
        assert verify_pointwise(T, form) == reference_verify_pointwise(T, form)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equals_the_point_loop(self, field):
        cfg = FieldConfig(field=field)
        for k in (1, 2, 3, 5, 8):
            for n in (1, 2, 3):
                for seed in range(3):
                    b = gen_pointwise(k, n, seed, cfg)
                    for eps in (0.0, 1e-9, 1e-3):  # eps > 0 puts mass off phi
                        T = perturb(b.map, eps, seed)
                        self._same(T, b.ground_truth)
                        if eps < 1e-3:
                            self._same(T, recover_pointwise(T))
                    off = replace(b.ground_truth, alphas={lab: 1.5 * a for lab, a in b.ground_truth.alphas.items()})
                    self._same(b.map, off)

    def test_off_phi_mass_counts(self):
        b = gen_pointwise(3, 2, seed=5)
        blocks = b.map.blocks.copy()
        blocks[0, int(np.flatnonzero(np.linalg.norm(blocks[0], axis=(1, 2)) == 0)[0])] = 0.25
        T = replace(b.map, blocks=blocks)
        self._same(T, b.ground_truth)
        assert verify_pointwise(T, b.ground_truth) > 0.1

    def test_singular_point_raises_as_the_loop(self):
        b = gen_pointwise(3, 2, seed=6)
        S = dict(b.ground_truth.S)
        S["y2"] = np.array([[1.0, 1.0], [1.0, 1.0]])
        form = replace(b.ground_truth, S=S)
        with pytest.raises(SingularMatrix) as stacked:
            verify_pointwise(b.map, form)
        with pytest.raises(SingularMatrix) as loop:
            reference_verify_pointwise(b.map, form)
        assert str(stacked.value) == str(loop.value)

    def test_all_zero_blocks_raise_as_the_loop(self):
        b = gen_pointwise(2, 2, seed=7)
        T = replace(b.map, blocks=np.zeros_like(b.map.blocks))
        for fn in (verify_pointwise, reference_verify_pointwise):
            with pytest.raises(DegenerateMap):
                fn(T, b.ground_truth)


def _cross_kind_maps():
    """(name, superoperator) over both fields and n_in, n_out in 1..3."""
    for field in ("real", "complex"):
        cfg = FieldConfig(field=field)
        for n in (1, 2, 3):
            conj = gen_conjugation(n, n, cfg=cfg).map
            yield f"conjugation {field} n={n}", conj
            mat = conj.mat.copy()
            mat[:, 0] = 0.0  # one basis image zeroed: neither separating nor invertible
            yield f"zeroed conjugation {field} n={n}", Superoperator(n, n, mat, cfg)
            for eps in (1e-12, 1e-6, 1e-3):
                yield f"perturb:{eps} {field} n={n}", perturb(conj, eps, n)
            yield f"transpose {field} n={n}", gen_transpose(n, cfg)
            for n_out in (1, 2, 3):
                for seed in (0, 1):
                    mat = gaussian(np.random.default_rng(seed), (n_out**2, n**2), cfg)
                    yield f"random {field} {n}->{n_out} seed={seed}", Superoperator(n, n_out, mat, cfg)


class TestSharedWithSuperop:
    def test_stacked_basis_images_equal_per_block_images(self):
        T = perturb(gen_point_mixing(3, 2, seed=4, cfg=FieldConfig(field="complex")), 1e-3, seed=4)
        stacked = basis_image_array(T.blocks)
        assert stacked.shape == (3, 3, 2, 2, 2, 2)
        for x2 in range(3):
            for x1 in range(3):
                assert np.array_equal(stacked[x2, x1], basis_image_array(T.block(x2, x1).mat))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_point_map_matches_its_superop_bit_for_bit(self, field):
        cfg = FieldConfig(field=field)
        one = DiscreteSpace(("p",))
        for seed in range(20):
            T = gen_conjugation(3, seed=seed, cfg=cfg).map
            big = BigSuperoperator(space_in=one, space_out=one, n_in=3, n_out=3,
                                   blocks=T.mat[None, None], cfg=cfg)
            scale = image_scale(basis_image_array(T.mat))
            assert image_scale(basis_image_array(big.blocks)) == scale
            form = recover_conjugation(T)
            pointwise = PointwiseForm(phi={"p": "p"}, alphas={"p": form.alpha}, S={"p": form.S})
            assert verify_pointwise(big, pointwise) == verify_form(T, form)

    def test_one_point_map_gets_its_superops_biseparating_verdict(self):
        # the one decision order serves both kinds: a superop and the block map
        # with it as its only block get one status, direction and certificate
        seen = set()
        for name, T in _cross_kind_maps():
            big = BigSuperoperator(space_in=DiscreteSpace(("x",)), space_out=DiscreteSpace(("y",)),
                                   n_in=T.n_in, n_out=T.n_out, blocks=T.mat[None, None], cfg=T.cfg)
            op, fn = is_biseparating(T), is_biseparating_fn(big)
            assert (fn.status, fn.direction) == (op.status, op.direction), name
            assert (fn.counterexample is None) == (op.counterexample is None), name
            if op.counterexample is not None:
                np.testing.assert_array_equal(fn.counterexample.F1.values[0], op.counterexample.A)
                np.testing.assert_array_equal(fn.counterexample.F2.values[0], op.counterexample.B)
            seen.add((op.status, op.direction))
        assert seen == {(BISEPARATING, None), (NOT_INVERTIBLE, None), (NOT_SEPARATING, FORWARD)}


def test_bridge_algebraic_implies_strict_small():
    """Biseparating in the algebraic sense implies strictly separating
    (reduced; the acceptance suite runs 100 instances)."""
    for seed in range(10):
        b = gen_pointwise(3, 2, seed=seed)
        assert is_separating_fn(b.map).status == "separating"
        assert is_separating_fn(inverse_fn(b.map)).status == "separating"
        assert is_strictly_separating(b.map).status == "separating"


def test_recovered_pointwise_form_carries_verify_pointwises_residual():
    for field in ("real", "complex"):
        for k, n, seed in ((1, 1, 0), (3, 2, 1), (4, 3, 2)):
            T = gen_pointwise(k, n, seed, FieldConfig(field=field)).map
            form = recover_pointwise(T)
            assert form.residual == verify_pointwise(T, form)
