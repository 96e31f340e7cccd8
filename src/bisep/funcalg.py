"""Separating checks and pointwise-form recovery on algebras of matrix-valued
functions over finite discrete point sets.

A function algebra over a finite label set is a direct sum of matrix
algebras, one summand per point, with pointwise multiplication.  A linear
map between two such algebras is stored block-wise: ``blocks[x2][x1]``
maps the input value at point x1 to its contribution at output point x2.

The algebraic separating property splits exactly along this block
structure:

* cross-point: functions concentrated at distinct input points always
  multiply to zero, so for x != y every pair of basis images of
  blocks (x2, x) and (x2, y) must multiply to zero at every output
  point x2 (both orders, by symmetry of the quantifier);
* same-point: a zero-product pair concentrated at one input point x
  forces, at every output point x2, the single block (x2, x) to be a
  separating map of matrix algebras.

Both families of conditions are bilinear in the pair, so basis pairs
decide them; sufficiency follows by expanding T(F) T(G) into block
terms.  The strict variant (disjoint pointwise-norm supports map to
disjoint supports) is a statement about which blocks carry mass at all:
it holds iff the reach sets {x2 : block (x2, x1) is nonzero} are
pairwise disjoint across input points.

A finite direct sum of zero-product-determined algebras is zero product
determined (Bresar, Grasic, Sanchez Ortega, Linear Algebra Appl. 2009), so
a certified pointwise form, one scaled similarity per point, makes a block
map invertible whatever the rank rule says of its flat matrix.  That is
why ``separating.biseparating`` asks ``recover_pointwise`` about a map
whose inverse the block inverse refuses.  That recovery fits each phi-block
with ``structure.fit_conjugation`` and judges the fitted form once, by
:func:`verify_pointwise`'s residual at the map's scale.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, FieldConfig
from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NotLocal,
    NotStandardForm,
    PhiNotBijective,
    RecoveryError,
    SingularMatrix,
)
from .linalg import frob, invert, numeric_rank
from .separating import (
    NOT_SEPARATING,
    SEPARATING,
    Verdict,
    biseparating,
    is_separating_exact,
)
from .structure import ConjugationForm, fit_conjugation, unit_deviations
from .superop import Superoperator, basis_image_array, image_scale, unvec, vec

NOT_STRICTLY_SEPARATING = "not_strictly_separating"


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite set of distinct point labels with a fixed order."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) < 1:
            raise ValueError("a discrete space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def k(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)


@dataclass(frozen=True)
class MatrixFunction:
    """A function from a DiscreteSpace into n x n matrices; values stacked (k, n, n)."""

    space: DiscreteSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 3 or values.shape[0] != self.space.k or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(f"values shape {values.shape} does not fit {self.space.k} points")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.shape[1]

    def at(self, label):
        return self.values[self.space.index(label)]


def delta_fn(space: DiscreteSpace, label: str, A, cfg: FieldConfig = DEFAULT) -> MatrixFunction:
    """Function equal to A at one point and zero elsewhere."""
    A = cfg.asarray(A)
    values = np.zeros((space.k,) + A.shape, dtype=cfg.dtype)
    values[space.index(label)] = A
    return MatrixFunction(space=space, values=values)


def multiply(F: MatrixFunction, G: MatrixFunction) -> MatrixFunction:
    if F.space != G.space:
        raise DimensionMismatch("functions live on different spaces")
    return MatrixFunction(space=F.space, values=F.values @ G.values)


@dataclass(frozen=True)
class BigSuperoperator:
    """Block map between function algebras: blocks has shape (k2, k1, m^2, n^2)."""

    space_in: DiscreteSpace
    space_out: DiscreteSpace
    n_in: int
    n_out: int
    blocks: np.ndarray
    cfg: FieldConfig = DEFAULT

    def __post_init__(self):
        blocks = self.cfg.asarray(self.blocks)
        want = (self.space_out.k, self.space_in.k, self.n_out**2, self.n_in**2)
        if blocks.shape != want:
            raise DimensionMismatch(f"blocks shape {blocks.shape} != {want}")
        object.__setattr__(self, "blocks", blocks)

    def block(self, x2: int, x1: int) -> Superoperator:
        return Superoperator(n_in=self.n_in, n_out=self.n_out, mat=self.blocks[x2, x1], cfg=self.cfg)


def apply_fn(T: BigSuperoperator, F: MatrixFunction) -> MatrixFunction:
    """Apply the block map to a function."""
    if F.space != T.space_in or F.n != T.n_in:
        raise DimensionMismatch("function does not match the map's input algebra")
    out = np.einsum("yxab,xb->ya", T.blocks, vec(F.values))
    return MatrixFunction(space=T.space_out, values=unvec(out, T.n_out))


def inverse_fn(T: BigSuperoperator) -> BigSuperoperator:
    """Inverse of the block map as a map of function algebras, through the map
    as one matrix on the stacked per-point vectorizations, point-major: global
    vec index = point index * n^2 + local vec index."""
    k2, k1, m2, n2 = T.blocks.shape
    if k2 * m2 != k1 * n2:
        raise SingularMatrix(f"non-square block map {(k2 * m2, k1 * n2)} has no inverse")
    inv, _ = invert(T.blocks.transpose(0, 2, 1, 3).reshape(k2 * m2, k1 * n2), T.cfg)
    # rows run over the input points, columns over the output points
    blocks = inv.reshape(k1, n2, k2, m2).transpose(0, 2, 1, 3)
    return BigSuperoperator(space_in=T.space_out, space_out=T.space_in, n_in=T.n_out, n_out=T.n_in,
                            blocks=blocks, cfg=T.cfg)


@dataclass(frozen=True)
class PointwiseForm:
    """Certificate for (T F)(x) = alpha(x) * S_x F(phi(x)) S_x^{-1}.

    ``phi`` maps output labels to input labels; ``alphas`` and ``S`` are
    keyed by output label, each S_x in the ConjugationForm gauge.
    ``residual`` is :func:`verify_pointwise`'s value, measured when the form
    was recovered (None for a given form).
    """

    phi: dict[str, str]
    alphas: dict[str, complex | float]
    S: dict[str, np.ndarray]
    residual: float | None = field(default=None, compare=False)

    def point_form(self, label) -> ConjugationForm:
        return ConjugationForm(alpha=self.alphas[label], S=self.S[label])


@dataclass(frozen=True)
class FunctionCounterexample:
    """Zero-product pair of matrix functions whose images fail to separate.

    ``point`` is the output label where the image product (algebraic
    check) or the image support overlap (strict check) shows up.
    """

    F1: MatrixFunction
    F2: MatrixFunction
    point: str
    product_in_norm: float
    violation_norm: float


def support(F: MatrixFunction, cfg: FieldConfig = DEFAULT) -> set[str]:
    """Labels where F is nonzero relative to its largest value."""
    norms = np.linalg.norm(F.values, axis=(1, 2))
    top = norms.max(initial=0.0)
    if top <= cfg.tol_abs:
        return set()
    keep = norms > cfg.tol_rel * top
    return {lab for lab, k in zip(F.space.labels, keep) if k}


def ai_membership(F: MatrixFunction, cfg: FieldConfig = DEFAULT) -> bool:
    """True iff every value of F is zero or invertible.

    This characterizes the functions whose left annihilator is contained
    in their right annihilator: a value of intermediate rank admits a
    one-sided annihilator built from a covector killing its range and a
    vector outside its kernel.  (Validated by brute force in the tests.)
    """
    supp = support(F, cfg)
    n = F.n
    for lab in supp:
        if numeric_rank(F.at(lab), cfg) != n:
            return False
    return True


def _block_mass(T: BigSuperoperator) -> np.ndarray:
    return np.linalg.norm(T.blocks, axis=(2, 3))


def _reach(T: BigSuperoperator) -> np.ndarray:
    """reach[x2, x1]: block (x2, x1) carries mass above the global mass threshold."""
    mass = _block_mass(T)
    return mass > T.cfg.threshold(mass.max(initial=0.0))


def _matrix_unit(n, i, j, cfg):
    E = np.zeros((n, n), dtype=cfg.dtype)
    E[i, j] = 1
    return E


def _best_unit(block_imgs):
    """Index (i, j) of the basis unit with the largest image norm."""
    norms = np.linalg.norm(block_imgs, axis=(2, 3))
    return np.unravel_index(int(np.argmax(norms)), norms.shape)


def is_strictly_separating(T: BigSuperoperator) -> Verdict:
    """Disjoint input supports must map to disjoint output supports.

    Exact via block reach: the set of output points reached by each input
    point (blocks above the global mass threshold) must be pairwise
    disjoint.  A collision yields a pair of single-point functions whose
    images overlap at a common output point.
    """
    cfg = T.cfg
    reach = _reach(T)
    # the input pairs xa < xb that some output point hears both, in (xa, xb) order
    collide = np.argwhere(np.triu(reach.T @ reach, 1))
    if collide.size == 0:
        return Verdict(SEPARATING)
    xa, xb = collide[0]
    x2 = int(np.flatnonzero(reach[:, xa] & reach[:, xb])[0])
    imgs = basis_image_array(T.blocks)
    ia, ib = _best_unit(imgs[x2, xa]), _best_unit(imgs[x2, xb])
    F1 = delta_fn(T.space_in, T.space_in.labels[xa], _matrix_unit(T.n_in, *ia, cfg), cfg)
    F2 = delta_fn(T.space_in, T.space_in.labels[xb], _matrix_unit(T.n_in, *ib, cfg), cfg)
    label2 = T.space_out.labels[x2]
    # the images of the two units at label2 are the basis images the units were picked by
    violation = frob(imgs[x2, xa][ia]) * frob(imgs[x2, xb][ib])
    ce = FunctionCounterexample(F1, F2, label2, product_in_norm=0.0, violation_norm=violation)
    return Verdict(NOT_SEPARATING, counterexample=ce)


def is_separating_fn(T: BigSuperoperator) -> Verdict:
    """Exact algebraic separating check on the direct-sum algebra.

    Cross-point conditions first (ordered input pairs, then output point,
    in label order), then the per-block scalar-identity reduction; the
    first violation is returned as a function-pair counterexample with
    its point labels.  Pairs of blocks whose masses multiply to less than
    half the threshold cannot violate and are skipped.

    So are the blocks whose mass is at most half the square root of the
    threshold, zero blocks among them: every basis image of block (x2, x)
    has Frobenius norm at most its mass, so every entry of a product of two
    is at most mass^2, and a difference of two diagonal entries at most
    2 mass^2.  The checker's products round each entry by at most
    g = (m + 3) eps relative (see the separating module), the difference
    and its modulus add 3 eps, and the computed mass^2 is within a relative
    2 N eps of the true one (N entries per block), and 4 mass mass adds 2 eps.
    So when the computed 4 mass^2 <= thr, no computed off-diagonal entry or
    diagonal difference exceeds thr / 2 (1 + 2 (N + m + 5) eps) < thr: the
    block checker sets no mask bit and returns SEPARATING.  The blocks left
    keep their (x, x2) order, so the certificate is unchanged."""
    cfg = T.cfg
    imgs = basis_image_array(T.blocks)
    scale = image_scale(imgs) ** 2
    thr = cfg.threshold(scale)
    mass = _block_mass(T)

    def lifted(x, y, A, B, x2):
        F1 = delta_fn(T.space_in, T.space_in.labels[x], A, cfg)
        F2 = delta_fn(T.space_in, T.space_in.labels[y], B, cfg)
        prod_in = float(np.linalg.norm(multiply(F1, F2).values, axis=(1, 2)).max())
        out = multiply(apply_fn(T, F1), apply_fn(T, F2))
        violation = float(np.linalg.norm(out.values, axis=(1, 2)).max())
        return FunctionCounterexample(
            F1=F1,
            F2=F2,
            point=T.space_out.labels[x2],
            product_in_norm=prod_in,
            violation_norm=violation,
        )

    # cross-point: concentrated at distinct input points, every product is zero
    for x in range(T.space_in.k):
        # an entry of a product is at most the product of the Frobenius norms;
        # the factor 2 covers the rounding of both sides.  hot[y, x2] flags the
        # output points where blocks (x2, x) and (x2, y) may fail to annihilate
        hot = 2 * mass[:, x] * mass.T > thr
        hot[x] = False
        for y, x2 in np.argwhere(hot):
            prods = np.einsum("ijpr,klrq->ijklpq", imgs[x2, x], imgs[x2, y])
            bad = np.abs(prods) > thr
            if bad.any():
                i, j, k, l, _p, _q = np.argwhere(bad)[0]
                A = _matrix_unit(T.n_in, i, j, cfg)
                B = _matrix_unit(T.n_in, k, l, cfg)
                return Verdict(NOT_SEPARATING, counterexample=lifted(x, y, A, B, x2))

    # same-point: each block must be separating on its own, at the global
    # scale; a block with 4 mass^2 <= thr is (see the docstring)
    for x, x2 in np.argwhere((4 * mass * mass > thr).T):
        verdict = is_separating_exact(T.block(x2, x), scale=scale)
        if not verdict:
            ce = verdict.counterexample
            return Verdict(NOT_SEPARATING, counterexample=lifted(x, x, ce.A, ce.B, x2))
    return Verdict(SEPARATING)


def is_biseparating_fn(T: BigSuperoperator) -> Verdict:
    """:func:`separating.biseparating` with the block checker, the block
    inverse and, for a refused inverse, :func:`recover_pointwise`; then strict
    separation: NOT_STRICTLY_SEPARATING with a strict-check witness when a
    biseparating map fails it.

    The block inverse's rank rule caps cond(T) = max cond(S_x)^2 at 1/tol_rel;
    a separating map that it refuses but that recovers is BISEPARATING and goes
    on to strict separation, so a recovered block map is never NOT_INVERTIBLE."""
    verdict = biseparating(T, is_separating_fn, inverse_fn, recover_pointwise)
    if verdict:
        strict = is_strictly_separating(T)
        if not strict:
            return Verdict(NOT_STRICTLY_SEPARATING, counterexample=strict.counterexample)
    return verdict


def recover_pointwise(T: BigSuperoperator) -> PointwiseForm:
    """Reconstruct the permutation phi and the per-point (alpha, S) data: each
    phi-block's form is :func:`structure.fit_conjugation`'s, and the form is
    returned when its :func:`verify_pointwise` residual, at the map's scale,
    is within tol_rel; no block is judged at its own scale.  That residual is
    taken from the deviations the fits measured.  The returned form carries it.

    Raises NotLocal when some output point hears several input points,
    PhiNotBijective when the point map cannot be a bijection, a fit's
    RecoveryError with the output label, and NotStandardForm for a residual
    above tol_rel.
    """
    if T.n_in != T.n_out:
        raise DimensionMismatch(f"pointwise recovery needs n_in = n_out, got {T.n_in} != {T.n_out}")
    if T.space_in.k != T.space_out.k:
        raise PhiNotBijective(
            f"input has {T.space_in.k} points but output has {T.space_out.k}; no bijection exists"
        )
    reach = _reach(T)
    imgs = basis_image_array(T.blocks)
    labels = T.space_out.labels
    x1s, forms, devs = [], [], []
    for x2, label2 in enumerate(labels):
        hot = np.flatnonzero(reach[x2])
        if hot.size != 1:
            raise NotLocal(f"output point {label2!r} hears {hot.size} input points (need exactly 1)")
        x1s.append(int(hot[0]))
        try:
            form, _S_inv, dev, _M = fit_conjugation(imgs[x2, x1s[-1]], T.cfg)
        except RecoveryError as exc:
            raise type(exc)(f"at output point {label2!r}: {exc}", residual=exc.residual) from exc
        forms.append(form)
        devs.append(dev)
    phi = {label2: T.space_in.labels[x1] for label2, x1 in zip(labels, x1s)}
    if len(set(x1s)) != len(x1s):
        raise PhiNotBijective(f"point map {phi} is not injective")
    residual = _pointwise_residual(T, x1s, np.stack(devs), image_scale(imgs))
    if residual > T.cfg.tol_rel:
        raise NotStandardForm(f"pointwise residual {residual:.3e} exceeds tolerance", residual=residual)
    return PointwiseForm(phi=phi, alphas={lab: f.alpha for lab, f in zip(labels, forms)},
                         S={lab: f.S for lab, f in zip(labels, forms)}, residual=residual)


def _pointwise_residual(T: BigSuperoperator, x1s, dev, img_scale) -> float:
    """The pointwise residual of a form with phi(y_x2) = x_{x1s[x2]} and unit
    deviations dev[x2] on its phi-blocks, at the map's image scale."""
    off = _block_mass(T)
    top = float(off.max())
    off[np.arange(len(x1s)), x1s] = 0.0  # masses are >= 0, so the largest left is the off-phi mass
    return max(float(dev.max()) / img_scale, float(off.max()) / top)


def verify_pointwise(T: BigSuperoperator, form: PointwiseForm) -> float:
    """Residual of the pointwise form: basis deviation on the phi-blocks
    (relative to the largest basis image) combined with the relative mass
    of all off-phi blocks.  All k points are measured in one stacked pass."""
    imgs = basis_image_array(T.blocks)
    img_scale = image_scale(imgs)
    if img_scale <= T.cfg.tol_abs:
        raise DegenerateMap("all blocks vanish; residual is undefined")
    labels = T.space_out.labels
    x1s = np.array([T.space_in.index(form.phi[label2]) for label2 in labels])
    alphas = np.array([form.alphas[label2] for label2 in labels])
    S = np.stack([form.S[label2] for label2 in labels])
    dev = unit_deviations(imgs[np.arange(len(labels)), x1s], alphas, S, T.cfg)
    return _pointwise_residual(T, x1s, dev, img_scale)
