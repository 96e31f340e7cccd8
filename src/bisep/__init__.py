"""bisep: certified separating/biseparating checks and conjugation-form
recovery for linear maps on matrix algebras, and for finite function
algebras over them."""

from .config import COMPLEX, REAL, FieldConfig
from .errors import (
    BisepError,
    DegenerateMap,
    DimensionMismatch,
    EquivalenceViolated,
    InfeasibleRanks,
    NotFactorizable,
    NotInvertibleS,
    NotLocal,
    NotRankOne,
    NotRankOnePreserving,
    NotStandardForm,
    PhiNotBijective,
    RecoveryError,
    SchemaError,
    SingularMatrix,
    ZeroMatrix,
)
from .linalg import (
    RankOneFactor,
    invert,
    kernel_basis,
    numeric_rank,
    outer,
    pair,
    rank_one_factor,
)
from .superop import (
    Superoperator,
    apply,
    basis_images,
    compose,
    conjugation_superop,
    from_basis_images,
    identity_superop,
    inverse,
    unvec,
    vec,
)
from .separating import (
    BISEPARATING,
    Counterexample,
    NOT_INVERTIBLE,
    NOT_SEPARATING,
    SEPARATING,
    Verdict,
    is_biseparating,
    is_separating_exact,
    is_separating_sampled,
)
from .structure import (
    ConjugationForm,
    PsiMap,
    check_rank_one_preserving,
    gauge_normalize,
    psi_of,
    recover_conjugation,
    verify_form,
)
from .funcalg import (
    BigSuperoperator,
    DiscreteSpace,
    FunctionCounterexample,
    MatrixFunction,
    PointwiseForm,
    ai_membership,
    apply_fn,
    constant_fn,
    delta_fn,
    inverse_fn,
    is_biseparating_fn,
    is_separating_fn,
    is_strictly_separating,
    recover_pointwise,
    support,
    verify_pointwise,
    zero_product_iff_disjoint_support,
)
from .harness import (
    InstanceBundle,
    gen_conjugation,
    gen_point_mixing,
    gen_pointwise,
    gen_transpose,
    perturb,
)

__version__ = "0.1.0"
