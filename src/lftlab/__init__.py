"""Discrete Legendre-Fenchel transforms with exact rational arithmetic,
register-level simulation of the quantum-style transform pipelines, and
executable hidden-string hardness reductions.

The brute-force evaluation of the defining maximum is the oracle against
which every fast path and every simulated run is checked.
"""

from .errors import (
    AcceptanceMismatch,
    AllZeroValues,
    BruteCapExceeded,
    DegenerateGrid,
    EmptyAcceptance,
    IndexOutOfRange,
    InvalidK,
    LftError,
    MalformedState,
    NonConvexInput,
    NonConvexSlice,
    NotPowerOfTwo,
    OutOfRangeDual,
    RecoveryFailed,
    ZeroSpacing,
    ZeroXi,
)
from .grids import DualGrid, FunctionSpec, GradientVector, RegularGrid
from .transform import (
    ConjugateResult,
    convergence_gap,
    discrete_gradients,
    double_transform,
    lft_adaptive,
    lft_regular,
    nontrivial_dual_range,
    optimizer_map,
    regular_dual_grid,
)
from .witness import (
    WitnessReport,
    dual_index,
    in_acceptance_set,
    witness_params,
)
from .multi import (
    RatTensor,
    TensorConjugate,
    TensorGrid,
    TensorSamples,
    canonical_nd_dual_grids,
    lft_brute,
    lft_nd_adaptive,
    lft_nd_brute,
    lft_nd_regular,
    product_dual_points,
)
from .qstate import UNDEFINED, Amplitude, BasisLabel, QState
from .qlft import (
    AnalogEncoding,
    PostSelection,
    SimRun,
    StepRecord,
    attach_gradients,
    conjugate_pairs,
    digital_to_analog,
    finalize_conjugate,
    indicator_postselect,
    prepare_superposition,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from .qlft_nd import (
    MATCH,
    MISMATCH,
    VerificationReport,
    run_qlft_nd_adaptive,
    run_qlft_nd_regular,
)
from .hardness import (
    HiddenStringInstance,
    RecoveryOutcome,
    RescaledInstance,
    recover_via_point_queries,
    recover_via_sampling,
    rescale_instance,
    rescaling_checks,
    sample_conjugate_pair,
)

__version__ = "0.1.0"
