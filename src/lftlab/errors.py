"""Exception types shared across the package."""


class LftError(Exception):
    """Base class for all errors raised by lftlab."""


class NonConvexInput(LftError):
    """Samples violate the discrete convexity requirement."""


class NonConvexSlice(NonConvexInput):
    """An axis slice of a tensor input violates discrete convexity."""


class DegenerateGrid(LftError):
    """Grid too small to define at least two discrete gradients."""


class InvalidK(LftError):
    """Requested dual grid size below the minimum of 2."""


class OutOfRangeDual(LftError):
    """Dual point outside the closed nontrivial range [c_0, c_{n-2}]."""


class ZeroSpacing(LftError):
    """Dual grid spacing is zero where a positive spacing is required."""


class IndexOutOfRange(LftError):
    """Index argument outside its admissible range."""


class NotPowerOfTwo(LftError):
    """Size fails the power-of-two requirement under strict checking."""


class MalformedState(LftError):
    """Quantum state lacks the registers expected by a simulator step."""


class EmptyAcceptance(LftError):
    """Acceptance set is empty; cannot happen for valid convex inputs."""


class AcceptanceMismatch(LftError):
    """Accepted (index, copy) pairs do not enumerate the dual grid."""


class AllZeroValues(LftError):
    """Amplitude encoding undefined for an all-zero value vector."""


class ZeroXi(LftError):
    """Rescaling undefined: the function is affine (no gradient jump)."""


class RecoveryFailed(LftError):
    """A hidden-string reduction did not reproduce its exact identity."""


class BruteCapExceeded(LftError):
    """Too many primal points for the exhaustive brute-force oracle."""
