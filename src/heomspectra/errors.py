"""Exception types shared across the package."""


class MatrixValidationError(ValueError):
    """An input matrix or vector violates a structural precondition."""


class SizeBudgetError(RuntimeError):
    """A requested object would exceed a size or memory budget."""


class SingularShiftError(RuntimeError):
    """Shift-invert factorization hit a singular matrix at the requested shift."""

    def __init__(self, shift, suggested_shift):
        self.shift = shift
        self.suggested_shift = suggested_shift
        super().__init__(
            f"factorization is singular at shift {shift}; retry with a "
            f"perturbed shift such as {suggested_shift}"
        )


class EigenConvergenceError(RuntimeError):
    """An eigensolver failed to converge; carries any Ritz values obtained."""

    def __init__(self, message, ritz_values=None):
        self.ritz_values = ritz_values
        super().__init__(message)


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has an eigenvalue below the clip tolerance."""

    def __init__(self, eigenvalue, clip_tol):
        self.eigenvalue = eigenvalue
        self.clip_tol = clip_tol
        super().__init__(
            f"matrix has eigenvalue {eigenvalue} below -{clip_tol}; not PSD"
        )


class StiffnessError(RuntimeError):
    """Adaptive time stepping collapsed; spectral propagation is recommended."""


class SymmetryViolationError(RuntimeError):
    """The generator breaks a symmetry it is declared or assumed to have.

    With charges, an entry connects different charge sectors.  Without, the
    real form of a matrix under the adjoint involution has an imaginary
    entry, so the matrix does not commute with that involution.
    """

    def __init__(self, magnitude, row, col, row_charge=None, col_charge=None):
        self.magnitude = magnitude
        self.position = (row, col)
        self.charges = (row_charge, col_charge)
        if row_charge is None:
            detail = (f"imaginary part of magnitude {magnitude:.3e} at ({row}, {col}) of "
                      "the real form; the matrix does not commute with the adjoint involution")
        else:
            detail = (f"off-sector entry of magnitude {magnitude:.3e} at ({row}, {col}) "
                      f"connecting charges {row_charge} and {col_charge}; the declared "
                      f"charge assignment is inconsistent with the generator")
        super().__init__(detail)


class DegenerateSteadyStateError(RuntimeError):
    """More than one eigenvalue sits inside the zero-multiplicity tolerance."""

    def __init__(self, eigenvalues):
        self.eigenvalues = list(eigenvalues)
        super().__init__(
            "steady state is not unique within tolerance; near-zero "
            f"eigenvalues: {self.eigenvalues}"
        )


class ExtractionError(RuntimeError):
    """A physical block could not be extracted (for example zero trace)."""


class RealnessGateError(RuntimeError):
    """The tracked sector eigenvalue has a non-negligible imaginary part."""

    def __init__(self, eigenvalue, ratio, gate):
        self.eigenvalue = eigenvalue
        self.ratio = ratio
        self.gate = gate
        super().__init__(
            f"|Im| / scale = {ratio:.3e} exceeds the realness gate {gate:.1e} "
            f"for eigenvalue {eigenvalue}; the symmetry-broken pair is not "
            "defined in this finite-size regime"
        )


class PhaseSplitError(ValueError):
    """The sign split of a traceless Hermitian matrix is not possible."""


class PairingError(RuntimeError):
    """Eigenvalue tracking across truncations found an ambiguous match."""


class EmbeddingUnsupportedError(ValueError):
    """The enlarged Markovian construction does not support this bath."""


class ConfigError(ValueError):
    """A run configuration is invalid; the message carries the field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
