"""Bath specifications and the preconfigured benchmark models.

A bath couples to the system through one operator and is characterized by a
correlation function written as a sum of decaying exponentials

    alpha(tau) = sum_j G_j * exp(-1j * omega_j * tau - kappa_j * |tau|),

one damped mode per term.  The ``1/N`` scaling of the preset amplitudes is
baked into the constructors; :func:`custom` users control scaling themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import MatrixValidationError
from .linalg import as_dense
from .operators import SpinSpace, spin_operators
from .symmetry import SymmetrySpec

#: Tolerated Hermiticity defect of user-supplied Hamiltonians.
CUSTOM_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class BathTerm:
    """One exponential term: complex amplitude, real frequency, decay rate > 0."""

    amplitude: complex
    frequency: float
    decay: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "frequency", float(self.frequency))
        object.__setattr__(self, "decay", float(self.decay))
        if not (
            math.isfinite(self.amplitude.real)
            and math.isfinite(self.amplitude.imag)
            and math.isfinite(self.frequency)
            and math.isfinite(self.decay)
        ):
            raise MatrixValidationError("bath term parameters must be finite")
        if self.decay <= 0:
            raise MatrixValidationError("bath term decay rate must be > 0")


@dataclass(frozen=True)
class BathSpec:
    """A coupling operator together with its exponential decomposition."""

    coupling: np.ndarray
    terms: Tuple[BathTerm, ...]

    def __post_init__(self):
        coupling = as_dense(self.coupling)
        if coupling.shape[0] != coupling.shape[1]:
            raise MatrixValidationError("bath coupling operator must be square")
        coupling.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)
        terms = tuple(self.terms)
        if not terms:
            raise MatrixValidationError("a bath needs at least one exponential term")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.coupling.shape[0]


def correlation(bath: BathSpec, tau: float) -> complex:
    """Bath correlation function at time ``tau`` (pointwise sum of exponentials)."""
    return sum(
        t.amplitude * np.exp(-1j * t.frequency * tau - t.decay * abs(tau))
        for t in bath.terms
    )


@dataclass(frozen=True)
class ModelInstance:
    """A system Hamiltonian with its baths and bookkeeping metadata."""

    name: str
    hamiltonian: np.ndarray
    baths: Tuple[BathSpec, ...]
    size: int
    params: Dict[str, float] = field(default_factory=dict)
    symmetry: Optional[SymmetrySpec] = None
    reference_criticals: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        h = as_dense(self.hamiltonian)
        if h.shape[0] != h.shape[1]:
            raise MatrixValidationError("Hamiltonian must be square")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "baths", tuple(self.baths))
        for bath in self.baths:
            if bath.dim != h.shape[0]:
                raise MatrixValidationError(
                    f"bath coupling dimension {bath.dim} does not match the "
                    f"system dimension {h.shape[0]}"
                )

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def mode_count(self) -> int:
        return sum(len(bath.terms) for bath in self.baths)

    def slots(self) -> List[Tuple[int, BathTerm]]:
        """Flat list of damped modes as ``(bath_index, term)`` pairs."""
        return [
            (l, term) for l, bath in enumerate(self.baths) for term in bath.terms
        ]

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.hamiltonian - self.hamiltonian.conj().T).max())


def _check_rates(**rates: float) -> None:
    for name, value in rates.items():
        if value <= 0:
            raise MatrixValidationError(f"{name} must be > 0, got {value}")


def lmg(N: int, V: float, gamma: float, kappa: float, omega: float) -> ModelInstance:
    """Collective-spin model with anisotropic squeezing and collective decay.

    ``H = (V / 2N) (Sp^2 + Sm^2)`` with jump operator ``Sm`` and a single
    exponential bath term of amplitude ``gamma * kappa / (2N)``.  The control
    parameter is ``g = V / gamma``; in the memoryless limit the reference
    critical point is ``g = 1/2``.  Carries the Z2 charge assignment (system
    parity along ``Sz`` plus mode parity), which ``Sp^2``, ``Sm^2`` and ``Sm``
    respect.
    """
    _check_rates(gamma=gamma, kappa=kappa)
    ops = spin_operators(SpinSpace(N))
    h = (V / (2 * N)) * (ops["Sp"] @ ops["Sp"] + ops["Sm"] @ ops["Sm"])
    bath = BathSpec(ops["Sm"], (BathTerm(gamma * kappa / (2 * N), omega, kappa),))
    return ModelInstance(
        name="lmg",
        hamiltonian=h,
        baths=(bath,),
        size=N,
        params={"V": V, "gamma": gamma, "kappa": kappa, "omega": omega,
                "g": V / gamma},
        symmetry=SymmetrySpec(tuple(range(N + 1)), (1,), group_order=2),
        reference_criticals={"g_c_markovian": 0.5},
    )


def z2_lmg(
    N: int, V: float, gamma: float, kappa: float, omega: float, h: float
) -> ModelInstance:
    """Parity-symmetric variant: ``H = (V / 2N)(Sp^2 + Sm^2) + h Sz``, ``L = Sx``.

    Carries the Z2 charge assignment (system parity along ``Sz`` plus mode
    parity).  When the parameters satisfy ``omega = kappa = 2 gamma = 2 h``
    the reference critical couplings ``g = -3/4`` and ``g = 1`` are attached.
    """
    _check_rates(gamma=gamma, kappa=kappa)
    ops = spin_operators(SpinSpace(N))
    ham = (V / (2 * N)) * (ops["Sp"] @ ops["Sp"] + ops["Sm"] @ ops["Sm"]) + h * ops["Sz"]
    bath = BathSpec(ops["Sx"], (BathTerm(gamma * kappa / (2 * N), omega, kappa),))
    reference = {}
    if np.allclose([omega, kappa, 2 * gamma, 2 * h], omega):
        reference = {"g_c1": -0.75, "g_c2": 1.0}
    return ModelInstance(
        name="z2_lmg",
        hamiltonian=ham,
        baths=(bath,),
        size=N,
        params={"V": V, "gamma": gamma, "kappa": kappa, "omega": omega, "h": h,
                "g": V / gamma},
        symmetry=SymmetrySpec(
            system_charges=tuple(range(N + 1)),
            bath_charges=(1,),
            group_order=2,
        ),
        reference_criticals=reference,
    )


def dicke_critical_coupling(omega0: float, omega: float, kappa: float) -> float:
    """Mean-field critical coupling of the two-mode model."""
    return math.sqrt(omega0 * (omega**2 + kappa**2) / (2 * omega))


def two_mode_dicke(
    N: int, g: float, omega0: float, omega: float, kappa: float
) -> ModelInstance:
    """Collective spin exchanging excitations with two damped modes.

    ``H = omega0 * Sz`` with jump operators ``Sm`` and ``Sp`` and identical
    single-term baths of amplitude ``g^2 / N``.  Carries the U(1) charge
    assignment (``Sz`` plus the signed mode numbers); the mean-field critical
    coupling ``sqrt(omega0 (omega^2 + kappa^2) / (2 omega))`` is attached.
    """
    _check_rates(kappa=kappa, omega0=omega0)
    ops = spin_operators(SpinSpace(N))
    ham = omega0 * ops["Sz"]
    term = BathTerm(g**2 / N, omega, kappa)
    baths = (
        BathSpec(ops["Sm"], (term,)),
        BathSpec(ops["Sp"], (term,)),
    )
    return ModelInstance(
        name="two_mode_dicke",
        hamiltonian=ham,
        baths=baths,
        size=N,
        params={"g": g, "omega0": omega0, "omega": omega, "kappa": kappa},
        symmetry=SymmetrySpec(
            system_charges=tuple(range(N + 1)),
            bath_charges=(1, -1),
            group_order=0,
        ),
        reference_criticals={"g_c": dicke_critical_coupling(omega0, omega, kappa)},
    )


def custom(
    hamiltonian,
    baths: Sequence[BathSpec],
    params: Optional[Dict[str, float]] = None,
    name: str = "custom",
    size: Optional[int] = None,
    symmetry: Optional[SymmetrySpec] = None,
) -> ModelInstance:
    """User-defined model; rejects non-Hermitian Hamiltonians and dim mismatches.

    A Hamiltonian accepted within :data:`CUSTOM_HERMITICITY_TOL` is
    hermitized, so its generator commutes exactly with the adjoint involution
    that the solvers' real form relies on.
    """
    h = as_dense(hamiltonian)
    defect = float(np.abs(h - h.conj().T).max()) if h.size else 0.0
    if defect > CUSTOM_HERMITICITY_TOL:
        raise MatrixValidationError(
            f"Hamiltonian is not Hermitian (defect {defect:.3e})"
        )
    h = (h + h.conj().T) / 2
    baths = tuple(baths)
    if not baths:
        raise MatrixValidationError("at least one bath is required")
    return ModelInstance(
        name=name,
        hamiltonian=h,
        baths=baths,
        size=h.shape[0] - 1 if size is None else size,
        params=dict(params or {}),
        symmetry=symmetry,
    )
