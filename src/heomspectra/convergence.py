"""Truncation-order control for both pictures.

Convergence is measured by differences at consecutive truncations, exactly as
recorded (no Richardson or Cauchy-sequence bounds): for an observable ``O``

    C_k(O)      = | <O>_ss(k) - <O>_ss(k + 1) |

and for a tracked eigenvalue ``S_k = |lambda(k) - lambda(k + 1)|``, with the
eigenvalue matched across truncations by nearest-distance pairing.  The
automatic selectors pick the first truncation where the observable measure
drops below a threshold (default 1e-4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .builder import assemble
from .embedding import EmbeddingSpec, steady_state_lm
from .errors import MatrixValidationError, PairingError
from .models import ModelInstance
from .spectra import expectation, steady_state
from .symmetry import decompose, sector_leading_eigs

#: Default convergence threshold.
DEFAULT_EPSILON = 1e-4
#: Two pairing candidates closer than this are considered ambiguous.
PAIRING_AMBIGUITY_TOL = 1e-12

EigSelector = Callable[[ModelInstance, int], Sequence[complex]]


@dataclass
class ConvergenceTrace:
    """History of a truncation scan and the selected truncation, if any.

    ``expectations[i]`` is the steady-state expectation the scan computed at
    ``truncations[i]``.
    """

    truncations: List[int]
    measures: List[float]
    target: float
    selected: Optional[int]
    expectations: List[float] = field(default_factory=list)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.truncations, self.truncations[1:])):
            raise MatrixValidationError("truncation values must be strictly increasing")
        if any(m < 0 for m in self.measures):
            raise MatrixValidationError("measure values must be non-negative")
        if self.expectations and len(self.expectations) != len(self.truncations):
            raise MatrixValidationError("need one expectation per truncation")

    @property
    def exhausted(self) -> bool:
        return self.selected is None

    @property
    def selected_expectation(self) -> Optional[float]:
        """The expectation at the selected truncation (None if exhausted)."""
        if self.selected is None:
            return None
        return self.expectations[self.truncations.index(self.selected)]


def steady_expectation(
    model: ModelInstance, observable: np.ndarray, k_max: int, **solver_opts
) -> float:
    """Steady-state expectation of a Hermitian observable at one truncation."""
    liouv = assemble(model, k_max)
    state, _ = steady_state(liouv, **solver_opts)
    return float(expectation(state, observable))


def embedding_expectation(
    model: ModelInstance, observable: np.ndarray, n_c: int, **solver_opts
) -> float:
    """Embedding steady-state expectation at one Fock cutoff."""
    spec = EmbeddingSpec(model, (n_c,) * model.mode_count)
    _, reduced = steady_state_lm(spec, **solver_opts)
    return float(expectation(reduced, observable))


def c_measure(
    model: ModelInstance, observable: np.ndarray, k_max: int, **solver_opts
) -> float:
    """Steady-state observable difference between ``k_max`` and ``k_max + 1``."""
    return abs(
        steady_expectation(model, observable, k_max, **solver_opts)
        - steady_expectation(model, observable, k_max + 1, **solver_opts)
    )


def _paired_distance(value: complex, candidates: Sequence[complex]) -> float:
    distances = np.sort(np.abs(np.asarray(candidates, dtype=complex) - value))
    if distances.size == 0:
        raise MatrixValidationError("no candidate eigenvalues at the next truncation")
    if distances.size > 1 and distances[1] - distances[0] < PAIRING_AMBIGUITY_TOL:
        raise PairingError(
            f"two candidates within {PAIRING_AMBIGUITY_TOL:.1e} of the tracked "
            f"eigenvalue {value}; cannot pair across truncations"
        )
    return float(distances[0])


def s_measure(model: ModelInstance, eig_selector: EigSelector, k_max: int) -> float:
    """Distance of the tracked eigenvalue between consecutive truncations.

    ``eig_selector(model, k)`` returns candidate eigenvalues at truncation
    ``k`` with the tracked one first.  The value at ``k_max`` is matched to
    the nearest candidate at ``k_max + 1``; an ambiguous match raises
    :class:`PairingError`.
    """
    tracked = complex(eig_selector(model, k_max)[0])
    candidates = eig_selector(model, k_max + 1)
    return _paired_distance(tracked, candidates)


def broken_sector_selector(count: int = 10) -> EigSelector:
    """Selector tracking the slowest eigenvalue over all non-steady sectors."""

    def select(model: ModelInstance, k_max: int) -> Sequence[complex]:
        liouv = assemble(model, k_max)
        decomp = decompose(liouv)
        leaders: List[Tuple[float, complex]] = []
        for charge in decomp.representative_charges():
            if charge == 0:
                continue
            res = sector_leading_eigs(decomp, charge, count=count)
            value = complex(res.eigenvalues[0])
            leaders.append((abs(value.real), value))
        if not leaders:
            raise MatrixValidationError("the decomposition has no non-steady sector")
        leaders.sort(key=lambda item: item[0])
        return [value for _, value in leaders]

    return select


def _scan(
    expectation_at: Callable[[int], float], start: int, limit: int, epsilon: float
) -> ConvergenceTrace:
    """First truncation in ``[start, limit]`` whose step to the next is below ``epsilon``."""
    truncations: List[int] = []
    measures: List[float] = []
    expectations: List[float] = []
    previous = expectation_at(start)
    selected = None
    for t in range(start, limit + 1):
        current = expectation_at(t + 1)
        value = abs(previous - current)
        truncations.append(t)
        measures.append(value)
        expectations.append(previous)
        if value < epsilon:
            selected = t
            break
        previous = current
    return ConvergenceTrace(truncations, measures, epsilon, selected, expectations)


def auto_truncate(
    model: ModelInstance,
    observable: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    k_start: int = 1,
    k_limit: int = 12,
    **solver_opts,
) -> ConvergenceTrace:
    """Smallest ``k_max`` in ``[k_start, k_limit]`` with ``C < epsilon``.

    Exhaustion of the range is a value (``selected is None``), not an error.
    """
    if epsilon <= 0:
        raise MatrixValidationError("epsilon must be > 0")
    if k_start < 0 or k_limit < k_start:
        raise MatrixValidationError("need k_start >= 0 and k_limit >= k_start")
    return _scan(lambda k: steady_expectation(model, observable, k, **solver_opts),
                 k_start, k_limit, epsilon)


def auto_cutoff(
    model: ModelInstance,
    observable: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    n_start: int = 1,
    n_limit: int = 16,
    **solver_opts,
) -> ConvergenceTrace:
    """Mirror of :func:`auto_truncate` for the embedding Fock cutoff."""
    if epsilon <= 0:
        raise MatrixValidationError("epsilon must be > 0")
    if n_start < 1 or n_limit < n_start:
        raise MatrixValidationError("need n_start >= 1 and n_limit >= n_start")
    return _scan(lambda n: embedding_expectation(model, observable, n, **solver_opts),
                 n_start, n_limit, epsilon)
