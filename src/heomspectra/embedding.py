"""Enlarged Markovian description: system plus explicitly damped modes.

Each exponential bath term becomes one damped bosonic mode with a truncated
Fock space.  The composite ordering is ``system (x) mode_0 (x) mode_1 ...``
in the order of ``model.slots()``.  The coupling amplitude of a term with
correlation amplitude ``G`` is ``sqrt(G)``, which requires ``G`` real and
non-negative; complex amplitudes are rejected (that pathway still works in
the hierarchy picture).  This module serves as an independent oracle for
dynamics, steady states, correlation identities and dimension comparisons.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .builder import HeomState, _integrate
from .errors import EmbeddingUnsupportedError, MatrixValidationError, SizeBudgetError
from .hierarchy import count as hierarchy_count
from .linalg import (Solvable, clean_sparse, devectorize, hamiltonian_superoperator, kron,
                     vectorize)
from .models import ModelInstance
from .spectra import _null_vector, canonical_physical_state
from .symmetry import _sector_charges

#: Largest superoperator dimension the embedding will build.
DEFAULT_EMBEDDING_BUDGET = 1_500_000


@dataclass(frozen=True)
class EmbeddingSpec:
    """A model together with one Fock cutoff per damped mode."""

    model: ModelInstance
    fock_cutoffs: Tuple[int, ...]

    def __post_init__(self):
        cutoffs = self.fock_cutoffs
        if isinstance(cutoffs, int):
            cutoffs = (cutoffs,) * self.model.mode_count
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) != self.model.mode_count:
            raise MatrixValidationError(
                f"{len(cutoffs)} cutoffs for {self.model.mode_count} modes"
            )
        if any(c < 1 for c in cutoffs):
            raise MatrixValidationError("Fock cutoffs must be >= 1")
        object.__setattr__(self, "fock_cutoffs", cutoffs)

    @property
    def mode_dims(self) -> Tuple[int, ...]:
        return tuple(c + 1 for c in self.fock_cutoffs)

    @property
    def hilbert_dim(self) -> int:
        return self.model.dim * math.prod(self.mode_dims)


def boson_ops(n_c: int) -> Dict[str, np.ndarray]:
    """Truncated ladder operators: ``a|n> = sqrt(n)|n-1>`` up to ``n = n_c``.

    The commutator ``[a, a_dagger]`` equals the identity except in the
    ``(n_c, n_c)`` corner, an unavoidable truncation artifact.
    """
    if n_c < 1:
        raise MatrixValidationError("Fock cutoff must be >= 1")
    d = n_c + 1
    a = np.zeros((d, d), dtype=complex)
    a[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1, d))
    return {"a": a, "a_dagger": a.conj().T.copy(), "number": a.conj().T @ a}


def _mode_operator(spec: EmbeddingSpec, slot: int, op: np.ndarray) -> sp.csr_matrix:
    """Lift a single-mode operator to the composite Hilbert space."""
    pieces: List[sp.spmatrix] = [sp.identity(spec.model.dim, dtype=complex, format="csr")]
    for p, dim in enumerate(spec.mode_dims):
        pieces.append(op if p == slot else sp.identity(dim, dtype=complex, format="csr"))
    out = pieces[0]
    for piece in pieces[1:]:
        out = kron(out, piece)
    return out


def embed_system_operator(spec: EmbeddingSpec, operator: np.ndarray) -> sp.csr_matrix:
    """Lift a system operator to the composite Hilbert space."""
    out = sp.csr_matrix(np.asarray(operator, dtype=complex))
    for dim in spec.mode_dims:
        out = kron(out, sp.identity(dim, dtype=complex, format="csr"))
    return out


def _coupling_amplitudes(spec: EmbeddingSpec) -> List[float]:
    amplitudes = []
    for _, term in spec.model.slots():
        g2 = term.amplitude
        if abs(g2.imag) > 1e-12 or g2.real < -1e-12:
            raise EmbeddingUnsupportedError(
                f"term amplitude {g2} is not real non-negative; the enlarged "
                "Markovian construction needs a real coupling sqrt(G)"
            )
        amplitudes.append(math.sqrt(max(g2.real, 0.0)))
    return amplitudes


def total_hamiltonian(spec: EmbeddingSpec) -> sp.csr_matrix:
    """System-plus-modes Hamiltonian with exchange couplings ``sqrt(G)``."""
    slots = spec.model.slots()
    amplitudes = _coupling_amplitudes(spec)
    h = embed_system_operator(spec, spec.model.hamiltonian)
    for p, ((bath_index, term), g) in enumerate(zip(slots, amplitudes)):
        ops = boson_ops(spec.fock_cutoffs[p])
        a = _mode_operator(spec, p, ops["a"])
        number = _mode_operator(spec, p, ops["number"])
        coupling = embed_system_operator(spec, spec.model.baths[bath_index].coupling)
        h = h + term.frequency * number
        if g:
            h = h + g * (a.conj().T @ coupling + coupling.conj().T @ a)
    return clean_sparse(h)


def build_lm(spec: EmbeddingSpec) -> sp.csr_matrix:
    """Vectorized generator of the enlarged Markovian dynamics.

    ``-1j (H (x) 1 - 1 (x) H^T) + sum_p kappa_p (2 a (x) conj(a)
    - a^dag a (x) 1 - 1 (x) (a^dag a)^T)`` on the composite space.
    """
    dim = spec.hilbert_dim
    if dim * dim > DEFAULT_EMBEDDING_BUDGET:
        raise SizeBudgetError(
            f"superoperator dimension {dim * dim} exceeds the budget {DEFAULT_EMBEDDING_BUDGET}"
        )
    identity = sp.identity(dim, dtype=complex, format="csr")
    h = total_hamiltonian(spec)
    generator = hamiltonian_superoperator(h)
    for p, (_, term) in enumerate(spec.model.slots()):
        ops = boson_ops(spec.fock_cutoffs[p])
        a = _mode_operator(spec, p, ops["a"])
        number = _mode_operator(spec, p, ops["number"])
        generator = generator + term.decay * (
            2.0 * kron(a, a.conj())
            - kron(number, identity)
            - kron(identity, number.T)
        )
    return clean_sparse(generator)


def trace_covector(spec: EmbeddingSpec) -> np.ndarray:
    return vectorize(np.eye(spec.hilbert_dim))


def initial_product_state(spec: EmbeddingSpec, rho_s: np.ndarray) -> np.ndarray:
    """Vectorized ``rho_s (x) |vacuum><vacuum|`` on the composite space."""
    rho = np.asarray(rho_s, dtype=complex)
    if rho.shape != (spec.model.dim, spec.model.dim):
        raise MatrixValidationError("system state dimension mismatch")
    total = rho
    for dim in spec.mode_dims:
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        total = np.kron(total, vac)
    return vectorize(total)


def reduced_system_state(spec: EmbeddingSpec, rho_tot_vec: np.ndarray) -> np.ndarray:
    """Partial trace over all modes, returning the system block."""
    d_s = spec.model.dim
    d_m = math.prod(spec.mode_dims)
    rho = devectorize(rho_tot_vec, spec.hilbert_dim)
    return np.einsum("ikjk->ij", rho.reshape(d_s, d_m, d_s, d_m))


def _charge0_members(spec: EmbeddingSpec, lm: sp.csr_matrix) -> np.ndarray:
    """Basis ranks of charge 0 under the model's symmetry, checked on ``lm``."""
    occupations = np.array(list(itertools.product(*map(range, spec.mode_dims))),
                           dtype=np.int64)
    system = np.arange(spec.model.dim)
    # Basis order: ket (system, modes), then bra (system, modes).
    charges, _ = _sector_charges(
        lm, spec.model.symmetry, spec.model,
        ket=(system[:, None, None, None], occupations[None, :, None, None]),
        bra=(system[None, None, :, None], occupations[None, None, None, :]),
    )
    return np.flatnonzero(charges == 0)


def steady_state_lm(
    spec: EmbeddingSpec,
    count: int = 6,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stationary state of the embedding: (full matrix, reduced system matrix).

    The null vector is found and checked as in :func:`spectra.steady_state`,
    with the same solver options.  When the model declares a symmetry only
    the charge-0 block of the generator is solved: it holds the trace, and
    so the steady state.  A declared symmetry that does not block-diagonalize
    the generator raises :class:`SymmetryViolationError`.  The generator
    commutes with ``rho -> rho^dagger``, which transposes the row-major basis
    and maps charge 0 onto itself, so the solve runs in real arithmetic as in
    the hierarchy picture.
    """
    lm = build_lm(spec)
    dim = spec.hilbert_dim
    solvable = Solvable(lm, np.arange(dim * dim).reshape(dim, dim).T.ravel())
    if spec.model.symmetry is None:
        vector = _null_vector(solvable, count, tol, seed, shift)
    else:
        members = _charge0_members(spec, lm)
        vector = np.zeros(lm.shape[0], dtype=complex)
        vector[members] = _null_vector(solvable.restrict(members), count, tol, seed, shift)
    state, _ = canonical_physical_state(devectorize(vector, spec.hilbert_dim))
    return state.matrix, reduced_system_state(spec, vectorize(state.matrix))


def propagate_lm(spec: EmbeddingSpec, rho0_vec: np.ndarray, t_grid: Sequence[float]) -> np.ndarray:
    """Propagate the vectorized composite state; returns one column per time."""
    return _integrate(build_lm(spec), rho0_vec, t_grid)


def correlation_check(
    spec: EmbeddingSpec,
    heom_steady: HeomState,
    lm_steady: np.ndarray,
    n: int,
    m: int,
) -> float:
    """Residual of the mode-correlation identity linking the two pictures.

    For a single-mode model the trace of the auxiliary block ``(n, m)``
    equals ``(1j g)^n (-1j g)^m <a_dag^m a^n>`` with ``g = sqrt(G)``, the
    expectation taken in the embedding state.  Returns the absolute
    difference of the two sides.  With ``G = 0`` both sides vanish for
    ``(n, m) != (0, 0)``.
    """
    if spec.model.mode_count != 1:
        raise MatrixValidationError(
            "the correlation identity is implemented for single-mode models"
        )
    if n < 0 or m < 0 or n + m > heom_steady.hierarchy.k_max:
        raise MatrixValidationError(
            f"index ({n}, {m}) is outside the retained hierarchy"
        )
    lm_matrix = (
        devectorize(lm_steady, spec.hilbert_dim)
        if np.ndim(lm_steady) == 1
        else np.asarray(lm_steady, dtype=complex)
    )
    ops = boson_ops(spec.fock_cutoffs[0])
    a_full = _mode_operator(spec, 0, ops["a"]).toarray()
    left_op = np.linalg.matrix_power(a_full.conj().T, m) @ np.linalg.matrix_power(a_full, n)
    lhs = complex(np.trace(left_op @ lm_matrix))

    g = _coupling_amplitudes(spec)[0]
    aux_trace = complex(np.trace(heom_steady.block((n,), (m,))))
    if g == 0.0 and (n, m) != (0, 0):
        # Decoupled limit: the auxiliary block is identically zero and the
        # normal-ordered vacuum expectation vanishes, so the right side is 0.
        return abs(lhs)
    factor = (1j * g) ** n * (-1j * g) ** m
    return abs(lhs - aux_trace / factor)


def dimension_report(
    model: ModelInstance, k_max: int, cutoff_rule: Optional[int] = None
) -> Dict[str, float]:
    """Compare generator dimensions of the two pictures.

    ``cutoff_rule`` is the Fock cutoff ``N_c`` (default ``k_max``, since
    computing the same mode correlations requires at least ``N_c = k_max``).
    The embedding dimension is the superoperator dimension
    ``d_s^2 * prod (N_c + 1)^2``.
    """
    n_c = k_max if cutoff_rule is None else int(cutoff_rule)
    m_count = model.mode_count
    d2 = model.dim**2
    dim_heom = hierarchy_count(m_count, k_max) * d2
    dim_lm = d2 * (n_c + 1) ** (2 * m_count)
    return {
        "dim_heom": float(dim_heom),
        "dim_lm": float(dim_lm),
        "ratio": dim_heom / dim_lm,
    }
