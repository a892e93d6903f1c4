"""Assembly of the sparse hierarchy generator and state propagation.

The generator acts on a stacked vector holding the row-major vectorization of
every retained auxiliary matrix, ordered by the lexicographic enumeration of
:mod:`heomspectra.hierarchy`.  It is a sum of Kronecker products of a matrix
on the hierarchy ranks with a matrix on one vectorized block,

    1 (x) -1j (H (x) 1 - 1 (x) H^T)  -  diag(damping) (x) 1  +  sum_p sum_moves W (x) T,

with ``damping(n, m) = sum_p (n_p - m_p) 1j w_p.imag + (n_p + m_p) w_p.real``
and ``w_p = kappa_p + 1j * omega_p`` per damped mode.  Each mode has four
moves.  Entry ``(r, s)`` of a move's ``W`` holds its weight when rank ``s``
is the index ``(n, m)`` of rank ``r`` moved as below, and ``T`` is the
move's template:

    source index    weight   template T
    (n - e_p, m)    n_p      G_p * (L (x) 1)
    (n, m - e_p)    m_p      conj(G_p) * (1 (x) conj(L))
    (n + e_p, m)    1        1 (x) conj(L) - L^dag (x) 1
    (n, m + e_p)    1        L (x) 1 - 1 (x) L^T

A move that leaves the triangular cut has no entry (truncation closure).  The
terms are concatenated as triplets and canonicalized once, so the matrix does
not depend on their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import MatrixValidationError, SizeBudgetError, StiffnessError
from .hierarchy import HierarchySpace, enumerate_indices
from .linalg import (Solvable, clean_sparse, devectorize, hamiltonian_superoperator, kron,
                     vectorize, write_triplets)
from .models import ModelInstance

#: Largest stacked dimension assemble() will build.
DEFAULT_DIMENSION_BUDGET = 2_000_000
#: Relative and absolute tolerances of the time integrator (:func:`_integrate`).
INTEGRATION_RTOL = 1e-9
INTEGRATION_ATOL = 1e-11


@dataclass(eq=False)
class HeomLiouvillian:
    """Sparse generator of the full hierarchy dynamics plus its metadata.

    Targeted solves of ``matrix`` are stored in ``solvable``, so the matrix
    must not change after analysis.  Generators compare by identity.
    """

    matrix: sp.csr_matrix
    hierarchy: HierarchySpace
    d_s: int
    model: ModelInstance

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def solvable(self) -> Solvable:
        """``matrix`` with its adjoint involution (:func:`adjoint_permutation`) and solves."""
        return Solvable(self.matrix, adjoint_permutation(self.hierarchy, self.d_s))

    def trace_covector(self) -> np.ndarray:
        """Vector ``w`` with ``w^dag |rho>`` = trace of the physical block."""
        w = np.zeros(self.dim, dtype=complex)
        w[: self.d_s * self.d_s] = vectorize(np.eye(self.d_s))
        return w

    def trace_residual(self) -> float:
        """Norm of the physical-trace covector acting from the left."""
        w = self.trace_covector()
        return float(np.linalg.norm(self.matrix.T @ np.conj(w)))


class HeomState:
    """Stacked state vector with access to individual auxiliary blocks."""

    def __init__(self, vector: np.ndarray, hierarchy: HierarchySpace, d_s: int):
        vector = np.asarray(vector, dtype=complex).ravel()
        expected = len(hierarchy) * d_s * d_s
        if vector.size != expected:
            raise MatrixValidationError(
                f"state vector length {vector.size} does not match the "
                f"hierarchy dimension {expected}"
            )
        self.vector = vector
        self.hierarchy = hierarchy
        self.d_s = d_s

    def block_by_rank(self, rank: int) -> np.ndarray:
        d2 = self.d_s * self.d_s
        return devectorize(self.vector[rank * d2 : (rank + 1) * d2], self.d_s)

    def block(self, n: Sequence[int], m: Sequence[int]) -> np.ndarray:
        rank = self.hierarchy.rank(tuple(n) + tuple(m))
        return self.block_by_rank(rank)

    def physical(self) -> np.ndarray:
        """The block at the all-zero index."""
        return self.block_by_rank(0)


def _mode_decays(model: ModelInstance) -> np.ndarray:
    return np.array(
        [term.decay + 1j * term.frequency for _, term in model.slots()],
        dtype=complex,
    )


def assemble(model: ModelInstance, k_max: int) -> HeomLiouvillian:
    """Assemble the sparse generator for a model at truncation order ``k_max``."""
    n_modes = model.mode_count
    space = enumerate_indices(n_modes, k_max)
    d = model.dim
    d2 = d * d
    size = len(space)
    dim = size * d2
    if dim > DEFAULT_DIMENSION_BUDGET:
        raise SizeBudgetError(
            f"stacked dimension {dim} exceeds the budget {DEFAULT_DIMENSION_BUDGET}"
        )

    indices = np.asarray(space.indices, dtype=np.int64)
    n_parts = indices[:, :n_modes]
    m_parts = indices[:, n_modes:]
    w = _mode_decays(model)
    dampings = (n_parts - m_parts) @ (1j * w.imag) + (n_parts + m_parts) @ w.real
    # -diag(damping) (x) 1 placed as is: a product with 1 + 0j could flip a zero's sign
    diagonal = np.repeat(-dampings, d2)
    damped = np.flatnonzero(diagonal)
    terms = [
        sp.kron(sp.identity(size), hamiltonian_superoperator(model.hamiltonian), format="coo"),
        sp.coo_matrix((diagonal[damped], (damped, damped)), shape=(dim, dim)),
    ]
    identity = sp.identity(d, dtype=complex, format="csr")
    for p, (bath_index, term) in enumerate(model.slots()):
        coupling = model.baths[bath_index].coupling
        left = kron(coupling, identity)
        right_conj = kron(identity, coupling.conj())
        moves = (  # (slot moved, step to the source index, template)
            (p, -1, term.amplitude * left),
            (n_modes + p, -1, np.conj(term.amplitude) * right_conj),
            (p, +1, right_conj - kron(coupling.conj().T, identity)),
            (n_modes + p, +1, left - kron(identity, coupling.T)),
        )
        for slot, step, template in moves:
            moved = indices.copy()
            moved[:, slot] += step
            sources = space.ranks(moved)
            rows = np.flatnonzero(sources >= 0)
            weights = indices[rows, slot] if step < 0 else np.ones(rows.size)
            hops = sp.coo_matrix((weights.astype(float), (rows, sources[rows])),
                                 shape=(size, size))
            terms.append(sp.kron(hops, template, format="coo"))

    matrix = sp.coo_matrix(
        (np.concatenate([t.data for t in terms]),
         (np.concatenate([t.row for t in terms]).astype(np.int64),
          np.concatenate([t.col for t in terms]).astype(np.int64))),
        shape=(dim, dim),
    )
    return HeomLiouvillian(
        matrix=clean_sparse(matrix),
        hierarchy=space,
        d_s=d,
        model=model,
    )


def initial_state(rho_s: np.ndarray, hierarchy: HierarchySpace) -> HeomState:
    """Stacked state with the physical block set to ``rho_s`` and zeros elsewhere."""
    rho = np.asarray(rho_s, dtype=complex)
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > 1e-10:
        raise MatrixValidationError(f"initial state not Hermitian (defect {defect:.3e})")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > 1e-10:
        raise MatrixValidationError(f"initial state trace {trace} is not 1")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < -1e-10:
        raise MatrixValidationError(f"initial state has negative eigenvalue {min_eig:.3e}")
    d = rho.shape[0]
    vector = np.zeros(len(hierarchy) * d * d, dtype=complex)
    vector[: d * d] = vectorize(rho)
    return HeomState(vector, hierarchy, d)


def _integrate(matrix: sp.spmatrix, y0: np.ndarray, t_grid: Sequence[float]) -> np.ndarray:
    """Solve ``dy/dt = matrix @ y`` on an ascending grid from 0; one column per time.

    The one time integrator of the package, shared by the hierarchy and the
    embedding pictures, at :data:`INTEGRATION_RTOL` and :data:`INTEGRATION_ATOL`.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0 or abs(t[0]) > 0:
        raise MatrixValidationError("t_grid must start at 0")
    if t.size > 1 and np.any(np.diff(t) <= 0):
        raise MatrixValidationError("t_grid must be strictly ascending")
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape != (matrix.shape[0],):
        raise MatrixValidationError(
            f"state of shape {y0.shape} does not match the generator dimension {matrix.shape[0]}"
        )
    if t.size == 1:
        return y0.reshape(-1, 1).copy()
    from scipy.integrate import solve_ivp

    solution = solve_ivp(
        lambda _, y: matrix @ y,
        (0.0, float(t[-1])),
        y0,
        method="DOP853",
        t_eval=t,
        rtol=INTEGRATION_RTOL,
        atol=INTEGRATION_ATOL,
    )
    if not solution.success:
        raise StiffnessError(
            "adaptive integration failed (likely stiffness); consider spectral "
            f"propagation through the eigendecomposition: {solution.message}"
        )
    return solution.y


def propagate(
    liouvillian: HeomLiouvillian, state0: HeomState, t_grid: Sequence[float]
) -> List[HeomState]:
    """Solve the linear hierarchy dynamics on an ascending time grid from 0."""
    columns = _integrate(liouvillian.matrix, state0.vector, t_grid)
    return [
        HeomState(columns[:, i], liouvillian.hierarchy, liouvillian.d_s)
        for i in range(columns.shape[1])
    ]


def adjoint_permutation(hierarchy: HierarchySpace, d_s: int) -> np.ndarray:
    """The basis permutation ``P`` of the adjoint involution ``J v = conj(v[P])``.

    Block rank ``r`` goes to the rank of its swapped index and entry
    ``(i, j)`` to ``(j, i)``.  ``P`` is its own inverse.
    """
    indices = np.asarray(hierarchy.indices, dtype=np.int64).reshape(len(hierarchy), -1)
    swap = hierarchy.ranks(np.roll(indices, hierarchy.n_modes, axis=1))
    entries = np.arange(d_s)
    return (swap[:, None, None] * (d_s * d_s) + entries[None, None, :] * d_s
            + entries[None, :, None]).ravel()


def adjoint_state(state: HeomState) -> HeomState:
    """Swap the ``(n, m)`` and ``(m, n)`` blocks and conjugate-transpose each.

    The generator commutes with this involution, which is what makes its
    spectrum symmetric about the real axis.
    """
    return HeomState(np.conj(state.vector[adjoint_permutation(state.hierarchy, state.d_s)]),
                     state.hierarchy, state.d_s)


def export_matrix(liouvillian: HeomLiouvillian, path) -> None:
    """Write the assembled matrix in the text triplet format."""
    write_triplets(liouvillian.matrix, path)
