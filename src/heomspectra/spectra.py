"""Spectral analysis: ordered spectra, steady states, gaps, property checks.

Eigenvalues are ordered by ascending ``|Re|`` with ties broken by ascending
``|Im|`` and then non-negative imaginary part first.  The ordering is total
and deterministic; exact degeneracies are allowed (the strict ordering of the
ideal theory is relaxed to this tie-broken form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .builder import HeomLiouvillian, HeomState
from .errors import (
    DegenerateSteadyStateError,
    ExtractionError,
    MatrixValidationError,
    SizeBudgetError,
)
from .linalg import DENSE_EIG_LIMIT, Solvable, _nearest_order, as_dense, eig_dense
from .symmetry import (SectorDecomposition, _ordered_solve, decompose, leading_order,
                       sector_leading_eigs)

#: An eigenvalue is considered degenerate with the steady state below this.
ZERO_MULTIPLICITY_TOL = 1e-9
#: Eigenvectors count as decaying when |Re lambda| exceeds this.
DECAYING_RE_TOL = 1e-8

Target = Union[HeomLiouvillian, SectorDecomposition]


@dataclass
class PhysicalState:
    """A physical-block density matrix with its extraction diagnostics."""

    matrix: np.ndarray
    hermiticity_defect: float
    trace: float
    min_eigenvalue: float


@dataclass
class SpectralResult:
    """Ordered eigenvalues and right eigenvectors in full-space coordinates."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    liouvillian: Optional[HeomLiouvillian] = None
    residual_norms: Optional[np.ndarray] = None

    def state(self, i: int) -> HeomState:
        if self.liouvillian is None:
            raise MatrixValidationError("no hierarchy metadata attached")
        return HeomState(
            self.vectors[:, i], self.liouvillian.hierarchy, self.liouvillian.d_s
        )

    def physical_block(self, i: int) -> np.ndarray:
        return self.state(i).physical()


def spectrum(
    target: Target,
    charge: Optional[int] = 0,
    count: int = 6,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> SpectralResult:
    """Ordered spectrum of a generator or one of its symmetry sectors.

    The ``count`` eigenvalues nearest ``shift``, at most the dimension of the
    solved matrix (:meth:`linalg.Solvable.eigs`), in :func:`leading_order`.
    Those of a decomposition's sector come from :func:`sector_leading_eigs`,
    those of a generator (whose ``charge`` is ignored) from the same ordered
    solve of its ``solvable``; the vectors are embedded into full-space
    coordinates.
    ``charge=None`` with a decomposition gives the ``count`` nearest over all
    its sectors, read from the solves of its representative charges
    (:meth:`SectorDecomposition.representative_charges`) without a solve of
    the full generator.
    """
    if charge is None and isinstance(target, SectorDecomposition):
        return _spectrum_over_sectors(target, count, tol, seed, shift)
    if isinstance(target, SectorDecomposition):
        res = sector_leading_eigs(target, charge, count, tol=tol, seed=seed, shift=shift)
        vectors, liouv = target.embed(charge, res.right_vectors), target.liouvillian
    elif isinstance(target, HeomLiouvillian):
        res = _ordered_solve(target.solvable, count, tol, seed, shift)
        vectors, liouv = res.right_vectors, target
    else:
        raise MatrixValidationError(f"cannot analyze object of type {type(target)!r}")
    return SpectralResult(eigenvalues=res.eigenvalues, vectors=vectors, liouvillian=liouv,
                          residual_norms=res.residual_norms)


def _spectrum_over_sectors(
    decomp: SectorDecomposition, count: int, tol: float, seed: int, shift: complex
) -> SpectralResult:
    """The ``count`` eigenvalues nearest ``shift`` over all sectors of ``decomp``.

    Each representative charge is read through :func:`sector_leading_eigs`,
    so the solves are shared with ``spectrum(decomp, charge, count)``,
    :func:`steady_state` and ``ssb_pair`` on the same ``decomp``; one that
    mirrors a charge adds its conjugate values, with vectors
    ``conj(embedded[P])``, ``P`` the generator's involution.  The nearest
    are kept by the rule of ``eig_targeted``, which in exact arithmetic is
    the set a solve of the full generator returns; only their vectors are
    embedded.
    """
    solves = []
    for charge, mirror in decomp.representative_charges(shift).items():
        res = sector_leading_eigs(decomp, charge, count, tol=tol, seed=seed, shift=shift)
        for i, value in enumerate(res.eigenvalues):
            solves.append((value, charge, res, i, False))
            if mirror is not None:
                solves.append((np.conj(value), charge, res, i, True))
    values = np.array([value for value, *_ in solves])
    keep = _nearest_order(values, shift)[:count]
    keep = keep[leading_order(values[keep])]
    involution = decomp.liouvillian.solvable.involution
    vectors, residuals = [], []
    for _, charge, res, i, mirrored in (solves[j] for j in keep):
        vector = decomp.embed(charge, res.right_vectors[:, i])
        vectors.append(np.conj(vector[involution]) if mirrored else vector)
        residuals.append(res.residual_norms[i])
    return SpectralResult(eigenvalues=values[keep], vectors=np.column_stack(vectors),
                          liouvillian=decomp.liouvillian, residual_norms=np.array(residuals))


def distinct_from_leading(values: np.ndarray) -> np.ndarray:
    """The eigenvalues after the first that are not degenerate with it.

    ``values`` is in the canonical ordering; entries within
    :data:`ZERO_MULTIPLICITY_TOL` of ``values[0]`` are skipped and the rest
    keep their order.
    """
    values = np.asarray(values)
    rest = values[1:]
    return rest[np.abs(rest - values[0]) > ZERO_MULTIPLICITY_TOL]


def canonical_physical_state(block: np.ndarray) -> Tuple[PhysicalState, complex]:
    """Phase-fix, hermitize and trace-normalize a physical block.

    The global phase is fixed by making the trace real and positive (so the
    output is reproducible across solvers), the block is then hermitized and
    scaled to unit trace.  Returns the state and the complex factor the raw
    block was divided by.
    """
    trace = complex(np.trace(block))
    if abs(trace) < 1e-12 * max(1.0, float(np.abs(block).max())):
        raise ExtractionError(
            f"physical block has (near-)zero trace {trace}; cannot normalize"
        )
    normalized = block / trace
    defect = float(np.abs(normalized - normalized.conj().T).max())
    hermitian = (normalized + normalized.conj().T) / 2
    correction = float(np.trace(hermitian).real)
    hermitian = hermitian / correction
    min_eig = float(np.linalg.eigvalsh(hermitian).min())
    state = PhysicalState(
        matrix=hermitian,
        hermiticity_defect=defect,
        trace=float(np.trace(hermitian).real),
        min_eigenvalue=min_eig,
    )
    return state, trace * correction


def _null_vector(solvable: Solvable, count: int, tol: float, seed: int, shift: complex):
    """The null vector of ``solvable``'s matrix: the steady-state rule of both pictures.

    The eigenpairs nearest zero come from :meth:`linalg.Solvable.null`: the
    stored spectrum solve for ``max(count, 2)`` eigenpairs when there is
    one, otherwise inverse iteration, stored as well.  No eigenvalue within
    :data:`ZERO_MULTIPLICITY_TOL` of zero raises :class:`ExtractionError`,
    more than one :class:`DegenerateSteadyStateError`.
    """
    res = solvable.null(shift, max(count, 2), tol=tol, seed=seed)
    values = res.eigenvalues
    near_zero = np.flatnonzero(np.abs(values) < ZERO_MULTIPLICITY_TOL)
    if near_zero.size == 0:
        raise ExtractionError(f"no eigenvalue within {ZERO_MULTIPLICITY_TOL:.1e} of zero; "
                              f"closest: {values[np.argmin(np.abs(values))]}")
    if near_zero.size > 1:
        raise DegenerateSteadyStateError(values[near_zero].tolist())
    return res.right_vectors[:, near_zero[0]]


def steady_state(
    target: Target,
    charge: int = 0,
    count: int = 6,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> Tuple[PhysicalState, HeomState]:
    """Extract the stationary state from the null vector of the generator.

    A generator whose model declares a symmetry is solved in charge 0 of a
    new :func:`decompose` of it, which holds the trace covector and so the
    steady state; the state is embedded back into full-space coordinates.
    That solve is stored on the new decomposition and shared with no other
    call.  A caller that holds a decomposition should pass it instead: the
    null vector is then read from a charge-0 solve that ``spectrum(decomp)``
    or ``gap(decomp, charge=None)`` made with the same options.  A
    near-zero eigenvalue in another sector belongs to a traceless persistent
    mode, not to a second steady state, and is not looked for.  The zero
    eigenvalue of the solved matrix must be simple within
    :data:`ZERO_MULTIPLICITY_TOL`; a degenerate null space raises
    :class:`DegenerateSteadyStateError` listing the near-zero eigenvalues.
    ``charge`` is ignored for a generator; a sector of a decomposition other
    than charge 0 holds no trace, so it raises :class:`ExtractionError`
    before any solve.
    """
    liouv = target.liouvillian if isinstance(target, SectorDecomposition) else target
    if not isinstance(liouv, HeomLiouvillian):
        raise MatrixValidationError(f"cannot analyze object of type {type(target)!r}")
    if isinstance(target, SectorDecomposition) and charge != 0:
        raise ExtractionError(f"sector {charge} holds no trace, so no steady state; "
                              "the steady state lies in charge 0")
    if isinstance(target, HeomLiouvillian) and target.model.symmetry is not None:
        target = decompose(target)
    if isinstance(target, SectorDecomposition):
        vector = target.embed(0, _null_vector(target.solvable(0), count, tol, seed, shift))
    else:
        vector = _null_vector(liouv.solvable, count, tol, seed, shift)
    state = HeomState(vector, liouv.hierarchy, liouv.d_s)
    physical, factor = canonical_physical_state(state.physical())
    return physical, HeomState(vector / factor, liouv.hierarchy, liouv.d_s)


def gap(
    target: Target,
    charge: Optional[int] = 0,
    count: int = 6,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> complex:
    """First eigenvalue beyond the stationary one, in the canonical ordering.

    It is read from the ``max(count, 2)`` eigenvalues of :func:`spectrum`
    with the same arguments.  Eigenvalues degenerate with the leading one
    (within :data:`ZERO_MULTIPLICITY_TOL`) are skipped, so for a generator
    with an exactly degenerate null space the gap is the first genuinely
    decaying eigenvalue.  ``charge=None`` on a decomposition reads the gap over all
    sectors from the solves of its representative charges, without a solve
    of the full generator.
    """
    result = spectrum(target, charge=charge, count=max(count, 2), tol=tol, seed=seed,
                      shift=shift)
    if result.eigenvalues.size < 2:
        raise MatrixValidationError("a 1-dimensional generator or sector has no gap eigenvalue")
    rest = distinct_from_leading(result.eigenvalues)
    if rest.size == 0:
        raise ExtractionError(
            f"all {result.eigenvalues.size} computed eigenvalues are degenerate "
            "with the leading one; increase count"
        )
    return complex(rest[0])


def expectation(state, operator) -> Union[float, complex]:
    """``Tr[O rho]``; real (with asserted small imaginary part) for Hermitian O."""
    rho = state.matrix if isinstance(state, PhysicalState) else as_dense(state)
    op = as_dense(operator)
    if op.shape != rho.shape:
        raise MatrixValidationError(
            f"operator shape {op.shape} does not match state shape {rho.shape}"
        )
    value = complex(np.trace(op @ rho))
    hermitian = float(np.abs(op - op.conj().T).max()) <= 1e-12
    if hermitian:
        if abs(value.imag) > 1e-8:
            raise MatrixValidationError(
                f"expectation of a Hermitian operator has imaginary part {value.imag:.3e}"
            )
        return value.real
    return value


@dataclass
class PropertyReport:
    """Residuals of the structural spectral properties of a generator.

    Keys: ``conjugate_pairing`` (distance between the spectrum and its
    conjugate), ``trace_covector`` (left action of the physical trace),
    ``zero_eigenvalue`` (min ``|lambda|``), ``max_real_part`` and
    ``decaying_trace`` (largest physical-block trace among decaying
    eigenvectors).  The first three hold at every truncation order; the last
    two only asymptotically, so they are reported as diagnostics rather than
    enforced.  ``checked`` records whether each value came from the full
    spectrum or a sampled neighborhood of zero.
    """

    residuals: Dict[str, float] = field(default_factory=dict)
    checked: Dict[str, str] = field(default_factory=dict)


def _conjugate_pairing_distance(values: np.ndarray) -> float:
    """Largest distance from an eigenvalue to the conjugated multiset.

    Nearest-neighbor matching is robust against floating-point ties that
    break sorted matching; an eigenvalue without a conjugate partner is at
    least its asymmetry away from every conjugated value.
    """
    from scipy.spatial import cKDTree

    points = np.column_stack((values.real, values.imag))
    conj_points = np.column_stack((values.real, -values.imag))
    distances, _ = cKDTree(conj_points).query(points, k=1)
    return float(distances.max())


def check_properties(
    liouvillian: HeomLiouvillian,
    mode: str = "full",
    count: int = 12,
    tol: float = 1e-10,
    seed: int = 0,
    shift: complex = 0.0,
) -> PropertyReport:
    """Check the structural spectral properties of an assembled generator.

    ``mode='full'`` diagonalizes densely with :func:`linalg.eig_dense`
    (dimension permitting);
    ``mode='sampled'`` checks the trace covector exactly but evaluates the
    eigenvalue-based properties on the ``count`` eigenvalues nearest
    ``shift``.
    """
    if mode not in ("full", "sampled"):
        raise MatrixValidationError("mode must be 'full' or 'sampled'")
    report = PropertyReport()
    report.residuals["trace_covector"] = liouvillian.trace_residual()
    report.checked["trace_covector"] = "full"

    if mode == "full":
        if liouvillian.dim > DENSE_EIG_LIMIT:
            raise SizeBudgetError(
                f"full property check needs a dense-solvable dimension, got {liouvillian.dim}"
            )
        # The residuals below do not depend on the order of the eigenvalues.
        res = eig_dense(liouvillian.matrix)
        values, vectors = res.eigenvalues, res.right_vectors
    else:
        res = spectrum(liouvillian, count=count, tol=tol, seed=seed, shift=shift)
        values, vectors = res.eigenvalues, res.vectors

    report.residuals["conjugate_pairing"] = _conjugate_pairing_distance(values)
    report.residuals["zero_eigenvalue"] = float(np.abs(values).min())
    report.residuals["max_real_part"] = float(values.real.max())
    w = liouvillian.trace_covector()
    traces = np.abs(np.conj(w) @ vectors)
    decaying = np.abs(values.real) > DECAYING_RE_TOL
    report.residuals["decaying_trace"] = (
        float(traces[decaying].max()) if decaying.any() else 0.0
    )
    for key in ("conjugate_pairing", "zero_eigenvalue", "max_real_part", "decaying_trace"):
        report.checked[key] = mode
    return report
