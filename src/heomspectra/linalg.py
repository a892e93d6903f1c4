"""Dense and sparse complex linear algebra primitives.

Conventions
-----------
Vectorization is row major: entry ``rho[i, j]`` of a ``rows x cols`` matrix
lands at position ``i * cols + j``.  Under this convention left/right
multiplication vectorizes as ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    EigenConvergenceError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    SingularShiftError,
    SizeBudgetError,
    SymmetryViolationError,
)

log = logging.getLogger(__name__)

MatrixLike = Union[np.ndarray, sp.spmatrix]

#: Largest dimension accepted by the full dense eigensolver.
DENSE_EIG_LIMIT = 6000
#: Up to this dimension targeted solves use the dense solver.  The crossover
#: measured on lmg generators and their parity sectors (count 6, 2 cores):
#: dense 2.0 vs sparse 4.5 ms at n=37, 7.1 vs 5.5 ms at n=44, 300 vs 38 ms
#: at n=363.
TARGETED_DENSE_FALLBACK = 40
#: Explicit zeros below this magnitude are purged from sparse matrices.
SPARSE_PRUNE_TOL = 1e-15
#: Condition computation for eigenvector matrices is skipped above this size.
_CONDITION_LIMIT = 2000
#: Block solves after which the inverse iteration of :meth:`Solvable.null` gives up.
NULL_ITERATION_LIMIT = 100
#: Fills of the Krylov basis after which the shift-invert iteration of
#: :func:`eig_targeted` gives up; each fill after the first starts from a
#: thick restart, so 1 allows none.
KRYLOV_CYCLE_LIMIT = 100
#: LU entries whose solve costs about as much as the eigensolve of an m x m
#: matrix, per m**3: the stop test of :func:`_krylov_schur` against one
#: application of the inverse, measured 4 (real) to 6 (complex) on lmg,
#: z2_lmg and two_mode_dicke sectors with m = 36 and 48 (2 cores), all on
#: SuperLU's LU, whose entries are those of its factors.  A level-set LU
#: counts its dense diagonal factors and sparse couplings, and a solve reads
#: the factors twice.  It serves dimensions from :data:`LEVEL_LU_MIN_DIM`,
#: whose LUs hold millions of entries (4.17M for the lmg N=20 sector),
#: against 5 * 48**3 = 0.55M, so there the test follows every application.
_STOP_TEST_WORK = 5
#: Dimension from which :func:`_refined_inverse` factorizes with the
#: level-set block LU (:class:`_LevelSetLU`) instead of SuperLU.  The
#: crossover, measured with one BLAS thread by count-6 eigensolves at 0
#: (SuperLU against level sets): lmg parity sector 0 gains from about 3000
#: (3040: 0.18 against 0.16 s; 5200: 0.49-0.58 against 0.30-0.41 s), while
#: the complex U(1) charges of two_mode_dicke (0.6 g_c) lose below about
#: 4500 (N=14, every charge at most 4042, summed: 3.4-3.8 against 5.0-5.5
#: s) and gain above it (N=18, charges 1-3 of 5060-5332: 1.69-1.76 against
#: 1.21-1.31 s).
LEVEL_LU_MIN_DIM = 5000
#: Fewest nodes in a block of the level-set LU, bar the last: fewer, smaller
#: blocks would spend more time in Python per solve than in LAPACK.
_LEVEL_BLOCK = 32
#: Largest tolerated magnitude of an entry a symmetry forbids: of one
#: connecting different charges, and, relative to the largest entry, of the
#: imaginary part of an entry of a real form (:func:`_real_form`).
OFF_SECTOR_TOL = 1e-12
#: Eigenvalues of a PSD matrix down to minus this are round-off, clipped to 0.
PSD_CLIP_TOL = 1e-8


def as_dense(a: MatrixLike) -> np.ndarray:
    """Return ``a`` as a 2d complex array, rejecting NaN/Inf entries."""
    if sp.issparse(a):
        a = a.toarray()
    out = np.asarray(a, dtype=complex)
    if out.ndim != 2:
        raise MatrixValidationError(f"expected a 2d matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MatrixValidationError("matrix contains NaN or Inf entries")
    return out


def clean_sparse(a: MatrixLike) -> sp.csr_matrix:
    """Canonicalize to CSR: sum duplicates, purge tiny entries, sort indices."""
    m = sp.csr_matrix(a, dtype=complex)
    m.sum_duplicates()
    if m.nnz:
        mask = np.abs(m.data) < SPARSE_PRUNE_TOL
        if mask.any():
            m.data[mask] = 0.0
            m.eliminate_zeros()
    m.sort_indices()
    return m


def kron(a: MatrixLike, b: MatrixLike) -> sp.csr_matrix:
    """Kronecker product returned as canonical CSR."""
    ra, ca = a.shape
    rb, cb = b.shape
    if ra * rb > np.iinfo(np.int64).max or ca * cb > np.iinfo(np.int64).max:
        raise SizeBudgetError("Kronecker product exceeds the index range")
    return clean_sparse(sp.kron(sp.csr_matrix(a, dtype=complex),
                                sp.csr_matrix(b, dtype=complex), format="csr"))


def hamiltonian_superoperator(h: MatrixLike) -> sp.csr_matrix:
    """``rho -> -1j [h, rho]`` on the row-major vectorization: ``-1j (h (x) 1 - 1 (x) h^T)``."""
    identity = sp.identity(h.shape[0], dtype=complex, format="csr")
    return -1j * (kron(h, identity) - kron(identity, h.T))


def vectorize(rho: MatrixLike) -> np.ndarray:
    """Row-major vectorization of a matrix."""
    return as_dense(rho).ravel(order="C")


def devectorize(v: np.ndarray, rows: int, cols: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    cols = rows if cols is None else cols
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != rows * cols:
        raise MatrixValidationError(
            f"vector of length {v.size} cannot fill a {rows}x{cols} matrix"
        )
    return v.reshape(rows, cols).copy()


@dataclass
class EigResult:
    """Eigenvalues with unit-norm right eigenvectors.

    ``residual_norms[i]`` is ``||A v_i - lambda_i v_i||_2``.
    ``vector_condition`` is the 2-norm condition number of the eigenvector
    matrix; large values flag near-parallel eigenvectors (defective input).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    residual_norms: np.ndarray
    vector_condition: Optional[float] = None


def _normalize_columns(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    return v / norms


def _residuals(a: MatrixLike, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a @ vectors - vectors * values, axis=0)


def eig_dense(a: MatrixLike) -> EigResult:
    """Full spectrum of a square matrix with normalized eigenvectors."""
    m = as_dense(a)
    n, nc = m.shape
    if n != nc:
        raise MatrixValidationError("eig_dense requires a square matrix")
    if n > DENSE_EIG_LIMIT:
        raise SizeBudgetError(
            f"dimension {n} exceeds the dense eigensolver limit {DENSE_EIG_LIMIT}"
        )
    try:
        values, right = sla.eig(m)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigenConvergenceError(f"dense eigensolver failed: {exc}") from exc
    right = _normalize_columns(right)
    condition = None
    if n <= _CONDITION_LIMIT:
        condition = float(np.linalg.cond(right))
    return EigResult(
        eigenvalues=values,
        right_vectors=right,
        residual_norms=_residuals(m, values, right),
        vector_condition=condition,
    )


def _nearest_order(values: np.ndarray, shift: complex) -> np.ndarray:
    """Deterministic ordering by distance to ``shift``.

    Distances and real parts are compared to 10 decimals, so of a conjugate
    pair at a real shift the member with negative imaginary part comes first,
    not the one round-off puts nearer.
    """
    return np.lexsort((values.imag, np.round(values.real, 10),
                       np.round(np.abs(values - shift), 10)))


def _level_sets(pattern: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
    """Breadth-first level sets of a symmetric sparsity pattern: a node order and the level starts.

    Each connected component is walked in turn, in the order of its lowest
    node, from a pseudo-peripheral start (George & Liu, 1981): begin at a
    node of least degree, and while a node of least degree in the last
    level has the larger eccentricity, begin again from it.  Every
    component takes these steps at once, so each step is one multi-source
    breadth-first search in compiled code.  Ties go to the lower index.
    In the order returned, the nodes of each level are contiguous and
    ascending, and an edge joins nodes of one level or of adjacent levels
    of one component.
    """
    from scipy.sparse import csgraph  # loaded only by this path

    n = pattern.shape[0]
    components, labels = csgraph.connected_components(pattern, directed=False)
    degree, index = np.diff(pattern.indptr), np.arange(n)

    def search(ranking):  # distances from the first node of each component in ``ranking``
        starts = ranking[np.flatnonzero(np.r_[True, np.diff(labels[ranking]) != 0])]
        distance = csgraph.dijkstra(pattern, directed=False, indices=starts, unweighted=True,
                                    min_only=True)
        eccentricity = np.zeros(components)
        np.maximum.at(eccentricity, labels, distance)
        return distance, eccentricity

    distance, eccentricity = search(np.lexsort((index, degree, labels)))
    while True:
        farther, further = search(np.lexsort((index, degree, -distance, labels)))
        longer = further > eccentricity
        if not longer.any():
            break
        distance = np.where(longer[labels], farther, distance)
        eccentricity = np.where(longer, further, eccentricity)
    order = np.lexsort((index, distance, labels))
    level = labels[order] * (n + 1) + distance[order].astype(np.int64)
    return order, np.flatnonzero(np.r_[True, np.diff(level) != 0])


class _LevelSetLU:
    """A block-tridiagonal LU of a square sparse matrix in breadth-first level-set order.

    The order is that of :func:`_level_sets` on the pattern of ``A + A^T``,
    in which ``A`` is block tridiagonal when consecutive levels are merged
    into blocks, here of at least :data:`_LEVEL_BLOCK` nodes each (the last
    block may hold fewer).  With ``D_k`` the diagonal block ``k`` and
    ``L_k`` and ``U_k`` its couplings to block ``k - 1`` below and above
    the diagonal, the Schur complement ``S_k = D_k - L_k S_{k-1}^-1 U_k`` is
    dense and factorized by LAPACK ``getrf`` with partial pivoting inside
    the block, real or complex as ``A`` is; the couplings stay sparse.  A solve is one forward
    and one backward block sweep.  ``nnz`` counts the entries stored, the
    dense factors and the couplings; a solve reads the factors twice.  A
    zero pivot raises :class:`RuntimeError`, as SuperLU does.
    """

    def __init__(self, a: sp.spmatrix):
        a = sp.csr_matrix(a)
        n = a.shape[0]
        structure = sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
        self.order, starts = _level_sets((structure + structure.T).tocsr())
        # Cut at the first level that starts _LEVEL_BLOCK nodes or more past
        # the block's start: one step per block, however many levels.
        edges = np.append(starts, n)
        following = np.minimum(np.searchsorted(edges, edges[:-1] + _LEVEL_BLOCK), starts.size)
        cuts = [0]
        while cuts[-1] < starts.size:
            cuts.append(int(following[cuts[-1]]))
        if len(cuts) > 2 and edges[cuts[-1]] - edges[cuts[-2]] < _LEVEL_BLOCK:
            del cuts[-2]  # a short last block joins the one before it
        self.bounds = [int(b) for b in edges[cuts]]
        self.dtype = a.dtype
        permuted = a[self.order][:, self.order]
        getrf, self._getrs = sla.get_lapack_funcs(("getrf", "getrs"), dtype=a.dtype)
        self.factors, self.lower, self.upper = [], [], []
        for k, (start, stop) in enumerate(zip(self.bounds, self.bounds[1:])):
            rows = permuted[start:stop]
            schur = rows[:, start:stop].toarray()
            if k:
                self.lower.append(rows[:, self.bounds[k - 1]:start])
                coupling = self._getrs(*self.factors[-1], self.upper[-1].toarray())[0]
                schur -= self.lower[-1] @ coupling
            lu, pivots, info = getrf(schur, overwrite_a=True)
            if info > 0:
                raise RuntimeError(f"zero pivot in block {k} of the level-set LU")
            self.factors.append((lu, pivots))
            if k + 2 < len(self.bounds):
                self.upper.append(rows[:, stop:self.bounds[k + 2]])
        self.nnz = (sum(lu.size for lu, _ in self.factors)
                    + sum(block.nnz for block in self.lower + self.upper))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b`` for a vector or the columns of a matrix ``b``."""
        bounds, getrs = self.bounds, self._getrs
        permuted = np.asarray(b)[self.order]
        y = np.empty(permuted.shape, dtype=np.result_type(permuted, self.dtype))
        for k, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            rhs = permuted[start:stop]
            if k:
                rhs = rhs - self.lower[k - 1] @ y[bounds[k - 1]:start]
            y[start:stop] = getrs(*self.factors[k], rhs)[0]
        for k in range(len(self.upper) - 1, -1, -1):
            start, stop = bounds[k], bounds[k + 1]
            y[start:stop] -= getrs(*self.factors[k], self.upper[k] @ y[stop:bounds[k + 2]])[0]
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _refined_inverse(a: sp.spmatrix, sigma: complex) -> Tuple[spla.LinearOperator, int]:
    """The operator ``(a - sigma I)^-1`` from one sparse LU, and the number of entries it stores.

    The LU and the operator have the dtype of ``a - sigma I``, so a real
    matrix at a real ``sigma`` is factorized in real arithmetic.  Below
    :data:`LEVEL_LU_MIN_DIM` the LU is SuperLU's, ordered by minimum degree
    on ``A^T + A`` with diagonal pivots (symmetric mode), which roughly
    halves the fill of SciPy's default column ordering on HEOM generators,
    whose sparsity pattern is nearly symmetric.  From that dimension on it
    is the block-tridiagonal LU of :class:`_LevelSetLU`, which factorizes
    dense blocks with LAPACK where SuperLU works at BLAS-2 speed: on lmg
    N=20, k_max=7 parity sector 0 (dimension 7936, real form) 0.24 s and
    4.17M entries against 0.82 s and 5.53M.  Both factorizations lose
    accuracy to a pivot order fixed in advance, so each solve takes one step
    of iterative refinement against the shifted matrix.  The number of
    entries the LU stores measures the work of one solve.  A zero pivot
    raises :class:`RuntimeError`.
    """
    shifted = (a - sigma * sp.identity(a.shape[0], dtype=a.dtype, format="csr")).tocsc()
    if shifted.shape[0] >= LEVEL_LU_MIN_DIM:
        lu = _LevelSetLU(shifted)
    else:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu.solve(b)
        x += lu.solve(b - shifted @ x)
        return x

    return (spla.LinearOperator(shifted.shape, matvec=solve, matmat=solve, dtype=shifted.dtype),
            lu.nnz)


def _square_sparse(a: MatrixLike, tol: float) -> Tuple[sp.csr_matrix, float]:
    """``a`` as CSR with its largest entry, the scale of a shift's displacement.

    A non-square matrix, one with a NaN or Inf entry or a ``tol`` that is
    not positive raises :class:`MatrixValidationError`.
    """
    if tol <= 0:
        raise MatrixValidationError("tol must be > 0")
    m = clean_sparse(a) if not sp.issparse(a) else a.tocsr().astype(complex, copy=False)
    if m.shape[0] != m.shape[1]:
        raise MatrixValidationError(f"a targeted solve requires a square matrix, got {m.shape}")
    if not np.isfinite(m.data).all():
        raise MatrixValidationError("matrix contains NaN or Inf entries")
    return m, float(np.abs(m.data).max()) if m.nnz else 1.0


def _real_form(m: sp.csr_matrix, involution: np.ndarray,
               scale: float) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """The real matrix ``B = T^H m T`` of ``m`` under an adjoint involution, and ``T``.

    ``involution`` is the basis permutation ``P`` of an antilinear involution
    ``J v = conj(v[P])`` (:func:`builder.adjoint_permutation`).  The columns
    of the unitary ``T`` are ``J``-invariant: ``e_p`` for each fixed point
    ``p`` of ``P`` and, for each pair ``p < Pp``, ``(e_p + e_Pp) / sqrt 2``
    and ``i (e_p - e_Pp) / sqrt 2``.  The columns follow the basis order of
    each fixed point and of each pair's first member, with a pair's two
    columns side by side.  That interleaving keeps SuperLU's LU of ``B``
    near the fill of ``m``'s: measured on lmg N=20, k_max=7 parity sector 0,
    factorized by SuperLU at every size, it is 5.53M real against 5.06M
    complex, and 6.17M when each pair's columns sit at ``p`` and ``Pp``
    instead.  That sector (dimension 7936) is above :data:`LEVEL_LU_MIN_DIM`
    and so takes the level-set LU, which orders the basis itself: its LU of ``B``
    holds 4.17M entries against 2.69M of ``m``, since a pair joins the
    levels of ``p`` and ``Pp``, yet real arithmetic keeps it the faster
    one (a count-6 solve at 0 took 0.64-0.87 s against 0.74-1.02 s).
    ``B`` is real exactly when ``m`` commutes with
    ``J``: an imaginary part above ``OFF_SECTOR_TOL * scale`` raises
    :class:`SymmetryViolationError`, and a ``P`` that is not an involution of
    the basis raises :class:`MatrixValidationError`.
    """
    n = m.shape[0]
    index = np.arange(n)
    partner = np.asarray(involution)
    if (partner.shape != (n,) or (n and (partner.min() < 0 or partner.max() >= n))
            or not np.array_equal(partner[partner], index)):
        raise MatrixValidationError(f"the involution is no self-inverse permutation of {n} entries")
    # Column e of ``unordered`` is e_e, or the pair vector with e as its first
    # (p = e) or second (Pp = e) member.
    first, paired = partner > index, np.flatnonzero(partner != index)
    diagonal = np.where(partner == index, 1.0, np.where(first, np.sqrt(0.5), -1j * np.sqrt(0.5)))
    partner_entry = np.where(first, np.sqrt(0.5), 1j * np.sqrt(0.5))[paired]
    unordered = sp.csc_matrix((np.concatenate((diagonal, partner_entry)),
                               (np.concatenate((index, partner[paired])),
                                np.concatenate((index, paired)))), shape=(n, n))
    t = unordered[:, np.lexsort((index, np.minimum(index, partner)))].tocsr()
    b = (t.conj().T @ m @ t).tocsr()
    imaginary = np.abs(b.data.imag)
    if imaginary.size and imaginary.max() > OFF_SECTOR_TOL * scale:
        worst = int(np.argmax(imaginary))
        row = int(np.searchsorted(b.indptr, worst, side="right")) - 1
        raise SymmetryViolationError(float(imaginary[worst]), row, int(b.indices[worst]))
    real = sp.csr_matrix((b.data.real, b.indices, b.indptr), shape=b.shape)
    real.eliminate_zeros()
    return real, t


def _working_form(m: sp.csr_matrix, shift: complex, involution: Optional[np.ndarray],
                  scale: float) -> Tuple[sp.csr_matrix, Optional[sp.csr_matrix], complex]:
    """The matrix a sparse solve iterates on, the map of its vectors to ``m``'s basis, the shift.

    With an ``involution`` and a real ``shift`` that is :func:`_real_form`
    and the real shift; otherwise ``m`` itself, no map and ``shift``.
    """
    if involution is None or np.imag(shift) != 0:
        return m, None, shift
    return (*_real_form(m, involution, scale), float(np.real(shift)))


def _start_block(seed: int, shape, dtype) -> np.ndarray:
    """Standard normal start vectors from ``seed``, complex unless ``dtype`` is real."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        block = block + 1j * rng.standard_normal(shape)
    return block


def _shift_inverse(m: sp.csr_matrix, shift: complex, sigma: complex,
                   scale: float) -> Tuple[spla.LinearOperator, int]:
    """:func:`_refined_inverse` at ``sigma``; a zero pivot raises :class:`SingularShiftError`."""
    try:
        return _refined_inverse(m, sigma)
    except RuntimeError as exc:  # a zero pivot
        raise SingularShiftError(shift, shift + max(1e-12, 1e-9 * scale)) from exc


def eig_targeted(
    a: MatrixLike,
    shift: complex,
    count: int,
    tol: float = 1e-10,
    seed: int = 0,
    involution: Optional[np.ndarray] = None,
) -> EigResult:
    """The ``count`` eigenvalues nearest ``shift`` of a sparse square matrix.

    Up to :data:`TARGETED_DENSE_FALLBACK` (or when nearly the whole spectrum
    is asked for) the full dense spectrum is computed and filtered.  Above it
    one shift-invert Krylov-Schur iteration (:func:`_krylov_schur`) runs on
    the refined LU of :func:`_refined_inverse` at a slightly displaced
    shift: SuperLU's minimum-degree LU below :data:`LEVEL_LU_MIN_DIM`, the
    level-set block LU from it on.  It stops at the first test at which the ``count``
    Ritz pairs nearest ``shift`` all have a residual on ``a`` within
    ``min(tol, 1e-10) * 1e-2``, read from the Arnoldi relation; the test
    follows every application of the inverse whose LU costs more than the
    test, and is spaced out on smaller ones.  With ``ask = min(count + 4, n - 2)``, its basis holds at most
    ``ncv + 1`` vectors, ``ncv = min(n, max(2 * ask + 12, 36))``, and when
    it is full a thick restart keeps the Schur vectors of the ``ask`` Ritz
    values nearest ``shift``.  The residual norms of the Ritz vectors are
    then computed and checked against ``tol``, and ``vector_condition`` is
    the condition number of their coefficients in the orthonormal basis,
    which equals that of the vectors.  There is no retry: each failure
    raises at once.  Given the permutation of an adjoint
    ``involution`` that commutes with ``a`` and a real ``shift``, the LU and
    the iteration are those of the real form of :func:`_real_form`, whose
    vectors are mapped back to the basis of ``a`` before the residual check;
    a form that is not real raises :class:`SymmetryViolationError`.

    Raises
    ------
    SingularShiftError
        If the factorization hits a zero pivot; the error carries a suggested
        perturbed shift, to be set as ``solver.shift``.
    EigenConvergenceError
        If the iteration does not converge in :data:`KRYLOV_CYCLE_LIMIT`
        fills of its basis or residuals exceed ``tol``; the error carries the
        ``count`` Ritz values nearest ``shift``.
    """
    if count < 1:
        raise MatrixValidationError("count must be >= 1")
    m, scale = _square_sparse(a, tol)
    n = m.shape[0]
    if count > n:
        raise MatrixValidationError(f"cannot request {count} eigenvalues of a {n}x{n} matrix")
    if n <= TARGETED_DENSE_FALLBACK or count > n - 2:
        log.debug("eig_targeted: dense solve of dimension %d (fallback limit %d, count %d)",
                  n, TARGETED_DENSE_FALLBACK, count)
        full = eig_dense(m.toarray())
        order = _nearest_order(full.eigenvalues, shift)[:count]
        values = full.eigenvalues[order]
        vectors = full.right_vectors[:, order]
        return EigResult(
            eigenvalues=values,
            right_vectors=vectors,
            residual_norms=full.residual_norms[order],
            vector_condition=float(np.linalg.cond(vectors)) if count > 1 else 1.0,
        )

    form, to_original, form_shift = _working_form(m, shift, involution, scale)
    ask = min(count + 4, n - 2)
    # A shift sitting exactly on an eigenvalue (the usual case when targeting
    # the stationary state at 0) poisons the factorization and yields spurious
    # Ritz pairs, so the factorization uses a slightly displaced shift; the
    # eigenvalues nearest the *requested* shift are then selected from the
    # Ritz set, so the displacement does not change the result.
    sigma = form_shift - 1e-3 * scale
    opinv, fill = _shift_inverse(form, shift, sigma, scale)
    values, coefficients, vectors = _krylov_schur(
        form, opinv, fill, sigma, shift, count, ask, ncv=min(n, max(2 * ask + 12, 36)),
        start=_start_block(seed, n, form.dtype), target=min(tol, 1e-10) * 1e-2)
    if to_original is not None:
        vectors = to_original @ vectors
    vectors = _normalize_columns(vectors)
    residuals = _residuals(m, values, vectors)
    if not np.all(residuals <= tol):
        raise EigenConvergenceError(
            f"targeted eigensolve at sigma={sigma} failed to reach tol {tol:.1e}: "
            f"residuals up to {residuals.max():.3e}",
            ritz_values=values,
        )
    # The basis is orthonormal and the map to ``m``'s basis unitary, so the
    # vectors have the singular values of their coefficients.
    return EigResult(
        eigenvalues=values,
        right_vectors=vectors,
        residual_norms=residuals,
        vector_condition=(float(np.linalg.cond(_normalize_columns(coefficients)))
                          if count > 1 else 1.0),
    )


def _orthogonalize(gemv, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from ``w``, in place, its components along the orthonormal ``basis``.

    Two passes of classical Gram-Schmidt; returns the coefficients removed.
    """
    coefficients = gemv(1.0, basis, w, trans=2)
    gemv(-1.0, basis, coefficients, beta=1.0, y=w, overwrite_y=True)
    again = gemv(1.0, basis, w, trans=2)
    gemv(-1.0, basis, again, beta=1.0, y=w, overwrite_y=True)
    return coefficients + again


def _schur_values(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real or complex Schur form in the order of its diagonal."""
    values = np.diag(t).astype(complex)
    if not np.iscomplexobj(t):
        for i in np.flatnonzero(np.diag(t, -1)):  # the 2x2 block of a conjugate pair
            values[i:i + 2] = np.linalg.eigvals(t[i:i + 2, i:i + 2])
    return values


def _krylov_schur(form: sp.csr_matrix, opinv: spla.LinearOperator, fill: int, sigma: complex,
                  shift: complex, count: int, ask: int, ncv: int, start: np.ndarray,
                  target: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``count`` Ritz pairs nearest ``shift`` of ``OP = (form - sigma)^-1``.

    Shift-invert Arnoldi on ``opinv`` from ``start`` keeps ``OP V = V H +
    f e_m^T`` with ``V`` orthonormal (two passes of classical Gram-Schmidt).
    A Ritz pair ``(theta, V y)`` of ``H`` is an eigenpair of ``form`` at
    ``sigma + 1 / theta`` with residual ``||(form - sigma) f|| |e_m^T y| /
    |theta|``, so the iteration stops once the ``count`` Ritz values nearest
    ``shift`` all have that residual within ``target``.  The test, an
    eigensolve of the m x m ``H``, is made when the basis is full and after
    each application of ``opinv`` (whose LU holds ``fill`` entries) at which
    the applications since the last test have done the work of one test,
    :data:`_STOP_TEST_WORK` ``* m**3`` LU entries: after every application
    on large sectors, where an application costs more than the test, and
    less often on small ones.  When the basis reaches ``ncv`` vectors, a
    Krylov-Schur restart keeps the Schur vectors of ``H`` of the ``ask``
    Ritz values nearest ``shift`` (a conjugate pair of a real ``form``
    whole) and goes on from them.  The basis holds at most ``ncv + 1`` vectors.  After
    :data:`KRYLOV_CYCLE_LIMIT` fills of the basis it raises
    :class:`EigenConvergenceError` with the ``count`` nearest Ritz values.
    Returns the values, their unit coefficient vectors ``y`` and the Ritz
    vectors ``V y``, nearest ``shift`` first.
    """
    n = form.shape[0]
    basis = np.empty((n, ncv + 1), dtype=form.dtype, order="F")
    rayleigh = np.zeros((ncv + 1, ncv), dtype=form.dtype)  # H, with f's norm below it
    gemv = sla.get_blas_funcs("gemv", (basis,))
    basis[:, 0] = start / np.linalg.norm(start)
    kept = pending = 0  # LU entries applied since the last test
    for _ in range(KRYLOV_CYCLE_LIMIT):
        for j in range(kept, ncv):
            w = opinv.matvec(basis[:, j])
            pending += fill
            size = np.linalg.norm(w)
            rayleigh[:j + 1, j] = _orthogonalize(gemv, basis[:, :j + 1], w)
            beta = rayleigh[j + 1, j] = np.linalg.norm(w)
            m = j + 1
            if m >= count and (pending >= _STOP_TEST_WORK * m**3 or m == ncv):
                pending = 0
                theta, coefficients = sla.eig(rayleigh[:m, :m], check_finite=False)
                values = sigma + 1.0 / theta
                nearest = _nearest_order(values, shift)[:count]
                estimates = (np.linalg.norm(form @ w - sigma * w)
                             * np.abs(coefficients[m - 1, nearest]) / np.abs(theta[nearest]))
                if np.all(estimates <= target):
                    chosen = coefficients[:, nearest]
                    return values[nearest], chosen, basis[:, :m] @ chosen
            if beta <= 1e-12 * size and m < n:
                # OP maps the basis into itself: go on from a new direction.
                rayleigh[j + 1, j] = 0.0
                w = np.random.default_rng(m).standard_normal(n).astype(form.dtype)
                _orthogonalize(gemv, basis[:, :m], w)
                beta = np.linalg.norm(w)
            basis[:, j + 1] = w / beta
        # Thick restart: OP (V Q_k) = (V Q_k) T_k + f e_m^T Q_k for the
        # leading k columns of the reordered Schur form H = Q T Q^H.  A swap
        # that fails leaves a valid Schur form, only partly reordered.
        t, q = sla.schur(rayleigh[:ncv, :ncv],
                         output="complex" if np.iscomplexobj(rayleigh) else "real")
        select = np.zeros(ncv, dtype=np.int32)
        select[_nearest_order(sigma + 1.0 / _schur_values(t), shift)[:ask]] = 1
        reordered = sla.get_lapack_funcs("trsen", (t,))(select, t, q, job="N")
        t, q, kept = reordered[0], reordered[1], reordered[-4]
        basis[:, :kept] = basis[:, :ncv] @ q[:, :kept]
        basis[:, kept] = basis[:, ncv]
        couplings = rayleigh[ncv, ncv - 1] * q[ncv - 1, :kept]
        rayleigh[:] = 0.0
        rayleigh[:kept, :kept] = t[:kept, :kept]
        rayleigh[kept, :kept] = couplings
    raise EigenConvergenceError(
        f"shift-invert iteration at sigma={sigma} did not converge in "
        f"{KRYLOV_CYCLE_LIMIT} fills of its {ncv}-vector basis",
        ritz_values=values[nearest],
    )


def _inverse_iteration(a: MatrixLike, shift: complex, tol: float, seed: int,
                       involution: Optional[np.ndarray]) -> EigResult:
    """The two Ritz pairs nearest zero of block inverse iteration on one LU.

    The LU is of ``a - sigma`` at ``sigma = shift - 1e-6 * scale``, a
    thousand times nearer the shift than that of :func:`eig_targeted`: the
    vector nearest zero converges by the displacement over the distance to
    the third eigenvalue per solve, so a displacement well below the gap
    takes a few solves.  A block of two vectors, started from ``seed``, is
    solved and orthonormalized, and a 2x2 Rayleigh-Ritz step gives its Ritz
    pairs, nearest zero first.  The iteration stops once the first has a
    residual within ``min(tol, 1e-10) * 1e-2``, the stop target of the
    iteration of :func:`eig_targeted`, or within ``tol`` and no smaller than after
    the previous solve, where round-off holds it.  The second pair need not
    converge; its Ritz value is near zero only when the null space is
    degenerate.  With an ``involution`` and a real ``shift`` the LU, the
    block and the iteration are those of the real form, as in
    :func:`eig_targeted`, and the returned vectors and residuals are those
    of ``a``.
    """
    m, scale = _square_sparse(a, tol)
    n = m.shape[0]
    form, to_original, form_shift = _working_form(m, shift, involution, scale)
    sigma = form_shift - 1e-6 * scale
    opinv, _ = _shift_inverse(form, shift, sigma, scale)
    basis = _start_block(seed, (n, 2), form.dtype)
    target, previous = min(tol, 1e-10) * 1e-2, np.inf
    for _ in range(NULL_ITERATION_LIMIT):
        solved = opinv.matmat(basis)
        if previous <= tol:
            # Near convergence, one more refinement step than the operator
            # takes: without it the LU's round-off held the residual near
            # 5e-12 on the lmg N=20, k_max=7 parity sector 0.
            solved += opinv.matmat(basis - (form @ solved - sigma * solved))
        basis, _ = np.linalg.qr(solved)
        image = form @ basis
        values, coefficients = np.linalg.eig(basis.conj().T @ image)
        order = _nearest_order(values, 0.0)
        values, coefficients = values[order], coefficients[:, order]
        vectors = basis @ coefficients
        residuals = np.linalg.norm(image @ coefficients - vectors * values, axis=0)
        if residuals[0] <= target or previous <= residuals[0] <= tol:
            if to_original is not None:
                vectors = to_original @ vectors
                residuals = _residuals(m, values, vectors)
            return EigResult(values, vectors, residuals, float(np.linalg.cond(vectors)))
        previous = residuals[0]
    raise EigenConvergenceError(
        f"inverse iteration at sigma={sigma} did not reach a residual of {target:.1e} "
        f"in {NULL_ITERATION_LIMIT} solves: {residuals[0]:.3e}",
        ritz_values=values,
    )


@dataclass
class Solvable:
    """A matrix solved by targeted eigensolves, its adjoint involution and its solves.

    ``involution`` is the basis permutation of an adjoint involution that
    commutes with ``matrix`` (:func:`builder.adjoint_permutation`), or None;
    with it, solves at a real shift run in real arithmetic
    (:func:`eig_targeted`).  Each solve is stored in a private memo under
    ``(shift, count, tol, seed)``, with ``count`` clipped to the dimension,
    so calls asking for the same key share one solve.  A failed solve raises
    and stores nothing.  A stored result is returned as is, so callers must
    index rather than modify its arrays, and ``matrix`` must not change once
    it has been solved.
    """

    matrix: sp.csr_matrix
    involution: Optional[np.ndarray] = None
    _solves: Dict[tuple, EigResult] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)

    def _key(self, shift: complex, count: int, tol: float, seed: int) -> tuple:
        return shift, min(count, self.matrix.shape[0]), tol, seed

    def _once(self, key: tuple, solve) -> EigResult:
        if key in self._solves:
            log.debug("reusing the solve for key %s", key)
        else:
            self._solves[key] = solve()
        return self._solves[key]

    def eigs(self, shift: complex, count: int, tol: float = 1e-10, seed: int = 0) -> EigResult:
        """:func:`eig_targeted` with the involution, ``count`` clipped to the dimension."""
        key = self._key(shift, count, tol, seed)
        return self._once(key, lambda: eig_targeted(self.matrix, shift, key[1], tol=tol,
                                                    seed=seed, involution=self.involution))

    def store(self, result: EigResult, shift: complex, count: int, tol: float = 1e-10,
              seed: int = 0) -> None:
        """Keep ``result``, computed elsewhere, as the :meth:`eigs` solve with these arguments.

        It must be what :meth:`eigs` returns for them on a copy of this
        matrix, such as the solve of a forked process.
        """
        self._solves[self._key(shift, count, tol, seed)] = result

    def null(self, shift: complex, count: int, tol: float = 1e-10, seed: int = 0) -> EigResult:
        """Eigenpairs nearest zero, enough to read and check the null vector.

        A stored :meth:`eigs` result with the same arguments is returned as
        is, so a null vector read after a spectrum costs no solve.  Up to
        :data:`TARGETED_DENSE_FALLBACK` that solve is made, densely.
        Otherwise two Ritz pairs come from :func:`_inverse_iteration`,
        stored under a key of their own, whose factorization errors are
        those of :func:`eig_targeted`; a capped iteration raises
        :class:`EigenConvergenceError` with the Ritz values.
        """
        if (self.matrix.shape[0] <= TARGETED_DENSE_FALLBACK
                or self._key(shift, count, tol, seed) in self._solves):
            return self.eigs(shift, count, tol, seed)
        return self._once(("null", shift, tol, seed), lambda: _inverse_iteration(
            self.matrix, shift, tol, seed, self.involution))

    def restrict(self, members: np.ndarray) -> "Solvable":
        """The submatrix on the sorted basis ranks ``members``, with no solves.

        It keeps the involution, restricted to the local basis, when the
        involution maps ``members`` onto itself, and has none otherwise.
        """
        matrix = self.matrix.tocsr()[members, :][:, members]
        if self.involution is None or not np.isin(self.involution[members], members).all():
            return Solvable(matrix)
        return Solvable(matrix, np.searchsorted(members, self.involution[members]))


def _openblas_libraries() -> list:
    """The files of the OpenBLAS builds bundled with the SciPy and numpy wheels.

    Each wheel keeps its library in ``<package>.libs`` beside the package.
    """
    from pathlib import Path

    import scipy

    return sorted(str(path) for package in (scipy, np) for path in
                  (Path(package.__file__).parents[1] / f"{package.__name__}.libs").glob(
                      "libscipy_openblas*"))


def limit_blas_threads(count: int) -> None:
    """Lower the thread count of SciPy's and numpy's bundled OpenBLAS to at most ``count``.

    A library whose count is already at most ``count`` keeps it, so the
    count is never raised.  SciPy's build (``scipy.linalg``, and so the
    Krylov-Schur iteration) exports ``scipy_openblas_set_num_threads`` and
    numpy's 64-bit build ``scipy_openblas_set_num_threads64_``; both are
    called through ``ctypes``.  Where no library or no such symbol is found,
    for instance with a system BLAS, nothing changes and one debug line is
    logged.
    """
    import ctypes

    missing = []
    paths = _openblas_libraries()
    for path in paths:
        library = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            get = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                break
        else:
            missing.append(path)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        if get() > count:
            put(count)
    if missing or not paths:
        log.debug("BLAS threads unchanged in %s: no bundled OpenBLAS thread control",
                  ", ".join(missing) or "this process")


def herm_sqrt(a: MatrixLike) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues down to ``-PSD_CLIP_TOL`` are clipped to 0."""
    m = as_dense(a)
    defect = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if defect > 1e-10:
        raise MatrixValidationError(
            f"herm_sqrt requires a Hermitian matrix; defect {defect:.3e}"
        )
    h = (m + m.conj().T) / 2
    w, u = np.linalg.eigh(h)
    if w.size and w.min() < -PSD_CLIP_TOL:
        raise NotPositiveSemidefiniteError(float(w.min()), PSD_CLIP_TOL)
    w = np.clip(w, 0.0, None)
    s = (u * np.sqrt(w)) @ u.conj().T
    return (s + s.conj().T) / 2


def write_triplets(a: MatrixLike, path) -> None:
    """Write a sparse matrix as text: ``rows cols nnz`` then ``row col re im``."""
    m = clean_sparse(a).tocoo()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]} {m.nnz}\n")
        for r, c, v in zip(m.row, m.col, m.data):
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


def read_triplets(path) -> sp.csr_matrix:
    """Read a matrix written by :func:`write_triplets`.

    A header or entry line of the wrong length or with unreadable values
    raises :class:`MatrixValidationError` naming the line.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            rows, cols, nnz = (int(x) for x in fh.readline().split())
        except ValueError as exc:  # a wrong count or a non-integer
            raise MatrixValidationError(f"{path}: malformed triplet header") from exc
        if min(rows, cols, nnz) < 0:
            raise MatrixValidationError(f"{path}: negative size in the triplet header")
        r = np.empty(nnz, dtype=np.int64)
        c = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=complex)
        for i in range(nnz):
            try:
                row, col, re, im = fh.readline().split()
                r[i], c[i], data[i] = int(row), int(col), float(re) + 1j * float(im)
            except (ValueError, OverflowError) as exc:
                raise MatrixValidationError(f"{path}: malformed triplet line {i + 2}") from exc
    if nnz and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
        raise MatrixValidationError(f"{path}: triplet indices out of range")
    return clean_sparse(sp.coo_matrix((data, (r, c)), shape=(rows, cols)))
