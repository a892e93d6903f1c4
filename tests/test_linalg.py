import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from heomspectra import linalg
from heomspectra.builder import assemble

from heomspectra.errors import (
    EigenConvergenceError,
    MatrixValidationError,
    NotPositiveSemidefiniteError,
    SingularShiftError,
    SymmetryViolationError,
)
from heomspectra.linalg import (
    Solvable,
    as_dense,
    clean_sparse,
    devectorize,
    eig_dense,
    eig_targeted,
    herm_sqrt,
    kron,
    read_triplets,
    vectorize,
    write_triplets,
)

from heomspectra.models import BathSpec, BathTerm, custom, lmg, two_mode_dicke, z2_lmg
from heomspectra.operators import qubit_operators
from heomspectra.symmetry import decompose, sector_leading_eigs

from conftest import multiset_distance, random_hermitian


class TestKron:
    def test_identity(self):
        out = kron(np.eye(2), np.eye(2))
        assert np.array_equal(out.toarray(), np.eye(4))

    def test_pauli_pair_against_index_formula(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        out = kron(sx, sz).toarray()
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[i * 2 + k, j * 2 + l] = sx[i, j] * sz[k, l]
        assert np.abs(out - expected).max() == 0

    def test_annihilator(self, rng):
        m = rng.standard_normal((3, 5))
        out = kron(np.zeros((2, 2)), m)
        assert out.shape == (6, 10)
        assert out.nnz == 0

    def test_mixed_product_rule(self, rng):
        a, b, c, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(4))
        lhs = (kron(a, b) @ kron(c, d)).toarray()
        rhs = kron(a @ c, b @ d).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestVectorize:
    def test_row_major_convention(self):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 1] = 1.0  # |0><1|
        v = vectorize(rho)
        assert v[1] == 1.0 and np.count_nonzero(v) == 1

    def test_sandwich_identity(self, rng):
        a, rho, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                     for _ in range(3))
        lhs = vectorize(a @ rho @ b)
        rhs = kron(a, b.T) @ vectorize(rho)
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_round_trip(self, rng):
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(devectorize(vectorize(rho), 4), rho)

    def test_devectorize_shape_mismatch(self):
        with pytest.raises(MatrixValidationError):
            devectorize(np.zeros(5), 2)

    def test_rejects_nan(self):
        with pytest.raises(MatrixValidationError):
            as_dense(np.array([[np.nan, 0], [0, 1]]))


class TestCleanSparse:
    def test_prunes_tiny_and_sums_duplicates(self):
        m = sp.coo_matrix(
            (np.array([1.0, 1e-16, 0.5, 0.5]),
             (np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))),
            shape=(2, 2),
        )
        out = clean_sparse(m)
        assert out.nnz == 2
        assert out[0, 0] == 1.0 and out[1, 1] == 1.0


class TestEigDense:
    def test_diagonal(self):
        res = eig_dense(np.diag([1.0, 2.0, 3.0]))
        assert sorted(res.eigenvalues.real) == [1.0, 2.0, 3.0]

    def test_random_hermitian_residuals(self, rng):
        a = random_hermitian(rng, 50)
        res = eig_dense(a)
        assert res.residual_norms.max() <= 1e-12
        assert np.abs(res.eigenvalues.imag).max() <= 1e-12

    def test_jordan_block_flagged(self):
        res = eig_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.abs(res.eigenvalues).max() <= 1e-7
        assert res.vector_condition > 1e6  # near-parallel eigenvectors

    def test_conjugate_transpose_spectrum(self, rng):
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        va = np.linalg.eigvals(a)
        vh = np.linalg.eigvals(a.conj().T)
        assert multiset_distance(va, np.conj(vh)) <= 1e-10


class TestEigTargeted:
    def test_diagonal_nearest_zero(self):
        a = sp.diags([0.0, -1.0, -2.0 + 3.0j]).tocsr()
        res = eig_targeted(a, 0.0, 1)
        assert abs(res.eigenvalues[0]) <= 1e-12

    def test_agreement_with_dense(self, refined_calls):
        n = linalg.TARGETED_DENSE_FALLBACK + 100
        a = sp.random(n, n, density=0.05, random_state=np.random.RandomState(3),
                      dtype=float).tocsr()
        a = (a + 1j * sp.random(n, n, density=0.05,
                                random_state=np.random.RandomState(4))).tocsr()
        dense_vals = np.linalg.eigvals(a.toarray())
        shift = 0.1 + 0.05j
        res = eig_targeted(a, shift, 6)
        nearest = dense_vals[np.argsort(np.abs(dense_vals - shift))[:6]]
        assert multiset_distance(res.eigenvalues, nearest) <= 1e-8
        assert res.residual_norms.max() <= 1e-10
        assert len(refined_calls) == 1

    def test_small_generator_takes_the_sparse_path(self, refined_calls):
        # dimension 363: between the dense fallback and the former limit 600
        a = assemble(lmg(10, 0.18, 1.0, 1.0, 1.0), 1).matrix
        assert linalg.TARGETED_DENSE_FALLBACK < a.shape[0] < 600
        res = eig_targeted(a, 0.0, 6)
        dense_vals = np.linalg.eigvals(a.toarray())
        # each value is a dense eigenvalue, and they are the 6 nearest zero
        # (the 6th is one member of a conjugate pair, so compare moduli)
        assert np.abs(res.eigenvalues[:, None] - dense_vals[None, :]).min(axis=1).max() <= 1e-8
        assert np.abs(np.sort(np.abs(res.eigenvalues))
                      - np.sort(np.abs(dense_vals))[:6]).max() <= 1e-8
        assert len(refined_calls) == 1

    def test_count_validation(self):
        with pytest.raises(MatrixValidationError):
            eig_targeted(sp.eye(4, format="csr"), 0.0, 0)
        with pytest.raises(MatrixValidationError):
            eig_targeted(sp.eye(4, format="csr"), 0.0, 1, tol=-1.0)

    def test_singular_shift_error_carries_suggestion(self, refined_calls):
        # Explicit zeros above the dense fallback: the scale is 0, so the
        # displaced shift is the requested one and the first pivot is zero.
        a = sp.identity(linalg.TARGETED_DENSE_FALLBACK + 100, dtype=complex,
                        format="csr") * 0.0
        solvable = Solvable(a)
        with pytest.raises(SingularShiftError) as info:
            solvable.eigs(0.0, 2)
        assert info.value.shift == 0.0 and info.value.suggested_shift != 0.0
        assert refined_calls == [0.0]
        # a failed solve is not stored, so a second one factorizes again
        with pytest.raises(SingularShiftError):
            solvable.eigs(0.0, 2)
        assert refined_calls == [0.0, 0.0]

    def test_non_finite_sparse_matrix_is_rejected(self, refined_calls):
        a = sp.identity(linalg.TARGETED_DENSE_FALLBACK + 100, dtype=complex, format="lil")
        a[3, 5] = np.nan
        with pytest.raises(MatrixValidationError, match="NaN or Inf"):
            eig_targeted(a.tocsr(), 0.0, 2)
        assert refined_calls == []


class TestShiftInvert:
    """One refined LU per solve, SuperLU's or the level-set LU; a miss raises at once.

    At these dimensions the LU is SuperLU's; :class:`TestShiftInvertLevelSets`
    runs the same tests on the level-set LU of :class:`linalg._LevelSetLU`.
    The ``levels`` fixture records the dimension of each level-set LU.
    """

    N = 800  # above the dense fallback
    LEVEL_SETS = False

    @pytest.fixture(autouse=True)
    def levels(self, monkeypatch):
        built = []
        if self.LEVEL_SETS:
            original = linalg._LevelSetLU

            def spy(a):
                built.append(a.shape[0])
                return original(a)

            monkeypatch.setattr(linalg, "LEVEL_LU_MIN_DIM", 0)
            monkeypatch.setattr(linalg, "_LevelSetLU", spy)
        else:
            assert self.N < linalg.LEVEL_LU_MIN_DIM
        return built

    def _check_path(self, levels, factorizations):
        assert len(levels) == (factorizations if self.LEVEL_SETS else 0)

    @pytest.fixture
    def matrix(self):
        state = np.random.RandomState(11)
        a = (sp.random(self.N, self.N, density=0.01, random_state=state)
             + 1j * sp.random(self.N, self.N, density=0.01, random_state=state)
             - sp.diags(state.uniform(1.0, 3.0, self.N)))
        return a.tocsr()

    def test_sparse_solve_matches_dense(self, matrix, refined_calls, levels):
        shift = -1.0 + 0.1j
        res = eig_targeted(matrix, shift, 6)
        dense_vals = np.linalg.eigvals(matrix.toarray())
        nearest = dense_vals[np.argsort(np.abs(dense_vals - shift))[:6]]
        assert multiset_distance(res.eigenvalues, nearest) <= 1e-8
        assert res.residual_norms.max() <= 1e-10
        assert len(refined_calls) == 1
        self._check_path(levels, 1)

    def test_inaccurate_factorization_raises_convergence_error(self, matrix, monkeypatch,
                                                               refined_calls):
        # The factorization is of a matrix 1e-6 away, so its Ritz pairs miss
        # tol on the real one, and nothing is refactorized.
        original = linalg._refined_inverse
        noise = 1e-6 * sp.random(self.N, self.N, density=0.01,
                                 random_state=np.random.RandomState(12)).tocsc()
        monkeypatch.setattr(linalg, "_refined_inverse",
                            lambda a, sigma: original(a + noise, sigma))
        with pytest.raises(EigenConvergenceError) as info:
            eig_targeted(matrix, -1.0 + 0.1j, 6)
        assert info.value.ritz_values is not None and len(info.value.ritz_values) == 6
        assert len(refined_calls) == 1

    def test_eigs_raises_singular_shift_without_retry(self, refined_calls, levels):
        # Explicit zeros: the requested shift is an exact zero pivot.  eigs
        # makes one factorization and raises; the caller's remedy is a new
        # request at the suggested shift, which then succeeds.
        a = sp.identity(700, dtype=complex, format="csr") * 0.0
        solvable = Solvable(a)
        with pytest.raises(SingularShiftError) as info:
            solvable.eigs(0.0, 2)
        assert refined_calls == [0.0] and solvable._solves == {}
        suggested = info.value.suggested_shift
        res = solvable.eigs(suggested, 2)
        assert np.abs(res.eigenvalues).max() <= 1e-10
        assert refined_calls == [0.0, suggested]
        assert list(solvable._solves) == [(suggested, 2, 1e-10, 0)]
        self._check_path(levels, 2)

    def test_singular_shift_of_a_connected_matrix_raises(self, matrix, refined_calls, levels):
        # Row 0 is zero and column 0 is not, so node 0 is joined to the
        # others and its row stays zero through the elimination.  The shift
        # is the displacement, so the factorization is of the matrix itself.
        a = matrix.tolil()
        a[0, :] = 0.0
        a = a.tocsr()
        a.eliminate_zeros()
        assert a[:, 0].nnz > 0
        shift = 1e-3 * float(np.abs(a.data).max())
        with pytest.raises(SingularShiftError) as info:
            eig_targeted(a, shift, 6)
        assert info.value.shift == shift and refined_calls == [0.0]
        self._check_path(levels, 1)


class TestShiftInvertLevelSets(TestShiftInvert):
    """:class:`TestShiftInvert` on the level-set LU, ``LEVEL_LU_MIN_DIM`` lowered to 0."""

    LEVEL_SETS = True


def _components(dtype):
    """A matrix of dimension 600 with components of 250, 200, 100 and 40 nodes and 10 isolated ones.

    The nodes of each component are scattered over the basis.
    """
    state = np.random.RandomState(21)
    blocks = []
    for size in (250, 200, 100, 40):
        block = sp.random(size, size, density=4.0 / size, random_state=state)
        if dtype is complex:
            block = block + 1j * sp.random(size, size, density=4.0 / size, random_state=state)
        # a path through the component keeps it connected
        blocks.append(block + sp.diags([np.ones(size - 1)], [1])
                      - sp.diags(state.uniform(1.0, 3.0, size)))
    blocks.append(sp.diags(state.uniform(1.0, 2.0, 10)))
    scatter = state.permutation(600)
    return sp.block_diag(blocks).tocsr()[scatter][:, scatter].astype(dtype)


class TestLevelSetLU:
    """The block-tridiagonal LU of :class:`linalg._LevelSetLU` and its path in eigensolves."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_components_and_isolated_nodes(self, dtype, monkeypatch, refined_calls):
        a = _components(dtype)
        lu = linalg._LevelSetLU(a)
        assert lu.dtype == a.dtype and sorted(lu.order) == list(range(600))
        # block tridiagonal in the level-set order, and the order is deterministic
        permuted = a[lu.order][:, lu.order].tocoo()
        block = np.searchsorted(lu.bounds, np.arange(600), side="right") - 1
        assert np.abs(block[permuted.row] - block[permuted.col]).max() <= 1
        assert np.array_equal(linalg._LevelSetLU(a).order, lu.order)
        sizes = np.diff(lu.bounds)
        assert sizes[:-1].min() >= linalg._LEVEL_BLOCK
        rhs = np.random.default_rng(1).standard_normal((600, 2)).astype(dtype)
        for b in (rhs[:, 0], rhs):
            x = lu.solve(b)
            assert x.dtype == a.dtype
            assert np.abs(a @ x - b).max() <= 1e-12 * np.abs(b).max()
        # and as the LU of an eigensolve
        monkeypatch.setattr(linalg, "LEVEL_LU_MIN_DIM", 0)
        res = eig_targeted(a, -1.0, 6)
        dense = np.linalg.eigvals(a.toarray())
        assert multiset_distance(res.eigenvalues, dense[linalg._nearest_order(dense, -1.0)[:6]]) <= 1e-8
        assert res.residual_norms.max() <= 1e-10
        assert refined_calls == [pytest.approx(-1.0 - 1e-3 * np.abs(a.data).max())]

    def test_lmg_sector_matches_superlu(self, monkeypatch):
        # lmg N=16, k_max=7 parity sector 0, of dimension 5200: the level-set LU by default
        decomp = decompose(assemble(lmg(16, 0.35, 1.0, 1.0, 1.0), 7))
        solvable = decomp.solvables[0]
        assert solvable.matrix.shape[0] >= linalg.LEVEL_LU_MIN_DIM
        levels = eig_targeted(solvable.matrix, 0.0, 6, involution=solvable.involution)
        monkeypatch.setattr(linalg, "LEVEL_LU_MIN_DIM", solvable.matrix.shape[0] + 1)
        superlu = eig_targeted(solvable.matrix, 0.0, 6, involution=solvable.involution)
        assert np.abs(levels.eigenvalues - superlu.eigenvalues).max() <= 1e-10

    def test_diagonal_pattern_at_the_threshold_is_fast(self):
        # every node is a component of its own; nothing runs once per node in Python
        n = linalg.LEVEL_LU_MIN_DIM
        diagonal = np.arange(1.0, n + 1.0)
        start = time.perf_counter()
        lu = linalg._LevelSetLU(sp.diags(diagonal).tocsc())
        assert time.perf_counter() - start < 1.0
        assert np.abs(lu.solve(diagonal) - 1.0).max() <= 1e-15


class TestKrylovSchur:
    """The shift-invert iteration on z2_lmg N=10, k_max=7 at g = -2.9, sectors of dim ~2180."""

    COUNT = 6
    NCV = 36  # min(n, max(2 * (COUNT + 4) + 12, 36))

    @pytest.fixture(scope="class")
    def decomp(self):
        return decompose(assemble(z2_lmg(10, -2.9 * 0.5, 0.5, 1.0, 1.0, 0.5), 7))

    def test_restart_matches_the_dense_spectrum(self, decomp, applications):
        solvable = decomp.solvables[1]
        res = eig_targeted(solvable.matrix, 0.0, self.COUNT, involution=solvable.involution)
        assert len(applications) == 1 and applications[0] > self.NCV
        # eigenvalues of the unitarily similar real form, whose conjugate pairs are exact
        matrix, scale = linalg._square_sparse(solvable.matrix, 1e-10)
        real, _ = linalg._real_form(matrix, solvable.involution, scale)
        dense = np.linalg.eigvals(real.toarray())
        nearest = dense[linalg._nearest_order(dense, 0.0)[:self.COUNT]]
        assert np.abs(res.eigenvalues - nearest).max() <= 1e-8
        assert res.residual_norms.max() <= 1e-10

    def test_converges_within_one_basis(self, decomp, applications):
        solvable = decomp.solvables[0]
        res = eig_targeted(solvable.matrix, 0.0, self.COUNT, involution=solvable.involution)
        assert len(applications) == 1 and applications[0] <= self.NCV
        assert res.residual_norms.max() <= 1e-10

    def test_vector_condition_is_that_of_the_vectors(self, decomp):
        for solvable in decomp.solvables.values():
            res = eig_targeted(solvable.matrix, 0.0, self.COUNT, involution=solvable.involution)
            assert res.vector_condition == pytest.approx(np.linalg.cond(res.right_vectors),
                                                         rel=1e-8)

    def test_capped_restarts_raise_with_ritz_values(self, decomp, monkeypatch, applications):
        monkeypatch.setattr(linalg, "KRYLOV_CYCLE_LIMIT", 1)
        solvable = Solvable(decomp.solvables[1].matrix, decomp.solvables[1].involution)
        with pytest.raises(EigenConvergenceError) as info:
            solvable.eigs(0.0, self.COUNT)
        assert len(info.value.ritz_values) == self.COUNT
        assert applications == [self.NCV] and solvable._solves == {}


class TestNullIteration:
    """Block inverse iteration on one LU near zero, for the null vector."""

    @pytest.fixture
    def matrix(self):
        # a rate matrix of an irreducible chain above the dense fallback:
        # columns sum to zero, and the stationary state is unique
        state = np.random.RandomState(5)
        n = 300
        rates = sp.random(n, n, density=0.02, random_state=state).tolil()
        rates.setdiag(0.0)
        rates = rates + sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1])
        return (rates - sp.diags(np.asarray(rates.sum(axis=0)).ravel())).tocsr().astype(complex)

    def test_null_vector_with_one_factorization(self, matrix, eig_calls, refined_calls):
        solvable = Solvable(matrix)
        res = solvable.null(0.0, 6)
        assert res.eigenvalues.size == 2 and abs(res.eigenvalues[0]) <= 1e-12
        assert res.residual_norms[0] <= 1e-12
        assert abs(res.eigenvalues[1]) > 1e-3
        assert solvable.null(0.0, 6) is res
        assert eig_calls == [] and len(refined_calls) == 1
        scale = np.abs(matrix.data).max()
        assert refined_calls[0] == pytest.approx(-1e-6 * scale)

    def test_reads_a_cached_spectrum_solve(self, matrix, refined_calls):
        solvable = Solvable(matrix)
        solved = solvable.eigs(0.0, 6)
        assert solvable.null(0.0, 6) is solved
        assert len(refined_calls) == 1

    def test_small_matrix_takes_the_dense_path(self, eig_calls, refined_calls):
        a = sp.diags([0.0, -1.0, -2.0]).tocsr()
        res = Solvable(a).null(0.0, 2)
        assert res.eigenvalues.tolist() == [0.0, -1.0]
        assert len(eig_calls) == 1 and refined_calls == []

    def test_capped_iteration_raises_with_ritz_values(self, matrix, monkeypatch):
        monkeypatch.setattr(linalg, "NULL_ITERATION_LIMIT", 1)
        solvable = Solvable(matrix)
        with pytest.raises(EigenConvergenceError) as info:
            solvable.null(0.0, 6)
        assert len(info.value.ritz_values) == 2 and solvable._solves == {}

    def test_zero_pivot_raises_singular_shift(self, refined_calls):
        a = sp.identity(700, dtype=complex, format="csr") * 0.0  # scale 0: sigma is the shift
        solvable = Solvable(a)
        with pytest.raises(SingularShiftError) as info:
            solvable.null(0.0, 6)
        assert info.value.suggested_shift != 0.0
        assert refined_calls == [0.0] and solvable._solves == {}

    def test_non_finite_matrix_is_rejected(self, matrix, refined_calls):
        matrix = matrix.copy()
        matrix.data[7] = np.inf
        with pytest.raises(MatrixValidationError, match="NaN or Inf"):
            Solvable(matrix).null(0.0, 6)
        assert refined_calls == []


def _decomposition(name):
    model = {"lmg": lmg(4, 0.3, 1.0, 1.0, 1.0), "z2_lmg": z2_lmg(4, -2.9, 0.5, 1.0, 1.0, 0.5),
             "two_mode_dicke": two_mode_dicke(2, 1.5, 1.0, 5.0, 5.0)}[name]
    return decompose(assemble(model, 3))


class TestRealForm:
    """Solves with an adjoint involution run on a real matrix and give ``a``'s eigenpairs."""

    @pytest.mark.parametrize("name, charge", [
        ("lmg", 0), ("lmg", 1), ("z2_lmg", 0), ("z2_lmg", 1), ("two_mode_dicke", 0),
        ("lmg", None), ("two_mode_dicke", None),
    ])
    def test_matches_the_dense_spectrum(self, name, charge, factorized):
        decomp = _decomposition(name)
        solvable = (decomp.liouvillian.solvable if charge is None
                    else decomp.solvables[charge])
        matrix, involution = solvable.matrix, solvable.involution
        assert matrix.shape[0] > linalg.TARGETED_DENSE_FALLBACK
        res = eig_targeted(matrix, 0.0, 6, tol=1e-10, involution=involution)
        assert factorized == [(matrix.shape[0], "f")]
        dense = np.linalg.eigvals(matrix.toarray())
        nearest = dense[linalg._nearest_order(dense, 0.0)[:6]]
        assert multiset_distance(res.eigenvalues, nearest) <= 1e-10
        assert np.all(res.residual_norms <= 1e-10)
        assert np.all(np.linalg.norm(matrix @ res.right_vectors - res.right_vectors
                                     * res.eigenvalues, axis=0) <= 1e-10)

    def test_null_iteration_factorizes_once_in_real_arithmetic(self, factorized):
        decomp = _decomposition("lmg")
        res = decomp.solvables[0].null(0.0, 6)
        assert factorized == [(decomp.dimension(0), "f")]
        assert abs(res.eigenvalues[0]) <= 1e-10 and res.residual_norms[0] <= 1e-10
        vector = res.right_vectors[:, 0]
        assert np.linalg.norm(decomp.sector(0) @ vector) <= 1e-10

    def test_imaginary_part_raises(self, factorized):
        decomp = _decomposition("lmg")
        broken = decomp.sector(0).copy()
        broken.data[0] += 1e-8j
        with pytest.raises(SymmetryViolationError, match="adjoint involution"):
            eig_targeted(broken, 0.0, 6, involution=decomp.solvables[0].involution)
        with pytest.raises(SymmetryViolationError):
            Solvable(broken, decomp.solvables[0].involution).null(0.0, 6)
        assert factorized == []

    def test_non_real_shift_takes_the_complex_path(self, factorized):
        decomp = _decomposition("lmg")
        res = eig_targeted(decomp.sector(0), -0.2 + 0.1j, 4,
                           involution=decomp.solvables[0].involution)
        assert factorized == [(decomp.dimension(0), "c")]
        assert np.all(res.residual_norms <= 1e-10)

    def test_u1_charge_other_than_zero_takes_the_complex_path(self, factorized):
        decomp = _decomposition("two_mode_dicke")
        assert [q for q, solvable in sorted(decomp.solvables.items())
                if solvable.involution is not None] == [0]
        assert decomp.dimension(1) > linalg.TARGETED_DENSE_FALLBACK
        res = sector_leading_eigs(decomp, 1, count=4)
        assert factorized == [(decomp.dimension(1), "c")]
        assert np.all(res.residual_norms <= 1e-10)

    def test_nearly_hermitian_custom_hamiltonian_solves(self, factorized):
        ops = qubit_operators()
        h = ops["sigma_z"] + 0.3 * ops["sigma_x"] + 5e-11j * np.array([[0, 1], [0, 0]])
        model = custom(h, [BathSpec(ops["sigma_minus"], (BathTerm(0.2, 0.5, 1.0),))])
        liouv = assemble(model, 4)
        res = eig_targeted(liouv.matrix, 0.0, 4, involution=liouv.solvable.involution)
        assert factorized == [(liouv.dim, "f")]
        assert np.all(res.residual_norms <= 1e-10)

    def test_involution_must_be_self_inverse(self):
        decomp = _decomposition("lmg")
        with pytest.raises(MatrixValidationError):
            eig_targeted(decomp.sector(0), 0.0, 6,
                         involution=np.roll(decomp.solvables[0].involution, 1))


class TestHermSqrt:
    def test_identity(self):
        assert np.abs(herm_sqrt(np.eye(3)) - np.eye(3)).max() <= 1e-14

    def test_diagonal(self):
        out = herm_sqrt(np.diag([4.0, 9.0]))
        assert np.abs(out - np.diag([2.0, 3.0])).max() <= 1e-13

    def test_squaring_oracle(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = m @ m.conj().T
        s = herm_sqrt(a)
        assert np.abs(s @ s - a).max() <= 1e-11

    def test_not_psd_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError) as info:
            herm_sqrt(np.diag([1.0, -1.0]))
        assert info.value.eigenvalue == pytest.approx(-1.0)

    def test_clipping_inside_tolerance(self):
        out = herm_sqrt(np.diag([1.0, -1e-10]))
        assert out[1, 1] == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(MatrixValidationError):
            herm_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTriplets:
    def test_round_trip(self, tmp_path, rng):
        a = sp.random(8, 5, density=0.3, random_state=np.random.RandomState(9))
        a = (a + 1j * a.power(2)).tocsr()
        path = tmp_path / "m.txt"
        write_triplets(a, path)
        b = read_triplets(path)
        assert b.shape == a.shape
        assert np.abs((a - b).toarray()).max() <= 1e-15

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n")
        with pytest.raises(MatrixValidationError):
            read_triplets(path)

    @pytest.mark.parametrize("text, line", [
        ("2 2 x\n", "header"), ("", "header"), ("2 -2 0\n", "header"),
        ("2 2 1\n0 0 1.0\n", "line 2"), ("2 2 1\n0 0 one 0\n", "line 2"),
        ("2 2 2\n0 0 1 0\n", "line 3"), ("2 2 1\n99999999999999999999 0 1 0\n", "line 2"),
    ])
    def test_malformed_file(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MatrixValidationError, match=line):
            read_triplets(path)


# Prints the thread count of each bundled OpenBLAS, before and after each
# limit_blas_threads call, as JSON lists of {library: count}.
THREAD_COUNTS = """
import ctypes, json, sys
from heomspectra import linalg

def counts():
    found = {}
    for path in linalg._openblas_libraries():
        library = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            get = getattr(library, "scipy_openblas_get_num_threads" + suffix, None)
            if get is not None:
                found[path] = get()
    return found

steps = [counts()]
for count in map(int, sys.argv[1:]):
    linalg.limit_blas_threads(count)
    steps.append(counts())
print(json.dumps(steps))
"""


class TestBlasThreads:
    def test_limit_lowers_and_never_raises(self):
        # in a child process, so this one keeps its thread count
        src = str(Path(linalg.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", THREAD_COUNTS, "3", "1", "2"], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        start, above, limited, again = json.loads(done.stdout)
        if not start:
            pytest.skip("no bundled OpenBLAS in this environment")
        assert above == start  # a count above the current one changes nothing
        assert set(limited.values()) == {1} and limited.keys() == start.keys()
        assert again == limited  # and a later, larger count does not raise it

    def test_missing_library_logs_one_debug_line(self, monkeypatch, caplog):
        monkeypatch.setattr(linalg, "_openblas_libraries", lambda: [])
        with caplog.at_level("DEBUG", logger="heomspectra.linalg"):
            linalg.limit_blas_threads(1)
        assert len(caplog.records) == 1
        assert caplog.records[0].levelname == "DEBUG"
