"""One solve per distinct spectrum: results cached on the solved object."""

import dataclasses
import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from heomspectra.builder import HeomLiouvillian, assemble
from heomspectra.dpt import ssb_pair
from heomspectra.embedding import EmbeddingSpec, steady_state_lm
from heomspectra.errors import DegenerateSteadyStateError, RealnessGateError, SingularShiftError
from heomspectra.linalg import Solvable, eig_targeted
from heomspectra.models import lmg, z2_lmg
from heomspectra.spectra import distinct_from_leading, gap, spectrum, steady_state
from heomspectra.symmetry import SectorDecomposition, SymmetrySpec, decompose, sector_leading_eigs


@pytest.fixture
def liouv():
    return assemble(lmg(6, 0.3, 1.0, 1.0, 1.0), 4)


@pytest.fixture
def plain_liouv():
    """The ``liouv`` generator of a model that declares no symmetry."""
    return assemble(dataclasses.replace(lmg(6, 0.3, 1.0, 1.0, 1.0), symmetry=None), 4)


@pytest.fixture
def decomp(liouv):
    return decompose(liouv, SymmetrySpec(tuple(range(7)), (1,), group_order=2))


class TestSharedSolves:
    def test_gap_then_steady_state_factorize_once(self, plain_liouv, refined_calls):
        gap(plain_liouv, count=6, tol=1e-10, seed=3)
        steady_state(plain_liouv, count=6, tol=1e-10, seed=3)
        assert len(refined_calls) == 1

    def test_symmetric_sector_spectrum_then_steady_state_factorize_once(self, liouv,
                                                                        refined_calls):
        own = decompose(liouv)
        spectrum(own, charge=0, count=6, tol=1e-10, seed=3)
        steady_state(own, count=6, tol=1e-10, seed=3)
        assert len(refined_calls) == 1

    def test_sector_eigs_then_sector_steady_state_solve_once(self, decomp, refined_calls):
        sector_leading_eigs(decomp, 0, count=6)
        steady_state(decomp, charge=0)
        assert len(refined_calls) == 1

    def test_steady_state_alone_factorizes_once_without_arnoldi(self, liouv, eig_calls,
                                                               refined_calls):
        own = decompose(liouv)
        first = steady_state(own, seed=3)[0].matrix
        assert np.array_equal(steady_state(own, seed=3)[0].matrix, first)
        assert eig_calls == [] and len(refined_calls) == 1

    def test_ssb_pair_reuses_the_broken_sector_solve(self, eig_calls):
        model = z2_lmg(8, -1.45, 0.5, 1.0, 1.0, 0.5)
        decomp = decompose(assemble(model, 2))
        sector_leading_eigs(decomp, 1, count=6)
        ssb_pair(decomp, 1.0, count=6)
        assert len(eig_calls) == 1

    @pytest.mark.parametrize("model, k_max", [
        (lmg(6, 0.3, 1.0, 1.0, 1.0), 4),
        (z2_lmg(8, -1.45, 0.5, 1.0, 1.0, 0.5), 2),
    ], ids=["lmg", "z2_lmg"])
    def test_spectrum_over_sectors_reuses_the_sector_solves(self, model, k_max, eig_calls):
        decomp = decompose(assemble(model, k_max))
        for charge in decomp.charges_present():
            sector_leading_eigs(decomp, charge, count=6)
        solves = len(eig_calls)
        spectrum(decomp, charge=None, count=6)
        gap(decomp, charge=None, count=6)
        assert len(eig_calls) == solves

    @pytest.mark.parametrize("change", [
        {"count": 5}, {"tol": 1e-9}, {"seed": 1}, {"shift": 0.25}, {"charge": 1},
    ])
    def test_each_distinct_key_solves(self, decomp, eig_calls, change):
        base = {"charge": 0, "count": 6, "tol": 1e-10, "seed": 0, "shift": 0.0}
        spectrum(decomp, **base)
        spectrum(decomp, **{**base, **change})
        assert len(eig_calls) == 2

    def test_caches_are_per_object(self, eig_calls):
        model = lmg(6, 0.3, 1.0, 1.0, 1.0)
        gap(assemble(model, 4))
        gap(assemble(model, 4))
        assert len(eig_calls) == 2

    def test_generator_cache_ignores_charge(self, liouv, eig_calls):
        spectrum(liouv, charge=0, count=6)
        spectrum(liouv, charge=1, count=6)
        assert len(eig_calls) == 1

    def test_embedding_solve_is_not_cached(self, refined_calls):
        spec = EmbeddingSpec(lmg(2, 0.3, 1.0, 1.0, 1.0), (2,))
        steady_state_lm(spec)
        steady_state_lm(spec)
        assert len(refined_calls) == 2


class TestCountAboveDimension:
    """A count above a sector's dimension is clipped where the cache key is formed."""

    def test_every_reader_shares_one_solve_per_sector(self, eig_calls):
        decomp = decompose(assemble(z2_lmg(2, -1.45, 0.5, 1.0, 1.0, 0.5), 0))
        dims = {charge: decomp.dimension(charge) for charge in decomp.charges_present()}
        assert dims == {0: 5, 1: 4}
        for charge, dim in dims.items():
            assert spectrum(decomp, charge, count=10).eigenvalues.size == dim
            assert sector_leading_eigs(decomp, charge, count=10).eigenvalues.size == dim
        assert spectrum(decomp, charge=None, count=10).eigenvalues.size == sum(dims.values())
        with pytest.raises(RealnessGateError):
            ssb_pair(decomp, 1.0, count=10)
        with pytest.raises(DegenerateSteadyStateError):  # unitary at k_max 0
            steady_state(decomp, count=10)
        assert [call[1] for call in eig_calls] == [5, 4]
        for charge, dim in dims.items():
            assert list(decomp.solvables[charge]._solves) == [(0.0, dim, 1e-10, 0)]


class TestNoAliasing:
    def test_spectrum_arrays_are_fresh(self, decomp):
        first = spectrum(decomp, charge=0, count=6)
        expected = first.eigenvalues.copy(), first.vectors.copy()
        first.eigenvalues[:] = 0.0
        first.vectors[:] = 0.0
        second = spectrum(decomp, charge=0, count=6)
        assert np.array_equal(second.eigenvalues, expected[0])
        assert np.array_equal(second.vectors, expected[1])

    def test_sector_eigs_arrays_are_fresh(self, decomp):
        first = sector_leading_eigs(decomp, 1, count=4)
        expected = first.right_vectors.copy()
        first.right_vectors[:] = 0.0
        assert np.array_equal(sector_leading_eigs(decomp, 1, count=4).right_vectors, expected)

    def test_cached_result_equals_a_fresh_solve(self, liouv):
        spectrum(liouv, count=6)  # fills the cache
        cached = spectrum(liouv, count=6)
        fresh = spectrum(assemble(liouv.model, 4), count=6)
        assert np.array_equal(cached.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(cached.vectors, fresh.vectors)


@pytest.mark.parametrize("cls", [HeomLiouvillian, SectorDecomposition])
def test_cache_field_is_private(cls, request):
    # the solves of either class are kept in the private memo of linalg.Solvable
    (cache,) = [f for f in dataclasses.fields(Solvable) if f.name == "_solves"]
    assert not cache.init and not cache.repr and not cache.compare
    solved = request.getfixturevalue("liouv" if cls is HeomLiouvillian else "decomp")
    assert isinstance(solved, cls)
    before = repr(solved)
    spectrum(solved, count=6)
    memo = solved.solvable if cls is HeomLiouvillian else solved.solvable(0)
    assert memo._solves and repr(solved) == before


def test_generator_is_freed_without_the_garbage_collector():
    # no reference cycle between the generator and the decomposition steady_state builds
    liouv = assemble(lmg(6, 0.3, 1.0, 1.0, 1.0), 4)
    steady_state(liouv)
    alive = weakref.ref(liouv)
    gc.disable()
    try:
        del liouv
        assert alive() is None
    finally:
        gc.enable()


class TestShift:
    def test_shift_reaches_the_solver(self, liouv, decomp, eig_calls, refined_calls):
        gap(decomp, charge=1, shift=0.25)
        sector_leading_eigs(decomp, 0, count=6, shift=0.25)
        steady_state(decomp, shift=0.25)  # reads the sector-0 solve
        steady_state(liouv, shift=0.25)  # inverse iteration near the shift
        assert [call[0] for call in eig_calls] == [0.25, 0.25]
        assert len(refined_calls) == 3 and abs(refined_calls[2] - 0.25) < 1e-4

    def test_default_shift_is_zero(self, liouv, refined_calls):
        steady_state(liouv)
        assert -1e-4 < refined_calls[0] < 0.0


class TestDistinctFromLeading:
    def test_skips_values_degenerate_with_the_first(self):
        values = np.array([0.0, 1e-12, -0.5 + 1j, -0.5 - 1j])
        assert np.array_equal(distinct_from_leading(values), values[2:])

    def test_all_degenerate_gives_empty(self):
        assert distinct_from_leading(np.array([0.0, 1e-10, -1e-10])).size == 0


class TestSolverLogging:
    def test_cache_hit_is_logged(self, plain_liouv, caplog):
        caplog.set_level(logging.DEBUG, logger="heomspectra")
        gap(plain_liouv)
        assert not [r for r in caplog.records if "reusing" in r.getMessage()]
        steady_state(plain_liouv)
        hits = [r for r in caplog.records if "reusing" in r.getMessage()]
        assert len(hits) == 1 and hits[0].levelno == logging.DEBUG

    def test_symmetric_cache_hit_is_logged(self, liouv, caplog):
        caplog.set_level(logging.DEBUG, logger="heomspectra")
        own = decompose(liouv)
        spectrum(own, charge=0, count=6)
        assert not [r for r in caplog.records if "reusing" in r.getMessage()]
        steady_state(own)
        hits = [r for r in caplog.records if "reusing" in r.getMessage()]
        assert len(hits) == 1 and hits[0].levelno == logging.DEBUG

    def test_null_vector_cache_hit_is_logged(self, liouv, caplog):
        caplog.set_level(logging.DEBUG, logger="heomspectra")
        own = decompose(liouv)
        steady_state(own)
        assert not [r for r in caplog.records if "reusing" in r.getMessage()]
        steady_state(own)
        hits = [r for r in caplog.records if "reusing" in r.getMessage()]
        assert len(hits) == 1 and hits[0].levelno == logging.DEBUG

    def test_dense_fallback_is_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="heomspectra")
        eig_targeted(sp.diags([0.0, -1.0, -2.0]).tocsr(), 0.0, 1)
        assert any("dense solve" in r.getMessage() for r in caplog.records)

    def test_singular_shift_is_not_retried(self, caplog, refined_calls):
        caplog.set_level(logging.DEBUG, logger="heomspectra")
        a = sp.identity(700, dtype=complex, format="csr") * 0.0
        with pytest.raises(SingularShiftError, match="singular"):
            eig_targeted(a, 0.0, 2)
        assert refined_calls == [0.0]
        assert not [r for r in caplog.records if r.name.startswith("heomspectra")]
