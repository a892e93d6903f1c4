import numpy as np
import pytest

from heomspectra.builder import assemble
from heomspectra.errors import MatrixValidationError, SymmetryViolationError
from heomspectra.models import BathSpec, BathTerm, custom, two_mode_dicke, z2_lmg
from heomspectra.symmetry import SymmetrySpec, decompose, sector_leading_eigs

from conftest import multiset_distance


class TestSpecAndCharges:
    def test_validation(self):
        with pytest.raises(MatrixValidationError):
            SymmetrySpec((0, 1), (1,), group_order=-1)

    def test_reduce(self):
        z2 = SymmetrySpec((0, 1), (1,), group_order=2)
        assert z2.reduce(3) == 1
        u1 = SymmetrySpec((0, 1), (1,), group_order=0)
        assert u1.reduce(-3) == -3

    def test_trivial_charges(self, qubit_decay_model):
        spec = SymmetrySpec((0, 0), (0,), group_order=0)
        liouv = assemble(qubit_decay_model, 3)
        # element |0><1| at hierarchy index (n, m) = (2, 1)
        assert charge_at(decompose(liouv, spec), (2, 1), (0, 1)) == 0

    def test_z2_rule(self):
        model = z2_lmg(2, -1.0, 0.5, 1.0, 1.0, 0.5)
        spec = SymmetrySpec((0, 1, 2), (1,), group_order=2)
        # diagonal element at hierarchy index (n, m) = (1, 0)
        assert charge_at(decompose(assemble(model, 1), spec), (1, 0), (1, 1)) == 1

    def test_u1_neighbor_pair(self):
        model = neighbor_pair_model()
        decomp = decompose(assemble(model, 2), SymmetrySpec(tuple(range(5)), (1, -1)))
        assert charge_at(decomp, (0, 0, 0, 0), (3, 2)) == 1
        assert charge_at(decomp, (1, 0, 0, 1), (0, 0)) == 2

    def test_model_charge_validation(self):
        model = z2_lmg(4, -1.0, 0.5, 1.0, 1.0, 0.5)
        assert decompose(assemble(model, 2), model.symmetry).off_sector_residual == 0.0

    @pytest.mark.parametrize("bath_charges", [(1,), (1, -1, 5)])
    def test_bath_charge_count(self, bath_charges):
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        spec = SymmetrySpec(model.symmetry.system_charges, bath_charges)
        with pytest.raises(MatrixValidationError):
            decompose(assemble(model, 1), spec)


def charge_at(decomp, index, pair):
    """Charge of ``|i><j|`` at hierarchy index ``(n, m)``, read from ``decompose``."""
    d = decomp.liouvillian.d_s
    i, j = pair
    return decomp.charges[decomp.liouvillian.hierarchy.rank(index) * d * d + i * d + j]


def neighbor_pair_model():
    """Five levels with a nearest-neighbor lowering bath and a raising bath."""
    lower = np.diag(np.ones(4), 1)
    return custom(
        np.diag(np.arange(5.0)),
        [BathSpec(lower, (BathTerm(0.3, 0.5, 1.0),)),
         BathSpec(lower.T, (BathTerm(0.2, 0.4, 1.0),))],
    )


class TestDecompose:
    def test_trivial_spec_single_sector(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 2)
        spec = SymmetrySpec((0, 0), (0,), group_order=0)
        decomp = decompose(liouv, spec)
        assert decomp.charges_present() == [0]
        assert decomp.dimension(0) == liouv.dim

    def test_z2_two_sectors_partition(self):
        model = z2_lmg(4, -1.0, 0.5, 1.0, 1.0, 0.5)
        liouv = assemble(model, 2)
        decomp = decompose(liouv)
        assert decomp.charges_present() == [0, 1]
        assert decomp.dimension(0) + decomp.dimension(1) == liouv.dim
        merged = np.sort(np.concatenate([decomp.sectors[0], decomp.sectors[1]]))
        assert np.array_equal(merged, np.arange(liouv.dim))
        assert decomp.off_sector_residual <= 1e-12
        # the trace covector is a left null vector of sector 0
        trace_vec = liouv.trace_covector()[decomp.sectors[0]]
        assert np.linalg.norm(decomp.sector(0).T @ np.conj(trace_vec)) <= 1e-12

    def test_decompositions_compare_by_identity(self):
        liouv = assemble(z2_lmg(4, -1.0, 0.5, 1.0, 1.0, 0.5), 2)
        decomp = decompose(liouv)
        assert decomp == decomp
        assert (decomp == decompose(liouv)) is False

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
    def test_block_diagonality_presets(self, n, k):
        for model in (
            z2_lmg(n, -1.0, 0.5, 1.0, 1.0, 0.5),
            two_mode_dicke(n, 1.5, 1.0, 5.0, 5.0),
        ):
            decomp = decompose(assemble(model, k))
            assert decomp.off_sector_residual <= 1e-12

    def test_dicke_sectors_match_brute_force(self):
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        liouv = assemble(model, 2)
        decomp = decompose(liouv)
        space = liouv.hierarchy
        d = liouv.d_s
        by_charge = {}
        for rank, idx in enumerate(space.indices):
            for i in range(d):
                for j in range(d):
                    charge = (i - j) + (idx[0] - idx[2]) - (idx[1] - idx[3])
                    by_charge.setdefault(charge, []).append(rank * d * d + i * d + j)
        assert sorted(by_charge) == decomp.charges_present()
        for charge, members in by_charge.items():
            assert np.array_equal(np.sort(members), decomp.sectors[charge])

    def test_wrong_charges_raise(self):
        model = z2_lmg(4, -1.0, 0.5, 1.0, 1.0, 0.5)
        liouv = assemble(model, 2)
        wrong = SymmetrySpec(tuple(range(5)), (0,), group_order=2)
        with pytest.raises(SymmetryViolationError):
            decompose(liouv, wrong)

    def test_no_spec_raises(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        with pytest.raises(MatrixValidationError):
            decompose(liouv)

    def test_union_of_sector_spectra_is_full_spectrum(self):
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        liouv = assemble(model, 2)
        decomp = decompose(liouv)
        full = np.linalg.eigvals(liouv.matrix.toarray())
        parts = np.concatenate(
            [np.linalg.eigvals(decomp.sector(c).toarray()) for c in decomp.charges_present()]
        )
        assert multiset_distance(full, parts) <= 1e-10

    def test_conjugation_pairs_opposite_charges(self):
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        decomp = decompose(assemble(model, 2))
        for charge in decomp.charges_present():
            if charge <= 0:
                continue
            plus = np.linalg.eigvals(decomp.sector(charge).toarray())
            minus = np.linalg.eigvals(decomp.sector(-charge).toarray())
            assert multiset_distance(plus, np.conj(minus)) <= 1e-10

    def test_embed_scatter(self):
        model = z2_lmg(2, -1.0, 0.5, 1.0, 1.0, 0.5)
        decomp = decompose(assemble(model, 1))
        local = np.arange(1, decomp.dimension(1) + 1, dtype=complex)
        full = decomp.embed(1, local)
        assert np.count_nonzero(full) == decomp.dimension(1)
        assert np.array_equal(full[decomp.sectors[1]], local)


class TestSectorLeadingEigs:
    def test_zero_sector_leads_with_zero(self):
        model = z2_lmg(4, -1.0, 0.5, 1.0, 1.0, 0.5)
        decomp = decompose(assemble(model, 3))
        res = sector_leading_eigs(decomp, 0, count=4)
        assert abs(res.eigenvalues[0]) <= 1e-10

    def test_ordering_contract(self):
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        decomp = decompose(assemble(model, 2))
        res = sector_leading_eigs(decomp, 1, count=5)
        re = np.abs(res.eigenvalues.real)
        assert all(a <= b + 1e-12 for a, b in zip(re, re[1:]))

    def test_missing_sector(self):
        model = z2_lmg(2, -1.0, 0.5, 1.0, 1.0, 0.5)
        decomp = decompose(assemble(model, 1))
        with pytest.raises(MatrixValidationError):
            decomp.sector(7)

    def test_matches_dense_sector_spectrum(self):
        # contract: the `count` eigenvalues nearest zero, then gap-ordered
        model = two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0)
        decomp = decompose(assemble(model, 2))
        res = sector_leading_eigs(decomp, 2, count=3)
        dense = np.linalg.eigvals(decomp.sector(2).toarray())
        nearest = dense[np.argsort(np.abs(dense))[:3]]
        assert multiset_distance(res.eigenvalues, nearest) <= 1e-8
