import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from heomspectra.builder import assemble
from heomspectra.embedding import EmbeddingSpec, steady_state_lm
from heomspectra.errors import (
    DegenerateSteadyStateError,
    ExtractionError,
    MatrixValidationError,
)
from heomspectra.linalg import Solvable, eig_dense
from heomspectra.models import BathSpec, BathTerm, custom, lmg, two_mode_dicke, z2_lmg
from heomspectra.operators import SpinSpace, qubit_operators, spin_operators
from heomspectra.spectra import (
    canonical_physical_state,
    check_properties,
    expectation,
    _null_vector,
    gap,
    spectrum,
    steady_state,
)
from heomspectra.symmetry import SymmetrySpec, decompose


class TestSteadyState:
    def test_qubit_decay_dark_state(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 6)
        state, full = steady_state(liouv)
        assert np.abs(state.matrix - np.diag([1.0, 0.0])).max() <= 1e-8
        assert state.trace == 1.0
        assert state.hermiticity_defect <= 1e-8
        assert state.min_eigenvalue >= -1e-8
        # idempotence: the full hierarchy vector is a null vector
        norm = np.abs(liouv.matrix).sum(axis=1).max()
        assert np.linalg.norm(liouv.matrix @ full.vector) <= 1e-9 * norm

    def test_lmg_deep_below_transition(self):
        model = lmg(20, 0.05, 1.0, 1.0, 1.0)
        liouv = assemble(model, 5)
        state, _ = steady_state(liouv)
        sz = spin_operators(SpinSpace(20))["Sz"]
        assert abs(expectation(state, sz) / 10 - (-1.0)) <= 0.05

    def test_sector_target(self):
        model = lmg(6, 0.3, 1.0, 1.0, 1.0)
        liouv = assemble(model, 4)
        from heomspectra.symmetry import SymmetrySpec

        parity = SymmetrySpec(tuple(range(7)), (1,), group_order=2)
        decomp = decompose(liouv, parity)
        state_full, _ = steady_state(liouv)
        state_sector, _ = steady_state(decomp, charge=0)
        assert np.abs(state_full.matrix - state_sector.matrix).max() <= 1e-8

    def test_degenerate_null_space_rejected(self):
        # two disconnected zero modes: a diagonal generator with two zeros
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.0, 0.0, 1.0),))
        model = custom(np.zeros((2, 2)), [bath], name="flat")
        liouv = assemble(model, 0)  # generator is exactly zero (4 null modes)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouv)
        # the embedding picture applies the same rule to its null space
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_lm(EmbeddingSpec(model, 2))

    def test_zero_trace_extraction_error(self):
        with pytest.raises(ExtractionError):
            canonical_physical_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestChargeZeroSteadyState:
    @pytest.mark.parametrize("model", [
        lmg(4, 0.3, 1.0, 1.0, 1.0),
        two_mode_dicke(2, 1.5, 1.0, 5.0, 5.0),
    ], ids=["lmg", "two_mode_dicke"])
    def test_matches_the_full_null_vector(self, model):
        liouv = assemble(model, 3)
        _, state = steady_state(liouv)
        full = eig_dense(liouv.matrix)
        null = full.right_vectors[:, np.argmin(np.abs(full.eigenvalues))]
        null = null / np.trace(null[: liouv.d_s**2].reshape(liouv.d_s, liouv.d_s))
        assert np.abs(state.vector - null).max() <= 1e-10
        outside = decompose(liouv).charges != 0
        assert outside.any() and np.all(state.vector[outside] == 0)

    def test_persistent_mode_outside_charge_zero_is_not_a_steady_state(self):
        # A decaying qubit plus a bath whose mode neither decays nor couples:
        # its auxiliary blocks carry charge +-1 and near-zero eigenvalues.
        ops = qubit_operators()
        decay = BathSpec(ops["sigma_minus"], (BathTerm(0.2, 0.5, 1.0),))
        frozen = BathSpec(ops["sigma_minus"], (BathTerm(0.0, 0.0, 1e-12),))
        model = custom(0.5 * ops["sigma_z"], [decay, frozen],
                       symmetry=SymmetrySpec((0, 1), (1, 1)))
        liouv = assemble(model, 1)
        values = spectrum(liouv, count=8).eigenvalues
        assert np.sum(np.abs(values) < 1e-9) == 5
        state, _ = steady_state(liouv)
        assert np.abs(state.matrix - np.diag([1.0, 0.0])).max() <= 1e-10
        plain = assemble(dataclasses.replace(model, symmetry=None), 1)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(plain)

    def test_degenerate_charge_zero_still_rejected(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.0, 0.0, 1.0),))
        model = custom(np.zeros((2, 2)), [bath], name="flat",
                       symmetry=SymmetrySpec((0, 1), (1,)))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(assemble(model, 0))

    def test_sector_other_than_charge_zero_raises_before_solving(self, refined_calls):
        # its nearest eigenvalues are a conjugate pair far from zero, on which
        # inverse iteration would run all its solves
        decomp = decompose(assemble(z2_lmg(4, -2.9, 0.5, 1.0, 1.0, 0.5), 3))
        with pytest.raises(ExtractionError, match="no trace"):
            steady_state(decomp, charge=1)
        assert refined_calls == []


class TestSparseNullVector:
    """The null-vector rule above the dense fallback: inverse iteration on one LU."""

    @pytest.fixture(scope="class")
    def sector(self):
        sector = decompose(assemble(lmg(4, 0.3, 1.0, 1.0, 1.0), 3)).sector(0)
        assert sector.shape == (124, 124)
        return sector

    def test_degenerate_block_diagonal_raises(self, sector, refined_calls):
        doubled = sp.block_diag([sector, sector], format="csr")
        assert doubled.shape == (248, 248)
        with pytest.raises(DegenerateSteadyStateError):
            _null_vector(Solvable(doubled), 6, 1e-10, 0, 0.0)
        assert len(refined_calls) == 1

    def test_no_zero_eigenvalue_raises(self, sector, refined_calls):
        shifted = (sector - 0.3 * sp.identity(124, format="csr")).tocsr()
        with pytest.raises(ExtractionError):
            _null_vector(Solvable(shifted), 6, 1e-10, 0, 0.0)
        assert len(refined_calls) == 1

    def test_matches_the_dense_null_vector(self, sector, eig_calls, refined_calls):
        vector = _null_vector(Solvable(sector), 6, 1e-10, 0, 0.0)
        full = eig_dense(sector)
        null = full.right_vectors[:, np.argmin(np.abs(full.eigenvalues))]
        k = np.argmax(np.abs(null))
        assert np.abs(vector / vector[k] - null / null[k]).max() <= 1e-10
        assert eig_calls == [] and len(refined_calls) == 1


class TestGap:
    def test_decoupled_qubit_gap(self):
        # zero amplitude, zero Hamiltonian, frequency 0: slowest decay -kappa
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.0, 0.0, 0.7),))
        model = custom(np.zeros((2, 2)), [bath], name="decoupled")
        liouv = assemble(model, 3)
        value = gap(liouv, count=8)
        assert value == pytest.approx(-0.7, abs=1e-10)

    def test_one_dimensional_sector_error(self, qubit_decay_model):
        # the decay model conserves excitation number, and its extreme charge
        # sector holds a single basis element
        liouv = assemble(qubit_decay_model, 1)
        from heomspectra.symmetry import SymmetrySpec

        spec = SymmetrySpec((0, 1), (1,), group_order=0)
        decomp = decompose(liouv, spec)
        smallest = min(decomp.charges_present(), key=decomp.dimension)
        assert decomp.dimension(smallest) == 1
        with pytest.raises(MatrixValidationError):
            gap(decomp, charge=smallest)

    def test_gap_real_part_negative(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 5)
        assert gap(liouv).real < 0


class TestSpectrumOverSectors:
    @pytest.mark.parametrize("model, k_max", [
        (lmg(6, 0.3, 1.0, 1.0, 1.0), 4),
        (z2_lmg(8, -1.45, 0.5, 1.0, 1.0, 0.5), 2),
        (two_mode_dicke(4, 1.0, 1.0, 5.0, 5.0), 4),
    ], ids=["lmg", "z2_lmg", "two_mode_dicke"])
    def test_matches_the_full_solve(self, model, k_max):
        liouv = assemble(model, k_max)
        sectors = spectrum(decompose(liouv), charge=None, count=6)
        full = spectrum(liouv, count=6)
        assert np.abs(sectors.eigenvalues - full.eigenvalues).max() <= 1e-10
        residuals = np.linalg.norm(
            liouv.matrix @ sectors.vectors - sectors.vectors * sectors.eigenvalues, axis=0)
        assert residuals.max() <= 1e-10
        assert gap(decompose(liouv), charge=None) == pytest.approx(gap(liouv), abs=1e-10)

    def test_a_generator_ignores_charge_none(self):
        liouv = assemble(lmg(2, 0.3, 1.0, 1.0, 1.0), 2)
        full = spectrum(liouv, count=6)
        assert np.array_equal(spectrum(liouv, charge=None, count=6).eigenvalues, full.eigenvalues)
        assert spectrum(decompose(liouv), charge=None).eigenvalues.size == 6  # count defaults to 6

    def test_u1_solves_the_charges_q_at_least_0(self, factorized):
        from heomspectra.linalg import TARGETED_DENSE_FALLBACK

        decomp = decompose(assemble(two_mode_dicke(4, 1.0, 1.0, 5.0, 5.0), 4))
        kept = [q for q in decomp.charges_present() if q >= 0]
        assert decomp.representative_charges() == {q: -q if q else None for q in kept}
        spectrum(decomp, charge=None, count=6)
        solved = [q for q in decomp.charges_present() if decomp.solvable(q)._solves]
        assert solved == kept
        # charge 0 in real arithmetic, each q > 0 in complex, no full generator
        assert factorized == [(decomp.dimension(q), "c" if q else "f") for q in kept
                              if decomp.dimension(q) > TARGETED_DENSE_FALLBACK]

    def test_a_non_real_shift_solves_every_charge(self):
        liouv = assemble(two_mode_dicke(4, 1.0, 1.0, 5.0, 5.0), 2)
        decomp = decompose(liouv)
        shift = -0.1 + 0.5j
        assert decomp.representative_charges(shift) == dict.fromkeys(decomp.charges_present())
        sectors = spectrum(decomp, charge=None, count=6, shift=shift)
        assert all(decomp.solvable(q)._solves for q in decomp.charges_present())
        full = spectrum(liouv, count=6, shift=shift)
        assert np.abs(sectors.eigenvalues - full.eigenvalues).max() <= 1e-10


class TestExpectation:
    def test_identity(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 3)
        state, _ = steady_state(liouv)
        assert expectation(state, np.eye(2)) == pytest.approx(1.0)

    def test_projector_reads_diagonal(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert expectation(rho, np.diag([1.0, 0.0])) == pytest.approx(0.7)

    def test_traceless_on_mixed(self):
        sz = spin_operators(SpinSpace(4))["Sz"]
        assert expectation(np.eye(5) / 5, sz) == pytest.approx(0.0)

    def test_non_hermitian_returns_complex(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        value = expectation(rho, qubit_operators()["sigma_minus"])
        assert isinstance(value, complex)

    def test_shape_mismatch(self):
        with pytest.raises(MatrixValidationError):
            expectation(np.eye(2), np.eye(3))


class TestCheckProperties:
    def test_exact_properties_on_qubit(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 5)
        report = check_properties(liouv, mode="full")
        assert sorted(report.residuals) == sorted(
            ["conjugate_pairing", "trace_covector", "zero_eigenvalue",
             "max_real_part", "decaying_trace"]
        )
        assert set(report.checked.values()) == {"full"}
        assert report.residuals["conjugate_pairing"] <= 1e-10
        assert report.residuals["trace_covector"] <= 1e-12
        assert report.residuals["zero_eigenvalue"] <= 1e-10

    def test_sampled_mode(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 5)
        report = check_properties(liouv, mode="sampled", count=10)
        assert report.checked["zero_eigenvalue"] == "sampled"
        assert report.residuals["zero_eigenvalue"] <= 1e-10
        assert report.residuals["trace_covector"] <= 1e-12

    def test_invalid_mode(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        with pytest.raises(MatrixValidationError):
            check_properties(liouv, mode="nope")


class TestOrdering:
    def test_deterministic_ordering(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 4)
        first = spectrum(liouv, count=8)
        second = spectrum(liouv, count=8)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)

    def test_order_key(self):
        from heomspectra.symmetry import leading_order

        values = np.array([-1.0 + 0j, -0.5 + 2j, -0.5 - 2j, 0.0 + 0j, -0.5 + 1j])
        order = leading_order(values)
        ordered = values[order]
        assert ordered[0] == 0.0
        assert ordered[1] == -0.5 + 1j
        assert ordered[2] == -0.5 + 2j
        assert ordered[3] == -0.5 - 2j
        assert ordered[4] == -1.0
