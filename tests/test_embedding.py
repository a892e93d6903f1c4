import dataclasses
import itertools

import numpy as np
import pytest

from heomspectra.builder import assemble, initial_state, propagate
from heomspectra.embedding import (
    EmbeddingSpec,
    boson_ops,
    build_lm,
    correlation_check,
    dimension_report,
    initial_product_state,
    propagate_lm,
    reduced_system_state,
    steady_state_lm,
    total_hamiltonian,
    trace_covector,
)
from heomspectra.errors import (
    EmbeddingUnsupportedError,
    MatrixValidationError,
    SizeBudgetError,
    SymmetryViolationError,
)
from heomspectra.linalg import devectorize, eig_dense, vectorize
from heomspectra.models import BathSpec, BathTerm, custom, lmg, two_mode_dicke, z2_lmg
from heomspectra.operators import SpinSpace, qubit_operators, spin_operators
from heomspectra.spectra import steady_state
from heomspectra.symmetry import SymmetrySpec

from conftest import make_qubit_decay


class TestBosonOps:
    def test_ladder_entries(self):
        ops = boson_ops(2)
        assert ops["a"][0, 1] == pytest.approx(1.0)
        assert ops["a"][1, 2] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(ops["a"]) == 2

    def test_commutator_truncation_corner(self):
        n_c = 4
        ops = boson_ops(n_c)
        comm = ops["a"] @ ops["a_dagger"] - ops["a_dagger"] @ ops["a"]
        expected = np.eye(n_c + 1)
        expected[n_c, n_c] = -n_c  # truncation artifact
        assert np.abs(comm - expected).max() <= 1e-12

    def test_number_operator(self):
        ops = boson_ops(3)
        assert np.abs(ops["number"] - ops["a_dagger"] @ ops["a"]).max() == 0

    def test_cutoff_validation(self):
        with pytest.raises(MatrixValidationError):
            boson_ops(0)


class TestBuildLm:
    def test_trace_preservation(self, qubit_decay_model):
        spec = EmbeddingSpec(qubit_decay_model, (4,))
        lm = build_lm(spec)
        w = trace_covector(spec)
        assert np.linalg.norm(lm.T @ np.conj(w)) <= 1e-12

    def test_embedding_budget(self, qubit_decay_model, monkeypatch):
        monkeypatch.setattr("heomspectra.embedding.DEFAULT_EMBEDDING_BUDGET", 99)
        with pytest.raises(SizeBudgetError, match="dimension 100"):
            build_lm(EmbeddingSpec(qubit_decay_model, (4,)))

    def test_complex_amplitude_rejected(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.1j, 0.0, 1.0),))
        model = custom(np.zeros((2, 2)), [bath])
        with pytest.raises(EmbeddingUnsupportedError):
            build_lm(EmbeddingSpec(model, (2,)))

    def test_hamiltonian_hermitian(self, qubit_decay_model):
        spec = EmbeddingSpec(qubit_decay_model, (3,))
        h = total_hamiltonian(spec).toarray()
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_cutoff_broadcast(self):
        model = lmg(2, 0.3, 1.0, 1.0, 1.0)
        spec = EmbeddingSpec(model, 3)
        assert spec.fock_cutoffs == (3,)
        assert spec.hilbert_dim == 3 * 4


class TestOracleEquivalence:
    def test_qubit_steady_state_matches(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 12)
        heom_phys, _ = steady_state(liouv)
        spec = EmbeddingSpec(qubit_decay_model, (12,))
        _, reduced = steady_state_lm(spec)
        assert np.abs(heom_phys.matrix - reduced).max() <= 1e-8

    def test_qubit_dynamics_agreement(self, qubit_decay_model):
        kappa = qubit_decay_model.params["kappa"]
        liouv = assemble(qubit_decay_model, 12)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        t = np.linspace(0.0, 10.0 / kappa, 50)
        sz = qubit_operators()["sigma_z"]
        heom_sz = [
            float(np.trace(sz @ s.physical()).real)
            for s in propagate(liouv, initial_state(plus, liouv.hierarchy), t)
        ]
        spec = EmbeddingSpec(qubit_decay_model, (12,))
        cols = propagate_lm(spec, initial_product_state(spec, plus), t)
        lm_sz = [
            float(np.trace(sz @ reduced_system_state(spec, cols[:, i])).real)
            for i in range(cols.shape[1])
        ]
        assert np.abs(np.array(heom_sz) - np.array(lm_sz)).max() <= 1e-6

    def test_low_lying_spectra_match(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 10)
        heom_vals = np.linalg.eigvals(liouv.matrix.toarray())
        spec = EmbeddingSpec(qubit_decay_model, (10,))
        lm_vals = np.linalg.eigvals(build_lm(spec).toarray())
        # every low-lying hierarchy eigenvalue appears in the embedding
        order = np.argsort(np.abs(heom_vals))
        for value in heom_vals[order[:8]]:
            assert np.abs(lm_vals - value).min() <= 1e-6

    def test_small_spin_steady_state(self):
        model = lmg(4, 0.3, 1.0, 1.0, 1.0)
        liouv = assemble(model, 8)
        heom_phys, _ = steady_state(liouv)
        spec = EmbeddingSpec(model, (8,))
        _, reduced = steady_state_lm(spec)
        sz = spin_operators(SpinSpace(4))["Sz"]
        diff = abs(np.trace(sz @ heom_phys.matrix).real - np.trace(sz @ reduced).real)
        assert diff <= 1e-4

    @pytest.mark.parametrize(
        "model,cutoff",
        [
            (lmg(2, 0.4, 1.0, 1.0, 1.0), 9),
            (z2_lmg(2, -0.6, 0.5, 1.0, 1.0, 0.5), 9),
            (two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0), 6),
        ],
        ids=["lmg", "z2_lmg", "two_mode_dicke"],
    )
    def test_preset_steady_states_agree(self, model, cutoff):
        liouv = assemble(model, cutoff)
        heom_phys, _ = steady_state(liouv)
        spec = EmbeddingSpec(model, cutoff)
        _, reduced = steady_state_lm(spec)
        sz = spin_operators(SpinSpace(model.size))["Sz"]
        diff = abs(np.trace(sz @ heom_phys.matrix).real - np.trace(sz @ reduced).real)
        assert diff <= 1e-4

    def test_spin_model_dynamics_agree(self):
        model = lmg(2, 0.4, 1.0, 1.0, 1.0)
        cutoff = 9
        liouv = assemble(model, cutoff)
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        grid = np.linspace(0.0, 10.0, 50)
        sz = spin_operators(SpinSpace(2))["Sz"]
        heom_sz = np.array(
            [
                float(np.trace(sz @ s.physical()).real)
                for s in propagate(liouv, initial_state(rho0, liouv.hierarchy), grid)
            ]
        )
        spec = EmbeddingSpec(model, cutoff)
        cols = propagate_lm(spec, initial_product_state(spec, rho0), grid)
        lm_sz = np.array(
            [
                float(np.trace(sz @ reduced_system_state(spec, cols[:, i])).real)
                for i in range(cols.shape[1])
            ]
        )
        assert np.abs(heom_sz - lm_sz).max() <= 1e-6


def element_charges(spec):
    """Charge of each basis element |i,n><j,m|, written out per composite state."""
    sym = spec.model.symmetry
    slot_c = [sym.bath_charges[bath] for bath, _ in spec.model.slots()]
    side = np.array([
        sym.system_charges[i] + sum(c * n for c, n in zip(slot_c, occupations))
        for i in range(spec.model.dim)
        for occupations in itertools.product(*map(range, spec.mode_dims))
    ])
    return sym.reduce((side[:, None] - side[None, :]).ravel())


class TestChargeZeroEmbedding:
    @pytest.mark.parametrize(
        "model,cutoffs,dim0",
        [
            (lmg(2, 0.4, 1.0, 1.0, 1.0), (2,), 41),
            (two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0), (2, 2), 141),
        ],
        ids=["lmg", "two_mode_dicke"],
    )
    def test_matches_the_full_null_vector(self, model, cutoffs, dim0, factorized):
        # the steady-state rule of both pictures factorizes the charge-0 block,
        # in its real form
        spec = EmbeddingSpec(model, cutoffs)
        rho, _ = steady_state_lm(spec)
        charges = element_charges(spec)
        assert factorized == [(dim0, "f")] == [(int(np.sum(charges == 0)), "f")]
        full = eig_dense(build_lm(spec))
        null = devectorize(full.right_vectors[:, np.argmin(np.abs(full.eigenvalues))],
                           spec.hilbert_dim)
        assert np.abs(rho - null / np.trace(null)).max() <= 1e-10
        assert np.all(vectorize(rho)[charges != 0] == 0)

    @pytest.mark.parametrize(
        "model,wrong",
        [
            (lmg(2, 0.4, 1.0, 1.0, 1.0), SymmetrySpec((0, 1, 2), (0,), group_order=2)),
            (two_mode_dicke(2, 1.2, 1.0, 5.0, 5.0), SymmetrySpec((0, 1, 2), (-1, 1))),
        ],
        ids=["lmg", "two_mode_dicke_opposite_sign"],
    )
    def test_wrong_spec_raises(self, model, wrong):
        spec = EmbeddingSpec(dataclasses.replace(model, symmetry=wrong), 2)
        with pytest.raises(SymmetryViolationError):
            steady_state_lm(spec)


class TestPropagateLm:
    @pytest.mark.parametrize("grid", [[0.0], [0.0, 1.0]])
    def test_state_dimension_validation(self, qubit_decay_model, grid):
        spec = EmbeddingSpec(qubit_decay_model, (2,))
        assert build_lm(spec).shape == (36, 36)
        with pytest.raises(MatrixValidationError):
            propagate_lm(spec, np.ones(5, dtype=complex), grid)

    def test_grid_validation(self, qubit_decay_model):
        spec = EmbeddingSpec(qubit_decay_model, (2,))
        rho0 = initial_product_state(spec, np.eye(2) / 2)
        for grid in ([1.0, 2.0], [0.0, 2.0, 1.0], []):
            with pytest.raises(MatrixValidationError):
                propagate_lm(spec, rho0, grid)

    def test_single_point_returns_a_copy(self, qubit_decay_model):
        spec = EmbeddingSpec(qubit_decay_model, (2,))
        rho0 = initial_product_state(spec, np.eye(2) / 2)
        cols = propagate_lm(spec, rho0, [0.0])
        assert cols.shape == (36, 1) and np.array_equal(cols[:, 0], rho0)
        cols[0, 0] += 1.0
        assert not np.array_equal(cols[:, 0], rho0)


@pytest.fixture(scope="module")
def steady_pair():
    model = make_qubit_decay()
    liouv = assemble(model, 12)
    _, heom_full = steady_state(liouv)
    spec = EmbeddingSpec(model, (12,))
    rho_tot, _ = steady_state_lm(spec)
    return spec, heom_full, vectorize(rho_tot)


class TestCorrelationCheck:

    def test_trace_identity(self, steady_pair):
        spec, heom_full, lm_vec = steady_pair
        assert correlation_check(spec, heom_full, lm_vec, 0, 0) <= 1e-12

    def test_occupation_identity(self, steady_pair):
        spec, heom_full, lm_vec = steady_pair
        assert correlation_check(spec, heom_full, lm_vec, 1, 1) <= 1e-6

    def test_out_of_truncation(self, steady_pair):
        spec, heom_full, lm_vec = steady_pair
        with pytest.raises(MatrixValidationError):
            correlation_check(spec, heom_full, lm_vec, 10, 3)

    def test_decoupled_both_sides_vanish(self):
        # no dissipation means no unique steady state; compare evolved states
        model = make_qubit_decay(amplitude=0.0)
        liouv = assemble(model, 4)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        heom_state = propagate(liouv, initial_state(plus, liouv.hierarchy), [0.0, 2.0])[-1]
        spec = EmbeddingSpec(model, (4,))
        cols = propagate_lm(spec, initial_product_state(spec, plus), [0.0, 2.0])
        assert correlation_check(spec, heom_state, cols[:, -1], 1, 1) <= 1e-10
        assert abs(np.trace(heom_state.block((1,), (1,)))) <= 1e-12


class TestDimensionReport:
    def test_qubit_single_mode(self, qubit_decay_model):
        report = dimension_report(qubit_decay_model, 1)
        assert report["dim_heom"] == 12.0

    def test_superoperator_convention(self, qubit_decay_model):
        report = dimension_report(qubit_decay_model, 3)
        assert report["dim_lm"] == 4 * 16 * 16 / 16  # d_s^2 (N_c + 1)^2 = 4 * 16
        assert report["dim_lm"] == 64.0

    def test_two_mode_ratio(self):
        model = lmg(2, 0.3, 1.0, 1.0, 1.0)
        from heomspectra.models import two_mode_dicke

        dicke = two_mode_dicke(2, 1.0, 1.0, 5.0, 5.0)
        # d_s = 3 here; rescale to the d_s = 2 reference by hand
        report = dimension_report(dicke, 2)
        assert report["dim_heom"] / 9 == 15.0
        assert report["dim_lm"] / 9 == 81.0
        assert report["ratio"] == pytest.approx(15.0 / 81.0)
