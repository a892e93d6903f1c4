import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from heomspectra.builder import (
    HeomState,
    adjoint_state,
    assemble,
    export_matrix,
    initial_state,
    propagate,
)
from heomspectra.errors import MatrixValidationError, SizeBudgetError
from heomspectra.hierarchy import enumerate_indices
from heomspectra.linalg import clean_sparse, kron, read_triplets
from heomspectra.models import BathSpec, BathTerm, custom, lmg, two_mode_dicke
from heomspectra.operators import qubit_operators

from conftest import make_qubit_decay, multiset_distance


def random_qubit_model(rng, amplitude=None):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2
    coupling = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if amplitude is None:
        amplitude = complex(rng.standard_normal(), rng.standard_normal())
    term = BathTerm(amplitude, float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.5, 2.0)))
    return custom(h, [BathSpec(coupling, (term,))], name="random_qubit")


def hand_blocks(model):
    """Independent construction of the vectorized blocks for one mode."""
    h = model.hamiltonian
    coupling = model.baths[0].coupling
    term = model.baths[0].terms[0]
    eye = np.eye(model.dim)
    om, kap, amp = term.frequency, term.decay, term.amplitude

    def drift(n, m):
        return (
            -1j * (np.kron(h, eye) - np.kron(eye, h.T))
            - ((n - m) * 1j * om + (n + m) * kap) * np.eye(model.dim**2)
        )

    lower_n = lambda n: amp * n * np.kron(coupling, eye)
    lower_m = lambda m: np.conj(amp) * m * np.kron(eye, coupling.conj())
    raise_n = np.kron(eye, coupling.conj()) - np.kron(coupling.conj().T, eye)
    return drift, lower_n, lower_m, raise_n, -raise_n.conj().T


def block(liouv, row, col):
    """The block of the assembled matrix at hierarchy indices ``(row, col)``."""
    d2 = liouv.d_s ** 2
    r, c = liouv.hierarchy.rank(row), liouv.hierarchy.rank(col)
    return liouv.matrix[r * d2 : (r + 1) * d2, c * d2 : (c + 1) * d2].toarray()


def reference_matrix(model, k_max):
    """The generator placed block by block, rank by rank, as triplets."""
    space = enumerate_indices(model.mode_count, k_max)
    rank_of = {index: rank for rank, index in enumerate(space.indices)}
    n_modes, d = model.mode_count, model.dim
    d2 = d * d
    identity = sp.identity(d, dtype=complex, format="csr")
    h = model.hamiltonian
    h_part = (-1j * (kron(h, identity) - kron(identity, h.T))).tocoo()
    templates = []
    for bath_index, term in model.slots():
        coupling = model.baths[bath_index].coupling
        left = kron(coupling, identity)
        right_conj = kron(identity, coupling.conj())
        templates.append(((term.amplitude * left).tocoo(),
                          (np.conj(term.amplitude) * right_conj).tocoo(),
                          (right_conj - kron(coupling.conj().T, identity)).tocoo(),
                          (left - kron(identity, coupling.T)).tocoo()))
    w = np.array([t.decay + 1j * t.frequency for _, t in model.slots()])
    indices = np.asarray(space.indices, dtype=np.int64)
    n_parts, m_parts = indices[:, :n_modes], indices[:, n_modes:]
    dampings = (n_parts - m_parts) @ (1j * w.imag) + (n_parts + m_parts) @ w.real
    rows, cols, data = [], [], []

    def place(template, block_row, block_col, scale=1.0):
        rows.append(template.row.astype(np.int64) + block_row * d2)
        cols.append(template.col.astype(np.int64) + block_col * d2)
        data.append(template.data * scale)

    def source(index, slot, step):
        shifted = list(index)
        shifted[slot] += step
        return rank_of.get(tuple(shifted))

    for rank, index in enumerate(space.indices):
        place(h_part, rank, rank)
        damping = dampings[rank]
        if damping != 0:
            diagonal = np.arange(d2, dtype=np.int64) + rank * d2
            rows.append(diagonal)
            cols.append(diagonal)
            data.append(np.full(d2, -damping, dtype=complex))
        for p, (lower_n, lower_m, raise_n, raise_m) in enumerate(templates):
            if index[p]:
                place(lower_n, rank, source(index, p, -1), scale=index[p])
            if index[n_modes + p]:
                place(lower_m, rank, source(index, n_modes + p, -1), scale=index[n_modes + p])
            for slot, template in ((p, raise_n), (n_modes + p, raise_m)):
                if source(index, slot, +1) is not None:
                    place(template, rank, source(index, slot, +1))
    dim = len(space) * d2
    return clean_sparse(sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)))


def three_mode_model():
    """Two baths on a qutrit, one with a complex and a zero amplitude: three modes."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    first = rng.standard_normal((3, 3))
    second = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    baths = [BathSpec(first + first.T, (BathTerm(0.7 + 0.3j, 1.1, 0.5), BathTerm(0.0, -0.4, 0.9))),
             BathSpec(second, (BathTerm(0.25, 0.3, 1.3),))]
    return custom(a + a.conj().T, baths)


@pytest.mark.parametrize("make, k_max", [
    (lambda: two_mode_dicke(2, 1.0, 1.0, 5.0, 5.0), 3),
    (lambda: lmg(6, 0.35, 1.0, 1.0, 1.0), 0),
    (three_mode_model, 4),
], ids=["two_mode_dicke", "lmg_k0", "three_modes"])
def test_assembly_is_byte_identical_to_the_rank_loop(make, k_max):
    model = make()
    matrix, reference = assemble(model, k_max).matrix, reference_matrix(model, k_max)
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(matrix, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


class TestBlockTemplates:
    """The coupling blocks that ``assemble`` places, sliced out by rank."""

    def test_zero_hamiltonian_drift(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.3, 0.0, 2.0),))
        model = custom(np.zeros((2, 2)), [bath])
        drift = block(assemble(model, 2), (1, 1), (1, 1))
        assert np.abs(drift + 4.0 * np.eye(4)).max() <= 1e-14  # -2 kappa * identity

    def test_lowering_coupling_vanishes_at_zero_index(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 3)
        space = liouv.hierarchy
        for n, m in space.indices:
            # the lowering coupling from (n - 1, m) carries the weight n
            expected = {(n, m), (n, m - 1), (n + 1, m), (n, m + 1)}
            if n:
                expected.add((n - 1, m))
            nonzero = {
                col for col in space.indices if np.abs(block(liouv, (n, m), col)).max() > 0
            }
            assert nonzero == expected & set(space.indices)

    def test_raising_block_pattern(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.3, 0.0, 2.0),))
        model = custom(np.zeros((2, 2)), [bath])
        eye = np.eye(2)
        expected = np.kron(eye, ops["sigma_minus"].conj()) - np.kron(
            ops["sigma_minus"].conj().T, eye
        )
        assert np.abs(block(assemble(model, 1), (0, 0), (1, 0)) - expected).max() == 0

    def test_templates_match_hand_blocks(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 3)
        drift, lower_n, lower_m, raise_n, raise_m = hand_blocks(model)
        assert np.abs(block(liouv, (2, 1), (2, 1)) - drift(2, 1)).max() <= 1e-14
        assert np.abs(block(liouv, (2, 0), (1, 0)) - lower_n(2)).max() <= 1e-14
        assert np.abs(block(liouv, (0, 3), (0, 2)) - lower_m(3)).max() <= 1e-14
        assert np.abs(block(liouv, (0, 0), (1, 0)) - raise_n).max() <= 1e-14
        assert np.abs(block(liouv, (0, 0), (0, 1)) - raise_m).max() <= 1e-14


class TestAssembleStructure:
    def test_k1_block_layout(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 1)
        drift, lower_n, lower_m, raise_n, raise_m = hand_blocks(model)
        zero = np.zeros((4, 4))
        golden = np.block(
            [
                [drift(0, 0), raise_m, raise_n],
                [lower_m(1), drift(0, 1), zero],
                [lower_n(1), zero, drift(1, 0)],
            ]
        )
        assert np.abs(liouv.matrix.toarray() - golden).max() <= 1e-14

    def test_k2_block_layout(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 2)
        drift, lower_n, lower_m, raise_n, raise_m = hand_blocks(model)
        z = np.zeros((4, 4))
        golden = np.block(
            [
                [drift(0, 0), raise_m, z, raise_n, z, z],
                [lower_m(1), drift(0, 1), raise_m, z, raise_n, z],
                [z, lower_m(2), drift(0, 2), z, z, z],
                [lower_n(1), z, z, drift(1, 0), raise_m, raise_n],
                [z, lower_n(1), z, lower_m(1), drift(1, 1), z],
                [z, z, z, lower_n(2), z, drift(2, 0)],
            ]
        )
        assert np.abs(liouv.matrix.toarray() - golden).max() <= 1e-14

    def test_decoupled_spectrum(self, rng):
        # zero amplitude decouples the hierarchy into independent blocks
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        om, kap = 0.8, 1.1
        bath = BathSpec(qubit_operators()["sigma_minus"], (BathTerm(0.0, om, kap),))
        model = custom(h, [bath])
        liouv = assemble(model, 3)
        mu = np.linalg.eigvalsh(h)
        expected = []
        for n, m in liouv.hierarchy.indices:
            for a in range(2):
                for b in range(2):
                    expected.append(
                        -1j * (mu[a] - mu[b]) - ((n - m) * 1j * om + (n + m) * kap)
                    )
        actual = np.linalg.eigvals(liouv.matrix.toarray())
        assert multiset_distance(actual, np.array(expected)) <= 1e-10

    def test_trace_preservation(self, rng):
        for model in (random_qubit_model(rng), make_qubit_decay()):
            for k in (1, 3, 5):
                liouv = assemble(model, k)
                assert liouv.trace_residual() <= 1e-12

    def test_block_sparsity_bound(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 4)
        k = len(liouv.hierarchy)
        coo, d2 = liouv.matrix.tocoo(), liouv.d_s * liouv.d_s
        blocks = set(zip((coo.row // d2).tolist(), (coo.col // d2).tolist()))
        assert len(blocks) <= k * (1 + 4 * model.mode_count)

    def test_adjoint_involution_commutes(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 3)
        x = rng.standard_normal(liouv.dim) + 1j * rng.standard_normal(liouv.dim)
        state = HeomState(x, liouv.hierarchy, liouv.d_s)
        lhs = adjoint_state(
            HeomState(liouv.matrix @ x, liouv.hierarchy, liouv.d_s)
        ).vector
        rhs = liouv.matrix @ adjoint_state(state).vector
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())

    def test_adjoint_permutation_swaps_and_transposes_blocks(self, rng):
        liouv = assemble(two_mode_dicke(2, 1.5, 1.0, 5.0, 5.0), 3)
        perm = liouv.solvable.involution
        assert np.array_equal(perm[perm], np.arange(liouv.dim))
        x = rng.standard_normal(liouv.dim) + 1j * rng.standard_normal(liouv.dim)
        state = HeomState(x, liouv.hierarchy, liouv.d_s)
        image = adjoint_state(state)
        space = liouv.hierarchy
        for index in space.indices:
            n, m = index[: space.n_modes], index[space.n_modes :]
            assert np.array_equal(image.block(m, n), state.block(n, m).conj().T)

    def test_spectrum_conjugation_symmetric(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 3)
        values = np.linalg.eigvals(liouv.matrix.toarray())
        assert multiset_distance(values, np.conj(values)) <= 1e-10

    def test_zero_eigenvalue_present(self, rng):
        model = random_qubit_model(rng)
        liouv = assemble(model, 3)
        values = np.linalg.eigvals(liouv.matrix.toarray())
        assert np.abs(values).min() <= 1e-10

    def test_dimension_budget(self, monkeypatch):
        monkeypatch.setattr("heomspectra.builder.DEFAULT_DIMENSION_BUDGET", 10)
        with pytest.raises(SizeBudgetError, match="stacked dimension 180"):
            assemble(make_qubit_decay(), 8)


class TestInitialState:
    def test_pure_ground(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = initial_state(rho, liouv.hierarchy)
        assert state.vector[0] == 1.0
        assert np.count_nonzero(state.vector) == 1
        assert np.trace(state.block((0,), (0,))) == 1.0

    def test_maximally_mixed(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        state = initial_state(np.eye(2) / 2, liouv.hierarchy)
        assert np.count_nonzero(state.vector) == 2
        assert np.allclose(state.physical(), np.eye(2) / 2)

    def test_invalid_states_rejected(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        with pytest.raises(MatrixValidationError):
            initial_state(np.diag([2.0, 0.0]), liouv.hierarchy)  # trace 2
        with pytest.raises(MatrixValidationError):
            initial_state(np.array([[0.5, 0.5], [0.0, 0.5]]), liouv.hierarchy)
        with pytest.raises(MatrixValidationError):
            initial_state(np.diag([1.5, -0.5]), liouv.hierarchy)  # not PSD


class TestPropagate:
    def test_zero_generator_keeps_state(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.5, 0.3, 1.0),))
        model = custom(np.zeros((2, 2)), [bath])
        liouv = assemble(model, 0)  # single block, zero drift
        assert liouv.matrix.nnz == 0
        state = initial_state(np.eye(2) / 2, liouv.hierarchy)
        out = propagate(liouv, state, np.linspace(0.0, 3.0, 7))
        for snapshot in out:
            assert np.abs(snapshot.vector - state.vector).max() <= 1e-10

    def test_free_coherence_rotation(self):
        model = make_qubit_decay(amplitude=0.0, omega_q=1.3)
        liouv = assemble(model, 2)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        t = np.linspace(0.0, 8.0, 25)
        out = propagate(liouv, initial_state(plus, liouv.hierarchy), t)
        for time_value, snapshot in zip(t, out):
            # excited-to-ground coherence <1|rho|0> rotates at -omega_q
            coherence = snapshot.physical()[1, 0]
            assert abs(coherence - 0.5 * np.exp(-1j * 1.3 * time_value)) <= 1e-8

    def test_grid_validation(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        state = initial_state(np.eye(2) / 2, liouv.hierarchy)
        with pytest.raises(MatrixValidationError):
            propagate(liouv, state, [1.0, 2.0])
        with pytest.raises(MatrixValidationError):
            propagate(liouv, state, [0.0, 2.0, 1.0])

    def test_state_dimension_validation(self, qubit_decay_model):
        liouv = assemble(qubit_decay_model, 1)
        short = HeomState(np.ones(4), assemble(qubit_decay_model, 0).hierarchy, 2)
        for grid in ([0.0], [0.0, 1.0]):
            with pytest.raises(MatrixValidationError):
                propagate(liouv, short, grid)

    def test_step_collapse_maps_to_stiffness_error(self, qubit_decay_model, monkeypatch):
        from heomspectra.embedding import EmbeddingSpec, initial_product_state, propagate_lm
        from heomspectra.errors import StiffnessError

        class FailedSolution:
            success = False
            message = "step size collapsed"

        monkeypatch.setattr("scipy.integrate.solve_ivp",
                            lambda *args, **kwargs: FailedSolution())
        liouv = assemble(qubit_decay_model, 1)
        state = initial_state(np.eye(2) / 2, liouv.hierarchy)
        with pytest.raises(StiffnessError, match="spectral"):
            propagate(liouv, state, [0.0, 1.0])
        spec = EmbeddingSpec(qubit_decay_model, (2,))
        with pytest.raises(StiffnessError, match="spectral"):
            propagate_lm(spec, initial_product_state(spec, np.eye(2) / 2), [0.0, 1.0])


def test_import_leaves_the_integrator_unloaded():
    # scipy.integrate is imported by the one integrator when it first runs
    # and neither the graph nor the spatial modules of scipy load at all
    code = ("import sys, heomspectra; print(sorted(m for m in ('scipy.integrate', "
            "'scipy.sparse.csgraph', 'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


# Prints whether scipy.sparse.linalg is loaded, and the dtype kind of each
# level-set LU built, after the import, after a real-form eigs and null of a
# z2_lmg sector, and after a complex solve of that sector without its involution.
SOLVER_IMPORTS = """
import json, sys
from heomspectra import linalg
from heomspectra.builder import assemble
from heomspectra.models import z2_lmg
from heomspectra.symmetry import decompose

built, original = [], linalg._LevelSetLU
linalg._LevelSetLU = lambda a: built.append(a.dtype.kind) or original(a)
steps = {}

def step(name):
    steps[name] = ["scipy.sparse.linalg" in sys.modules, built[:]]
    built.clear()

step("import")
sector = decompose(assemble(z2_lmg(4, -2.9, 0.5, 1.0, 1.0, 0.5), 3)).solvables[0]
sector.null(0.0, 2)  # before eigs, whose solve a later null would reuse
sector.eigs(0.0, 2)
step("real")
assert sector.matrix.shape[0] < linalg.LEVEL_LU_MIN_DIM
linalg.Solvable(sector.matrix).eigs(0.0, 2)
step("complex")
print(json.dumps(steps))
"""


def test_sparse_linalg_loads_only_for_superlu():
    # SuperLU, which factorizes complex matrices below LEVEL_LU_MIN_DIM, is
    # the one user of scipy.sparse.linalg, so real forms never load it
    out = subprocess.run([sys.executable, "-c", SOLVER_IMPORTS], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert json.loads(out.stdout) == {"import": [False, []], "real": [False, ["f", "f"]],
                                      "complex": [True, []]}


def test_generators_compare_by_identity(qubit_decay_model):
    liouv = assemble(qubit_decay_model, 1)
    assert liouv == liouv
    assert (liouv == assemble(qubit_decay_model, 1)) is False


def test_export_round_trip(tmp_path, qubit_decay_model):
    liouv = assemble(qubit_decay_model, 2)
    path = tmp_path / "liouv.txt"
    export_matrix(liouv, path)
    back = read_triplets(path)
    assert np.abs((back - liouv.matrix).toarray()).max() <= 1e-15


def test_block_outside_the_cut_is_a_validation_error(qubit_decay_model):
    state = initial_state(np.diag([1.0, 0.0]), assemble(qubit_decay_model, 3).hierarchy)
    with pytest.raises(MatrixValidationError, match=r"\(5, 0\).*k_max=3"):
        state.block((5,), (0,))
    assert np.allclose(state.block((0,), (0,)), np.diag([1.0, 0.0]))
