import dataclasses

import numpy as np
import pytest

from heomspectra import dpt
from heomspectra.builder import assemble
from heomspectra.dpt import (
    extrapolate,
    fidelity,
    hermitian_phase,
    reconstruct_mixture,
    split_phases,
    ssb_pair,
)
from heomspectra.errors import (
    MatrixValidationError,
    PhaseSplitError,
    RealnessGateError,
)
from heomspectra.models import z2_lmg
from heomspectra.spectra import steady_state
from heomspectra.symmetry import decompose

from conftest import random_density


def random_traceless_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = (m + m.conj().T) / 2
    return m - np.trace(m) * np.eye(n) / n


class TestSplitPhases:
    def test_balanced_qubit(self):
        pair = split_phases(np.diag([0.5, -0.5]))
        assert np.abs(pair.rho_plus.matrix - np.diag([1.0, 0.0])).max() <= 1e-14
        assert np.abs(pair.rho_minus.matrix - np.diag([0.0, 1.0])).max() <= 1e-14

    def test_three_level_weights(self):
        pair = split_phases(np.diag([0.3, 0.1, -0.4]))
        assert np.abs(pair.rho_plus.matrix - np.diag([0.75, 0.25, 0.0])).max() <= 1e-12
        assert np.abs(pair.rho_minus.matrix - np.diag([0.0, 0.0, 1.0])).max() <= 1e-12

    def test_orthogonality(self, rng):
        for _ in range(10):
            m = random_traceless_hermitian(rng, 6)
            pair = split_phases(m)
            assert pair.overlap <= 1e-8

    def test_split_then_reconstruct_difference(self, rng):
        # the input is recovered from the pair up to overall scale
        m = random_traceless_hermitian(rng, 5)
        pair = split_phases(m)
        w = np.linalg.eigvalsh(m)
        plus_weight = w[w > 0].sum()
        recovered = plus_weight * (pair.rho_plus.matrix - pair.rho_minus.matrix)
        assert np.abs(recovered - m).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(MatrixValidationError):
            split_phases(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(MatrixValidationError):
            split_phases(np.diag([1.0, 0.0]))

    def test_rejects_single_sign(self):
        with pytest.raises(PhaseSplitError):
            split_phases(np.diag([1e-14, -1e-14]))


class TestReconstructAndFidelity:
    def test_mixture_of_projectors(self):
        pair = split_phases(np.diag([0.5, -0.5]))
        mix = reconstruct_mixture(pair)
        assert np.abs(mix.matrix - np.eye(2) / 2).max() <= 1e-14
        assert mix.trace == 1.0

    def test_fidelity_identity(self, rng):
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_orthogonal_projectors(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_closed_form(self, rng):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        value = fidelity(np.diag(p), np.diag(q))
        assert value == pytest.approx(np.sum(np.sqrt(p * q)), abs=1e-10)
        assert fidelity(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_symmetry(self, rng):
        rho, sigma = random_density(rng, 5), random_density(rng, 5)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-10

    def test_monotone_under_mixing(self, rng):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        eps = 1e-3
        value = fidelity(rho, (1 - eps) * rho + eps * sigma)
        assert value >= 1 - 2 * eps


class TestHermitianPhase:
    def test_recovers_rotated_hermitian(self, rng):
        h = random_traceless_hermitian(rng, 4)
        rotated, defect = hermitian_phase(np.exp(1.23j) * h)
        assert defect <= 1e-12
        # recovered up to a global sign
        assert min(np.abs(rotated - h).max(), np.abs(rotated + h).max()) <= 1e-10

    def test_null_input_rejected(self):
        with pytest.raises(MatrixValidationError):
            hermitian_phase(np.zeros((2, 2)))


@pytest.fixture(scope="module")
def broken_decomp():
    # deep inside the symmetry-broken region of the parity model
    model = z2_lmg(10, -1.25, 0.5, 1.0, 1.0, 0.5)
    liouv = assemble(model, 6)
    return decompose(liouv), model


class TestSsbPair:

    def test_sector_vectors_orthogonal(self, broken_decomp):
        decomp, model = broken_decomp
        from heomspectra.symmetry import sector_leading_eigs

        lead0 = sector_leading_eigs(decomp, 0, count=2)
        lead1 = sector_leading_eigs(decomp, 1, count=2)
        v0 = decomp.embed(0, lead0.right_vectors[:, 0])
        v1 = decomp.embed(1, lead1.right_vectors[:, 0])
        assert abs(np.vdot(v0, v1)) <= 1e-10

    def test_pair_is_orthogonal_and_normalized(self, broken_decomp):
        decomp, model = broken_decomp
        pair = ssb_pair(decomp, model.params["omega"])
        assert pair.overlap <= 1e-8
        assert np.trace(pair.rho_plus.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert pair.rho_plus.min_eigenvalue >= -1e-8

    def test_reconstruction_close_to_steady_state(self, broken_decomp):
        # high fidelity already at this small size; the acceptance suite
        # checks the tighter large-size threshold
        decomp, model = broken_decomp
        pair = ssb_pair(decomp, model.params["omega"])
        state, _ = steady_state(decomp, charge=0)
        assert fidelity(reconstruct_mixture(pair), state) > 0.95

    def test_parity_swaps_the_pair(self, broken_decomp):
        decomp, model = broken_decomp
        pair = ssb_pair(decomp, model.params["omega"])
        parity = np.diag([(-1.0) ** i for i in range(model.dim)])
        swapped = parity @ pair.rho_plus.matrix @ parity
        assert np.abs(swapped - pair.rho_minus.matrix).max() <= 1e-8

    @pytest.mark.parametrize("factor", [-1.0, np.exp(0.7j)])
    def test_labels_ignore_the_eigenvector_phase(self, broken_decomp, monkeypatch, factor):
        decomp, model = broken_decomp
        pair = ssb_pair(decomp, model.params["omega"])
        original = dpt.sector_leading_eigs

        def rephased(*args, **kwargs):
            res = original(*args, **kwargs)
            return dataclasses.replace(res, right_vectors=factor * res.right_vectors)

        monkeypatch.setattr(dpt, "sector_leading_eigs", rephased)
        other = ssb_pair(decomp, model.params["omega"])
        tol = 0.0 if factor == -1.0 else 1e-10
        assert np.abs(other.rho_plus.matrix - pair.rho_plus.matrix).max() <= tol
        assert np.abs(other.rho_minus.matrix - pair.rho_minus.matrix).max() <= tol

    def test_gate_enforced(self):
        # weakly broken region: the tracked eigenvalue keeps a large
        # imaginary part at small size, tripping the realness gate
        model = z2_lmg(4, 0.2, 0.5, 1.0, 1.0, 0.5)
        decomp = decompose(assemble(model, 4))
        with pytest.raises(RealnessGateError):
            ssb_pair(decomp, model.params["omega"])

    @pytest.mark.parametrize("count", [4, 10])
    def test_count_above_the_sector_dimension_is_clipped(self, count):
        decomp = decompose(assemble(z2_lmg(2, -1.45, 0.5, 1.0, 1.0, 0.5), 0))
        assert decomp.dimension(1) == 4
        with pytest.raises(RealnessGateError):
            ssb_pair(decomp, 1.0, count=count)

    def test_requires_order_two(self):
        from heomspectra.models import two_mode_dicke

        model = two_mode_dicke(2, 1.0, 1.0, 5.0, 5.0)
        decomp = decompose(assemble(model, 2))
        with pytest.raises(MatrixValidationError):
            ssb_pair(decomp, 5.0)


class TestExtrapolate:
    def test_linear_in_inverse_size(self):
        values = [(50, 3 + 5 / 50), (100, 3 + 5 / 100)]
        assert extrapolate(values) == pytest.approx(3.0, abs=1e-12)

    def test_constant(self):
        assert extrapolate([(10, 4.2), (20, 4.2), (30, 4.2)]) == pytest.approx(4.2)

    def test_quadratic_bias_documented(self):
        values = [(50, 1 / 50**2), (100, 1 / 100**2)]
        assert extrapolate(values) == pytest.approx(-2e-4, abs=1e-12)

    def test_uses_two_largest(self):
        # the smallest point must not influence the result
        base = [(50, 3 + 5 / 50), (100, 3 + 5 / 100)]
        assert extrapolate([(2, 99.0)] + base) == pytest.approx(3.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(MatrixValidationError):
            extrapolate([(10, 1.0)])
        with pytest.raises(MatrixValidationError):
            extrapolate([(10, 1.0), (10, 2.0)])
