import math

import numpy as np
import pytest

from heomspectra.builder import assemble
from heomspectra.errors import MatrixValidationError
from heomspectra.models import (
    BathSpec,
    BathTerm,
    correlation,
    custom,
    dicke_critical_coupling,
    lmg,
    two_mode_dicke,
    z2_lmg,
)
from heomspectra.operators import qubit_operators
from heomspectra.symmetry import SymmetrySpec, decompose

from conftest import make_qubit_decay


class TestBathTypes:
    def test_term_validation(self):
        with pytest.raises(MatrixValidationError):
            BathTerm(1.0, 0.0, 0.0)
        with pytest.raises(MatrixValidationError):
            BathTerm(1.0, np.inf, 1.0)

    def test_empty_terms_rejected(self):
        with pytest.raises(MatrixValidationError):
            BathSpec(np.eye(2), ())

    def test_non_square_coupling_rejected(self):
        with pytest.raises(MatrixValidationError):
            BathSpec(np.zeros((2, 3)), (BathTerm(1.0, 0.0, 1.0),))


class TestCorrelation:
    def test_lmg_value_at_zero(self):
        model = lmg(10, 0.3, 1.0, 1.0, 1.0)
        assert correlation(model.baths[0], 0.0) == pytest.approx(1.0 / 20)

    def test_single_term_decay(self):
        bath = BathSpec(np.eye(2), (BathTerm(0.7, 0.0, 2.0),))
        assert correlation(bath, 0.5) == pytest.approx(0.7 * math.exp(-1.0))

    def test_monotone_envelope(self):
        bath = BathSpec(np.eye(2), (BathTerm(0.7, 1.3, 0.8),))
        taus = np.linspace(0.0, 5.0, 40)
        mags = [abs(correlation(bath, t)) for t in taus]
        assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))

    def test_conjugation_for_real_amplitude(self):
        bath = BathSpec(np.eye(2), (BathTerm(0.4, 0.9, 1.1),))
        for tau in (0.3, 1.7, 4.0):
            assert correlation(bath, -tau) == pytest.approx(
                np.conj(correlation(bath, tau))
            )


class TestPresets:
    def test_lmg_reference_and_amplitude(self):
        model = lmg(10, 0.3, 1.0, 1.0, 1.0)
        assert model.reference_criticals["g_c_markovian"] == 0.5
        assert model.baths[0].terms[0].amplitude == pytest.approx(0.05)
        assert model.params["g"] == pytest.approx(0.3)

    def test_lmg_hamiltonian_small_n(self):
        # N = 2: Sp^2 + Sm^2 only connects the extreme Sz states.
        model = lmg(2, 1.0, 1.0, 1.0, 1.0)
        h = model.hamiltonian
        expected = np.zeros((3, 3))
        expected[2, 0] = expected[0, 2] = 2 * 1.0 / 4  # ladder product / (2N)
        assert np.abs(h - expected).max() <= 1e-12

    def test_lmg_rejects_nonpositive_rates(self):
        with pytest.raises(MatrixValidationError):
            lmg(4, 1.0, -1.0, 1.0, 0.0)
        with pytest.raises(MatrixValidationError):
            lmg(4, 1.0, 1.0, 0.0, 0.0)

    def test_z2_reference_set_only_on_matching_parameters(self):
        model = z2_lmg(4, 1.0, 0.5, 1.0, 1.0, 0.5)
        assert model.reference_criticals == {"g_c1": -0.75, "g_c2": 1.0}
        other = z2_lmg(4, 1.0, 1.0, 1.0, 1.0, 0.5)
        assert other.reference_criticals == {}

    def test_z2_zero_couplings_give_zero_hamiltonian(self):
        model = z2_lmg(4, 0.0, 0.5, 1.0, 1.0, 0.0)
        assert np.abs(model.hamiltonian).max() == 0.0

    def test_z2_carries_symmetry(self):
        model = z2_lmg(4, 1.0, 0.5, 1.0, 1.0, 0.5)
        assert model.symmetry is not None
        assert model.symmetry.group_order == 2

    def test_lmg_carries_parity(self):
        model = lmg(4, 0.3, 1.0, 1.0, 1.0)
        assert model.symmetry == SymmetrySpec((0, 1, 2, 3, 4), (1,), group_order=2)
        # decompose verifies that the generator is block diagonal in it
        decomp = decompose(assemble(model, 3))
        assert sorted(decomp.charges_present()) == [0, 1]

    def test_dicke_critical_coupling(self):
        assert dicke_critical_coupling(1.0, 5.0, 5.0) == pytest.approx(math.sqrt(5.0))

    def test_dicke_critical_coupling_random_triples(self, rng):
        # independent recomputation through the defining stationarity relation
        for _ in range(20):
            omega0, omega, kappa = rng.uniform(0.2, 3.0, size=3)
            gc = dicke_critical_coupling(omega0, omega, kappa)
            assert 2 * omega * gc**2 == pytest.approx(omega0 * (omega**2 + kappa**2))

    def test_dicke_baths_share_terms(self):
        model = two_mode_dicke(4, 1.3, 1.0, 5.0, 5.0)
        assert model.baths[0].terms == model.baths[1].terms
        assert model.baths[0].terms[0].amplitude == pytest.approx(1.3**2 / 4)
        assert model.symmetry.group_order == 0
        assert model.symmetry.bath_charges == (1, -1)

    def test_preset_hamiltonians_hermitian(self):
        for model in (
            lmg(6, 0.4, 1.0, 1.0, 1.0),
            z2_lmg(6, -1.0, 0.5, 1.0, 1.0, 0.5),
            two_mode_dicke(6, 1.0, 1.0, 5.0, 5.0),
        ):
            assert model.hermiticity_defect() <= 1e-12
            for bath in model.baths:
                for term in bath.terms:
                    assert term.decay > 0


class TestCustom:
    def test_qubit_decay_valid(self):
        model = make_qubit_decay()
        assert model.dim == 2
        assert model.mode_count == 1

    def test_non_hermitian_rejected(self):
        ops = qubit_operators()
        bath = BathSpec(ops["sigma_minus"], (BathTerm(0.1, 0.0, 1.0),))
        with pytest.raises(MatrixValidationError):
            custom(ops["sigma_minus"], [bath])

    def test_empty_bath_list_rejected(self):
        with pytest.raises(MatrixValidationError):
            custom(np.eye(2), [])

    def test_dimension_mismatch_rejected(self):
        bath = BathSpec(np.eye(3), (BathTerm(0.1, 0.0, 1.0),))
        with pytest.raises(MatrixValidationError):
            custom(np.eye(2), [bath])

    def test_slots_flattening(self):
        model = two_mode_dicke(2, 1.0, 1.0, 5.0, 5.0)
        slots = model.slots()
        assert [bath for bath, _ in slots] == [0, 1]
