import numpy as np
import pytest

from heomspectra.builder import assemble
from heomspectra.convergence import (
    ConvergenceTrace,
    auto_cutoff,
    auto_truncate,
    broken_sector_selector,
    c_measure,
    embedding_expectation,
    s_measure,
    steady_expectation,
)
from heomspectra.errors import MatrixValidationError, PairingError
from heomspectra.models import lmg, z2_lmg
from heomspectra.operators import SpinSpace, qubit_operators, spin_operators
from heomspectra.spectra import distinct_from_leading, spectrum

from conftest import make_qubit_decay


class TestTrace:
    def test_invariants(self):
        with pytest.raises(MatrixValidationError):
            ConvergenceTrace([2, 2], [0.1, 0.1], 1e-4, None)
        with pytest.raises(MatrixValidationError):
            ConvergenceTrace([1, 2], [-0.1, 0.1], 1e-4, None)

    def test_exhaustion_flag(self):
        trace = ConvergenceTrace([1, 2], [0.1, 0.2], 1e-4, None)
        assert trace.exhausted
        assert not ConvergenceTrace([1], [0.0], 1e-4, 1).exhausted


class TestCMeasure:
    def test_decoupled_model_is_exactly_converged(self):
        # negligible coupling: the physical block is independent of the depth
        model = make_qubit_decay(amplitude=1e-8, omega_q=0.9)
        assert c_measure(model, qubit_operators()["sigma_z"], 1) <= 1e-12

    def test_identical_states_give_zero(self, qubit_decay_model):
        sz = qubit_operators()["sigma_z"]
        # the decay model reaches its dark state at any depth
        assert c_measure(qubit_decay_model, sz, 2) <= 1e-12

    def test_spin_model_decreases(self):
        model = lmg(6, 0.4, 1.0, 1.0, 1.0)
        sz = spin_operators(SpinSpace(6))["Sz"]
        values = [c_measure(model, sz, k) for k in (1, 3, 5)]
        assert values[2] < values[0]


def gap_selector(model, k):
    """The decaying eigenvalues at depth ``k``, the first decaying one (the gap) first."""
    return distinct_from_leading(spectrum(assemble(model, k), count=6).eigenvalues)


class TestSMeasure:
    def test_zero_for_stationary_spectrum(self):
        model = make_qubit_decay(amplitude=0.0, omega_q=0.9)
        assert s_measure(model, gap_selector, 2) <= 1e-9

    def test_gap_selector_tracks(self):
        model = lmg(6, 0.4, 1.0, 1.0, 1.0)
        value = s_measure(model, gap_selector, 3)
        assert 0 <= value < 1.0

    def test_ambiguous_pairing_raises(self):
        def degenerate_selector(model, k):
            return [0.5 + 0j, 0.5 + 1e-13 + 0j] if k > 2 else [0.4 + 0j]

        model = make_qubit_decay()
        with pytest.raises(PairingError):
            s_measure(model, degenerate_selector, 2)

    def test_broken_sector_selector(self):
        model = z2_lmg(6, -1.0, 0.5, 1.0, 1.0, 0.5)
        values = broken_sector_selector(count=6)(model, 3)
        assert len(values) >= 1
        assert all(v.real < 1e-10 for v in values)


class TestAutoTruncate:
    def test_decoupled_selects_start(self):
        # negligible coupling keeps the steady state unique while the
        # hierarchy correction is far below threshold
        model = make_qubit_decay(amplitude=1e-8, omega_q=0.9)
        trace = auto_truncate(model, qubit_operators()["sigma_z"], epsilon=1e-4,
                              k_start=1, k_limit=5)
        assert trace.selected == 1
        assert trace.truncations == [1]

    def test_threshold_semantics(self):
        # synthetic monotone trace: select the first value below epsilon
        measures = {1: 1e-2, 2: 1e-3, 3: 1e-5}
        values = {1: 0.0}
        for k in (1, 2, 3):
            values[k + 1] = values[k] + measures[k]

        calls = []

        def fake_expectation(model, obs, k):
            calls.append(k)
            return values[k]

        import heomspectra.convergence as conv

        original = conv.steady_expectation
        conv.steady_expectation = fake_expectation
        try:
            trace = auto_truncate(None, None, epsilon=1e-4, k_start=1, k_limit=5)
        finally:
            conv.steady_expectation = original
        assert trace.selected == 3
        assert trace.measures == pytest.approx([measures[1], measures[2], measures[3]])

    def test_exhaustion(self):
        model = lmg(8, 0.5, 1.0, 1.0, 1.0)
        sz = spin_operators(SpinSpace(8))["Sz"]
        trace = auto_truncate(model, sz, epsilon=1e-12, k_start=1, k_limit=2)
        assert trace.exhausted

    def test_epsilon_validation(self, qubit_decay_model):
        with pytest.raises(MatrixValidationError):
            auto_truncate(qubit_decay_model, np.eye(2), epsilon=0.0)


class TestAutoCutoff:
    def test_weak_coupling_converges_fast(self):
        model = make_qubit_decay(amplitude=0.01)
        trace = auto_cutoff(model, qubit_operators()["sigma_z"], epsilon=1e-4,
                            n_start=1, n_limit=8)
        assert trace.selected is not None
        assert trace.selected <= 6

    def test_negligible_coupling_selects_smallest(self):
        # exactly zero coupling leaves the embedding steady state degenerate,
        # so a negligible amplitude stands in for the decoupled limit
        model = make_qubit_decay(amplitude=1e-8)
        trace = auto_cutoff(model, np.diag([1.0, 0.0]).astype(complex),
                            epsilon=1e-4, n_start=1, n_limit=4)
        assert trace.selected == 1

    def test_determinism(self):
        model = make_qubit_decay(amplitude=0.05)
        sz = qubit_operators()["sigma_z"]
        first = auto_cutoff(model, sz, epsilon=1e-6, n_start=1, n_limit=8)
        second = auto_cutoff(model, sz, epsilon=1e-6, n_start=1, n_limit=8)
        assert first.truncations == second.truncations
        assert first.measures == second.measures
        assert first.selected == second.selected


def test_pipelines_agree_at_tight_truncations():
    model = make_qubit_decay(amplitude=0.1)
    sz = qubit_operators()["sigma_z"]
    heom = steady_expectation(model, sz, 10)
    lm = embedding_expectation(model, sz, 10)
    assert abs(heom - lm) <= 1e-8
