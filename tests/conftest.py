"""Shared fixtures: canonical small models used across the suite."""

import numpy as np
import pytest

from heomspectra import BathSpec, BathTerm, custom, qubit_operators


def make_qubit_decay(amplitude=0.2, omega_q=1.0, frequency=0.5, kappa=1.0):
    """Qubit with H = (omega_q / 2) sigma_z decaying through sigma_minus."""
    ops = qubit_operators()
    bath = BathSpec(ops["sigma_minus"], (BathTerm(amplitude, frequency, kappa),))
    return custom(
        0.5 * omega_q * ops["sigma_z"],
        [bath],
        name="qubit_decay",
        params={"amplitude": amplitude, "omega_q": omega_q,
                "frequency": frequency, "kappa": kappa},
    )


@pytest.fixture
def qubit_decay_model():
    return make_qubit_decay()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_density(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def multiset_distance(a, b):
    """Hausdorff-style distance between two eigenvalue multisets."""
    from scipy.spatial import cKDTree

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ta = np.column_stack((a.real, a.imag))
    tb = np.column_stack((b.real, b.imag))
    d1, _ = cKDTree(tb).query(ta)
    d2, _ = cKDTree(ta).query(tb)
    return max(float(d1.max()), float(d2.max()))


@pytest.fixture
def eig_calls(monkeypatch):
    """Record every call of ``linalg.eig_targeted`` (as ``(shift, count, kwargs)``)."""
    from heomspectra import linalg

    calls = []
    original = linalg.eig_targeted

    def spy(a, shift, count, **kwargs):
        calls.append((shift, count, kwargs))
        return original(a, shift, count, **kwargs)

    monkeypatch.setattr(linalg, "eig_targeted", spy)
    return calls


@pytest.fixture
def refined_calls(monkeypatch):
    """Record the shift of every ``linalg._refined_inverse`` factorization."""
    from heomspectra import linalg

    sigmas = []
    original = linalg._refined_inverse

    def spy(a, sigma):
        sigmas.append(sigma)
        return original(a, sigma)

    monkeypatch.setattr(linalg, "_refined_inverse", spy)
    return sigmas


@pytest.fixture
def levels(monkeypatch):
    """Record ``(dimension, dtype kind)`` of every ``linalg._LevelSetLU`` factorization."""
    from heomspectra import linalg

    built = []
    original = linalg._LevelSetLU

    def spy(a):
        built.append((a.shape[0], a.dtype.kind))
        return original(a)

    monkeypatch.setattr(linalg, "_LevelSetLU", spy)
    return built


@pytest.fixture
def factorized(monkeypatch):
    """Record ``(dimension, dtype kind)`` of every ``linalg._refined_inverse`` factorization."""
    from heomspectra import linalg

    calls = []
    original = linalg._refined_inverse

    def spy(a, sigma):
        calls.append((a.shape[0], a.dtype.kind))
        return original(a, sigma)

    monkeypatch.setattr(linalg, "_refined_inverse", spy)
    return calls


@pytest.fixture
def applications(monkeypatch):
    """Count the vectors each ``linalg._refined_inverse`` solve function is applied to.

    One entry per factorization, incremented by every column the function solves.
    """
    from heomspectra import linalg

    counts = []
    original = linalg._refined_inverse

    def spy(a, sigma):
        solve, fill = original(a, sigma)
        counts.append(0)

        def counted(b):
            counts[-1] += 1 if b.ndim == 1 else b.shape[1]
            return solve(b)

        return counted, fill

    monkeypatch.setattr(linalg, "_refined_inverse", spy)
    return counts
