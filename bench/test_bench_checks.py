"""Each benchmark check passes on a correct result and fires on a corrupted one.

Run with ``python3 -m pytest bench/test_bench_checks.py``.  The inputs are
small synthetic results with the properties the checks look for, so the test
needs only NumPy and takes well under a second.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

RNG = np.random.default_rng(7)


def lindblad(h, jump):
    """Row-major vectorized Lindblad generator; trace preserving by construction."""
    eye = np.eye(h.shape[0])
    n = jump.conj().T @ jump
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + np.kron(jump, jump.conj()) - 0.5 * np.kron(n, eye) - 0.5 * np.kron(eye, n.T))


H = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
JUMP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
GENERATOR = lindblad(H, JUMP)
VALUES, VECTORS = np.linalg.eig(GENERATOR)
ORDER = np.argsort(np.abs(VALUES))
VALUES, VECTORS = VALUES[ORDER], VECTORS[:, ORDER]
RHO = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])


def corrupt(array, index, delta):
    out = np.array(array, dtype=complex)
    out[index] += delta
    return out


def test_leading_zero():
    assert checks.leading_zero(VALUES) == []
    assert checks.leading_zero(corrupt(VALUES, 0, 1e-6))


def test_eigen_residuals():
    assert checks.eigen_residuals(GENERATOR, VALUES, VECTORS, 1e-10) == []
    assert checks.eigen_residuals(GENERATOR, corrupt(VALUES, 1, 1e-6), VECTORS, 1e-10)


@pytest.mark.parametrize("raw, state", [
    (corrupt(RHO * (0.3 + 0.4j), (0, 1), 1e-6), RHO),          # non-Hermitian block
    (RHO, RHO * 1.1),                                            # trace 1.1
    (RHO, corrupt(RHO, (0, 1), 1e-6)),                           # non-Hermitian state
    (RHO, np.diag([1.1, -0.1]).astype(complex)),                 # negative eigenvalue
])
def test_density_matrix(raw, state):
    assert checks.density_matrix(RHO * (0.3 + 0.4j), RHO) == []
    assert checks.density_matrix(raw, state)


def test_trace_covector():
    assert checks.trace_covector(GENERATOR, 2) == []
    assert checks.trace_covector(corrupt(GENERATOR, (0, 1), 1e-6), 2)


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9])
def test_unit_interval(bad):
    assert checks.unit_interval(0.97, "fidelity") == []
    assert checks.unit_interval(bad, "fidelity")


def test_dense_match():
    matrix = RNG.standard_normal((20, 20)) + 1j * RNG.standard_normal((20, 20))
    dense = np.linalg.eigvals(matrix)
    nearest = dense[np.argsort(np.abs(dense))]
    assert checks.dense_match(matrix, nearest[:4]) == []
    assert checks.dense_match(matrix, nearest[1:5])                  # skipped the nearest
    assert checks.dense_match(matrix, corrupt(nearest[:4], 2, 1e-6))


OBSERVABLES = ("Sz", "Sx")


def cli_csv(override=None):
    """A results.csv whose rows satisfy every property cli_rows checks, then ``override``.

    An override value of None drops that row.
    """
    values = {}
    for key in checks.expected_cli_keys(range(2), OBSERVABLES, 6):
        values[key] = 0.5
    for i in range(2):
        values[(i, "gap", "lambda_0")] = 1e-17
        values[(i, "gap", "lambda_1")] = values[(i, "ssb", "lambda_0[k=1]")] = -0.008
        values[(i, "steady_state", "Sx")] = 1e-14
        values[(i, "ssb", "Sz[plus]")] = values[(i, "ssb", "Sz[minus]")] = -1.9
        values[(i, "ssb", "Sx[plus]")], values[(i, "ssb", "Sx[minus]")] = 4.5, -4.5
        values[(i, "ssb", "fidelity")] = 0.969
    values.update(override or {})
    lines = ["# heomspectra results", "# generated=2026-01-01T00:00:00",
             "run_id,model,N,k_max,sweep_param,sweep_value,analysis,key,re_value,im_value"]
    for (i, analysis, key), value in values.items():
        if value is not None:
            lines.append(f"abcd1234-{i:04d},z2_lmg,10,7,g,-2.9,{analysis},{key},{value!r},0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("override", [
    {(1, "gap", "lambda_1"): None},                   # a row is missing
    {(0, "gap", "lambda_0"): 1e-6},                   # no zero eigenvalue
    {(1, "gap", "lambda_1"): -0.009},                 # gap is not the broken-sector leader
    {(0, "steady_state", "Sx"): 1e-3},                # parity-odd steady expectation
    {(1, "ssb", "Sz[minus]"): -1.8},                  # even observable differs
    {(0, "ssb", "Sx[minus]"): 4.5},                   # odd observable not mirrored
    {(0, "ssb", "fidelity"): 1.5},
])
def test_cli_rows(override):
    assert checks.cli_rows(checks.parse_results(cli_csv()), range(2), OBSERVABLES, 6) == []
    assert checks.cli_rows(checks.parse_results(cli_csv(override)), range(2), OBSERVABLES, 6)


def test_identical_results():
    first = cli_csv()
    second = first.replace("# generated=2026-01-01T00:00:00", "# generated=2026-01-02T09:30:00")
    assert checks.identical_results([first, second]) == []
    assert checks.identical_results([first, cli_csv({(0, "gap", "lambda_1"): -0.0080001})])


@pytest.mark.parametrize("measures, selected", [
    ([1e-2, 1e-3, 5e-5], None),                        # nothing selected
    ([1e-2, 1e-3, 2e-4], 3),                           # last measure not below epsilon
    ([1e-2, 5e-5, 4e-5], 3),                           # not the first below epsilon
])
def test_scan_selection(measures, selected):
    assert checks.scan_selection([1e-2, 1e-3, 5e-5], 3, 1e-4, "heom") == []
    assert checks.scan_selection(measures, selected, 1e-4, "heom")


def test_matched_observable():
    assert checks.matched_observable(-4.2, -4.2003, 5e-4) == []
    assert checks.matched_observable(-4.2, -4.21, 5e-4)
