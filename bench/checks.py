"""Property checks on workload outputs, computed apart from the measured code.

Every check takes plain numbers, arrays or text and returns a list of
problems, empty when the property holds.  None of them calls heomspectra:
residuals, traces, spectra and CSV rows are recomputed here with NumPy, so a
fault in the package cannot also hide in its own check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

ZERO_TOL = 1e-9
PSD_TOL = 1e-8
HERMITIAN_TOL = 1e-8
COVECTOR_TOL = 1e-9
EIG_MATCH_TOL = 1e-8
CLI_EQUAL_TOL = 1e-8


def leading_zero(values: Sequence[complex]) -> List[str]:
    """The leading eigenvalue of a generator is zero."""
    lead = complex(values[0])
    if abs(lead) < ZERO_TOL:
        return []
    return [f"leading eigenvalue {lead} is not within {ZERO_TOL:.0e} of 0"]


def eigen_residuals(matrix, values: Sequence[complex], vectors: np.ndarray, tol: float) -> List[str]:
    """``||A v - lambda v|| <= tol`` for every unit-normalized eigenvector."""
    vectors = np.asarray(vectors, dtype=complex)
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(matrix @ vectors - vectors * np.asarray(values), axis=0)
    worst = float(residuals.max())
    if worst <= tol:
        return []
    return [f"eigenpair residual {worst:.3e} exceeds tol {tol:.1e}"]


def density_matrix(raw_block: np.ndarray, state: np.ndarray) -> List[str]:
    """The physical block is Hermitian up to its phase; the state is a density matrix."""
    problems = []
    normalized = raw_block / np.trace(raw_block)
    defect = float(np.abs(normalized - normalized.conj().T).max())
    if defect > HERMITIAN_TOL:
        problems.append(f"steady block Hermiticity defect {defect:.3e}")
    trace = complex(np.trace(state))
    if abs(trace - 1.0) > 1e-10:
        problems.append(f"steady state trace {trace}")
    if float(np.abs(state - state.conj().T).max()) > 1e-12:
        problems.append("steady state is not Hermitian")
    lowest = float(np.linalg.eigvalsh((state + state.conj().T) / 2).min())
    if lowest < -PSD_TOL:
        problems.append(f"steady state eigenvalue {lowest:.3e} < -{PSD_TOL:.0e}")
    return problems


def trace_covector(matrix, d_s: int) -> List[str]:
    """The physical trace is conserved: ``||w^dag L|| ~ 0``."""
    w = np.zeros(matrix.shape[0], dtype=complex)
    w[: d_s * d_s] = np.eye(d_s).ravel()
    norm = float(np.linalg.norm(matrix.T @ np.conj(w)))
    if norm <= COVECTOR_TOL:
        return []
    return [f"trace covector residual {norm:.3e} exceeds {COVECTOR_TOL:.0e}"]


def unit_interval(value: float, name: str) -> List[str]:
    if 0.0 <= value <= 1.0:
        return []
    return [f"{name} {value} outside [0, 1]"]


def dense_match(sector: np.ndarray, values: Sequence[complex]) -> List[str]:
    """Targeted sector eigenvalues are the ones nearest zero of the dense spectrum."""
    dense = np.linalg.eigvals(np.asarray(sector, dtype=complex))
    values = np.asarray(values, dtype=complex)
    problems = []
    gaps = np.abs(values[:, None] - dense[None, :]).min(axis=1)
    if gaps.max() > EIG_MATCH_TOL:
        problems.append(f"targeted eigenvalue {gaps.max():.3e} away from the dense spectrum")
    nearest = np.sort(np.abs(dense))
    if np.abs(values).max() > nearest[values.size - 1] + EIG_MATCH_TOL:
        problems.append("targeted solve skipped an eigenvalue nearer zero")
    return problems


# -- CLI output ------------------------------------------------------------

def parse_results(text: str) -> Dict[Tuple[int, str, str], complex]:
    """``(point index, analysis, key) -> value`` from a ``results.csv`` text."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    out = {}
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        index = int(row["run_id"].rsplit("-", 1)[1])
        out[(index, row["analysis"], row["key"])] = complex(
            float(row["re_value"]), float(row["im_value"])
        )
    return out


def expected_cli_keys(points: Iterable[int], observables: Sequence[str], count: int) -> List[Tuple[int, str, str]]:
    """Rows that steady_state, gap, decompose, sectors and ssb must write."""
    keys = []
    for i in points:
        keys += [(i, "steady_state", name) for name in observables]
        keys += [(i, "steady_state", "min_eigenvalue"), (i, "steady_state", "hermiticity_defect")]
        keys += [(i, "gap", "lambda_0"), (i, "gap", "lambda_1")]
        keys += [(i, "decompose", "n_sectors"), (i, "decompose", "off_sector_residual")]
        for charge in (0, 1):
            keys.append((i, "decompose", f"dim[k={charge}]"))
            keys.append((i, "sectors", f"dim[k={charge}]"))
            keys += [(i, "sectors", f"lambda_{j}[k={charge}]") for j in range(count)]
        keys += [(i, "ssb", "lambda_0[k=1]"), (i, "ssb", "gate_ratio"), (i, "ssb", "fidelity")]
        keys += [(i, "ssb", f"{name}[{side}]") for name in observables for side in ("plus", "minus")]
    return keys


def cli_rows(rows: Dict[Tuple[int, str, str], complex], points: Sequence[int],
             observables: Sequence[str], count: int) -> List[str]:
    """Rows present; gap, steady state and broken pair obey the parity symmetry."""
    missing = [key for key in expected_cli_keys(points, observables, count) if key not in rows]
    if missing:
        return [f"{len(missing)} expected rows missing, first {missing[0]}"]
    problems = []
    for i in points:
        lam0 = rows[(i, "gap", "lambda_0")]
        if abs(lam0) >= ZERO_TOL:
            problems.append(f"point {i}: gap lambda_0 {lam0} is not 0")
        lam1, broken = rows[(i, "gap", "lambda_1")], rows[(i, "ssb", "lambda_0[k=1]")]
        if abs(lam1 - broken) > CLI_EQUAL_TOL:
            problems.append(f"point {i}: gap lambda_1 {lam1} != ssb lambda_0[k=1] {broken}")
        sx = rows[(i, "steady_state", "Sx")]
        if abs(sx) > CLI_EQUAL_TOL:
            problems.append(f"point {i}: steady <Sx> {sx} is not 0")
        fid = rows[(i, "ssb", "fidelity")].real
        problems += unit_interval(fid, f"point {i}: ssb fidelity")
        for name, sign in (("Sz", 1.0), ("Sx", -1.0)):
            plus, minus = rows[(i, "ssb", f"{name}[plus]")], rows[(i, "ssb", f"{name}[minus]")]
            if abs(plus - sign * minus) > CLI_EQUAL_TOL * max(1.0, abs(plus)):
                problems.append(f"point {i}: {name}[plus] {plus} vs {name}[minus] {minus}")
    return problems


def identical_results(texts: Sequence[str]) -> List[str]:
    """Every ``results.csv`` is byte-identical apart from the ``# generated=`` line."""
    stripped = [
        "\n".join(line for line in text.split("\n") if not line.startswith("# generated="))
        for text in texts
    ]
    if all(s == stripped[0] for s in stripped):
        return []
    return [f"results.csv differs between {len(texts)} runs of one config"]


# -- truncation scan -------------------------------------------------------

def scan_selection(measures: Sequence[float], selected, epsilon: float, name: str) -> List[str]:
    """A truncation was selected, and it is the first whose measure is below epsilon."""
    if selected is None:
        return [f"{name}: no truncation selected"]
    problems = []
    if not measures[-1] < epsilon:
        problems.append(f"{name}: last measure {measures[-1]:.3e} is not below {epsilon:.0e}")
    if any(m < epsilon for m in measures[:-1]):
        problems.append(f"{name}: an earlier measure is already below {epsilon:.0e}")
    return problems


def matched_observable(heom: float, lm: float, tol: float) -> List[str]:
    """The two pictures agree at their selected truncations."""
    delta = abs(heom - lm)
    if delta <= tol:
        return []
    return [f"matched <Sz> differ by {delta:.3e} > {tol:.1e}"]
