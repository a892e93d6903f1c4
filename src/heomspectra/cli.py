"""Configuration-driven front end for parameter sweeps.

A JSON config selects a model, a list of sizes, a sweep grid and a list of
analyses; results land in ``results.csv`` with one row per (size, grid point,
analysis, key).  Grid points are independent jobs: each one is checkpointed
to its own fragment file so long sweeps can be resumed, and a failing point
is recorded without aborting the sweep.

Config schema (JSON object)::

    {
      "model": "lmg" | "z2_lmg" | "two_mode_dicke" | "custom",
      "params": {"gamma": 1.0, "kappa": 1.0, "omega": 1.0},
      "N": [10, 20],
      "k_max": 7,                       # or "auto" with "epsilon"
      "epsilon": 1e-4,                  # used when k_max == "auto"
      "k_limit": 12,
      "sweep": {"parameter": "g", "grid": [0.2, 0.5, 0.8]},
      "analyses": ["steady_state", "gap"],
      "observables": ["Sz"],            # names or {"name": ..., "file": ...}
      "output_dir": "out",
      "solver": {"shift": 0.0, "count": 6, "tol": 1e-10},
      "seed": 0,
      "workers": 1,
      "export_matrices": false,
      "custom": {                       # only for model == "custom"
        "hamiltonian_file": "h.txt",
        "baths": [{"coupling_file": "l.txt",
                   "terms": [{"amplitude": [0.1, 0.0],
                              "frequency": 0.5, "kappa": 1.0}]}]
      }
    }

For ``lmg`` and ``z2_lmg`` the parameter ``g`` is translated to ``V = g *
gamma``.  Matrix files use the triplet text format (``rows cols nnz`` header,
then ``row col re im`` per line, zero-based).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .builder import HeomLiouvillian, assemble, export_matrix
from .convergence import ConvergenceTrace, auto_cutoff, auto_truncate
from .embedding import dimension_report
from .errors import ConfigError, MatrixValidationError
from .linalg import read_triplets
from .models import ModelInstance, BathSpec, BathTerm, custom, lmg, two_mode_dicke, z2_lmg
from .operators import SpinSpace, spin_operators
from .spectra import check_properties, distinct_from_leading, spectrum, steady_state
from .symmetry import SectorDecomposition, decompose, sector_leading_eigs
from .dpt import REALNESS_GATE, fidelity, reconstruct_mixture, ssb_pair

log = logging.getLogger("heomspectra")

VALID_ANALYSES = (
    "steady_state",
    "gap",
    "sectors",
    "decompose",
    "ssb",
    "converge",
    "compare_markovian",
    "properties",
)
VALID_MODELS = ("lmg", "z2_lmg", "two_mode_dicke", "custom")
SPIN_OBSERVABLES = ("Sz", "Sx", "Sy", "Sp", "Sm")

CSV_COLUMNS = (
    "run_id,model,N,k_max,sweep_param,sweep_value,analysis,key,re_value,im_value"
)


@dataclass
class ObservableSpec:
    name: str
    file: Optional[str] = None


@dataclass
class RunConfig:
    model: str
    params: Dict[str, float]
    sizes: List[int]
    k_max: Optional[int]
    epsilon: float
    k_limit: int
    sweep_parameter: str
    sweep_grid: List[float]
    analyses: List[str]
    observables: List[ObservableSpec]
    output_dir: str
    shift: float
    eig_count: int
    tol: float
    seed: int
    workers: int
    export_matrices: bool
    custom_spec: Optional[dict] = None
    config_hash: str = field(default="")


def _require(raw: dict, key: str, kind, path: str):
    if key not in raw:
        raise ConfigError(f"{path}{key}", "missing required field")
    value = raw[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(raw: dict, key: str, default, kind, path: str):
    """``kind(raw[key])`` (or the default) of a finite JSON number, integral for ``int``."""
    value = raw.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{path}{key}", f"must be a finite number, got {value!r}")
    if kind is int and not _is_int(value) and not value.is_integer():
        raise ConfigError(f"{path}{key}", f"must be an integer, got {value!r}")
    return kind(value)


def _is_int(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number; booleans, strings, NaN and infinities are not."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")

    model = _require(raw, "model", str, "")
    if model not in VALID_MODELS:
        raise ConfigError("model", f"unknown model {model!r}; valid: {VALID_MODELS}")

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object of numbers")
    for key, value in params.items():
        if not _is_number(value):
            raise ConfigError(f"params.{key}", "must be a finite number")

    sizes = _require(raw, "N", list, "")
    if not sizes or not all(_is_int(n) and n >= 1 for n in sizes):
        raise ConfigError("N", "must be a non-empty list of positive integers")

    k_raw = raw.get("k_max", "auto")
    epsilon = _number(raw, "epsilon", 1e-4, float, "")
    if epsilon <= 0:
        raise ConfigError("epsilon", "must be > 0")
    if k_raw == "auto":
        k_max = None
    elif _is_int(k_raw):
        if k_raw < 0:
            raise ConfigError("k_max", "must be >= 0")
        k_max = k_raw
    else:
        raise ConfigError("k_max", "must be a non-negative integer or 'auto'")
    k_limit = raw.get("k_limit", 12)
    if not _is_int(k_limit) or k_limit < 1:
        raise ConfigError("k_limit", "must be a positive integer")

    sweep = _require(raw, "sweep", dict, "")
    parameter = _require(sweep, "parameter", str, "sweep.")
    grid = _require(sweep, "grid", list, "sweep.")
    if not grid or not all(_is_number(v) for v in grid):
        raise ConfigError("sweep.grid", "must be a non-empty list of finite numbers")

    analyses = _require(raw, "analyses", list, "")
    if not analyses:
        raise ConfigError("analyses", "must be a non-empty list")
    for i, token in enumerate(analyses):
        if token not in VALID_ANALYSES:
            raise ConfigError(
                f"analyses[{i}]",
                f"unknown analysis {token!r}; valid tokens: {', '.join(VALID_ANALYSES)}",
            )

    observables: List[ObservableSpec] = []
    for i, entry in enumerate(raw.get("observables", ["Sz"])):
        if isinstance(entry, str):
            observables.append(ObservableSpec(entry))
        elif isinstance(entry, dict) and "name" in entry:
            observables.append(ObservableSpec(str(entry["name"]), entry.get("file")))
        else:
            raise ConfigError(f"observables[{i}]", "must be a name or {name, file}")
    # The truncation scans converge on the first observable.
    if not observables and (k_max is None or {"converge", "compare_markovian"} & set(analyses)):
        raise ConfigError("observables", "must be non-empty for k_max 'auto', "
                          "converge or compare_markovian")

    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver", "must be an object")
    shift = _number(solver, "shift", 0.0, float, "solver.")
    eig_count = _number(solver, "count", 6, int, "solver.")
    tol = _number(solver, "tol", 1e-10, float, "solver.")
    if eig_count < 1:
        raise ConfigError("solver.count", "must be >= 1")
    if tol <= 0:
        raise ConfigError("solver.tol", "must be > 0")

    workers = raw.get("workers", 1)
    if not _is_int(workers) or workers < 1:
        raise ConfigError("workers", "must be a positive integer")
    seed = _number(raw, "seed", 0, int, "")
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")
    export_matrices = raw.get("export_matrices", False)
    if not isinstance(export_matrices, bool):
        raise ConfigError("export_matrices", "must be true or false")

    custom_spec = raw.get("custom")
    if model == "custom":
        if not isinstance(custom_spec, dict):
            raise ConfigError("custom", "required for model == 'custom'")
        if len(grid) != 1:
            raise ConfigError(
                "sweep.grid", "custom models support a single grid point only"
            )

    config = RunConfig(
        model=model,
        params={k: float(v) for k, v in params.items()},
        sizes=list(sizes),
        k_max=k_max,
        epsilon=epsilon,
        k_limit=k_limit,
        sweep_parameter=parameter,
        sweep_grid=[float(v) for v in grid],
        analyses=list(analyses),
        observables=observables,
        output_dir=str(raw.get("output_dir", "out")),
        shift=shift,
        eig_count=eig_count,
        tol=tol,
        seed=seed,
        workers=workers,
        export_matrices=export_matrices,
        custom_spec=custom_spec,
    )
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    config.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    # The model parameters must be valid and the observables must resolve for
    # every configured size, checked at the first grid point.
    for size in config.sizes:
        try:
            model_probe = build_model(config, size, config.sweep_grid[0])
        except MatrixValidationError as exc:
            raise ConfigError("params", str(exc)) from exc
        resolve_observables(config, model_probe)
    return config


def build_model(config: RunConfig, size: int, sweep_value: float) -> ModelInstance:
    """Instantiate the configured model at one grid point."""
    params = dict(config.params)
    params[config.sweep_parameter] = sweep_value

    def need(*names):
        missing = [n for n in names if n not in params]
        if missing:
            raise ConfigError("params", f"missing parameters {missing} for {config.model}")
        return [params[n] for n in names]

    if config.model == "lmg":
        gamma, kappa, omega = need("gamma", "kappa", "omega")
        v = params["g"] * gamma if "g" in params else need("V")[0]
        return lmg(size, v, gamma, kappa, omega)
    if config.model == "z2_lmg":
        gamma, kappa, omega, h = need("gamma", "kappa", "omega", "h")
        v = params["g"] * gamma if "g" in params else need("V")[0]
        return z2_lmg(size, v, gamma, kappa, omega, h)
    if config.model == "two_mode_dicke":
        g, omega0, omega, kappa = need("g", "omega0", "omega", "kappa")
        return two_mode_dicke(size, g, omega0, omega, kappa)
    # custom
    spec = config.custom_spec
    h_matrix = read_triplets(spec["hamiltonian_file"]).toarray()
    baths = []
    for entry in spec.get("baths", []):
        coupling = read_triplets(entry["coupling_file"]).toarray()
        terms = tuple(
            BathTerm(
                complex(t["amplitude"][0], t["amplitude"][1]),
                float(t["frequency"]),
                float(t["kappa"]),
            )
            for t in entry["terms"]
        )
        baths.append(BathSpec(coupling, terms))
    return custom(h_matrix, baths, params=params, size=size)


def resolve_observables(
    config: RunConfig, model: ModelInstance
) -> List[Tuple[str, np.ndarray]]:
    """Map observable specs to matrices, enforcing Hermiticity."""
    resolved = []
    spin_ops = None
    for i, spec in enumerate(config.observables):
        if spec.file is not None:
            matrix = read_triplets(spec.file).toarray()
            if np.abs(matrix - matrix.conj().T).max() > 1e-10:
                raise ConfigError(
                    f"observables[{i}]", f"custom observable {spec.name!r} is not Hermitian"
                )
            if matrix.shape != (model.dim, model.dim):
                raise ConfigError(
                    f"observables[{i}]",
                    f"observable {spec.name!r} has shape {matrix.shape}, "
                    f"model dimension is {model.dim}",
                )
        elif spec.name in SPIN_OBSERVABLES:
            if model.dim != model.size + 1:
                raise ConfigError(
                    f"observables[{i}]",
                    f"named spin observable {spec.name!r} needs a collective-spin model",
                )
            if spin_ops is None:
                spin_ops = spin_operators(SpinSpace(model.size))
            matrix = spin_ops[spec.name]
        else:
            raise ConfigError(
                f"observables[{i}]",
                f"unknown observable {spec.name!r}; use one of {SPIN_OBSERVABLES} or give a file",
            )
        resolved.append((spec.name, matrix))
    return resolved


@dataclass
class _Point:
    """One grid point's inputs, shared by all of its analyses.

    The generator and its sector decomposition carry the cached solves, so
    analyses asking for the same spectrum share one eigensolve, and the HEOM
    truncation scan runs at most once per point.
    """

    config: RunConfig
    model: ModelInstance
    observables: List[Tuple[str, np.ndarray]]
    liouv: HeomLiouvillian = field(init=False)

    def solver(self, count: Optional[int] = None) -> dict:
        """The configured options of every solve; ``count`` overrides the count."""
        config = self.config
        return {"count": config.eig_count if count is None else count, "tol": config.tol,
                "seed": config.seed, "shift": config.shift}

    @functools.cached_property
    def heom_trace(self) -> ConvergenceTrace:
        """The ``auto_truncate`` scan of the first observable."""
        config = self.config
        return auto_truncate(self.model, self.observables[0][1], epsilon=config.epsilon,
                             k_start=1, k_limit=config.k_limit, **self.solver())

    @functools.cached_property
    def decomp(self) -> SectorDecomposition:
        return decompose(self.liouv)


def _resolve_k_max(point: _Point) -> int:
    if point.config.k_max is not None:
        return point.config.k_max
    if point.heom_trace.selected is None:
        raise RuntimeError(
            f"auto truncation did not converge below {point.config.epsilon} "
            f"by k_max={point.config.k_limit}"
        )
    return point.heom_trace.selected


def _rows_steady(point: _Point):
    # steady_state solves a symmetric model in charge 0; passing the point's
    # decomposition shares it with the sectors analyses.
    target = point.decomp if point.model.symmetry is not None else point.liouv
    state, _ = steady_state(target, **point.solver())
    rows = []
    for name, matrix in point.observables:
        value = complex(np.trace(matrix @ state.matrix))
        rows.append(("steady_state", name, value.real, value.imag))
    rows.append(("steady_state", "min_eigenvalue", state.min_eigenvalue, 0.0))
    rows.append(("steady_state", "hermiticity_defect", state.hermiticity_defect, 0.0))
    return rows


def _rows_gap(point: _Point):
    # A finite symmetry group has few sectors, which the steady_state, sectors
    # and ssb analyses solve anyway, so the gap is read from their solves.  A
    # U(1) symmetry has tens of small sectors that together solve slower than
    # the full generator.
    symmetry = point.model.symmetry
    if symmetry is not None and symmetry.group_order > 0:
        values = spectrum(point.decomp, charge=None, **point.solver()).eigenvalues
    else:
        values = spectrum(point.liouv, **point.solver()).eigenvalues
    rows = [("gap", "lambda_0", values[0].real, values[0].imag)]
    rest = distinct_from_leading(values)
    if rest.size:
        rows.append(("gap", "lambda_1", rest[0].real, rest[0].imag))
    return rows


def _rows_properties(point: _Point):
    liouv = point.liouv
    mode = "full" if liouv.dim <= 2000 else "sampled"
    report = check_properties(liouv, mode=mode, **point.solver(max(point.config.eig_count, 12)))
    return [
        ("properties", f"{key}[{report.checked[key]}]", value, 0.0)
        for key, value in sorted(report.residuals.items())
    ]


def _rows_decompose(point: _Point):
    decomp = point.decomp
    rows = [
        ("decompose", "n_sectors", float(len(decomp.sectors)), 0.0),
        ("decompose", "off_sector_residual", decomp.off_sector_residual, 0.0),
    ]
    for charge in decomp.charges_present():
        rows.append(("decompose", f"dim[k={charge}]", float(decomp.dimension(charge)), 0.0))
    return rows


def _rows_sectors(point: _Point):
    decomp, count = point.decomp, point.config.eig_count
    rows = []
    for charge in decomp.charges_present():
        dim = decomp.dimension(charge)
        res = sector_leading_eigs(decomp, charge, **point.solver(min(count, dim)))
        rows.append(("sectors", f"dim[k={charge}]", float(dim), 0.0))
        for i, value in enumerate(res.eigenvalues):
            rows.append(("sectors", f"lambda_{i}[k={charge}]", value.real, value.imag))
    return rows


def _rows_ssb(point: _Point):
    decomp, count = point.decomp, point.config.eig_count
    scale = point.model.params.get("omega", 1.0)
    rows = []
    res = sector_leading_eigs(decomp, 1, **point.solver(min(count, decomp.dimension(1))))
    value = complex(res.eigenvalues[0])
    rows.append(("ssb", "lambda_0[k=1]", value.real, value.imag))
    rows.append(("ssb", "gate_ratio", abs(value.imag) / scale, 0.0))
    if abs(value.imag) / scale < REALNESS_GATE:
        pair = ssb_pair(decomp, scale, **point.solver())
        state, _ = steady_state(decomp, charge=0, **point.solver())
        rows.append(("ssb", "fidelity", fidelity(reconstruct_mixture(pair), state), 0.0))
        for name, matrix in point.observables:
            plus = complex(np.trace(matrix @ pair.rho_plus.matrix))
            minus = complex(np.trace(matrix @ pair.rho_minus.matrix))
            rows.append(("ssb", f"{name}[plus]", plus.real, plus.imag))
            rows.append(("ssb", f"{name}[minus]", minus.real, minus.imag))
    return rows


def _rows_converge(point: _Point):
    trace = point.heom_trace
    rows = [
        ("converge", f"C[k={k}]", measure, 0.0)
        for k, measure in zip(trace.truncations, trace.measures)
    ]
    selected = float(trace.selected) if trace.selected is not None else -1.0
    rows.append(("converge", "selected_k_max", selected, 0.0))
    return rows


def _rows_compare(point: _Point):
    config, model = point.config, point.model
    name, matrix = point.observables[0]
    heom_trace = point.heom_trace
    lm_trace = auto_cutoff(model, matrix, epsilon=config.epsilon,
                           n_start=1, n_limit=max(config.k_limit, 16), **point.solver())
    if heom_trace.selected is None or lm_trace.selected is None:
        raise RuntimeError("matched-tolerance truncation search was exhausted")
    k_sel, n_sel = heom_trace.selected, lm_trace.selected
    delta = abs(heom_trace.selected_expectation - lm_trace.selected_expectation)
    report = dimension_report(model, k_sel, cutoff_rule=n_sel)
    return [
        ("compare_markovian", "selected_k_max", float(k_sel), 0.0),
        ("compare_markovian", "selected_n_c", float(n_sel), 0.0),
        ("compare_markovian", f"delta[{name}]", delta, 0.0),
        ("compare_markovian", "dim_heom", report["dim_heom"], 0.0),
        ("compare_markovian", "dim_lm", report["dim_lm"], 0.0),
        ("compare_markovian", "dim_ratio", report["ratio"], 0.0),
    ]


HANDLERS = {
    "steady_state": _rows_steady,
    "gap": _rows_gap,
    "properties": _rows_properties,
    "decompose": _rows_decompose,
    "sectors": _rows_sectors,
    "ssb": _rows_ssb,
    "converge": _rows_converge,
    "compare_markovian": _rows_compare,
}


def execute_point(config: RunConfig, index: int, size: int, sweep_value: float):
    """Run every configured analysis at one grid point; returns (index, rows)."""
    model = build_model(config, size, sweep_value)
    point = _Point(config, model, resolve_observables(config, model))
    k_max = _resolve_k_max(point)
    point.liouv = assemble(model, k_max)
    run_id = f"{config.config_hash[:8]}-{index:04d}"
    rows = []
    for analysis in config.analyses:
        for analysis_name, key, re_value, im_value in HANDLERS[analysis](point):
            rows.append(
                {
                    "run_id": run_id,
                    "model": config.model,
                    "N": size,
                    "k_max": k_max,
                    "sweep_param": config.sweep_parameter,
                    "sweep_value": sweep_value,
                    "analysis": analysis_name,
                    "key": key,
                    "re_value": re_value,
                    "im_value": im_value,
                }
            )
    if config.export_matrices:
        out = Path(config.output_dir) / f"matrix_point{index:04d}.txt"
        export_matrix(point.liouv, out)
    return index, rows


def _point_worker(args):
    config, index, size, value = args
    try:
        return execute_point(config, index, size, value), None
    except Exception as exc:  # crash isolation: record and continue
        return (index, []), f"point {index} (N={size}, {config.sweep_parameter}={value}): {exc}"


def _format_row(row: dict) -> str:
    return ",".join(
        [
            row["run_id"],
            row["model"],
            str(row["N"]),
            str(row["k_max"]),
            row["sweep_param"],
            f"{row['sweep_value']:.17g}",
            row["analysis"],
            row["key"],
            f"{row['re_value']:.17g}",
            f"{row['im_value']:.17g}",
        ]
    )


def _load_fragment(fragment: Path) -> Optional[dict]:
    """A checkpoint fragment's payload; None if it is absent or unreadable."""
    if not fragment.exists():
        return None
    try:
        payload = json.loads(fragment.read_text())
    except (OSError, ValueError) as exc:
        log.warning("ignoring unreadable checkpoint %s (%s); recomputing the point", fragment, exc)
        return None
    if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
        log.warning("ignoring malformed checkpoint %s; recomputing the point", fragment)
        return None
    return payload


def run(config: RunConfig, workers: Optional[int] = None) -> int:
    """Execute a sweep; returns the process exit status (0 ok, 1 partial)."""
    workers = config.workers if workers is None else workers
    out_dir = Path(config.output_dir)
    points_dir = out_dir / "points"
    points_dir.mkdir(parents=True, exist_ok=True)

    points = [
        (index, size, value)
        for index, (size, value) in enumerate(
            (size, value) for size in config.sizes for value in config.sweep_grid
        )
    ]
    results: Dict[int, List[dict]] = {}
    failures: List[str] = []

    pending = []
    for index, size, value in points:
        payload = _load_fragment(points_dir / f"point_{index:04d}.json")
        if payload is not None:
            if payload.get("config_hash") != config.config_hash:
                log.info("point %d: checkpoint is from another config; recomputing", index)
            elif payload.get("version") != __version__:
                log.info("point %d: checkpoint is from version %s, not %s; recomputing",
                         index, payload.get("version"), __version__)
            else:
                if payload.get("error"):
                    failures.append(payload["error"])
                results[index] = payload["rows"]
                log.info("point %d restored from checkpoint", index)
                continue
        pending.append((config, index, size, value))

    def _record(outcome, error):
        (index, rows), fragment = outcome, points_dir / f"point_{outcome[0]:04d}.json"
        if error:
            failures.append(error)
            log.warning("%s", error)
        results[index] = rows
        # Write then rename, so a crash never leaves a partial fragment behind.
        partial = fragment.with_name(fragment.name + ".tmp")
        partial.write_text(
            json.dumps(
                {"config_hash": config.config_hash, "version": __version__,
                 "rows": rows, "error": error},
                sort_keys=True,
            )
        )
        os.replace(partial, fragment)

    if workers > 1 and len(pending) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for outcome, error in pool.map(_point_worker, pending):
                _record(outcome, error)
    else:
        for job in pending:
            _record(*_point_worker(job))

    lines = [
        "# heomspectra results",
        f"# version={__version__}",
        f"# config_hash={config.config_hash}",
        f"# epsilon={config.epsilon:.17g} eig_count={config.eig_count} "
        f"tol={config.tol:.17g} shift={config.shift:.17g} seed={config.seed}",
        f"# generated={time.strftime('%Y-%m-%dT%H:%M:%S')}",
        CSV_COLUMNS,
    ]
    for index in sorted(results):
        lines.extend(_format_row(row) for row in results[index])
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")

    if failures:
        print(f"{len(failures)} of {len(points)} points failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    log.info("wrote %s", out_dir / "results.csv")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="heomspectra",
        description="Sweep a model over a parameter grid and persist spectral analyses.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--workers", type=int, help="worker pool size (overrides the config)")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config.output_dir = args.out
    return run(config, workers=args.workers)


if __name__ == "__main__":
    sys.exit(main())
