"""Configuration-driven front end for parameter sweeps.

A JSON config selects a model, a list of sizes, a sweep grid and a list of
analyses; results land in ``results.csv`` with one row per (size, grid point,
analysis, key).  Each grid point runs in its own child process (forked, or
spawned where the platform has no ``fork``), at most ``workers`` at once and
never more than the usable cores (the CPU affinity of the process), and is
checkpointed to its own fragment file so long sweeps can be resumed.  A
point that raises is checkpointed with its error; a child that dies fails
only its point (exit 1), and a rerun recomputes it.  With ``fork``, each
point may use ``cores // min(workers, cores)`` processes: a point of a
symmetric model whose analyses read sector spectra solves those sectors in
its own process and in forked sector children at once (:func:`_presolve`);
without it, each point uses one.  Every child, of the CLI or of a point,
ignores SIGINT and ends within 0.1 s of its parent, also when the parent is
killed (:func:`_fork`).  When more than one process of a run may solve at
once, each point child lowers SciPy's and numpy's bundled OpenBLAS to one
thread.

The config schema is :data:`CONFIG_FIELDS` and the tables it nests; the CLI
section of the README documents each field and gives an example.  Matrix
files use the triplet text format (``rows cols nnz`` header, then ``row col
re im`` per line, zero-based).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import math
import multiprocessing.connection
import os
import signal
import sys
import threading
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
from .linalg import as_dense, limit_blas_threads, read_triplets
from .models import ModelInstance, BathSpec, BathTerm, custom, lmg, two_mode_dicke, z2_lmg
from .operators import SpinSpace, spin_operators
from .spectra import Target, check_properties, distinct_from_leading, spectrum, steady_state
from .symmetry import SectorDecomposition, decompose, sector_leading_eigs
from .dpt import REALNESS_GATE, fidelity, reconstruct_mixture, ssb_pair

log = logging.getLogger("heomspectra")

#: The parameters each named model reads, in the order its constructor takes
#: them after ``N``.  For lmg and z2_lmg, ``g`` may stand for ``V = g * gamma``.
MODEL_PARAMS = {
    "lmg": ("V", "gamma", "kappa", "omega"),
    "z2_lmg": ("V", "gamma", "kappa", "omega", "h"),
    "two_mode_dicke": ("g", "omega0", "omega", "kappa"),
}
VALID_MODELS = (*MODEL_PARAMS, "custom")
SPIN_OBSERVABLES = ("Sz", "Sx", "Sy", "Sp", "Sm")

CSV_COLUMNS = (
    "run_id,model,N,k_max,sweep_param,sweep_value,analysis,key,re_value,im_value"
)


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
    observables: List[Tuple[str, Optional[str]]]  # (name, matrix file or None)
    output_dir: str
    shift: float
    eig_count: int
    tol: float
    seed: int
    workers: int
    export_matrices: bool
    custom_spec: Optional[dict] = None  # checked against CUSTOM_FIELDS
    config_hash: str = field(default="")


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number; booleans, strings, NaN and infinities are not."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int(value) -> bool:
    """Whether a JSON value is an integral finite number: ``2.0`` is, ``true`` and ``1.5`` are not."""
    return _is_number(value) and float(value).is_integer()


def _items(rule, non_empty: bool = True):
    """The rule of a JSON list whose items each follow ``rule``."""

    def check(value, path: str):
        if not isinstance(value, list) or (non_empty and not value):
            raise ConfigError(path, "must be a non-empty list" if non_empty else "must be a list")
        return [_check(item, rule, f"{path}[{i}]") for i, item in enumerate(value)]

    return check


def _integer(least: int):
    return (lambda v: _is_int(v) and v >= least, f"must be an integer >= {least}", int)


def _analysis(value, path: str) -> str:
    """An analysis token: a key of :data:`HANDLERS`."""
    if not isinstance(value, str) or value not in HANDLERS:
        raise ConfigError(path, f"must be one of {', '.join(HANDLERS)}, got {value!r}")
    return value


def _params(value, path: str) -> Dict[str, float]:
    """An object of finite numbers; which names a model reads is checked after the tables."""
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object of numbers")
    return {key: _check(number, NUMBER, f"{path}.{key}") for key, number in value.items()}


def _observable(value, path: str) -> Tuple[str, Optional[str]]:
    """A spin observable's name, or a ``{name, file}`` object naming a matrix file."""
    entry = _check({"name": value} if isinstance(value, str) else value, OBSERVABLE_FIELDS, path)
    return entry["name"], entry["file"]


NUMBER = (_is_number, "must be a finite number", float)
POSITIVE = (lambda v: _is_number(v) and v > 0, "must be a finite number > 0", float)
STRING = (lambda v: isinstance(v, str), "must be a string", str)
FILE = (lambda v: isinstance(v, str) and os.path.isfile(v), "must name an existing file", str)
REQUIRED = object()  # the default of a field that must be given

# One table per JSON object of the config: each field maps to (default,
# rule).  A default passes through the rule like a given value; a None
# default is left as it is.
SOLVER_FIELDS = {
    "shift": (0.0, NUMBER),
    "count": (6, _integer(1)),
    "tol": (1e-10, POSITIVE),
}
SWEEP_FIELDS = {
    "parameter": (REQUIRED, STRING),
    "grid": (REQUIRED, _items(NUMBER)),
}
OBSERVABLE_FIELDS = {
    "name": (REQUIRED, STRING),
    "file": (None, FILE),
}
TERM_FIELDS = {
    "amplitude": (REQUIRED, (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
        "must be [re, im], two finite numbers", lambda v: complex(*v))),
    "frequency": (REQUIRED, NUMBER),
    "kappa": (REQUIRED, NUMBER),
}
BATH_FIELDS = {
    "coupling_file": (REQUIRED, FILE),
    "terms": (REQUIRED, _items(TERM_FIELDS)),
}
CUSTOM_FIELDS = {
    "hamiltonian_file": (REQUIRED, FILE),
    "baths": (REQUIRED, _items(BATH_FIELDS)),
}
CONFIG_FIELDS = {
    "model": (REQUIRED, (lambda v: v in VALID_MODELS,
                         f"must be one of {', '.join(VALID_MODELS)}", str)),
    "params": ({}, _params),
    "N": (REQUIRED, _items(_integer(1))),
    "k_max": ("auto", (lambda v: v == "auto" or (_is_int(v) and v >= 0),
                       "must be an integer >= 0 or 'auto'",
                       lambda v: None if v == "auto" else int(v))),
    "epsilon": (1e-4, POSITIVE),
    "k_limit": (12, _integer(1)),
    "sweep": (REQUIRED, SWEEP_FIELDS),
    "analyses": (REQUIRED, _items(_analysis)),
    "observables": (["Sz"], _items(_observable, non_empty=False)),
    "output_dir": ("out", STRING),
    "solver": ({}, SOLVER_FIELDS),
    "seed": (0, _integer(0)),
    "workers": (1, _integer(1)),
    "export_matrices": (False, (lambda v: isinstance(v, bool), "must be true or false", bool)),
    "custom": (None, CUSTOM_FIELDS),
}


def _check(value, rule, path: str):
    """``value`` checked against ``rule`` and converted, with the defaults filled in.

    A rule is a table of fields, a ``(test, message, convert)`` triple for one
    JSON value, or a function ``(value, path) -> value`` that raises
    :class:`ConfigError`; ``path`` names the value in the messages.
    """
    if callable(rule):
        return rule(value, path)
    if isinstance(rule, tuple):
        test, message, convert = rule
        if not test(value):
            raise ConfigError(path, f"{message}, got {value!r}")
        return convert(value)
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in rule:
            raise ConfigError(prefix + key, f"unknown field; valid: {', '.join(rule)}")
    checked = {}
    for key, (default, field_rule) in rule.items():
        if key in value:
            checked[key] = _check(value[key], field_rule, prefix + key)
        elif default is REQUIRED:
            raise ConfigError(prefix + key, "missing required field")
        else:
            checked[key] = None if default is None else _check(default, field_rule, prefix + key)
    return checked


def _check_model_params(model: str, params: Dict[str, float], parameter: str) -> None:
    """Each parameter a named model reads is set once, by ``params`` or by the sweep."""
    names = MODEL_PARAMS[model]
    valid = (*names, "g") if "V" in names else names
    seen = set()
    for key, path in [(parameter, "sweep.parameter"), *((key, f"params.{key}") for key in params)]:
        if key not in valid:
            raise ConfigError(path, f"{model} does not read {key!r}; valid: {', '.join(valid)}")
        name = "V" if key == "g" and "V" in names else key
        if name in seen:
            raise ConfigError(path, f"sets {name}, which is set already; one value would be ignored")
        seen.add(name)
    if len(seen) < len(names):
        missing = [name for name in names if name not in seen]
        raise ConfigError("params", f"missing parameters {missing} for {model}")


def parse_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration against :data:`CONFIG_FIELDS`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file does not exist")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    fields = _check(raw, CONFIG_FIELDS, "")
    model, sweep, solver = fields["model"], fields["sweep"], fields["solver"]

    # The truncation scans converge on the first observable.
    scans = fields["k_max"] is None or {"converge", "compare_markovian"} & set(fields["analyses"])
    if not fields["observables"] and scans:
        raise ConfigError("observables", "must be non-empty for k_max 'auto', "
                          "converge or compare_markovian")
    for key in ("epsilon", "k_limit"):
        if key in raw and not scans:
            raise ConfigError(key, "read only by k_max 'auto', converge or compare_markovian")
    if model != "custom":
        if fields["custom"] is not None:
            raise ConfigError("custom", f"read only for model 'custom', not {model!r}")
        _check_model_params(model, fields["params"], sweep["parameter"])
    elif fields["custom"] is None:
        raise ConfigError("custom", "required for model == 'custom'")
    elif len(sweep["grid"]) != 1:
        raise ConfigError("sweep.grid", "custom models support a single grid point only")

    config = RunConfig(
        model=model,
        params=fields["params"],
        sizes=fields["N"],
        k_max=fields["k_max"],
        epsilon=fields["epsilon"],
        k_limit=fields["k_limit"],
        sweep_parameter=sweep["parameter"],
        sweep_grid=sweep["grid"],
        analyses=fields["analyses"],
        observables=fields["observables"],
        output_dir=fields["output_dir"],
        shift=solver["shift"],
        eig_count=solver["count"],
        tol=solver["tol"],
        seed=fields["seed"],
        workers=fields["workers"],
        export_matrices=fields["export_matrices"],
        custom_spec=fields["custom"],
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


def _read_matrix(file: str, path: str) -> np.ndarray:
    """A triplet matrix file as a dense array.

    An unreadable file or one with a NaN or Inf entry is a config error at ``path``.
    """
    try:
        return as_dense(read_triplets(file))
    except MatrixValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_model(config: RunConfig, size: int, sweep_value: float) -> ModelInstance:
    """Instantiate the configured model at one grid point."""
    params = dict(config.params)
    params[config.sweep_parameter] = sweep_value
    if config.model == "custom":
        spec = config.custom_spec
        h_matrix = _read_matrix(spec["hamiltonian_file"], "custom.hamiltonian_file")
        baths = [
            BathSpec(_read_matrix(bath["coupling_file"], f"custom.baths[{i}].coupling_file"),
                     tuple(BathTerm(t["amplitude"], t["frequency"], t["kappa"])
                           for t in bath["terms"]))
            for i, bath in enumerate(spec["baths"])
        ]
        return custom(h_matrix, baths, params=params, size=size)
    if "g" in params and "V" in MODEL_PARAMS[config.model]:
        params["V"] = params.pop("g") * params["gamma"]
    constructor = {"lmg": lmg, "z2_lmg": z2_lmg, "two_mode_dicke": two_mode_dicke}[config.model]
    return constructor(size, *(params[name] for name in MODEL_PARAMS[config.model]))


def resolve_observables(
    config: RunConfig, model: ModelInstance
) -> List[Tuple[str, np.ndarray]]:
    """Map the configured observables to matrices, enforcing Hermiticity."""
    resolved = []
    spin_ops = None
    for i, (name, file) in enumerate(config.observables):
        if file is not None:
            matrix = _read_matrix(file, f"observables[{i}].file")
            if matrix.shape != (model.dim, model.dim):
                raise ConfigError(
                    f"observables[{i}]",
                    f"observable {name!r} has shape {matrix.shape}, "
                    f"model dimension is {model.dim}",
                )
            if np.abs(matrix - matrix.conj().T).max() > 1e-10:
                raise ConfigError(
                    f"observables[{i}]", f"custom observable {name!r} is not Hermitian"
                )
        elif name in SPIN_OBSERVABLES:
            if model.dim != model.size + 1:
                raise ConfigError(
                    f"observables[{i}]",
                    f"named spin observable {name!r} needs a collective-spin model",
                )
            if spin_ops is None:
                spin_ops = spin_operators(SpinSpace(model.size))
            matrix = spin_ops[name]
        else:
            raise ConfigError(
                f"observables[{i}]",
                f"unknown observable {name!r}; use one of {SPIN_OBSERVABLES} or give a file",
            )
        resolved.append((name, matrix))
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

    @property
    def target(self) -> Target:
        """What the gap and steady state read: the decomposition of a symmetric model."""
        return self.decomp if self.model.symmetry is not None else self.liouv


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
    # a decomposition's steady state reads the charge-0 solve of gap and sectors
    state, _ = steady_state(point.target, **point.solver())
    rows = []
    for name, matrix in point.observables:
        value = complex(np.trace(matrix @ state.matrix))
        rows.append(("steady_state", name, value.real, value.imag))
    rows.append(("steady_state", "min_eigenvalue", state.min_eigenvalue, 0.0))
    rows.append(("steady_state", "hermiticity_defect", state.hermiticity_defect, 0.0))
    return rows


def _rows_gap(point: _Point):
    values = spectrum(point.target, charge=None, **point.solver()).eigenvalues
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
    decomp = point.decomp
    rows = []
    for charge in decomp.charges_present():
        res = sector_leading_eigs(decomp, charge, **point.solver())
        rows.append(("sectors", f"dim[k={charge}]", float(decomp.dimension(charge)), 0.0))
        for i, value in enumerate(res.eigenvalues):
            rows.append(("sectors", f"lambda_{i}[k={charge}]", value.real, value.imag))
    return rows


def _rows_ssb(point: _Point):
    decomp = point.decomp
    scale = point.model.params.get("omega", 1.0)
    rows = []
    res = sector_leading_eigs(decomp, 1, **point.solver())
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
    "sectors": _rows_sectors,
    "decompose": _rows_decompose,
    "ssb": _rows_ssb,
    "converge": _rows_converge,
    "compare_markovian": _rows_compare,
    "properties": _rows_properties,
}
#: The analyses that need only a null vector, run after the others.
NULL_VECTOR_ANALYSES = ("steady_state", "ssb")
#: The analyses that read the sector spectra of a symmetric model.
SECTOR_ANALYSES = ("gap", "sectors", "ssb")


def _solve_sectors(send, decomp: SectorDecomposition, charges: Sequence[int], solver: dict):
    """Solve ``charges`` in turn, sending each ``(charge, solve)``, up to the first that raises.

    A charge left out is solved again by the analysis that reads it, which
    then raises the error of a serial run.
    """
    for charge in charges:
        try:
            result = decomp.solvable(charge).eigs(**solver)
        except Exception as exc:  # raised again by the analysis that reads the charge
            log.debug("sector %d: %s; its analysis solves it again", charge, exc)
            return
        send((charge, result))


def _exit_without(parent: int) -> None:
    """End this process once ``parent`` has gone, polled every 0.1 s."""
    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(1)


def _forked(parent: int, writer, work, args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its children
    threading.Thread(target=_exit_without, args=(parent,), daemon=True).start()
    work(writer.send, *args)


def _fork(context, work, *args):
    """Run ``work(send, *args)`` in a child of ``context``; returns ``(process, reader)``.

    ``send`` writes to ``reader``'s pipe; the writer is closed here, so EOF means the child
    is gone.  The child ignores SIGINT and ends within 0.1 s of its parent, even a killed one.
    """
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(target=_forked, args=(os.getpid(), writer, work, args))
    with writer:
        process.start()
    return process, reader


def _stop(children) -> None:
    """Close, kill and join each ``(process, reader)`` of ``children``."""
    for process, reader in children:
        reader.close()
        process.kill()  # a child still running here is stopped by an error or an interrupt
        process.join()


def _presolve(point: _Point, processes: int) -> None:
    """Solve the sectors the point's analyses read in up to ``processes`` processes at once.

    Only a symmetric model with an analysis of :data:`SECTOR_ANALYSES` reads
    them, and only the charges a serial run solves: every charge for
    ``sectors``, otherwise the representative charges for ``gap``, otherwise
    charge 1 for ``ssb``, whose steady state takes charge 0 from the null
    iteration.  They are dealt to the processes by dimension, largest first
    to the least loaded.  This process solves the first share and forked
    children the others (:func:`_fork`, so ``processes`` above 1 needs
    ``fork``); each child's solves come back through a pipe and are stored
    under the keys the analyses read, so the analyses find them as after a
    serial run.  A charge whose solve raised, or whose child died, is not
    stored, so its analysis solves it here.  Every child is joined before
    this returns or raises.
    """
    analyses = point.config.analyses
    if processes < 2 or point.model.symmetry is None or not set(SECTOR_ANALYSES) & set(analyses):
        return
    decomp = point.decomp
    charges = (decomp.charges_present() if "sectors" in analyses
               else list(decomp.representative_charges(point.config.shift)) if "gap" in analyses
               else [1])
    shares: List[List[int]] = [[] for _ in range(min(processes, len(charges)))]
    loads = [0] * len(shares)
    for charge in sorted(charges, key=decomp.dimension, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(charge)
        loads[least] += decomp.dimension(charge)
    solver = point.solver()
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(context, _solve_sectors, decomp, share, solver))
        _solve_sectors(lambda solved: None, decomp, shares[0], solver)  # stored on the sectors
        for (process, reader), share in zip(children, shares[1:]):
            unsent = list(share)
            while unsent:
                try:
                    charge, result = reader.recv()
                except (EOFError, OSError):  # the child raised, or died
                    break
                decomp.solvable(charge).store(result, **solver)
                unsent.remove(charge)
            process.join()
            if process.exitcode < 0:
                log.warning("a sector child died with signal %d; the point solves its unsent "
                            "charges %s itself", -process.exitcode, unsent)
    finally:
        _stop(children)


def execute_point(config: RunConfig, index: int, size: int, sweep_value: float,
                  processes: int = 1):
    """Run every configured analysis at one grid point; returns (index, rows).

    With ``processes`` above 1 the sector solves the analyses read are made
    first, in that many processes at once (:func:`_presolve`); otherwise
    every solve is made in this process.
    """
    model = build_model(config, size, sweep_value)
    point = _Point(config, model, resolve_observables(config, model))
    k_max = _resolve_k_max(point)
    point.liouv = assemble(model, k_max)
    _presolve(point, processes)
    run_id = f"{config.config_hash[:8]}-{index:04d}"
    # steady_state and ssb read a null vector: run after the analyses that take
    # spectra, they find the solve of its matrix cached instead of factorizing it.
    order = sorted(dict.fromkeys(config.analyses), key=lambda name: name in NULL_VECTOR_ANALYSES)
    results = {analysis: HANDLERS[analysis](point) for analysis in order}
    rows = []
    for analysis in config.analyses:
        for analysis_name, key, re_value, im_value in results[analysis]:
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


def _describe(job, message: str) -> str:
    config, index, size, value = job
    return f"point {index} (N={size}, {config.sweep_parameter}={value}): {message}"


def _point_worker(send, job, processes: int, solving: int) -> None:
    """Run one point in up to ``processes`` processes; ``solving`` of the run's may solve at once."""
    if solving > 1:  # two BLAS threads per process would contend for the cores
        limit_blas_threads(1)
    try:
        outcome = execute_point(*job, processes=processes), None
    except Exception as exc:  # crash isolation: record and continue
        outcome = (job[1], []), _describe(job, str(exc))
    send(outcome)


def _format_row(row: dict) -> str:
    return ",".join(f"{row[name]:.17g}" if name in ("sweep_value", "re_value", "im_value")
                    else str(row[name]) for name in CSV_COLUMNS.split(","))


@contextlib.contextmanager
def _interrupts_held():
    """Hold SIGINT back until the block has run, where the platform has signal masks."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


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


def _restorable(config: RunConfig, index: int) -> Optional[dict]:
    """The checkpoint of point ``index`` if a run of ``config`` restores it, else None.

    A fragment of another config or package version is not restored.
    """
    payload = _load_fragment(Path(config.output_dir) / "points" / f"point_{index:04d}.json")
    if payload is None:
        return None
    if payload.get("config_hash") != config.config_hash:
        log.info("point %d: checkpoint is from another config; recomputing", index)
    elif payload.get("version") != __version__:
        log.info("point %d: checkpoint is from version %s, not %s; recomputing",
                 index, payload.get("version"), __version__)
    else:
        return payload
    return None


def run(config: RunConfig) -> int:
    """Execute a sweep; returns the process exit status (0 ok, 1 partial).

    An interrupt (``KeyboardInterrupt``) stops the running point children
    and propagates; the points checkpointed so far are restored by a rerun.
    """
    out_dir = Path(config.output_dir)
    points_dir = out_dir / "points"
    points_dir.mkdir(parents=True, exist_ok=True)

    points = list(enumerate(itertools.product(config.sizes, config.sweep_grid)))
    results: Dict[int, List[dict]] = {}
    failures: Dict[int, str] = {}

    pending = []
    for index, (size, value) in points:
        payload = _restorable(config, index)
        if payload is None:
            pending.append((config, index, size, value))
            continue
        if payload.get("error"):
            failures[index] = payload["error"]
        results[index] = payload["rows"]
        log.info("point %d restored from checkpoint", index)

    def _record(outcome, error):
        (index, rows), fragment = outcome, points_dir / f"point_{outcome[0]:04d}.json"
        if error:
            failures[index] = error
            log.warning("%s", error)
        if rows is None:  # the point's child died: no fragment, so a rerun computes it
            return
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

    # a spawned child imports numpy and scipy again, as costly as a small point
    context = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
    # children beyond the usable cores would only contend for them
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    slots = min(config.workers, cores)
    # the processes of each point, over which it spreads its sectors in forked children
    processes = cores // slots if context.get_start_method() == "fork" else 1
    running = {}  # the read end of each child's pipe -> (process, job)
    try:
        while pending or running:
            while pending and len(running) < slots:
                job = pending.pop(0)
                with _interrupts_held():  # a child is always started and recorded, or neither
                    process, reader = _fork(context, _point_worker, job, processes,
                                            slots * processes)
                    running[reader] = process, job
            for reader in multiprocessing.connection.wait(list(running)):
                process, job = running.pop(reader)
                try:
                    outcome = reader.recv()
                except (EOFError, OSError):  # the child died before its message was whole
                    outcome = None
                reader.close()
                process.join()
                if outcome is None:
                    code = process.exitcode
                    death = f"signal {-code}" if code < 0 else f"exit status {code}"
                    outcome = (job[1], None), _describe(job, f"worker died with {death}")
                _record(*outcome)
    finally:
        _stop((process, reader) for reader, (process, _) in running.items())

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
        for index in sorted(failures):
            print(f"  {failures[index]}", file=sys.stderr)
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
    parser.add_argument("--workers", type=int,
                        help="grid points run at once, at most the usable cores; each point "
                             "solves its symmetry sectors in parallel on its share of them "
                             "(overrides the config)")
    parser.add_argument("--verbose", action="store_true", help="enable progress logging")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        config = parse_config(args.config)
        if args.workers is not None:
            config.workers = _check(args.workers, CONFIG_FIELDS["workers"][1], "--workers")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config.output_dir = args.out
    try:
        return run(config)
    except KeyboardInterrupt:  # run has stopped the point children
        total = len(config.sizes) * len(config.sweep_grid)
        saved = sum(_restorable(config, index) is not None for index in range(total))
        print(f"interrupted: {saved} of {total} points are checkpointed in "
              f"{Path(config.output_dir) / 'points'}; a rerun resumes from them", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
