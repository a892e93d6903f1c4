"""In-memory span tracing around the public functions of heomspectra.

Spans are recorded by wrappers installed from here, never by code inside
the package: each traced function is replaced, in every ``heomspectra``
module namespace that holds it, by a wrapper that records a span.  A name is
wrapped where its caller looks it up (``spectra``, ``symmetry`` and
``embedding`` each import ``eig_targeted`` by name), so every call path is
seen.  The sparse LU that SciPy's shift-invert ARPACK performs is wrapped at
``scipy.sparse.linalg._eigen.arpack.arpack.splu``.

A span is a dict with ``id``, ``parent``, ``op``, ``name``, ``start``,
``end`` and ``attrs``.  Spans of one operation share ``op``.  Self time is a
span's duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children nest strictly.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"
BOOKKEEPING = "trace.bookkeeping"

#: (module, function) pairs wrapped by :meth:`Tracer.install`; the span name
#: is ``<module>.<function>``.
TRACED_FUNCTIONS = (
    ("builder", "assemble"),
    ("symmetry", "decompose"),
    ("symmetry", "sector_leading_eigs"),
    ("linalg", "eig_targeted"),
    ("linalg", "eig_dense"),
    ("spectra", "spectrum"),
    ("spectra", "steady_state"),
    ("spectra", "gap"),
    ("spectra", "canonical_physical_state"),
    ("dpt", "ssb_pair"),
    ("dpt", "fidelity"),
    ("dpt", "split_phases"),
    ("dpt", "hermitian_phase"),
    ("dpt", "reconstruct_mixture"),
    ("convergence", "auto_truncate"),
    ("convergence", "auto_cutoff"),
    ("convergence", "steady_expectation"),
    ("convergence", "embedding_expectation"),
    ("embedding", "build_lm"),
    ("embedding", "steady_state_lm"),
    ("cli", "main"),
    ("cli", "execute_point"),
)
#: Methods wrapped on their class: (module, class, method).
TRACED_METHODS = (("spectra", "SpectralResult", "physical_block"),)


def _eig_key(args, kwargs) -> Dict[str, str]:
    """Identity of a targeted solve: matrix content, shift and count."""
    names = ("a", "shift", "count")
    bound = dict(zip(names, args))
    bound.update({k: v for k, v in kwargs.items() if k in names})
    matrix = bound["a"]
    if hasattr(matrix, "tocsr"):
        matrix = matrix.tocsr()
        arrays = (matrix.indptr, matrix.indices, matrix.data)
    else:
        matrix = np.ascontiguousarray(matrix)
        arrays = (matrix,)
    digest = hashlib.sha1()
    digest.update(repr(matrix.shape).encode())
    for array in arrays:
        digest.update(array.tobytes())
    digest.update(repr((complex(bound["shift"]), int(bound["count"]))).encode())
    return {"key": digest.hexdigest()}


#: Attributes recorded from a call's result, per span name.
_RESULT_ATTRS: Dict[str, Callable] = {
    "builder.assemble": lambda r: {"nnz": int(r.matrix.nnz)},
    "embedding.build_lm": lambda r: {"dim": int(r.shape[0])},
    "linalg.lu": lambda r: {"fill": int(r.L.nnz + r.U.nnz)},
}
#: Attributes recorded from a call's arguments, timed as bookkeeping.
_ARG_ATTRS: Dict[str, Callable] = {
    "linalg.eig_targeted": _eig_key,
    "cli.execute_point": lambda args, kwargs: {"point": int(args[1])},
}


class Tracer:
    """Records spans while installed; restores every patched name on removal."""

    def __init__(self):
        self.spans: List[dict] = []
        self.op: Optional[str] = None
        self.lu_traced = False
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, args, kwargs):
        record = self._open(name)
        try:
            describe = _ARG_ATTRS.get(name)
            if describe is not None:
                note = self._open(BOOKKEEPING)
                try:
                    record["attrs"].update(describe(args, kwargs))
                finally:
                    self._close(note)
            result = fn(*args, **kwargs)
            summarize = _RESULT_ATTRS.get(name)
            if summarize is not None:
                record["attrs"].update(summarize(result))
            return result
        finally:
            self._close(record)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced name in every loaded heomspectra module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, _ in TRACED_FUNCTIONS:
            importlib.import_module(f"heomspectra.{module_name}")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "heomspectra" or name.startswith("heomspectra."))
        ]
        for module_name, func_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"heomspectra.{module_name}"], func_name)
            wrapper = self._wrapper(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for module_name, class_name, method in TRACED_METHODS:
            owner = getattr(sys.modules[f"heomspectra.{module_name}"], class_name)
            self._replace(owner, method, self._wrapper(f"{module_name}.{method}", getattr(owner, method)))
        try:
            arpack = importlib.import_module(ARPACK_MODULE)
            splu = arpack.splu
        except (ImportError, AttributeError):
            self.lu_traced = False
        else:
            self._replace(arpack, "splu", self._wrapper("linalg.lu", splu))
            self.lu_traced = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- metrics from spans ----------------------------------------------------

def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def covered_time(spans: List[dict]) -> float:
    """Total duration of the top-level spans (those without a parent)."""
    ids = {s["id"] for s in spans}
    return sum(s["end"] - s["start"] for s in spans if s["parent"] not in ids)


#: Self-time metrics: metric name -> span name.  Together with
#: ``trace.bookkeeping_s`` and ``trace.unaccounted_s`` they sum to the traced
#: ``run_s``.
SELF_TIME_METRICS = {
    "builder.assemble_s": "builder.assemble",
    "symmetry.decompose_s": "symmetry.decompose",
    "symmetry.sector_leading_eigs_s": "symmetry.sector_leading_eigs",
    "linalg.lu_s": "linalg.lu",
    "linalg.eig_targeted_s": "linalg.eig_targeted",
    "linalg.eig_dense_s": "linalg.eig_dense",
    "spectra.spectrum_s": "spectra.spectrum",
    "spectra.steady_state_s": "spectra.steady_state",
    "spectra.gap_s": "spectra.gap",
    "spectra.canonical_physical_state_s": "spectra.canonical_physical_state",
    "spectra.physical_block_s": "spectra.physical_block",
    "dpt.ssb_pair_s": "dpt.ssb_pair",
    "dpt.fidelity_s": "dpt.fidelity",
    "dpt.split_phases_s": "dpt.split_phases",
    "dpt.hermitian_phase_s": "dpt.hermitian_phase",
    "dpt.reconstruct_mixture_s": "dpt.reconstruct_mixture",
    "convergence.auto_truncate_s": "convergence.auto_truncate",
    "convergence.auto_cutoff_s": "convergence.auto_cutoff",
    "convergence.steady_expectation_s": "convergence.steady_expectation",
    "convergence.embedding_expectation_s": "convergence.embedding_expectation",
    "embedding.build_lm_s": "embedding.build_lm",
    "embedding.steady_state_lm_s": "embedding.steady_state_lm",
    "cli.main_s": "cli.main",
    "cli.execute_point_s": "cli.execute_point",
    "trace.bookkeeping_s": BOOKKEEPING,
}
COUNT_METRICS = {
    "linalg.eig_targeted_calls": "linalg.eig_targeted",
    "linalg.eig_dense_calls": "linalg.eig_dense",
    "linalg.lu_count": "linalg.lu",
    "builder.assemble_calls": "builder.assemble",
    "symmetry.decompose_calls": "symmetry.decompose",
    "convergence.steady_expectation_calls": "convergence.steady_expectation",
}
#: Metrics that need the LU span; reported missing when it cannot be traced.
LU_METRICS = ("linalg.lu_s", "linalg.lu_count", "linalg.lu_fill_nnz",
              "linalg.lu_per_eig", "linalg.arnoldi_s")


def round_metrics(spans: List[dict], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round that took ``wall`` seconds."""
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    children: Dict[int, List[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    metrics = {
        metric: sum(own[s["id"]] for s in by_name[name])
        for metric, name in SELF_TIME_METRICS.items()
    }
    metrics.update({metric: len(by_name[name]) for metric, name in COUNT_METRICS.items()})

    eigs = by_name["linalg.eig_targeted"]
    sparse = [s for s in eigs
              if not any(c["name"] == "linalg.eig_dense" for c in children[s["id"]])]
    lu_in_sparse = sum(
        1 for s in sparse for c in children[s["id"]] if c["name"] == "linalg.lu"
    )
    metrics["linalg.arnoldi_s"] = sum(own[s["id"]] for s in sparse)
    metrics["linalg.lu_per_eig"] = lu_in_sparse / len(sparse) if sparse else 0.0
    metrics["linalg.lu_fill_nnz"] = max(
        (s["attrs"]["fill"] for s in by_name["linalg.lu"]), default=0
    )
    metrics["linalg.eig_distinct_ratio"] = (
        len({s["attrs"]["key"] for s in eigs}) / len(eigs) if eigs else 0.0
    )
    metrics["builder.nnz"] = max((s["attrs"]["nnz"] for s in by_name["builder.assemble"]), default=0)
    metrics["embedding.dim"] = max((s["attrs"]["dim"] for s in by_name["embedding.build_lm"]), default=0)
    metrics["cli.overhead_s"] = (
        wall - sum(s["end"] - s["start"] for s in by_name["cli.execute_point"])
        if by_name["cli.main"] else 0.0
    )
    metrics["trace.run_s"] = wall
    metrics["trace.unaccounted_s"] = wall - covered_time(spans)
    return metrics
