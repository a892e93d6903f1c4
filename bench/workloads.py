"""The three benchmark workloads: inputs from a seed, rounds of operations, checks.

Each workload is a closed loop in one process: the next operation starts
when the previous one has returned.  A round is one pass over the
workload's operations; every round of a run repeats the same inputs.
Constructing a workload builds its inputs, which is the set-up the benchmark
times.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

import heomspectra.builder as builder
import heomspectra.convergence as convergence
import heomspectra.dpt as dpt
import heomspectra.models as models
import heomspectra.operators as operators
import heomspectra.spectra as spectra
import heomspectra.symmetry as symmetry

import checks
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 170


def draw(rng: random.Random, windows) -> List[float]:
    """One coupling per window, uniform inside it, rounded to 1e-4."""
    return [round(rng.uniform(lo, hi), 4) for lo, hi in windows]


@dataclass
class RoundResult:
    """Wall time, outputs, failures and traced spans of one round."""

    wall: float
    outputs: Optional[list]
    failed: int
    spans: Optional[List[dict]] = None


class InProcessWorkload:
    """Operations are Python calls into heomspectra in this process."""

    in_process = True
    min_rounds = 1
    models: list  # one operation per model

    @property
    def ops_per_round(self) -> int:
        return len(self.models)

    def operation(self, model) -> dict:
        raise NotImplementedError

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        outputs, failed = [], 0
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        for op_index, model in enumerate(self.models):
            if tracer:
                tracer.op = f"{index}.{op_index}"
            try:
                outputs.append(self.operation(model))
            except Exception:  # an operation failure is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                failed += 1
        wall = time.perf_counter() - start
        return RoundResult(wall, outputs, failed, tracer.spans[first_span:] if tracer else None)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def final_checks(self) -> List[str]:
        return []


class SectorSpectrum(InProcessWorkload):
    """One large sector-0 factorization per point; no solve repeats.

    ``lmg`` at N=20, k_max=7, parity sectors, one coupling on each side of
    the N=20 gap minimum (near g=0.38).  Each point is criterion 5's point:
    assemble, decompose, sector-0 spectrum, physical blocks, phase split of
    the slowest decaying block and the mixture fidelity.
    """

    N = 20
    K_MAX = 7
    COUNT = 6
    TOL = 1e-10
    WINDOWS = ((0.34, 0.37), (0.38, 0.41))
    SMALL_N, SMALL_K = 6, 6  # dense cross-check instance, sector dim 686 > 600

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.couplings = draw(rng, self.WINDOWS)
        self.solver_seed = seed % 2**32
        self.models = [models.lmg(self.N, g, 1.0, 1.0, 1.0) for g in self.couplings]
        self.spec = self.parity(self.N)

    @staticmethod
    def parity(n: int) -> symmetry.SymmetrySpec:
        return symmetry.SymmetrySpec(tuple(range(n + 1)), (1,), group_order=2)

    def operation(self, model) -> dict:
        liouv = builder.assemble(model, self.K_MAX)
        decomp = symmetry.decompose(liouv, self.spec)
        res = spectra.spectrum(decomp, charge=0, count=self.COUNT, tol=self.TOL, seed=self.solver_seed)
        values = res.eigenvalues
        i1 = next(i for i in range(1, len(values)) if abs(values[i] - values[0]) > 1e-9)
        raw0 = res.physical_block(0)
        steady, _ = spectra.canonical_physical_state(raw0)
        rotated, _ = dpt.hermitian_phase(res.physical_block(i1))
        herm = (rotated + rotated.conj().T) / 2
        pair = dpt.split_phases(rotated / float(np.abs(np.linalg.eigvalsh(herm)).sum()))
        fid = dpt.fidelity(dpt.reconstruct_mixture(pair), steady)
        return {"matrix": liouv.matrix, "d_s": liouv.d_s, "values": values,
                "vectors": res.vectors, "raw0": raw0, "steady": steady.matrix, "fidelity": fid}

    def check_round(self, outputs) -> List[str]:
        problems = []
        for out in outputs:
            problems += checks.leading_zero(out["values"])
            problems += checks.eigen_residuals(out["matrix"], out["values"], out["vectors"], self.TOL)
            problems += checks.density_matrix(out["raw0"], out["steady"])
            problems += checks.trace_covector(out["matrix"], out["d_s"])
            problems += checks.unit_interval(out["fidelity"], "mixture fidelity")
        return problems

    def final_checks(self) -> List[str]:
        n = self.SMALL_N
        model = models.lmg(n, self.couplings[0], 1.0, 1.0, 1.0)
        decomp = symmetry.decompose(builder.assemble(model, self.SMALL_K), self.parity(n))
        res = spectra.spectrum(decomp, charge=0, count=self.COUNT, tol=self.TOL, seed=self.solver_seed)
        return checks.dense_match(decomp.sector(0).toarray(), res.eigenvalues)


class TruncationScan(InProcessWorkload):
    """Many small one-off solves at growing dimension, none repeated.

    ``auto_truncate`` and ``auto_cutoff`` on ``lmg`` N=10 at one coupling in
    [0.17, 0.20], where both selections are stable (k*=4, N_c*=5), then the
    matched-tolerance ``<Sz>`` comparison of criterion 3.  The first solves
    of each scan fall below the dense-fallback dimension 600.
    """

    N = 10
    EPSILON = 1e-4
    WINDOWS = ((0.17, 0.20),)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.couplings = draw(rng, self.WINDOWS)
        self.solver_seed = seed % 2**32
        self.models = [models.lmg(self.N, g, 1.0, 1.0, 1.0) for g in self.couplings]
        self.sz = operators.spin_operators(operators.SpinSpace(self.N))["Sz"]

    def operation(self, model) -> dict:
        seed = self.solver_seed
        heom = convergence.auto_truncate(model, self.sz, epsilon=self.EPSILON,
                                         k_start=1, k_limit=12, seed=seed)
        lm = convergence.auto_cutoff(model, self.sz, epsilon=self.EPSILON,
                                     n_start=1, n_limit=16, seed=seed)
        out = {"heom": heom, "lm": lm}
        if heom.selected is not None and lm.selected is not None:
            out["sz_heom"] = convergence.steady_expectation(model, self.sz, heom.selected, seed=seed)
            out["sz_lm"] = convergence.embedding_expectation(model, self.sz, lm.selected, seed=seed)
        return out

    def check_round(self, outputs) -> List[str]:
        problems = []
        for out in outputs:
            for name in ("heom", "lm"):
                trace = out[name]
                problems += checks.scan_selection(trace.measures, trace.selected, self.EPSILON, name)
            if "sz_heom" in out:
                problems += checks.matched_observable(out["sz_heom"], out["sz_lm"], 1e-4 * self.N / 2)
        return problems


class CliSweep:
    """The heomspectra CLI on a 3-point z2_lmg sweep where identical solves repeat.

    ``z2_lmg`` N=10, k_max=7, gamma=h=0.5, kappa=omega=1, one coupling in each
    third of [-3.0, -2.8] (broken phase, as in criterion 6), analyses
    steady_state, gap, decompose, sectors and ssb, observables Sz and Sx,
    ``--workers 1``, a fresh output directory per run.  An operation is one
    grid point.  Untraced rounds run the CLI as its own process; traced rounds
    run it in a child that installs the tracer around ``heomspectra.cli.main``.
    """

    N = 10
    COUNT = 6
    OBSERVABLES = ("Sz", "Sx")
    WINDOWS = ((-3.0, -2.9334), (-2.9333, -2.8667), (-2.8666, -2.8))
    in_process = False
    min_rounds = 2  # two runs of one config are compared byte for byte

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.couplings = draw(rng, self.WINDOWS)
        self.ops_per_round = len(self.couplings)
        self.workdir = workdir
        self.config = workdir / "cli_sweep.json"
        self.config.write_text(json.dumps({
            "model": "z2_lmg",
            "params": {"gamma": 0.5, "kappa": 1.0, "omega": 1.0, "h": 0.5},
            "N": [self.N],
            "k_max": 7,
            "sweep": {"parameter": "g", "grid": self.couplings},
            "analyses": ["steady_state", "gap", "decompose", "sectors", "ssb"],
            "observables": list(self.OBSERVABLES),
            "solver": {"count": self.COUNT, "tol": 1e-10},
            "seed": seed % 2**32,
        }))
        self.csv_texts: List[str] = []

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        out = self.workdir / f"cli_out_{index}"
        cli_args = ["--config", str(self.config), "--out", str(out), "--workers", "1"]
        spans_file = self.workdir / f"cli_spans_{index}.json"
        if tracer:
            command = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_file)] + cli_args
        else:
            command = [sys.executable, "-m", "heomspectra.cli"] + cli_args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=str(ROOT), env=env)
        try:
            status = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            status = proc.wait()
        wall = time.perf_counter() - start

        failed_points = []
        for point in range(self.ops_per_round):
            fragment = out / "points" / f"point_{point:04d}.json"
            try:
                if json.loads(fragment.read_text()).get("error"):
                    failed_points.append(point)
            except (OSError, ValueError):
                failed_points.append(point)
        csv = out / "results.csv"
        text = csv.read_text() if csv.exists() else None
        spans = None
        if tracer:
            spans = self._load_spans(spans_file, index, tracer) if spans_file.exists() else []
        output = {"status": status, "text": text, "failed_points": failed_points}
        return RoundResult(wall, [output], len(failed_points), spans)

    @staticmethod
    def _load_spans(path: Path, index: int, tracer: Tracer) -> List[dict]:
        """Adopt a child's spans: ids made unique in ``tracer``, op ids assigned."""
        payload = json.loads(path.read_text())
        tracer.lu_traced = payload["lu_traced"]
        spans = payload["spans"]
        offset = len(tracer.spans)
        for s in spans:  # spans are stored in opening order, parents first
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            if s["name"] == "cli.execute_point":
                s["op"] = f"{index}.{s['attrs']['point']}"
            else:
                s["op"] = tracer.spans[s["parent"]]["op"] if s["parent"] is not None else str(index)
            tracer.spans.append(s)
        return spans

    def check_round(self, outputs) -> List[str]:
        problems = []
        for out in outputs:
            expected_status = 1 if out["failed_points"] else 0
            if out["status"] != expected_status:
                problems.append(f"CLI exit status {out['status']}, expected {expected_status}")
            if out["text"] is None:
                problems.append("CLI wrote no results.csv")
                continue
            self.csv_texts.append(out["text"])
            # Rows of failed points are absent by the CLI's contract.
            points = [p for p in range(self.ops_per_round) if p not in out["failed_points"]]
            rows = checks.parse_results(out["text"])
            problems += checks.cli_rows(rows, points, self.OBSERVABLES, self.COUNT)
        return problems

    def final_checks(self) -> List[str]:
        if len(self.csv_texts) < 2:
            return ["fewer than two CLI runs to compare"]
        return checks.identical_results(self.csv_texts)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {
    "sector_spectrum": SectorSpectrum,
    "cli_sweep": CliSweep,
    "truncation_scan": TruncationScan,
}
