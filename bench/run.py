"""Benchmark entry point for heomspectra.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs as many whole rounds of one workload as fit in ``--seconds`` (at least
the workload's minimum number of rounds), checks every output, and prints one
JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``).  With ``--trace 1`` untraced and traced rounds
alternate, and the metrics are the per-layer ones computed from the traced
rounds' spans; the spans are also written to
``.bench_runs/trace-<workload>-seed<seed>.json``.  See ``bench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("sector_spectrum", "cli_sweep", "truncation_scan")
#: Set-up is measured this many times in fresh processes, plus once here.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use; children inherit it."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cores
        os.environ[var] = str(min(max(current, 1), cores))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def probe_setup(args) -> list:
    """Set-up times of fresh processes that import the package and build inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_rounds(workload, seconds: float, trace: bool):
    """Whole rounds that fit in ``seconds``; with tracing, untraced and traced alternate."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    min_rounds = max(workload.min_rounds, 2 if trace else 1)
    plain, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    last = 0.0
    # A round starts only if one more round of the last one's length still fits.
    while index < min_rounds or time.perf_counter() - start + last <= seconds:
        use_tracer = tracer is not None and index % 2 == 1
        in_process = use_tracer and workload.in_process
        if in_process:
            tracer.install()
        try:
            result = workload.run_round(index, tracer if use_tracer else None)
        finally:
            if in_process:
                tracer.uninstall()
        (traced if use_tracer else plain).append(result)
        last = result.wall
        attempted += workload.ops_per_round
        failed += result.failed
        problems += workload.check_round(result.outputs)
        result.outputs = None  # checked; free the arrays before the next round
        index += 1
    return plain, traced, tracer, attempted, failed, problems


def end_to_end(workload, plain, setup_times) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "run_s": {"value": statistics.median(r.wall for r in plain), "unit": "s"},
        "peak_rss_mb": {"value": workload.peak_rss_kb() / 1024.0, "unit": "MB"},
    }


def per_layer(plain, traced, tracer) -> dict:
    from tracing import LU_METRICS, round_metrics

    rounds = [round_metrics(r.spans, r.wall) for r in traced]
    values = {name: statistics.fmean(m[name] for m in rounds) for name in rounds[0]}
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.fmean(r.wall for r in plain)
    if not tracer.lu_traced:
        print("note: SciPy's ARPACK splu could not be wrapped; LU metrics are missing",
              file=sys.stderr)
        for name in LU_METRICS:
            values.pop(name, None)
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(values.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_eig")):
        return "ratio"
    return "count"


def dump_trace(path: Path, args, traced) -> None:
    spans = [s for r in traced for s in r.spans]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": spans}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heomspectra").is_dir():
        print(f"error: no heomspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_here = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setup_times = [setup_here] + ([] if args.trace else probe_setup(args))

        plain, traced, tracer, attempted, failed, problems = run_rounds(
            workload, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(plain, traced, tracer)
            dump_trace(RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json", args, traced)
        else:
            metrics = end_to_end(workload, plain, setup_times)
        problems += workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted} failed {failed} "
          f"rounds {len(plain) + len(traced)} checks {'failed' if problems else 'passed'}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
