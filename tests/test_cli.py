import contextlib
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heomspectra import __version__, cli, convergence, linalg
from heomspectra.builder import assemble
from heomspectra.cli import build_model, execute_point, main, parse_config, resolve_observables, run
from heomspectra.errors import ConfigError, EigenConvergenceError, MatrixValidationError
from heomspectra.linalg import write_triplets
from heomspectra.operators import qubit_operators
from heomspectra.symmetry import decompose


def write_config(tmp_path, **overrides):
    config = {
        "model": "lmg",
        "params": {"gamma": 1.0, "kappa": 1.0, "omega": 1.0},
        "N": [4],
        "k_max": 3,
        "sweep": {"parameter": "g", "grid": [0.2, 0.5]},
        "analyses": ["steady_state"],
        "observables": ["Sz"],
        "output_dir": str(tmp_path / "out"),
        "solver": {"count": 6, "tol": 1e-10},
        "seed": 0,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_rows(out_dir):
    lines = (out_dir / "results.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    return [dict(zip(header, line.split(","))) for line in data[1:]]


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.model == "lmg"
        assert config.k_max == 3
        assert config.sweep_grid == [0.2, 0.5]

    def test_negative_k_max_rejected_with_field(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, k_max=-1))
        assert "k_max" in str(info.value)

    def test_unknown_analysis_lists_valid_tokens(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, analyses=["nope"]))
        assert "analyses[0]" in str(info.value)
        assert "steady_state" in str(info.value)

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, model="wat"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.json")

    def test_non_hermitian_observable_rejected(self, tmp_path):
        ops = qubit_operators()
        obs_path = tmp_path / "obs.txt"
        write_triplets(ops["sigma_minus"], obs_path)
        h_path = tmp_path / "h.txt"
        write_triplets(0.5 * ops["sigma_z"], h_path)
        l_path = tmp_path / "l.txt"
        write_triplets(ops["sigma_minus"], l_path)
        config = write_config(
            tmp_path,
            model="custom",
            custom={
                "hamiltonian_file": str(h_path),
                "baths": [
                    {
                        "coupling_file": str(l_path),
                        "terms": [{"amplitude": [0.1, 0.0], "frequency": 0.5, "kappa": 1.0}],
                    }
                ],
            },
            N=[1],
            sweep={"parameter": "x", "grid": [0.0]},
            observables=[{"name": "bad", "file": str(obs_path)}],
        )
        with pytest.raises(ConfigError) as info:
            parse_config(config)
        assert "not Hermitian" in str(info.value)

    def test_auto_k_max(self, tmp_path):
        config = parse_config(write_config(tmp_path, k_max="auto", epsilon=1e-3))
        assert config.k_max is None
        assert config.epsilon == 1e-3


class TestBuildModel:
    def test_lmg_g_translation(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        model = build_model(config, 4, 0.4)
        assert model.params["V"] == pytest.approx(0.4)

    def test_observables_resolve(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        model = build_model(config, 4, 0.4)
        resolved = resolve_observables(config, model)
        assert resolved[0][0] == "Sz"
        assert resolved[0][1].shape == (5, 5)


class TestRun:
    def test_row_counts_and_determinism(self, tmp_path):
        config = parse_config(write_config(tmp_path, analyses=["steady_state", "gap"]))
        assert run(config) == 0
        out_dir = tmp_path / "out"
        rows = read_rows(out_dir)
        steady = [r for r in rows if r["analysis"] == "steady_state" and r["key"] == "Sz"]
        gaps = [r for r in rows if r["analysis"] == "gap" and r["key"] == "lambda_1"]
        assert len(steady) == 2  # one per grid point
        assert len(gaps) == 2
        first = (out_dir / "results.csv").read_text()

        # wipe checkpoints and outputs, run again: byte-identical modulo timestamp
        import shutil

        shutil.rmtree(out_dir)
        assert run(config) == 0
        second = (out_dir / "results.csv").read_text()
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# generated")]
        assert strip(first) == strip(second)

    def test_crash_isolation(self, tmp_path):
        # a negative decay rate at one grid point must not abort the sweep
        config = parse_config(
            write_config(tmp_path, sweep={"parameter": "kappa", "grid": [1.0, -1.0]},
                         params={"gamma": 1.0, "omega": 1.0, "g": 0.3})
        )
        status = run(config)
        assert status == 1
        rows = read_rows(tmp_path / "out")
        assert any(r["sweep_value"] == "1" for r in rows)
        assert not any(r["sweep_value"] == "-1" for r in rows)

    def test_checkpoint_resume(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert run(config) == 0
        points = list((tmp_path / "out" / "points").glob("point_*.json"))
        assert len(points) == 2
        # rerun restores from checkpoints (byte-identical result rows)
        first = read_rows(tmp_path / "out")
        assert run(config) == 0
        assert read_rows(tmp_path / "out") == first

    def test_sectors_analysis_rows(self, tmp_path):
        config = parse_config(
            write_config(
                tmp_path,
                model="two_mode_dicke",
                params={"omega0": 1.0, "omega": 5.0, "kappa": 5.0},
                N=[2],
                k_max=2,
                sweep={"parameter": "g", "grid": [1.0]},
                analyses=["sectors", "decompose"],
            )
        )
        assert run(config) == 0
        rows = read_rows(tmp_path / "out")
        sector_rows = [r for r in rows if r["analysis"] == "sectors"]
        assert any(r["key"].startswith("lambda_0[k=") for r in sector_rows)
        decompose_rows = [r for r in rows if r["analysis"] == "decompose"]
        assert any(r["key"] == "n_sectors" for r in decompose_rows)

    def test_remaining_analyses_produce_rows(self, tmp_path):
        config = parse_config(
            write_config(
                tmp_path,
                model="z2_lmg",
                params={"gamma": 0.5, "kappa": 1.0, "omega": 1.0, "h": 0.5},
                N=[4],
                k_max=3,
                epsilon=1e-3,
                sweep={"parameter": "g", "grid": [-1.5]},
                analyses=["ssb", "converge", "compare_markovian", "properties"],
            )
        )
        assert run(config) == 0
        rows = read_rows(tmp_path / "out")
        keys = {(r["analysis"], r["key"]) for r in rows}
        assert ("ssb", "gate_ratio") in keys
        assert ("converge", "selected_k_max") in keys
        assert ("compare_markovian", "dim_ratio") in keys
        assert any(k.startswith("trace_covector") for a, k in keys if a == "properties")

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2
        config_path = write_config(tmp_path)
        assert main(["--config", str(config_path), "--workers", "0"]) == 2
        assert "config error: --workers:" in capsys.readouterr().err
        assert main(["--config", str(config_path), "--out", str(tmp_path / "cli_out")]) == 0
        assert (tmp_path / "cli_out" / "results.csv").exists()



def spy(monkeypatch, name, module=cli):
    """Wrap ``module.<name>``; returns the list of keyword arguments of each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


SSB_POINT = dict(
    model="z2_lmg",
    params={"gamma": 0.5, "kappa": 1.0, "omega": 1.0, "h": 0.5},
    N=[8],
    k_max=2,
    sweep={"parameter": "g", "grid": [-2.9]},
    analyses=["steady_state", "gap", "decompose", "sectors", "ssb"],
    observables=["Sz", "Sx"],
)
SOLVER = {"count": 5, "tol": 1e-9, "seed": 7, "shift": 0.25}


class TestSolverOptions:
    def test_point_solves_each_spectrum_once(self, tmp_path, eig_calls, monkeypatch):
        decompositions = spy(monkeypatch, "decompose")
        config = parse_config(write_config(tmp_path, **SSB_POINT))
        _, rows = execute_point(config, 0, 8, -2.9)
        assert ("ssb", "fidelity") in {(r["analysis"], r["key"]) for r in rows}
        # sector 0 and sector 1; the gap is read from both, not from the full generator
        assert len(eig_calls) == 2
        assert len(decompositions) == 1

    def test_z2_gap_is_the_broken_sector_eigenvalue(self, tmp_path):
        config = parse_config(write_config(tmp_path, **SSB_POINT))
        _, rows = execute_point(config, 0, 8, -2.9)
        values = {(r["analysis"], r["key"]): complex(r["re_value"], r["im_value"]) for r in rows}
        assert values[("gap", "lambda_1")] == values[("ssb", "lambda_0[k=1]")]
        assert values[("gap", "lambda_0")] == values[("sectors", "lambda_0[k=0]")]

    def _u1_point(self, tmp_path, analyses):
        config = parse_config(write_config(
            tmp_path, model="two_mode_dicke", params={"omega0": 1.0, "omega": 5.0, "kappa": 5.0},
            N=[4], k_max=4, sweep={"parameter": "g", "grid": [1.0]}, analyses=analyses))
        _, rows = execute_point(config, 0, 4, 1.0)
        decomp = decompose(assemble(build_model(config, 4, 1.0), 4))
        # each sector q >= 0 factorized once, charge 0 in real arithmetic
        expected = [(decomp.dimension(q), "c" if q else "f") for q in decomp.charges_present()
                    if q >= 0 and decomp.dimension(q) > linalg.TARGETED_DENSE_FALLBACK]
        return rows, expected

    def test_u1_gap_solves_the_charges_q_at_least_0(self, tmp_path, factorized):
        rows, expected = self._u1_point(tmp_path, ["gap"])
        assert factorized == expected
        assert {row["analysis"] for row in rows} == {"gap"}

    def test_u1_steady_state_reads_the_charge_0_solve(self, tmp_path, factorized):
        rows, expected = self._u1_point(tmp_path, ["steady_state", "gap"])
        # the steady state adds no factorization to the gap's
        assert factorized == expected
        assert {row["analysis"] for row in rows} == {"steady_state", "gap"}

    def test_config_shift_reaches_the_solver(self, tmp_path, eig_calls, refined_calls):
        config = parse_config(write_config(tmp_path, **{**SSB_POINT, "solver": {"shift": 0.25}}))
        execute_point(config, 0, 8, -2.9)
        assert eig_calls and all(shift == 0.25 for shift, _, _ in eig_calls)
        # one factorization per sector: the steady states read the shifted sector-0 solve
        assert len(refined_calls) == len(eig_calls) == 2

    @pytest.mark.parametrize("analyses", [["steady_state", "sectors"],
                                          ["sectors", "steady_state"]])
    def test_steady_state_reads_the_sector_solve(self, tmp_path, refined_calls, analyses):
        config = parse_config(write_config(tmp_path, analyses=analyses))
        _, rows = execute_point(config, 0, 4, 0.2)
        # one factorization per parity sector, none for the steady state
        assert len(refined_calls) == 2
        names = [row["analysis"] for row in rows]
        assert sorted(set(names), key=names.index) == analyses

    def _config(self, tmp_path, **overrides):
        return parse_config(write_config(
            tmp_path, solver={key: SOLVER[key] for key in ("count", "tol", "shift")},
            seed=SOLVER["seed"], epsilon=1e-2, k_limit=3, **overrides,
        ))

    @staticmethod
    def _assert_configured(calls):
        assert calls
        for kwargs in calls:
            assert {key: kwargs.get(key) for key in SOLVER} == SOLVER

    def test_auto_k_max_uses_solver_options(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "auto_truncate")
        execute_point(self._config(tmp_path, k_max="auto"), 0, 4, 0.2)
        self._assert_configured(calls)

    def test_converge_uses_solver_options(self, tmp_path, monkeypatch):
        calls = spy(monkeypatch, "auto_truncate")
        execute_point(self._config(tmp_path, analyses=["converge"]), 0, 4, 0.2)
        self._assert_configured(calls)

    def test_compare_uses_solver_options(self, tmp_path, monkeypatch):
        calls = [spy(monkeypatch, name) for name in ("auto_truncate", "auto_cutoff")]
        # the scans' own solves, which the comparison reads back
        calls += [spy(monkeypatch, name, convergence)
                  for name in ("steady_expectation", "embedding_expectation")]
        execute_point(self._config(tmp_path, analyses=["compare_markovian"]), 0, 4, 0.2)
        for call in calls:
            self._assert_configured(call)

    def test_point_runs_one_truncation_scan(self, tmp_path, eig_calls, refined_calls,
                                            monkeypatch):
        scans = spy(monkeypatch, "auto_truncate")
        config = self._config(tmp_path, k_max="auto", analyses=["converge", "compare_markovian"])
        _, rows = execute_point(config, 0, 4, 0.2)
        assert len(scans) == 1
        point_solves = len(eig_calls), len(refined_calls)
        model = build_model(config, 4, 0.2)
        sz = resolve_observables(config, model)[0][1]
        opts = {"count": config.eig_count, "tol": config.tol, "seed": config.seed,
                "shift": config.shift}
        eig_calls.clear()
        refined_calls.clear()
        heom = convergence.auto_truncate(model, sz, epsilon=config.epsilon, k_start=1,
                                         k_limit=config.k_limit, **opts)
        convergence.auto_cutoff(model, sz, epsilon=config.epsilon, n_start=1, n_limit=16, **opts)
        # k_max, converge and compare_markovian share the scan; only the cutoff scan is added
        assert point_solves == (len(eig_calls), len(refined_calls))
        assert point_solves[1] > 0
        assert {int(row["k_max"]) for row in rows} == {heom.selected}

    def test_compare_adds_no_solve_to_the_scans(self, tmp_path, eig_calls, refined_calls):
        config = self._config(tmp_path, analyses=["compare_markovian"])
        _, rows = execute_point(config, 0, 4, 0.2)
        point_solves = len(eig_calls), len(refined_calls)
        model = build_model(config, 4, 0.2)
        sz = resolve_observables(config, model)[0][1]
        opts = {"count": config.eig_count, "tol": config.tol, "seed": config.seed,
                "shift": config.shift}
        eig_calls.clear()
        refined_calls.clear()
        heom = convergence.auto_truncate(model, sz, epsilon=config.epsilon, k_start=1,
                                         k_limit=config.k_limit, **opts)
        lm = convergence.auto_cutoff(model, sz, epsilon=config.epsilon, n_start=1,
                                     n_limit=16, **opts)
        assert point_solves == (len(eig_calls), len(refined_calls))
        assert point_solves[1] > 0
        # the same value the recomputed steady states give
        delta = abs(convergence.steady_expectation(model, sz, heom.selected, **opts)
                    - convergence.embedding_expectation(model, sz, lm.selected, **opts))
        assert {r["key"]: r["re_value"] for r in rows}["delta[Sz]"] == delta


def strip_generated(text):
    return [line for line in text.splitlines() if not line.startswith("# generated=")]


class TestCheckpoints:
    def test_truncated_fragment_is_recomputed(self, tmp_path, caplog):
        config = parse_config(write_config(tmp_path, analyses=["steady_state", "gap"]))
        assert run(config) == 0
        out = tmp_path / "out"
        clean = (out / "results.csv").read_text()
        fragment = out / "points" / "point_0000.json"
        fragment.write_bytes(fragment.read_bytes()[:20])
        assert main(["--config", str(tmp_path / "config.json")]) == 0
        assert strip_generated((out / "results.csv").read_text()) == strip_generated(clean)
        assert any("unreadable checkpoint" in r.getMessage() for r in caplog.records)
        json.loads(fragment.read_text())  # rewritten whole

    def test_fragment_from_another_version_is_recomputed(self, tmp_path, caplog):
        config = parse_config(write_config(tmp_path))
        assert run(config) == 0
        out = tmp_path / "out"
        clean = (out / "results.csv").read_text()
        fragment = out / "points" / "point_0000.json"
        payload = json.loads(fragment.read_text())
        assert payload["version"] == __version__
        stale = [{**row, "re_value": 123.0} for row in payload["rows"]]
        fragment.write_text(json.dumps({**payload, "version": "0.0.0", "rows": stale}))
        caplog.set_level(logging.INFO, logger="heomspectra")
        assert run(config) == 0
        assert strip_generated((out / "results.csv").read_text()) == strip_generated(clean)
        assert json.loads(fragment.read_text())["version"] == __version__
        recomputed = [r for r in caplog.records if "from version 0.0.0" in r.getMessage()]
        assert len(recomputed) == 1 and recomputed[0].levelno == logging.INFO

    def test_no_partial_files_left(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert run(config) == 0
        names = sorted(p.name for p in (tmp_path / "out" / "points").iterdir())
        assert names == ["point_0000.json", "point_0001.json"]

    def test_package_version_is_the_project_version(self):
        # checkpoints are keyed by __version__, so it must follow each release
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == __version__


def cli_env():
    """The environment of a CLI subprocess: this one, with the package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_cli(tmp_path, config_path, entry=("-m", "heomspectra.cli")):
    """Run the CLI as a subprocess on ``config_path``; ``entry`` starts it."""
    return subprocess.run(
        [sys.executable, *entry, "--config", str(config_path)],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path, timeout=120,
    )


THREE_POINTS = {"parameter": "g", "grid": [0.2, 0.35, 0.5]}
# The CLI with point 1 killed the way the kernel's out-of-memory killer would.
KILL_POINT_1 = """
import os, signal, sys
from heomspectra import cli

execute_point = cli.execute_point

def kill_point_1(config, index, size, value, **options):
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_point(config, index, size, value, **options)

cli.execute_point = kill_point_1
sys.exit(cli.main(sys.argv[1:]))
"""


# The CLI with every point after the first held back for a minute.
HOLD_AFTER_POINT_0 = """
import sys, time
from heomspectra import cli

execute_point = cli.execute_point

def hold(config, index, size, value, **options):
    if index > 0:
        time.sleep(60)
    return execute_point(config, index, size, value, **options)

cli.execute_point = hold
sys.exit(cli.main(sys.argv[1:]))
"""


# The CLI with each point's child appending its pid to ./heartbeat every 0.05 s, for a minute.
HEARTBEAT = """
import os, sys, time
from heomspectra import cli

def beat(config, index, size, value, **options):
    for _ in range(1200):
        with open("heartbeat", "a") as file:
            file.write(f"{os.getpid()}\\n")
        time.sleep(0.05)

cli.execute_point = beat
sys.exit(cli.main(sys.argv[1:]))
"""


class TestInterrupt:
    def test_sigint_exits_130_and_a_rerun_resumes(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path, sweep=THREE_POINTS, workers=1)
        proc = subprocess.Popen([sys.executable, "-c", HOLD_AFTER_POINT_0, "--config",
                                 str(config_path)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=cli_env(), cwd=tmp_path)
        points = tmp_path / "out" / "points"
        deadline = time.monotonic() + 60
        while not (points / "point_0000.json").exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert stderr.splitlines() == [
            f"interrupted: 1 of 3 points are checkpointed in {points}; a rerun resumes from them"]
        assert sorted(p.name for p in points.iterdir()) == ["point_0000.json"]
        computed = tmp_path / "computed"

        def record(config, index, size, value, **options):
            with computed.open("a") as file:  # written by the point's child process
                file.write(f"{index}\n")
            return execute_point(config, index, size, value, **options)

        monkeypatch.setattr(cli, "execute_point", record)
        assert run(parse_config(config_path)) == 0
        assert computed.read_text() == "1\n2\n"
        assert {row["run_id"][-4:] for row in read_rows(tmp_path / "out")} == {
            "0000", "0001", "0002"}

    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM, signal.SIGINT],
                             ids=lambda signum: signum.name)
    def test_point_children_end_with_the_cli(self, tmp_path, signum):
        # a heartbeat, not kill(pid, 0): an orphan may linger as a zombie that still answers
        config_path = write_config(tmp_path, workers=2)
        heartbeat = tmp_path / "heartbeat"
        proc = subprocess.Popen([sys.executable, "-c", HEARTBEAT, "--config", str(config_path)],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=cli_env(), cwd=tmp_path)
        try:
            deadline = time.monotonic() + 60
            while not heartbeat.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            proc.send_signal(signum)
            proc.wait(timeout=30)
            time.sleep(1)
            size = heartbeat.stat().st_size
            time.sleep(0.5)
            assert heartbeat.stat().st_size == size
        finally:
            proc.kill()
            pids = set(heartbeat.read_text().split()) if heartbeat.exists() else set()
            for pid in pids:  # children that outlived the CLI
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)


class TestDeadWorker:
    @staticmethod
    def _check_sweep(out, status, stderr):
        assert status == 1
        assert "point 1 (N=4, g=0.35): worker died with signal 9" in stderr
        assert "Traceback" not in stderr
        assert {row["run_id"][-4:] for row in read_rows(out)} == {"0000", "0002"}
        # no fragment for the dead point, so a rerun computes it
        names = sorted(p.name for p in (out / "points").iterdir())
        assert names == ["point_0000.json", "point_0002.json"]
        assert multiprocessing.active_children() == []

    @staticmethod
    def _check_rerun(tmp_path, monkeypatch):
        computed = tmp_path / "computed"

        def record(config, index, size, value, **options):
            with computed.open("a") as file:  # written by the point's child process
                file.write(f"{index}\n")
            return execute_point(config, index, size, value, **options)

        monkeypatch.setattr(cli, "execute_point", record)
        assert run(parse_config(tmp_path / "config.json")) == 0
        assert computed.read_text() == "1\n"
        assert {row["run_id"][-4:] for row in read_rows(tmp_path / "out")} == {
            "0000", "0001", "0002"}

    def test_workers_2_fail_only_the_dead_point(self, tmp_path, monkeypatch, capsys):
        def kill_point_1(config, index, size, value, **options):
            if index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute_point(config, index, size, value, **options)

        config = parse_config(write_config(tmp_path, sweep=THREE_POINTS, workers=2))
        monkeypatch.setattr(cli, "execute_point", kill_point_1)
        status = run(config)
        self._check_sweep(tmp_path / "out", status, capsys.readouterr().err)
        self._check_rerun(tmp_path, monkeypatch)

    def test_workers_1_fail_only_the_dead_point(self, tmp_path, monkeypatch):
        # at workers 1 the point runs in a child too, not in the CLI's process
        config_path = write_config(tmp_path, sweep=THREE_POINTS, workers=1)
        proc = run_cli(tmp_path, config_path, entry=("-c", KILL_POINT_1))
        self._check_sweep(tmp_path / "out", proc.returncode, proc.stderr)
        self._check_rerun(tmp_path, monkeypatch)

    def test_workers_capped_at_the_usable_cores(self, tmp_path, monkeypatch):
        intervals = tmp_path / "intervals"

        def timed(config, index, size, value, **options):
            start = time.monotonic()  # one clock for every process
            time.sleep(0.3)  # so that points run at once would overlap
            outcome = execute_point(config, index, size, value, **options)
            with intervals.open("a") as file:  # written by the point's child process
                file.write(f"{start} {time.monotonic()}\n")
            return outcome

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(cli, "execute_point", timed)
        assert run(parse_config(write_config(tmp_path, sweep=THREE_POINTS, workers=3))) == 0
        spans = sorted(tuple(map(float, line.split())) for line in
                       intervals.read_text().splitlines())
        assert len(spans) == 3
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    def test_workers_2_write_the_results_of_workers_1(self, tmp_path):
        config_path = write_config(tmp_path, sweep=THREE_POINTS, analyses=["steady_state", "gap"])
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert main(["--config", str(config_path), "--workers", str(workers),
                         "--out", str(out)]) == 0
            texts.append(strip_generated((out / "results.csv").read_text()))
        assert texts[0] == texts[1]
        assert len({row["run_id"] for row in read_rows(tmp_path / "out2")}) == 3


def max_overlap(spans):
    """The most of ``(start, end)`` intervals open at one time."""
    events = sorted([(start, 1) for start, _ in spans] + [(end, -1) for _, end in spans])
    open_now = most = 0
    for _, step in events:
        open_now += step
        most = max(most, open_now)
    return most


# The CLI on two cores of a platform without fork, recording each point's processes and
# BLAS thread limits.  A spawned point child imports this file again, so the patches reach it.
NO_FORK = """
import os, sys
del os.fork
os.sched_getaffinity = lambda pid: {0, 1}
from heomspectra import cli

execute_point = cli.execute_point

def record(config, index, size, value, processes=1):
    with open("calls", "a") as file:
        file.write(f"point {index} in {processes}\\n")
    return execute_point(config, index, size, value, processes=processes)

def limit(threads):
    with open("calls", "a") as file:
        file.write(f"blas {threads}\\n")

cli.execute_point, cli.limit_blas_threads = record, limit

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


class TestSectorProcesses:
    """A symmetric point's sector solves spread over processes (``execute_point(processes=)``)."""

    # sector 1 (dim 406) is larger than sector 0 (dim 404), so the point's own
    # process solves charge 1 and a child charge 0, which the analyses read first
    POINT = {**SSB_POINT, "k_max": 3, "analyses": ["steady_state", "gap", "sectors", "ssb"]}

    def _rows(self, tmp_path, processes, **overrides):
        config = parse_config(write_config(tmp_path, **{**self.POINT, **overrides}))
        return execute_point(config, 0, 8, -2.9, processes=processes)[1]

    # ssb alone solves charge 1 ahead; the steady state takes charge 0 from the null iteration
    @pytest.mark.parametrize("analyses", [POINT["analyses"], ["steady_state", "ssb"]])
    def test_two_processes_give_the_rows_of_one(self, tmp_path, analyses):
        rows = self._rows(tmp_path, 2, analyses=analyses)
        assert {row["analysis"] for row in rows} == set(analyses)
        assert rows == self._rows(tmp_path, 1, analyses=analyses)
        assert multiprocessing.active_children() == []

    def test_two_processes_factorize_each_sector_once(self, tmp_path, monkeypatch):
        log_file = tmp_path / "factorized"
        original = linalg._refined_inverse

        def record(a, sigma):
            with log_file.open("a") as file:  # appended to by every process
                file.write(f"{os.getpid()} {a.shape[0]}\n")
            return original(a, sigma)

        monkeypatch.setattr(linalg, "_refined_inverse", record)
        self._rows(tmp_path, 2)
        entries = [line.split() for line in log_file.read_text().splitlines()]
        assert sorted(int(dim) for _, dim in entries) == [404, 406]
        assert len({pid for pid, _ in entries}) == 2

    def test_two_processes_raise_the_serial_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "KRYLOV_CYCLE_LIMIT", 1)
        errors = []
        for processes in (1, 2):
            with pytest.raises(EigenConvergenceError) as raised:
                self._rows(tmp_path, processes)
            errors.append(raised.value)
        assert str(errors[0]) == str(errors[1])
        # and the same sector's Ritz values
        assert list(errors[0].ritz_values) == list(errors[1].ritz_values)
        assert multiprocessing.active_children() == []

    def test_killed_sector_child_is_solved_in_the_point(self, tmp_path, monkeypatch, caplog):
        serial = self._rows(tmp_path, 1)
        point, original, solved = os.getpid(), linalg.eig_targeted, []

        def kill_children(a, shift, count, **kwargs):
            if os.getpid() != point:
                os.kill(os.getpid(), signal.SIGKILL)
            solved.append(a.shape[0])
            return original(a, shift, count, **kwargs)

        monkeypatch.setattr(linalg, "eig_targeted", kill_children)
        with caplog.at_level(logging.WARNING, logger="heomspectra"):
            assert self._rows(tmp_path, 2) == serial
        assert "a sector child died with signal 9; the point solves its unsent charges [0]" \
            in caplog.text
        assert sorted(solved) == [404, 406]  # charge 0 solved again here, once
        assert multiprocessing.active_children() == []

    def test_spawned_points_solve_in_one_process(self, tmp_path):
        script = tmp_path / "no_fork.py"
        script.write_text(NO_FORK)
        proc = run_cli(tmp_path, write_config(tmp_path, workers=1), entry=(str(script),))
        assert proc.returncode == 0, proc.stderr
        # one process per point, so no point lowers its BLAS threads
        assert (tmp_path / "calls").read_text() == "point 0 in 1\npoint 1 in 1\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solving_processes_stay_within_the_usable_cores(self, tmp_path, monkeypatch,
                                                            workers):
        spans_file, original = tmp_path / "spans", linalg.eig_targeted

        def timed(a, shift, count, **kwargs):
            start = time.monotonic()  # one clock for every process
            time.sleep(0.2)  # so that solves made at once overlap
            result = original(a, shift, count, **kwargs)
            with spans_file.open("a") as file:  # appended to by every process
                file.write(f"{start} {time.monotonic()}\n")
            return result

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(linalg, "eig_targeted", timed)
        # five U(1) charges q >= 0 per point, so a point alone could fill every core
        config = parse_config(write_config(
            tmp_path, model="two_mode_dicke", params={"omega0": 1.0, "omega": 5.0, "kappa": 5.0},
            N=[2], k_max=2, sweep={"parameter": "g", "grid": [0.5, 1.0, 1.5]},
            analyses=["gap"], workers=workers))
        assert run(config) == 0
        spans = [tuple(map(float, line.split())) for line in spans_file.read_text().splitlines()]
        assert len(spans) == 3 * 5
        # workers 1: one point at a time in 3 processes; workers 2: two points of 1 each
        assert max_overlap(spans) == {1: 3, 2: 2}[workers]


LMG_PARAMS = {"gamma": 1.0, "kappa": 1.0, "omega": 1.0}
TERM = {"amplitude": [0.1, 0.0], "frequency": 0.5, "kappa": 1.0}
CUSTOM = {"hamiltonian_file": "h.txt", "baths": [{"coupling_file": "l.txt", "terms": [TERM]}]}
# (overrides, the field the error names)
BAD_VALUES = [
    ({"epsilon": "abc"}, "epsilon"),
    ({"params": {"gamma": -1.0, "kappa": 1.0, "omega": 1.0}}, "params"),
    ({"solver": {"shift": "left"}}, "solver.shift"),
    ({"solver": {"count": "six"}}, "solver.count"),
    ({"solver": {"tol": None}}, "solver.tol"),
    ({"seed": "abc"}, "seed"),
    ({"seed": [1]}, "seed"),
    ({"seed": -1}, "seed"),
    ({"k_max": True}, "k_max"),
    ({"N": [True]}, "N[0]"),
    ({"export_matrices": "false"}, "export_matrices"),
    ({"seed": 1.5}, "seed"),
    ({"solver": {"count": 2.9}}, "solver.count"),
    ({"seed": "7"}, "seed"),
    ({"solver": {"count": "3"}}, "solver.count"),
    ({"solver": {"tol": float("nan")}}, "solver.tol"),
    ({"solver": {"shift": float("inf")}}, "solver.shift"),
    ({"k_max": "auto", "epsilon": float("nan")}, "epsilon"),
    ({"params": {"gamma": True, "kappa": 1.0, "omega": 1.0}}, "params.gamma"),
    ({"sweep": {"parameter": "g", "grid": [True]}}, "sweep.grid[0]"),
    # unknown keys at every level
    ({"analysis": ["gap"]}, "analysis"),
    ({"solver": {"cout": 3}}, "solver.cout"),
    ({"sweep": {"parameter": "g", "grid": [0.2, 0.5], "step": 1}}, "sweep.step"),
    ({"observables": [{"name": "Sz", "fil": "x.txt"}]}, "observables[0].fil"),
    ({"observables": [{"name": "X", "file": "missing.txt"}]}, "observables[0].file"),
    # parameters the model does not read, or reads once
    ({"params": {**LMG_PARAMS, "h": 9}}, "params.h"),
    ({"sweep": {"parameter": "foo", "grid": [0.2, 0.5]}}, "sweep.parameter"),
    ({"params": {**LMG_PARAMS, "V": 0.3}}, "params.V"),
    ({"params": {**LMG_PARAMS, "g": 0.3}}, "params.g"),
    ({"custom": CUSTOM}, "custom"),
    ({"model": "two_mode_dicke", "params": {"omega0": 1.0, "omega": 5.0, "kappa": 5.0},
      "custom": CUSTOM}, "custom"),
    # values of the wrong type
    ({"output_dir": None}, "output_dir"),
    ({"output_dir": 3}, "output_dir"),
    ({"N": [4.5]}, "N[0]"),
    ({"model": "custom", "custom": {}}, "custom.hamiltonian_file"),
    ({"model": "custom", "custom": {"hamiltonian_file": "h.txt", "baths": [{}]}},
     "custom.baths[0].coupling_file"),
    ({"model": "custom", "custom": {**CUSTOM, "baths": [
        {"coupling_file": "l.txt", "terms": [{**TERM, "amplitude": [1]}]}]}},
     "custom.baths[0].terms[0].amplitude"),
    # a matrix file that cannot be read
    ({"observables": [{"name": "X", "file": "bad.txt"}]}, "observables[0].file"),
    ({"observables": [{"name": "X", "file": "wide.txt"}]}, "observables[0]"),
    ({"model": "custom", "params": {}, "sweep": {"parameter": "x", "grid": [0.0]},
      "custom": {**CUSTOM, "hamiltonian_file": "bad.txt"}}, "custom.hamiltonian_file"),
    ({"model": "custom", "params": {}, "sweep": {"parameter": "x", "grid": [0.0]},
      "custom": {**CUSTOM, "hamiltonian_file": "long.txt"}}, "custom.hamiltonian_file"),
    # a matrix file with a NaN or Inf entry
    ({"observables": [{"name": "X", "file": "nan.txt"}]}, "observables[0].file"),
    ({"model": "custom", "params": {}, "sweep": {"parameter": "x", "grid": [0.0]},
      "custom": {**CUSTOM, "hamiltonian_file": "inf.txt"}}, "custom.hamiltonian_file"),
    ({"model": "custom", "params": {}, "sweep": {"parameter": "x", "grid": [0.0]},
      "custom": {**CUSTOM, "baths": [{"coupling_file": "nan.txt", "terms": [TERM]}]}},
     "custom.baths[0].coupling_file"),
    # fields without effect: no truncation scan runs at an integer k_max
    ({"epsilon": 0.5}, "epsilon"),
    ({"k_limit": 5}, "k_limit"),
    ({"analyses": ["steady_state", "gap"], "k_limit": 5, "epsilon": 1e-3}, "epsilon"),
]


@pytest.mark.parametrize("overrides, field", BAD_VALUES,
                         ids=[f"overrides{i}" for i in range(len(BAD_VALUES))])
def test_bad_values_exit_2_without_traceback(tmp_path, overrides, field):
    for name in ("h.txt", "l.txt"):  # the matrix files of CUSTOM
        write_triplets(qubit_operators()["sigma_z"], tmp_path / name)
    (tmp_path / "bad.txt").write_text("2 2 x\n")
    (tmp_path / "wide.txt").write_text("2 3 0\n")
    (tmp_path / "long.txt").write_text("2 2 1\n0 0 1 0\n1 1 5 0\n")  # an entry past nnz
    (tmp_path / "nan.txt").write_text("2 2 2\n0 0 nan 0\n1 1 1 0\n")
    (tmp_path / "inf.txt").write_text("2 2 2\n0 0 inf 0\n1 1 -1 0\n")
    proc = run_cli(tmp_path, write_config(tmp_path, **overrides))
    assert proc.returncode == 2
    assert f"config error: {field}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("overrides", [
    {"k_max": "auto"},
    {"analyses": ["steady_state", "converge"]},
    {"analyses": ["steady_state", "compare_markovian"]},
])
def test_empty_observables_for_a_scan_exit_2(tmp_path, overrides):
    proc = run_cli(tmp_path, write_config(tmp_path, observables=[], **overrides))
    assert proc.returncode == 2
    assert "config error: observables" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_documented_configs_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example config:")[1].split("```json")[1].split("```")[0]
    (tmp_path / "readme.json").write_text(example)
    assert parse_config(tmp_path / "readme.json").sizes == [10, 20]
    # the shape of the benchmark's CLI sweep, with an integral float for k_max
    config = parse_config(write_config(
        tmp_path, model="z2_lmg", params={"gamma": 0.5, "kappa": 1.0, "omega": 1.0, "h": 0.5},
        N=[10], k_max=7.0, sweep={"parameter": "g", "grid": [-3.0, -2.9, -2.8]},
        analyses=["steady_state", "gap", "decompose", "sectors", "ssb"],
        observables=["Sz", "Sx"], solver={"count": 6, "tol": 1e-10}, seed=1))
    assert config.k_max == 7 and isinstance(config.k_max, int)


def test_empty_observables_allowed_without_a_scan(tmp_path):
    config = parse_config(write_config(tmp_path, observables=[], analyses=["gap"]))
    assert config.observables == []
    assert run(config) == 0


def test_ssb_count_above_the_sector_dimension(tmp_path):
    # lmg N=1 at k_max 0: both parity sectors have dimension 2, below the count 6,
    # and the broken sector's leading eigenvector has a null physical block
    config = parse_config(write_config(tmp_path, N=[1], k_max=0, analyses=["ssb"],
                                       sweep={"parameter": "g", "grid": [-3.0]}))
    with pytest.raises(MatrixValidationError, match="null matrix"):
        execute_point(config, 0, 1, -3.0)


def test_lmg_point_decomposes_by_parity(tmp_path):
    config_path = write_config(tmp_path, N=[2], k_max=2, sweep={"parameter": "g", "grid": [0.3]},
                               analyses=["decompose", "sectors"])
    proc = run_cli(tmp_path, config_path)
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(tmp_path / "out")
    assert {r["analysis"] for r in rows} == {"decompose", "sectors"}
