"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
from workloads import WORKLOADS, GateFailure, mesh_ops, profile_ops

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = bench.import_wlab()


@pytest.fixture(autouse=True)
def no_import_timing(monkeypatch):
    """Set-up times a fresh interpreter's import three times per run; the
    tests skip it, and test_import_seconds covers it once."""
    monkeypatch.setattr(bench, "import_seconds", lambda: 0.0)


def test_import_seconds(monkeypatch):
    monkeypatch.undo()
    assert 0.0 < bench.import_seconds() < 120.0


def tiny_run(tmp_path, workload, trace, main=CLI.main, seed=7):
    return bench.run(workload, seed, 0.0, trace, tmp_path / "work", main, tiny=True)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_declared_metric(tmp_path, workload, trace):
    result, report = tiny_run(tmp_path, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    assert report["inputs"] and report["failed_frac"] == 0.0
    json.dumps(result, allow_nan=False)


def _scale_center(argv, factor):
    out = Path(argv[argv.index("--out") + 1]) / "solution.csv"
    if out.exists():
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        at = int(np.argmin(rows[:, 0] ** 2 + rows[:, 1] ** 2))
        rows[at, 2] *= factor
        np.savetxt(out, rows, delimiter=",", header="x,y,u", comments="")


def test_center_off_by_five_percent_fails(tmp_path):
    def corrupt(argv):
        code = CLI.main(argv)
        _scale_center(argv, 1.05)
        return code

    result, report = tiny_run(tmp_path, "cap_solve", False, corrupt)
    caps = sum(1 for kind in (i["kind"] for i in report["inputs"]) if kind == "cap")
    assert not result["correct"]
    assert result["failed"] == caps * report["rounds"]
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert any("center value error" in note for note in report["failures"])


def test_wrong_exit_code_fails(tmp_path):
    def always_ok(argv):
        CLI.main(argv)
        return 0

    result, report = tiny_run(tmp_path, "cap_solve", False, always_ok)
    assert not result["correct"]
    assert result["failed"] == report["rounds"]       # the over-wide disk of each round
    assert any("exit code 0, expected 3" in note for note in report["failures"])


def test_exception_in_the_program_fails_the_op(tmp_path):
    def broken(argv):
        raise RuntimeError("boom")

    result, report = tiny_run(tmp_path, "kernel_sweep", False, lambda argv: (
        CLI.main(argv) if argv[0] == "solve" else broken(argv)))
    assert result["failed"] == result["attempted"]
    assert "RuntimeError: boom" in report["failures"][0]


def test_gate_rejects_a_missing_period(tmp_path):
    op = profile_ops(np.random.default_rng(1), tmp_path, True)[0]
    assert CLI.main(op.argv()) == 0
    report = json.loads((op.out_dir / "revolve_report.json").read_text())
    report["period"] = None
    (op.out_dir / "revolve_report.json").write_text(json.dumps(report))
    with pytest.raises(GateFailure, match="no period"):
        op.gate(op, 0)


def test_inputs_follow_the_seed(tmp_path):
    def params(seed, sub):
        return [op.params for op in mesh_ops(np.random.default_rng(seed), tmp_path / sub, True)]

    assert params(3, "a") == params(3, "b")
    assert params(3, "a") != params(4, "c")


def test_layer_counts_repeat_for_a_seed(tmp_path):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, _ = tiny_run(tmp_path / "1", "cap_solve", True)
    second, _ = tiny_run(tmp_path / "2", "cap_solve", True)
    assert first["metrics"]["solver.linsolve_calls"]["value"] > 0
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def test_tail_is_the_mean_of_the_slowest_quarter():
    samples = [float(v) for v in range(40, 0, -1)]
    assert bench.tail(samples) == (35.5, 10)
    assert bench.tail(samples[-19:]) == (17.5, 4)
    assert bench.tail([2.0]) == (2.0, 1)


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cap_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
