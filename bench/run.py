"""Closed-loop benchmark of the wlab batch commands.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client in one process calls ``wlab.cli.main`` in-process, one command at
a time, on inputs generated from the seed (see workloads.py and README.md).
Every op's output is checked against a closed-form reference.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each op runs twice, plain and then with the layer boundaries
wrapped (spans.py), and the last line carries the per-layer metrics.  The
line before it is a JSON report with the seed, the derived inputs, the
environment and the tail bookkeeping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
# The tail is the mean of the slowest quarter of the ops.  The shared host
# runs at two speeds about 1.45x apart and switches between them every few
# seconds, so a run's op times are bimodal and a percentile jumps from one
# mode to the other as their mix changes from run to run; a mean moves
# with the mix only in proportion.  A fixed share, not the highest level
# with ten samples beyond it, keeps the statistic the same for runs of
# different lengths and for commits of different speeds.
TAIL_SHARE = 4

E2E_UNITS = {"op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def limit_threads() -> int:
    """Native thread pools get one thread unless the caller chose a count,
    and never more than the CPUs this process may use.  Must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        raw = os.environ.get(var, "1")
        try:
            count = int(raw)
        except ValueError:
            count = 1
        os.environ[var] = str(min(max(count, 1), nproc))
    return nproc


def import_wlab():
    """Import wlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wlab.cli
    if Path(wlab.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"wlab was imported from {wlab.cli.__file__}, not from {src}")
    return wlab.cli


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports wlab.cli from src/: the
    start-up every ``wlab`` command pays."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wlab.cli"], cwd=ROOT, check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=path))
    return time.perf_counter() - t0


def git_commit(root: Path):
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "nproc": nproc,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "WLAB_THREADS": os.environ.get("WLAB_THREADS"),
            "python_threads": threading.active_count(), "git_commit": git_commit(ROOT)}


def tail(samples: list) -> tuple:
    """(value, count): the mean of the slowest 1/TAIL_SHARE of the samples,
    and how many that is."""
    count = max(1, len(samples) // TAIL_SHARE)
    return statistics.fmean(sorted(samples)[-count:]), count


def execute(op, main, tracer=None) -> dict:
    """One op: clear its output directory, time ``main``, check the output."""
    shutil.rmtree(op.out_dir, ignore_errors=True)
    record = {"kind": op.kind, "ok": False, "err": None, "note": None}
    if tracer is None:
        t0 = time.perf_counter()
        code, note = _call(main, op)
        record["seconds"] = time.perf_counter() - t0
    else:
        from spans import CLI
        tracer.op += 1
        with tracer.installed():
            idx = tracer.open(CLI)
            t0 = time.perf_counter()
            code, note = _call(main, op)
            record["seconds"] = time.perf_counter() - t0
            tracer.close(idx)
        record["artifact_bytes"] = sum(f.stat().st_size for f in op.out_dir.rglob("*")
                                       if f.is_file())
    if note is None:
        try:
            record["err"] = op.gate(op, code)
            record["ok"] = True
        except Exception as exc:       # any unreadable or wrong output fails the op
            note = f"{type(exc).__name__}: {exc}"
    record["note"] = note
    return record


def _call(main, op):
    try:
        return main(op.argv()), None
    except Exception as exc:           # the op fails; the run goes on
        return None, f"wlab raised {type(exc).__name__}: {exc}"


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, main,
        tiny: bool = False) -> tuple:
    """Set up, run the timed loop and return (result line, report)."""
    import numpy as np
    from workloads import make_pool, warmup_ops

    setup, warmups = [], []
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        pool = make_pool(workload, np.random.default_rng(seed), work, tiny, main)
        warmups += [execute(op, main) for op in warmup_ops(pool)]
        setup.append(import_s + time.perf_counter() - t0)

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    records, traced = [], []
    rounds, last = 0, 0.0
    t_start = time.perf_counter()
    # whole pools only, and another one only if it should end within `seconds`
    while rounds == 0 or time.perf_counter() - t_start + last <= seconds:
        t_round = time.perf_counter()
        for op in pool:
            records.append(execute(op, main))
            if tracer is not None:
                traced.append(execute(op, main, tracer))
        rounds += 1
        last = time.perf_counter() - t_round

    everything = records + traced
    failed = sum(not r["ok"] for r in everything)
    plain = [r["seconds"] for r in records]
    p50 = statistics.median(plain)
    tail_s, tail_count = tail(plain)
    errors = [r["err"] for r in everything + warmups if r["ok"]] or [0.0]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": [dict(op.params, kind=op.kind) for op in pool],
        "rounds": rounds, "ops": len(records), "traced_ops": len(traced),
        "failed_frac": failed / len(everything),
        "failures": [r["note"] for r in everything + warmups if not r["ok"]][:5],
        "accuracy_err.max": max(errors),
        "op_s.p50": p50, "op_s.tail": tail_s, "tail_count": tail_count,
        "samples": len(plain),
        "op_s_by_kind": by_kind(records),
        "setup_reps_s": setup,
    }
    if tracer is None:
        values = {"op_s.p50": p50, "op_s.tail": tail_s, "ops_per_s": len(plain) / sum(plain),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "setup_s": statistics.median(setup)}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics = layer_metrics(tracer, traced, p50, report["accuracy_err.max"])
        report["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    result = {"correct": failed == 0 and all(r["ok"] for r in warmups),
              "attempted": len(everything), "failed": failed, "metrics": metrics}
    return result, report


def by_kind(records: list) -> dict:
    out = {}
    for r in records:
        out.setdefault(r["kind"], []).append(round(r["seconds"], 4))
    return out


def layer_metrics(tracer, traced: list, untraced_p50: float, accuracy) -> dict:
    from spans import aggregate, by_op, op_metrics
    groups = by_op(tracer.spans)
    per_op, accepted, trials = [], 0, 0
    for op_id, record in enumerate(traced):
        m, acc, tri = op_metrics(groups.get(op_id, []))
        m["cli.artifact_bytes"] = record["artifact_bytes"]
        per_op.append(m)
        accepted += acc
        trials += tri
    values = aggregate(per_op, accepted, trials)
    traced_s = [r["seconds"] for r in traced]
    values["trace.op_s"] = sum(traced_s) / len(traced_s)
    values["trace.overhead_s"] = statistics.median(traced_s) - untraced_p50
    values["accuracy_err.max"] = accuracy
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.startswith("accuracy"):
        return "rel"
    return "count"


def main(argv=None) -> int:
    nproc = limit_threads()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_wlab()
    except ImportError as exc:
        print(f"bench: cannot import wlab from this checkout: {exc}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                             cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["env"] = environment(nproc)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
