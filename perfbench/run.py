"""End-to-end benchmark of the anyonladder pipelines.

    python3 perfbench/run.py --workload hubbard --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: ``hubbard``, ``hubbard-large``, ``decompose``, ``verify`` (see
README.md in this directory).  Every operation runs in a worker process
(``worker.py``), one at a time, with BLAS pinned to one thread.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs a fixed amount of work twice, untraced and then with timing spans
around the package's public functions, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full records go to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170.0  # every worker ends within this many seconds of the run's start
MIN_SETUP_SAMPLES = 3
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACED_HUBBARD_OPS = 2
# Nominal time of the worker's calibration kernel (its median on a 2-vCPU
# x86-64 host).  End-to-end times are reported at this machine speed:
# raw time * CAL_NOMINAL_S / kernel time.
CAL_NOMINAL_S = 0.027


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark run: spawns workers one at a time and keeps their records."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(f"{workload}:{seed}")
        self.started = time.perf_counter()
        self.next_op = 0
        self.env = None
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, spec: dict) -> dict:
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"crashed": f"worker timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"crashed": f"worker exit {proc.returncode}: {tail[0]}"}
        record = json.loads(lines[-1])
        self.env = self.env or record.get("env")
        return record

    def cli(self, op: dict, traced: bool = False) -> dict:
        out = self.tmp / f"op{self.next_op}"
        spec = {"kind": "cli", "op": op, "trace": traced, "op_id": self.next_op,
                "out": str(out) if "{out}" in op["argv"] else None}
        self.next_op += 1
        record = self.spawn(spec)
        shutil.rmtree(out, ignore_errors=True)
        if "crashed" in record:
            return {"label": op["label"], "failed": True, "wrong": False,
                    "reason": record["crashed"], "op_s": 0.0}
        return record

    def setup_sample(self, model: str) -> tuple[float, float]:
        record = self.spawn({"kind": "setup", "model": model})
        if "crashed" in record:
            raise RuntimeError(record["crashed"])
        return record["setup_s"], scaled(record["setup_s"], record["setup_calib_s"])

    def decompose(self, seconds: float, traced: bool, index: int) -> dict:
        spec = {"kind": "decompose", "seed": self.seed * 1000 + index, "seconds": seconds,
                "trace": traced, "op_id": self.next_op}
        record = self.spawn(spec)
        if "crashed" in record:
            raise RuntimeError(record["crashed"])
        self.next_op += sum(p["attempted"] for p in record["passes"])
        return record

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def _cold_passes(run: Run, make_pass) -> list[list[dict]]:
    """Cold CLI passes until ``--seconds`` of wall time have gone (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        passes.append([run.cli(op) for op in make_pass()])
    return passes


def scaled(seconds: float, calib_s: list[float]) -> float:
    """``seconds`` at nominal machine speed, from the calibration runs made
    right before, during (untraced cold calls, once a second) and after it."""
    if not calib_s:
        return seconds
    return seconds * CAL_NOMINAL_S / statistics.median(calib_s)


def _e0_context(ops: list[dict]) -> dict:
    """Largest gap between a Hubbard ground energy and its references."""
    e0 = [op["context"]["e0_error"] for op in ops if "e0_error" in op.get("context", {})]
    return {"e0_error": max(e0)} if e0 else {}


def measure(run: Run) -> dict:
    """Op records plus (raw, scaled) samples of set-up time and pass rate.

    A pass rate is completed operations per timed second; the scaled one
    puts each timing at nominal machine speed with :func:`scaled`.
    """
    if run.workload == "decompose":
        records = [run.decompose(run.seconds / workloads.DECOMPOSE_SETUPS, False, i)
                   for i in range(workloads.DECOMPOSE_SETUPS)]
        passes = [p for r in records for p in r["passes"]]
        return {
            "rates": [(p["completed"] / p["seconds"],
                       p["completed"] / scaled(p["seconds"], p["calib_s"])) for p in passes],
            "ops": [op for r in records for op in r["ops"]],
            "setup": [(r["setup_s"], scaled(r["setup_s"], r["setup_calib_s"])) for r in records],
            "rss": [r["rss_mb"] for r in records],
            "calib": [c for p in passes for c in p["calib_s"]],
            "context": {"eval_residual": max(r["context"]["eval_residual"] for r in records)},
        }
    if run.workload == "hubbard":
        passes = _cold_passes(run, lambda: workloads.hubbard_ops(run.rng, 1))
    elif run.workload == "hubbard-large":
        passes = [[run.cli(workloads.hubbard_large_op())] for _ in range(workloads.LARGE_CALLS)]
    else:
        passes = _cold_passes(run, lambda: workloads.verify_pass(run.rng))
    ops = [op for p in passes for op in p]
    setup = [(op["setup_s"], scaled(op["setup_s"], op["setup_calib_s"]))
             for op in ops if "setup_s" in op]
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run.setup_sample("fibonacci"))
    rates = []
    for p in passes:
        completed = sum(not op["failed"] for op in p)
        raw = sum(op["op_s"] for op in p)
        at_nominal = sum(scaled(op["op_s"], op.get("calib_s", [])) for op in p)
        rates.append((completed / raw if raw else 0.0, completed / at_nominal if raw else 0.0))
    return {
        "rates": rates,
        "ops": ops,
        "setup": setup,
        "rss": [op["rss_mb"] for op in ops if "rss_mb" in op],
        "calib": [c for op in ops for c in op.get("calib_s", [])],
        "context": _e0_context(ops),
    }


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def measure_traced(run: Run) -> dict:
    """A fixed amount of work, untraced then traced, so counts repeat exactly.

    ``overhead`` compares the timed seconds of the traced and the untraced
    work, each scaled to nominal machine speed.
    """
    if run.workload == "decompose":
        record = run.decompose(0, True, 0)
        traced, plain = record["passes"][0], record["untraced"]
        overhead = (scaled(traced["seconds"], traced["calib_s"])
                    / scaled(plain["seconds"], plain["calib_s"]))
        return {"ops": record["ops"], "processes": [record], "overhead": overhead,
                "context": dict(record["context"])}
    if run.workload == "hubbard":
        ops = workloads.hubbard_ops(run.rng, TRACED_HUBBARD_OPS)
    elif run.workload == "hubbard-large":
        ops = [workloads.hubbard_large_op()]
    else:
        ops = workloads.verify_pass(run.rng)
    plain, traced = [], []
    for op in ops:
        plain.append(run.cli(op))
        traced.append(run.cli(op, traced=True))

    def scaled_seconds(records):
        return sum(scaled(r["op_s"], r["calib_s"]) for r in records if "calib_s" in r)

    untraced_s = scaled_seconds(plain)
    return {"ops": traced,
            "processes": [op for op in traced if "spans" in op],
            "overhead": scaled_seconds(traced) / untraced_s if untraced_s else 0.0,
            "context": _e0_context(traced)}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def verdict(ops: list[dict]) -> tuple[bool, int, list[str]]:
    """``correct`` is false on any wrong output or any failure outside the ledger."""
    correct = True
    by_label: dict[str, list[dict]] = {}
    for op in ops:
        if op["failed"]:
            by_label.setdefault(op["label"], []).append(op)
            known = workloads.KNOWN_FAILURES.get(op["label"])
            correct &= known is not None and not op["wrong"]
    lines = []
    for label, failures in sorted(by_label.items()):
        known = workloads.KNOWN_FAILURES.get(label)
        note = "UNEXPECTED" if known is None or any(f["wrong"] for f in failures) else f"known, {known}"
        lines.append(f"  failed {len(failures)}x: {label}: {failures[0]['reason']} [{note}]")
    return correct, sum(len(f) for f in by_label.values()), lines


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    try:
        data = measure_traced(run) if trace else measure(run)
    finally:
        run.close()
    correct, failed, failure_lines = verdict(data["ops"])
    attempted = len(data["ops"])
    lines = [f"workload {workload}: seed {seed}, {'traced' if trace else 'untraced'}, "
             f"{attempted} operations, {failed} failed, fail_frac {failed / attempted:.4f}"]
    lines += failure_lines
    if trace:
        problems = [p for proc in data["processes"] for p in spans.check_additivity(proc["spans"])]
        correct &= not problems
        lines += [f"  trace: {p}" for p in problems[:10]]
        values = spans.layer_values(data["processes"])
        values["trace.overhead"] = data["overhead"]
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit, _better in spans.LAYER_METRICS}
        context = {**data["context"], **spans.span_context(data["processes"])}
        lines.append(f"  trace: spans add up to every op duration: {not problems}; "
                     f"overhead {data['overhead']:.4f}x untraced")
    else:
        values = {
            "setup_s": statistics.median(at_nominal for _raw, at_nominal in data["setup"]),
            "ops_per_s": statistics.median(at_nominal for _raw, at_nominal in data["rates"]),
            "peak_rss_mb": max(data["rss"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        context = {
            **data["context"],
            "raw_setup_s": statistics.median(raw for raw, _slow in data["setup"]),
            "raw_ops_per_s": statistics.median(raw for raw, _slow in data["rates"]),
            "slowness": statistics.median(data["calib"]) / CAL_NOMINAL_S,
        }
        lines.append(f"  {len(data['rates'])} passes, {len(data['setup'])} set-up samples; "
                     f"times scaled to nominal machine speed (slowness "
                     f"{context['slowness']:.3f}, raw setup_s {context['raw_setup_s']:.4f} s, "
                     f"raw ops_per_s {context['raw_ops_per_s']:.4f} 1/s)")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']} {m['unit']}")
    lines.append(f"  fail_frac = {failed / attempted} ({failed}/{attempted})")
    env = {**(run.env or {}), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           "git_commit": git_commit(), "seed": seed, "workload": workload,
           "seconds": seconds, "trace": int(trace)}
    lines.append("  env: " + json.dumps(env, sort_keys=True))
    lines.append("  context: " + json.dumps(context, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {**result, "env": env, "context": context,
              "ops": [{k: v for k, v in op.items() if k not in ("spans", "env")} for op in data["ops"]]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for proc in data["processes"]:
                fh.write(json.dumps(proc["spans"]) + "\n")
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running
    # worker and the run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (ROOT / "src" / "anyonladder" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'anyonladder'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(outcome["lines"]), flush=True)
        results[name] = outcome["result"]
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
