"""One benchmark process: set-up, the timed call(s), then the output checks.

Run as ``python3 perfbench/worker.py '<json spec>'`` by ``run.py``, one
process at a time.  The last line of stdout is a JSON record of what was
measured.  Kinds of spec:

- ``setup``: import the package and construct the model, nothing else;
- ``cli``: one cold CLI call through ``anyonladder.cli.main``;
- ``decompose``: warm-up (the first call per region), then timed passes of
  ``decompose_observable`` over seeded observables.

Set-up time runs from the first statement of this file, after interpreter
start, to the end of model construction and warm-up.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CALIBRATION_SAMPLES = 3  # kernel runs right before and right after each cold call
CALIBRATE_EVERY = 3  # in decompose passes, one kernel run per this many calls
SAMPLE_INTERVAL_S = 1.0  # kernel runs during an untraced cold call
_CAL_MATRIX = None


def calibrate(samples: int, warm_up: bool = True) -> list[float]:
    """Wall times of a fixed CPU kernel that does not use the package.

    The kernel mixes interpreted Python (a loop and tuple-keyed dict inserts)
    with a small LAPACK ``eigh``, about 27 ms in all.  The benchmark divides
    its timings by these to take out the machine's speed, which drifts by
    tens of percent within seconds on a shared host.  The garbage collector
    is off while it runs, so the size of the package's heap cannot change it.
    """
    global _CAL_MATRIX
    import numpy as np

    if _CAL_MATRIX is None:
        a = np.random.default_rng(0).normal(size=(200, 200))
        _CAL_MATRIX = a + a.T
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples + warm_up):
            start = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            table = {}
            for i in range(20_000):
                table[(i, i % 7)] = i
            for _ in range(3):
                np.linalg.eigh(_CAL_MATRIX)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times[warm_up:]


class SpeedSampler:
    """Runs the calibration kernel once a second while a timed call runs.

    ``SIGALRM`` interrupts the call between two bytecodes, so a long call
    gets machine-speed samples from its whole length, not only from its
    edges.  ``paused`` is the wall time spent in the kernel, which the
    caller takes out of the call's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        self.samples += calibrate(1, warm_up=False)
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def import_package(models):
    """Import the package from this checkout's ``src`` and build the models."""
    import anyonladder

    where = Path(anyonladder.__file__).resolve().parent.parent
    if where != (ROOT / "src").resolve():
        raise RuntimeError(f"anyonladder imported from {where}, not from {ROOT / 'src'}")
    for name in models:
        anyonladder.builtin(name)
    return anyonladder


def run_setup(spec, tracer):
    import_package([spec["model"]])
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "setup_calib_s": calibrate(CALIBRATION_SAMPLES)}


def run_cli(spec, tracer):
    import_package([spec["op"]["model"]])
    from anyonladder import cli, hubbard

    setup_s = time.perf_counter() - _T0
    setup_calib = calibrate(CALIBRATION_SAMPLES)
    op = spec["op"]
    out = spec.get("out")
    argv = [arg.replace("{out}", out) if out else arg for arg in op["argv"]]
    restore = spans.install(tracer)[0] if tracer else []

    # Keep the Hamiltonian the CLI builds, for the E0 reference check.
    captured = {}
    build = hubbard.hubbard_hamiltonian

    def capture(*args, **kwargs):
        result = build(*args, **kwargs)
        captured["h"] = result[1]
        return result

    hubbard.hubbard_hamiltonian = capture
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    # Traced calls are not sampled: a kernel run would land in some span's self time.
    root = tracer.operation(spec["op_id"]) if tracer else contextlib.nullcontext()
    sampler = SpeedSampler()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        with root, (contextlib.nullcontext() if tracer else sampler):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            except Exception:  # an uncaught crash is a failed operation
                error = traceback.format_exc(limit=-3)
        op_s = time.perf_counter() - start - sampler.paused
    rss = peak_rss_mb()
    hubbard.hubbard_hamiltonian = build
    spans.uninstall(restore)

    record = {"label": op["label"], "setup_s": setup_s, "op_s": op_s, "rss_mb": rss,
              "exit_code": code, "setup_calib_s": setup_calib,
              "calib_s": setup_calib + sampler.samples + calibrate(CALIBRATION_SAMPLES)}
    record.update(judge(op, code, error, stdout.getvalue(), stderr.getvalue(), captured.get("h"), out))
    return record


def judge(op, code, error, stdout, stderr, h, out) -> dict:
    """Classify one CLI call: ``failed`` (raised, exit 2, or a failed check) and
    ``wrong`` (it produced an output, and the output is wrong)."""
    allowed = (0, 1) if op["check"] == "verify" else (0,)
    if error or code not in allowed:
        last = (error or stderr).strip().splitlines()
        reason = f"exit code {code}: {last[-1] if last else ''}"
        return {"failed": True, "wrong": False, "reason": reason, "context": {}}
    if op["check"] == "verify":
        ok, reason, context = checks.check_verify(op["model"], code, stdout)
    elif op["check"] == "ladder":
        ok, reason, context = checks.check_ladder(code, stdout, out)
    else:
        e0_ref = workloads.LARGE_E0 if op["check"] == "hubbard-large" else None
        ok, reason, context = checks.check_hubbard(stdout, h, op["n_modes"], out, e0_ref)
    return {"failed": not ok, "wrong": not ok, "reason": reason, "context": context}


def _observable(al, model, n, region, rng):
    """Random Hermitian combination of region observables, moved onto ``region``."""
    _pairs, ops = al.observable_basis(model, n, len(region))
    coeffs = rng.normal(size=len(ops)) + 1j * rng.normal(size=len(ops))
    acc = ops[0] * coeffs[0]
    for c, op in zip(coeffs[1:], ops[1:]):
        acc = acc + op * c
    u = al.mode_relabel_unitary(model, n, region)
    return (u.dagger() @ (acc + acc.dagger()) @ u).drop()


def _check_matrices(al, model, n):
    mats = {}
    for i, particle in enumerate(model.labels):
        if i == model.vacuum:
            continue
        for (k, j), op in al.ladder_set(model, n, particle).ops.items():
            mats[(particle, k, j)] = op.to_dense()
    return mats


def run_decompose(spec, tracer):
    import numpy as np

    regions = workloads.DECOMPOSE_REGIONS
    al = import_package(sorted({r[0] for r in regions}))
    from anyonladder.fixtures import fixture, fixture_names

    restore = spans.install(tracer)[0] if tracer else []
    rng = np.random.default_rng(spec["seed"])
    for name, n, region, _count in regions:
        obs = _observable(al, al.builtin(name), n, region, rng)
        label = workloads.region_label(name, n, region)
        with tracer.operation(f"cold:{label}") if tracer else contextlib.nullcontext():
            try:
                al.decompose_observable(obs, region)
            except ValueError:
                pass  # known failures fail again, and are counted, in the timed passes
    fixtures = [(f"decompose fixture {name}", fixture(name)) for name in fixture_names()]
    setup_s = time.perf_counter() - _T0
    setup_calib = calibrate(CALIBRATION_SAMPLES)

    mats = {key: _check_matrices(al, al.builtin(key[0]), key[1])
            for key in {(name, n) for name, n, _r, _c in regions}}

    def make_pass():
        ops = []
        for name, n, region, count in regions:
            label = workloads.region_label(name, n, region)
            for _ in range(count):
                ops.append((label, name, n, region, _observable(al, al.builtin(name), n, region, rng)))
        ops.extend((label, "fibonacci", 3, (1, 2), op) for label, op in fixtures)
        return ops

    rss, residuals = 0.0, [0.0]
    op_id = spec["op_id"]

    def timed_pass(ops, traced):
        """Time each call; returns the pass summary and one record per call."""
        nonlocal op_id, rss
        seconds, completed, records, calib = 0.0, 0, [], []
        for index, (label, name, n, region, obs) in enumerate(ops):
            if index % CALIBRATE_EVERY == 0:
                calib += calibrate(1)
            root = tracer.operation(op_id) if traced else contextlib.nullcontext()
            op_id += 1
            error, dec = "", None
            start = time.perf_counter()
            with root:
                try:
                    dec = al.decompose_observable(obs, region)
                except Exception as exc:  # a raising fit is a failed operation
                    error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            rss = max(rss, peak_rss_mb())
            seconds += elapsed
            record = {"label": label, "op_s": elapsed, "failed": bool(error),
                      "wrong": False, "reason": error}
            if dec is not None:
                residuals.append(dec.eval_residual)
                ok, reason, _ctx = checks.check_decomposition(
                    dec.polynomial, obs.to_dense(), mats[(name, n)])
                record.update(failed=not ok, wrong=not ok, reason=reason)
            completed += not record["failed"]
            records.append(record)
        summary = {"seconds": seconds, "completed": completed, "attempted": len(ops),
                   "calib_s": calib}
        return summary, records

    passes, records, untraced = [], [], None
    if tracer:
        ops = make_pass()
        summary, records = timed_pass(ops, True)
        passes.append(summary)
        spans.uninstall(restore)
        untraced = timed_pass(ops, False)[0]
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < spec["seconds"]:
            summary, pass_records = timed_pass(make_pass(), False)
            passes.append(summary)
            records.extend(pass_records)
    return {"setup_s": setup_s, "setup_calib_s": setup_calib, "rss_mb": rss,
            "passes": passes, "ops": records,
            "untraced": untraced, "context": {"eval_residual": max(residuals)}}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = spans.Tracer() if spec.get("trace") else None
    runner = {"setup": run_setup, "cli": run_cli, "decompose": run_decompose}[spec["kind"]]
    record = runner(spec, tracer)
    record["env"] = env_info()
    if tracer:
        record["spans"] = tracer.spans
        record["cache_entries"] = tracer.cache_entries()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
