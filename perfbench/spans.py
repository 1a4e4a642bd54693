"""Timing spans around the package's public functions, installed from outside.

The benchmark wraps the functions listed in ``TARGETS`` without touching the
package's source.  ``from .x import f`` copies a function into several module
namespaces, so :func:`install` replaces every binding of the same function
object in ``anyonladder.*``, not only the one in its home module.

A span is the list ``[name, start, end, parent, op, attrs]``: ``start`` and
``end`` come from ``time.perf_counter``, ``parent`` is the index of the
enclosing span in the same process (-1 for a root), ``op`` the identifier of
the benchmark operation the span belongs to, and ``attrs`` an optional dict
of context (matrix dimension, nnz, cache hit).  Spans stay in memory and are
handed back to the benchmark when the worker process ends.

A span's self time is its duration minus the durations of its direct
children.  Every benchmark operation has a root span named ``op``; the self
times of all spans of one operation therefore add up to the root's duration,
which :func:`check_additivity` verifies.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "anyonladder"

# (home module, attribute, span name).  ``Class.method`` attributes are
# replaced on the class; plain functions in every namespace that binds them.
TARGETS = (
    ("trees", "enumerate_labelings", "trees.enumerate_labelings"),
    ("trees", "moves_to_left_comb", "trees.moves_to_left_comb"),
    ("basis", "FusionTreeBasis.__init__", "basis.FusionTreeBasis"),
    ("basis", "SparseOperator.__matmul__", "basis.SparseOperator.matmul"),
    ("basis", "recouple", "basis.recouple"),
    ("basis", "braid_adjacent", "basis.braid_adjacent"),
    ("basis", "braid_word", "basis.braid_word"),
    ("basis", "total_charge_projector", "basis.total_charge_projector"),
    ("ladder", "annihilating_element", "ladder.annihilating_element"),
    ("ladder", "transport_to_mode", "ladder.transport_to_mode"),
    ("ladder", "coefficient_tables", "ladder.coefficient_tables"),
    ("ladder", "ladder_set", "ladder.ladder_set"),
    ("ladder", "fibonacci_pair", "ladder.fibonacci_pair"),
    ("ladder", "fermion_annihilator", "ladder.fermion_annihilator"),
    ("hubbard", "hubbard_hamiltonian", "hubbard.hubbard_hamiltonian"),
    ("hubbard", "build_hamiltonian", "hubbard.build_hamiltonian"),
    ("hubbard", "diagonalize", "hubbard.diagonalize"),
    ("hubbard", "occupation_profile", "hubbard.occupation_profile"),
    ("polynomial", "LadderPolynomial.__init__", "polynomial.LadderPolynomial.init"),
    ("polynomial", "LadderPolynomial.evaluate", "polynomial.evaluate"),
    ("polynomial", "LadderPolynomial.evaluate_with_identity", "polynomial.evaluate"),
    ("algebra", "observable_basis", "algebra.observable_basis"),
    ("algebra", "candidate_local_basis", "algebra.candidate_local_basis"),
    ("algebra", "local_candidate_span", "algebra.local_candidate_span"),
    ("algebra", "mode_relabel_unitary", "algebra.mode_relabel_unitary"),
    ("algebra", "is_local_candidate", "algebra.is_local_candidate"),
    ("algebra", "o_polynomial", "algebra.o_polynomial"),
    ("algebra", "decompose_observable", "algebra.decompose_observable"),
    ("algebra", "verify_relations", "algebra.verify_relations"),
    ("algebra", "fock_words", "algebra.fock_words"),
    ("algebra", "fock_word", "algebra.fock_word"),
    ("algebra", "apply_word", "algebra.apply_word"),
    ("algebra", "kernel_dimension", "algebra.kernel_dimension"),
    ("algebra", "algebra_closure", "algebra.algebra_closure"),
    ("serialize", "dump_operator", "serialize.dump_operator"),
    ("serialize", "load_operator", "serialize.load_operator"),
    ("serialize", "dump_tables", "serialize.dump_tables"),
    ("serialize", "load_tables", "serialize.load_tables"),
    ("serialize", "dump_polynomial", "serialize.dump_polynomial"),
    ("serialize", "load_polynomial", "serialize.load_polynomial"),
    ("serialize", "write_spectrum_csv", "serialize.write_spectrum_csv"),
    ("serialize", "write_occupation_csv", "serialize.write_occupation_csv"),
    ("cli", "main", "cli.main"),
)

# Functions that look their result up in the model's ``_op_cache``.  A call
# that leaves the cache the same size was answered from it: a hit.
CACHED = frozenset(
    {
        "basis.recouple",
        "basis.braid_adjacent",
        "ladder.annihilating_element",
        "algebra.observable_basis",
        "algebra.local_candidate_span",
        "algebra.fock_word",
    }
)

def _model_of(first_arg):
    return getattr(first_arg, "model", first_arg)


def cache_size(model) -> int:
    return len(getattr(model, "_op_cache", None) or ())


def _operator_attrs(op) -> dict:
    return {"dim": int(op.row_basis.dim), "nnz": int(op.nnz)}


def _attrs(name: str, args, result):
    """Context recorded on selected spans; never part of the timed interval."""
    if name == "hubbard.build_hamiltonian":
        return _operator_attrs(result)
    if name == "hubbard.diagonalize":
        return {**_operator_attrs(args[0]), "block_dim": int(result.block_dim)}
    if name.startswith("serialize."):
        text = result if name.split(".")[1].startswith(("dump", "write")) else args[0]
        return {"bytes": len(text.encode()) if isinstance(text, str) else 0}
    return None


class Tracer:
    """Collects spans of one process; ``op`` tags new spans with an operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._models: dict[int, object] = {}

    def wrap(self, name: str, fn):
        tracer = self
        cached = name in CACHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            tracer.spans.append(rec)
            if cached:
                model = _model_of(args[0])
                tracer._models[id(model)] = model
                before = cache_size(model)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if cached:
                rec[5] = {"hit": cache_size(model) == before}
            else:
                rec[5] = _attrs(name, args, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id):
        """Root span ``op`` around one benchmark operation."""
        previous, self.op = self.op, op_id
        rec = ["op", 0.0, 0.0, -1, op_id, None]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.op = previous

    def cache_entries(self) -> int:
        """Entries in the ``_op_cache`` of every model a cached call touched."""
        return sum(cache_size(m) for m in self._models.values())


def install(tracer: Tracer):
    """Wrap every target; returns ``(restore, missing)`` for :func:`uninstall`."""
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    restore: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for module_name, attr, name in TARGETS:
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        orig = vars(owner).get(leaf) if owner is not None else None
        if not callable(orig):
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(name, orig)
        if owner_name:
            restore.append((owner, leaf, orig))
            setattr(owner, leaf, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return restore, missing


def uninstall(restore) -> None:
    for owner, key, orig in reversed(restore):
        setattr(owner, key, orig)


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark's parent process)
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def check_additivity(spans, tol: float = 1e-9) -> list[str]:
    """Per operation: module self times plus the root's own time equal its duration.

    Returns one message per violation (empty when the trace is consistent).
    A negative self time means a child span did not nest inside its parent.
    """
    selfs = self_times(spans)
    total: dict = {}
    duration: dict = {}
    problems = []
    for (name, start, end, parent, op, _attrs), own in zip(spans, selfs):
        if op is None:  # input building and checks, outside any operation
            continue
        if own < -tol:
            problems.append(f"op {op}: span {name} has negative self time {own:.3e}")
        total[op] = total.get(op, 0.0) + own
        if name == "op" and parent < 0:
            duration[op] = end - start
    for op, t in total.items():
        d = duration.get(op)
        if d is None:
            problems.append(f"op {op}: spans without a root")
        elif abs(t - d) > tol + 1e-9 * d:
            problems.append(f"op {op}: self times add to {t:.9f} s, op took {d:.9f} s")
    return problems


# Per-layer metrics of the traced run: (name, unit, better).
LAYER_METRICS = (
    ("trees.self_s", "s", "lower"),
    ("trees.calls", "count", "lower"),
    ("trees.enumerate_labelings.calls", "count", "lower"),
    ("trees.enumerate_labelings.self_s", "s", "lower"),
    ("basis.self_s", "s", "lower"),
    ("basis.calls", "count", "lower"),
    ("basis.FusionTreeBasis.calls", "count", "lower"),
    ("basis.FusionTreeBasis.self_s", "s", "lower"),
    ("basis.recouple.calls", "count", "lower"),
    ("basis.recouple.self_s", "s", "lower"),
    ("basis.braid_adjacent.self_s", "s", "lower"),
    ("basis.SparseOperator.matmul.calls", "count", "lower"),
    ("basis.SparseOperator.matmul.self_s", "s", "lower"),
    ("basis.op_cache.entries", "count", "lower"),
    ("basis.op_cache.hit_ratio", "ratio", "higher"),
    ("ladder.self_s", "s", "lower"),
    ("ladder.calls", "count", "lower"),
    ("ladder.fibonacci_pair.self_s", "s", "lower"),
    ("ladder.ladder_set.self_s", "s", "lower"),
    ("ladder.annihilating_element.self_s", "s", "lower"),
    ("hubbard.self_s", "s", "lower"),
    ("hubbard.calls", "count", "lower"),
    ("hubbard.build_hamiltonian.self_s", "s", "lower"),
    ("hubbard.diagonalize.self_s", "s", "lower"),
    ("hubbard.occupation_profile.self_s", "s", "lower"),
    ("polynomial.self_s", "s", "lower"),
    ("polynomial.calls", "count", "lower"),
    ("polynomial.LadderPolynomial.init.calls", "count", "lower"),
    ("polynomial.LadderPolynomial.init.self_s", "s", "lower"),
    ("polynomial.evaluate.self_s", "s", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("algebra.calls", "count", "lower"),
    ("algebra.decompose_observable.self_s", "s", "lower"),
    ("algebra.decompose_observable.cold_s", "s", "lower"),
    ("algebra.mode_relabel_unitary.self_s", "s", "lower"),
    ("algebra.algebra_closure.self_s", "s", "lower"),
    ("algebra.verify_relations.self_s", "s", "lower"),
    ("algebra.fock_words.self_s", "s", "lower"),
    ("algebra.is_local_candidate.self_s", "s", "lower"),
    ("algebra.kernel_dimension.self_s", "s", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("serialize.calls", "count", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def layer_values(processes) -> dict[str, float]:
    """Per-layer figures from the spans of every traced worker process.

    Calls and self times count the spans of timed operations (integer op
    ids) only.  ``cold_s`` sums the first ``decompose_observable`` call per
    region, made during set-up (op ids ``cold:...``), and
    ``op_cache.entries`` the cache sizes at the end of each process.
    """
    values: dict[str, float] = {}
    lookups = hits = 0

    def add(key, amount):
        values[key] = values.get(key, 0) + amount

    for proc in processes:
        spans = proc["spans"]
        add("basis.op_cache.entries", proc["cache_entries"])
        for (name, start, end, _parent, op, attrs), own in zip(spans, self_times(spans)):
            if name == "algebra.decompose_observable" and str(op).startswith("cold:"):
                add("algebra.decompose_observable.cold_s", end - start)
            if name == "op" or not isinstance(op, int):
                continue
            module = name.split(".")[0]
            for key in (name, module):
                add(f"{key}.calls", 1)
                add(f"{key}.self_s", own)
            if attrs:
                if "hit" in attrs:
                    lookups += 1
                    hits += attrs["hit"]
                add("serialize.bytes", attrs.get("bytes", 0))
    values["basis.op_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return values


def span_context(processes) -> dict:
    """Matrix dimensions and nnz recorded on Hamiltonian and solver spans."""
    context: dict = {}
    for proc in processes:
        for name, _start, _end, _parent, op, attrs in proc["spans"]:
            if attrs and name in ("hubbard.build_hamiltonian", "hubbard.diagonalize"):
                context.setdefault(name, [])
                if attrs not in context[name]:
                    context[name].append(attrs)
    return context
