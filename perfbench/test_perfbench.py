"""Tests of the benchmark's own code: checks, failure counting, tracing, output.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import anyonladder as al  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from anyonladder import cli  # noqa: E402
from anyonladder.fixtures import fixture  # noqa: E402
from anyonladder.polynomial import LadderPolynomial  # noqa: E402

REQUIRED_END_TO_END = {"setup_s", "ops_per_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "trees.enumerate_labelings.calls", "trees.enumerate_labelings.self_s",
    "basis.FusionTreeBasis.calls", "basis.FusionTreeBasis.self_s",
    "basis.recouple.calls", "basis.recouple.self_s", "basis.braid_adjacent.self_s",
    "basis.SparseOperator.matmul.calls", "basis.SparseOperator.matmul.self_s",
    "basis.op_cache.entries", "basis.op_cache.hit_ratio",
    "ladder.fibonacci_pair.self_s", "ladder.ladder_set.self_s",
    "ladder.annihilating_element.self_s",
    "hubbard.build_hamiltonian.self_s", "hubbard.diagonalize.self_s",
    "hubbard.occupation_profile.self_s",
    "polynomial.LadderPolynomial.init.calls", "polynomial.LadderPolynomial.init.self_s",
    "polynomial.evaluate.self_s",
    "algebra.decompose_observable.self_s", "algebra.decompose_observable.cold_s",
    "algebra.mode_relabel_unitary.self_s", "algebra.algebra_closure.self_s",
    "algebra.verify_relations.self_s", "algebra.fock_words.self_s",
    "algebra.is_local_candidate.self_s", "algebra.kernel_dimension.self_s",
    "serialize.self_s", "serialize.bytes", "cli.main.self_s",
}

HUBBARD_OP = {"label": "hubbard", "check": "hubbard", "model": "fibonacci", "n_modes": 4}


def _hubbard_call(tmp_path):
    """A real ``hubbard --rungs 2`` call: stdout, output dir and its Hamiltonian."""
    params = al.HubbardParams(0.8, 0.3)
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["hubbard", "--rungs", "2", "--t", "0.8", "--mu", "0.3", "--out", str(out)])
    assert code == 0
    _spec, h = al.hubbard_hamiltonian(2, params)
    return stdout.getvalue(), out, h


def test_hubbard_check_accepts_the_real_output(tmp_path):
    stdout, out, h = _hubbard_call(tmp_path)
    result = worker.judge(HUBBARD_OP, 0, "", stdout, "", h, str(out))
    assert not result["failed"], result["reason"]
    assert result["context"]["e0_error"] < 1e-10


def test_shifted_eigenvalue_counts_as_failed(tmp_path):
    stdout, out, h = _hubbard_call(tmp_path)
    csv = out / "spectrum.csv"
    rows = csv.read_text().splitlines()
    sector, index, value = rows[1].split(",")
    rows[1] = f"{sector},{index},{float(value) + 1e-6!r}"
    csv.write_text("\n".join(rows) + "\n")
    result = worker.judge(HUBBARD_OP, 0, "", stdout, "", h, str(out))
    assert result["failed"] and result["wrong"]
    correct, failed, _lines = run.verdict([{"label": "hubbard", **result}])
    assert (correct, failed) == (False, 1)


def test_wrong_sector_dimension_counts_as_failed(tmp_path):
    stdout, out, h = _hubbard_call(tmp_path)
    dim = re.search(r"sector e: dimension (\d+),", stdout).group(1)
    wrong = stdout.replace(f"sector e: dimension {dim},", f"sector e: dimension {int(dim) + 1},")
    assert wrong != stdout
    assert worker.judge(HUBBARD_OP, 0, "", wrong, "", h, str(out))["failed"]


def _dense_matrices(model, n):
    return worker._check_matrices(al, model, n)


def test_perturbed_polynomial_coefficient_counts_as_failed():
    model = al.builtin("fibonacci")
    op = fixture("n1")
    dec = al.decompose_observable(op, (1, 2))
    mats = _dense_matrices(model, 3)
    ok, _reason, ctx = checks.check_decomposition(dec.polynomial, op.to_dense(), mats)
    assert ok and ctx["residual"] < 1e-10
    terms = dec.polynomial.terms
    # A word whose product is the zero matrix does not change the value.
    coeff, word = next(
        (c, w) for c, w in terms
        if abs(checks.evaluate_dense(LadderPolynomial([(1.0, w)]), mats, 13)).max() > 0.1
    )
    perturbed = LadderPolynomial([(coeff + 1e-6, word)] + [t for t in terms if t[1] != word])
    ok, _reason, _ctx = checks.check_decomposition(perturbed, op.to_dense(), mats)
    assert not ok


@pytest.mark.parametrize("model", ["fibonacci", "ising"])
def test_exit_code_2_counts_as_failed(model):
    op = {"label": f"verify {model} fock", "check": "verify", "model": model}
    result = worker.judge(op, 2, "", "suite: fock\n", "error: not supported\n", None, None)
    assert result["failed"] and not result["wrong"]
    correct, failed, lines = run.verdict([{"label": op["label"], **result}])
    assert failed == 1
    # Ising fock is in the ledger of known failures; Fibonacci is not.
    assert correct == (model == "ising")
    assert ("UNEXPECTED" in lines[0]) == (model == "fibonacci")


def test_verify_checks():
    assert checks.check_verify("ising", 1, "suite: closure\nresult: FAIL\n")[0]
    assert not checks.check_verify("fibonacci", 1, "suite: closure\nresult: FAIL\n")[0]
    assert not checks.check_verify("fermion", 0, "suite: closure\n")[0]


def test_tracer_rebinds_every_copy_and_restores():
    from anyonladder import hubbard, ladder

    original = ladder.fibonacci_pair
    assert hubbard.fibonacci_pair is original
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    try:
        assert missing == []
        assert hubbard.fibonacci_pair is ladder.fibonacci_pair is al.fibonacci_pair
        assert hubbard.fibonacci_pair is not original
        with tracer.operation(0):
            al.fibonacci_pair(al.builtin("fibonacci"), 3)
    finally:
        spans.uninstall(restore)
    assert hubbard.fibonacci_pair is original and ladder.fibonacci_pair is original
    names = {s[0] for s in tracer.spans}
    assert {"op", "ladder.fibonacci_pair", "basis.braid_adjacent"} <= names
    assert spans.check_additivity(tracer.spans) == []


def test_additivity_check_catches_a_span_outside_its_parent():
    good = [["op", 0.0, 1.0, -1, 0, None], ["basis.recouple", 0.1, 0.4, 0, 0, None]]
    assert spans.check_additivity(good) == []
    bad = good + [["trees.enumerate_labelings", 0.2, 0.9, 1, 0, None]]
    assert spans.check_additivity(bad)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)
    assert REQUIRED_END_TO_END == {m["name"] for m in bench["end_to_end"]}
    assert REQUIRED_PER_LAYER <= {m["name"] for m in bench["per_layer"]}


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_prints_every_metric(trace):
    outcome = run.run_workload("hubbard", 5, 1, trace)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = REQUIRED_PER_LAYER if trace else REQUIRED_END_TO_END
    assert expected <= set(result["metrics"])
    text = "\n".join(outcome["lines"])
    for name in expected | {"fail_frac"}:
        assert f"  {name} = " in text
    if trace:
        assert "spans add up to every op duration: True" in text
        assert result["metrics"]["trees.enumerate_labelings.calls"]["value"] > 0
