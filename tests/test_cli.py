import copy
import dataclasses
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from anyonladder.basis import FusionTreeBasis, SparseOperator
from anyonladder.cli import build_parser, main
from anyonladder.fixtures import fixture_names
from anyonladder.ladder import ladder_set
from anyonladder.model import builtin, dump_model
from anyonladder.serialize import dump_operator


def _write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _broken_fibonacci(tmp_path, shift=None):
    """Fibonacci with the real part of one F-symbol entry negated, or moved by ``shift``."""
    doc = copy.deepcopy(dump_model(builtin("fibonacci")))
    entry = doc["f_symbols"]["tau,tau,tau;tau"][0][1]
    entry[0] = -entry[0] if shift is None else entry[0] + shift
    return _write_model(tmp_path, doc)


def test_validate_builtin_passes(capsys):
    code = main(["validate", "--model", "fibonacci"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: pass" in out
    assert "pentagon" in out


def test_validate_broken_model_fails(tmp_path, capsys):
    code = main(["validate", "--model", _broken_fibonacci(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("model", ["fibonacci", "ising", "fermion"])
def test_validate_builtins_pass_at_tolerance_zero(model, capsys):
    """Every residual of a builtin is rounding (see ``test_rounding``), so at
    ``--tolerance 0`` only the tolerance header differs from the default run."""
    assert main(["validate", "--model", model]) == 0
    default = capsys.readouterr().out
    assert main(["validate", "--model", model, "--tolerance", "0"]) == 0
    assert capsys.readouterr().out == default.replace(
        "tolerance: 1.000e-10", "tolerance: 0.000e+00"
    )


def test_validate_fails_an_f_entry_moved_by_1e_12_at_tolerance_zero(tmp_path, capsys):
    code = main(["validate", "--model", _broken_fibonacci(tmp_path, 1e-12), "--tolerance", "0"])
    out = capsys.readouterr().out
    assert code == 1
    for law in ("f-unitarity", "pentagon", "hexagon"):
        assert f"  [FAIL] {law}: residual=" in out
    assert out.endswith("result: FAIL\n")


def test_validate_missing_file_is_usage_error(capsys):
    code = main(["validate", "--model", "/nonexistent/model.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_ladder_writes_files(tmp_path, capsys):
    out = tmp_path / "ladder"
    code = main(
        [
            "ladder",
            "--model",
            "fibonacci",
            "--modes",
            "2",
            "--particle",
            "tau",
            "--out",
            str(out),
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "J = 2" in text
    names = sorted(p.name for p in out.iterdir())
    assert "tables-tau.json" in names
    assert any(n.endswith(".triplets") for n in names)
    # table JSON parses and round-trips through the loader
    from anyonladder.serialize import load_tables

    tables = load_tables((out / "tables-tau.json").read_text())
    assert [t.j for t in tables] == [0, 1]


def test_verify_suites_pass(capsys):
    for suite in ("relations", "locality", "fock", "closure"):
        code = main(["verify", "--model", "fibonacci", "--modes", "2", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0, (suite, out)
        assert "result: pass" in out


def test_verify_all_runs_every_suite(capsys):
    code = main(["verify", "--model", "fibonacci", "--modes", "2", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    for marker in ("relations", "locality", "fock", "closure"):
        assert marker in out


def test_verify_fermion_relations(capsys):
    code = main(["verify", "--model", "fermion", "--modes", "3", "--suite", "relations"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: pass" in out


def test_verify_relations_dispatches_on_structure_not_name(tmp_path, capsys):
    doc = copy.deepcopy(dump_model(builtin("fermion")))
    doc["name"] = "renamed-fermion"
    path = _write_model(tmp_path, doc)
    code = main(["verify", "--model", path, "--modes", "2", "--suite", "relations"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "canonical anticommutation relations: residual=0.000e+00" in captured.out
    assert "result: pass" in captured.out


@pytest.mark.parametrize("model, modes", [("fibonacci", 3), ("ising", 2), ("fermion", 3)])
def test_verify_all_passes_on_every_builtin(model, modes, capsys):
    code = main(["verify", "--model", model, "--modes", str(modes), "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out and out.endswith("result: pass\n")


def test_verify_marks_suites_that_do_not_apply(capsys):
    assert main(["verify", "--model", "ising", "--modes", "2", "--suite", "relations"]) == 0
    out = capsys.readouterr().out
    assert "  [n/a] no Fibonacci pair and no fermion type in this model\n" in out
    assert main(["verify", "--model", "ising", "--modes", "2", "--suite", "fock"]) == 0
    out = capsys.readouterr().out
    assert "[n/a] creation words" in out
    assert "[pass] joint annihilator kernel dimension = 1" in out
    assert main(["verify", "--model", "fermion", "--modes", "3", "--suite", "fock"]) == 0
    assert "[pass] 8/8 states reconstructed" in capsys.readouterr().out


# (mode-1 closure, candidate-local span, all-modes closure, dim**2) as printed
# by ``verify --suite closure``, alike at the default tolerance and at 0
CLOSURE_STDOUT = {
    ("fibonacci", 1): (4, 4, 4, 4),
    ("fibonacci", 2): (13, 13, 25, 25),
    ("fibonacci", 3): (13, 13, 169, 169),
    ("fibonacci", 4): (13, 13, 1156, 1156),
    ("ising", 1): (9, 9, 9, 9),
    ("ising", 2): (34, 34, 100, 100),
    ("ising", 3): (34, 34, 1156, 1156),
    ("fermion", 1): (4, 4, 4, 4),
    ("fermion", 2): (8, 8, 16, 16),
    ("fermion", 3): (8, 8, 64, 64),
    ("fermion", 4): (8, 8, 256, 256),
}


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]], ids=["default", "tol0"])
@pytest.mark.parametrize("model, modes", sorted(CLOSURE_STDOUT))
def test_verify_closure_stdout_is_pinned(model, modes, tolerance, capsys):
    mode1, cand, full, dim2 = CLOSURE_STDOUT[(model, modes)]
    code = main(["verify", "--model", model, "--modes", str(modes), "--suite", "closure", *tolerance])
    assert code == 0
    assert capsys.readouterr().out == (
        "suite: closure\n"
        f"  [pass] mode-1 closure with total-charge projectors: dimension = {mode1} "
        f"(candidate-local span = {cand})\n"
        f"  [pass] all-modes closure dimension = {full} (full operator algebra = {dim2})\n"
        "result: pass\n"
    )


def _report(suite: str, lines: list[str]) -> str:
    return "".join(line + "\n" for line in [f"suite: {suite}", *lines, "result: pass"])


# (mode-1 candidate-local elements, residual of each total-charge projector)
# as printed by ``verify --suite locality``, alike at the default tolerance and
# at 0: every residual is below its rounding cut, eps * dim, and passes
LOCALITY_STDOUT = {
    ("fibonacci", 1): (4, {"e": "0.000e+00", "tau": "0.000e+00"}),
    ("fibonacci", 2): (13, {"e": "0.000e+00", "tau": "0.000e+00"}),
    ("fibonacci", 3): (13, {"e": "0.000e+00", "tau": "0.000e+00"}),
    ("fibonacci", 4): (13, {"e": "0.000e+00", "tau": "5.551e-17"}),
    ("ising", 1): (9, {"e": "0.000e+00", "psi": "0.000e+00", "sigma": "0.000e+00"}),
    ("ising", 2): (34, {"e": "0.000e+00", "psi": "0.000e+00", "sigma": "0.000e+00"}),
    ("ising", 3): (34, {"e": "0.000e+00", "psi": "0.000e+00", "sigma": "2.220e-16"}),
    ("fermion", 1): (4, {"e": "0.000e+00", "psi": "0.000e+00"}),
    ("fermion", 2): (8, {"e": "0.000e+00", "psi": "0.000e+00"}),
    ("fermion", 3): (8, {"e": "0.000e+00", "psi": "0.000e+00"}),
    ("fermion", 4): (8, {"e": "0.000e+00", "psi": "0.000e+00"}),
}


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]], ids=["default", "tol0"])
@pytest.mark.parametrize("model, modes", sorted(LOCALITY_STDOUT))
def test_verify_locality_stdout_is_pinned(model, modes, tolerance, capsys):
    count, residuals = LOCALITY_STDOUT[(model, modes)]
    lines = [f"  [pass] {count}/{count} mode-1 elements are candidate-local on {{1}}"]
    lines += [
        f"  [pass] total-charge projector P_{g} is candidate-local "
        f"on {{1}}: residual={res}"
        for g, res in residuals.items()
    ]
    if modes >= 2:
        lines.append("  [pass] braid(1,2) is not local on {1}: residual=1.000e+00")
    want = _report("locality", lines)
    code = main(["verify", "--model", model, "--modes", str(modes), "--suite", "locality", *tolerance])
    assert capsys.readouterr().out == want
    assert code == 0


# (states reconstructed, their residual) as printed by ``verify --suite
# fock``, alike at the default tolerance and at 0, where each residual is
# below its rounding cut, eps * dim, and passes; None for a model with
# neither a Fibonacci pair nor a fermion type.  The kernel line reads 1 on all.
FOCK_STDOUT = {
    ("fibonacci", 1): (2, "0.000e+00"),
    ("fibonacci", 2): (5, "5.551e-17"),
    ("fibonacci", 3): (13, "2.776e-16"),
    ("fibonacci", 4): (34, "2.776e-16"),
    ("ising", 1): None,
    ("ising", 2): None,
    ("ising", 3): None,
    ("fermion", 1): (2, "0.000e+00"),
    ("fermion", 2): (4, "0.000e+00"),
    ("fermion", 3): (8, "0.000e+00"),
    ("fermion", 4): (16, "0.000e+00"),
}


@pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]], ids=["default", "tol0"])
@pytest.mark.parametrize("model, modes", sorted(FOCK_STDOUT))
def test_verify_fock_stdout_is_pinned(model, modes, tolerance, capsys):
    words = FOCK_STDOUT[(model, modes)]
    if words is None:
        lines = ["  [n/a] creation words: no Fibonacci pair and no fermion type in this model"]
    else:
        count, res = words
        lines = [f"  [pass] {count}/{count} states reconstructed by "
                 f"creation words: residual={res}"]
    lines.append("  [pass] joint annihilator kernel dimension = 1 (expect 1)")
    want = _report("fock", lines)
    code = main(["verify", "--model", model, "--modes", str(modes), "--suite", "fock", *tolerance])
    assert capsys.readouterr().out == want
    assert code == 0


@pytest.mark.parametrize("model, modes", sorted(FOCK_STDOUT))
def test_verify_relations_at_tolerance_zero_matches_the_default(model, modes, capsys):
    """Every relation residual of a builtin is rounding (see ``test_rounding``),
    so at ``--tolerance 0`` only the tolerance header differs."""
    argv = ["verify", "--model", model, "--modes", str(modes), "--suite", "relations"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--tolerance", "0"]) == 0
    assert capsys.readouterr().out == default.replace(
        "tolerance: 1.000e-10", "tolerance: 0.000e+00"
    )


def test_verify_fock_kernel_line_reads_the_tolerance(capsys):
    """A tolerance above every singular value of the stacked annihilators
    leaves them rank 0: the joint kernel is the whole space."""
    code = main(["verify", "--model", "fibonacci", "--modes", "2", "--suite", "fock",
                 "--tolerance", "10"])
    assert capsys.readouterr().out == (
        "suite: fock\n"
        "  [pass] 5/5 states reconstructed by creation words: residual=5.551e-17\n"
        "  [FAIL] joint annihilator kernel dimension = 5 (expect 1)\n"
        "result: FAIL\n"
    )
    assert code == 1


def test_verify_closure_grows_the_span_when_the_commutant_is_not_trivial(monkeypatch, capsys):
    """With only the mode-1 ladder operators the commutant holds more than the
    scalars, so the all-modes line reports the dimension algebra_closure grows."""
    from anyonladder import cli

    def mode1_only(model, n, particle):
        ls = ladder_set(model, n, particle)
        return dataclasses.replace(ls, ops={kj: op for kj, op in ls.ops.items() if kj[0] == 1})

    monkeypatch.setattr(cli, "ladder_set", mode1_only)
    code = main(["verify", "--model", "fibonacci", "--modes", "3", "--suite", "closure"])
    out = capsys.readouterr().out
    assert code == 1
    assert "  [FAIL] all-modes closure dimension = 13 (full operator algebra = 169)\n" in out


def test_ladder_exports_match_their_pinned_sha256(tmp_path, capsys):
    """``ladder --out`` for Fibonacci 8, Ising 6 and fermion 10 writes exactly
    the files of ``tests/data/ladder-sha256.txt``, byte for byte (the CI checks
    the same list with ``sha256sum -c``)."""
    pins = (Path(__file__).parent / "data" / "ladder-sha256.txt").read_text().splitlines()
    want = {name: digest for digest, name in (line.split("  ", 1) for line in pins)}
    for model, modes in (("fibonacci", 8), ("ising", 6), ("fermion", 10)):
        out = tmp_path / f"{model}-{modes}"
        assert main(["ladder", "--model", model, "--modes", str(modes), "--out", str(out)]) == 0
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert got == want


def test_verify_relations_stdouts_match_their_pinned_sha256(capsys):
    """``verify --suite relations`` prints, byte for byte with every residual
    figure, the stdouts of ``tests/data/relations-sha256.txt`` for Fibonacci
    n = 2, 3, 4 and fermion n = 3, 4."""
    pins = (Path(__file__).parent / "data" / "relations-sha256.txt").read_text().splitlines()
    want = {name: digest for digest, name in (line.split("  ", 1) for line in pins)}
    got = {}
    for model, modes in (("fibonacci", 2), ("fibonacci", 3), ("fibonacci", 4),
                         ("fermion", 3), ("fermion", 4)):
        assert main(["verify", "--model", model, "--modes", str(modes), "--suite", "relations"]) == 0
        out = capsys.readouterr().out.encode()
        got[f"relations-{model}-{modes}.txt"] = hashlib.sha256(out).hexdigest()
    assert got == want


def test_verify_fock_forms_no_dense_identity(monkeypatch, capsys):
    """Each creation word's vector is compared with its own unit vector, so
    the fock suite forms no D x D identity."""

    def no_eye(*args, **kwargs):
        raise AssertionError("np.eye called")

    monkeypatch.setattr(np, "eye", no_eye)
    code = main(["verify", "--model", "fibonacci", "--modes", "4", "--suite", "fock"])
    assert "34/34 states reconstructed by creation words: residual=2.776e-16" in capsys.readouterr().out
    assert code == 0


def test_decompose_fixtures_match_their_pinned_sha256(tmp_path, monkeypatch, capsys):
    """``decompose --fixture F --out F.json``, run from one directory, writes
    ``F.json`` and prints ``F.txt`` with the digests of
    ``tests/data/decompose-sha256.txt`` (the CI checks the same list with
    ``sha256sum -c``)."""
    pins = (Path(__file__).parent / "data" / "decompose-sha256.txt").read_text().splitlines()
    want = {name: digest for digest, name in (line.split("  ", 1) for line in pins)}
    monkeypatch.chdir(tmp_path)
    got = {}
    for name in fixture_names():
        assert main(["decompose", "--fixture", name, "--out", f"{name}.json"]) == 0
        for suffix, data in ((".txt", capsys.readouterr().out.encode()),
                             (".json", (tmp_path / f"{name}.json").read_bytes())):
            got[name + suffix] = hashlib.sha256(data).hexdigest()
    assert got == want


def test_decompose_list_fixtures(capsys):
    code = main(["decompose", "--list-fixtures"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("n1", "n2", "gt-Ptt"):
        assert name in out


def test_decompose_fixture(capsys, tmp_path):
    out_file = tmp_path / "poly.json"
    code = main(["decompose", "--fixture", "n1", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "evaluation residual" in out
    payload = json.loads(out_file.read_text())
    assert isinstance(payload, list) and payload
    assert all({"coeff", "word"} <= set(term) for term in payload)


@pytest.mark.parametrize("name", fixture_names())
def test_decompose_fixture_at_tolerance_zero_matches_the_default(name, capsys, tmp_path):
    """Each fixture's residuals are rounding: at ``--tolerance 0`` it still
    decomposes, with the stdout and the file of the default tolerance."""
    runs = []
    for tag, tolerance in (("default", []), ("tol0", ["--tolerance", "0"])):
        out_file = tmp_path / f"{tag}.json"
        assert main(["decompose", "--fixture", name, "--out", str(out_file), *tolerance]) == 0
        runs.append((capsys.readouterr().out.replace(str(out_file), "OUT"), out_file.read_bytes()))
    assert runs[0] == runs[1]


def test_decompose_fixture_acts_on_modes_one_and_two_only(capsys):
    assert main(["decompose", "--fixture", "n1"]) == 0
    plain = capsys.readouterr().out
    assert main(["decompose", "--fixture", "n1", "--sites", "1,2"]) == 0
    assert capsys.readouterr().out == plain
    for sites in ("3", "2,3", "1,1,2"):
        code = main(["decompose", "--fixture", "n1", "--sites", sites])
        err = capsys.readouterr().err
        assert code == 2
        assert "--sites" in err


@pytest.mark.parametrize("sites", ["1,x", "", "1,,2"])
def test_decompose_names_the_sites_option_for_a_non_number(capsys, tmp_path, sites):
    """A ``--sites`` entry that is not a mode number is a usage error that
    names the option, with ``--fixture`` and with ``--op`` alike."""
    fib = builtin("fibonacci")
    path = tmp_path / "op.triplets"
    path.write_text(dump_operator(SparseOperator.identity(FusionTreeBasis(fib, 2))))
    for subject in (["--fixture", "n1"], ["--op", str(path), "--model", "fibonacci"]):
        code = main(["decompose", *subject, "--sites", sites])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--sites must be comma-separated mode numbers, got {sites!r}" in captured.err


def test_decompose_fixture_sites_in_either_order_give_the_same_bytes(capsys, tmp_path):
    """``--sites 2,1`` names the region ``1,2``, as it does with ``--op``."""
    runs = []
    for sites in ("1,2", "2,1"):
        out_file = tmp_path / f"{sites}.json"
        assert main(["decompose", "--fixture", "n1", "--sites", sites, "--out", str(out_file)]) == 0
        runs.append((capsys.readouterr().out.replace(str(out_file), "OUT"), out_file.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("model", ["ising", "nonexistent.json"])
def test_decompose_fixture_rejects_another_model(capsys, model):
    """Fixtures are Fibonacci observables: another --model is an input error,
    not a silent Fibonacci decomposition."""
    code = main(["decompose", "--fixture", "n1", "--model", model])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--model" in captured.err and model in captured.err
    assert main(["decompose", "--fixture", "n1", "--model", "fibonacci"]) == 0


def test_decompose_unknown_fixture(capsys):
    code = main(["decompose", "--fixture", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope" in err


def test_decompose_operator_file(tmp_path, capsys):
    from anyonladder.algebra import observable_basis

    fib = builtin("fibonacci")
    pairs, ops = observable_basis(fib, 3, 2)
    herm = None
    for (x, xp), op in zip(pairs, ops):
        if x.index == xp.index:
            herm = op if herm is None else herm + op
    path = tmp_path / "op.triplets"
    path.write_text(dump_operator(herm.drop(), name="sum-of-projectors"))
    code = main(
        ["decompose", "--op", str(path), "--sites", "1,2", "--model", "fibonacci"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "evaluation residual" in out


def test_decompose_charge_changing_rejected(tmp_path, capsys):
    from anyonladder.ladder import fibonacci_pair

    fib = builtin("fibonacci")
    pair = fibonacci_pair(fib, 2)
    path = tmp_path / "alpha.triplets"
    path.write_text(dump_operator(pair.alpha[1]))
    code = main(["decompose", "--op", str(path), "--sites", "1", "--model", "fibonacci"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not an observable" in err


@pytest.mark.parametrize("bad, problem", [
    ("1 1 0.5 0", "line 8: repeated entry (1, 1)"),
    ("0 1 nan 0", "line 8: non-finite value"),
    ("0 1 0 nan", "line 8: non-finite value"),
    ("0 1 inf 0", "line 8: non-finite value"),
    ("0 1 -inf 0", "line 8: non-finite value"),
    ("0 1 0 inf", "line 8: non-finite value"),
    ("0 1 0 -inf", "line 8: non-finite value"),
])
def test_decompose_rejects_a_bad_triplet_line(tmp_path, capsys, bad, problem):
    fib = builtin("fibonacci")
    text = dump_operator(SparseOperator.identity(FusionTreeBasis(fib, 1)))
    path = tmp_path / "bad.triplets"
    path.write_text(text.rstrip("\n") + "\n" + bad + "\n")
    code = main(["decompose", "--op", str(path), "--sites", "1", "--model", "fibonacci"])
    assert code == 2
    assert problem in capsys.readouterr().err


def test_decompose_requires_subject(capsys):
    code = main(["decompose"])
    assert code == 2


def test_hubbard_runs_and_writes(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["hubbard", "--rungs", "1", "--t", "0.5", "--mu", "0.2", "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "ground" in text
    assert (out / "spectrum.csv").exists()
    assert (out / "occupation.csv").exists()
    spectrum = (out / "spectrum.csv").read_text()
    assert spectrum.startswith("sector,index,eigenvalue")


def test_hubbard_mentions_indexing_choice(capsys):
    code = main(["hubbard", "--rungs", "2", "--t", "1.0", "--mu", "0.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "geometric" in out and "--indexing paper" in out


def test_hubbard_zero_rungs_is_usage_error(capsys):
    code = main(["hubbard", "--rungs", "0", "--t", "1.0", "--mu", "0.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "rung" in err


def test_hubbard_output_is_deterministic(tmp_path, capsys):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(
            [
                "hubbard",
                "--rungs",
                "2",
                "--t",
                "0.7",
                "--mu",
                "0.3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(
            (
                (out / "spectrum.csv").read_bytes(),
                (out / "occupation.csv").read_bytes(),
            )
        )
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_hubbard_sector_restriction(capsys):
    code = main(
        ["hubbard", "--rungs", "1", "--t", "0.4", "--mu", "0.1", "--sector", "tau"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "tau" in out
    assert "sector e" not in out


def test_hubbard_unknown_sector_fails_before_any_work(capsys, monkeypatch):
    from anyonladder import hubbard

    def no_work(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built for a bad argument")

    monkeypatch.setattr(hubbard, "hubbard_hamiltonian", no_work)
    code = main(["hubbard", "--rungs", "2", "--sector", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown sector 'x'" in captured.err and "e, tau" in captured.err


@pytest.mark.parametrize("command", ["verify", "ladder"])
def test_zero_modes_fails_before_any_output(command, capsys):
    code = main([command, "--model", "fibonacci", "--modes", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--modes must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerance_fails_before_any_output(value, capsys):
    code = main(["decompose", "--fixture", "n1", "--tolerance", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tolerance must be finite and non-negative" in captured.err


@pytest.mark.parametrize(
    "command", [["hubbard", "--rungs", "1"], ["ladder", "--model", "fibonacci", "--modes", "1"]]
)
def test_tolerance_is_rejected_where_nothing_reads_it(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tolerance", "1e-300"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def _parse_text(capsys, parse, argv):
    """Exit code, stdout and stderr of ``parse(argv)``, which argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--help"], ["validate", "--model", "fibonacci", "--level", "some"],
        ["ladder", "--help"], ["ladder", "--model", "fibonacci"],
        ["verify", "--help"], ["verify", "--modes", "two"],
        ["decompose", "--help"], ["decompose", "--sites"],
        ["hubbard", "--help"], ["hubbard", "--rungs", "2", "--indexing", "diagonal"],
        ["verify", "--modes", "2", "ladder"], ["hubbard", "--rungs", "1", "--bogus", "1"],
        ["--help"], ["mystery"], [], ["--", "verify"],
    ],
)
def test_a_call_parses_with_its_own_sub_parser_and_the_full_parser_text(argv, capsys):
    """``main`` builds only the sub-parser of the command it runs, and every
    help, usage and error text, stdout, stderr and exit code, is the one the
    parser of every subcommand gives."""
    full = _parse_text(capsys, build_parser().parse_args, argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _parse_text(capsys, main, argv) == full
    commands = ["validate", "ladder", "verify", "decompose", "hubbard"]
    command = argv[0] if argv else None
    built = build_parser(command)._subparsers._group_actions[0].choices
    assert list(built) == ([command] if command in commands else commands)


_REPORT_LINE = re.compile(
    r"(  )?(model|level|tolerance|modes): \S.*"  # a header line
    r"|suite: (relations|locality|fock|closure)"
    r"|(  )?result: (pass|FAIL)"
    r"|(  )+\[(pass|FAIL|info|n/a)\] \S.*"  # an entry
)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "fibonacci", "--modes", "3"],
        ["verify", "--model", "ising", "--modes", "2"],
        ["verify", "--model", "fermion", "--modes", "3"],
        ["verify", "--modes", "2", "--suite", "relations", "--tolerance", "0"],
        ["validate", "--model", "ising"],
        ["validate", "--model", "BROKEN"],
    ],
    ids=["fibonacci-3", "ising-2", "fermion-3", "relations-tol0", "validate", "validate-broken"],
)
def test_check_reports_follow_one_grammar(argv, tmp_path, capsys):
    """Every line is a header, a ``suite:`` or ``result:`` line, or an
    indented entry; exit code 1 exactly when an entry FAILs; and the
    relation suite lists every check before its ``[info]`` notes."""
    argv = [_broken_fibonacci(tmp_path) if a == "BROKEN" else a for a in argv]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] in ("result: pass", "result: FAIL")
    assert [line for line in lines if not _REPORT_LINE.fullmatch(line)] == []
    failed = any("[FAIL]" in line for line in lines)
    assert code == (1 if failed else 0)
    assert lines[-1] == f"result: {'FAIL' if failed else 'pass'}"
    if "suite: relations" in lines:
        start = lines.index("suite: relations") + 1
        block = itertools.takewhile(lambda line: not line.startswith("suite: "), lines[start:])
        statuses = [m.group(1) for line in block if (m := re.search(r"\[(\S+)\]", line))]
        assert statuses
        checks = [s for s in statuses if s in ("pass", "FAIL")]
        assert statuses[: len(checks)] == checks
