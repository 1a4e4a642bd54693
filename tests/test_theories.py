"""Theories beyond the builtins: Z_N from closed-form data, and builtins under
a random vertex gauge transform, which must give the same physics."""

import json
import re

import numpy as np
import pytest

import oracles as orc
from anyonladder.cli import main
from anyonladder.hubbard import INDEXINGS, HubbardParams, diagonalize, hubbard_hamiltonian
from anyonladder.model import builtin, dump_model, validate_model

_RESIDUAL = re.compile(r"\d\.\d{3}e[+-]\d+")


def _model_file(tmp_path, model):
    path = tmp_path / f"{model.name}.json"
    path.write_text(json.dumps(dump_model(model)))
    return str(path)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_z_n_validates(n):
    report = validate_model(orc.z_n(n), level="full")
    assert report.passed, report.format_text()


@pytest.mark.parametrize("modes", [2, 3])
def test_verify_all_passes_on_z3(modes, tmp_path, capsys):
    path = _model_file(tmp_path, orc.z_n(3))
    code = main(["verify", "--model", path, "--modes", str(modes), "--suite", "all"])
    assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_gauged_builtin_validates(name):
    report = validate_model(orc.vertex_gauge(builtin(name), seed=1), level="full")
    assert report.passed, report.format_text()


def test_gauged_ising_with_untransformed_r_fails_the_hexagon():
    report = validate_model(orc.vertex_gauge(builtin("ising"), seed=1, gauge_r=False))
    failed = [text for status, text, _ in report.entries if status == "FAIL"]
    assert len(failed) == 1 and failed[0].startswith("hexagon:"), failed


@pytest.mark.parametrize("indexing", INDEXINGS)
@pytest.mark.parametrize("n_rungs", [1, 2, 3])
def test_gauged_fibonacci_hubbard_spectra_match_the_builtin(n_rungs, indexing):
    params = HubbardParams(t=1.0, mu=0.5, indexing=indexing)
    gauged = orc.vertex_gauge(builtin("fibonacci"), seed=1)
    _, want = hubbard_hamiltonian(n_rungs, params)
    _, got = hubbard_hamiltonian(n_rungs, params, model=gauged)
    for g in gauged.labels:
        a = diagonalize(got, g, want_vector=False).eigenvalues
        b = diagonalize(want, g, want_vector=False).eigenvalues
        assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("name, modes", [("fibonacci", 3), ("fibonacci", 4), ("ising", 3)])
def test_gauged_builtin_verify_prints_the_builtin_lines(name, modes, tmp_path, capsys):
    path = _model_file(tmp_path, orc.vertex_gauge(builtin(name), seed=1))
    for suite in ("closure", "fock", "locality", "relations"):
        outs = []
        for model in (name, path):
            assert main(["verify", "--model", model, "--modes", str(modes), "--suite", suite]) == 0
            outs.append(_RESIDUAL.sub("#", capsys.readouterr().out))
        assert outs[0] == outs[1], suite
