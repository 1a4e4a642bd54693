"""Theories beyond the builtins: Z_N and SU(2)_k from closed-form data, a
subtheory of SU(2)_3, and builtins under a random vertex gauge transform,
which must give the same physics."""

import json
import re

import numpy as np
import pytest

import oracles as orc
from anyonladder.algebra import kernel_dimension
from anyonladder.cli import main
from anyonladder.hubbard import INDEXINGS, HubbardParams, diagonalize, hubbard_hamiltonian
from anyonladder.ladder import j_count
from anyonladder.model import builtin, dump_model, load_model, validate_model

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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_su2_k_validates(k):
    report = validate_model(orc.su2_k(k), level="full")
    assert report.passed, report.format_text()


@pytest.mark.parametrize("k", [3, 4])
def test_su2_k_with_transposed_f_fails_the_pentagon(k):
    """The F-symbols' [e, f] order is pinned: transposing every block of
    SU(2)_k breaks the pentagon for k >= 3."""
    doc = dump_model(orc.su2_k(k))
    doc["f_symbols"] = {key: [list(col) for col in zip(*rows)]
                        for key, rows in doc["f_symbols"].items()}
    report = validate_model(load_model(doc))
    failed = [text for status, text, _ in report.entries if status == "FAIL"]
    assert any(text.startswith("pentagon:") for text in failed), failed


def test_verify_all_passes_on_su2_3(tmp_path, capsys):
    path = _model_file(tmp_path, orc.su2_k(3))
    code = main(["verify", "--model", path, "--modes", "2", "--suite", "all"])
    assert code == 0, capsys.readouterr().out


def _su2_j_counts(k):
    """Spin m/2 fuses with spin l/2 in min(m, l, k - m, k - l) + 1 channels of
    SU(2)_k, so it has that sum over l, minus the k + 1 labels, plus 1 operators."""
    return {f"j{m}": sum(min(m, l, k - m, k - l) + 1 for l in range(k + 1)) - k
            for m in range(1, k + 1)}


@pytest.mark.parametrize("model, n_modes, counts", [
    (orc.z_n(3), 3, {"1": 1, "2": 1}),
    (orc.z_n(4), 2, {"1": 1, "2": 1, "3": 1}),
    (orc.su2_k(2), 3, _su2_j_counts(2)),
    (orc.su2_k(3), 3, _su2_j_counts(3)),
    (orc.su2_k(4), 2, _su2_j_counts(4)),
], ids=["Z3-3", "Z4-2", "SU2_2-3", "SU2_3-3", "SU2_4-2"])
def test_j_counts_and_the_joint_kernel(model, n_modes, counts):
    """Every particle's operator count, and the annihilators' joint kernel:
    the vacuum alone."""
    assert {label: j_count(model, label) for label in model.labels[1:]} == counts
    assert kernel_dimension(model, n_modes) == orc.kernel_dimension_svd(model, n_modes, 1e-10) == 1


@pytest.mark.parametrize("indexing", INDEXINGS)
@pytest.mark.parametrize("n_rungs", [1, 2, 3])
def test_su2_3_fibonacci_subtheory_hubbard_spectra_match_the_builtin(n_rungs, indexing):
    """The {j0, j2} subtheory of SU(2)_3 is Fibonacci in another gauge; each
    sector, built on its own, has the builtin's spectrum.  Hops are
    off-diagonal in the leaves, so the spectrum sums to -mu times the
    occupied leaves of the sector's states, counted by brute force."""
    params = HubbardParams(t=1.0, mu=0.5, indexing=indexing)
    sub = orc.subtheory(orc.su2_k(3), ["j0", "j2"])
    n = 2 * n_rungs
    states = orc.charge_rows(sub, orc.comb_shape(n))
    for g in range(2):
        _, want = hubbard_hamiltonian(n_rungs, params, sector=g)
        _, got = hubbard_hamiltonian(n_rungs, params, model=sub, sector=g)
        a = diagonalize(got, g, want_vector=False).eigenvalues
        b = diagonalize(want, g, want_vector=False).eigenvalues
        assert np.abs(a - b).max() < 1e-12
        occupied = sum(st[(p, p)] != sub.vacuum
                       for st in states if st[(0, n - 1)] == g for p in range(n))
        assert abs(a.sum() + params.mu * occupied) < 1e-10


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
