import copy
import json
import re

import numpy as np
import pytest

from anyonladder.model import (
    BUILTIN_MODELS,
    AnyonModel,
    ModelDataError,
    builtin,
    dump_model,
    fuse,
    load_model,
    validate_model,
)

GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


def test_builtins_validate_full():
    for name in BUILTIN_MODELS:
        report = validate_model(builtin(name), level="full")
        assert report.passed, report.format_text()
        assert report.max_residual < 1e-10


def test_fibonacci_structure(fib):
    assert fib.labels == ("e", "tau")
    assert fib.vacuum == 0
    assert fib.fuse(1, 1) == (0, 1)
    assert fuse(fib, "tau", "tau") == ("e", "tau")
    assert np.isclose(fib.quantum_dims[1], GOLDEN)
    assert fib.abelian[0] and not fib.abelian[1]


def test_fibonacci_f_matrix_values(fib):
    inv = 1.0 / GOLDEN
    assert np.isclose(fib.f_entry(1, 1, 1, 1, 0, 0), inv)
    assert np.isclose(fib.f_entry(1, 1, 1, 1, 0, 1), np.sqrt(inv))
    assert np.isclose(fib.f_entry(1, 1, 1, 1, 1, 0), np.sqrt(inv))
    assert np.isclose(fib.f_entry(1, 1, 1, 1, 1, 1), -inv)


def test_vacuum_f_entries_are_trivial(fib, ising):
    for model in (fib, ising):
        e = model.vacuum
        for a in range(model.n_labels):
            for b in range(model.n_labels):
                for c in model.fuse(a, b):
                    assert model.f_entry(e, a, b, c, a, c) == 1.0
                    assert model.f_entry(a, e, b, c, a, b) == 1.0
                    assert model.f_entry(a, b, e, c, c, b) == 1.0


def test_fermion_exchange_sign(fermion):
    assert np.isclose(fermion.r(1, 1, 0), -1.0)


def test_ising_r_values(ising):
    sigma, psi = ising.index("sigma"), ising.index("psi")
    e = ising.vacuum
    assert np.isclose(ising.r(sigma, sigma, e), np.exp(-1j * np.pi / 8))
    assert np.isclose(ising.r(sigma, sigma, psi), np.exp(3j * np.pi / 8))
    assert np.isclose(ising.r(psi, sigma, sigma), -1j)


def test_f_entry_invalid_combination_is_zero(fib):
    assert fib.f_entry(1, 1, 1, 0, 0, 0) == 0.0


def test_r_forbidden_fusion_raises(fib):
    with pytest.raises(ModelDataError):
        fib.r(0, 0, 1)


def test_dump_load_roundtrip():
    for name in BUILTIN_MODELS:
        model = builtin(name)
        clone = load_model(dump_model(model))
        assert clone.labels == model.labels
        assert np.array_equal(clone.fusion, model.fusion)
        assert np.array_equal(clone.F, model.F)
        assert np.array_equal(clone.R, model.R)
        report = validate_model(clone, level="full")
        assert report.passed


def test_mutated_f_sign_is_caught(fib):
    doc = dump_model(fib)
    doc = copy.deepcopy(doc)
    doc["f_symbols"]["tau,tau,tau;tau"][0][1][0] *= -1.0
    broken = load_model(doc)
    report = validate_model(broken, level="full")
    assert not report.passed
    failing = [t.split(": residual=")[0] for status, t, _ in report.entries if status == "FAIL"]
    assert "pentagon" in failing or "f-unitarity" in failing


def test_mutated_r_phase_is_caught(fib):
    doc = copy.deepcopy(dump_model(fib))
    doc["r_symbols"]["tau,tau;e"] = [0.5, 0.5]
    broken = load_model(doc)
    report = validate_model(broken, level="full")
    assert not report.passed


def test_symbol_arrays_are_read_only_and_zero_off_the_fusion_rules():
    for name in BUILTIN_MODELS:
        model = builtin(name)
        n, f = model.n_labels, model.fusion
        assert model.F.shape == (n,) * 6 and model.R.shape == (n,) * 3
        assert model.F.dtype == model.R.dtype == np.complex128
        for arr in (model.F, model.R):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 2.0
        # [F^{abc}_d]_{x,y} needs a x b -> x, x x c -> d, b x c -> y and a x y -> d.
        allowed = np.einsum("abx,xcd,bcy,ayd->abcdxy", f, f, f, f) == 1
        assert np.all(model.F[~allowed] == 0)
        assert np.all(model.R[f == 0] == 0)
        assert np.allclose(np.abs(model.R[f == 1]), 1.0)


def test_forbidden_vacuum_symbols_rejected(fib):
    doc = copy.deepcopy(dump_model(fib))
    doc["f_symbols"]["e,e,tau;e"] = [[[5.0, 0.0]]]
    with pytest.raises(ModelDataError, match="forbidden fusion"):
        load_model(doc)
    doc = copy.deepcopy(dump_model(fib))
    doc["r_symbols"]["e,e;tau"] = [5.0, 0.0]
    with pytest.raises(ModelDataError, match="forbidden fusion"):
        load_model(doc)


@pytest.mark.parametrize("label", ["alpha", "beta", "t,u", "t;u", "t|u", "", " psi"])
def test_unwritable_label_rejected(fermion, label):
    """Such a label would not survive the model, polynomial or operator files;
    both the constructor and ``load_model`` name it."""
    with pytest.raises(ModelDataError, match=re.escape(repr(label))):
        AnyonModel("renamed", ["e", label], "e", {}, [], {}, {})
    doc = json.loads(json.dumps(dump_model(fermion)).replace("psi", label))
    with pytest.raises(ModelDataError, match=re.escape(repr(label))):
        load_model(doc)


def test_fusion_multiplicity_rejected(fib):
    doc = copy.deepcopy(dump_model(fib))
    doc["fusion"].append(["tau", "tau", "e"])
    with pytest.raises(ModelDataError, match="multiplicit"):
        load_model(doc)


def test_unknown_label_rejected(fib):
    with pytest.raises(ModelDataError, match="unknown particle"):
        fib.index("sigma")


def test_conflicting_vacuum_symbol_rejected(fib):
    doc = copy.deepcopy(dump_model(fib))
    doc["f_symbols"]["e,tau,tau;e"] = [[[-1.0, 0.0]]]
    with pytest.raises(ModelDataError, match="gauge fixed"):
        load_model(doc)
    doc["f_symbols"]["e,tau,tau;e"] = [[[1.0, 0.0]]]
    assert validate_model(load_model(doc)).passed


def test_validation_level_basic_skips_pentagon(fib):
    report = validate_model(fib, level="basic")
    names = [t.split(": residual=")[0] for _, t, _ in report.entries]
    assert "pentagon" not in names
    assert report.passed
    with pytest.raises(ValueError):
        validate_model(fib, level="everything")
