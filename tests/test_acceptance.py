"""Acceptance gate: nine criteria, each printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion also asserts its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles as orc
from anyonladder.algebra import (
    algebra_closure,
    apply_word,
    decompose_observable,
    fock_words,
    kernel_dimension,
    mode_relabel_unitary,
    observable_basis,
    vacuum_index,
    verify_relations,
)
from anyonladder.basis import FusionTreeBasis, SparseOperator, total_charge_projector
from anyonladder.fixtures import fixture, fixture_names
from anyonladder.hubbard import (
    HubbardParams,
    build_lattice,
    diagonalize,
    hubbard_hamiltonian,
)
from anyonladder.ladder import (
    annihilating_element,
    coefficient_tables,
    fermion_annihilator,
    j_count,
    ladder_set,
    resolver,
)
from anyonladder.model import builtin, dump_model, load_model, validate_model


@contextmanager
def _criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget
    print(
        f"criterion {num} ({name}): {'PASS' if within else 'FAIL'} "
        f"({elapsed:.2f}s / {budget:.0f}s budget)"
    )
    assert within, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_fermion_anchor():
    with _criterion(1, "fermion anticommutation anchor", budget=1.0):
        fer = builtin("fermion")
        for n in (2, 3, 4):
            basis = FusionTreeBasis(fer, n)
            eye = np.eye(basis.dim)
            fs = [fermion_annihilator(fer, n, k) for k in range(1, n + 1)]
            worst = 0.0
            for i in range(n):
                for j in range(n):
                    worst = max(worst, (fs[i] @ fs[j] + fs[j] @ fs[i]).norm_max())
                    cross = (fs[i] @ fs[j].dagger() + fs[j].dagger() @ fs[i]).to_dense()
                    if i == j:
                        cross = cross - eye
                    worst = max(worst, float(np.abs(cross).max()))
            assert worst < 1e-10, f"CAR residual {worst:.3e} at {n} modes"
        # the two-mode annihilator is exactly the signed element combination
        f2 = fermion_annihilator(fer, 3, 2)
        signed = annihilating_element(fer, 3, "psi", "e", "psi", 2) + (
            -1.0
        ) * annihilating_element(fer, 3, "psi", "psi", "e", 2)
        assert (f2 + (-1.0) * signed).norm_max() == 0.0


def test_criterion_2_coefficient_tables():
    with _criterion(2, "coefficient tables and J-count", budget=1.0):
        fib, fer, ising = builtin("fibonacci"), builtin("fermion"), builtin("ising")
        tables = coefficient_tables(fib, "tau")
        assert len(tables) == 2
        assert {k: v.real for k, v in tables[0].entries.items()} == {
            ("e", "tau"): 1.0,
            ("tau", "e"): 1.0,
            ("tau", "tau"): 0.0,
        }
        assert {k: v.real for k, v in tables[1].entries.items()} == {
            ("e", "tau"): 1.0,
            ("tau", "e"): 0.0,
            ("tau", "tau"): 1.0,
        }
        for model, particle, want in ((fer, "psi", 1), (fib, "tau", 2), (ising, "sigma", 2)):
            got = j_count(model, particle)
            assert got == want
            a = model.index(particle)
            n_a = sum(len(model.fuse(a, b)) for b in range(model.n_labels))
            assert got == n_a - model.n_labels + 1


def test_criterion_3_recoupling_elements():
    with _criterion(3, "diagrammatic recoupling elements", budget=5.0):
        fib = builtin("fibonacci")
        perm = orc.order_3(fib)
        for a, b0, c0 in ((1, 0, 1), (1, 1, 0), (1, 1, 1)):
            la, lb, lc = (fib.labels[i] for i in (a, b0, c0))
            got1 = annihilating_element(fib, 3, la, lb, lc, 1).to_dense()
            want1 = orc.element_oracle_mode1(fib, a, b0, c0)[np.ix_(perm, perm)]
            assert np.abs(got1 - want1).max() < 1e-10
            got2 = annihilating_element(fib, 3, la, lb, lc, 2).to_dense()
            want2 = orc.element_oracle_mode2(fib, a, b0, c0)[np.ix_(perm, perm)]
            assert np.abs(got2 - want2).max() < 1e-10


def test_criterion_4_relation_suite():
    with _criterion(4, "asserted relation families", budget=10.0):
        fib = builtin("fibonacci")
        for n in (1, 2, 3):
            report = verify_relations(fib, n)
            assert report.passed
            assert report.max_residual < 1e-10
            assert sum(r is not None for _, _, r in report.entries) == 6 * n
            notes = [t for status, t, _ in report.entries if status == "info"]
            completeness = [t for t in notes if t.startswith("completeness")]
            assert len(completeness) == n
            assert all("residual=" in text for text in completeness)
            if n >= 2:
                support = [t for t in notes if t.startswith("support")]
                assert support and all("disjoint=" in text for text in support)


def test_criterion_5_decomposition_round_trip():
    with _criterion(5, "local observable decomposition", budget=60.0):
        fib = builtin("fibonacci")
        n = 3
        rng = np.random.default_rng(2026)
        pairs, ops = observable_basis(fib, n, 2)
        u = mode_relabel_unitary(fib, n, (1, 3))
        resolve = resolver(fib, n)
        ident = SparseOperator.identity(FusionTreeBasis(fib, n))

        def random_observable():
            acc = SparseOperator.zero(FusionTreeBasis(fib, n))
            for op in ops:
                acc = acc + complex(rng.normal(), rng.normal()) * op
            return (0.5 * (acc + acc.dagger())).drop()

        worst_front = 0.0
        for _ in range(200):
            op = random_observable()
            dec = decompose_observable(op, (1, 2))
            worst_front = max(worst_front, dec.eval_residual)
        assert worst_front < 1e-9, f"modes {{1,2}} residual {worst_front:.3e}"

        worst_split = 0.0
        for _ in range(200):
            op = (u.dagger() @ random_observable() @ u).drop()
            dec = decompose_observable(op, (1, 3))
            worst_split = max(worst_split, dec.eval_residual)
            assert {s.mode for _, w in dec.polynomial.terms for s in w} <= {1, 3}
        assert worst_split < 1e-9, f"modes {{1,3}} residual {worst_split:.3e}"

        worst_corpus = 0.0
        for name in fixture_names():
            dec = decompose_observable(fixture(name), (1, 2))
            evaluated = dec.polynomial.evaluate_with_identity(resolve, ident)
            worst_corpus = max(worst_corpus, (evaluated - fixture(name)).norm_max())
        assert worst_corpus < 1e-10, f"corpus residual {worst_corpus:.3e}"


def test_criterion_6_fock_completeness():
    with _criterion(6, "Fock-word completeness", budget=10.0):
        fib = builtin("fibonacci")
        basis = FusionTreeBasis(fib, 3)
        words = fock_words(fib, 3)
        assert len(words) == 13 == basis.dim
        for idx, (scalar, word) in words.items():
            vec = apply_word(fib, 3, scalar, word)
            want = np.zeros(basis.dim, dtype=complex)
            want[idx] = 1.0
            assert np.abs(vec - want).max() < 1e-10
        for n in (1, 2, 3, 4):
            nb = FusionTreeBasis(fib, n)
            vac = np.zeros(nb.dim, dtype=complex)
            vac[vacuum_index(nb)] = 1.0
            ls = ladder_set(fib, n, "tau")
            for op in ls.ops.values():
                assert np.abs(op.apply(vac)).max() < 1e-12
        assert kernel_dimension(fib, 2) == 1
        assert kernel_dimension(fib, 3) == 1


def test_criterion_7_generator_completeness():
    with _criterion(7, "generator completeness", budget=60.0):
        fib = builtin("fibonacci")
        ls = ladder_set(fib, 3, "tau")
        gens = [op for _key, op in sorted(ls.ops.items())]
        closure = algebra_closure(gens)
        oracle = orc.closure_dimension_bruteforce([g.to_dense() for g in gens])
        assert closure.dimension == oracle
        mode1 = algebra_closure([op for (k, _j), op in sorted(ls.ops.items()) if k == 1])
        assert mode1.dimension == 13


def test_criterion_8_hubbard_structure():
    with _criterion(8, "Hubbard Hamiltonian structure", budget=120.0):
        rng = np.random.default_rng(4)
        for n_rungs in (1, 2, 3):
            n_modes = 2 * n_rungs
            occupations = orc.occupation_multiset(builtin("fibonacci"), n_modes)
            for _ in range(5):
                t = float(rng.uniform(0.2, 1.5))
                mu = float(rng.uniform(-1.0, 1.0))
                spec, h = hubbard_hamiltonian(n_rungs, HubbardParams(t, mu))
                model = h.row_basis.model
                assert (h + (-1.0) * h.dagger()).norm_max() < 1e-12
                counts = orc.path_counts(model, n_modes)
                for g in model.labels:
                    p = total_charge_projector(model, n_modes, g)
                    assert (h @ p - p @ h).norm_max() < 1e-12
                    block = diagonalize(h, g, want_vector=False)
                    assert block.block_dim == counts[model.index(g)]
                # zero hopping: the spectrum is -mu times the occupation counts
                _, h0 = hubbard_hamiltonian(n_rungs, HubbardParams(0.0, mu))
                eigs = np.real(np.diag(h0.to_dense()))
                histogram: dict[int, int] = {}
                for value in eigs:
                    occ = int(round(-value / mu)) if mu != 0.0 else 0
                    assert abs(value - (-mu) * occ) < 1e-12
                    histogram[occ] = histogram.get(occ, 0) + 1
                if mu != 0.0:
                    assert histogram == occupations
            if n_rungs == 2:
                assert {
                    g: counts[model.index(g)] for g in model.labels
                } == {"e": 13, "tau": 21}

        # indexing conventions: identical spectra whenever the edge sets
        # coincide (one rung); explicit comparison where they differ
        for n_rungs in (1, 2, 3):
            same_edges = (
                build_lattice(n_rungs, "geometric").edge_pairs()
                == build_lattice(n_rungs, "paper").edge_pairs()
            )
            _, hg = hubbard_hamiltonian(n_rungs, HubbardParams(1.0, 0.5, "geometric"))
            _, hp = hubbard_hamiltonian(n_rungs, HubbardParams(1.0, 0.5, "paper"))
            gap = 0.0
            for g in ("e", "tau"):
                eg = np.sort(diagonalize(hg, g, want_vector=False).eigenvalues)
                ep = np.sort(diagonalize(hp, g, want_vector=False).eigenvalues)
                gap = max(gap, float(np.abs(eg - ep).max()))
            if same_edges:
                assert n_rungs == 1
                assert gap < 1e-12
            else:
                print(
                    f"  [info] N={n_rungs}: rung conventions give different edge "
                    f"sets; spectral max |difference| = {gap:.3e}"
                )


def test_criterion_9_model_validation():
    with _criterion(9, "model data validation", budget=5.0):
        import copy

        for name in ("fibonacci", "fermion", "ising"):
            report = validate_model(builtin(name), level="full")
            assert report.passed
            residuals = {t.split(": residual=")[0]: r for _, t, r in report.entries}
            assert residuals["pentagon"] < 1e-10
            assert residuals["hexagon"] < 1e-10
        doc = copy.deepcopy(dump_model(builtin("fibonacci")))
        doc["f_symbols"]["tau,tau,tau;tau"][0][1][0] *= -1.0
        broken = load_model(doc)
        assert not validate_model(broken, level="full").passed
