import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from anyonladder.basis import FusionTreeBasis, SparseOperator
from anyonladder.ladder import (
    annihilating_element,
    coefficient_tables,
    fermion_annihilator,
    fibonacci_pair,
    identity_ladder,
    j_count,
    j_lower_bound,
    ladder_set,
    _element_family,
    resolver,
    rest_charges,
    transport_to_mode,
)


def _mode1_element(model, n, a, b0, c0, sector=None):
    """The mode-1 element ``a^{b0,c0}_1`` as a one-term family."""
    return _element_family(model, n, a, [(b0, c0, 1.0)], 1, sector)[1]


def _labels(model, *idx):
    return tuple(model.labels[i] for i in idx)


def test_mode1_elements_match_oracle(fib, fermion, ising):
    cases = {
        "fib": (fib, [(1, 0, 1), (1, 1, 0), (1, 1, 1)]),
        "fermion": (fermion, [(1, 0, 1), (1, 1, 0)]),
        "ising": (ising, [(1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 2, 0)]),
    }
    for model, triples in cases.values():
        perm = orc.order_3(model)
        for a, b0, c0 in triples:
            la, lb, lc = _labels(model, a, b0, c0)
            got = annihilating_element(model, 3, la, lb, lc, mode=1).to_dense()
            want = orc.element_oracle_mode1(model, a, b0, c0)[np.ix_(perm, perm)]
            assert np.allclose(got, want, atol=1e-10)


def test_sector_mode1_elements_match_the_loop_on_sector_columns(fib, fermion, ising):
    """Every mode-1 element, built on the columns of its channel ``c0``
    alone, has the CSR bytes of the loop-built element's ``c0`` columns; the
    element on every column has the loop's own bytes."""
    for model, n_max in ((fib, 6), (fermion, 6), (ising, 5)):
        for n in range(1, n_max + 1):
            for a in range(model.n_labels):
                for b0 in rest_charges(model, n):
                    for c0 in model.fuse(a, b0):
                        want = orc.mode1_element_loop(model, n, a, b0, c0)
                        assert orc.csr_bytes(_mode1_element(model, n, a, b0, c0)) == orc.csr_bytes(want)
                        got = _mode1_element(model, n, a, b0, c0, sector=c0)
                        assert got.row_basis.sector is None and got.col_basis.sector == c0
                        idx = np.flatnonzero(want.col_basis.totals() == c0)
                        sliced = SparseOperator(got.row_basis, got.col_basis, want.matrix[:, idx])
                        assert orc.csr_bytes(got) == orc.csr_bytes(sliced), (model.labels, n, a, b0, c0)


def test_element_families_match_the_term_by_term_sum(fib, fermion, ising):
    """Ladder sets, identity ladders, fermion annihilators, the Fibonacci pair
    on every sector and every annihilating element have the CSR bytes of
    ``oracles.element_family_loop``, which adds one element at a time."""
    from anyonladder.model import ModelDataError

    def same(got, want):
        assert got.row_basis.is_compatible(want.row_basis)
        assert got.col_basis.is_compatible(want.col_basis)
        assert orc.csr_bytes(got) == orc.csr_bytes(want)

    for model, n_max in ((fib, 6), (fermion, 6), (ising, 5)):
        e = model.vacuum
        for n in range(1, n_max + 1):
            for particle in model.labels:
                if particle == model.labels[e]:
                    continue
                ops = ladder_set(model, n, particle).ops
                for table in coefficient_tables(model, particle):
                    terms = [(model.index(b0), model.index(c0), coeff)
                             for (b0, c0), coeff in table.entries.items() if coeff != 0.0]
                    want = orc.element_family_loop(model, n, model.index(particle), terms, n)
                    for k, op in want.items():
                        same(ops[(k, table.j)], op)
            identity = orc.element_family_loop(model, n, e, [(b, b, 1.0) for b in range(model.n_labels)], n)
            for k, op in identity.items():
                same(identity_ladder(model, n, k), op)
            if model is fermion:
                psi = 1 - e
                want = orc.element_family_loop(model, n, psi, [(e, psi, 1.0), (psi, e, -1.0)], n)
                for k, op in want.items():
                    same(fermion_annihilator(model, n, k), op)
            if model is fib:
                tau, r = 1 - e, 1.0 / np.sqrt(2.0)
                for sector in (None, e, tau):
                    pair = fibonacci_pair(model, n, sector)
                    for got, terms in ((pair.alpha, [(e, tau, r), (tau, e, 1.0)]),
                                       (pair.beta, [(e, tau, r), (tau, tau, 1.0)])):
                        want = orc.element_family_loop(model, n, tau, terms, n, sector)
                        assert list(got) == list(want)
                        for k, op in want.items():
                            same(got[k], op)
            if n > 4:
                continue
            for a, b0, c0 in itertools.product(range(model.n_labels), repeat=3):
                la, lb, lc = _labels(model, a, b0, c0)
                if c0 not in model.fuse(a, b0) or (n == 1 and b0 != e):
                    with pytest.raises(ModelDataError):
                        annihilating_element(model, n, la, lb, lc)
                    continue
                want = orc.element_family_loop(model, n, a, [(b0, c0, 1.0)], n)
                for k, op in want.items():
                    same(annihilating_element(model, n, la, lb, lc, mode=k), op)


def test_mode2_elements_match_oracle(fib):
    perm = orc.order_3(fib)
    for a, b0, c0 in [(1, 0, 1), (1, 1, 0), (1, 1, 1)]:
        la, lb, lc = _labels(fib, a, b0, c0)
        got = annihilating_element(fib, 3, la, lb, lc, mode=2).to_dense()
        want = orc.element_oracle_mode2(fib, a, b0, c0)[np.ix_(perm, perm)]
        assert np.allclose(got, want, atol=1e-10)


def test_elements_are_nilpotent(fib, ising):
    for model, a in ((fib, "tau"), (ising, "sigma")):
        for b0, c0 in [("e", a), (a, "e")]:
            el = annihilating_element(model, 3, a, b0, c0)
            assert (el @ el).drop().nnz == 0


def test_identity_ladder_is_mode_vacuum_projector(fib):
    ident = identity_ladder(fib, 3, mode=2).to_dense()
    want = np.diag(
        [1.0 if st[(1, 1)] == 0 else 0.0 for st in orc.charge_rows(fib, orc.comb_shape(3))]
    )
    assert np.allclose(ident, want, atol=1e-12)


def test_invalid_element_labels_rejected(fib):
    with pytest.raises(Exception):
        annihilating_element(fib, 3, "tau", "tau", "q")
    # b0 and c0 must both be reachable from a fusion with the particle
    with pytest.raises(ValueError):
        annihilating_element(fib, 3, "e", "tau", "e")


def test_coefficient_table_count_formula(fib, fermion, ising):
    # J = n_a - n + 1 where n_a counts labels b with a in a x b... per model
    assert j_count(fermion, "psi") == 1
    assert j_count(fib, "tau") == 2
    assert j_count(ising, "sigma") == 2
    assert j_lower_bound(fermion, "psi") <= 1
    assert j_lower_bound(fib, "tau") <= 2
    assert j_lower_bound(ising, "sigma") <= 2


def test_fibonacci_tables_are_binary(fib):
    tables = coefficient_tables(fib, "tau")
    assert len(tables) == 2
    seen = set()
    for table in tables:
        assert table.particle == "tau"
        for (b0, c0), value in table.entries.items():
            assert b0 in fib.labels and c0 in fib.labels
            assert value in (0.0, 1.0) or np.isclose(abs(value), 1.0) or np.isclose(value, 0.0)
        seen.add(tuple(sorted((k, complex(v)) for k, v in table.entries.items())))
    # the two tables are genuinely different operators
    assert len(seen) == 2


def test_ladder_set_shape(fib):
    ls = ladder_set(fib, 3, "tau")
    assert ls.j_count == 2
    modes = sorted({k for k, _ in ls.ops})
    js = sorted({j for _, j in ls.ops})
    assert modes == [1, 2, 3]
    assert js == [0, 1]
    for op in ls.ops.values():
        assert (op @ op).drop().nnz == 0  # each ladder operator annihilates twice


def test_single_mode_restriction(fib):
    # with one mode there is no rest: only the b0 = vacuum component survives
    ls = ladder_set(fib, 1, "tau")
    basis = FusionTreeBasis(fib, 1)
    for (k, j), op in ls.ops.items():
        dense = op.to_dense()
        el = annihilating_element(fib, 1, "tau", "e", "tau")
        coeffs = ls.tables[j].entries
        expected = coeffs.get(("e", "tau"), 0.0) * el.to_dense()
        assert np.allclose(dense, expected, atol=1e-12)


def test_transport_is_unitary_equivalence(fib):
    # the mode-k element is a braid conjugate of the mode-1 element:
    # same singular values, same rank
    el1 = annihilating_element(fib, 3, "tau", "tau", "tau", mode=1)
    el3 = annihilating_element(fib, 3, "tau", "tau", "tau", mode=3)
    s1 = np.linalg.svd(el1.to_dense(), compute_uv=False)
    s3 = np.linalg.svd(el3.to_dense(), compute_uv=False)
    assert np.allclose(np.sort(s1), np.sort(s3), atol=1e-10)


def test_transport_to_mode_matches_direct(fib):
    el1 = annihilating_element(fib, 4, "tau", "tau", "e", mode=1)
    moved = transport_to_mode(el1, 3)
    direct = annihilating_element(fib, 4, "tau", "tau", "e", mode=3)
    assert np.allclose(moved.to_dense(), direct.to_dense(), atol=1e-10)


def test_fermion_composite_is_canonical(fermion):
    # f_k = psi_k^{e,psi} - psi_k^{psi,e} satisfies the fermionic algebra
    n = 3
    basis = FusionTreeBasis(fermion, n)
    eye = np.eye(basis.dim)
    fs = []
    for k in range(1, n + 1):
        f = (
            annihilating_element(fermion, n, "psi", "e", "psi", mode=k)
            + (-1.0) * annihilating_element(fermion, n, "psi", "psi", "e", mode=k)
        )
        fs.append(f.to_dense())
    for i in range(n):
        for j in range(n):
            anti = fs[i] @ fs[j] + fs[j] @ fs[i]
            assert np.allclose(anti, 0.0, atol=1e-10)
            mixed = fs[i] @ fs[j].conj().T + fs[j].conj().T @ fs[i]
            assert np.allclose(mixed, eye if i == j else 0.0, atol=1e-10)


def test_single_mode_fermion_annihilator(fermion):
    """One mode has no rest charge psi, so f_1 is psi^{e,psi} alone."""
    f = fermion_annihilator(fermion, 1)
    assert f.allclose(annihilating_element(fermion, 1, "psi", "e", "psi"), tol=0.0)
    anti = (f @ f.dagger() + f.dagger() @ f).to_dense()
    assert np.array_equal(anti, np.eye(2))


def test_fibonacci_pair_composition(fib):
    n = 3
    pair = fibonacci_pair(fib, n)
    el = lambda b0, c0, k: annihilating_element(fib, n, "tau", b0, c0, mode=k).to_dense()
    for k in range(1, n + 1):
        alpha = el("e", "tau", k) / np.sqrt(2.0) + el("tau", "e", k)
        beta = el("e", "tau", k) / np.sqrt(2.0) + el("tau", "tau", k)
        assert np.allclose(pair.alpha[k].to_dense(), alpha, atol=1e-12)
        assert np.allclose(pair.beta[k].to_dense(), beta, atol=1e-12)


def test_occupation_projector_diagonal(fib):
    # alpha^dagger alpha + beta^dagger beta is the occupation of the mode:
    # diagonal in the canonical basis with eigenvalues {0, 1}
    n = 2
    pair = fibonacci_pair(fib, n)
    states = orc.charge_rows(fib, orc.comb_shape(n))
    for k in (1, 2):
        num = (
            pair.alpha[k].dagger() @ pair.alpha[k]
            + pair.beta[k].dagger() @ pair.beta[k]
        ).to_dense()
        off = num - np.diag(np.diag(num))
        assert np.allclose(off, 0.0, atol=1e-12)
        eigs = np.real(np.diag(num))
        assert np.allclose(np.unique(np.round(eigs, 9)), [0.0, 1.0])
        # occupied exactly when the mode leaf carries the particle
        for i, st in enumerate(states):
            leaf = st[(k - 1, k - 1)]
            assert np.isclose(eigs[i], 1.0 if leaf == 1 else 0.0, atol=1e-12)


def test_ladder_resolver_round_trip(fib):
    from anyonladder.polynomial import GeneratorSymbol

    ls = ladder_set(fib, 2, "tau")
    resolve = resolver(fib, 2)
    sym = GeneratorSymbol(1, "std", "tau", 0, False)
    assert resolve(sym).allclose(ls.op(1, 0))

    # one resolver serves std and pair symbols on the same (model, n)
    n = 3
    resolve = resolver(fib, n)
    ls = ladder_set(fib, n, "tau")
    pair = fibonacci_pair(fib, n)
    for k in range(1, n + 1):
        for j in range(ls.j_count):
            got = resolve(GeneratorSymbol(k, "std", "tau", j, False))
            assert (got - ls.op(k, j)).norm_max() == 0.0
        for family, ops in (("alpha", pair.alpha), ("beta", pair.beta)):
            got = resolve(GeneratorSymbol(k, "pair", family, 0, False))
            assert (got - ops[k]).norm_max() == 0.0
    for kind, particle in (("std", "tau"), ("pair", "alpha")):
        with pytest.raises(ValueError, match="undaggered"):
            resolve(GeneratorSymbol(1, kind, particle, 0, True))
    with pytest.raises(KeyError):
        resolve(GeneratorSymbol(1, "pair", "gamma", 0, False))
    # each ladder set is built once per (model, n) and then served from the cache
    sym = GeneratorSymbol(2, "std", "tau", 1, False)
    assert resolve(sym) is resolve(sym)
    assert resolver(fib, n)(sym) is resolve(sym)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([("e", "tau"), ("tau", "e"), ("tau", "tau")]),
    st.integers(min_value=1, max_value=3),
)
def test_element_charge_shift(pair, mode):
    from anyonladder.model import builtin

    model = builtin("fibonacci")
    b0, c0 = pair
    el = annihilating_element(model, 3, "tau", b0, c0, mode=mode)
    basis = el.row_basis
    tot = basis.totals()
    rows, cols = el.matrix.nonzero()
    for r, c in zip(rows, cols):
        assert model.labels[tot[c]] == c0  # acts only on total charge c0
        assert model.labels[tot[r]] == b0  # and lands in total charge b0
