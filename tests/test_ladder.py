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
    fermion_type,
    fibonacci_pair,
    fibonacci_type,
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


@pytest.mark.parametrize("name, n_max", [
    ("fibonacci", 8), ("ising", 6), ("fermion", 8), ("z3", 4), ("su2_3", 4), ("gauged fibonacci", 4),
])
def test_every_mode_matches_the_closed_form(name, n_max):
    """Every mode of every ladder set, identity ladder, fermion annihilator and
    Fibonacci pair sector is ``oracles.ladder_closed_form``'s head table times
    F-string to 1e-14: no recoupling, braid or package gather is involved.  The
    gauged theory has complex F- and R-symbols, so it also checks that the
    string and the head are conjugated."""
    from anyonladder.model import builtin

    model = {"z3": lambda: orc.z_n(3), "su2_3": lambda: orc.su2_k(3),
             "gauged fibonacci": lambda: orc.vertex_gauge(builtin("fibonacci"), 3)}.get(name, lambda: builtin(name))()
    e = model.vacuum

    def close(got, a, terms, k, sector=None):
        want = orc.ladder_closed_form(model, n, a, terms, k, sector)
        assert got.matrix.shape == want.shape
        diff = got.matrix - want
        assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-14, (name, n, a, terms, k, sector)

    for n in range(1, n_max + 1):
        for a in range(model.n_labels):
            if a == e:
                continue
            ladders = ladder_set(model, n, model.labels[a])
            for table in ladders.tables:
                terms = [(model.index(b0), model.index(c0), coeff)
                         for (b0, c0), coeff in table.entries.items() if coeff != 0.0]
                for k in range(1, n + 1):
                    close(ladders.op(k, table.j), a, terms, k)
        for k in range(1, n + 1):
            close(identity_ladder(model, n, k), e, [(b, b, 1.0) for b in range(model.n_labels)], k)
        if fermion_type(model) is not None:
            psi = fermion_type(model)
            for k in range(1, n + 1):
                close(fermion_annihilator(model, n, k), psi, [(e, psi, 1.0), (psi, e, -1.0)], k)
        if fibonacci_type(model) is not None:
            tau, r = fibonacci_type(model), 1.0 / np.sqrt(2.0)
            for sector in (None, e, tau):
                pair = fibonacci_pair(model, n, sector)
                for ops, terms in ((pair.alpha, [(e, tau, r), (tau, e, 1.0)]),
                                   (pair.beta, [(e, tau, r), (tau, tau, 1.0)])):
                    for k, op in ops.items():
                        close(op, tau, terms, k, sector)


def test_ladder_builds_call_no_recoupling(monkeypatch):
    """On a fresh model, no ladder-set, pair, identity-ladder, fermion or
    element build recouples the basis: the mode-1 sums are gathered."""
    import anyonladder
    from anyonladder.model import builtin, dump_model, load_model

    def refuse(*args, **kwargs):
        raise AssertionError("the ladder path recoupled the basis")

    for module in vars(anyonladder).values():
        for name in ("recouple", "_recouple", "_factored_states"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for name in ("fibonacci", "ising", "fermion"):
        model = load_model(dump_model(builtin(name)))
        e = model.labels[model.vacuum]
        for n in range(1, 6):
            for particle in model.labels:
                if particle != e:
                    ladder_set(model, n, particle)
                    annihilating_element(model, n, particle, e, particle, mode=n)
            identity_ladder(model, n, n)
            if fermion_type(model) is not None:
                fermion_annihilator(model, n, n)
            if fibonacci_type(model) is not None:
                for sector in (None, "e", "tau"):
                    fibonacci_pair(model, n, sector)


def test_over_factor_is_the_braid_product(fib, ising):
    """``_over`` has the CSR bytes of ``braid_adjacent(model, n, k) @ op``,
    both where it relabels (a ladder operator of mode ``k``, whose rows hold
    the vacuum on leaf ``k``) and where it multiplies (any other mode, and
    the adjoints)."""
    from anyonladder.basis import braid_adjacent
    from anyonladder.ladder import _over

    n = 4
    for model in (fib, ising):
        for particle in model.labels[1:]:
            for op in ladder_set(model, n, particle).ops.values():
                for x in (op, op.dagger()):
                    for k in range(1, n):
                        assert orc.csr_bytes(_over(x, k)) == orc.csr_bytes(braid_adjacent(model, n, k) @ x)


def test_under_blocks_are_memoised_adjoints(fib):
    """The transport's ``under`` factor is the memoised ``under`` braid on the
    whole basis, and one memoised adjoint of the ``over`` braid's block per
    sector, built from the sector's rows with the full braid's block bytes."""
    from anyonladder.basis import _sector_block, braid_adjacent
    from anyonladder.ladder import _under

    n = 5
    for k in range(1, n):
        assert _under(fib, n, k, None) is braid_adjacent(fib, n, k, "under")
        for g in range(fib.n_labels):
            got = _under(fib, n, k, g)
            assert got is _under(fib, n, k, g)
            want = _sector_block(braid_adjacent(fib, n, k), FusionTreeBasis(fib, n, g)).dagger()
            assert got.row_basis.is_compatible(want.row_basis)
            assert orc.csr_bytes(got) == orc.csr_bytes(want)


def _relabel_residual(model, n):
    """Largest entry of ``U^dagger a_k U - a_{s_k}`` over every region ``S``
    of ``n`` modes, every ladder-set operator and every ``k <= |S|``, with
    ``U = mode_relabel_unitary(model, n, S)``: the under-crossings that pull
    ``S`` to the front relabel the braid-transported family."""
    from anyonladder.algebra import mode_relabel_unitary

    ops = [ladder_set(model, n, p).ops for p in model.labels if p != model.labels[model.vacuum]]
    worst = 0.0
    for m in range(1, n + 1):
        for region in itertools.combinations(range(1, n + 1), m):
            u = mode_relabel_unitary(model, n, region)
            for family in ops:
                for (k, j), op in family.items():
                    if k <= m:
                        moved = (u.dagger() @ op @ u - family[(region[k - 1], j)]).norm_max()
                        worst = max(worst, moved)
    return worst


@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_mode_relabelling_moves_every_ladder_operator(name):
    from anyonladder.model import builtin

    model = builtin(name)
    for n in range(1, 5):
        assert _relabel_residual(model, n) <= 1e-12, (name, n)


def test_a_one_sense_braid_mutant_fails_the_braid_checks(monkeypatch):
    """R conjugated in the ``over`` braids only, the ``under`` braids built from
    the true R (conjugating both senses gives the mirror theory, which no check
    can tell apart).  ``over @ under`` is then no identity and ``over`` leaves
    the state-loop oracle, on Fibonacci and Ising.  The ladder families do not
    move: each ``over`` of the transport braids the vacuum that the element
    left on the moved leaf, so only the true ``under`` acts on a particle."""
    from anyonladder import basis, ladder
    from anyonladder.model import builtin, dump_model, load_model

    true_braid = basis.braid_adjacent
    mirrors = {}

    def mutant(model, n, k, sense="over"):
        if sense == "under":
            return true_braid(model, n, k, "over").dagger()
        mat = true_braid(mirrors[id(model)], n, k, "over").matrix
        return SparseOperator(FusionTreeBasis(model, n), FusionTreeBasis(model, n), mat)

    monkeypatch.setattr(basis, "braid_adjacent", mutant)
    monkeypatch.setattr(ladder, "braid_adjacent", mutant)
    n = 3
    for name in ("fibonacci", "ising"):
        doc = dump_model(builtin(name))
        model = load_model(doc)
        doc["r_symbols"] = {key: [re, -im] for key, (re, im) in doc["r_symbols"].items()}
        mirrors[id(model)] = load_model(doc)
        eye = SparseOperator.identity(FusionTreeBasis(model, n))
        for k in range(1, n):
            assert (basis.braid_word(model, n, [(k, "over"), (k, "under")]) - eye).norm_max() > 0.1
            assert (mutant(model, n, k) - orc.braid_adjacent_loop(model, n, k)).norm_max() > 0.1
        for particle in model.labels[1:]:
            true_ops = ladder_set(builtin(name), n, particle).ops
            for key, op in ladder_set(model, n, particle).ops.items():
                assert orc.csr_bytes(op) == orc.csr_bytes(true_ops[key]), (name, particle, key)
        assert _relabel_residual(model, n) <= 1e-12


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
