import numpy as np
import pytest

import oracles as orc
from anyonladder.algebra import (
    _product_frame,
    _word_cache,
    abelian_sum_polynomial,
    algebra_closure,
    apply_word,
    candidate_local_basis,
    decompose_observable,
    element_polynomial,
    fock_word,
    fock_words,
    is_local_candidate,
    kernel_dimension,
    local_candidate_span,
    mode_relabel_unitary,
    o_polynomial,
    observable_basis,
    region_states,
    system_totals,
    vacuum_index,
    verify_relations,
)
from anyonladder.basis import (
    FusionTreeBasis,
    SparseOperator,
    braid_adjacent,
    total_charge_projector,
)
from anyonladder.ladder import (
    annihilating_element,
    fibonacci_pair,
    ladder_set,
    resolver,
    rest_charges,
)
from anyonladder.model import ModelDataError, builtin, dump_model, load_model
from anyonladder.polynomial import LadderPolynomial


def _rank(ops, tol=1e-10):
    stack = np.stack([o.to_dense().ravel() for o in ops])
    s = np.linalg.svd(stack, compute_uv=False)
    return int((s > tol * s.max()).sum())


def _identity(model, n):
    return SparseOperator.identity(FusionTreeBasis(model, n))


# ---------------------------------------------------------------------------
# Spanning sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, count", [("fibonacci", 13), ("ising", 34), ("fermion", 8)])
def test_candidate_basis_thirteen_independent_elements(name, count):
    model = builtin(name)
    elems = candidate_local_basis(model, 3)
    assert len(elems) == count
    assert _rank([op for _m, op in elems]) == count
    # metadata labels are model labels
    for meta, _op in elems:
        assert set(meta) == {"a", "a_prime", "b0", "d", "d_prime"}
        assert all(v in model.labels for v in meta.values())


def test_candidate_span_dimensions(fib):
    for m, want in ((1, 13), (2, 89), (3, 169)):
        metas, ops = local_candidate_span(fib, 3, m)
        assert len(ops) == want
        assert _rank(ops) == want


def test_observable_basis_counts(fib):
    pairs, ops = observable_basis(fib, 3, 2)
    assert len(ops) == 13  # 2 charge-e states and 3 charge-tau states: 4 + 9
    assert _rank(ops) == 13
    for (x, xp), op in zip(pairs, ops):
        assert x.charge == xp.charge
        assert op.is_charge_diagonal()
    pairs1, ops1 = observable_basis(fib, 3, 1)
    assert len(ops1) == 2


def test_observable_basis_projector_structure(fib):
    pairs, ops = observable_basis(fib, 3, 2)
    lookup = {(x.index, xp.index): op for (x, xp), op in zip(pairs, ops)}
    for (i, j), op in lookup.items():
        # E_{x,x'}^dagger = E_{x',x} and E_{x,x} idempotent
        assert op.dagger().allclose(lookup[(j, i)])
        if i == j:
            assert (op @ op).allclose(op)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_candidates_commute_with_complement(name, m):
    model = builtin(name)
    comp = orc.complement_observable_basis(model, 3, m)
    assert comp
    _metas, candidates = local_candidate_span(model, 3, m)
    worst = 0.0
    for a in candidates:
        for t in comp:
            worst = max(worst, (a @ t - t @ a).norm_max())
    assert worst < 1e-12


@pytest.mark.parametrize(
    "name, n, m, want",
    [
        ("fibonacci", 3, 1, 13),
        ("ising", 2, 1, 34),
        ("fermion", 3, 1, 8),
        ("fibonacci", 3, 2, 89),
        ("fermion", 3, 2, 32),
    ],
)
def test_candidate_span_is_the_complement_commutant(name, n, m, want):
    """The candidate span lies in the commutant of the complement
    observables and has its dimension, so the two spaces are equal."""
    model = builtin(name)
    _metas, span = local_candidate_span(model, n, m)
    comps = orc.complement_observable_basis(model, n, m)
    assert max((a @ c - c @ a).norm_max() for a in span for c in comps) < 1e-12
    assert orc.commutant_dimension(model, n, m) == want
    assert len(span) == want


@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_observable_basis_sums_candidate_span(name):
    """``E_{x,x'}`` is the sum over ``b0`` and ``G`` of the span elements
    ``sum_{y: b0} |x,y;G><x',y;G|``."""
    model = builtin(name)
    for n in range(1, 5):
        for m in range(1, n + 1):
            metas, span = local_candidate_span(model, n, m)
            sums = {}
            for meta, el in zip(metas, span):
                if meta["G"] == meta["Gp"]:
                    key = (meta["x"], meta["xp"])
                    sums[key] = sums[key] + el if key in sums else el
            region_keys = FusionTreeBasis(model, m).states
            pairs, ops = observable_basis(model, n, m)
            for (x, xp), op in zip(pairs, ops):
                total = sums[(region_keys[x.index], region_keys[xp.index])]
                assert (total - op).norm_max() < 1e-12, (n, m, x, xp)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_mode1_elements_are_span_elements(name):
    """``a^{b0,c0}`` is the span element ``sum_{y: b0} |e,y;b0><a,y;c0|``, bit for bit."""
    model = builtin(name)
    labels, e = model.labels, model.vacuum
    for n in range(1, 5):
        metas, span = local_candidate_span(model, n, 1)
        by_meta = {
            (meta["b0"], meta["x"], meta["G"], meta["xp"], meta["Gp"]): el
            for meta, el in zip(metas, span)
        }
        for a in range(model.n_labels):
            for b0 in rest_charges(model, n):
                for c0 in model.fuse(a, b0):
                    el = annihilating_element(model, n, labels[a], labels[b0], labels[c0])
                    ref = by_meta[(labels[b0], (e,), b0, (a,), c0)]
                    assert el.matrix.shape == ref.matrix.shape
                    for part in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(el.matrix, part), getattr(ref.matrix, part))


def test_is_local_candidate_flags(fib):
    pair = fibonacci_pair(fib, 3)
    ok, res = is_local_candidate(pair.alpha[1], (1,))
    assert ok and res < 1e-12
    ok, _ = is_local_candidate(pair.alpha[2], (1,))
    assert not ok
    ok, _ = is_local_candidate(pair.alpha[2], (2,))
    assert ok
    ok, _ = is_local_candidate(pair.alpha[2] @ pair.alpha[1], (1, 2))
    assert ok
    el3 = annihilating_element(fib, 3, "tau", "tau", "tau", mode=3)
    ok, _ = is_local_candidate(el3, (3,))
    assert ok
    ok, _ = is_local_candidate(el3, (1, 2))
    assert not ok


def test_mode_relabel_unitary_pulls_region_forward(fib):
    u = mode_relabel_unitary(fib, 3, (1, 3))
    for b0, c0 in (("tau", "tau"), ("e", "tau"), ("tau", "e")):
        el3 = annihilating_element(fib, 3, "tau", b0, c0, mode=3)
        el2 = annihilating_element(fib, 3, "tau", b0, c0, mode=2)
        moved = (u @ el3 @ u.dagger()).drop()
        assert np.allclose(moved.to_dense(), el2.to_dense(), atol=1e-12)


def test_mode_relabel_unitary_validation(fib):
    with pytest.raises(ValueError):
        mode_relabel_unitary(fib, 3, (1, 1))
    with pytest.raises(ValueError):
        mode_relabel_unitary(fib, 3, (0, 2))


def test_mode_relabel_unitary_accepts_any_spelling_of_the_region(fib):
    """A list, an unsorted tuple and a sorted tuple share one kept unitary."""
    u = mode_relabel_unitary(fib, 3, (1, 3))
    assert mode_relabel_unitary(fib, 3, [3, 1]) is u
    assert mode_relabel_unitary(fib, 3, [1, 3]) is u
    assert np.allclose(u.to_dense(), orc.braid_adjacent_loop(fib, 3, 2, "under").to_dense(), atol=1e-12)


def test_warm_decompose_adds_no_cache_entry(fib):
    """Once a region has been decomposed, its frame, relabelled polynomials
    and relabel unitary are all kept: a second call stores nothing new."""
    rng = np.random.default_rng(4)
    u = mode_relabel_unitary(fib, 3, (2, 3))

    def observable():
        return (u.dagger() @ _random_local_observable(fib, 3, 2, rng) @ u).drop()

    decompose_observable(observable(), [3, 2])
    keys = list(fib._op_cache)
    dec = decompose_observable(observable(), (2, 3))
    assert list(fib._op_cache) == keys
    assert dec.eval_residual <= 1e-10


# ---------------------------------------------------------------------------
# Constructive operators
# ---------------------------------------------------------------------------


def test_o_operator_products_sum_to_observables(fib, fermion, ising):
    n = 3
    for model in (fib, fermion, ising):
        for m in (1, 2):
            pairs, ops = observable_basis(model, n, m)
            diag = {x.index: op for (x, xp), op in zip(pairs, ops) if x.index == xp.index}
            for x in region_states(model, m):
                acc = SparseOperator.zero(FusionTreeBasis(model, n))
                for g in system_totals(model, n, x):
                    o = orc.o_operator(model, n, x.leaves, x.internals, g)
                    acc = acc + o.dagger() @ o
                assert (acc - diag[x.index]).norm_max() < 1e-12


def test_o_polynomial_realizes_o_operator(fib):
    n = 3
    res = resolver(fib, n)
    ident = _identity(fib, n)
    for m in (1, 2):
        for x in region_states(fib, m):
            for g in system_totals(fib, n, x):
                op = orc.o_operator(fib, n, x.leaves, x.internals, g)
                poly = o_polynomial(fib, n, x.leaves, x.internals, g)
                ev = poly.evaluate_with_identity(res, ident)
                assert (ev - op).norm_max() < 1e-12


def test_o_operator_accepts_labels_and_validates(fib):
    a = orc.o_operator(fib, 3, ("tau", "tau"), ("tau",), "tau")
    b = orc.o_operator(fib, 3, (1, 1), (1,), 1)
    assert a.allclose(b)
    with pytest.raises(ValueError, match="internal charges"):
        orc.o_operator(fib, 3, ("tau", "tau"), (), "tau")
    with pytest.raises(ValueError, match="fusion outcome"):
        orc.o_operator(fib, 3, ("e", "e"), ("tau",), "tau")


def test_ising_mixed_weight_factor_has_no_realization(ising):
    # a (psi, sigma) region with the two abelian rests weighted oppositely
    with pytest.raises(ModelDataError, match="abelian rest charges"):
        o_polynomial(ising, 3, (1, 2), (2,), 2)


def test_o_polynomial_rejects_out_of_range_charges(fib):
    # leaves, internals and the total charge, each with an index no label has
    for leaves, internals, g in (((5,), (), 1), ((-1,), (), 1), ((1, 1), (7,), 1),
                                 ((1,), (), 7), ((1,), (), -1)):
        with pytest.raises(ValueError, match="out of range.*e, tau"):
            o_polynomial(fib, 3, leaves, internals, g)


def test_element_polynomial_matches_element(fib):
    res = resolver(fib, 3)
    ident = _identity(fib, 3)
    for b0, c0 in ((1, 0), (1, 1)):
        poly = element_polynomial(fib, 1, 1, b0, c0)
        ev = poly.evaluate_with_identity(res, ident)
        want = annihilating_element(fib, 3, "tau", fib.labels[b0], fib.labels[c0], 1)
        assert (ev - want).norm_max() < 1e-12
    with pytest.raises(ModelDataError, match="abelian"):
        element_polynomial(fib, 1, 1, 0, 1)


def test_abelian_sum_polynomial(fib):
    res = resolver(fib, 3)
    ident = _identity(fib, 3)
    ev = abelian_sum_polynomial(fib, 1, 1).evaluate_with_identity(res, ident)
    want = annihilating_element(fib, 3, "tau", "e", "tau", 1)
    assert (ev - want).norm_max() < 1e-12


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def _random_local_observable(model, n, m, rng):
    pairs, ops = observable_basis(model, n, m)
    acc = SparseOperator.zero(FusionTreeBasis(model, n))
    for op in ops:
        c = rng.normal() + 1j * rng.normal()
        acc = acc + c * op
    return (0.5 * (acc + acc.dagger())).drop()


def test_decompose_round_trip_contiguous(fib):
    rng = np.random.default_rng(11)
    for _ in range(5):
        op = _random_local_observable(fib, 3, 2, rng)
        dec = decompose_observable(op, (1, 2))
        assert dec.span_residual < 1e-10
        assert dec.eval_residual < 1e-9
        ev = dec.polynomial.evaluate_with_identity(
            resolver(fib, 3), _identity(fib, 3)
        )
        assert (ev - op).norm_max() < 1e-9
        assert dec.polynomial.adjoint().signature() == dec.polynomial.signature()


def test_decompose_round_trip_split_region(fib):
    rng = np.random.default_rng(12)
    u = mode_relabel_unitary(fib, 3, (1, 3))
    for _ in range(5):
        front = _random_local_observable(fib, 3, 2, rng)
        op = (u.dagger() @ front @ u).drop()
        dec = decompose_observable(op, (1, 3))
        assert dec.eval_residual < 1e-9
        modes_used = {s.mode for _, word in dec.polynomial.terms for s in word}
        assert modes_used <= {1, 3}
        ev = dec.polynomial.evaluate_with_identity(
            resolver(fib, 3), _identity(fib, 3)
        )
        assert (ev - op).norm_max() < 1e-9


def test_warm_decompose_merges_terms_in_one_pass(fib, monkeypatch):
    """A warm call builds its polynomial with one constructor call (in the
    sum of the region-relabelled frame polynomials), not one per fitted
    column."""
    op = _random_local_observable(fib, 3, 2, np.random.default_rng(5))
    decompose_observable(op, (1, 2))  # builds and caches the product frame
    calls = []
    init = LadderPolynomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LadderPolynomial, "__init__", counting_init)
    dec = decompose_observable(op, (1, 2))
    assert dec.polynomial.n_terms > 100
    assert len(calls) <= 1


def test_cold_frame_makes_no_scipy_matrix_per_word(monkeypatch):
    """A cold frame build stores its words packed: the CSR matrices it makes
    number at most its batched products plus its polynomials, far fewer than
    its words."""
    import scipy.sparse as sp

    from anyonladder import polynomial

    model = load_model(dump_model(builtin("fibonacci")))  # a copy with empty caches
    observable_basis(model, 3, 2)  # operators built outside the word products
    ladder_set(model, 3, "tau")  # the letters' matrices
    batches, matrices = [], []
    kernel, init = polynomial._matmul_batch, sp.csr_matrix.__init__

    def counting_kernel(*args):
        batches.append(None)
        return kernel(*args)

    def counting_init(self, *args, **kwargs):
        matrices.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(polynomial, "_matmul_batch", counting_kernel)
    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    _entries, polys, _stack = _product_frame(model, 3, 2)
    monkeypatch.undo()
    assert len(_word_cache(model, 3)) > 10 * (len(batches) + len(polys))
    assert len(matrices) <= len(batches) + len(polys)


@pytest.mark.parametrize(
    "name, n, m",
    [
        ("fibonacci", 3, 1),
        ("fibonacci", 3, 2),
        ("fibonacci", 3, 3),
        ("fibonacci", 4, 2),
        ("fibonacci", 5, 1),
        ("ising", 3, 1),
        ("ising", 3, 2),
        ("fermion", 4, 2),
    ],
)
def test_product_frame_words_match_recursive_evaluation(name, n, m):
    """A cold frame build fills the shared word cache with the keys and CSR
    bytes of the word-by-word recursion, and its stack has the bytes of the
    recursion's evaluations."""
    model = load_model(dump_model(builtin(name)))  # a copy with empty caches
    _entries, polys, stack = _product_frame(model, n, m)
    resolve, identity = resolver(model, n), _identity(model, n)
    recursive = {}
    columns = [
        orc.evaluate_recursively(poly, resolve, recursive, identity).to_dense().ravel()
        for poly in polys
    ]
    batched = _word_cache(model, n)
    assert batched.keys() == recursive.keys()
    assert all(
        orc.csr_bytes(orc.cached_word(batched, w)) == orc.csr_bytes(recursive[w]) for w in recursive
    )
    assert np.stack(columns, axis=1).tobytes() == stack.tobytes()


def test_decompose_identity_short_circuit(fib):
    op = 2.5 * _identity(fib, 3)
    dec = decompose_observable(op, (1, 2))
    assert dec.coefficients == {}
    assert dec.polynomial.n_terms == 1
    ((coeff, word),) = dec.polynomial.terms
    assert word == () and np.isclose(coeff, 2.5)


def test_decompose_rejects_non_local(fib):
    rng = np.random.default_rng(13)
    op = _random_local_observable(fib, 3, 2, rng)
    with pytest.raises(ValueError, match="not local"):
        decompose_observable(op, (1,))


def test_decompose_reports_local_but_unrealised(ising):
    rng = np.random.default_rng(5)
    op = _random_local_observable(ising, 3, 2, rng)
    with pytest.raises(
        ValueError,
        match=r"local on modes \[1, 2\] but outside the span realised by ladder polynomials",
    ):
        decompose_observable(op, (1, 2))


@pytest.mark.parametrize(
    "k, message",
    [
        (2, r"operator is not local on modes \[1, 2\] "),
        (1, r"operator is local on modes \[1, 2\] but outside the span realised"),
    ],
)
def test_decompose_tells_braids_apart_on_two_ising_modes(ising, k, message):
    """Both braids are charge-diagonal.  Exchanging modes 2 and 3 reaches out
    of {1, 2}; exchanging modes 1 and 2 is local there, but no Ising ladder
    polynomial realises it."""
    with pytest.raises(ValueError, match=message):
        decompose_observable(braid_adjacent(ising, 3, k), (1, 2))


def test_decompose_rejects_repeated_modes(fib):
    with pytest.raises(ValueError, match="invalid region"):
        decompose_observable(2.0 * _identity(fib, 3), (1, 1))


def test_decompose_rejects_charge_changing(fib):
    pair = fibonacci_pair(fib, 3)
    with pytest.raises(ValueError, match="not an observable"):
        decompose_observable(pair.alpha[1], (1,))


def test_decompose_and_locality_reject_non_canonical_bases(fib):
    n3, n2 = FusionTreeBasis(fib, 3), FusionTreeBasis(fib, 2)
    tau = FusionTreeBasis(fib, 3, sector="tau")
    right = FusionTreeBasis(fib, 3, shape=(0, (1, 2)))
    ops = [
        SparseOperator.from_entries(n3, n2, {(0, 0): 1.0}),
        SparseOperator.from_entries(n2, n3, {(0, 0): 1.0}),
        SparseOperator.identity(tau) * 2.0,
        SparseOperator.from_entries(tau, tau, {(0, 0): 1.0}),
        SparseOperator.from_entries(right, right, {(0, 0): 1.0}),
        SparseOperator.from_entries(n3, tau, {(0, 0): 1.0}),
    ]
    for op in ops:
        with pytest.raises(ValueError, match="unsectored left-comb basis"):
            decompose_observable(op, (1,))
        with pytest.raises(ValueError, match="unsectored left-comb basis"):
            is_local_candidate(op, (1,))


def test_decompose_occupation_operator(fib):
    pair = fibonacci_pair(fib, 2)
    num = (
        pair.alpha[1].dagger() @ pair.alpha[1]
        + pair.beta[1].dagger() @ pair.beta[1]
    ).drop()
    dec = decompose_observable(num, (1,))
    assert dec.eval_residual < 1e-10


# ---------------------------------------------------------------------------
# Relation suite
# ---------------------------------------------------------------------------


def test_relation_suite_passes(fib):
    for n in (1, 2, 3):
        report = verify_relations(fib, n)
        assert report.passed
        assert report.max_residual < 1e-10
        assert len(report.asserted) == 6 * n
        names = [name for name, _ in report.reported]
        assert sum("completeness" in x for x in names) == n
        if n >= 2:
            assert any("support" in x for x in names)
        text = report.format_text()
        assert "result: pass" in text


def test_relation_suite_reports_completeness_not_asserts(fib):
    report = verify_relations(fib, 1)
    # the printed completeness relation misses the identity by a finite amount;
    # it is reported with measured residuals, not asserted
    (_, text), = [r for r in report.reported if "completeness" in r[0]]
    assert "printed residual=2.500e-01" in text
    assert "+alpha beta^+ residual=" in text


# ---------------------------------------------------------------------------
# Fock construction
# ---------------------------------------------------------------------------


def test_fock_words_reconstruct_every_state(fib):
    n = 3
    basis = FusionTreeBasis(fib, n)
    words = fock_words(fib, n)
    assert len(words) == basis.dim
    for idx, (scalar, word) in words.items():
        vec = apply_word(fib, n, scalar, word)
        want = np.zeros(basis.dim, dtype=complex)
        want[idx] = 1.0
        assert np.abs(vec - want).max() < 1e-10


def test_fermion_fock_words_use_the_fermion_creators(fermion):
    n = 3
    words = fock_words(fermion, n)
    assert len(words) == FusionTreeBasis(fermion, n).dim
    for idx, (scalar, word) in words.items():
        assert all(sym.kind == "std" and sym.j == 0 and sym.dagger for sym in word)
        vec = apply_word(fermion, n, scalar, word)
        assert np.abs(vec - np.eye(len(words))[idx]).max() < 1e-10


def test_fock_word_single_state_accessor(fib):
    basis = FusionTreeBasis(fib, 2)
    state = basis.states[3]
    scalar, word = fock_word(fib, 2, 3)
    scalar2, word2 = fock_word(fib, 2, state)
    assert scalar == scalar2 and word == word2
    vec = apply_word(fib, 2, scalar, word)
    assert np.isclose(vec[3], 1.0)


def test_fock_word_rejects_bad_indices_and_labelings(fib):
    """A bad index or a labeling that is no canonical state is named in a
    ValueError, not mistaken for an incomplete word search."""
    basis = FusionTreeBasis(fib, 3)
    message = "is neither a state index nor a labeling of 3 modes"
    for bad in (-1, basis.dim, 99):
        with pytest.raises(ValueError, match=f"^{bad} {message}"):
            fock_word(fib, 3, bad)
    tau, e = fib.index("tau"), fib.vacuum
    forbidden = [e] * len(basis.spans)
    forbidden[basis.spans.index((0, 2))] = tau  # vacuum leaves fusing to tau
    for labeling in (forbidden, (e, e), (e,) * (len(basis.spans) - 1) + (2,), (0.0,) * 5):
        with pytest.raises(ValueError, match=message):
            fock_word(fib, 3, labeling)
    assert fock_word(fib, 3, basis.states[-1]) == fock_word(fib, 3, basis.dim - 1)


def test_annihilators_kill_vacuum(fib):
    for n in (1, 2, 3, 4):
        basis = FusionTreeBasis(fib, n)
        vac = np.zeros(basis.dim, dtype=complex)
        vac[vacuum_index(basis)] = 1.0
        pair = fibonacci_pair(fib, n)
        for k in range(1, n + 1):
            assert np.abs(pair.alpha[k].apply(vac)).max() < 1e-12
            assert np.abs(pair.beta[k].apply(vac)).max() < 1e-12


def test_joint_kernel_is_vacuum_only(fib, fermion, ising):
    assert kernel_dimension(fib, 2) == 1
    assert kernel_dimension(fib, 3) == 1
    assert kernel_dimension(fermion, 3) == 1
    assert kernel_dimension(ising, 2) == 1


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def test_closure_single_mode_matches_candidate_span(fib):
    ls = ladder_set(fib, 3, "tau")
    gens = [op for (k, _j), op in ls.ops.items() if k == 1]
    result = algebra_closure(gens)
    assert result.dimension == 13
    for _meta, op in candidate_local_basis(fib, 3):
        assert result.contains(op)


def test_closure_all_modes_matches_bruteforce(fib, fermion):
    for model, particle in ((fib, "tau"), (fermion, "psi")):
        ls = ladder_set(model, 2, particle)
        gens = list(ls.ops.values())
        result = algebra_closure(gens)
        oracle = orc.closure_dimension_bruteforce([g.to_dense() for g in gens])
        assert result.dimension == oracle
    # Fibonacci ladder operators on two modes generate everything
    assert algebra_closure(list(ladder_set(fib, 2, "tau").ops.values())).dimension == 25


def _closure_generators(model, n):
    """Mode-1 ladder operators, the same plus total-charge projectors, and all."""
    mode1, every = [], []
    for i, label in enumerate(model.labels):
        if i != model.vacuum:
            for (k, _j), op in sorted(ladder_set(model, n, label).ops.items()):
                every.append(op)
                if k == 1:
                    mode1.append(op)
    projectors = [total_charge_projector(model, n, g) for g in model.labels]
    return {"mode1": mode1, "mode1+P": projectors + mode1, "all": every}


# (dimension, rounds) of the per-vector Gram-Schmidt closure this one replaced
CLOSURE_PINS = {
    ("fibonacci", 2): {"mode1": (13, 3), "mode1+P": (13, 2), "all": (25, 2)},
    ("fibonacci", 3): {"mode1": (13, 3), "mode1+P": (13, 2), "all": (169, 3)},
    ("fermion", 2): {"mode1": (4, 2), "mode1+P": (8, 3), "all": (16, 3)},
    ("fermion", 3): {"mode1": (4, 2), "mode1+P": (8, 3), "all": (64, 5)},
    ("ising", 2): {"mode1": (25, 4), "mode1+P": (34, 3), "all": (100, 3)},
}


@pytest.mark.parametrize("name, n", sorted(CLOSURE_PINS))
def test_closure_dimensions_and_rounds_are_pinned(name, n):
    model = builtin(name)
    for kind, gens in _closure_generators(model, n).items():
        result = algebra_closure(gens)
        assert (result.dimension, result.rounds) == CLOSURE_PINS[(name, n)][kind], kind
        assert result.onb.shape == (result.dimension, FusionTreeBasis(model, n).dim ** 2)
        gram = result.onb.conj() @ result.onb.T
        assert np.abs(gram - np.eye(result.dimension)).max() < 1e-10


@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_mode1_closure_contains_candidates_not_braid(name):
    model = builtin(name)
    n = 3 if name != "ising" else 2
    result = algebra_closure(_closure_generators(model, n)["mode1+P"])
    for _meta, op in candidate_local_basis(model, n):
        assert result.contains(op)
    assert not result.contains(braid_adjacent(model, n, 1))
    assert result.contains(SparseOperator.zero(FusionTreeBasis(model, n)))


def test_fibonacci_pair_requires_fibonacci_rules(fermion, ising):
    with pytest.raises(ModelDataError, match="Fibonacci"):
        fibonacci_pair(fermion, 2)
    with pytest.raises(ModelDataError, match="Fibonacci"):
        fock_words(ising, 2)  # neither a Fibonacci pair nor a fermion type
