import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonladder import algebra, polynomial
from anyonladder.algebra import (
    _product_frame,
    _word_cache,
    decompose_observable,
    mode_relabel_unitary,
    observable_basis,
)
from anyonladder.basis import DROP_TOLERANCE, FusionTreeBasis, SparseOperator, _entries, _gather
from anyonladder.fixtures import fixture, fixture_names
from anyonladder.ladder import ladder_set, resolver
from anyonladder.model import builtin, dump_model, load_model
from anyonladder.polynomial import MERGE_TOLERANCE, GeneratorSymbol, LadderPolynomial
from oracles import (
    cached_word, csr_bytes, decompose_by_sum, dense_fold, evaluate_recursively, fold_sum,
    untidy_operator,
)

symbols = st.builds(
    GeneratorSymbol,
    mode=st.integers(min_value=1, max_value=4),
    kind=st.just("std"),
    particle=st.sampled_from(["tau", "psi"]),
    j=st.integers(min_value=0, max_value=2),
    dagger=st.booleans(),
)
pair_symbols = st.builds(
    GeneratorSymbol,
    mode=st.integers(min_value=1, max_value=4),
    kind=st.just("pair"),
    particle=st.sampled_from(["alpha", "beta"]),
    j=st.just(0),
    dagger=st.booleans(),
)
any_symbols = symbols | pair_symbols


def _fields(sym):
    """The field tuple the symbol's ordering and hash are defined by."""
    return (sym.mode, sym.kind, sym.particle, sym.j, sym.dagger)


@settings(max_examples=50, deadline=None)
@given(any_symbols)
def test_token_round_trip(sym):
    back = GeneratorSymbol.from_token(sym.token())
    assert back == sym and type(back) is GeneratorSymbol
    assert back.kind == sym.kind


@settings(max_examples=50, deadline=None)
@given(st.lists(any_symbols, min_size=2, max_size=8))
def test_symbol_hash_equality_and_order_follow_field_tuples(syms):
    for a in syms:
        assert hash(a) == hash(_fields(a))
        for b in syms:
            assert (a == b) == (_fields(a) == _fields(b))
            assert (a < b) == (_fields(a) < _fields(b))
    assert sorted(syms) == sorted(syms, key=_fields)


@settings(max_examples=25, deadline=None)
@given(any_symbols)
def test_symbol_pickle_round_trip(sym):
    back = pickle.loads(pickle.dumps(sym))
    assert back == sym and type(back) is GeneratorSymbol
    assert str(back) == str(sym)


def test_bare_symbol_is_not_a_word():
    sym = GeneratorSymbol(1, "std", "tau", 0, False)
    with pytest.raises(TypeError, match="bare symbol"):
        LadderPolynomial([(1.0, sym)])
    assert LadderPolynomial([(1.0, [sym])]).terms == [(1.0, (sym,))]


@settings(max_examples=50, deadline=None)
@given(symbols)
def test_adjoint_is_involution(sym):
    assert sym.adjoint().adjoint() == sym
    assert sym.adjoint().dagger != sym.dagger


def test_relabel_symbol():
    sym = GeneratorSymbol(1, "std", "tau", 0, False)
    moved = sym.relabel({1: 3})
    assert moved.mode == 3 and moved.particle == "tau"
    untouched = GeneratorSymbol(2, "std", "tau", 0, False).relabel({1: 3})
    assert untouched.mode == 2


def _gen(mode, j=0, dagger=False, particle="tau"):
    return LadderPolynomial.generator(GeneratorSymbol(mode, "std", particle, j, dagger))


def test_polynomial_arithmetic():
    p = _gen(1) + 2.0 * _gen(2)
    q = p @ _gen(1, dagger=True)
    assert q.n_terms == 2
    assert (p + (-1.0) * p).is_zero()
    doubled = p + p
    coeffs = {word: coeff for coeff, word in doubled.terms}
    sym1 = (GeneratorSymbol(1, "std", "tau", 0, False),)
    assert np.isclose(coeffs[sym1], 2.0)
    with pytest.raises(TypeError, match="operator product"):
        p * p


def test_adjoint_reverses_words():
    p = _gen(1) @ _gen(2, dagger=True)
    (coeff, word), = p.adjoint().terms
    assert np.isclose(coeff, 1.0)
    assert word[0] == GeneratorSymbol(2, "std", "tau", 0, False)
    assert word[1] == GeneratorSymbol(1, "std", "tau", 0, True)
    assert p.adjoint().adjoint().signature() == p.signature()


def test_relabel_modes_permutes_words():
    p = _gen(1) @ _gen(2)
    moved = p.relabel_modes({1: 2, 2: 1})
    (coeff, word), = moved.terms
    assert [s.mode for s in word] == [2, 1]


def test_signature_merges_duplicates():
    a = _gen(1) + _gen(1)
    b = 2.0 * _gen(1)
    assert a.signature() == b.signature()
    assert a.signature() != (3.0 * _gen(1)).signature()


def test_payload_round_trip():
    p = (0.5 + 0.25j) * (_gen(1) @ _gen(2, j=1, dagger=True)) + LadderPolynomial.constant(3.0)
    back = LadderPolynomial.from_payload(p.to_payload())
    assert back.signature() == p.signature()


def test_evaluate_matches_manual_product(fib):
    ls = ladder_set(fib, 2, "tau")
    resolve = resolver(fib, 2)
    p = _gen(1) @ _gen(2, dagger=True) + 0.5 * _gen(1, j=1)
    got = p.evaluate(resolve).to_dense()
    want = (
        ls.op(1, 0).to_dense() @ ls.op(2, 0).dagger().to_dense()
        + 0.5 * ls.op(1, 1).to_dense()
    )
    assert np.allclose(got, want, atol=1e-12)


def test_evaluate_daggered_symbols_via_resolver(fib):
    ls = ladder_set(fib, 2, "tau")
    p = _gen(1, dagger=True) @ _gen(1)
    got = p.evaluate(resolver(fib, 2)).to_dense()
    want = ls.op(1, 0).dagger().to_dense() @ ls.op(1, 0).to_dense()
    assert np.allclose(got, want, atol=1e-12)


def test_daggered_letters_are_built_by_one_rule(fib, monkeypatch):
    """Every daggered ``std`` and ``pair`` letter of Fibonacci 3 modes has
    the CSR bytes of its undaggered matrix's adjoint, alike as a one-letter
    word of ``_fill_cache``, as a creator of ``fock_words`` and from
    ``_letter``."""
    resolve = resolver(fib, 3)
    daggered = [GeneratorSymbol(k, "std", "tau", j, True) for k, j in ladder_set(fib, 3, "tau").ops]
    daggered += [GeneratorSymbol(k, "pair", name, 0, True)
                 for k in range(1, 4) for name in ("alpha", "beta")]
    cache = {}
    polynomial._fill_cache([(sym,) for sym in daggered], resolve, cache, None)
    creators = {}
    word_letter = algebra._word_letter

    def recording_letter(model, n_modes, sym):
        creators[sym] = word_letter(model, n_modes, sym)
        return creators[sym]

    monkeypatch.setattr(algebra, "_word_letter", recording_letter)
    algebra.fock_words.__wrapped__(fib, 3)  # unmemoised, so it reads its creators here
    assert set(creators) == {sym for sym in daggered if sym.kind == "pair"}
    for sym in daggered:
        want = csr_bytes(resolve(sym.adjoint()).dagger())
        assert csr_bytes(polynomial._letter(resolve, sym)) == want
        assert csr_bytes(cached_word(cache, (sym,))) == want
        if sym.kind == "pair":
            assert csr_bytes(creators[sym]) == want


def test_evaluate_constant_requires_identity(fib):
    ls = ladder_set(fib, 2, "tau")
    p = LadderPolynomial.constant(2.0)
    with pytest.raises(ValueError):
        p.evaluate(resolver(fib, 2))
    basis = FusionTreeBasis(fib, 2)
    ident = SparseOperator.identity(basis)
    got = p.evaluate_with_identity(resolver(fib, 2), ident).to_dense()
    assert np.allclose(got, 2.0 * np.eye(basis.dim))


def test_evaluate_empty_polynomial(fib):
    ls = ladder_set(fib, 2, "tau")
    zero = _gen(1) + (-1.0) * _gen(1)
    assert zero.is_zero()
    with pytest.raises(ValueError):
        zero.evaluate(resolver(fib, 2))


def test_evaluation_caches_the_words_the_recursion_caches(fib):
    """Constant terms, shared suffixes, daggered letters and a warm second
    call: the word cache gets the keys and CSR bytes of the recursion."""
    resolve = resolver(fib, 3)
    ident = SparseOperator.identity(FusionTreeBasis(fib, 3))
    a, b, c = _gen(1), _gen(2, dagger=True), _gen(3, j=1)
    first = a @ b @ c + 0.5 * (b @ c) + 2j * (c @ a @ a @ b)
    second = LadderPolynomial.constant(1.5) + a @ b @ c @ c - 0.25 * (c @ a @ a @ b)
    batched, recursive = {}, {}
    for poly in (first, second):
        got = poly.evaluate_with_identity(resolve, ident, cache=batched)
        want = evaluate_recursively(poly, resolve, recursive, ident)
        assert batched.keys() == recursive.keys()
        assert all(csr_bytes(cached_word(batched, w)) == csr_bytes(recursive[w]) for w in recursive)
        assert csr_bytes(got) == csr_bytes(want)
    assert () in batched and (a @ b @ c).terms[0][1][1:] in batched


def test_new_words_over_suffixes_of_two_earlier_batches(fib):
    """A third call whose new words end in words, and start with letters,
    that two earlier calls stored in two different blocks: the cache still
    gets the keys and CSR bytes of the recursion."""
    resolve = resolver(fib, 3)
    ident = SparseOperator.identity(FusionTreeBasis(fib, 3))
    a, b, c = _gen(1), _gen(2, dagger=True), _gen(3, j=1)
    third = c @ a @ b + 0.5j * (b @ c @ a) - 2.0 * (a @ c @ a @ b)
    batched, recursive = {}, {}
    for poly in (a @ b, c @ a, third):
        got = poly.evaluate_with_identity(resolve, ident, cache=batched)
        want = evaluate_recursively(poly, resolve, recursive, ident)
        assert csr_bytes(got) == csr_bytes(want)
    assert batched.keys() == recursive.keys()
    assert all(csr_bytes(cached_word(batched, w)) == csr_bytes(recursive[w]) for w in recursive)
    words = [w for _, w in third.terms if len(w) == 3]
    assert len({id(batched[w[1:]][0]) for w in words}) == 2  # suffixes from two blocks
    assert len({id(batched[w[:1]][0]) for w in words}) == 2  # letters from two blocks


def test_terms_are_sorted_deterministically():
    p = _gen(2) + _gen(1) + _gen(1, dagger=True)
    order1 = [word for _, word in p.terms]
    q = _gen(1, dagger=True) + _gen(2) + _gen(1)
    order2 = [word for _, word in q.terms]
    assert order1 == order2


@settings(max_examples=25, deadline=None)
@given(st.lists(symbols, min_size=1, max_size=3), st.lists(symbols, min_size=1, max_size=3))
def test_adjoint_antihomomorphism(word_a, word_b):
    pa = LadderPolynomial.constant(1.0)
    for s in word_a:
        pa = pa @ LadderPolynomial.generator(s)
    pb = LadderPolynomial.constant(1.0)
    for s in word_b:
        pb = pb @ LadderPolynomial.generator(s)
    lhs = (pa @ pb).adjoint()
    rhs = pb.adjoint() @ pa.adjoint()
    assert lhs.signature() == rhs.signature()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(any_symbols, max_size=3), min_size=1, max_size=8))
def test_terms_sort_by_length_then_field_tuples(words):
    p = LadderPolynomial([(1.0, w) for w in words])
    old_key = lambda w: (len(w), tuple(_fields(s) for s in w))  # noqa: E731
    assert [w for _, w in p.terms] == sorted({tuple(w) for w in words}, key=old_key)


def _exact(poly):
    """Terms in dict order, coefficients down to the sign of zero."""
    return [(w, c.real.hex(), c.imag.hex()) for w, c in poly._terms.items()]


def _random_polynomial(rng, pool, n_terms):
    terms = []
    for _ in range(n_terms):
        length = int(rng.integers(0, 4))
        word = tuple(pool[int(i)] for i in rng.integers(len(pool), size=length))
        terms.append((complex(rng.normal(), rng.normal()), word))
    return LadderPolynomial(terms)


@pytest.mark.parametrize("seed", range(6))
def test_sum_equals_left_fold(seed):
    rng = np.random.default_rng(seed)
    pool = [GeneratorSymbol(k, "std", "tau", j, d) for k in (1, 2) for j in (0, 1) for d in (False, True)]
    polys = [_random_polynomial(rng, pool, int(rng.integers(1, 30))) for _ in range(12)]
    weights = [1.0, -1.0, 0.5, complex(rng.normal(), rng.normal()), np.float64(rng.normal()),
               np.complex128(complex(rng.normal(), rng.normal()))]
    pairs = [(weights[i % len(weights)], p) for i, p in enumerate(polys)]
    got, want = LadderPolynomial.sum(pairs), fold_sum(pairs)
    assert sum(p.n_terms for p in polys) > got.n_terms  # words repeat and merge
    assert _exact(got) == _exact(want)
    assert got.terms == want.terms


def test_sum_drops_cancelled_coefficients_like_the_fold():
    w1, w2, w3 = ((GeneratorSymbol(k, "std", "tau", 0, False),) for k in (1, 2, 3))
    a = LadderPolynomial([(1.0, w1), (2.0, w2)])
    near = LadderPolynomial([(1.0 - 5e-13, w1), (1.0, w3)])
    pairs = [(1.0, a), (-1.0, near)]
    got = LadderPolynomial.sum(pairs)
    assert abs(1.0 - (1.0 - 5e-13)) <= MERGE_TOLERANCE
    assert [w for w in got._terms] == [w2, w3]
    assert _exact(got) == _exact(fold_sum(pairs))
    # a partial sum that cancels is removed, and the word comes back last
    one = LadderPolynomial([(1.0, w1)])
    pairs = [(1.0, one), (-1.0, one), (1.0, LadderPolynomial([(1.0, w2)])), (2.0, one)]
    got = LadderPolynomial.sum(pairs)
    assert [w for w in got._terms] == [w2, w1]
    assert _exact(got) == _exact(fold_sum(pairs))
    # scaled terms at or below the tolerance are left out before merging
    pairs = [(1e-13, one)] * 20
    assert LadderPolynomial.sum(pairs).is_zero() and fold_sum(pairs).is_zero()


# -- the support fold of evaluation against the dense fold ----------------------

# The regions of the decompose benchmark: (model, modes, region).
BENCHMARK_REGIONS = [
    ("fibonacci", 3, (1, 2)),
    ("fibonacci", 3, (2, 3)),
    ("fibonacci", 3, (1, 3)),
    ("fibonacci", 4, (2, 3)),
    ("fibonacci", 5, (3,)),
    ("ising", 3, (2,)),
    ("ising", 3, (1, 2)),
    ("fermion", 4, (1, 2)),
]


def _region_observable(model, n, region, rng):
    """A random Hermitian combination of the region's observables, moved onto ``region``."""
    _pairs, ops = observable_basis(model, n, len(region))
    coeffs = rng.normal(size=len(ops)) + 1j * rng.normal(size=len(ops))
    acc = ops[0] * coeffs[0]
    for c, op in zip(coeffs[1:], ops[1:]):
        acc = acc + op * c
    u = mode_relabel_unitary(model, n, region)
    return (u.dagger() @ (acc + acc.dagger()) @ u).drop()


def _assert_folds_agree(poly, model, n):
    resolve, cache = resolver(model, n), _word_cache(model, n)
    ident = SparseOperator.identity(FusionTreeBasis(model, n))
    got = poly.evaluate_with_identity(resolve, ident, cache=cache)
    assert csr_bytes(got) == csr_bytes(dense_fold(poly, cache, ident))
    return got


@pytest.mark.parametrize("name, n, region", BENCHMARK_REGIONS)
def test_evaluation_matches_the_dense_fold_on_benchmark_regions(name, n, region):
    """Frame and fitted polynomials of every benchmark region evaluate to
    the CSR bytes of the dense fold."""
    model = builtin(name)
    rng = np.random.default_rng(11)
    try:
        dec = decompose_observable(_region_observable(model, n, region, rng), region)
    except ValueError as exc:  # Ising {1,2}: local, but outside the realised span
        assert "outside the span" in str(exc)
        polys = []
    else:
        polys = [dec.polynomial]
        assert dec.polynomial.n_terms > 1
    polys += _product_frame(model, n, len(region))[1]
    for poly in polys:
        _assert_folds_agree(poly, model, n)


@pytest.mark.parametrize("name", fixture_names())
def test_evaluation_matches_the_dense_fold_on_fixtures(name):
    op = fixture(name)
    basis = op.row_basis
    dec = decompose_observable(op, (1, 2))
    _assert_folds_agree(dec.polynomial, basis.model, basis.n_modes)


def _fold_inputs(poly, cache):
    """The arguments of ``polynomial._fold`` for ``poly``, as evaluation makes
    them from the word matrices in ``cache``, and the flat positions."""
    base, owner, rows, cols, vals = _gather([cache[w] for w in poly._terms])
    owner, flat, vals = polynomial._cells(owner, rows * np.int64(base.col_basis.dim) + cols, vals)
    flat, pos = np.unique(flat, return_inverse=True)
    return np.array(list(poly._terms.values())), owner, pos, vals, flat


def test_fold_bits_do_not_depend_on_how_many_entries_one_call_folds(fib):
    """Folding the entries of one position, or of a few, per call gives the
    bits of one call on every entry: ``np.add.at`` adds each entry on its
    own, in term order, however many one call holds."""
    dec = decompose_observable(fixture("ge-Pee"), (1, 2))
    want = _assert_folds_agree(dec.polynomial, fib, 3)
    coeffs, owner, pos, vals, flat = _fold_inputs(dec.polynomial, _word_cache(fib, 3))
    whole = polynomial._fold(coeffs, owner, pos, vals, len(flat))
    keep = np.abs(whole) > DROP_TOLERANCE
    assert whole[keep].tobytes() == want.matrix.data.tobytes()
    for size in (1, 7, 40):
        for lo in range(0, len(flat), size):
            sel = (pos >= lo) & (pos < lo + size)
            width = min(size, len(flat) - lo)
            part = polynomial._fold(coeffs, owner[sel], pos[sel] - lo, vals[sel], width)
            assert part.tobytes() == whole[lo:lo + size].tobytes(), (size, lo)


def _minus_zero(data: np.ndarray) -> bool:
    """Whether a stored real or imaginary part of ``data`` is ``-0.0``."""
    parts = np.concatenate([data.real, data.imag])
    return bool(((parts == 0) & np.signbit(parts)).any())


def test_evaluation_stores_no_negative_zero(fib):
    """Single-letter terms whose products are ``-0.0`` in one part, at
    positions where other terms have no entry: the dense fold, in which every
    term adds ``c * M`` everywhere, can leave a zero part ``-0.0`` there, and
    evaluation, a fold from zero, stores it as ``+0.0`` with every other bit
    the dense fold's.  One letter repeats entries, which the dense fold adds
    before the product."""
    b3 = FusionTreeBasis(fib, 3)
    rng = np.random.default_rng(3)
    values = [1j, -1j, 1.0, -1.0, complex(-0.0, 2.0), complex(3.0, -0.0), 0.5 + 0.5j]
    coeffs = [1.0, -1.0, 1j, -1j, 2.0 - 1j,
              complex(-1.0, -0.0), complex(-0.0, -1.0), complex(-0.0, 1.0)]
    letters = {}
    for k in range(1, 4):
        rows, cols = rng.integers(b3.dim, size=(2, 6))
        mat = sp.csr_matrix((rng.choice(values, 6), (rows, cols)), shape=(b3.dim, b3.dim))
        mat.sum_duplicates()
        letters[GeneratorSymbol(k, "std", "tau", 0, False)] = SparseOperator(b3, b3, mat)
    repeats = sp.csr_matrix(([0.1, 0.2, 1j, 0.3j], [0, 0, 2, 2], [0, 2, 4] + [4] * (b3.dim - 2)),
                            shape=(b3.dim, b3.dim))
    letters[GeneratorSymbol(4, "std", "tau", 0, False)] = SparseOperator(b3, b3, repeats)
    syms, signed = list(letters), 0
    for _ in range(300):
        chosen = rng.choice(len(syms), int(rng.integers(1, 5)), replace=False)
        poly = LadderPolynomial([(coeffs[rng.integers(len(coeffs))], (syms[i],)) for i in chosen])
        cache = {}
        got = poly.evaluate(letters.__getitem__, cache)
        want = dense_fold(poly, cache)
        signed += _minus_zero(want.matrix.data)
        want.matrix.data += 0.0
        assert csr_bytes(got) == csr_bytes(want)
        assert not _minus_zero(got.matrix.data)
    assert signed > 0  # the dense fold left a -0.0 part in some case


def test_evaluation_on_a_one_column_support_adds_sequentially(fib):
    """Every word matrix holds the one entry of ``a``: the fold runs down a
    single column, where a pairwise sum would give other bits."""
    a, ad = (GeneratorSymbol(1, "std", "tau", 0, d) for d in (False, True))
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=300) * 10.0 ** rng.integers(-6, 6, 300) + 1j * rng.normal(size=300)
    poly = LadderPolynomial([(c, (a, ad) * k + (a,)) for k, c in enumerate(coeffs)])
    cache = {}
    got = poly.evaluate(resolver(fib, 1), cache)
    assert {cached_word(cache, w).matrix.nnz for w in poly._terms} == {1}
    assert got.nnz == 1 and csr_bytes(got) == csr_bytes(dense_fold(poly, cache))
    value = cached_word(cache, (a,)).matrix.data[0]
    products = np.array(list(poly._terms.values())) * value
    assert np.add.reduce(products) != got.matrix.data[0]  # pairwise
    assert np.add.accumulate(products)[-1] == got.matrix.data[0]


def test_evaluation_densifies_signed_zeros_and_repeats_as_to_dense(fib):
    """Letter matrices with ``-0.0`` parts and repeated entries, and
    coefficients with ``-0.0`` parts, fold with the bits of the dense fold."""
    b3 = FusionTreeBasis(fib, 3)
    values = [complex(-0.0, 1.0), complex(2.0, -0.0), 0.25, 1e-300, complex(-0.0, -0.0)]
    indptr = [0, 2, 4, 5] + [5] * (b3.dim - 3)
    signed = sp.csr_matrix((values, [1, 0, 2, 2, 3], indptr), shape=(b3.dim, b3.dim))
    letters = {
        GeneratorSymbol(1, "std", "tau", 0, False): SparseOperator(b3, b3, signed),
        GeneratorSymbol(2, "std", "tau", 0, False): SparseOperator(b3, b3, -signed),
    }
    a, b = letters
    poly = LadderPolynomial([
        (complex(-0.0, 1.0), (a,)), (complex(1.0, -0.0), (b,)), (-1.0, (a,) * 2),
        (complex(-0.0, -0.0) + 1e-3, (a, b.adjoint())),
    ])
    cache = {}
    got = poly.evaluate(letters.__getitem__, cache)
    assert csr_bytes(got) == csr_bytes(dense_fold(poly, cache))


def test_evaluation_of_an_empty_polynomial_with_an_identity(fib):
    ident = SparseOperator.identity(FusionTreeBasis(fib, 3))
    got = LadderPolynomial().evaluate_with_identity(resolver(fib, 3), ident)
    assert got.nnz == 0 and got.matrix.shape == (ident.row_basis.dim,) * 2
    assert csr_bytes(got) == csr_bytes(dense_fold(LadderPolynomial(), {}, ident))


# -- the region frame: array merge and evaluation -----------------------------

_POOL = [
    GeneratorSymbol(k, "std", "tau", j, d) for k in (1, 2) for j in (0, 1) for d in (False, True)
]


def _frame(polys):
    fib = builtin("fibonacci")
    ident = SparseOperator.identity(FusionTreeBasis(fib, 2))
    return polynomial._PolynomialFrame(polys, resolver(fib, 2), {}, ident)


def _frame_operator(frame, terms):
    """The operator of the frame's fold of ``terms``."""
    return polynomial._operator(frame.basis, frame.basis, *frame.fold(*terms))


def _frame_sum(frame, weights):
    """The frame's weighted sum, one weight per frame polynomial, as a
    polynomial and as ``(word ids, coefficients)``."""
    terms = frame.weighted_sum(np.array(weights, dtype=complex))
    return frame.polynomial(*terms), terms


def _weights_of(frame, pairs):
    """One weight per frame polynomial from ``(weight, polynomial index)``
    pairs over ascending distinct indices, zero for the polynomials left out."""
    weights = np.zeros(len(frame.bounds) - 1, complex)
    for weight, i in pairs:
        weights[i] = weight
    return weights


@pytest.mark.parametrize("seed", range(6))
def test_frame_weighted_sum_is_the_left_fold(seed):
    """Random polynomials, with tiny weights whose products all fall at or
    below ``MERGE_TOLERANCE``: the array merge has the term order and the
    coefficient bits of the left fold of ``+``, and its evaluation has the
    CSR bytes of the dense fold of that polynomial."""
    rng = np.random.default_rng(seed)
    polys = [_random_polynomial(rng, _POOL, int(rng.integers(1, 30))) for _ in range(12)]
    weights = [complex(rng.normal(), rng.normal()) for _ in polys]
    weights[:4] = [1.0, -1.0, 1e-13, complex(-5e-14, 1e-14)]
    whole = _frame(polys)
    for parts in (range(12), [11, 0, 5, 2, 2], [3], [0, 3, 7]):
        pairs = [(weights[i], i) for i in parts]
        frame = _frame([polys[i] for i in parts])
        got, terms = _frame_sum(frame, [weights[i] for i in parts])
        want = fold_sum([(w, polys[i]) for w, i in pairs])
        assert _exact(got) == _exact(want)
        if list(parts) == sorted(set(parts)):  # the others left out by a zero weight
            assert _exact(_frame_sum(whole, _weights_of(whole, pairs))[0]) == _exact(want)
        if not got.is_zero():
            cache = {}
            fib = builtin("fibonacci")
            ident = SparseOperator.identity(FusionTreeBasis(fib, 2))
            want_op = want.evaluate_with_identity(resolver(fib, 2), ident, cache)
            assert csr_bytes(_frame_operator(frame, terms)) == csr_bytes(dense_fold(want, cache, ident))
            assert csr_bytes(_frame_operator(frame, terms)) == csr_bytes(want_op)
    assert _frame_sum(whole, _weights_of(whole, [(1e-13, 1), (complex(-5e-14, 1e-14), 4)]))[0].is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_frame_residual_is_the_norm_of_the_operator_difference(seed):
    """``residual`` against ``op``'s entries has the bits of the evaluated
    operator minus ``op``, for ``op`` the evaluation itself, the evaluation
    with a few entries moved by rounding, and untidy random operators."""
    rng = np.random.default_rng(seed)
    polys = [_random_polynomial(rng, _POOL, int(rng.integers(1, 30))) for _ in range(8)]
    frame = _frame(polys)
    weights = np.array([complex(rng.normal(), rng.normal()) for _ in polys])
    terms = frame.weighted_sum(weights)
    evaluated = _frame_operator(frame, terms)
    nudged = evaluated.matrix.copy()
    nudged.data[::3] += 1e-15
    ops = [evaluated, SparseOperator(frame.basis, frame.basis, nudged)]
    ops += [untidy_operator(frame.basis, rng, nnz) for nnz in (0, 5, 40)]
    for op in ops:
        want = (evaluated - op).norm_max()
        assert frame.residual(*terms, _entries(op)).hex() == want.hex()


def test_frame_weighted_sum_restarts_a_word_after_a_cancel():
    """A word that gets ``+x``, then ``-x`` up to rounding, then ``+y``
    leaves the sum at the cancel and comes back last with ``0.0 + y``, not
    with the rounding left over; a word cancelled by its last product stays
    out; a first product with a ``-0.0`` part is added to ``0.0``."""
    w1, w2, w3, w4 = ((sym,) for sym in _POOL[:4])
    x, y = 0.75 + 0.25j, -2.0 + 1.0j
    polys = [
        LadderPolynomial([(x, w1), (1.0, w2), (2.0, w4)]),
        LadderPolynomial([(1.0, w3), (-(x - 4e-13), w1), (-2.0, w4)]),
        LadderPolynomial([(y, w1), (complex(-1.0, -0.0), w4)]),
        LadderPolynomial([(-y, w1), (1.0, w2)]),
        LadderPolynomial([(x, w1)]),
    ]
    frame = _frame(polys)
    got, _ = _frame_sum(frame, [1.0, 1.0, 1.0, 0.0, 0.0])
    want = fold_sum([(1.0, p) for p in polys[:3]])
    assert _exact(got) == _exact(want)
    assert list(got._terms) == [w2, w3, w1, w4]
    assert got._terms[w1] == y and (y + 4e-13) != y  # restarted from zero
    assert np.signbit(got._terms[w4].imag) == np.signbit((0.0 + complex(-1.0, -0.0)).imag) == False
    # w1 cancelled by its last product, then cancelled twice and back last
    for parts, order in (([0, 1, 2, 3], [w2, w3, w4]), ([0, 1, 2, 3, 4], [w2, w3, w4, w1])):
        got, _ = _frame_sum(frame, _weights_of(frame, [(1.0, i) for i in parts]))
        assert _exact(got) == _exact(fold_sum([(1.0, polys[i]) for i in parts]))
        assert list(got._terms) == order


def test_frame_weighted_sum_keeps_the_dict_rules_on_every_term_layout():
    """Words of one, two and several frame terms; exact cancels, at the last
    product and before a restart; a running sum cancelled to exactly
    ``MERGE_TOLERANCE``; products exactly at the tolerance; a zero weight;
    and ``-0.0`` parts, on single words and on restarts.  The merge has the
    term order and bits of the left fold of ``+``."""
    w = [(sym,) for sym in _POOL[:8]]
    x, y = 0.75 + 0.25j, -2.0 + 1.0j
    near = 2.25e-12
    assert near + (MERGE_TOLERANCE - near) == MERGE_TOLERANCE
    polys = [
        LadderPolynomial([(complex(-0.0, 1.0), w[0]), (x, w[1]), (x, w[2]), (near, w[3])]),
        LadderPolynomial([(-x, w[1]), (-x, w[2]), (MERGE_TOLERANCE - near, w[3])]),
        LadderPolynomial([(2 * y, w[2]), (6.0, w[3]), (2e-12, w[4])]),
        LadderPolynomial([(1.0, w[2]), (1.0, w[5]), (1.0, w[3])]),
        LadderPolynomial([(2.0, w[3]), (4.0, w[6]), (2.0, w[7])]),
        LadderPolynomial([(complex(-1.0, -0.0), w[3]), (complex(1.0, -0.0), w[7]),
                          (complex(-2.0, -0.0), w[1])]),
    ]
    weights = [1.0, 1.0, 0.5, 0.0, 5e-13, 1.0]
    frame = _frame(polys)
    counts = [sum(word in poly._terms for poly in polys) for word in frame.words]
    assert sorted(counts) == [1, 1, 1, 1, 2, 3, 4, 6]
    assert [len(terms) for terms in frame._layout[2]] == [4, 4, 3, 2, 1, 1]
    got, _ = _frame_sum(frame, weights)
    want = fold_sum(list(zip(weights, polys)))
    assert _exact(got) == _exact(want)
    assert _exact(got) == _exact(LadderPolynomial.sum(zip(weights, polys)))
    # w2 restarts at y, w3 at 3.0 after it cancels to the tolerance, w1 at -2.0
    assert list(got._terms) == [w[0], w[2], w[3], w[6], w[7], w[1]]
    assert got._terms[w[2]] == y and got._terms[w[3]] == 2.0 and got._terms[w[1]] == -2.0
    parts = [part for c in got._terms.values() for part in (c.real, c.imag)]
    assert 0.0 in parts and not any(part == 0.0 and np.signbit(part) for part in parts)


@pytest.mark.parametrize("seed", range(8))
def test_frame_weighted_sum_is_the_left_fold_on_exact_values(seed):
    """Coefficients and weights of few bits, so that sums cancel exactly and
    words come back; words of up to two letters from eight, so that most
    words have several terms; zero weights, products at the tolerance and
    signed zeros throughout."""
    rng = np.random.default_rng(seed)
    values = [1.0, -1.0, 2.0, -0.5, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0),
              complex(0.5, 0.5)]
    scales = [0.0, 1.0, -1.0, 0.5, 5e-13, MERGE_TOLERANCE, complex(-0.0, 1.0), complex(1.0, -0.0)]
    polys = []
    for _ in range(16):
        terms = []
        for _ in range(int(rng.integers(1, 20))):
            word = tuple(_POOL[int(i)] for i in rng.integers(len(_POOL), size=int(rng.integers(0, 3))))
            terms.append((values[int(rng.integers(len(values)))], word))
        polys.append(LadderPolynomial(terms))
    frame = _frame(polys)
    for _ in range(4):
        weights = [scales[int(i)] for i in rng.integers(len(scales), size=len(polys))]
        got, _ = _frame_sum(frame, weights)
        assert _exact(got) == _exact(fold_sum(list(zip(weights, polys))))


@pytest.mark.parametrize("name, m", [("fibonacci", 1), ("fibonacci", 2), ("fibonacci", 3),
                                     ("ising", 1), ("ising", 2),
                                     ("fermion", 1), ("fermion", 2), ("fermion", 3)])
def test_frame_weighted_sum_is_the_left_fold_on_product_frames(name, m):
    """The product frame of each region size, with random weights, a fifth
    of them zero: the merge has the bits of the left fold of ``+``."""
    model = builtin(name)
    polys = _product_frame(model, m + 1, m)[1]
    frame = algebra._region_frame(model, m + 1, tuple(range(1, m + 1)))
    rng = np.random.default_rng(m)
    weights = rng.normal(size=len(polys)) + 1j * rng.normal(size=len(polys))
    weights[rng.random(len(polys)) < 0.2] = 0.0
    got, _ = _frame_sum(frame, weights)
    assert _exact(got) == _exact(fold_sum(list(zip(weights.tolist(), polys))))


def test_returned_words_hash_once_and_pickle_as_plain_tuples(fib):
    """A decomposition's words hash as their plain tuples, a plain tuple
    finds its term, and a pickled result loads with plain-tuple words: a
    cached string hash would not hold in another process."""
    dec = decompose_observable(_region_observable(fib, 3, (2, 3), np.random.default_rng(8)), (2, 3))
    words = list(dec.polynomial._terms)
    assert {type(w) for w in words} == {polynomial._Word}
    assert all(hash(w) == hash(tuple(w)) and w == tuple(w) for w in words)
    assert all(dec.polynomial._terms[tuple(w)] == c for w, c in dec.polynomial._terms.items())
    back = pickle.loads(pickle.dumps(dec))
    assert {type(w) for w in back.polynomial._terms} == {tuple}
    assert _exact(back.polynomial) == _exact(dec.polynomial)
    assert back.polynomial.to_payload() == dec.polynomial.to_payload()


def _assert_matches_the_sum_path(op, modes):
    dec = decompose_observable(op, modes)
    want, residual, _fitted = decompose_by_sum(op, modes, dec.coefficients)
    assert _exact(dec.polynomial) == _exact(want)  # term order and coefficient bits
    assert dec.eval_residual == residual
    return dec


def _assert_fails_on_the_maps_frame_alone(name, n, region, monkeypatch):
    """On a cold copy of the model, a call that fails compiles one frame,
    the front region's that its coordinate map reads, and a repeated
    failing call compiles none."""
    model = load_model(dump_model(builtin(name)))  # a copy with empty caches
    op = _region_observable(model, n, region, np.random.default_rng(17))
    frames, init = [], polynomial._PolynomialFrame.__init__

    def counting_init(self, *args, **kwargs):
        frames.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(polynomial._PolynomialFrame, "__init__", counting_init)
    counts = []
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the span"):
            decompose_observable(op, region)
        counts.append(len(frames))
    monkeypatch.undo()
    m = len(region)
    assert counts == [1, 1]
    assert frames[0] is algebra._region_frame(model, algebra._map_modes(n, m), tuple(range(1, m + 1)))


@pytest.mark.parametrize("name, n, region", BENCHMARK_REGIONS)
def test_region_frame_decomposes_as_the_sum_path_on_benchmark_regions(name, n, region, monkeypatch):
    """The frame's merge and evaluation give the terms, bits and evaluation
    residual of ``LadderPolynomial.sum`` and ``evaluate_with_identity``; a
    region whose fit fails compiles no frame beyond its map's."""
    model = builtin(name)
    rng = np.random.default_rng(17)
    key = (algebra._region_frame.__wrapped__, n, region)  # its entry in the model's cache
    for _ in range(3):
        op = _region_observable(model, n, region, rng)
        try:
            _assert_matches_the_sum_path(op, region)
        except ValueError as exc:  # Ising {1,2}: local, but outside the realised span
            assert "outside the span" in str(exc)
            _assert_fails_on_the_maps_frame_alone(name, n, region, monkeypatch)
        else:
            assert key in model._op_cache


@pytest.mark.parametrize("sites", [(1, 2), (2, 1)])
@pytest.mark.parametrize("name", fixture_names())
def test_region_frame_decomposes_as_the_sum_path_on_fixtures(name, sites):
    _assert_matches_the_sum_path(fixture(name), sites)
