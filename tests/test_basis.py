import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from anyonladder import trees
from anyonladder.basis import (
    DROP_TOLERANCE,
    FusionTreeBasis,
    SparseOperator,
    _CSRBlock,
    _conjugate,
    _factored_states,
    _label_table,
    _matmul_batch,
    _move_matrix,
    _pairs,
    _recouple,
    _sector_block,
    braid_adjacent,
    braid_word,
    recouple,
    total_charge_projector,
)
from anyonladder.ladder import annihilating_element, ladder_set, resolver
from anyonladder.model import dump_model, load_model
from anyonladder.polynomial import GeneratorSymbol
from anyonladder.trees import left_comb, right_comb

FOUR_LEAF_SHAPES = [
    (((0, 1), 2), 3),
    ((0, (1, 2)), 3),
    ((0, 1), (2, 3)),
    (0, ((1, 2), 3)),
    (0, (1, (2, 3))),
]


def test_dimensions_match_path_counting(fib, fermion, ising):
    for model in (fib, fermion, ising):
        for n in range(1, 9):
            basis = FusionTreeBasis(model, n)
            assert basis.dim == orc.total_dimension(model, n)


def test_fibonacci_dimension_sequence(fib):
    dims = [FusionTreeBasis(fib, n).dim for n in range(1, 7)]
    assert dims == [2, 5, 13, 34, 89, 233]


def test_state_label_format(fib):
    basis = FusionTreeBasis(fib, 3)
    labels = [basis.state_label(i) for i in range(basis.dim)]
    assert len(set(labels)) == basis.dim
    assert all("e" in lab or "t" in lab for lab in labels)


def test_state_labels_match_the_brute_force_labelings(fib, fermion, ising):
    """``state_label`` names the brute-force labeling at each position of
    every canonical basis of up to four modes, whole or sectored."""
    for model in (fib, fermion, ising):
        names = model.labels
        for n in range(1, 5):
            rows = orc.charge_rows(model, orc.comb_shape(n))
            for sector in (None, *range(model.n_labels)):
                basis = FusionTreeBasis(model, n, sector=sector)
                want = []
                for st in rows:
                    if sector in (None, st[(0, n - 1)]):
                        leaves = ",".join(names[st[(p, p)]] for p in range(n))
                        inner = ",".join(names[st[(0, p)]] for p in range(1, n))
                        want.append(f"({leaves};{inner})" if inner else f"({leaves})")
                assert [basis.state_label(i) for i in range(basis.dim)] == want


def test_recouple_is_unitary(fib):
    basis = FusionTreeBasis(fib, 4)
    eye = np.eye(basis.dim)
    for shape in FOUR_LEAF_SHAPES:
        w = recouple(basis, shape)
        dense = w.matrix.toarray()
        assert np.allclose(dense.conj().T @ dense, eye, atol=1e-12)
        assert np.allclose(dense @ dense.conj().T, eye, atol=1e-12)
        assert w.is_charge_diagonal()
    canonical = recouple(basis, left_comb(0, 3)).matrix.toarray()
    assert np.allclose(canonical, eye)


def test_sector_recoupling_is_the_full_one_sliced_byte_for_byte(fib, fermion, ising):
    """On a sector basis, ``recouple`` gives the full recoupling's block of
    that sector, with its CSR bytes, on every factored shape and the right
    comb of up to five modes."""
    for model in (fib, fermion, ising):
        for n in range(1, 6):
            shapes = [(left_comb(0, m - 1), left_comb(m, n - 1)) for m in range(1, n)]
            for shape in shapes + [right_comb(0, n - 1)]:
                full = recouple(FusionTreeBasis(model, n), shape)
                for g in range(model.n_labels):
                    got = recouple(FusionTreeBasis(model, n, sector=g), shape)
                    assert got.row_basis.sector == got.col_basis.sector == g
                    assert got.row_basis.shape == shape
                    rows = np.flatnonzero(full.row_basis.totals() == g)
                    cols = np.flatnonzero(full.col_basis.totals() == g)
                    want = SparseOperator(got.row_basis, got.col_basis, full.matrix[rows][:, cols])
                    assert orc.csr_bytes(got) == orc.csr_bytes(want), (model.labels, n, shape, g)


def test_sector_under_block_is_the_adjoint_of_the_over_block_byte_for_byte(fib, fermion, ising):
    """The adjoint of the full ``over`` braid's block on a sector's rows
    ``offset .. offset + dim`` has the CSR bytes of the full ``under``
    braid's block of that sector, for every pair and every sector: the
    ``under`` factor a sector transport builds.  On the whole basis the
    block is ``over`` itself, and its adjoint the full ``under`` braid."""
    for model, n_max in ((fib, 6), (fermion, 6), (ising, 5)):
        for n in range(2, n_max + 1):
            for k in range(1, n):
                over = braid_adjacent(model, n, k, "over")
                under = braid_adjacent(model, n, k, "under")
                assert orc.csr_bytes(_sector_block(over, over.row_basis).dagger()) == orc.csr_bytes(under)
                for g in range(model.n_labels):
                    sector = FusionTreeBasis(model, n, sector=g)
                    got = _sector_block(over, sector).dagger()
                    assert got.row_basis is got.col_basis is sector
                    idx = np.flatnonzero(under.row_basis.totals() == g)
                    want = SparseOperator(sector, sector, under.matrix[idx][:, idx])
                    assert orc.csr_bytes(got) == orc.csr_bytes(want), (model.labels, n, k, g)


def test_sector_block_of_every_row_is_a_view(fib, ising):
    """A block of all of an operator's rows, as the whole basis's block and
    a sector operator's own block are, keeps the operator's values rather
    than a copy, and has its CSR bytes."""
    for model in (fib, ising):
        over = braid_adjacent(model, 4, 2)
        sectors = [FusionTreeBasis(model, 4, sector=g) for g in range(model.n_labels)]
        for op, basis in [(over, over.row_basis)] + [(_sector_block(over, s), s) for s in sectors]:
            whole = _sector_block(op, basis)
            assert np.shares_memory(whole.matrix.data, op.matrix.data)
            assert orc.csr_bytes(whole) == orc.csr_bytes(op)


def test_sector_rows_are_the_full_rows_from_their_offset(fib, fermion, ising):
    """Each sector table is the full table's rows ``offset .. offset + dim``,
    and the sectors, in charge order, tile the full table."""
    for model in (fib, fermion, ising):
        for n in range(1, 7):
            for shape in (left_comb(0, n - 1), right_comb(0, n - 1)):
                full = FusionTreeBasis(model, n, shape=shape)
                assert full.offset == 0
                end = 0
                for g in range(model.n_labels):
                    sector = FusionTreeBasis(model, n, sector=g, shape=shape)
                    assert sector.offset == end
                    rows = full.table.rows[sector.offset:sector.offset + sector.dim]
                    assert np.array_equal(sector.table.rows, rows)
                    end += sector.dim
                assert end == full.dim


def test_sector_tables_are_views_of_the_shared_table(fib, fermion, ising):
    """A sector basis reads its rows and codes from the shared label table,
    read-only, and they are the table's rows of that total charge."""
    for model in (fib, fermion, ising):
        for n in range(1, 7):
            for shape in (left_comb(0, n - 1), right_comb(0, n - 1)):
                full = _label_table(model, shape)
                for g in range(model.n_labels):
                    table = FusionTreeBasis(model, n, sector=g, shape=shape).table
                    keep = full.column((0, n - 1)) == g
                    for got, whole in ((table.rows, full.rows), (table.codes, full.codes)):
                        assert np.shares_memory(got, whole) and not got.flags.writeable
                        assert got.dtype == whole.dtype and np.array_equal(got, whole[keep])


def test_recoupling_matches_dense_oracle(fib, fermion, ising):
    for model in (fib, fermion, ising):
        basis = FusionTreeBasis(model, 3)
        u = orc.recoupling_matrix_3(model)
        w = recouple(basis, right_comb(0, 2))
        perm_c = orc.order_3(model)
        perm_r = orc.order_3(model, right=True)
        expected = u.conj().T[np.ix_(perm_r, perm_c)]
        assert np.allclose(w.matrix.toarray(), expected, atol=1e-12)


def test_braid_matches_dense_oracle(fib, fermion, ising):
    for model in (fib, fermion, ising):
        perm = orc.order_3(model)
        for sense in ("over", "under"):
            b = braid_adjacent(model, 3, 1, sense).to_dense()
            o = orc.braid12_oracle(model, sense)[np.ix_(perm, perm)]
            assert np.allclose(b, o, atol=1e-12)


def test_braid_unitary_and_inverse(fib):
    eye = np.eye(FusionTreeBasis(fib, 4).dim)
    for k in (1, 2, 3):
        over = braid_adjacent(fib, 4, k, "over")
        under = braid_adjacent(fib, 4, k, "under")
        assert np.allclose((over @ under).to_dense(), eye, atol=1e-12)
        assert np.allclose((over @ over.dagger()).to_dense(), eye, atol=1e-12)


def test_yang_baxter(fib, ising):
    for model in (fib, ising):
        b1 = braid_adjacent(model, 3, 1)
        b2 = braid_adjacent(model, 3, 2)
        lhs = (b1 @ b2 @ b1).to_dense()
        rhs = (b2 @ b1 @ b2).to_dense()
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_distant_braids_commute(fib):
    b1 = braid_adjacent(fib, 4, 1)
    b3 = braid_adjacent(fib, 4, 3)
    assert np.allclose((b1 @ b3).to_dense(), (b3 @ b1).to_dense(), atol=1e-12)


def test_fermion_exchange_minus_sign(fermion):
    # two fermions in the vacuum channel pick up -1 under exchange
    b = braid_adjacent(fermion, 2, 1).to_dense()
    states = orc.charge_rows(fermion, orc.comb_shape(2))
    idx = [i for i, st in enumerate(states) if (st[(0, 0)], st[(1, 1)]) == (1, 1)]
    assert len(idx) == 1
    assert np.isclose(b[idx[0], idx[0]], -1.0)


def test_braid_word_composition(fib):
    w = braid_word(fib, 3, [(1, "over"), (2, "over")])
    direct = braid_adjacent(fib, 3, 1) @ braid_adjacent(fib, 3, 2)
    assert np.allclose(w.to_dense(), direct.to_dense(), atol=1e-12)


def test_total_charge_projectors(fib, fermion, ising):
    """Each projector, the identity on its sector's rows, has the CSR bytes
    of the projector built from the states of that total charge, and the
    projectors sum to the identity."""
    for model in (fib, fermion, ising):
        for n in range(1, 6):
            basis = FusionTreeBasis(model, n)
            total = SparseOperator.zero(basis)
            for g, label in enumerate(model.labels):
                got = total_charge_projector(model, n, label)
                idx = np.flatnonzero(basis.totals() == g)
                want = SparseOperator.from_entries(basis, basis, {(i, i): 1.0 for i in idx})
                assert orc.csr_bytes(got) == orc.csr_bytes(want), (model.labels, n, label)
                total = total + got
            assert orc.csr_bytes(total) == orc.csr_bytes(SparseOperator.identity(basis)), (model.labels, n)


def test_total_charge_projector_takes_a_charge_index(fib, fermion, ising):
    """A charge index gives the label's projector to the CSR bytes, as it
    does for every other sector reader; an index out of range is refused."""
    for model in (fib, fermion, ising):
        for g, label in enumerate(model.labels):
            got = total_charge_projector(model, 3, g)
            assert orc.csr_bytes(got) == orc.csr_bytes(total_charge_projector(model, 3, label))
        for bad in (-1, model.n_labels):
            with pytest.raises(ValueError, match=f"charge index {bad} out of range"):
                total_charge_projector(model, 3, bad)


def test_sparse_operator_algebra(fib):
    basis = FusionTreeBasis(fib, 2)
    a = SparseOperator.from_entries(basis, basis, {(0, 1): 2.0, (1, 0): 1j})
    assert a.dagger().dagger().allclose(a)
    assert (a + (-1.0) * a).nnz == 0
    assert np.allclose((2.0 * a).to_dense(), 2.0 * a.to_dense())
    vec = np.zeros(basis.dim, dtype=complex)
    vec[1] = 1.0
    assert np.isclose(a.apply(vec)[0], 2.0)
    tiny = SparseOperator.from_entries(basis, basis, {(0, 0): 1e-16})
    assert tiny.drop().nnz == 0


def test_charge_diagonality_detection(fib):
    basis = FusionTreeBasis(fib, 3)
    tot = basis.totals()
    r = int(np.nonzero(tot == 0)[0][0])
    c = int(np.nonzero(tot == 1)[0][0])
    mixing = SparseOperator.from_entries(basis, basis, {(r, c): 1.0})
    assert not mixing.is_charge_diagonal()
    keeping = SparseOperator.from_entries(basis, basis, {(r, r): 1.0})
    assert keeping.is_charge_diagonal()


@pytest.mark.parametrize("seed", range(4))
def test_charge_check_reads_untidy_csr_as_its_coo_copy(fib, ising, seed):
    """The check over ``indptr`` agrees with the one over a COO copy on CSR
    with unsorted columns and repeated positions, charge-keeping or not."""
    rng = np.random.default_rng(seed)
    for model in (fib, ising):
        basis = FusionTreeBasis(model, 4)
        totals = basis.totals()
        op = orc.untidy_operator(basis, rng)
        mat = op.matrix
        rows = np.repeat(np.arange(basis.dim), np.diff(mat.indptr))
        keep = totals[rows] == totals[mat.indices]
        indptr = np.concatenate(([0], np.cumsum(keep)))[mat.indptr]
        kept = SparseOperator(basis, basis, sp.csr_matrix(
            (mat.data[keep], mat.indices[keep], indptr), shape=mat.shape))
        assert not kept.matrix.has_canonical_format
        for case in (op, kept):
            assert case.is_charge_diagonal() == orc.is_charge_diagonal_coo(case)
        assert kept.is_charge_diagonal() and not op.is_charge_diagonal()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.sampled_from(["over", "under"]))
def test_braid_preserves_total_charge(k, sense):
    from anyonladder.model import builtin

    model = builtin("fibonacci")
    b = braid_adjacent(model, 4, k, sense)
    assert b.is_charge_diagonal()


def _all_shapes(lo, hi):
    """Every full binary shape over the leaves ``lo .. hi``."""
    if lo == hi:
        yield lo
        return
    for mid in range(lo, hi):
        for left in _all_shapes(lo, mid):
            for right in _all_shapes(mid + 1, hi):
                yield (left, right)


def _reference_move_matrix(model, fresh, shape, node_span):
    """The per-state rebuild of one rotation, on fresh enumerations, with its
    entries in the order the gather emits them: by old state, then by channel."""
    new_shape, a_span, b_span, c_span = trees.rotate_right_to_left(shape, node_span)
    old_spans, old_states = fresh(shape)
    new_spans, new_states = fresh(new_shape)
    new_index = {st: i for i, st in enumerate(new_states)}
    old_pos = {s: i for i, s in enumerate(old_spans)}
    removed = (b_span[0], c_span[1])
    created = (a_span[0], b_span[1])
    rows, cols, vals = [], [], []
    for j, st in enumerate(old_states):
        a, b, c, d = (st[old_pos[s]] for s in (a_span, b_span, c_span, node_span))
        y = st[old_pos[removed]]
        block = orc.f_block(model, a, b, c, d)
        if block is None:
            continue
        xs, ys, mat = block
        base = {s: st[old_pos[s]] for s in old_spans if s != removed}
        for idx, x in enumerate(xs):
            amp = mat[idx, ys.index(y)] if y in ys else 0.0
            if abs(amp) <= DROP_TOLERANCE:
                continue
            base[created] = x
            rows.append(new_index[tuple(base[s] for s in new_spans)])
            cols.append(j)
            vals.append(complex(amp))
    return sp.csr_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(len(new_states), len(old_states))
    )


def _csr_bytes(mat):
    mat = getattr(mat, "matrix", mat)
    return [getattr(mat, attr).tobytes() for attr in ("data", "indices", "indptr")]


def _assert_same_table(got, want):
    assert got.spans == want.spans and got.radix == want.radix
    for attr in ("rows", "codes", "place"):
        mine, theirs = getattr(got, attr), getattr(want, attr)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert not mine.flags.writeable and mine.flags.c_contiguous


def test_cached_labelings_match_fresh_enumeration(fib, fermion, ising):
    """Cached tables, tables derived by the moves, fresh enumerations and the
    brute-force oracle agree on every shape of up to six modes that
    recoupling visits, and on every shape the factored-state recouplings of
    up to seven modes visit."""
    for model in (fib, fermion, ising):
        tables = {}

        def fresh(shape):
            if shape not in tables:
                tables[shape] = orc.labelings(model, shape)
            return tables[shape]

        for n in range(1, 7):
            canonical = FusionTreeBasis(model, n)
            for g in model.labels:
                sectored = FusionTreeBasis(model, n, sector=g)
                assert set(map(tuple, sectored.table.rows.tolist())) <= set(fresh(canonical.shape)[1])
            # Every rotation recouple makes, from every shape to the left comb.
            moves = set()
            for shape in _all_shapes(0, n - 1):
                recouple(canonical, shape)
                for node_span in trees.moves_to_left_comb(shape):
                    moves.add((shape, node_span))
                    shape = trees.rotate_right_to_left(shape, node_span)[0]
            for shape, node_span in moves:
                new_shape, new, mat = _move_matrix(model, shape, _label_table(model, shape), node_span)
                _assert_same_table(new, trees.enumerate_labelings(model, new_shape))
                reference = _reference_move_matrix(model, fresh, shape, node_span)
                assert _csr_bytes(mat) == _csr_bytes(reference)
            visited = {canonical.shape} | {shape for shape, _ in moves}
            for shape in visited:
                spans, states = fresh(shape)
                cached = _label_table(model, shape)
                assert cached.spans == tuple(spans)
                assert list(map(tuple, cached.rows.tolist())) == states
                _assert_same_table(cached, trees.enumerate_labelings(model, shape))
            assert canonical.table.rows is _label_table(model, canonical.shape).rows
            assert list(map(tuple, canonical.table.rows.tolist())) == fresh(canonical.shape)[1]
            assert FusionTreeBasis(model, n).dim == orc.total_dimension(model, n)
        # The chains of derived tables the factored-state recouplings walk.
        for n in range(1, 8):
            for m in range(1, n + 1):
                shape = _factored_states(model, n, m)[0].row_basis.shape
                table = trees.enumerate_labelings(model, shape)
                for node_span in trees.moves_to_left_comb(shape):
                    shape, table, _ = _move_matrix(model, shape, table, node_span)
                    _assert_same_table(table, trees.enumerate_labelings(model, shape))
                assert shape == left_comb(0, n - 1)


def test_label_table_lookup_round_trips(fib, fermion, ising):
    """On every shape of up to six modes, each row's code finds its own
    position, and labelings that are no state are reported missing."""
    for model in (fib, fermion, ising):
        for n in range(1, 7):
            for shape in _all_shapes(0, n - 1):
                table = _label_table(model, shape)
                assert np.all(np.diff(table.codes) > 0)
                assert np.array_equal(table.find(table.rows), np.arange(len(table.rows)))
                positions = {st: i for i, st in enumerate(map(tuple, table.rows.tolist()))}
                probe = table.rows.copy()
                probe[:, 0] = (probe[:, 0] + 1) % model.n_labels
                want = [positions.get(st, -1) for st in map(tuple, probe.tolist())]
                assert table.find(probe).tolist() == want
                for bad in (-1, model.n_labels):
                    probe[:, -1] = bad
                    assert np.all(table.find(probe) == -1)
            if n > 1:
                assert -1 in want


def test_label_codes_refuse_int64_overflow(fib, ising):
    for model, n in ((fib, 33), (ising, 21)):
        with pytest.raises(ValueError, match="overflow the int64"):
            trees.enumerate_labelings(model, left_comb(0, n - 1))


def test_braid_gather_matches_the_state_loop(fib, fermion, ising):
    """Every adjacent braid has the CSR bytes of the per-state loop."""
    sizes = [(model, n) for model in (fib, fermion, ising) for n in range(2, 7)]
    sizes += [(fib, 8), (fib, 10), (fermion, 10)]  # as the benchmarks build, with Ising 6
    for model, n in sizes:
        for k in range(1, n):
            for sense in ("over", "under"):
                got = braid_adjacent(model, n, k, sense)
                want = orc.braid_adjacent_loop(model, n, k, sense)
                assert orc.csr_bytes(got) == orc.csr_bytes(want)


def test_braids_recouple_nothing(ising):
    """Every braid of six modes, built on a fresh copy of the model, adds no
    recoupling and no table of a pair-folded shape to the operator cache."""
    model = load_model(dump_model(ising))
    n = 6
    for k in range(1, n):
        for sense in ("over", "under"):
            braid_adjacent(model, n, k, sense)
    keys = list(model._op_cache)
    assert not [key for key in keys if key[0] is _recouple.__wrapped__]
    folded = {orc.pair_folded_shape(n, k) for k in range(2, n)}
    tables = [key[1] for key in keys if key[0] is _label_table.__wrapped__]
    assert tables and not folded & set(tables)


def _loop_totals(basis):
    totals = [st[(0, basis.n_modes - 1)] for st in orc.charge_rows(basis.model, basis.shape)]
    return np.array([t for t in totals if basis.sector in (None, t)], dtype=int)


def _loop_sector_pairs(op):
    rows, cols = _loop_totals(op.row_basis), _loop_totals(op.col_basis)
    mat = op.matrix.tocoo()
    return {(int(rows[i]), int(cols[j])) for i, j in zip(mat.row, mat.col)}


def test_vectorised_charge_helpers_match_loops(fib, ising):
    for model in (fib, ising):
        basis = FusionTreeBasis(model, 4)
        assert np.array_equal(basis.totals(), _loop_totals(basis))
        for g in range(model.n_labels):
            want = np.array([i for i, t in enumerate(_loop_totals(basis)) if t == g])
            assert np.array_equal(np.flatnonzero(basis.totals() == g), want.astype(int))
        sectored = FusionTreeBasis(model, 4, sector=model.labels[1])
        assert np.array_equal(sectored.totals(), _loop_totals(sectored))
        ops = [braid_adjacent(model, 4, 2), SparseOperator.zero(basis)]
        a = model.labels[1]
        for b0 in model.labels:
            for c0 in model.labels:
                if model.index(c0) in model.fuse(model.index(a), model.index(b0)):
                    ops.append(annihilating_element(model, 4, a, b0, c0, mode=2))
        for op in ops:
            pairs = _loop_sector_pairs(op)
            assert orc.sector_pairs(op) == pairs
            assert op.is_charge_diagonal() == all(r == c for r, c in pairs)
        assert any(not op.is_charge_diagonal() for op in ops)
    with pytest.raises(ValueError):
        basis.totals()[0] = 1


def _csr_equal(got, want):
    assert got.row_basis.is_compatible(want.row_basis)
    assert got.col_basis.is_compatible(want.col_basis)
    assert orc.csr_bytes(got) == orc.csr_bytes(want)


def test_conjugate_matches_explicit_conjugation(fib, fermion, ising):
    """A one-matrix batch has the CSR bytes of the two sparse products,
    signed zeros included, also where the recoupling is the identity
    (m >= n - 1)."""
    rng = np.random.default_rng(3)
    for model in (fib, fermion, ising):
        for n in range(1, 5):
            for m in range(1, n + 1):
                w = _factored_states(model, n, m)[0]
                dim = w.row_basis.dim
                idx = rng.integers(dim, size=(12, 2))
                values = list(rng.normal(size=12) + 1j * rng.normal(size=12))
                values[:4] = [complex(-0.0, -1.0), complex(1.0, -0.0), complex(-0.0, 0.5), 1e-15]
                entries = {(int(i), int(j)): v for (i, j), v in zip(idx, values)}
                rows, cols = np.array(list(entries)).T
                got = _conjugate(w, rows, cols, list(entries.values()), np.zeros_like(rows), 1)
                _csr_equal(got.operator(0), orc.conjugate_factored(w, entries))


def test_conjugate_batch_matches_each_product(fib, ising):
    """Each matrix of a batch has the bytes of its own ``W^dagger M W``,
    whatever else is in the batch: random complex entries, signed zeros, one
    matrix with no entries, and entries whose partial products fall on
    either side of the drop tolerance."""
    rng = np.random.default_rng(5)
    for model, n, m in [(fib, 4, 2), (ising, 3, 1), (fib, 3, 3)]:
        w = _factored_states(model, n, m)[0]
        dim = w.row_basis.dim
        elements = []
        for _ in range(3):
            size = int(rng.integers(1, 3 * dim))
            idx = rng.integers(dim, size=(size, 2))
            values = rng.normal(size=size) + 1j * rng.normal(size=size)
            values[:3] = [complex(-0.0, -1.0), complex(1.0, -0.0), 1e-15][:size]
            elements.append({(int(i), int(j)): v for (i, j), v in zip(idx, values)})
        elements.insert(2, {})  # an empty element
        # Column j0, which W mixes most, holds one 5e-15: its W^dagger products
        # are dropped before the second product, where they would nudge
        # the sums of the other columns.
        j0 = int(np.argmax(np.diff(w.matrix.indptr)))
        dense = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        elements.append({(i, j): dense[i, j] for i in range(dim) for j in range(dim) if j != j0})
        elements[-1][(j0, j0)] = 5e-15
        # 2e-14 on the diagonal: products on both sides of the tolerance.
        phases = np.exp(2j * np.pi * rng.random(dim))
        elements.append({(i, i): 2e-14 * phases[i] for i in range(dim)})
        count = len(elements)
        rows, cols, vals, owner = [], [], [], []
        # Entries of the elements interleaved: the batch keeps each element's own.
        for k, entries in sorted(
            ((k, e) for k, el in enumerate(elements) for e in el.items()),
            key=lambda item: item[1][0][::-1],
        ):
            (i, j), v = entries
            rows.append(i), cols.append(j), vals.append(v), owner.append(k)
        block = _conjugate(w, np.array(rows, int), np.array(cols, int), vals, np.array(owner, int), count)
        for k, entries in enumerate(elements):
            want = orc.conjugate_factored(w, entries)
            _csr_equal(block.operator(k), want)
        assert block.operator(2).nnz == 0


def test_factored_states_match_the_dictionary_groups(fib, fermion, ising):
    """The arrays of ``_factored_states`` label every factored state as the
    nested dictionaries of ``oracles.factored_groups`` do."""
    for model in (fib, fermion, ising):
        for n in range(1, 5):
            for m in range(1, n + 1):
                w, b0, y, x, g = _factored_states(model, n, m)
                w_loop, groups = orc.factored_groups(model, n, m)
                assert w is w_loop
                region = orc.labelings(model, orc.comb_shape(m))[1]
                rest_of = {}
                for (b, rest), group in groups.items():
                    for (xr, gr), i in group.items():
                        assert (b0[i], region[x[i]], g[i]) == (b, xr, gr)
                        assert rest_of.setdefault(y[i], rest) == rest
                assert len(rest_of) == len(groups)


def test_pairs_joins_equal_keys():
    rng = np.random.default_rng(9)
    for key in (rng.integers(5, size=40), np.zeros(3, int), np.arange(4), np.array([], int)):
        rows, cols = _pairs(key)
        got = sorted(zip(rows.tolist(), cols.tolist()))
        want = [(i, j) for i in range(len(key)) for j in range(len(key)) if key[i] == key[j]]
        assert got == want


def test_drop_matches_the_coo_round_trip(fib):
    """``drop`` filters in CSR and gives the bytes of the COO round trip:
    unsorted product output, duplicates, explicit zeros, entries at the
    tolerance, int64 indices and an empty matrix."""
    rng = np.random.default_rng(13)
    b3, b4 = FusionTreeBasis(fib, 3), FusionTreeBasis(fib, 4)
    a = _random_operator(rng, b4, b4, 0.3)
    products = [a @ a, braid_adjacent(fib, 4, 2) @ a]
    raw = [SparseOperator(b4, b4, (a.matrix @ a.matrix).tocsr())]  # unsorted columns
    assert not raw[0].matrix.has_sorted_indices
    # Each row with entries gains its last entry negated (an exact cancel)
    # and a 1e-15 on its first column: duplicates summed after the filter.
    m, data, indices, indptr = a.matrix, [], [], [0]
    for lo, hi in zip(m.indptr[:-1], m.indptr[1:]):
        d, j = list(m.data[lo:hi]), list(m.indices[lo:hi])
        if j:
            d, j = d + [-d[-1], 1e-15], j + [j[-1], j[0]]
        data, indices = data + d, indices + j
        indptr.append(len(data))
    dupes = sp.csr_matrix((np.array(data, complex), indices, indptr), shape=m.shape)
    tiny = a.matrix.copy()
    tiny.data[::3] = 0.0
    tiny.data[1::5] = 1e-14 * np.exp(1j * np.arange(len(tiny.data[1::5])))
    tiny.data[2::7] = -0.0
    wide = a.matrix.copy()
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    ops = products + raw + [
        SparseOperator(b4, b4, mat) for mat in (dupes, tiny, wide)
    ] + [SparseOperator.zero(b3, b4), SparseOperator.from_entries(b3, b3, {(0, 0): 1e-16})]
    assert ops[-3].matrix.indices.dtype == np.int64
    for op in ops:
        got = op.drop()
        want = orc.drop_coo(op)
        assert orc.csr_bytes(got) == orc.csr_bytes(want)
        assert got.matrix.has_canonical_format
    assert orc.csr_bytes(ops[4].drop(1e-3)) == orc.csr_bytes(orc.drop_coo(ops[4], 1e-3))


def _random_operator(rng, row_basis, col_basis, density):
    """Random complex operator with about ``density`` of its entries stored."""
    mask = rng.random((row_basis.dim, col_basis.dim)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return SparseOperator.from_entries(row_basis, col_basis, (rows, cols, vals))


def _refs(ops):
    """``(block, i)`` references to ``ops``, alternating between two blocks."""
    blocks = [_CSRBlock.pack(ops[0::2]), _CSRBlock.pack(ops[1::2] or ops[:1])]
    return [(blocks[i % 2], i // 2) for i in range(len(ops))]


def _batch(pairs):
    """``_matmul_batch`` of ``pairs``, each operand side spread over two blocks,
    with every product made a ``SparseOperator``."""
    block = _matmul_batch(_refs([a for a, _ in pairs]), _refs([b for _, b in pairs]))
    return [block.operator(i) for i in range(len(pairs))]


def test_matmul_batch_matches_scipy_products_bit_for_bit(fib):
    """Each batched product has the CSR bytes of ``a @ b`` (scipy's product,
    then ``drop``), whatever else is in the batch."""
    rng = np.random.default_rng(11)
    b2, b3, b4 = (FusionTreeBasis(fib, n) for n in (2, 3, 4))
    groups = []
    for x, y, z in [(b3, b3, b3), (b2, b3, b4), (b4, b3, b2), (b3, b4, b3)]:
        # From sparse with empty rows to many terms per entry.
        groups.append([
            (_random_operator(rng, x, y, density), _random_operator(rng, y, z, density))
            for density in (0.05, 0.3, 0.8, 0.3, 0.05)
        ])
    square = groups[0]
    square += [(SparseOperator.zero(b3), square[0][1]), (square[0][0], SparseOperator.zero(b3))]
    # Stored entries out of column order, summed in stored order by scipy.
    a, b = groups[1][1]
    m = a.matrix
    unsorted = sp.csr_matrix((m.data[::-1], m.indices[::-1], m.nnz - m.indptr[::-1]), shape=m.shape)
    groups[1].append((SparseOperator(b2, b3, unsorted), b))
    # Terms that cancel exactly, or leave a sum at or below DROP_TOLERANCE.
    u = SparseOperator.from_entries(b2, b2, {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1e-15})
    v = SparseOperator.from_entries(b2, b2, {(0, 0): 0.3 - 0.7j, (1, 0): -0.3 + 0.7j, (1, 1): 1.0})
    groups.append([(u, v), (v, u)])

    for pairs in groups:
        ops = [a for a, _ in pairs]
        packed = _CSRBlock.pack(ops)
        for i, op in enumerate(ops):
            assert orc.csr_bytes(packed.operator(i)) == orc.csr_bytes(op)
        got = _batch(pairs)
        assert len(got) == len(pairs)
        for (a, b), out in zip(pairs, got):
            want = a @ b
            assert out.row_basis is a.row_basis and out.col_basis is b.col_basis
            assert orc.csr_bytes(out) == orc.csr_bytes(want)
        # One pair alone gives the same bytes as within the batch.
        assert orc.csr_bytes(_batch(pairs[1:2])[0]) == orc.csr_bytes(got[1])
    # (0, 0) cancels to zero and (1, 1) is 1e-15: both left out.
    coo = _batch([(u, v)])[0].matrix.tocoo()
    assert set(zip(coo.row.tolist(), coo.col.tolist())) == {(0, 1), (1, 0)}
    with pytest.raises(ValueError, match="incompatible bases"):
        _batch([groups[1][0][::-1]])
    with pytest.raises(ValueError, match="incompatible bases"):  # one side mixes two shapes
        _batch([groups[0][0], groups[1][0]])


def test_matmul_batch_forms_complex_products_part_by_part(fib):
    """Pins products where numpy's complex multiply, which may fuse a multiply
    and an add, rounds differently from scipy's part-by-part product."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    y = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    parts = np.empty_like(x)
    parts.real = x.real * y.real - x.imag * y.imag
    parts.imag = x.real * y.imag + x.imag * y.real
    differ = np.flatnonzero((x * y).view(float) != parts.view(float)) // 2
    if len(differ) == 0:
        pytest.skip("numpy's complex multiply rounds part by part on this CPU")
    basis = FusionTreeBasis(fib, 1)
    pairs = [
        (
            SparseOperator.from_entries(basis, basis, {(0, 1): x[i]}),
            SparseOperator.from_entries(basis, basis, {(1, 0): y[i]}),
        )
        for i in differ[:8]
    ]
    for (a, b), out in zip(pairs, _batch(pairs)):
        want = a @ b
        assert orc.csr_bytes(out) == orc.csr_bytes(want)
        assert (a.matrix.data * b.matrix.data).tobytes() != want.matrix.data.tobytes()


def test_memo_keys_calls_by_bound_arguments(fib):
    """Every spelling of one call, defaults filled in, shares one cache entry."""
    fib = load_model(dump_model(fib))  # a cache that no sector build of another test fills
    first = braid_adjacent(fib, 4, 2)
    size = len(fib._op_cache)
    assert braid_adjacent(fib, 4, 2, "over") is first
    assert braid_adjacent(fib, 4, 2, sense="over") is first
    assert len(fib._op_cache) == size
    raw = braid_adjacent.__wrapped__
    keys = [key[1:] for key in fib._op_cache if key[0] is raw and key[1:3] == (4, 2)]
    assert [key for key in keys if key[2] != "under"] == [(4, 2, "over")]


def test_memo_stores_nothing_for_a_raising_call(fib):
    braid_adjacent(fib, 3, 1)
    before = dict(fib._op_cache)
    with pytest.raises(ValueError):
        _factored_states(fib, 3, 0)
    with pytest.raises(ValueError):
        braid_adjacent(fib, 3, 5)
    assert list(fib._op_cache) == list(before)
    assert all(fib._op_cache[key] is value for key, value in before.items())


def test_ladder_set_is_shared_with_the_resolver(fib):
    ls = ladder_set(fib, 3, "tau")
    assert ladder_set(fib, 3, particle="tau") is ls
    resolve = resolver(fib, 3)
    for (k, j), op in ls.ops.items():
        assert resolve(GeneratorSymbol(k, "std", "tau", j, False)) is op
