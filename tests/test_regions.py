"""Region operators pinned to the dictionary-loop builders they replaced.

``observable_basis``, ``local_candidate_span``, the ladder sets and the
adjacent braids are built from one factored-state table and one batched
conjugation; ``oracles`` rebuilds each from nested dictionaries and one
``W^dagger M W`` per element.  The CSR bytes must agree exactly.
"""

import pytest

import oracles as orc
from anyonladder.algebra import (
    decompose_observable,
    is_local_candidate,
    local_candidate_span,
    mode_relabel_unitary,
    observable_basis,
)
from anyonladder.basis import braid_adjacent, total_charge_projector
from anyonladder.ladder import ladder_set
from anyonladder.model import builtin

# Every region of every builtin up to four modes, and Fibonacci regions of up
# to four modes on five and six (larger ones cost the loops a minute).
CASES = [
    (name, n, m)
    for name in ("fibonacci", "fermion", "ising")
    for n in range(1, 5)
    for m in range(1, n + 1)
] + [("fibonacci", n, m) for n in (5, 6) for m in range(1, 5)]


def _same_ops(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.row_basis.is_compatible(b.row_basis)
        assert orc.csr_bytes(a) == orc.csr_bytes(b)


@pytest.mark.parametrize("name, n, m", CASES)
def test_region_bases_match_the_loops(name, n, m):
    model = builtin(name)
    pairs, ops = observable_basis(model, n, m)
    want_pairs, want_ops = orc.observable_basis_loop(model, n, m)
    assert pairs == want_pairs
    _same_ops(ops, want_ops)
    metas, ops = local_candidate_span(model, n, m)
    want_metas, want_ops = orc.local_candidate_span_loop(model, n, m)
    assert metas == want_metas
    assert [type(v) for meta in metas for v in meta.values()] == [
        type(v) for meta in want_metas for v in meta.values()
    ]
    _same_ops(ops, want_ops)


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in ("fibonacci", "fermion", "ising") for n in range(1, 5)]
    + [("fibonacci", 5), ("fibonacci", 6)],
)
def test_ladder_sets_and_braids_match_the_loops(name, n):
    model = builtin(name)
    for particle in model.labels:
        if particle == model.labels[model.vacuum]:
            continue
        ops = ladder_set(model, n, particle).ops
        want = orc.ladder_set_loop(model, n, particle)
        assert list(ops) == list(want)
        _same_ops(list(ops.values()), list(want.values()))
    for k in range(1, n):
        for sense in ("over", "under"):
            _same_ops([braid_adjacent(model, n, k, sense)], [orc.braid_adjacent_loop(model, n, k, sense)])


@pytest.mark.parametrize("region", [(1, 1), (0,), (4,), ()])
def test_bad_regions_fail_before_any_work(fib, region):
    """Each entry point rejects a bad region with one message and stores
    nothing in the operator cache."""
    op = total_charge_projector(fib, 3, "tau")
    keys = list(fib._op_cache)
    calls = [
        lambda: decompose_observable(op, region),
        lambda: is_local_candidate(op, region),
        lambda: mode_relabel_unitary(fib, 3, region),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="invalid region"):
            call()
    assert list(fib._op_cache) == keys
