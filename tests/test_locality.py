"""Locality as a closed-form projection onto orthogonal span elements.

Both spans are read one way, by ``algebra._coordinates``: a target's entry
lists are projected onto the span's elements moved onto the region, by
overlaps over squared norms, in the target's own frame.  On
``local_candidate_span`` that is ``is_local_candidate`` and
``decompose_observable``'s candidate-span test; on ``observable_basis`` it
is ``decompose_observable``'s coordinates.  That is the least-squares fit
only because the elements of each span are mutually orthogonal.  These
tests pin that orthogonality and compare the projection with a dense
least-squares fit over every region of the small systems.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import oracles as orc
from anyonladder.algebra import (
    _coordinates,
    _observable_block,
    is_local_candidate,
    local_candidate_span,
    observable_basis,
)
from anyonladder.basis import _entries, braid_adjacent, total_charge_projector
from anyonladder.ladder import ladder_set
from anyonladder.model import builtin

SPANS = (local_candidate_span, observable_basis)
TOL = 1e-10


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in ("fibonacci", "ising", "fermion") for n in (1, 2, 3)]
)
@pytest.mark.parametrize("span", SPANS, ids=lambda span: span.__name__)
def test_span_elements_are_orthogonal(name, n, span):
    model = builtin(name)
    for m in range(1, n + 1):
        _, ops = span(model, n, m)
        flat = sp.vstack([op.matrix.reshape(1, -1) for op in ops]).tocsr()
        gram = (flat.conj() @ flat.T).toarray()
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12
        assert np.diag(gram).real.min() > 0.5


def _sweep_operators(model, n):
    """Ladder operators, braids, total-charge projectors and products of the
    first ladder operator of each type on every pair of modes."""
    sets = [ladder_set(model, n, p) for p in model.labels if p != model.labels[model.vacuum]]
    ops = [op for ls in sets for op in ls.ops.values()]
    ops += [braid_adjacent(model, n, k, sense) for k in range(1, n) for sense in ("over", "under")]
    ops += [total_charge_projector(model, n, g) for g in model.labels]
    firsts = [ls.op(k, 0) for ls in sets for k in range(1, n + 1)]
    ops += [a @ b for a, b in itertools.product(firsts, repeat=2)]
    ops += [a @ b.dagger() for a, b in itertools.product(firsts, repeat=2)]
    return ops


@pytest.mark.parametrize(
    "name, n",
    [("fibonacci", n) for n in range(1, 5)]
    + [("ising", n) for n in range(1, 4)]
    + [("fermion", n) for n in range(1, 5)],
)
def test_projection_matches_the_dense_fit(name, n):
    """Over every region and both spans, the flags equal those of the dense
    fit; residuals of local operators agree to 1e-14 and the others to 1e-12
    relative."""
    model = builtin(name)
    ops = _sweep_operators(model, n)
    for m in range(1, n + 1):
        for region in itertools.combinations(range(1, n + 1), m):
            for span in SPANS:
                want = orc.span_residuals_dense(ops, region, span)
                if span is local_candidate_span:
                    flags, got = zip(*(is_local_candidate(op, region) for op in ops))
                else:
                    got = [
                        _coordinates(_entries(op), op.row_basis, region, _observable_block)[1]
                        for op in ops
                    ]
                    flags = [r <= TOL for r in got]
                got = np.array(got)
                assert list(flags) == list(want <= TOL), (region, span.__name__)
                local = want <= TOL
                assert np.all(np.abs(got - want)[local] <= 1e-14), (region, span.__name__)
                assert np.all(np.abs(got - want)[~local] <= 1e-12 * want[~local]), (
                    region, span.__name__,
                )


def test_whole_region_on_four_ising_modes():
    """A region of every mode spans the full matrix algebra: the 13,456
    elements of four Ising modes are projected onto without a dense frame."""
    ising = builtin("ising")
    ok, residual = is_local_candidate(braid_adjacent(ising, 4, 2), (1, 2, 3, 4))
    assert ok and residual <= 1e-12
