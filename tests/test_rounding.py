"""One rounding cut for every "is it zero?" decision.

A residual passes up to ``rounding_cut(tol, size, scale) = max(tol, eps *
size * scale)``.  The exact oracles of ``oracles_exact`` show that residuals
which pass at ``tol=0`` only by that floor are rounding, and the tests below
show that a defect of 1e-12 still fails at ``tol=0``.
"""

from itertools import product

import numpy as np
import pytest

import oracles_exact as ox
from anyonladder.algebra import (
    algebra_closure, commutant_is_trivial, decompose_observable, is_local_candidate,
    kernel_dimension, verify_relations,
)
from anyonladder.basis import FusionTreeBasis, braid_adjacent, total_charge_projector
from anyonladder.ladder import _shared_pair, ladder_set
from anyonladder.model import pentagon_residual, rounding_cut, validate_model

EPS = np.finfo(float).eps


def test_rounding_cut_is_the_tolerance_or_the_rounding_level():
    assert rounding_cut(1e-10, 34, 1.0) == 1e-10
    assert rounding_cut(0.0, 34, 2.0) == 68 * EPS
    assert rounding_cut(1e-20, 5, 1.0) == 5 * EPS
    assert rounding_cut(0.0, 0, 0.0) == 0.0


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3])
def test_every_zero_test_refuses_a_tolerance_that_is_not_finite_and_non_negative(fib, tol):
    """A NaN tolerance passes nothing and an infinite one passes everything,
    so each is refused where the cut is taken, as the CLI refuses it; at the
    default 1e-10 ``B + B^+`` is not local on mode 1 and is on modes 1, 2."""
    braid = braid_adjacent(fib, 3, 1)
    op = braid + braid.dagger()
    gens = list(ladder_set(fib, 2, "tau").ops.values())
    calls = {
        "decompose_observable": lambda: decompose_observable(op, (1,), tolerance=tol),
        "is_local_candidate": lambda: is_local_candidate(op, (1, 2), tol=tol),
        "kernel_dimension": lambda: kernel_dimension(fib, 3, tol),
        "algebra_closure": lambda: algebra_closure(gens, tol=tol),
        "commutant_is_trivial": lambda: commutant_is_trivial(gens, tol=tol),
        "verify_relations": lambda: verify_relations(fib, 3, tolerance=tol),
        "validate_model": lambda: validate_model(fib, tolerance=tol),
    }
    for name, call in calls.items():
        try:
            call()
        except ValueError as exc:
            assert f"tolerance must be finite and non-negative, got {tol}" in str(exc), name
        else:
            pytest.fail(f"{name} accepted tolerance {tol}")
    with pytest.raises(ValueError, match="not local"):
        decompose_observable(op, (1,))
    assert is_local_candidate(op, (1, 2)) == (True, 0.0)


def test_the_pentagon_residual_of_the_builtin_fibonacci_is_rounding(fib):
    """The exact F-symbols are the builtin's to the last bit, and satisfy the
    pentagon to 50 digits; the builtin's 1.7e-16 is double rounding."""
    for key in product(range(2), repeat=6):
        assert ox.fibonacci_f(*key) == fib.F[key]
    assert 0.0 < pentagon_residual(fib) <= 1e-15
    assert ox.fibonacci_pentagon_residual() < 1e-40


def _two_mode_order(fib):
    """For each canonical state of two modes, its index in the oracle's list."""
    table = FusionTreeBasis(fib, 2).table
    cols = [table.spans.index(s) for s in ((0, 0), (1, 1), (0, 1))]
    states = ox.two_mode_states()
    return [states.index(tuple(int(row[c]) for c in cols)) for row in table.rows]


def test_a_relation_residual_that_passes_at_tolerance_zero_is_rounding(fib):
    """``alpha_2 alpha_2^+ alpha_2 = alpha_2 - beta_2 alpha_2^+ alpha_2`` on two
    Fibonacci modes: the package's pair is the exact one up to rounding, its
    residual is 1.1e-16, the exact residual is below 1e-40, and the relation
    suite passes it at ``tol=0``."""
    order = _two_mode_order(fib)
    pair = _shared_pair(fib, 2)
    exact = ox.two_mode_pair()
    for mp_op, op in zip(exact, (pair.alpha[1], pair.beta[1], pair.alpha[2], pair.beta[2])):
        dense = np.array(mp_op.tolist(), dtype=complex)[np.ix_(order, order)]
        assert np.abs(dense - op.to_dense()).max() <= 2 * EPS
    al, be = pair.alpha[2], pair.beta[2]
    residual = (al @ al.dagger() @ al - (al - be @ al.dagger() @ al)).norm_max()
    assert 0.0 < residual <= 1e-15
    assert ox.third_order_residual(exact[2], exact[3]) < 1e-40
    text = verify_relations(fib, 2, 0.0).format_text()
    line = "alpha_2 alpha_2^+ alpha_2 = alpha_2 - beta_2 alpha_2^+ alpha_2"
    assert f"  [pass] {line}: residual={residual:.3e}\n" in text


def test_an_operator_1e_12_outside_the_span_is_not_local_at_tolerance_zero(fib):
    proj = total_charge_projector(fib, 3, "tau")
    assert is_local_candidate(proj, (1,), tol=0.0)[0]
    defect = proj + 1e-12 * braid_adjacent(fib, 3, 1)
    ok, residual = is_local_candidate(defect, (1,), tol=0.0)
    assert not ok and 1e-13 < residual < 1e-11
    assert is_local_candidate(defect, (1,))[0]  # within the default 1e-10


@pytest.mark.parametrize(
    "k, message",
    [
        (1, "operator is local on modes [1, 2] but outside the span realised by ladder "
            "polynomials, which miss its parts on |(sigma,sigma;e)><(sigma,sigma;e)|, "
            "|(sigma,sigma;psi)><(sigma,sigma;psi)|, |(psi,sigma;sigma)><(sigma,psi;sigma)|, "
            "|(sigma,psi;sigma)><(psi,sigma;sigma)| (span residual 1.000e+00)"),
        (2, "operator is not local on modes [1, 2] (span residual 1.000e+00)"),
    ],
)
def test_ising_decompose_failures_keep_their_message_at_tolerance_zero(ising, k, message):
    for tolerance in (1e-10, 0.0):
        with pytest.raises(ValueError) as exc:
            decompose_observable(braid_adjacent(ising, 3, k), (1, 2), tolerance)
        assert str(exc.value) == message
