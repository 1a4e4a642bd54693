"""Decomposition through observable coordinates.

``decompose_observable`` reads an operator's coordinates on the observable
basis moved onto its region and maps them to frame weights with the
coordinate map fitted once per model and region size
(``algebra._coordinate_map``).  These tests hold the map to the dense
least-squares fit it replaced (``oracles.decompose_by_sum``), over every
region of the small systems and on theories beyond the builtins, and pin
what a warm call does not do.
"""

import inspect
import itertools

import numpy as np
import pytest

import oracles as orc
from anyonladder import algebra, polynomial
from anyonladder.algebra import (
    _map_modes,
    _product_frame,
    _region_frame,
    decompose_observable,
    observable_basis,
)
from anyonladder.basis import SparseOperator
from anyonladder.model import builtin, dump_model, load_model
from test_polynomial import _region_observable


def _assert_matches_the_dense_fit(model, n, largest):
    """Every region of at most ``largest`` of ``n`` modes: the coefficients
    equal the dense fit's to 1e-12 of its largest and the polynomial has the
    same words, or both fail, the map naming the operator local but outside
    the realised span.  Returns the number of regions that decomposed."""
    decomposed = 0
    for m in range(1, min(n, largest) + 1):
        for region in itertools.combinations(range(1, n + 1), m):
            op = _region_observable(model, n, region, np.random.default_rng(100 * n + sum(region)))
            want, want_residual, fitted = orc.decompose_by_sum(op, region)
            try:
                dec = decompose_observable(op, region)
            except ValueError as exc:
                assert "local on modes" in str(exc) and "outside the span realised" in str(exc)
                assert want_residual > 1e-10, region  # the dense fit misses it too
                continue
            assert dec.coefficients.keys() == fitted.keys(), region
            scale = max(map(abs, fitted.values()))
            gap = max(abs(dec.coefficients[key] - fitted[key]) for key in fitted)
            assert gap <= 1e-12 * scale, (region, gap / scale)
            assert dec.polynomial._terms.keys() == want._terms.keys(), region
            assert dec.eval_residual <= 1e-12 and want_residual <= 1e-12, region
            decomposed += 1
    return decomposed


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("fibonacci", "fermion") for n in range(1, 7)]
    + [("ising", n) for n in range(1, 5)],
)
def test_coefficients_equal_the_dense_fit_on_every_builtin_region(name, n):
    """Regions of one and two modes everywhere, and of three up to n = 4
    except for Ising, whose three-mode frame alone is a few hundred
    polynomials: the dense fit of its n = 4 regions took over 4 GB."""
    largest = 3 if n <= 4 and name != "ising" else 2
    assert _assert_matches_the_dense_fit(builtin(name), n, largest)


@pytest.mark.parametrize(
    "theory, n, largest",
    [(theory, n, 2) for theory in ("z3", "gauged fibonacci") for n in range(1, 5)]
    + [("su2_3", 1, 1), ("su2_3", 2, 2), ("su2_3", 3, 1), ("su2_3", 4, 1)],
)
def test_coefficients_equal_the_dense_fit_beyond_the_builtins(theory, n, largest):
    """Z_3 (abelian), SU(2)_3 and a gauged Fibonacci, on regions of one and
    two modes; where the realised span misses an observable, both fail.
    SU(2)_3 pairs stop at n = 2: the dense fit of one pair takes about 3 s
    at n = 3 (D = 104) and 16 s and 2 GB at n = 4 (D = 544)."""
    model = {"z3": lambda: orc.z_n(3), "su2_3": lambda: orc.su2_k(3),
             "gauged fibonacci": lambda: orc.vertex_gauge(builtin("fibonacci"), 5)}[theory]()
    _assert_matches_the_dense_fit(model, n, largest)


@pytest.mark.parametrize("name, largest", [("fibonacci", 3), ("ising", 2), ("fermion", 3)])
def test_frame_is_the_same_on_every_system_beyond_the_region(name, largest):
    """The symbolic frame at n = m + 1 .. m + 3, entries and polynomials to
    the coefficient bits, is the one at ``_map_modes``, where the map is
    fitted."""
    model = builtin(name)
    for m in range(1, largest + 1):
        entries, polys = _product_frame(model, _map_modes(m + 1, m), m)
        want = [list(poly._terms.items()) for poly in polys]
        for n in range(m + 1, m + 4):
            got_entries, got_polys = _product_frame(model, n, m)
            assert got_entries == entries
            assert [list(poly._terms.items()) for poly in got_polys] == want


def test_a_warm_call_runs_no_least_squares_and_densifies_nothing(monkeypatch):
    """After one call per region, a call on the front, off the front, of a
    single Ising mode and of the identity runs neither ``np.linalg.lstsq``
    nor ``SparseOperator.to_dense``; nor does the Ising pair region that the
    realised span misses, which still fails as before."""
    fib, ising = builtin("fibonacci"), builtin("ising")
    rng = np.random.default_rng(23)
    cases = [(fib, 4, (1, 2)), (fib, 4, (2, 4)), (fib, 5, (3,)), (ising, 3, (2,))]
    ops = [(_region_observable(model, n, region, rng), region) for model, n, region in cases]
    ops.append((SparseOperator.identity(ops[0][0].row_basis) * 2.0, (1, 2)))
    unrealised = _region_observable(ising, 3, (1, 2), rng)
    for op, region in ops:
        decompose_observable(op, region)
    with pytest.raises(ValueError):
        decompose_observable(unrealised, (1, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a warm call formed a dense matrix")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    for op, region in ops:
        assert decompose_observable(op, region).eval_residual <= 1e-12
    with pytest.raises(ValueError, match="outside the span realised by ladder polynomials"):
        decompose_observable(unrealised, (1, 2))


@pytest.mark.parametrize("name", ["fibonacci", "ising", "fermion"])
def test_decompose_builds_no_observable_operator_list(name, monkeypatch):
    """A cold model decomposes on a front region, off the front and at
    n > n0 with ``observable_basis`` made to fail: the map and the frame
    read the memoised span block, not its per-element operators.  The Ising
    pair region still names the pairs the realised span misses."""
    model = load_model(dump_model(builtin(name)))  # a copy with empty caches

    def refuse(*args, **kwargs):
        raise AssertionError("decompose built the observable operator list")

    monkeypatch.setattr(algebra, "observable_basis", refuse)
    rng = np.random.default_rng(31)
    cases = [(2, (1,)), (3, (2,)), (4, (1,))]  # front at n0, off the front, front at n > n0
    if name != "ising":  # Ising pair regions lie outside the realised span
        cases += [(3, (1, 2)), (4, (2, 3))]
    for n, region in cases:
        op = _region_observable(model, n, region, rng)
        assert decompose_observable(op, region).eval_residual <= 1e-12
    if name == "ising":
        with pytest.raises(ValueError, match=r"outside the span realised .* miss its parts on \|"):
            decompose_observable(_region_observable(model, 3, (1, 2), rng), (1, 2))


def test_the_oracle_does_not_use_the_map(monkeypatch):
    """``oracles.decompose_by_sum`` names no part of the coordinate map and
    fits a cold model with the map made to fail."""
    source = inspect.getsource(orc.decompose_by_sum)
    assert "_coordinate_map" not in source and "_region_frame" not in source
    model = load_model(dump_model(builtin("fibonacci")))  # a copy with empty caches
    op = _region_observable(model, 3, (2, 3), np.random.default_rng(5))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the coordinate map")

    monkeypatch.setattr(algebra, "_coordinate_map", refuse)
    _polynomial, residual, fitted = orc.decompose_by_sum(op, (2, 3))
    assert fitted and residual <= 1e-12


def test_a_cold_front_region_compiles_its_frame_once(monkeypatch):
    """A cold Fibonacci n = 3 {1,2} decomposition fits the map and
    decomposes on one compiled frame, its words gathered into cells once;
    that frame is the region frame the map reads, and a warm call compiles
    nothing."""
    model = load_model(dump_model(builtin("fibonacci")))  # a copy with empty caches
    _pairs, ops = observable_basis(model, 3, 2)
    op = ops[0]
    for extra in ops[1:]:
        op = op + extra * 0.5
    frames, cells = [], []
    init, make_cells = polynomial._PolynomialFrame.__init__, polynomial._cells

    def counting_init(self, *args, **kwargs):
        frames.append(self)
        init(self, *args, **kwargs)

    def counting_cells(*args):
        cells.append(None)
        return make_cells(*args)

    monkeypatch.setattr(polynomial._PolynomialFrame, "__init__", counting_init)
    monkeypatch.setattr(polynomial, "_cells", counting_cells)
    assert decompose_observable(op, (1, 2)).eval_residual <= 1e-12
    assert (len(frames), len(cells)) == (1, 1)
    assert frames[0] is _region_frame(model, 3, (1, 2))
    decompose_observable(op * 2.0, (1, 2))
    assert (len(frames), len(cells)) == (1, 1)
