"""Annihilating elements and annihilation-operator sets.

The mode-1 annihilating element ``a^{b0,c0}_1`` sends the particle ``a`` in
mode 1 to the vacuum while the remaining modes carry total charge ``b0``:
in the factored shape ``(mode 1) x (rest)`` it is
``sum_y |e, y; b0><a, y; c0|`` with ``y`` running over the rest labelings of
charge ``b0`` and ``c0`` a channel of ``a x b0``.  On the canonical basis
each of its entries is one fusion path: one product of F-symbols, read off
the model's ``F`` array path by path with no recoupling of the basis.
Elements for mode ``k`` are defined by braid transport behind the
intermediate modes: ``a_k = B_{k-1,k} a_{k-1} B_{k-1,k}^dagger``.

Annihilation operators are 0/1-weighted sums of annihilating elements,
one term per rest charge ``b0``; the coefficient tables picking the fusion
channels are constructed in :func:`coefficient_tables`.  A non-abelian
particle gets ``J = n_a - n + 1`` operators, an abelian one exactly 1.
Ladder sets, the identity ladder and the Fibonacci pair are all weighted
element sums built by :func:`_element_family`; :func:`resolver` maps
generator symbols to ladder-set and pair operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import trees
from .basis import (
    DROP_TOLERANCE, FusionTreeBasis, SparseOperator, braid_adjacent, _braid_block, _label_table, _memo, _ranges,
    _times,
)
from .model import AnyonModel, ModelDataError
from .polynomial import GeneratorSymbol

__all__ = [
    "CoefficientTable",
    "LadderSet",
    "FibonacciPair",
    "annihilating_element",
    "transport_to_mode",
    "coefficient_tables",
    "j_count",
    "j_lower_bound",
    "ladder_set",
    "fibonacci_pair",
    "fermion_annihilator",
    "identity_ladder",
    "fermion_type",
    "fibonacci_type",
    "rest_charges",
    "resolver",
]


def rest_charges(model: AnyonModel, n_modes: int) -> tuple[int, ...]:
    """Total charges reachable by the ``n_modes - 1`` non-selected modes."""
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if n_modes == 1:
        return (model.vacuum,)
    rest = _label_table(model, trees.left_comb(0, n_modes - 2))
    return tuple(int(g) for g in np.unique(rest.column((0, n_modes - 2))))


def _under(model: AnyonModel, n_modes: int, k: int, sector: int | None) -> SparseOperator:
    """The adjoint of braid ``k``'s block on one total-charge ``sector``: the
    memoised ``under`` braid on the whole basis (None), else the memoised
    adjoint of the block built from the sector's rows."""
    if sector is None:
        return braid_adjacent(model, n_modes, k, "under")
    return _sector_under(model, n_modes, k, sector)


@_memo
def _sector_under(model: AnyonModel, n_modes: int, k: int, sector: int) -> SparseOperator:
    return _braid_block(model, n_modes, k, sector).dagger()


def _over(op: SparseOperator, k: int) -> SparseOperator:
    """``braid_adjacent(model, n, k) @ op``.

    Where every stored row of ``op`` has the vacuum on leaf ``k``, as every
    transported element has, the braid only moves that vacuum to leaf
    ``k + 1``, with amplitude exactly 1 (F- and R-symbols with a vacuum index
    are 1): the product is ``op``'s rows moved to their relabelled states as
    stored, with the bits the product gives them, and no braid is built.
    """
    model, table, mat = op.row_basis.model, op.row_basis.table, op.matrix
    lengths = np.diff(mat.indptr)
    src = np.flatnonzero(lengths)
    leaf, place = table.column((k - 1, k - 1))[src], dict(zip(table.spans, table.place.tolist()))
    if (leaf != model.vacuum).any():
        return braid_adjacent(model, op.row_basis.n_modes, k) @ op
    code = table.codes[src] + (table.column((k, k))[src] - leaf) * (place[(k - 1, k - 1)] - place[(k, k)])
    if k > 1:  # modes 1..k now fuse to the charge of modes 1..k+1
        code += (table.column((0, k))[src] - table.column((0, k - 1))[src]) * place[(0, k - 1)]
    dest = np.searchsorted(table.codes, code)
    order = np.argsort(dest)
    src, dest = src[order], dest[order]
    indptr = np.zeros(len(lengths) + 1, np.int64)
    indptr[dest + 1] = lengths[src]
    take = _ranges(mat.indptr[src], lengths[src])
    moved = sp.csr_matrix((mat.data[take], mat.indices[take], np.cumsum(indptr)), shape=mat.shape)
    return SparseOperator(op.row_basis, op.col_basis, moved)


def _transports(op: SparseOperator, last_mode: int) -> dict[int, SparseOperator]:
    """A mode-1 operator on modes ``1..last_mode``, each transported from the one before.

    ``family[k] = over @ family[k-1] @ under`` with ``over`` the braid of
    modes ``k-1, k`` (:func:`_over`) and ``under`` the adjoint of its block on
    the columns of ``op``, all of the canonical basis or one total-charge
    sector.  Braids keep the total charge, so a sector's family is the full
    family's sector columns, bit for bit.  A zero ``op`` stays zero for every
    mode.
    """
    model = op.row_basis.model
    n = op.row_basis.n_modes
    if not 1 <= last_mode <= n:
        raise ValueError(f"mode {last_mode} out of range for {n} modes")
    if op.nnz == 0:
        return dict.fromkeys(range(1, last_mode + 1), op)
    family = {1: op}
    for k in range(2, last_mode + 1):
        family[k] = _over(family[k - 1], k - 1) @ _under(model, n, k - 1, op.col_basis.sector)
    return family


def _element_family(
    model: AnyonModel, n_modes: int, a: int, terms, last_mode: int, sector: int | None = None,
) -> dict[int, SparseOperator]:
    """``sum weight * a^{b0,c0}`` over distinct ``terms = [(b0, c0, weight), ...]``
    on one total-charge ``sector``'s columns (None: all), transported to modes
    ``1..last_mode``.

    Each stored entry of the mode-1 sum is one fusion path.  Its column is a
    canonical state with ``a`` on mode 1, charge ``X_q`` on modes ``1..q+1``
    and ``l_q`` on mode ``q+1``; its row is that state with the vacuum on
    mode 1 and charges ``R_q`` of modes ``2..q+1`` on the spans ``(0, q)``,
    ``R_1 = l_1`` and ``R_{n-1} = b0``.  Its value is the weight of ``(b0, X_{n-1})``
    times the conjugate of ``prod_{q=n-1..2} F^{a, R_{q-1}, l_q}_{X_q}[X_{q-1},
    R_q]``: the entry of the recoupling to (mode 1, rest), whose one path
    through the F-moves at spans ``(0, n-1) .. (0, 2)`` this is.  The paths
    are expanded from ``b0`` down, one array per quantity, and the string is
    multiplied in that order, each complex product formed as scipy's sparse
    product forms it, then dropped, conjugated and weighted as the recoupling
    and the weight's product would be, so every entry keeps its bits.  A term
    with an unreachable rest charge, or a ``c0`` outside ``a x b0`` or the
    sector, has no path.
    """
    return _transports(_mode1_sum(model, n_modes, a, terms, sector), last_mode)


def _mode1_sum(model: AnyonModel, n_modes: int, a: int, terms, sector: int | None) -> SparseOperator:
    """The mode-1 sum of :func:`_element_family`, path by path (a function of
    its own, so that its path arrays are freed before the transport)."""
    n_labels = model.n_labels
    weights = np.zeros((n_labels, n_labels), complex)
    for b0, c0, weight in terms:
        weights[b0, c0] = weight
    canonical, cols = FusionTreeBasis(model, n_modes), FusionTreeBasis(model, n_modes, sector)
    table, top = cols.table, (0, n_modes - 1)
    start = np.flatnonzero(table.column((0, 0)) == a)
    start = start[(weights[:, table.column(top)[start]] != 0).any(axis=0)]
    charge = dict(zip(table.spans, table.rows[start].T))
    place = dict(zip(table.spans, table.place.tolist()))
    allowed = weights[:, charge[top]].T != 0  # by start state and rest charge b0
    if n_modes <= 2:  # the rest is leaf 2, or no mode
        rest = charge[(1, 1)] if n_modes == 2 else np.full(len(start), model.vacuum)
        allowed &= np.arange(n_labels) == rest[:, None]
    i, rest = np.nonzero(allowed)
    # Row codes: the vacuum on leaf 1, each span (0, q) added with its R_q.
    code = table.codes[start] + (model.vacuum - a) * place[(0, 0)]
    for q in range(1, n_modes):
        code -= charge[(0, q)] * place[(0, q)]
    code = code[i] + (rest * place[top] if n_modes > 1 else 0)
    path = np.ones(len(i), complex)
    # f[((l_q * L + X_q) * L + X_{q-1}) * L + R_q, R_{q-1}] for L labels, 0 where a move drops it.
    f = model.F[a].transpose(1, 2, 3, 4, 0).reshape(-1, n_labels)
    f = np.where(np.abs(f) > DROP_TOLERANCE, f, 0.0)
    for q in range(n_modes - 1, 1, -1):
        key = ((charge[(q, q)] * n_labels + charge[(0, q)]) * n_labels + charge[(0, q - 1)]) * n_labels
        amps = f[key[i] + rest]
        found = amps != 0
        if q == 2:  # R_1 is leaf 2
            found &= np.arange(n_labels) == charge[(1, 1)][i, None]
        keep, rest = np.nonzero(found)
        i, amps = i[keep], amps[keep, rest]
        code = code[keep] + rest * place[(0, q - 1)]
        path = 0.0 + _times(amps, path[keep])
    keep = np.abs(path) > DROP_TOLERANCE
    i, code = i[keep], code[keep]
    b0 = code // place[top]  # the root charge is the codes' leading digit
    vals = 0.0 + _times(weights[b0, charge[top][i]], np.conj(path[keep]))
    keep = np.abs(vals) > DROP_TOLERANCE
    rows = np.searchsorted(canonical.table.codes, code[keep])
    return SparseOperator.from_entries(canonical, cols, (rows, start[i[keep]], vals[keep]))


def transport_to_mode(op: SparseOperator, k: int) -> SparseOperator:
    """Braid-transport a mode-1 operator to mode ``k`` (behind modes 2..k)."""
    return _transports(op, k)[k]


@_memo
def annihilating_element(
    model: AnyonModel, n_modes: int, a: str, b0: str, c0: str, mode: int = 1
) -> SparseOperator:
    """The annihilating element ``a_mode^{b0, c0}`` on the canonical basis."""
    ai, bi, ci = model.index(a), model.index(b0), model.index(c0)
    if ci not in model.fuse(ai, bi):
        raise ModelDataError(f"{c0} is not a fusion channel of {a} x {b0}")
    if n_modes == 1 and bi != model.vacuum:
        raise ModelDataError("a single mode has no rest system; b0 must be the vacuum")
    return _element_family(model, n_modes, ai, [(bi, ci, 1.0)], mode)[mode]


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTable:
    """0/1 coefficients of one annihilation operator ``alpha^(j)`` for ``particle``.

    ``entries`` maps every allowed pair ``(b0, c0)`` (labels) to its
    coefficient; exactly one channel per ``b0`` carries 1.
    """

    particle: str
    j: int
    entries: dict[tuple[str, str], complex]

    def coefficient(self, b0: str, c0: str) -> complex:
        return self.entries.get((b0, c0), 0.0)


def j_count(model: AnyonModel, a: str) -> int:
    """Number of annihilation operators: ``n_a - n + 1``."""
    ai = model.index(a)
    n_a = sum(len(model.fuse(ai, b)) for b in range(model.n_labels))
    return n_a - model.n_labels + 1


def j_lower_bound(model: AnyonModel, a: str) -> int:
    """Lower bound ``max_b |channels(a x b)|`` on the operator count."""
    ai = model.index(a)
    return max(len(model.fuse(ai, b)) for b in range(model.n_labels))


def coefficient_tables(model: AnyonModel, a: str) -> list[CoefficientTable]:
    """The ``J`` coefficient tables for particle ``a``.

    Table 0 selects the first fusion channel of every rest charge; each
    subsequent table walks the off-first channels in (label order, channel
    order), promoting exactly one of them and zeroing that row's first
    channel.
    """
    ai = model.index(a)
    labels = model.labels
    channels = {b: model.fuse(ai, b) for b in range(model.n_labels)}

    def table_entries(selected: dict[int, int]) -> dict[tuple[str, str], complex]:
        entries = {}
        for b, chans in channels.items():
            for c in chans:
                entries[(labels[b], labels[c])] = 1.0 if selected[b] == c else 0.0
        return entries

    first = {b: chans[0] for b, chans in channels.items()}
    tables = [CoefficientTable(a, 0, table_entries(first))]
    for b in range(model.n_labels):
        for c in channels[b][1:]:
            selected = dict(first)
            selected[b] = c
            tables.append(CoefficientTable(a, len(tables), table_entries(selected)))
    assert len(tables) == j_count(model, a)
    return tables


# ---------------------------------------------------------------------------
# Ladder sets
# ---------------------------------------------------------------------------


@dataclass
class LadderSet:
    """All annihilation operators ``alpha^(j)_k`` of one particle type.

    ``ops[(k, j)]`` is the operator for mode ``k`` (1-based) and table ``j``;
    adjoints are the creation operators.
    """

    model: AnyonModel
    n_modes: int
    particle: str
    tables: list[CoefficientTable]
    ops: dict[tuple[int, int], SparseOperator]

    @property
    def j_count(self) -> int:
        return len(self.tables)

    def op(self, k: int, j: int = 0) -> SparseOperator:
        return self.ops[(k, j)]


@_memo
def ladder_set(model: AnyonModel, n_modes: int, particle: str) -> LadderSet:
    """The ``J`` annihilation operators of ``particle`` on all modes.

    Built once per (model, n_modes, particle); every caller shares the
    returned set, which must not be modified.
    """
    tables = coefficient_tables(model, particle)
    ai = model.index(particle)
    ops: dict[tuple[int, int], SparseOperator] = {}
    for table in tables:
        terms = [
            (model.index(b0), model.index(c0), coeff)
            for (b0, c0), coeff in table.entries.items()
            if coeff != 0.0
        ]
        for k, op in _element_family(model, n_modes, ai, terms, n_modes).items():
            ops[(k, table.j)] = op
    return LadderSet(model, n_modes, particle, tables, ops)


def identity_ladder(model: AnyonModel, n_modes: int, mode: int = 1) -> SparseOperator:
    """The vacuum-type annihilation operator: the projector onto vacuum in ``mode``.

    Equals ``alpha^(j)_k alpha^(j)_k^dagger`` for any annihilation operator of
    any particle type, which is how it is expressed in ladder polynomials.
    """
    terms = [(b0, b0, 1.0) for b0 in range(model.n_labels)]
    return _element_family(model, n_modes, model.vacuum, terms, mode)[mode]


# ---------------------------------------------------------------------------
# The special Fibonacci pair
# ---------------------------------------------------------------------------

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class FibonacciPair:
    """The two unnormalised Fibonacci operators per mode.

    ``alpha_k = tau_k^{e,tau}/sqrt(2) + tau_k^{tau,e}`` and
    ``beta_k  = tau_k^{e,tau}/sqrt(2) + tau_k^{tau,tau}`` (terms whose rest
    charge is unreachable at small mode counts are absent).
    """

    model: AnyonModel
    n_modes: int
    alpha: dict[int, SparseOperator]
    beta: dict[int, SparseOperator]


def fibonacci_type(model: AnyonModel) -> int | None:
    """The non-vacuum type of a two-type model with ``tau x tau = e + tau``, else None."""
    if model.n_labels != 2:
        return None
    tau = 1 - model.vacuum
    return tau if set(model.fuse(tau, tau)) == {model.vacuum, tau} else None


def fibonacci_pair(model: AnyonModel, n_modes: int, sector=None) -> FibonacciPair:
    """Build the unnormalised ``alpha_k``/``beta_k`` pair on every mode.

    With a total charge ``sector`` (a label or an index), each operator keeps
    its rows on the full canonical basis and its columns on that sector's
    basis: the full operators' sector columns, bit for bit, built without
    transporting the other columns.
    """
    tau = fibonacci_type(model)
    if tau is None:
        raise ModelDataError(
            "the unnormalised pair is specific to Fibonacci-type models "
            "(two particle types, tau x tau = e + tau)"
        )
    e = model.vacuum
    alpha_terms = [(e, tau, _SQRT_HALF), (tau, e, 1.0)]
    beta_terms = [(e, tau, _SQRT_HALF), (tau, tau, 1.0)]
    sector = None if sector is None else model.charge(sector)
    alpha = _element_family(model, n_modes, tau, alpha_terms, n_modes, sector)
    beta = _element_family(model, n_modes, tau, beta_terms, n_modes, sector)
    return FibonacciPair(model, n_modes, alpha, beta)


def fermion_type(model: AnyonModel) -> int | None:
    """The non-vacuum type of a two-type model whose square is the vacuum, else None."""
    if model.n_labels != 2:
        return None
    psi = 1 - model.vacuum
    return psi if model.fuse(psi, psi) == (model.vacuum,) else None


def fermion_annihilator(model: AnyonModel, n_modes: int, k: int = 1) -> SparseOperator:
    """The canonical fermionic annihilator ``f_k = psi_k^{e,psi} - psi_k^{psi,e}``.

    ``model`` must have a single non-vacuum type ``psi`` with
    ``psi x psi = e``; the resulting family satisfies the anticommutation
    relations ``{f_i, f_j} = 0`` and ``{f_i, f_j^dagger} = delta_ij``.  On a
    single mode the rest charge ``psi`` cannot occur, and ``f_1`` is
    ``psi_1^{e,psi}`` alone.
    """
    psi = fermion_type(model)
    if psi is None:
        raise ModelDataError(
            "the fermionic annihilator needs a two-type model whose non-vacuum "
            "type squares to the vacuum"
        )
    e = model.vacuum
    return _element_family(model, n_modes, psi, [(e, psi, 1.0), (psi, e, -1.0)], k)[k]


# ---------------------------------------------------------------------------
# Generator symbols
# ---------------------------------------------------------------------------


def _shared_pair(model: AnyonModel, n_modes: int, sector=None) -> FibonacciPair:
    """The one pair per (model, n_modes, sector) that resolvers, Hamiltonians
    and occupation profiles share.

    ``sector`` (a label or an index, None for every charge) puts the columns
    on that total-charge sector, as :func:`fibonacci_pair` does; a label and
    its index share one cached pair.
    """
    return _pair_on(model, n_modes, None if sector is None else model.charge(sector))


@_memo
def _pair_on(model: AnyonModel, n_modes: int, sector: int | None) -> FibonacciPair:
    # fibonacci_pair builds a fresh pair on every call; this keeps the one
    # copy per sector.  It calls fibonacci_pair through the module global, so
    # a rebound (for example, wrapped) fibonacci_pair is used.
    return fibonacci_pair(model, n_modes, sector)


def resolver(model: AnyonModel, n_modes: int):
    """Map undaggered ``std`` and ``pair`` generator symbols to their matrices.

    Ladder sets and the Fibonacci pair are built on first use and kept in the
    model's operator cache, so every resolver of one (model, n_modes) shares them.
    """

    def resolve(symbol: GeneratorSymbol) -> SparseOperator:
        if symbol.dagger:
            raise ValueError("resolver expects undaggered symbols")
        if symbol.kind == "std":
            return ladder_set(model, n_modes, symbol.particle).op(symbol.mode, symbol.j)
        pair = _shared_pair(model, n_modes)
        return {"alpha": pair.alpha, "beta": pair.beta}[symbol.particle][symbol.mode]

    return resolve
