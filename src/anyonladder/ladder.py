"""Annihilating elements and annihilation-operator sets.

The mode-1 annihilating element ``a^{b0,c0}_1`` sends the particle ``a`` in
mode 1 to the vacuum while the remaining modes carry total charge ``b0``:
in the factored shape ``(mode 1) x (rest)`` it is
``sum_y |e, y; b0><a, y; c0|`` with ``y`` running over the rest labelings of
charge ``b0`` and ``c0`` a channel of ``a x b0``.  Elements for mode ``k``
are defined by braid transport behind the intermediate modes:
``a_k = B_{k-1,k} a_{k-1} B_{k-1,k}^dagger``.

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

from . import trees
from .basis import (
    FusionTreeBasis, SparseOperator, braid_adjacent, _conjugate, _factored_states,
    _label_table, _memo, _pairs,
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


@_memo
def _mode1_element(model: AnyonModel, n_modes: int, a: int, b0: int, c0: int) -> SparseOperator:
    if c0 not in model.fuse(a, b0):
        raise ModelDataError(
            f"{model.labels[c0]} is not a fusion channel of "
            f"{model.labels[a]} x {model.labels[b0]}"
        )
    if n_modes == 1 and b0 != model.vacuum:
        raise ModelDataError("a single mode has no rest system; b0 must be the vacuum")
    w, b, y, x, g = _factored_states(model, n_modes, 1)
    e_pos, a_pos = FusionTreeBasis(model, 1).table.find([[model.vacuum], [a]])
    # |e, y; b0><a, y; c0| for every rest labeling y of charge b0
    rows, cols = _pairs(y)
    keep = (x[rows] == e_pos) & (b[rows] == b0) & (x[cols] == a_pos) & (g[cols] == c0)
    owner = np.zeros(keep.sum(), dtype=int)
    return _conjugate(w, rows[keep], cols[keep], np.ones(len(owner)), owner, 1).operator(0)


def _transports(op: SparseOperator, last_mode: int) -> dict[int, SparseOperator]:
    """A mode-1 operator on modes ``1..last_mode``, each transported from the one before.

    The columns of ``op`` may be one total-charge sector of the canonical
    basis.  Braids keep the total charge, so each transport multiplies by the
    ``under`` braid's block on that sector alone, and every stored entry sums
    the terms of the full-basis product in their order: the result is the
    full transport's sector columns, bit for bit.
    """
    model = op.row_basis.model
    n = op.row_basis.n_modes
    if not 1 <= last_mode <= n:
        raise ValueError(f"mode {last_mode} out of range for {n} modes")
    cols = op.col_basis
    idx = None if cols.sector is None else op.row_basis.sector_indices(cols.sector)
    family = {1: op}
    for k in range(2, last_mode + 1):
        over, under = (braid_adjacent(model, n, k - 1, sense) for sense in ("over", "under"))
        if idx is not None:
            under = SparseOperator(cols, cols, under.matrix[idx][:, idx])
        family[k] = over @ family[k - 1] @ under
    return family


def _element_family(
    model: AnyonModel, n_modes: int, a: int, terms, last_mode: int,
    cols: FusionTreeBasis | None = None,
) -> dict[int, SparseOperator]:
    """``sum weight * a^{b0,c0}`` over ``terms = [(b0, c0, weight), ...]``.

    Terms are added in the given order at mode 1, skipping those whose rest
    charge ``b0`` is unreachable on ``n_modes`` modes; the sum is then
    braid-transported to modes ``1..last_mode``.  ``cols``, a sector of the
    canonical basis, keeps only the columns of that sector before the
    transport; rows stay on the full canonical basis.
    """
    available = rest_charges(model, n_modes)
    basis = FusionTreeBasis(model, n_modes)
    op = SparseOperator.zero(basis)
    for b0, c0, weight in terms:
        if b0 in available:
            op = op + weight * _mode1_element(model, n_modes, a, b0, c0)
    op = op.drop()
    if cols is not None:
        op = SparseOperator(basis, cols, op.matrix[:, basis.sector_indices(cols.sector)])
    return _transports(op, last_mode)


def transport_to_mode(op: SparseOperator, k: int) -> SparseOperator:
    """Braid-transport a mode-1 operator to mode ``k`` (behind modes 2..k)."""
    return _transports(op, k)[k]


@_memo
def annihilating_element(
    model: AnyonModel, n_modes: int, a: str, b0: str, c0: str, mode: int = 1
) -> SparseOperator:
    """The annihilating element ``a_mode^{b0, c0}`` on the canonical basis."""
    ai, bi, ci = model.index(a), model.index(b0), model.index(c0)
    return transport_to_mode(_mode1_element(model, n_modes, ai, bi, ci), mode)


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
    terms = [(b0, b0, 1.0) for b0 in rest_charges(model, n_modes)]
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
    cols = None if sector is None else FusionTreeBasis(model, n_modes, sector=sector)
    alpha = _element_family(model, n_modes, tau, alpha_terms, n_modes, cols)
    beta = _element_family(model, n_modes, tau, beta_terms, n_modes, cols)
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
