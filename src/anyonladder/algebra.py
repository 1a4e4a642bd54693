"""Local observables, their ladder-polynomial decomposition, and algebra checks.

Locality here is the behind-bipartition notion: a region ``S`` of modes is
local when its modes braid behind the complementary modes.  For the
contiguous region ``{1..M}`` the system factors as
``(modes 1..M) x (modes M+1..N)`` and every local observable is a linear
combination of ``E_{x,x'} = |x><x'| (x) id_rest`` with ``x, x'`` running
over the M-mode fusion states of equal charge.  A general region
``S = {s_1 < .. < s_M}`` is pulled back to ``{1..M}`` by a braid-word
unitary; its annihilation operators map onto the mode-relabeled ones.

The decomposition follows the constructive route: every region state ``x``
has an operator ``O_x`` ("master equation") built from annihilating
elements and F-weights, each element rewrites into the 0/1 annihilation
operators, and ``op = sum c_{x,x'} O_x^dagger O_{x'}``.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import trees
from .basis import (
    FusionTreeBasis, SparseOperator, braid_word, _conjugate, _entries, _factored_states, _memo,
    _pairs, _require_finite, _values_at,
)
from .ladder import (
    _shared_pair,
    coefficient_tables,
    fermion_type,
    ladder_set,
    resolver,
    rest_charges,
    transport_to_mode,
)
from .model import AnyonModel, ModelDataError, ValidationReport, rounding_cut
from .polynomial import GeneratorSymbol, LadderPolynomial, _PolynomialFrame, _letter

__all__ = [
    "RegionState",
    "candidate_local_basis",
    "local_candidate_span",
    "observable_basis",
    "region_states",
    "is_local_candidate",
    "mode_relabel_unitary",
    "o_polynomial",
    "system_totals",
    "element_polynomial",
    "abelian_sum_polynomial",
    "Decomposition",
    "decompose_observable",
    "verify_relations",
    "fock_words",
    "fock_word",
    "apply_word",
    "vacuum_index",
    "kernel_dimension",
    "ClosureResult",
    "algebra_closure",
    "commutant_is_trivial",
]


# ---------------------------------------------------------------------------
# Factored-shape machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionState:
    """One fusion state of the region modes ``1..M`` (canonical M-mode basis)."""

    index: int  # position in the M-mode canonical basis
    leaves: tuple[int, ...]
    internals: tuple[int, ...]  # d_1 .. d_{M-1}; empty for M == 1
    charge: int  # total charge g of the region

    def label(self, model: AnyonModel) -> str:
        names = model.labels
        leaves = ",".join(names[a] for a in self.leaves)
        if self.internals:
            return f"({leaves};{','.join(names[d] for d in self.internals)})"
        return f"({leaves})"


def region_states(model: AnyonModel, m: int) -> list[RegionState]:
    table = FusionTreeBasis(model, m).table
    leaves = table.rows[:, [table.spans.index((k, k)) for k in range(m)]].tolist()
    internals = table.rows[:, [p for p, s in enumerate(table.spans) if s[0] != s[1]]].tolist()
    totals = table.column((0, m - 1)).tolist()
    return [RegionState(i, tuple(a), tuple(d), g)
            for i, (a, d, g) in enumerate(zip(leaves, internals, totals))]


@_memo
def observable_basis(model: AnyonModel, n_modes: int, m: int):
    """The operators ``E_{x,x'} = |x><x'| (x) id`` spanning region observables.

    Returns ``(pairs, ops)`` where ``pairs`` lists the (x, x') region-state
    pairs of equal charge and ``ops`` the corresponding canonical-basis
    operators.
    """
    pairs, block = _observable_block(model, n_modes, tuple(range(1, m + 1)))
    return pairs, [block.operator(k) for k in range(len(pairs))]


def _moved_states(model: AnyonModel, n_modes: int, s: tuple[int, ...]):
    """:func:`basis._factored_states` of the sorted region ``s``, its
    recoupling ``W`` moved onto the region as ``W U``, ``U`` the region's
    relabel unitary: ``(W U)^dagger M (W U) = U^dagger (W^dagger M W) U``,
    so one ``_conjugate`` by it gives an operator of the front region moved
    onto ``s``.  A front region keeps ``W`` itself."""
    w, *labels = _factored_states(model, n_modes, len(s))
    if s != tuple(range(1, len(s) + 1)):
        w = w @ _mode_relabel_unitaries(model, n_modes, s)
    return (w, *labels)


@_memo
def _observable_block(model: AnyonModel, n_modes: int, s: tuple[int, ...]):
    """``(pairs, block)``: the pairs of :func:`observable_basis` and its
    operators ``E = W^dagger M W`` moved onto the sorted region ``s``,
    ``U^dagger E U`` with ``U`` the region's relabel unitary, as one
    ``_CSRBlock`` conjugated by :func:`_moved_states`."""
    w, _b0, y, x, g = _moved_states(model, n_modes, s)
    states = region_states(model, len(s))
    pairs = [(r, rp) for r in states for rp in states if r.charge == rp.charge]
    slot = np.full((len(states), len(states)), -1)
    for k, (r, rp) in enumerate(pairs):
        slot[r.index, rp.index] = k
    # E_{x,x'} joins the factored states of equal rest labeling and total charge
    rows, cols = _pairs(y * model.n_labels + g)
    owner = slot[x[rows], x[cols]]
    keep = owner >= 0
    return pairs, _conjugate(w, rows[keep], cols[keep], np.ones(keep.sum()), owner[keep], len(pairs))


@_memo
def _coordinate_entries(model: AnyonModel, n_modes: int, s: tuple[int, ...], span_block):
    """The operators of ``span_block(model, n_modes, s)``, which returns
    ``(labels, block)``, as entry lists over their union support: ``(owner,
    pos, vals, support, norms)``, entry ``k`` being ``vals[k]`` of operator
    ``owner[k]`` at the flat position ``support[pos[k]]``, and ``norms``
    each operator's squared norm."""
    labels, block = span_block(model, n_modes, s)
    dim = block.row_basis.dim
    owner = np.repeat(np.arange(len(labels)), np.diff(block.indptr[::dim]))
    support, pos = np.unique(block.rows * np.int64(dim) + block.indices, return_inverse=True)
    norms = np.bincount(owner, np.abs(block.data) ** 2, len(labels))
    return owner, pos, block.data, support, norms


def _coordinates(entries, basis: FusionTreeBasis, s: tuple[int, ...], span_block):
    """``(y, residual)`` for the operator whose :func:`basis._entries` are
    ``entries``: its coordinates ``y_p = <E_p, op> / |E_p|^2`` on the
    operators ``E_p`` of ``span_block`` (:func:`_observable_block` or
    :func:`_candidate_block`) moved onto ``s``, which are mutually
    orthogonal, and the largest entry of ``op - sum_p y_p E_p``.  Both are
    read on entry lists in ``op``'s own frame; nothing is braided or made
    dense."""
    owner, pos, vals, support, norms = _coordinate_entries(basis.model, basis.n_modes, s, span_block)
    at, rest = _values_at(entries, support)
    overlap = at[pos] * vals.conj()
    y = (np.bincount(owner, overlap.real, len(norms))
         + 1j * np.bincount(owner, overlap.imag, len(norms))) / norms
    share = y[owner] * vals
    fit = np.bincount(pos, share.real, len(support)) + 1j * np.bincount(pos, share.imag, len(support))
    return y, float(max(np.abs(at - fit).max(initial=0.0), np.abs(rest).max(initial=0.0)))


def candidate_local_basis(model: AnyonModel, n_modes: int, mode: int = 1):
    """Basis of the candidate local algebra of a single mode.

    The single-mode case of :func:`local_candidate_span`: elements
    ``A^{a,a',b0}_{d,d'} = sum_y |a,y;d><a',y;d'|`` in the factored shape,
    with ``y`` running over rest labelings of charge ``b0``, ``d`` a channel
    of ``a x b0`` and ``d'`` of ``a' x b0``.  These include total-charge
    changing elements (d != d'); for a Fibonacci mode with rest charges
    {e, tau} there are 13 of them.  ``mode > 1`` braids the basis into place;
    a bool or a ``mode`` of no integer type raises ``ValueError``, as a mode
    outside ``1..n_modes`` does.  The package itself reads
    :func:`local_candidate_span`; this labelled form is public API, and
    ``perfbench/spans.py`` traces it.
    """
    (mode,) = _region((mode,), n_modes)
    labels = model.labels
    metas, ops = local_candidate_span(model, n_modes, 1)
    return [
        (
            {
                "a": labels[meta["x"][0]],
                "a_prime": labels[meta["xp"][0]],
                "b0": meta["b0"],
                "d": labels[meta["G"]],
                "d_prime": labels[meta["Gp"]],
            },
            transport_to_mode(op, mode),
        )
        for meta, op in zip(metas, ops)
    ]


@_memo
def local_candidate_span(model: AnyonModel, n_modes: int, m: int):
    """Spanning set of all candidate-local operators of region ``{1..M}``.

    Elements ``A = sum_{y: b0} |x,y;G><x',y;G'|`` resolve the rest charge
    ``b0`` and may change the total charge (``x, x'`` of any charges).  The
    single-mode case reproduces the 13-element Fibonacci set; ``m == n``
    gives the full matrix algebra.  Returns ``(metas, ops)``, the front
    region's :func:`_candidate_block` as operators.
    """
    metas, block = _candidate_block(model, n_modes, tuple(range(1, m + 1)))
    return metas, [block.operator(k) for k in range(len(metas))]


@_memo
def _candidate_block(model: AnyonModel, n_modes: int, s: tuple[int, ...]):
    """``(metas, block)``: the elements of :func:`local_candidate_span`,
    keyed by ``metas``, moved onto the sorted region ``s`` as one
    ``_CSRBlock`` conjugated by :func:`_moved_states`."""
    w, b0, y, x, g = _moved_states(model, n_modes, s)
    region = FusionTreeBasis(model, len(s)).table.rows
    order = np.lexsort(region.T[::-1])  # region labelings in tuple order
    rank = np.argsort(order)
    # sum_{y: b0} |x,y;G><x',y;G'| for every (b0, x, G, x', G') with support,
    # keyed in that order with x, x' compared as labeling tuples
    rows, cols = _pairs(y)
    dims = (model.n_labels, len(region), model.n_labels, len(region), model.n_labels)
    key = np.ravel_multi_index((b0[rows], rank[x[rows]], g[rows], rank[x[cols]], g[cols]), dims)
    keys, owner = np.unique(key, return_inverse=True)
    block = _conjugate(w, rows, cols, np.ones(len(rows)), owner, len(keys))
    labelings = list(map(tuple, region[order].tolist()))
    metas = [
        {"b0": model.labels[b], "x": labelings[r], "G": G, "xp": labelings[rp], "Gp": Gp}
        for b, r, G, rp, Gp in zip(*(part.tolist() for part in np.unravel_index(keys, dims)))
    ]
    return metas, block


def mode_relabel_unitary(model: AnyonModel, n_modes: int, modes) -> SparseOperator:
    """Braid-word unitary ``U`` with ``U A_S U^dagger = A_{1..M}``.

    ``U`` is a product of under-crossings pulling the region modes
    ``S = {s_1 < .. < s_M}`` to the front while staying behind the others;
    conjugation by ``U^dagger`` maps the annihilation operators of mode ``k``
    to those of mode ``s_k``.  ``modes`` is any iterable of mode numbers; the
    result is kept per sorted region and shared, so it must not be modified.
    """
    return _mode_relabel_unitaries(model, n_modes, _region(modes, n_modes))


def _region(modes, n_modes: int) -> tuple[int, ...]:
    """``modes`` as a sorted tuple of ``int``, after checking that it names
    one or more distinct modes of ``1..n_modes``; a bool or a mode of no
    integer type is refused."""
    s = []
    for mode in modes:
        if isinstance(mode, bool) or not isinstance(mode, numbers.Integral):
            raise ValueError(f"invalid mode {mode!r}: not an integer")
        s.append(int(mode))
    s = tuple(sorted(s))
    if not s or s[0] < 1 or s[-1] > n_modes or len(set(s)) != len(s):
        raise ValueError(f"invalid region {s} for {n_modes} modes")
    return s


@_memo
def _mode_relabel_unitaries(model: AnyonModel, n_modes: int, s: tuple[int, ...]):
    """``U`` of :func:`mode_relabel_unitary` for the sorted region ``s``."""
    m = len(s)
    word = []
    for i in range(m):
        target = s[m - 1 - i]
        for j in range(m - i + 1, target + 1):
            word.append((j - 1, "under"))
    return braid_word(model, n_modes, word)


def _canonical_basis(op: SparseOperator) -> FusionTreeBasis:
    """The basis ``op`` acts on, after checking that its rows and its columns
    are both over the one unsectored left-comb basis."""
    basis = op.row_basis
    if not (
        basis.sector is None
        and basis.shape == trees.left_comb(0, basis.n_modes - 1)
        and op.col_basis.is_compatible(basis)
    ):
        raise ValueError(
            "operator must map the unsectored left-comb basis of its modes to itself"
        )
    return basis


def is_local_candidate(op: SparseOperator, modes, tol: float = 1e-10):
    """Whether ``op`` lies in the candidate-local span of the region ``modes``.

    ``op`` is projected onto the rest-charge-resolved spanning set (which
    contains all ladder operators of the region, including total-charge
    changing ones) moved onto the region, as :func:`decompose_observable`
    reads its observable coordinates.  Returns ``(flag, residual)``, a
    ``bool`` and a ``float``, with ``residual`` the largest entry the
    projection leaves in ``op``'s own frame, zero up to :func:`rounding_cut`
    over ``dim`` and ``op``'s largest entry.  The span equals the commutant
    of the observables local on the complement, charge-changing elements
    included; projecting onto it avoids forming that commutant.  The span's
    elements have disjoint 0/1 entries in the factored basis, so they are
    mutually orthogonal and the least-squares fit has a closed form: each
    coefficient is the element's overlap with ``op`` over its squared norm,
    read from ``op``'s stored entries.  No dense array is formed.  An ``op``
    with a non-finite entry raises ``ValueError`` before any other check.
    """
    _require_finite(op)
    basis = _canonical_basis(op)
    s = _region(modes, basis.n_modes)
    residual = _coordinates(_entries(op), basis, s, _candidate_block)[1]
    return bool(residual <= rounding_cut(tol, basis.dim, op.norm_max())), residual


# ---------------------------------------------------------------------------
# Master-equation operators
# ---------------------------------------------------------------------------


def system_totals(model: AnyonModel, n_modes: int, x: RegionState) -> tuple[int, ...]:
    """Total charges ``g`` the region content ``x`` can coexist with."""
    out = set()
    for b0 in rest_charges(model, n_modes):
        out.update(model.fuse(x.charge, b0))
    return tuple(sorted(out))


def _as_region_state(model: AnyonModel, leaves, internals) -> RegionState:
    """Normalize label/index sequences into a fusion-consistent RegionState."""
    a = tuple(map(model.charge, leaves))
    d = tuple(map(model.charge, internals))
    if not a:
        raise ValueError("region content needs at least one leaf charge")
    if len(d) != len(a) - 1:
        raise ValueError(
            f"{len(a)} leaves need {len(a) - 1} internal charges, got {len(d)}"
        )
    cur = a[0]
    for step, (leaf, nxt) in enumerate(zip(a[1:], d), start=1):
        if nxt not in model.fuse(cur, leaf):
            raise ValueError(
                f"internal charge {model.labels[nxt]} at step {step} is not a "
                f"fusion outcome of {model.labels[cur]} x {model.labels[leaf]}"
            )
        cur = nxt
    charge = d[-1] if d else a[0]
    return RegionState(-1, a, d, charge)


def _factor_terms(model: AnyonModel, n_modes: int, x: RegionState, g: int, p: int):
    """``(b, c, weight)`` terms of the mode-``p`` factor of ``O_{x,g}``.

    Mode 1 takes ``(b, g, 1)`` for every reachable rest charge ``b`` with
    ``g`` in ``a_1 x b``; mode ``p > 1`` takes
    ``[F^{d_{p-2} a_p b}_g]^*_{d_{p-1} c}`` for every reachable ``b`` and
    channel ``c`` of ``a_p x b``, leaving out weights below 1e-14.
    """
    a_p = x.leaves[p - 1]
    available = rest_charges(model, n_modes)
    if p == 1:
        return [(b, g, 1.0) for b in available if g in model.fuse(a_p, b)]
    ds = (x.leaves[0],) + x.internals  # d_0 = a_1, d_1 .. d_{M-1}
    terms = []
    for b in available:
        for c in model.fuse(a_p, b):
            weight = np.conj(model.f_entry(ds[p - 2], a_p, b, g, ds[p - 1], c))
            if abs(weight) > 1e-14:
                terms.append((b, c, weight))
    return terms


def abelian_sum_polynomial(model: AnyonModel, a: int, k: int) -> LadderPolynomial:
    """Polynomial for ``sum_{b abelian} (a)_k^{b, a x b}``.

    Individual abelian-rest elements are not ladder-expressible; only this
    sum is.  It equals ``alpha^(0)`` minus the multi-channel first-channel
    elements minus the non-abelian single-channel elements.
    """
    if a == model.vacuum:
        # sum_{b abelian} (e)^{b,b} = P(mode k = e) - non-abelian (e)^{b,b} terms
        parts = [(1.0, _vacuum_projector_polynomial(model, k))]
        for b in range(model.n_labels):
            if not model.abelian[b]:
                parts.append((-1.0, element_polynomial(model, k, a, b, b)))
        return LadderPolynomial.sum(parts)
    label = model.labels[a]
    sym0 = GeneratorSymbol(k, "std", label, 0, False)
    parts = [(1.0, LadderPolynomial.generator(sym0))]
    for b in range(model.n_labels):
        channels = model.fuse(a, b)
        if len(channels) > 1 or not model.abelian[b]:
            parts.append((-1.0, element_polynomial(model, k, a, b, channels[0])))
    return LadderPolynomial.sum(parts)


def _vacuum_projector_polynomial(model: AnyonModel, k: int) -> LadderPolynomial:
    """``P(mode k = vacuum) = alpha^(0)_k alpha^(0)_k^dagger`` of any particle."""
    particle = next(
        (i for i in range(model.n_labels) if i != model.vacuum), None
    )
    if particle is None:
        raise ModelDataError("model has no non-vacuum particle type")
    label = model.labels[particle]
    sym = GeneratorSymbol(k, "std", label, 0, False)
    return LadderPolynomial([(1.0, (sym, sym.adjoint()))])


def element_polynomial(model: AnyonModel, k: int, a: int, b0: int, c0: int) -> LadderPolynomial:
    """Ladder polynomial of the annihilating element ``(a)_k^{b0,c0}``.

    Requires ``b0`` non-abelian, or ``a`` the vacuum with ``b0`` non-abelian;
    abelian rests are only expressible through
    :func:`abelian_sum_polynomial`.
    """
    if model.abelian[b0]:
        raise ModelDataError(
            "elements with an abelian rest charge are not individually "
            "ladder-expressible; use abelian_sum_polynomial"
        )
    if a == model.vacuum:
        # (e)^{b,b} = Q Q^dagger with Q the polynomial of (a_s)^{b, c_t}
        a_s, c_t = _multichannel_partner(model, b0)
        q = element_polynomial(model, k, a_s, b0, c_t)
        return q @ q.adjoint()

    label = model.labels[a]
    channels = model.fuse(a, b0)
    tables = coefficient_tables(model, label)
    sym0 = GeneratorSymbol(k, "std", label, 0, False)
    a0 = LadderPolynomial.generator(sym0)

    def offfirst_poly(c: int) -> LadderPolynomial:
        j = _table_selecting(model, tables, b0, c)
        symj = GeneratorSymbol(k, "std", label, j, False)
        aj = LadderPolynomial.generator(symj)
        return aj - LadderPolynomial([(1.0, (symj, sym0.adjoint(), sym0))])

    if len(channels) > 1:
        if c0 != channels[0]:
            return offfirst_poly(c0)
        # first channel: alpha^(0) - alpha^(j) + (a)^{b0, c_2}
        j = _table_selecting(model, tables, b0, channels[1])
        symj = GeneratorSymbol(k, "std", label, j, False)
        return (
            a0
            - LadderPolynomial.generator(symj)
            + offfirst_poly(channels[1])
        )

    # single channel, non-abelian b0: projector trick
    a_s, c_t = _multichannel_partner(model, b0)
    q = element_polynomial(model, k, a_s, b0, c_t)
    parts = [(1.0, a0)]
    for b in range(model.n_labels):
        chans = model.fuse(a, b)
        if len(chans) > 1:
            parts.append((-1.0, element_polynomial(model, k, a, b, chans[0])))
    return q @ q.adjoint() @ LadderPolynomial.sum(parts)


def _table_selecting(model: AnyonModel, tables, b0: int, c0: int) -> int:
    b_label = model.labels[b0]
    c_label = model.labels[c0]
    for table in tables[1:]:
        if abs(table.coefficient(b_label, c_label) - 1.0) < 1e-12:
            return table.j
    raise ModelDataError(
        f"no coefficient table selects channel {c_label} for rest {b_label}"
    )


def _multichannel_partner(model: AnyonModel, b0: int) -> tuple[int, int]:
    """First particle with >= 2 channels against ``b0`` and its second channel."""
    for a_s in range(model.n_labels):
        channels = model.fuse(a_s, b0)
        if len(channels) > 1:
            return a_s, channels[1]
    raise ModelDataError(
        f"particle {model.labels[b0]} has single-channel fusion with every type; "
        "it is abelian"
    )


def o_polynomial(model: AnyonModel, n_modes: int, leaves, internals, g) -> LadderPolynomial:
    """Ladder polynomial realizing ``O_{a,d,g}`` on region modes ``1..M``.

    Abelian-rest terms inside each factor are only expressible through the
    full abelian sum, so the realized operator can differ from the strict
    master-equation operator (``tests/oracles.py::o_operator``) by extra
    abelian-rest terms living in other total-charge sectors.  Observable
    reconstruction is unaffected: the decomposition fits coefficients
    against the evaluated polynomial products themselves.  A factor whose
    compatible abelian rests carry different F-weights has no ladder
    realization and raises ``ModelDataError``.
    """
    x = _as_region_state(model, leaves, internals)
    gi = model.charge(g)

    def factor_polynomial(p: int) -> LadderPolynomial:
        a_p = x.leaves[p - 1]
        parts = []
        abelian_weights = []
        for b, c, weight in _factor_terms(model, n_modes, x, gi, p):
            if model.abelian[b]:
                abelian_weights.append(weight)
            else:
                parts.append((weight, element_polynomial(model, p, a_p, b, c)))
        if abelian_weights:
            w0 = abelian_weights[0]
            if any(abs(w - w0) > 1e-12 for w in abelian_weights[1:]):
                raise ModelDataError(
                    f"factor at mode {p} mixes abelian rest charges with "
                    "different F-weights; no ladder realization exists"
                )
            parts.append((w0, abelian_sum_polynomial(model, a_p, p)))
        return LadderPolynomial.sum(parts)

    result = factor_polynomial(1)
    for p in range(2, len(x.leaves) + 1):
        result = factor_polynomial(p) @ result
    return result


@_memo
def _word_cache(model: AnyonModel, n_modes: int) -> dict:
    """Word products on ``n_modes`` modes, filled in by every evaluation that shares it."""
    return {}


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """Result of decomposing a local observable into ladder polynomials.

    ``coefficients`` maps ``(x_label, x'_label, variant)`` to the fitted
    weight of that realizable product column; ``variant`` is ``"sum"`` for
    the total-charge sum and ``"distinct"`` for its deduplicated form (only
    present when abelian-rest realizations repeat across charges).
    ``span_residual`` is the larger of the largest entry the observable
    coordinates leave of the operator and the largest the realised span
    misses of them.
    """

    modes: tuple[int, ...]
    polynomial: LadderPolynomial
    coefficients: dict[tuple[str, str, str], complex]
    span_residual: float
    eval_residual: float

    def summary(self) -> str:
        lines = [
            f"modes: {list(self.modes)}",
            f"span residual: {self.span_residual:.3e}",
            f"evaluation residual: {self.eval_residual:.3e}",
            f"terms: {self.polynomial.n_terms}",
        ]
        return "\n".join(lines)


@_memo
def _product_frame(model: AnyonModel, n_modes: int, m: int):
    """The symbolic product frame ``sum_g P_{x,g}^dagger P_{x',g}`` per observable pair.

    Returns ``(entries, polys)``: ``entries[i]`` is the coefficient key ``(x
    label, x' label, variant)`` and ``polys[i]`` the ladder polynomial on
    modes ``1..M``.  Coefficients are fitted against these polynomials'
    evaluations (:func:`_coordinate_map`), so decompositions evaluate back
    exactly even when the polynomials differ from the strict master-equation
    operators by abelian-sum terms.  ``n_modes`` enters only through the rest
    charges of ``n_modes - 1`` modes, which are every label once ``n_modes``
    is 2 or more, so the frame is one for all those ``n_modes``.

    Abelian-rest realizations can coincide for several total charges ``g``;
    the plain g-sum then over-counts sectors, so for such pairs a second
    ``distinct`` variant summing each distinct realization pair once is
    added to the frame.
    """
    pairs = _observable_block(model, n_modes, tuple(range(1, m + 1)))[0]
    states = region_states(model, m)

    factor_polys: dict[tuple[int, int], LadderPolynomial] = {}
    for x in states:
        for g in system_totals(model, n_modes, x):
            try:
                factor_polys[(x.index, g)] = o_polynomial(
                    model, n_modes, x.leaves, x.internals, g
                )
            except ModelDataError:
                pass  # no realization; that (x, g) piece is left out of the span

    entries = []
    polys = []
    for x, xp in pairs:
        total = []
        distinct = []
        seen_signatures = set()
        duplicates = False
        for g in system_totals(model, n_modes, x):
            left = factor_polys.get((x.index, g))
            right = factor_polys.get((xp.index, g))
            if left is None or right is None:
                continue
            term = (1.0, left.adjoint() @ right)
            total.append(term)
            sig = (left.signature(), right.signature())
            if sig in seen_signatures:
                duplicates = True
            else:
                seen_signatures.add(sig)
                distinct.append(term)
        variants = [("sum", LadderPolynomial.sum(total))]
        if duplicates:
            variants.append(("distinct", LadderPolynomial.sum(distinct)))
        for variant, poly in variants:
            entries.append((x.label(model), xp.label(model), variant))
            polys.append(poly)
    return entries, polys


def _map_modes(n_modes: int, m: int) -> int:
    """The mode count ``n0`` the coordinate map of an ``m``-mode region of
    ``n_modes`` modes is fitted at: ``m + 1``, the fewest modes whose rest
    takes every charge, or ``n_modes`` itself when the region is every
    mode and the rest is empty."""
    return n_modes if n_modes == m else m + 1


@_memo
def _coordinate_map(model: AnyonModel, n_modes: int, m: int):
    """The fit of the product frame as a fixed linear map from observable
    coordinates to frame weights, at ``n_modes`` (a :func:`_map_modes`).

    Returns ``(weights, unrealised, misses)``.  The stack holds the
    evaluations of the front region's :func:`_region_frame`, flattened, as
    columns: ``weights[:, p] = lstsq(stack, vec E_p)`` for each operator
    ``E_p`` of the front region's :func:`_observable_block`, made dense from
    its :func:`_coordinate_entries`.  An observable ``sum_p y_p E_p`` then
    has the frame weights ``weights @ y``, the least-squares fit of the
    whole stack.  ``unrealised`` lists the ``p`` whose fit leaves an entry
    above the default cut, the pairs the realised span misses, and
    ``misses`` holds what their fits leave, one column each.

    The evaluated frame and the observable basis are rest-charge blocks,
    recoupled, each block repeated once per rest labeling.  Once the rest
    takes every charge, at ``m + 1`` modes, a larger system only repeats the
    blocks more often, which moves no exact solution, so the map fitted there
    holds on every larger system (an unrealised pair's least-squares weights
    do move; its fit fails either way).  The stack, ``dim**2`` by the frame
    size, is formed only here.
    """
    front = tuple(range(1, m + 1))
    frame = _region_frame(model, n_modes, front)
    columns = range(len(frame.bounds) - 1)  # one per frame polynomial
    stack = np.stack([frame.evaluate(i).to_dense().ravel() for i in columns], axis=1)
    owner, pos, vals, support, norms = _coordinate_entries(model, n_modes, front, _observable_block)
    targets = np.zeros((len(stack), len(norms)), complex)
    targets[support[pos], owner] = vals
    weights = np.linalg.lstsq(stack, targets, rcond=None)[0]
    misses = stack @ weights - targets
    unrealised = np.flatnonzero(np.abs(misses).max(axis=0) > rounding_cut(1e-10, len(stack), 1.0))
    return weights, unrealised, misses[:, unrealised]


@_memo
def _region_frame(model: AnyonModel, n_modes: int, s: tuple[int, ...]) -> _PolynomialFrame:
    """The product frame's polynomials with modes ``1..M`` relabelled to the
    region ``s``, compiled once into a ``polynomial._PolynomialFrame`` over
    the shared word cache.  This is the only place a product frame is
    compiled: :func:`_coordinate_map` reads the front region's frame at its
    own mode count from here, so a decomposition there compiles its words
    once.

    Frame polynomials hold no mode above ``M``, so the relabelling is one to
    one on words, and a weighted sum of these equals the sum of the frame
    polynomials relabelled afterwards.
    """
    m = len(s)
    polys = _product_frame(model, _map_modes(n_modes, m), m)[1]
    if s != tuple(range(1, m + 1)):
        mode_map = {k + 1: mode for k, mode in enumerate(s)}
        polys = [poly.relabel_modes(mode_map) for poly in polys]
    identity = SparseOperator.identity(FusionTreeBasis(model, n_modes))
    return _PolynomialFrame(polys, resolver(model, n_modes), _word_cache(model, n_modes), identity)


def decompose_observable(
    op: SparseOperator, modes, tolerance: float = 1e-10
) -> Decomposition:
    """Write a local observable as a polynomial in the region's ladder operators.

    ``op`` must act on the canonical basis, preserve the total charge and be
    supported on the local-observable span of the (behind-bipartition) region
    ``modes``; otherwise a ``ValueError`` reports the violation.  A
    non-finite entry of ``op`` is reported before any other check.  The
    returned polynomial evaluates back to ``op`` (the residual is recorded on
    the result).  Residuals are zero up to :func:`rounding_cut` of
    ``tolerance``.

    The fit goes through coordinates: ``op``'s overlaps with the observable
    basis moved onto the region give its coordinates ``y``, and the frame
    weights are ``weights @ y`` from :func:`_coordinate_map`, fitted once per
    model and region size at ``m + 1`` modes.  The span residual is the
    larger of what the coordinates leave of ``op`` and what the realised
    span misses of them.  A call reads ``op``'s stored entries and forms
    nothing of size ``dim**2``; a failing call projects them onto the
    candidate-local span the same way, to tell a candidate-local operator
    from one that is not local.
    """
    _require_finite(op)
    entries_of_op = flat, vals = _entries(op)
    basis = _canonical_basis(op)
    model = basis.model
    n = basis.n_modes
    s = _region(modes, n)
    m = len(s)

    rows, cols = np.divmod(flat, basis.dim)
    totals = basis.totals()
    # Every stored entry counts, a zero too, as in SparseOperator.is_charge_diagonal.
    changing = np.flatnonzero(totals[rows] != totals[cols])
    if len(changing):
        row, col = rows[changing[0]], cols[changing[0]]
        raise ValueError(
            "operator changes the total charge "
            f"({model.labels[totals[col]]} -> {model.labels[totals[row]]}); "
            "not an observable"
        )

    cut = rounding_cut(tolerance, basis.dim, op.norm_max())
    # Identity component short-circuit: lambda * id is the constant polynomial,
    # lambda the trace over dim, with the bits of the dense trace and subtraction.
    on_diagonal = rows == cols
    diagonal = np.zeros(basis.dim, complex)
    diagonal[rows[on_diagonal]] = vals[on_diagonal]
    lam = diagonal.sum() / basis.dim
    if max(np.abs(diagonal - lam).max(), np.abs(vals[~on_diagonal]).max(initial=0.0)) <= cut:
        return Decomposition(s, LadderPolynomial.constant(lam), {}, 0.0, 0.0)

    n0 = _map_modes(n, m)
    weights, unrealised, misses = _coordinate_map(model, n0, m)
    y, outside = _coordinates(entries_of_op, basis, s, _observable_block)
    missed = float(np.abs(misses @ y[unrealised]).max(initial=0.0))
    span_residual = max(outside, missed)
    if span_residual > cut:
        figure = f"(span residual {span_residual:.3e})"
        if outside > cut:
            if _coordinates(entries_of_op, basis, s, _candidate_block)[1] <= cut:
                raise ValueError(
                    f"operator is candidate-local on modes {list(s)} but not an "
                    f"observable of them {figure}"
                )
            raise ValueError(f"operator is not local on modes {list(s)} {figure}")
        # Each unrealised pair's share bounds its part of the miss, so one
        # share of a miss above the cut exceeds the cut over their number.
        share = np.abs(y[unrealised]) * np.abs(misses).max(axis=0)
        pairs = _observable_block(model, n0, tuple(range(1, m + 1)))[0]
        named = ", ".join(
            f"|{pairs[p][0].label(model)}><{pairs[p][1].label(model)}|"
            for p in unrealised[share * len(unrealised) > cut].tolist()
        )
        raise ValueError(
            f"operator is local on modes {list(s)} but outside the span realised by "
            f"ladder polynomials, which miss its parts on {named} {figure}"
        )

    # The weighted sum and its evaluation, on the region's compiled frame,
    # built by the first call on the region that passes the span check.
    coeffs = weights @ y
    entries = _product_frame(model, n0, m)[0]
    frame = _region_frame(model, n, s)
    kept = np.abs(coeffs) > 1e-13
    coefficients = dict(zip(itertools.compress(entries, kept), coeffs[kept].tolist()))
    terms = frame.weighted_sum(np.where(kept, coeffs, 0.0))
    polynomial = frame.polynomial(*terms)
    eval_residual = frame.residual(*terms, entries_of_op)
    return Decomposition(s, polynomial, coefficients, span_residual, eval_residual)


# ---------------------------------------------------------------------------
# Relation suite
# ---------------------------------------------------------------------------


def verify_relations(
    model: AnyonModel, n_modes: int, tolerance: float = 1e-10
) -> ValidationReport:
    """Check the single-mode relations of the unnormalised Fibonacci pair.

    Six families are checked per mode, up to :func:`rounding_cut`; the printed
    completeness relation (whose last term is ``alpha beta^dagger alpha
    beta^dagger``) and the disjoint-support statement for different modes are
    measured and noted after every check, never asserted.
    """
    pair = _shared_pair(model, n_modes)
    basis = FusionTreeBasis(model, n_modes)
    identity = SparseOperator.identity(basis)
    report = ValidationReport([f"modes: {n_modes}", f"tolerance: {tolerance:.3e}"], tolerance)
    notes = []

    for k in range(1, n_modes + 1):
        al, be = pair.alpha[k], pair.beta[k]
        ald, bed = al.dagger(), be.dagger()
        scale = max(1.0, al.norm_max(), be.norm_max()) ** 3  # bounds products of three
        check = functools.partial(report.check, size=basis.dim, scale=scale)
        # Each product is formed once and read wherever it occurs, with the
        # left-to-right association of the relation as written.
        al_ald, be_bed, al_bed, be_ald = al @ ald, be @ bed, al @ bed, be @ ald
        check(f"alpha_{k}^2 = 0", (al @ al).norm_max())
        check(
            f"alpha_{k} beta_{k} = beta_{k} alpha_{k} = 0",
            max((al @ be).norm_max(), (be @ al).norm_max()),
        )
        check(f"alpha_{k} alpha_{k}^+ = beta_{k} beta_{k}^+", (al_ald - be_bed).norm_max())
        chain = [al_bed @ be, al_bed @ al, be_ald @ al, be_ald @ be]
        worst = max(
            (chain[i] - chain[j]).norm_max()
            for i in range(len(chain))
            for j in range(i + 1, len(chain))
        )
        check(f"mixed third-order chain equalities (mode {k})", worst)
        check(
            f"alpha_{k} alpha_{k}^+ alpha_{k} = alpha_{k} - beta_{k} alpha_{k}^+ alpha_{k}",
            (al_ald @ al - (al - chain[2])).norm_max(),
        )
        check(
            f"beta_{k} beta_{k}^+ beta_{k} = beta_{k} - alpha_{k} beta_{k}^+ beta_{k}",
            (be_bed @ be - (be - chain[0])).norm_max(),
        )

        base = bed @ be + ald @ al + al_ald
        square = chain[1] @ bed  # alpha beta^+ alpha beta^+
        printed = base + square
        variant_single = base + al_bed
        variant_scaled = base + 2.0 * square
        notes.append(
            f"completeness (mode {k}): "
            "printed residual={:.3e}; +alpha beta^+ residual={:.3e}; "
            "+2(alpha beta^+)^2 residual={:.3e}".format(
                (printed - identity).norm_max(),
                (variant_single - identity).norm_max(),
                (variant_scaled - identity).norm_max(),
            )
        )

    for a_mode in range(1, n_modes + 1):
        for b_mode in range(a_mode + 1, n_modes + 1):
            ab = pair.alpha[a_mode] @ pair.alpha[b_mode]
            ba = pair.alpha[b_mode] @ pair.alpha[a_mode]
            cols_ab = set(ab.matrix.indices.tolist())
            cols_ba = set(ba.matrix.indices.tolist())
            notes.append(
                f"support alpha_{a_mode} alpha_{b_mode} vs alpha_{b_mode} alpha_{a_mode}: "
                f"supports {sorted(cols_ab)} and {sorted(cols_ba)}; "
                f"disjoint={not cols_ab & cols_ba}"
            )
    for text in notes:
        report.note("info", text)
    return report


# ---------------------------------------------------------------------------
# Fock words
# ---------------------------------------------------------------------------


def vacuum_index(basis: FusionTreeBasis) -> int:
    return int(basis.table.find([[basis.model.vacuum] * len(basis.table.spans)])[0])


@_memo
def _word_letter(model: AnyonModel, n_modes: int, sym: GeneratorSymbol) -> SparseOperator:
    """:func:`_letter` of ``sym`` on ``n_modes`` modes, so the adjoint of a
    daggered letter is formed once for every creation word that reads it."""
    return _letter(resolver(model, n_modes), sym)


@_memo
def fock_words(model: AnyonModel, n_modes: int):
    """Creation words reaching every canonical state from the vacuum.

    Returns a dict ``state_index -> (scalar, word)`` with
    ``|state> = scalar * word|0>`` where ``word`` is a product of daggered
    ``alpha_k``/``beta_k`` pair symbols, or of the daggered ``alpha^(0)_k``
    of a fermion-type model (leftmost applied last).  Words are found
    breadth-first, keeping only steps that land on a single canonical state.
    Any other model raises ``ModelDataError``.  Built once per (model,
    n_modes); every caller shares the returned dict, which must not be
    modified.
    """
    basis = FusionTreeBasis(model, n_modes)
    vac = vacuum_index(basis)
    psi = fermion_type(model)
    modes = range(1, n_modes + 1)
    if psi is not None:
        letters = [GeneratorSymbol(k, "std", model.labels[psi], 0, True) for k in modes]
    else:
        letters = [
            GeneratorSymbol(k, "pair", name, 0, True)
            for k in modes
            for name in ("alpha", "beta")
        ]
    creators = [(sym, _word_letter(model, n_modes, sym)) for sym in letters]

    reached: dict[int, tuple[complex, tuple[GeneratorSymbol, ...]]] = {vac: (1.0, ())}
    frontier = [vac]
    while frontier:
        next_frontier = []
        for idx in frontier:
            amp, word = reached[idx]
            vec = np.zeros(basis.dim, dtype=complex)
            vec[idx] = 1.0
            for sym, mat in creators:
                out = mat.apply(vec)
                nz = np.nonzero(np.abs(out) > 1e-12)[0]
                if len(nz) != 1:
                    continue
                new_idx = int(nz[0])
                if new_idx in reached:
                    continue
                reached[new_idx] = (amp * complex(out[new_idx]), (sym,) + word)
                next_frontier.append(new_idx)
        frontier = next_frontier

    return {
        idx: (1.0 / amp, word) for idx, (amp, word) in reached.items()
    }


def fock_word(model: AnyonModel, n_modes: int, state) -> tuple[complex, tuple]:
    """Creation word for one canonical state: ``|state> = scalar * word |0>``.

    ``state`` is a basis index or a labeling tuple; any other value, a bool
    or a scalar of no integer type among them, raises ``ValueError``.  Every
    canonical state is reachable for the bundled models; an unreachable
    state would mean the breadth-first construction itself is broken, hence
    the hard error.
    """
    basis = FusionTreeBasis(model, n_modes)
    idx = -1
    if isinstance(state, numbers.Integral):
        if not isinstance(state, bool) and 0 <= state < basis.dim:
            idx = int(state)
    else:
        try:
            labeling = np.asarray(state)
        except ValueError:  # a ragged sequence
            labeling = np.empty(0)
        if labeling.shape == (len(basis.table.spans),) and np.issubdtype(labeling.dtype, np.integer):
            idx = int(basis.table.find([labeling])[0])
    if idx < 0:
        raise ValueError(f"{state!r} is neither a state index nor a labeling of {n_modes} modes")
    words = fock_words(model, n_modes)
    if idx not in words:
        raise RuntimeError(
            f"state {basis.state_label(idx)} was not reached from the vacuum; "
            "the creation-word search is incomplete"
        )
    return words[idx]


def apply_word(model: AnyonModel, n_modes: int, scalar: complex, word) -> np.ndarray:
    """Apply ``scalar * word`` to the vacuum; returns the dense state vector."""
    basis = FusionTreeBasis(model, n_modes)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[vacuum_index(basis)] = scalar
    for sym in reversed(tuple(word)):
        vec = _word_letter(model, n_modes, sym).apply(vec)
    return vec


def kernel_dimension(model: AnyonModel, n_modes: int, tol: float = 1e-10) -> int:
    """Dimension of the joint kernel of all annihilation operators.

    ``dim`` minus the rank of the stacked annihilators, the rank being the
    number of singular values above ``tol`` and the rounding floor of
    :func:`_extend_span`, scaled by the stack's 2-norm.
    """
    stacked = np.vstack([
        op.to_dense()
        for i, label in enumerate(model.labels)
        if i != model.vacuum
        for op in ladder_set(model, n_modes, label).ops.values()
    ])
    dim = stacked.shape[1]
    return dim - len(_extend_span(np.zeros((0, dim)), stacked, tol, np.linalg.norm(stacked, 2)))


# ---------------------------------------------------------------------------
# Algebra closure
# ---------------------------------------------------------------------------


def _extend_span(onb: np.ndarray, rows: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Orthonormal rows spanning what ``rows`` adds to the row span of ``onb``.

    ``onb`` holds orthonormal rows.  The batch ``rows`` is projected off them
    twice (the second pass removes what rounding left of the first), and the
    right singular vectors of the residual whose singular value exceeds the
    cut are returned.  The cut is :func:`rounding_cut` of ``tol`` over
    ``max(rows.shape)`` and ``scale``, so even ``tol=0`` drops rounding.
    ``scale`` is the magnitude the rows' rounding is relative to, given by
    the caller: the 2-norm of the rows themselves (numpy's ``matrix_rank``
    floor) or of the operands they are products of.  This is the one
    orthogonaliser of the package.
    """
    tol = rounding_cut(tol, max(rows.shape), scale)
    for _ in range(2):
        rows = rows - (rows @ onb.conj().T) @ onb
    _u, svals, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[svals > tol]


def commutant_is_trivial(generators, tol: float = 1e-10) -> bool:
    """Whether only the scalars commute with every generator and its adjoint.

    By Burnside's theorem (the double commutant theorem), the unital
    *-algebra of ``generators`` is the whole ``dim x dim`` matrix algebra
    exactly when this holds, so one eigensolve of size ``dim**2`` decides
    what :func:`algebra_closure` finds by growing the span.  With ``S`` the
    generators and their adjoints and ``L_G = I kron G^T - G kron I`` (which
    maps the row-major ``vec(X)`` to ``vec(XG - GX)``), the commutant is the
    null space of ``N = sum_S L_G^dagger L_G``; as ``S`` is closed under the
    adjoint, ``N = I kron A^T + A kron I - 2 sum_S G kron conj(G)`` with
    ``A = sum_S G^dagger G``.  The identity always spans one null direction,
    so the commutant is trivial when N's second smallest eigenvalue exceeds
    :func:`rounding_cut` over ``dim**2`` and ``4 sum_S |G|_2**2``, a bound on
    ``|N|_2`` that ``tol`` is relative to; at ``tol=0`` N's rounding level.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dense = [g.to_dense() for g in generators]
    gens = np.stack([m for d in dense for m in (d, d.conj().T)])
    count, dim, _ = gens.shape
    a = np.einsum("gji,gjk->ik", gens.conj(), gens)
    flat = gens.reshape(count, dim * dim)
    # built in place: at most one (dim**2, dim**2) temporary lives beside it
    system = (flat.T @ flat.conj()).reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3)
    system = system.reshape(dim * dim, dim * dim)
    system *= -2.0
    eye = np.eye(dim)
    system += np.kron(eye, a.T)
    system += np.kron(a, eye)
    scale = 4.0 * sum(np.linalg.norm(g, 2) ** 2 for g in gens)
    # rounding_cut(tol * scale, dim * dim, scale) bit for bit, checking tol itself
    cut = scale * rounding_cut(tol, dim * dim, 1.0)
    return bool(eigh(system, eigvals_only=True, subset_by_index=[0, 1])[1] > cut)


@dataclass
class ClosureResult:
    dimension: int
    rounds: int
    onb: np.ndarray  # (dimension, dim*dim) orthonormal rows

    def contains(self, op: SparseOperator, tol: float = 1e-10) -> bool:
        """Whether ``op`` lies in the span, to ``tol`` relative to its norm."""
        vec = op.to_dense().ravel()
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return True
        row = vec[None, :] / norm
        return not len(_extend_span(self.onb, row, tol, np.linalg.norm(row, 2)))


def algebra_closure(generators, tol: float = 1e-10) -> ClosureResult:
    """Dimension and orthonormal basis of the unital *-algebra of ``generators``.

    The span starts from the identity, every generator and every adjoint.
    Each round multiplies every generator and adjoint onto each basis matrix
    the previous round added; the products of one generator are absorbed
    as one :func:`_extend_span` batch (a residual singular value above
    ``tol`` counts as new), which keeps the working memory at one
    generator's products rather than all of them.  The rounding floor scales
    with the largest 2-norm of the identity and the generators, so a batch
    that is rounding noise as a whole adds nothing even at ``tol=0``.
    Growth stops when a round adds nothing or the span is the whole ``dim x
    dim`` matrix algebra; the dimension grows strictly and is bounded by
    ``dim**2``, so the loop always ends.  ``rounds`` counts the product
    rounds, the last one included.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].row_basis.dim
    dense = [g.to_dense() for g in generators]
    gens = [m for d in dense for m in (d, d.conj().T)]
    seeds = np.stack([np.eye(dim)] + gens).reshape(-1, dim * dim)
    scale = max(1.0, *(np.linalg.norm(d, 2) for d in dense))
    onb = _extend_span(np.zeros((0, dim * dim)), seeds, tol, scale)
    new = onb
    for rounds in itertools.count(1):
        start = len(onb)
        for gen in gens:
            products = (gen @ new.reshape(-1, dim, dim)).reshape(-1, dim * dim)
            onb = np.vstack([onb, _extend_span(onb, products, tol, scale)])
        new = onb[start:]
        if not len(new) or len(onb) >= dim * dim:
            return ClosureResult(len(onb), rounds, onb)
