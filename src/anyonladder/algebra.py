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

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import trees
from .basis import (
    FusionTreeBasis, SparseOperator, braid_word, _conjugate, _CSRBlock, _factored_states,
    _memo, _pairs,
)
from .ladder import (
    coefficient_tables,
    fermion_type,
    fibonacci_pair,
    ladder_set,
    resolver,
    rest_charges,
    transport_to_mode,
)
from .model import AnyonModel, ModelDataError
from .polynomial import GeneratorSymbol, LadderPolynomial

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
    "RelationReport",
    "verify_relations",
    "fock_words",
    "fock_word",
    "apply_word",
    "vacuum_index",
    "kernel_dimension",
    "ClosureResult",
    "algebra_closure",
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
    sub = FusionTreeBasis(model, m)
    out = []
    for i, st in enumerate(sub.states):
        leaves = sub.leaves(st)
        inner_spans = [s for s in sub.spans if s[0] != s[1]]
        internals = tuple(sub.charge(st, s) for s in inner_spans)
        out.append(RegionState(i, leaves, internals, sub.total(st)))
    return out


@_memo
def observable_basis(model: AnyonModel, n_modes: int, m: int):
    """The operators ``E_{x,x'} = |x><x'| (x) id`` spanning region observables.

    Returns ``(pairs, ops)`` where ``pairs`` lists the (x, x') region-state
    pairs of equal charge and ``ops`` the corresponding canonical-basis
    operators.
    """
    w, _b0, y, x, g = _factored_states(model, n_modes, m)
    states = region_states(model, m)
    pairs = [(r, rp) for r in states for rp in states if r.charge == rp.charge]
    slot = np.full((len(states), len(states)), -1)
    for k, (r, rp) in enumerate(pairs):
        slot[r.index, rp.index] = k
    # E_{x,x'} joins the factored states of equal rest labeling and total charge
    rows, cols = _pairs(y * model.n_labels + g)
    owner = slot[x[rows], x[cols]]
    keep = owner >= 0
    block = _conjugate(w, rows[keep], cols[keep], np.ones(keep.sum()), owner[keep], len(pairs))
    return pairs, [block.operator(k) for k in range(len(pairs))]


def candidate_local_basis(model: AnyonModel, n_modes: int, mode: int = 1):
    """Basis of the candidate local algebra of a single mode.

    The single-mode case of :func:`local_candidate_span`: elements
    ``A^{a,a',b0}_{d,d'} = sum_y |a,y;d><a',y;d'|`` in the factored shape,
    with ``y`` running over rest labelings of charge ``b0``, ``d`` a channel
    of ``a x b0`` and ``d'`` of ``a' x b0``.  These include total-charge
    changing elements (d != d'); for a Fibonacci mode with rest charges
    {e, tau} there are 13 of them.  ``mode > 1`` braids the basis into place.
    """
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
    gives the full matrix algebra.
    """
    w, b0, y, x, g = _factored_states(model, n_modes, m)
    region = FusionTreeBasis(model, m).table.rows
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
    return metas, [block.operator(k) for k in range(len(keys))]


@_memo
def _span_entries(model: AnyonModel, n_modes: int, m: int, span):
    """The stored entries of the operators of ``span(model, n_modes, m)`` as
    ``(owner, rows, cols, vals)``, then each operator's squared norm."""
    _, ops = span(model, n_modes, m)
    block = _CSRBlock.pack(ops)
    owner = np.repeat(np.arange(len(ops)), [op.nnz for op in ops])
    norms = np.bincount(owner, np.abs(block.data) ** 2, len(ops))
    return owner, block.rows, block.indices, block.data, norms


def _span_residual(op: SparseOperator, s: tuple[int, ...], span) -> float:
    """The largest entry of ``op``, region ``s`` brought to the front, left by
    its least-squares fit over the operators of ``span``: these are mutually
    orthogonal, so each coefficient is an overlap over a squared norm."""
    basis = op.row_basis
    owner, rows, cols, vals, norms = _span_entries(basis.model, basis.n_modes, len(s), span)
    target = _to_front(op, s).to_dense()
    overlap = target[rows, cols] * vals.conj()
    coeffs = (np.bincount(owner, overlap.real, len(norms))
              + 1j * np.bincount(owner, overlap.imag, len(norms))) / norms
    np.subtract.at(target, (rows, cols), coeffs[owner] * vals)
    return float(np.abs(target).max())


def mode_relabel_unitary(model: AnyonModel, n_modes: int, modes) -> SparseOperator:
    """Braid-word unitary ``U`` with ``U A_S U^dagger = A_{1..M}``.

    ``U`` is a product of under-crossings pulling the region modes
    ``S = {s_1 < .. < s_M}`` to the front while staying behind the others;
    conjugation by ``U^dagger`` maps the annihilation operators of mode ``k``
    to those of mode ``s_k``.  ``modes`` is any iterable of mode numbers; the
    result is kept per sorted region and shared, so it must not be modified.
    """
    return _mode_relabel_unitaries(model, n_modes, _region(modes, n_modes))[0]


def _region(modes, n_modes: int) -> tuple[int, ...]:
    """``modes`` as a sorted tuple, after checking that it names one or more
    distinct modes of ``1..n_modes``."""
    s = tuple(sorted(modes))
    if not s or s[0] < 1 or s[-1] > n_modes or len(set(s)) != len(s):
        raise ValueError(f"invalid region {s} for {n_modes} modes")
    return s


@_memo
def _mode_relabel_unitaries(model: AnyonModel, n_modes: int, s: tuple[int, ...]):
    """``(U, U^dagger)`` of :func:`mode_relabel_unitary` for the sorted region ``s``."""
    m = len(s)
    word = []
    for i in range(m):
        target = s[m - 1 - i]
        for j in range(m - i + 1, target + 1):
            word.append((j - 1, "under"))
    u = braid_word(model, n_modes, word)
    return u, u.dagger()


def _to_front(op: SparseOperator, s: tuple[int, ...]) -> SparseOperator:
    """``U op U^dagger``: ``op`` with the sorted region ``s`` braided to the front."""
    u, u_dagger = _mode_relabel_unitaries(op.row_basis.model, op.row_basis.n_modes, s)
    return u @ op @ u_dagger


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

    The region is braided to the front and ``op`` is projected onto the
    rest-charge-resolved spanning set (which contains all ladder operators of
    the region, including total-charge changing ones).  Returns
    ``(flag, residual)`` with ``residual`` the largest entry the projection
    leaves.  The span equals the commutant of the observables local on the
    complement, charge-changing elements included; projecting onto it avoids
    forming that commutant.  The span's elements have disjoint 0/1 entries
    in the factored basis, so they are mutually orthogonal and the
    least-squares fit has a closed form: each coefficient is the element's
    overlap with ``op`` over its squared norm.  No dense frame is formed.
    """
    basis = _canonical_basis(op)
    residual = _span_residual(op, _region(modes, basis.n_modes), local_candidate_span)
    return residual <= tol, residual


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
    """Evaluated products ``sum_g P_{x,g}^dagger P_{x',g}`` per observable pair.

    Returns ``(entries, polys, stack)``: ``entries[i]`` is
    ``(x, x', variant)``, ``polys[i]`` the ladder polynomial on modes
    ``1..M`` and ``stack[:, i]`` its evaluated dense matrix, flattened.
    Coefficients are fitted against these evaluated matrices, so
    decompositions evaluate back exactly even when the polynomials differ
    from the strict master-equation operators by abelian-sum terms.

    Abelian-rest realizations can coincide for several total charges ``g``;
    the plain g-sum then over-counts sectors, so for such pairs a second
    ``distinct`` variant summing each distinct realization pair once is
    added to the frame.
    """
    pairs, _ops = observable_basis(model, n_modes, m)
    states = region_states(model, m)
    resolve = resolver(model, n_modes)
    identity = SparseOperator.identity(FusionTreeBasis(model, n_modes))
    word_cache = _word_cache(model, n_modes)

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
    columns = []
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
            evaluated = poly.evaluate_with_identity(resolve, identity, cache=word_cache)
            entries.append((x, xp, variant))
            polys.append(poly)
            columns.append(evaluated.to_dense().ravel())
    return entries, polys, np.stack(columns, axis=1)


@_memo
def _region_polys(model: AnyonModel, n_modes: int, s: tuple[int, ...]) -> list[LadderPolynomial]:
    """The polynomials of ``_product_frame(model, n_modes, len(s))``, their
    modes ``1..M`` relabelled to the region ``s``.

    Frame polynomials hold no mode above ``M``, so the relabelling is one to
    one on words, and a weighted sum of these equals the sum of the frame
    polynomials relabelled afterwards.
    """
    mode_map = {k + 1: mode for k, mode in enumerate(s)}
    return [poly.relabel_modes(mode_map) for poly in _product_frame(model, n_modes, len(s))[1]]


def decompose_observable(
    op: SparseOperator, modes, tolerance: float = 1e-10
) -> Decomposition:
    """Write a local observable as a polynomial in the region's ladder operators.

    ``op`` must act on the canonical basis, preserve the total charge and be
    supported on the local-observable span of the (behind-bipartition) region
    ``modes``; otherwise a ``ValueError`` reports the violation.  The returned
    polynomial evaluates back to ``op`` within ``tolerance`` (the residual is
    recorded on the result).
    """
    basis = _canonical_basis(op)
    model = basis.model
    n = basis.n_modes
    s = _region(modes, n)
    m = len(s)

    if not op.is_charge_diagonal():
        totals = basis.totals()
        row, col = next(
            (int(r), int(c))
            for (r, c) in zip(*op.matrix.nonzero())
            if totals[r] != totals[c]
        )
        raise ValueError(
            "operator changes the total charge "
            f"({model.labels[totals[col]]} -> {model.labels[totals[row]]}); "
            "not an observable"
        )

    # Identity component short-circuit: lambda * id is the constant polynomial.
    dense = op.to_dense()
    lam = np.trace(dense) / basis.dim
    if np.abs(dense - lam * np.eye(basis.dim)).max() <= tolerance:
        return Decomposition(s, LadderPolynomial.constant(lam), {}, 0.0, 0.0)

    entries, _polys, stack = _product_frame(model, n, m)
    target = _to_front(op, s).to_dense().ravel()
    coeffs, *_ = np.linalg.lstsq(stack, target, rcond=None)
    span_residual = float(np.abs(stack @ coeffs - target).max())
    if span_residual > tolerance:
        if _span_residual(op, s, observable_basis) <= tolerance:
            raise ValueError(
                f"operator is local on modes {list(s)} but outside the span "
                f"realised by ladder polynomials (span residual {span_residual:.3e})"
            )
        raise ValueError(
            f"operator is not local on modes {list(s)} "
            f"(span residual {span_residual:.3e})"
        )

    parts = []
    coefficients: dict[tuple[str, str, str], complex] = {}
    for c, (x, xp, variant), poly in zip(coeffs, entries, _region_polys(model, n, s)):
        if abs(c) <= 1e-13:
            continue
        parts.append((complex(c), poly))
        coefficients[(x.label(model), xp.label(model), variant)] = complex(c)
    polynomial = LadderPolynomial.sum(parts)

    evaluated = polynomial.evaluate_with_identity(
        resolver(model, n), SparseOperator.identity(basis), cache=_word_cache(model, n)
    )
    eval_residual = float((evaluated - op).norm_max())
    return Decomposition(s, polynomial, coefficients, span_residual, eval_residual)


# ---------------------------------------------------------------------------
# Relation suite
# ---------------------------------------------------------------------------


@dataclass
class RelationReport:
    n_modes: int
    tolerance: float
    asserted: list[tuple[str, float]] = field(default_factory=list)
    reported: list[tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for _, r in self.asserted)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.asserted), default=0.0)

    def format_text(self) -> str:
        lines = [f"modes: {self.n_modes}", f"tolerance: {self.tolerance:.3e}"]
        for name, residual in self.asserted:
            status = "pass" if residual <= self.tolerance else "FAIL"
            lines.append(f"  [{status}] {name}: residual={residual:.3e}")
        for name, text in self.reported:
            lines.append(f"  [info] {name}: {text}")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_relations(model: AnyonModel, n_modes: int, tolerance: float = 1e-10) -> RelationReport:
    """Check the single-mode relations of the unnormalised Fibonacci pair.

    Six families are asserted per mode; the printed completeness relation
    (whose last term is ``alpha beta^dagger alpha beta^dagger``) and the
    disjoint-support statement for different modes are measured and reported,
    never asserted.
    """
    pair = fibonacci_pair(model, n_modes)
    basis = FusionTreeBasis(model, n_modes)
    identity = SparseOperator.identity(basis)
    report = RelationReport(n_modes, tolerance)

    for k in range(1, n_modes + 1):
        al, be = pair.alpha[k], pair.beta[k]
        ald, bed = al.dagger(), be.dagger()
        report.asserted.append((f"alpha_{k}^2 = 0", (al @ al).norm_max()))
        report.asserted.append(
            (
                f"alpha_{k} beta_{k} = beta_{k} alpha_{k} = 0",
                max((al @ be).norm_max(), (be @ al).norm_max()),
            )
        )
        report.asserted.append(
            (
                f"alpha_{k} alpha_{k}^+ = beta_{k} beta_{k}^+",
                (al @ ald - be @ bed).norm_max(),
            )
        )
        chain = [al @ bed @ be, al @ bed @ al, be @ ald @ al, be @ ald @ be]
        worst = max(
            (chain[i] - chain[j]).norm_max()
            for i in range(len(chain))
            for j in range(i + 1, len(chain))
        )
        report.asserted.append((f"mixed third-order chain equalities (mode {k})", worst))
        report.asserted.append(
            (
                f"alpha_{k} alpha_{k}^+ alpha_{k} = alpha_{k} - beta_{k} alpha_{k}^+ alpha_{k}",
                (al @ ald @ al - (al - be @ ald @ al)).norm_max(),
            )
        )
        report.asserted.append(
            (
                f"beta_{k} beta_{k}^+ beta_{k} = beta_{k} - alpha_{k} beta_{k}^+ beta_{k}",
                (be @ bed @ be - (be - al @ bed @ be)).norm_max(),
            )
        )

        base = bed @ be + ald @ al + al @ ald
        printed = base + (al @ bed @ al @ bed)
        variant_single = base + (al @ bed)
        variant_scaled = base + 2.0 * (al @ bed @ al @ bed)
        report.reported.append(
            (
                f"completeness (mode {k})",
                "printed residual={:.3e}; +alpha beta^+ residual={:.3e}; "
                "+2(alpha beta^+)^2 residual={:.3e}".format(
                    (printed - identity).norm_max(),
                    (variant_single - identity).norm_max(),
                    (variant_scaled - identity).norm_max(),
                ),
            )
        )

    for a_mode in range(1, n_modes + 1):
        for b_mode in range(a_mode + 1, n_modes + 1):
            ab = pair.alpha[a_mode] @ pair.alpha[b_mode]
            ba = pair.alpha[b_mode] @ pair.alpha[a_mode]
            cols_ab = {j for _, j, _ in ab.entries()}
            cols_ba = {j for _, j, _ in ba.entries()}
            overlap = cols_ab & cols_ba
            report.reported.append(
                (
                    f"support alpha_{a_mode} alpha_{b_mode} vs alpha_{b_mode} alpha_{a_mode}",
                    f"supports {sorted(cols_ab)} and {sorted(cols_ba)}; "
                    f"disjoint={not overlap}",
                )
            )
    return report


# ---------------------------------------------------------------------------
# Fock words
# ---------------------------------------------------------------------------


def vacuum_index(basis: FusionTreeBasis) -> int:
    return int(basis.table.find([[basis.model.vacuum] * len(basis.spans)])[0])


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
        letters = [GeneratorSymbol(k, "std", model.labels[psi], 0, False) for k in modes]
    else:
        letters = [
            GeneratorSymbol(k, "pair", name, 0, False)
            for k in modes
            for name in ("alpha", "beta")
        ]
    resolve = resolver(model, n_modes)
    creators = [(sym.adjoint(), resolve(sym).dagger()) for sym in letters]

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

    ``state`` is a basis index or a labeling tuple; any other value raises
    ``ValueError``.  Every canonical state is reachable for the bundled
    models; an unreachable state would mean the breadth-first construction
    itself is broken, hence the hard error.
    """
    basis = FusionTreeBasis(model, n_modes)
    if isinstance(state, (int, np.integer)):
        idx = int(state) if 0 <= state < basis.dim else -1
    else:
        ints = len(state) == len(basis.spans) and np.issubdtype(np.asarray(state).dtype, np.integer)
        idx = int(basis.table.find([tuple(state)])[0]) if ints else -1
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
    resolve = resolver(model, n_modes)
    vec = np.zeros(basis.dim, dtype=complex)
    vec[vacuum_index(basis)] = scalar
    for sym in reversed(tuple(word)):
        base = resolve(sym.adjoint() if sym.dagger else sym)
        mat = base.dagger() if sym.dagger else base
        vec = mat.apply(vec)
    return vec


def kernel_dimension(model: AnyonModel, n_modes: int, tol: float = 1e-10) -> int:
    """Dimension of the joint kernel of all annihilation operators.

    ``dim`` minus the rank of the stacked annihilators, the rank being the
    number of singular values above ``tol``.
    """
    stacked = np.vstack([
        op.to_dense()
        for i, label in enumerate(model.labels)
        if i != model.vacuum
        for op in ladder_set(model, n_modes, label).ops.values()
    ])
    dim = stacked.shape[1]
    return dim - len(_extend_span(np.zeros((0, dim)), stacked, tol))


# ---------------------------------------------------------------------------
# Algebra closure
# ---------------------------------------------------------------------------


def _extend_span(onb: np.ndarray, rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning what ``rows`` adds to the row span of ``onb``.

    ``onb`` holds orthonormal rows.  The batch ``rows`` is projected off them
    twice (the second pass removes what rounding left of the first), and the
    right singular vectors of the residual whose singular value exceeds
    ``tol`` are returned.  This is the one orthogonaliser of the package.
    """
    for _ in range(2):
        rows = rows - (rows @ onb.conj().T) @ onb
    _u, svals, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[svals > tol]


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
        return not len(_extend_span(self.onb, vec[None, :] / norm, tol))


def algebra_closure(generators, tol: float = 1e-10) -> ClosureResult:
    """Dimension and orthonormal basis of the unital *-algebra of ``generators``.

    The span starts from the identity, every generator and every adjoint.
    Each round multiplies every generator and adjoint onto each basis matrix
    the previous round added; the products of one generator are absorbed
    as one :func:`_extend_span` batch (a residual singular value above
    ``tol`` counts as new), which keeps the working memory at one
    generator's products rather than all of them.  Growth stops when a round
    adds nothing or the span is the whole ``dim x dim`` matrix algebra; the
    dimension grows strictly and is bounded by ``dim**2``, so the loop
    always ends.  ``rounds`` counts the product rounds, the last one
    included.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dim = generators[0].row_basis.dim
    dense = [g.to_dense() for g in generators]
    gens = [m for d in dense for m in (d, d.conj().T)]
    seeds = np.stack([np.eye(dim)] + gens).reshape(-1, dim * dim)
    onb = _extend_span(np.zeros((0, dim * dim)), seeds, tol)
    new = onb
    for rounds in itertools.count(1):
        start = len(onb)
        for gen in gens:
            products = (gen @ new.reshape(-1, dim, dim)).reshape(-1, dim * dim)
            onb = np.vstack([onb, _extend_span(onb, products, tol)])
        new = onb[start:]
        if not len(new) or len(onb) >= dim * dim:
            return ClosureResult(len(onb), rounds, onb)
