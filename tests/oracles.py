"""Independent brute-force oracles used only by the tests.

Everything here is computed from the raw model data (fusion table, F- and
R-symbols) by direct enumeration, deliberately avoiding the package's own
basis/recoupling/closure machinery, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from anyonladder.model import AnyonModel, dump_model

# ---------------------------------------------------------------------------
# Path counting
# ---------------------------------------------------------------------------


def path_counts(model, n_modes: int) -> dict[int, int]:
    """Number of left-comb labelings per total charge, by direct DP."""
    current = {a: 1 for a in range(model.n_labels)}
    for _ in range(n_modes - 1):
        nxt = {c: 0 for c in range(model.n_labels)}
        for d_prev, ways in current.items():
            for leaf in range(model.n_labels):
                for d in model.fuse(d_prev, leaf):
                    nxt[d] += ways
        current = nxt
    return current


def total_dimension(model, n_modes: int) -> int:
    return sum(path_counts(model, n_modes).values())


def labelings(model, shape):
    """Every labeling of a fusion-tree ``shape``, by brute force.

    Tries every charge on every span (leaf spans included) and keeps the
    assignments allowed by the fusion table at each internal node, charging
    the leaves first and then each node after its children, so that an
    assignment is dropped as soon as a node forbids it.  Returns
    ``(spans, states)`` like ``trees.enumerate_labelings``: the spans sorted,
    the charge tuples ordered by (root charge, leaf charges, internal charges
    by span).
    """
    nodes = []  # (node span, left child span, right child span)

    def walk(s):
        if isinstance(s, int):
            return (s, s)
        left, right = walk(s[0]), walk(s[1])
        nodes.append(((left[0], right[1]), left, right))
        return (left[0], right[1])

    lo, hi = walk(shape)
    leaves = [(i, i) for i in range(lo, hi + 1)]
    inner = sorted(node for node, _l, _r in nodes)
    spans = sorted(leaves + inner)
    children = {node: (left, right) for node, left, right in nodes}
    charged = leaves + list(children)  # each node after its children
    grid = np.zeros((1, 0), dtype=int)  # one row per assignment, columns as in charged
    for s in charged:
        grid = np.hstack([
            np.repeat(grid, model.n_labels, axis=0),
            np.tile(np.arange(model.n_labels), len(grid))[:, None],
        ])
        if s in children:
            left, right = (charged.index(c) for c in children[s])
            grid = grid[model.fusion[grid[:, left], grid[:, right], grid[:, -1]] > 0]
    states = list(map(tuple, grid[:, [charged.index(s) for s in spans]].tolist()))
    states.sort(key=operator.itemgetter(*(spans.index(s) for s in [(lo, hi)] + leaves + inner)))
    return spans, states


def charge_rows(model, shape) -> list[dict]:
    """:func:`labelings` of ``shape`` as one ``{span: charge}`` dict per state."""
    spans, states = labelings(model, shape)
    return [dict(zip(spans, st)) for st in states]


def comb_shape(n_modes: int):
    """The canonical left comb ``((0, 1), 2), ...`` of ``n_modes`` leaves."""
    shape = 0
    for leaf in range(1, n_modes):
        shape = (shape, leaf)
    return shape


def region_states(model, m: int):
    """``algebra.region_states``: one ``RegionState`` per labeling of the
    left comb of ``m`` leaves, its internal charges ``d_p`` those of modes
    ``1..p+1``."""
    from anyonladder.algebra import RegionState

    return [
        RegionState(i, tuple(st[(p, p)] for p in range(m)),
                    tuple(st[(0, p)] for p in range(1, m)), st[(0, m - 1)])
        for i, st in enumerate(charge_rows(model, comb_shape(m)))
    ]


# ---------------------------------------------------------------------------
# Dense recoupling oracle on three modes
# ---------------------------------------------------------------------------


def comb_states_3(model) -> list[tuple[int, int, int, int, int]]:
    """Canonical states ((a1 a2)_x, a3)_d as (a1, a2, a3, x, d), sorted."""
    out = []
    for a1, a2, a3 in itertools.product(range(model.n_labels), repeat=3):
        for x in model.fuse(a1, a2):
            for d in model.fuse(x, a3):
                out.append((a1, a2, a3, x, d))
    return sorted(out)


def right_states_3(model) -> list[tuple[int, int, int, int, int]]:
    """States (a1, (a2 a3)_y)_d as (a1, a2, a3, y, d), sorted."""
    out = []
    for a1, a2, a3 in itertools.product(range(model.n_labels), repeat=3):
        for y in model.fuse(a2, a3):
            for d in model.fuse(a1, y):
                out.append((a1, a2, a3, y, d))
    return sorted(out)


def order_3(model, right: bool = False) -> np.ndarray:
    """Position in :func:`comb_states_3` (in :func:`right_states_3` with
    ``right``) of each labeling of the left (right) comb of three modes, in
    the order of :func:`labelings`."""
    shape, inner, states = (
        ((0, (1, 2)), (1, 2), right_states_3(model)) if right
        else (((0, 1), 2), (0, 1), comb_states_3(model))
    )
    return np.array([
        states.index((st[(0, 0)], st[(1, 1)], st[(2, 2)], st[inner], st[(0, 2)]))
        for st in charge_rows(model, shape)
    ])


def recoupling_matrix_3(model) -> np.ndarray:
    """Unitary U with |a1,(a2 a3)_y; d> = sum_x U[comb(x), right(y)] |(a1 a2)_x, a3; d>."""
    comb = comb_states_3(model)
    right = right_states_3(model)
    pos = {s: i for i, s in enumerate(comb)}
    u = np.zeros((len(comb), len(right)), dtype=complex)
    for j, (a1, a2, a3, y, d) in enumerate(right):
        for x in model.fuse(a1, a2):
            if d not in model.fuse(x, a3):
                continue
            u[pos[(a1, a2, a3, x, d)], j] = model.f_entry(a1, a2, a3, d, x, y)
    return u


def element_oracle_mode1(model, a: int, b0: int, c0: int) -> np.ndarray:
    """Dense mode-1 annihilating element on 3 modes, in the canonical basis.

    In the shape (1, (2 3)) the element maps |a, y; c0> -> |e, y; b0> for
    every rest labeling y of charge b0, with unit amplitude; the result is
    conjugated back to the canonical comb shape.
    """
    e = model.vacuum
    right = right_states_3(model)
    rpos = {s: i for i, s in enumerate(right)}
    mat = np.zeros((len(right), len(right)), dtype=complex)
    for a2, a3 in itertools.product(range(model.n_labels), repeat=2):
        if b0 not in model.fuse(a2, a3):
            continue
        src = (a, a2, a3, b0, c0)
        dst = (e, a2, a3, b0, b0)
        if src in rpos and dst in rpos:
            mat[rpos[dst], rpos[src]] = 1.0
    u = recoupling_matrix_3(model)
    return u @ mat @ u.conj().T


def braid12_oracle(model, sense: str = "over") -> np.ndarray:
    """Exchange of modes 1 and 2 on the canonical 3-mode basis.

    Acts per state as |a1,a2,a3; x,d> -> R^{a1 a2}_x |a2,a1,a3; x,d| (the
    ``under`` sense conjugates the phase).
    """
    comb = comb_states_3(model)
    pos = {s: i for i, s in enumerate(comb)}
    mat = np.zeros((len(comb), len(comb)), dtype=complex)
    for i, (a1, a2, a3, x, d) in enumerate(comb):
        phase = model.r(a1, a2, x)
        if sense == "under":
            phase = np.conj(phase)
        mat[pos[(a2, a1, a3, x, d)], i] = phase
    return mat


def element_oracle_mode2(model, a: int, b0: int, c0: int, sense: str = "over") -> np.ndarray:
    b = braid12_oracle(model, sense)
    return b @ element_oracle_mode1(model, a, b0, c0) @ b.conj().T


# ---------------------------------------------------------------------------
# Brute-force algebra closure
# ---------------------------------------------------------------------------


def _span_rank(mats: list[np.ndarray], tol: float = 1e-10) -> int:
    stacked = np.stack([m.ravel() for m in mats])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > tol * svals.max()))


def _reduce_span(mats: list[np.ndarray], tol: float = 1e-10) -> list[np.ndarray]:
    stacked = np.stack([m.ravel() for m in mats])
    _u, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    keep = svals > tol * svals.max()
    d = mats[0].shape[0]
    return [row.reshape(d, d) for row in vh[keep]]


def closure_dimension_bruteforce(mats: list[np.ndarray], tol: float = 1e-10) -> int:
    """Dimension of the generated unital *-algebra by pairwise products.

    Entirely different algorithm from the packaged closure: keep an
    SVD-reduced spanning list, multiply all pairs, re-reduce, repeat until
    the rank stops growing.
    """
    d = mats[0].shape[0]
    span = [np.eye(d, dtype=complex)]
    for m in mats:
        span.append(m.astype(complex))
        span.append(m.conj().T.astype(complex))
    span = _reduce_span(span, tol)
    rank = len(span)
    while True:
        products = [a @ b for a in span for b in span]
        span = _reduce_span(span + products, tol)
        if len(span) == rank:
            return rank
        rank = len(span)


def commutant_dimension(model, n_modes: int, m: int, tol: float = 1e-10) -> int:
    """Dimension of the dense commutant of the complement observables of ``{1..M}``.

    Solves ``X C - C X = 0`` for every ``C`` of
    :func:`complement_observable_basis` as one linear system on the row-major
    flattened ``X`` (``vec(A X B) = (A kron B^T) vec(X)``) and counts its
    null space with a plain SVD.  The complement observables are built by the
    dictionary loops below; no closure or candidate-span code is involved.
    """
    comps = [c.to_dense() for c in complement_observable_basis(model, n_modes, m)]
    d = total_dimension(model, n_modes)
    if not comps:
        return d * d
    eye = np.eye(d)
    system = np.vstack([np.kron(eye, c.T) - np.kron(c, eye) for c in comps])
    svals = np.linalg.svd(system, compute_uv=False)
    return d * d - int(np.sum(svals > tol * max(1.0, svals.max())))


def generator_commutant_dimension(mats: list[np.ndarray], tol: float = 1e-10) -> int:
    """Dimension of the matrices commuting with every ``G`` of ``mats`` and ``G^dagger``.

    Stacks ``X G - G X = 0`` for each ``G`` and adjoint as one linear system
    on the row-major flattened ``X``, as :func:`commutant_dimension` does, and
    counts its null space with a plain SVD.
    """
    d = mats[0].shape[0]
    eye = np.eye(d)
    system = np.vstack([
        np.kron(eye, g.T) - np.kron(g, eye) for m in mats for g in (m, m.conj().T)
    ])
    svals = np.linalg.svd(system, compute_uv=False)
    return d * d - int(np.sum(svals > tol * max(1.0, svals.max())))


# ---------------------------------------------------------------------------
# Ladder operators in closed form
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _comb_states(model, n_modes: int):
    """:func:`labelings` of the canonical left comb: the charge tuples in
    basis order, each tuple's position, and the position of each span."""
    spans, states = labelings(model, comb_shape(n_modes))
    return states, {st: i for i, st in enumerate(states)}, {s: p for p, s in enumerate(spans)}


def ladder_closed_form(model, n_modes: int, a: int, terms, mode: int, sector=None):
    """``sum weight * a^{b0,c0}_mode`` over ``terms = [(b0, c0, weight), ...]``
    as a head table times an F-string, by one plain loop over the canonical
    states; a scipy CSR matrix with rows on every canonical state and columns
    on the total-charge ``sector`` (None: every state).

    Write ``X_q`` for the charge of modes ``1..q+1`` of a column state and
    ``l_q`` for its leaf ``q + 1`` (0-based spans, ``X_{-1}`` the vacuum), with
    ``a`` on leaf ``k = mode``.  Its rows are the states with the vacuum on
    leaf ``k``, every other leaf and every ``X_q`` with ``q < k - 1`` kept,
    ``X'_{k-1} = X_{k-2}``, and rest charges ``X'_q`` in ``X'_{q-1} x l_q`` for
    ``q >= k``; ``b0 = X'_{n-1}``, ``c0 = X_{n-1}``.  Each row's entry is

        h(X_{k-2}, X_{k-1}, X'_{k-1}; b0, c0)
            * conj(prod_{q=k-1}^{n-2} F^{a, X'_q, l_{q+1}}_{X_{q+1}}[X_q, X'_{q+1}]),

    with the head ``h = weight(b0, c0) * conj(R^{a X_{k-2}}_{X_{k-1}})``: the
    ``under`` braids take ``a`` past the modes before it as one charge
    ``X_{k-2}``, the F-string recouples it off the comb, and the element
    removes it with the weight of its rest charge and channel.  For mode 1 the
    head is the weight alone and the string starts at a vacuum F-move.
    """
    from scipy import sparse

    states, index, pos = _comb_states(model, n_modes)
    weights = {}
    for b0, c0, weight in terms:
        weights[(b0, c0)] = weight
    k = mode - 1  # the leaf span (k, k)
    vac = model.vacuum
    col_states = [i for i, st in enumerate(states)
                  if sector is None or st[pos[(0, n_modes - 1)]] == sector]
    col_of = {i: j for j, i in enumerate(col_states)}
    entries = {}
    for i in col_states:
        st = states[i]
        if st[pos[(k, k)]] != a:
            continue
        x = [st[pos[(0, q)]] for q in range(n_modes)]
        leaf = [st[pos[(q, q)]] for q in range(n_modes)]
        below = x[k - 1] if k > 0 else vac
        head = np.conj(model.R[a, below, x[k]])
        paths = [((below,), 1.0 + 0j)]  # (X'_{k-1} .. X'_q, F-string so far)
        for q in range(k, n_modes - 1):
            paths = [
                (rest + (r,), amp * model.F[a, rest[-1], leaf[q + 1], x[q + 1], x[q], r])
                for rest, amp in paths
                for r in model.fuse(rest[-1], leaf[q + 1])
            ]
        for rest, amp in paths:
            weight = weights.get((rest[-1], x[-1]), 0.0)
            if weight == 0.0 or amp == 0.0:
                continue
            row = list(st)
            row[pos[(k, k)]] = vac
            for q, charge in enumerate(rest, start=k):
                row[pos[(0, q)]] = charge
            entries[(index[tuple(row)], col_of[i])] = weight * head * np.conj(amp)
    keys = np.array(list(entries), dtype=int).reshape(-1, 2)
    return sparse.csr_matrix((np.array(list(entries.values()), dtype=complex), (keys[:, 0], keys[:, 1])),
                             shape=(len(states), len(col_states)))


# ---------------------------------------------------------------------------
# Theories from closed-form data
# ---------------------------------------------------------------------------


def z_n(n: int) -> AnyonModel:
    """Z_N through the public constructor: labels ``"0"`` .. ``"N-1"``,
    a x b = a + b mod N, every F = 1 and R^{ab} = exp(2 pi i ab / N).  The
    dual of a is -a mod N, so the theory is not self-dual for N > 2."""
    nonvac = range(1, n)
    return AnyonModel(
        name=f"Z{n}",
        labels=[str(a) for a in range(n)],
        vacuum="0",
        dual={str(a): str(-a % n) for a in range(n)},
        triples=[(str(a), str(b), str((a + b) % n)) for a in range(n) for b in range(n)],
        f_symbols={
            (str(a), str(b), str(c), str((a + b + c) % n)): np.ones((1, 1), dtype=complex)
            for a, b, c in itertools.product(nonvac, repeat=3)
        },
        r_symbols={
            (str(a), str(b), str((a + b) % n)): np.exp(2j * np.pi * a * b / n)
            for a, b in itertools.product(nonvac, repeat=2)
        },
    )


def su2_k(k: int) -> AnyonModel:
    """SU(2)_k through the public constructor.  Label ``"jm"`` is spin m/2,
    the abelian j0 and jk first, then j1 .. j(k-1).  In units of half a spin,
    a x b runs over c = |a - b|, |a - b| + 2, .. up to min(a + b, 2k - a - b).

    With q = exp(2 pi i / (k + 2)) and [n] = sin(pi n / (k + 2)) / sin(pi / (k + 2)),
    in spins (Bonderson, PhD thesis, Caltech 2007, with the q-6j symbol of
    Kirillov & Reshetikhin 1989):

        [F^{abc}_d]_{ef} = (-1)^{a+b+c+d} sqrt([2e+1] [2f+1]) {a b e; c d f}_q,
        R^{ab}_c = (-1)^{c-a-b} q^{(c(c+1) - a(a+1) - b(b+1)) / 2},

    the 6j symbol by the Racah sum over q-factorials."""
    order = [0, k, *range(1, k)]  # twice the spin of each label, in label order
    name = {m: f"j{m}" for m in order}

    def qn(n):
        return np.sin(np.pi * n / (k + 2)) / np.sin(np.pi / (k + 2))

    def fact(n):  # [n]!
        return float(np.prod([qn(i) for i in range(1, n + 1)]))

    def fuses(a, b):  # in half-spin units, in label order
        return sorted(range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2), key=order.index)

    def delta(a, b, c):
        return np.sqrt(fact((a + b - c) // 2) * fact((a - b + c) // 2) * fact((b + c - a) // 2)
                       / fact((a + b + c) // 2 + 1))

    def six_j(a, b, e, c, d, f):  # {a b e; c d f}_q
        triads = [(a + b + e) // 2, (a + d + f) // 2, (c + b + f) // 2, (c + d + e) // 2]
        quads = [(a + b + c + d) // 2, (a + c + e + f) // 2, (b + d + e + f) // 2]
        racah = sum(
            (-1) ** z * fact(z + 1)
            / np.prod([fact(z - t) for t in triads] + [fact(p - z) for p in quads])
            for z in range(max(triads), min(quads) + 1)
        )
        return delta(a, b, e) * delta(a, d, f) * delta(c, b, f) * delta(c, d, e) * racah

    f_symbols = {}
    for a, b, c, d in itertools.product(order[1:], order[1:], order[1:], order):
        rows = [e for e in fuses(a, b) if d in fuses(e, c)]
        cols = [f for f in fuses(b, c) if d in fuses(a, f)]
        if rows:
            sign = (-1) ** ((a + b + c + d) // 2)
            f_symbols[name[a], name[b], name[c], name[d]] = np.array(
                [[sign * np.sqrt(qn(e + 1) * qn(f + 1)) * six_j(a, b, e, c, d, f) for f in cols]
                 for e in rows]
            )
    q = np.exp(2j * np.pi / (k + 2))
    r_symbols = {
        (name[a], name[b], name[c]):
            (-1) ** ((c - a - b) // 2) * q ** ((c * (c + 2) - a * (a + 2) - b * (b + 2)) / 8)
        for a, b in itertools.product(order[1:], repeat=2) for c in fuses(a, b)
    }
    return AnyonModel(
        name=f"SU2_{k}",
        labels=list(name.values()),
        vacuum="j0",
        dual={label: label for label in name.values()},
        triples=[(name[a], name[b], name[c]) for a in order for b in order for c in fuses(a, b)],
        f_symbols=f_symbols,
        r_symbols=r_symbols,
    )


def subtheory(model, labels) -> AnyonModel:
    """The theory of ``labels`` alone, through the public constructor: the
    fusion rules, F- and R-symbols of ``model`` on those labels, which must
    include the vacuum and be closed under fusion."""
    idx = [model.labels.index(label) for label in labels]
    lab = model.labels
    f_symbols = {}
    for a, b, c, d in itertools.product(idx, repeat=4):
        block = f_block(model, a, b, c, d)
        if block is not None and model.vacuum not in (a, b, c):
            f_symbols[lab[a], lab[b], lab[c], lab[d]] = block[2]
    fused = [(a, b, c) for a, b, c in zip(*np.nonzero(model.fusion)) if a in idx and b in idx]
    r_symbols = {(lab[a], lab[b], lab[c]): model.R[a, b, c]
                 for a, b, c in fused if model.vacuum not in (a, b)}
    return AnyonModel(
        f"{model.name}_{'_'.join(labels)}", labels, lab[model.vacuum],
        {lab[a]: lab[model.dual[a]] for a in idx},
        [(lab[a], lab[b], lab[c]) for a, b, c in fused],
        f_symbols,
        r_symbols,
    )


def vertex_gauge(model, seed: int, gauge_r: bool = True) -> AnyonModel:
    """``model`` under a random vertex gauge transform, through the public
    constructor: with a unit phase u^{ab}_c on every vertex (1 where a or b
    is the vacuum),

        F'^{abc}_d[e, f] = u^{ab}_e u^{ec}_d / (u^{bc}_f u^{af}_d) F^{abc}_d[e, f],
        R'^{ab}_c = u^{ba}_c / u^{ab}_c R^{ab}_c.

    The result describes the same theory.  ``gauge_r=False`` keeps R as it
    was, which breaks the hexagon wherever u^{ba}_c != u^{ab}_c."""
    n = model.n_labels
    u = np.exp(2j * np.pi * np.random.default_rng(seed).random((n, n, n)))
    u[model.vacuum] = u[:, model.vacuum] = 1.0
    lab = model.labels
    f_symbols = {}
    for a, b, c, d in itertools.product(range(n), repeat=4):
        block = f_block(model, a, b, c, d)
        if block is None or model.vacuum in (a, b, c):
            continue
        rows, cols, mat = block
        e, f = np.ix_(rows, cols)
        f_symbols[lab[a], lab[b], lab[c], lab[d]] = (
            u[a, b, e] * u[e, c, d] / (u[b, c, f] * u[a, f, d]) * mat
        )
    r_symbols = {
        (lab[a], lab[b], lab[c]): (u[b, a, c] / u[a, b, c] if gauge_r else 1.0) * model.R[a, b, c]
        for a, b, c in zip(*np.nonzero(model.fusion))
        if model.vacuum not in (a, b)
    }
    doc = dump_model(model)
    return AnyonModel(
        model.name, lab, doc["vacuum"], doc["dual"], doc["fusion"], f_symbols, r_symbols
    )


# ---------------------------------------------------------------------------
# Occupation multiset for the t = 0 Hamiltonian
# ---------------------------------------------------------------------------


def occupation_multiset(model, n_modes: int) -> dict[int, int]:
    """How many canonical states hold m occupied (non-vacuum) leaves.

    Independent DP over (occupied count, running charge).
    """
    vac = model.vacuum
    current = {(int(a != vac), a): 1 for a in range(model.n_labels)}
    for _ in range(n_modes - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (occ, d_prev), ways in current.items():
            for leaf in range(model.n_labels):
                for d in model.fuse(d_prev, leaf):
                    key = (occ + int(leaf != vac), d)
                    nxt[key] = nxt.get(key, 0) + ways
        current = nxt
    out: dict[int, int] = {}
    for (occ, _d), ways in current.items():
        out[occ] = out.get(occ, 0) + ways
    return out


# ---------------------------------------------------------------------------
# Reference constructions replaced by faster paths
# ---------------------------------------------------------------------------


def fold_sum(pairs):
    """Weighted sum of ``(coeff, LadderPolynomial)`` pairs by the left fold
    ``total = total + coeff * poly``, with ``*`` and ``+`` written out as the
    constructor calls they stood for: every step re-canonicalises the whole
    running sum, so this is quadratic in the number of terms.
    """
    from anyonladder.polynomial import LadderPolynomial

    total = LadderPolynomial()
    for weight, poly in pairs:
        scaled = LadderPolynomial([(c * weight, w) for w, c in poly._terms.items()])
        total = LadderPolynomial(
            [(c, w) for w, c in total._terms.items()]
            + [(c, w) for w, c in scaled._terms.items()]
        )
    return total


def decompose_by_sum(op, modes, coefficients=None):
    """``decompose_observable``'s fit, weighted sum and evaluation by the path
    it took before the coordinate map and the region frame.

    The fit is one ``lstsq`` of the fronted, densified ``op`` on the stack of
    the frame polynomials' evaluations at ``op``'s own mode count, each
    evaluated on its own; ``coefficients``, keyed like
    ``Decomposition.coefficients``, replaces it when given.  The weights
    above ``1e-13``, in frame order, as Python complex numbers, are summed by
    ``LadderPolynomial.sum`` over the frame polynomials relabelled to the
    region, and the sum is evaluated by ``evaluate_with_identity`` on the
    shared word cache.  Returns ``(polynomial, eval_residual, fitted)``,
    ``fitted`` the weights above ``1e-13`` keyed like ``coefficients``."""
    from anyonladder.algebra import _product_frame, _region, _word_cache, mode_relabel_unitary
    from anyonladder.basis import SparseOperator
    from anyonladder.ladder import resolver
    from anyonladder.polynomial import LadderPolynomial

    basis = op.row_basis
    model, n = basis.model, basis.n_modes
    s = _region(modes, n)
    entries, polys = _product_frame(model, n, len(s))
    resolve, cache = resolver(model, n), _word_cache(model, n)
    identity = SparseOperator.identity(basis)
    if coefficients is None:
        stack = np.stack([
            poly.evaluate_with_identity(resolve, identity, cache=cache).to_dense().ravel()
            for poly in polys
        ], axis=1)
        u = mode_relabel_unitary(model, n, s)
        coeffs = np.linalg.lstsq(stack, (u @ op @ u.dagger()).to_dense().ravel(), rcond=None)[0]
    else:
        coeffs = np.array([coefficients.get(key, 0.0) for key in entries], dtype=complex)
    mode_map = {k + 1: mode for k, mode in enumerate(s)}
    parts = [(key, complex(c), poly) for key, c, poly in zip(entries, coeffs, polys) if abs(c) > 1e-13]
    polynomial = LadderPolynomial.sum((c, poly.relabel_modes(mode_map)) for _key, c, poly in parts)
    evaluated = polynomial.evaluate_with_identity(resolve, identity, cache=cache)
    fitted = {key: c for key, c, _poly in parts}
    return polynomial, float((evaluated - op).norm_max()), fitted


def conjugate_factored(w, entries):
    """``W^dagger M W`` by the two sparse products, for ``M`` given by its
    entries in the shape of ``w.row_basis``, whatever ``W`` is."""
    from anyonladder.basis import SparseOperator

    fact = w.row_basis
    return (w.dagger() @ SparseOperator.from_entries(fact, fact, entries) @ w).drop()


def drop_coo(op, tol: float = 1e-14):
    """``SparseOperator.drop`` as a round trip through COO: the entries above
    ``tol`` in stored order, rebuilt as a CSR matrix."""
    from anyonladder.basis import SparseOperator

    return SparseOperator(op.row_basis, op.col_basis, _drop_coo_matrix(op.matrix, tol))


def _drop_coo_matrix(mat, tol: float = 1e-14):
    from scipy import sparse

    mat = mat.tocoo()
    keep = np.abs(mat.data) > tol
    return sparse.csr_matrix((mat.data[keep], (mat.row[keep], mat.col[keep])), shape=mat.shape)


def matmul_coo(a, b):
    """``a @ b`` as scipy's product made CSR, then the COO round trip of
    :func:`drop_coo`."""
    from anyonladder.basis import SparseOperator

    return drop_coo(SparseOperator(a.row_basis, b.col_basis, (a.matrix @ b.matrix).tocsr()))


def dagger_conj_t(op):
    """``op.dagger()`` as three scipy matrices: the conjugate, its transpose
    and that transpose made CSR."""
    from anyonladder.basis import SparseOperator

    return SparseOperator(op.col_basis, op.row_basis, op.matrix.conj().T.tocsr())


def matmul_batch_searchsorted(lefts, rights) -> list:
    """``basis._matmul_batch(lefts, rights)`` as one ``SparseOperator`` per
    product: the same scipy product, each stacked operand's ``indptr`` found
    by ``searchsorted`` over its ascending rows, the product dropped through
    COO and cut into its row blocks."""
    from scipy import sparse

    from anyonladder.basis import SparseOperator, _gather

    a_base, a_owner, a_rows, a_col, a_val = _gather(lefts)
    b_base, b_owner, b_rows, b_col, b_val = _gather(rights)
    n_rows, n_mid, n_cols = a_base.row_basis.dim, b_base.row_basis.dim, b_base.col_basis.dim

    def stacked(rows, cols, vals, n_stacked, width):
        indptr = np.searchsorted(rows, np.arange(n_stacked + 1))
        return sparse.csr_matrix((vals, cols, indptr), shape=(n_stacked, width))

    count = len(lefts)
    a = stacked(a_owner * n_rows + a_rows, a_owner * n_mid + a_col, a_val,
                count * n_rows, count * n_mid)
    b = stacked(b_owner * n_mid + b_rows, b_col, b_val, count * n_mid, n_cols)
    product = _drop_coo_matrix(a @ b)
    return [
        SparseOperator(a_base.row_basis, b_base.col_basis, product[i * n_rows:(i + 1) * n_rows])
        for i in range(count)
    ]


def factored_groups(model, n_modes: int, m: int):
    """The canonical states of ``n_modes`` modes factored as (modes 1..m) x (the rest),
    as nested dictionaries.

    Returns ``(w, groups)``: ``w`` recouples the canonical basis to the shape
    (left comb of modes 1..m, left comb of modes m+1..n), and
    ``groups[(b0, y)] = {(x, G): i}`` lists each factored state ``i`` under its
    rest charge ``b0`` and rest labeling ``y``, keyed by its region labeling
    ``x`` and total charge ``G``.
    """
    from anyonladder import trees
    from anyonladder.basis import FusionTreeBasis, recouple

    region = trees.left_comb(0, m - 1)
    shape = region if m == n_modes else (region, trees.left_comb(m, n_modes - 1))
    w = recouple(FusionTreeBasis(model, n_modes), shape)
    fact = w.row_basis.table
    xs = map(tuple, fact.rows[:, [p for p, s in enumerate(fact.spans) if s[1] < m]].tolist())
    ys = map(tuple, fact.rows[:, [p for p, s in enumerate(fact.spans) if s[0] >= m]].tolist())
    b0s = fact.column((m, n_modes - 1)).tolist() if m < n_modes else [model.vacuum] * len(fact.rows)
    groups: dict = {}
    for i, (b0, y, x, g) in enumerate(zip(b0s, ys, xs, w.row_basis.totals().tolist())):
        groups.setdefault((b0, y), {})[(x, g)] = i
    return w, groups


def mode1_element_loop(model, n_modes: int, a: int, b0: int, c0: int):
    """The mode-1 annihilating element ``sum_y |e, y; b0><a, y; c0|`` from
    :func:`factored_groups`, conjugated by :func:`conjugate_factored`."""
    w, groups = factored_groups(model, n_modes, 1)
    e, x = (model.vacuum,), (a,)
    entries = {
        (group[(e, b0)], group[(x, c0)]): 1.0
        for (b, _y), group in groups.items()
        if b == b0 and (x, c0) in group
    }
    return conjugate_factored(w, entries)


def ladder_set_loop(model, n_modes: int, particle: str):
    """``ladder.ladder_set(...).ops`` with every mode-1 element from
    :func:`mode1_element_loop`: weighted element sums at mode 1, each
    braid-transported one mode further by ``B (.) B^dagger``."""
    from anyonladder.basis import FusionTreeBasis, SparseOperator, braid_adjacent
    from anyonladder.ladder import coefficient_tables, rest_charges

    ai = model.index(particle)
    available = rest_charges(model, n_modes)
    ops = {}
    for table in coefficient_tables(model, particle):
        op = SparseOperator.zero(FusionTreeBasis(model, n_modes))
        for (b0, c0), coeff in table.entries.items():
            b0, c0 = model.index(b0), model.index(c0)
            if coeff != 0.0 and b0 in available:
                op = op + coeff * mode1_element_loop(model, n_modes, ai, b0, c0)
        op = drop_coo(op)
        ops[(1, table.j)] = op
        for k in range(2, n_modes + 1):
            b = braid_adjacent(model, n_modes, k - 1)
            op = drop_coo(b @ op @ b.dagger())
            ops[(k, table.j)] = op
    return ops


def kernel_dimension_svd(model, n_modes: int, tol: float) -> int:
    """``algebra.kernel_dimension`` by one plain SVD: ``dim`` minus the number
    of singular values of the stacked dense annihilators of
    :func:`ladder_set_loop` above ``max(tol, eps * max(shape) * sigma_max)``,
    numpy's ``matrix_rank`` cut when ``tol`` is below it.  No projection or
    span extension is involved."""
    stacked = np.vstack([
        op.to_dense()
        for i, label in enumerate(model.labels)
        if i != model.vacuum
        for op in ladder_set_loop(model, n_modes, label).values()
    ])
    svals = np.linalg.svd(stacked, compute_uv=False)
    cut = max(tol, np.finfo(float).eps * max(stacked.shape) * svals.max())
    return stacked.shape[1] - int(np.sum(svals > cut))


def element_family_loop(model, n_modes: int, a: int, terms, last_mode: int, sector=None):
    """``ladder._element_family`` as the sum it replaced: ``weight *``
    :func:`mode1_element_loop` added to a zero operator one term at a time,
    skipping rest charges with no path on the other ``n_modes - 1`` modes,
    then dropped and braid-transported one mode further by ``B (.) B^dagger``.
    A total-charge ``sector`` slices each operator's columns to that sector.
    """
    from anyonladder.basis import FusionTreeBasis, SparseOperator, braid_adjacent

    counts = path_counts(model, n_modes - 1) if n_modes > 1 else {model.vacuum: 1}
    op = SparseOperator.zero(FusionTreeBasis(model, n_modes))
    for b0, c0, weight in terms:
        if counts.get(b0):
            op = op + weight * mode1_element_loop(model, n_modes, a, b0, c0)
    op = drop_coo(op)
    family = {1: op}
    for k in range(2, last_mode + 1):
        b = braid_adjacent(model, n_modes, k - 1)
        op = drop_coo(b @ op @ b.dagger())
        family[k] = op
    if sector is None:
        return family
    cols = FusionTreeBasis(model, n_modes, sector)
    idx = np.flatnonzero(op.row_basis.totals() == sector)
    return {k: SparseOperator(op.row_basis, cols, op.matrix[:, idx]) for k, op in family.items()}


def observable_basis_loop(model, n_modes: int, m: int):
    """``algebra.observable_basis`` from :func:`factored_groups`: ``E_{x,x'}``
    joins the factored states of equal rest labeling and total charge."""
    w, groups = factored_groups(model, n_modes, m)
    blocks: dict[tuple, dict] = {}
    for group in groups.values():
        for (x, g), row in group.items():
            for (xp, gp), col in group.items():
                if g == gp:
                    blocks.setdefault((x, xp), {})[(row, col)] = 1.0
    states = region_states(model, m)
    region_keys = labelings(model, comb_shape(m))[1]
    pairs = [(x, xp) for x in states for xp in states if x.charge == xp.charge]
    ops = [
        conjugate_factored(w, blocks.get((region_keys[x.index], region_keys[xp.index]), {}))
        for x, xp in pairs
    ]
    return pairs, ops


def local_candidate_span_loop(model, n_modes: int, m: int):
    """``algebra.local_candidate_span`` from :func:`factored_groups`: one
    element per (b0, x, G, x', G') with support, in sorted key order."""
    w, groups = factored_groups(model, n_modes, m)
    blocks: dict[tuple, dict] = {}
    for (b0, _y), group in groups.items():
        for (x, G), row in group.items():
            for (xp, Gp), col in group.items():
                blocks.setdefault((b0, x, G, xp, Gp), {})[(row, col)] = 1.0
    keys = sorted(blocks)
    metas = [
        {"b0": model.labels[b0], "x": x, "G": G, "xp": xp, "Gp": Gp}
        for b0, x, G, xp, Gp in keys
    ]
    return metas, [conjugate_factored(w, blocks[k]) for k in keys]


def complement_observable_basis(model, n_modes: int, m: int):
    """Spanning set of observables local on the complement ``{M+1..N}``.

    Mirror images of ``algebra.observable_basis``: for rest labelings ``y, y'``
    of equal charge, ``T = sum_{x,G} |x,y;G><x,y';G|`` acts trivially on the
    region factor and on the overall fusion channel.  Every operator in the
    candidate-local span of ``{1..M}`` commutes with every element here.
    """
    if m == n_modes:
        return []
    w, groups = factored_groups(model, n_modes, m)
    ops = []
    keys = sorted(groups, key=lambda k: k[1])  # by rest labeling
    for b1, y1 in keys:
        for b2, y2 in keys:
            if b1 != b2:
                continue
            left, right = groups[(b1, y1)], groups[(b2, y2)]
            entries = {
                (row, right[xg]): 1.0 for xg, row in left.items() if xg in right
            }
            if entries:
                ops.append(conjugate_factored(w, entries))
    return ops


def o_operator(model, n_modes: int, leaves, internals, g):
    """The operator ``O_{a,d,g}`` of the constructive decomposition, as a matrix.

    ``O = prod_{p=M..2} (sum_{b,c} [F^{d_{p-2} a_p b}_g]^*_{d_{p-1} c}
    (a_p)^{b,c}_p) . (sum_{b} (a_1)^{b,g}_1)`` with ``d_0 = a_1`` and ``g``
    the total charge of the whole chain; factors ordered mode M leftmost,
    the mode-1 factor acting first.  Summing ``O^dagger_{x,g} O_{x',g}``
    over ``g`` yields the observable ``|x><x'| (x) id``.  The strict matrix
    that ``algebra.o_polynomial`` realizes up to abelian-rest terms.  The
    region content is checked against the fusion table, the rest charges
    ``b`` are those with a path on the other ``n_modes - 1`` modes, and the
    weights are read from ``model.F``.
    """
    from anyonladder.basis import FusionTreeBasis, SparseOperator

    a = tuple(map(model.charge, leaves))
    d = tuple(map(model.charge, internals))
    if not a:
        raise ValueError("region content needs at least one leaf charge")
    if len(d) != len(a) - 1:
        raise ValueError(f"{len(a)} leaves need {len(a) - 1} internal charges, got {len(d)}")
    ds = a[:1] + d  # d_0 = a_1, then the charge of modes 1..p for p = 2..M
    for p in range(1, len(a)):
        if not model.fusion[ds[p - 1], a[p], ds[p]]:
            label = model.labels[ds[p]]
            raise ValueError(f"internal charge {label} at step {p} is not a fusion outcome")
    gi = model.charge(g)
    counts = path_counts(model, n_modes - 1) if n_modes > 1 else {model.vacuum: 1}
    rests = [b for b, ways in sorted(counts.items()) if ways]
    result = SparseOperator.identity(FusionTreeBasis(model, n_modes))
    for p, a_p in enumerate(a, start=1):
        if p == 1:
            terms = [(b, gi, 1.0) for b in rests if model.fusion[a_p, b, gi]]
        else:
            terms = [
                (b, c, np.conj(model.F[ds[p - 2], a_p, b, gi, ds[p - 1], c]))
                for b in rests
                for c in range(model.n_labels)
                if model.fusion[a_p, b, c]
            ]
            terms = [t for t in terms if abs(t[2]) > 1e-14]
        factor = element_family_loop(model, n_modes, a_p, terms, p)[p]
        result = (factor @ result).drop()
    return result


def pair_folded_shape(n_modes: int, k: int):
    """The left comb of ``n_modes`` leaves with modes ``k`` and ``k+1``
    (1-based) fused into one pair first."""
    parts = list(range(0, k - 1)) + [(k - 1, k)] + list(range(k + 1, n_modes))
    shape = parts[0]
    for part in parts[1:]:
        shape = (shape, part)
    return shape


def braid_adjacent_loop(model, n_modes: int, k: int, sense: str = "over"):
    """``basis.braid_adjacent`` as a loop over the states of the pair-folded
    shape: each state maps to the one with leaves ``k`` and ``k+1`` swapped,
    times ``R^{a_k a_{k+1}}_c``, and the result is recoupled to the canonical
    basis.  ``under`` is the adjoint of ``over``."""
    from anyonladder.basis import FusionTreeBasis, recouple

    if sense == "under":
        return braid_adjacent_loop(model, n_modes, k).dagger()
    i, j = k - 1, k
    shape = pair_folded_shape(n_modes, k)
    w = recouple(FusionTreeBasis(model, n_modes), shape)
    spans, states = labelings(model, shape)
    pos = {s: p for p, s in enumerate(spans)}
    index = {st: p for p, st in enumerate(states)}
    entries = {}
    for col, st in enumerate(states):
        a, b, c = st[pos[(i, i)]], st[pos[(j, j)]], st[pos[(i, j)]]
        swapped = list(st)
        swapped[pos[(i, i)]] = b
        swapped[pos[(j, j)]] = a
        entries[(index[tuple(swapped)], col)] = model.r(a, b, c)
    return conjugate_factored(w, entries)


def evaluate_recursively(poly, resolver, cache: dict, identity=None):
    """``LadderPolynomial.evaluate_with_identity`` with every word matrix built
    by its own recursive ``letter @ rest`` product (``SparseOperator.__matmul__``),
    suffixes shared through ``cache``."""
    import numpy as np
    from scipy import sparse

    from anyonladder.basis import SparseOperator

    def word_matrix(word):
        hit = cache.get(word)
        if hit is not None:
            return hit
        if len(word) == 0:
            mat = identity
        elif len(word) == 1:
            sym = word[0]
            base = resolver(sym.adjoint() if sym.dagger else sym)
            mat = base.dagger() if sym.dagger else base
        else:
            mat = word_matrix(word[:1]) @ word_matrix(word[1:])
        cache[word] = mat
        return mat

    dense = None
    reference = identity
    for w, c in poly._terms.items():
        mat = word_matrix(w)
        if dense is None:
            dense = c * mat.to_dense()
            reference = mat
        else:
            dense += c * mat.to_dense()
    if dense is None:
        dense = np.zeros((identity.row_basis.dim, identity.col_basis.dim), dtype=complex)
    return SparseOperator(reference.row_basis, reference.col_basis, sparse.csr_matrix(dense)).drop()


def dense_fold(poly, cache: dict, identity=None):
    """``LadderPolynomial.evaluate_with_identity`` by the dense fold it used
    to run: every word matrix, read from ``cache`` (filled by an earlier
    evaluation), densified by ``to_dense`` and added as ``dense += c * M``
    in term order."""
    import numpy as np
    from scipy import sparse

    from anyonladder.basis import SparseOperator

    refs = list(map(cache.__getitem__, poly._terms))
    if not refs:
        row_basis, col_basis = identity.row_basis, identity.col_basis
        dense = np.zeros((row_basis.dim, col_basis.dim), dtype=complex)
    else:
        block = refs[0][0]
        row_basis, col_basis = block.row_basis, block.col_basis
        mats = (block.operator(i).to_dense() for block, i in refs)
        terms = zip(poly._terms.values(), mats)
        c, mat = next(terms)
        dense = c * mat
        for c, mat in terms:
            dense += c * mat
    return SparseOperator(row_basis, col_basis, sparse.csr_matrix(dense)).drop()


@functools.cache
def _f_document(model) -> dict:
    return dump_model(model)["f_symbols"]


def f_block(model, a: int, b: int, c: int, d: int):
    """``(rows, cols, mat)`` of ``[F^{abc}_d]``, or ``None`` when the fusions
    forbid it, read from the ``dump_model`` document: rows ``x`` with
    ``a x b -> x -> d`` via ``c``, columns ``y`` with ``b x c -> y``, in label
    order, and the identity when a vacuum is among ``a, b, c``."""
    fusion = model.fusion
    rows = [x for x in range(model.n_labels) if fusion[a, b, x] and fusion[x, c, d]]
    cols = [y for y in range(model.n_labels) if fusion[b, c, y] and fusion[a, y, d]]
    if not rows:
        return None
    if model.vacuum in (a, b, c):
        return rows, cols, np.eye(len(rows), dtype=complex)
    key = "{},{},{};{}".format(*(model.labels[i] for i in (a, b, c, d)))
    mat = np.array([[complex(*p) for p in row] for row in _f_document(model)[key]])
    return rows, cols, mat


def sector_pairs(op) -> set[tuple[int, int]]:
    """Distinct (row total charge, column total charge) pairs with support."""
    mat = op.matrix.tocoo()
    rows, cols = op.row_basis.totals()[mat.row], op.col_basis.totals()[mat.col]
    pairs = np.unique(np.stack([rows, cols], axis=1), axis=0)
    return {(int(r), int(c)) for r, c in pairs}


def dump_triplets(op) -> str:
    """The triplet lines of ``serialize.dump_operator``, one f-string each."""
    coo = op.matrix.tocoo()
    lines = []
    for k in np.lexsort((coo.col, coo.row)):
        r, c, v = int(coo.row[k]), int(coo.col[k]), complex(coo.data[k])
        lines.append(f"{r} {c} {float(v.real):.17g} {float(v.imag):.17g}\n")
    return "".join(lines)


def cached_word(cache: dict, word):
    """The matrix of ``word`` that ``LadderPolynomial.evaluate*`` keeps in
    ``cache`` (as a ``(block, i)`` reference), as a ``SparseOperator``."""
    block, i = cache[word]
    return block.operator(i)


def untidy_operator(basis, rng, nnz: int = 60):
    """A random operator on ``basis`` stored as untidily as scipy's CSR allows:
    columns unsorted within a row, repeated positions (some cancelling to an
    exact zero), stored exact zeros, entries of magnitude at and below
    ``DROP_TOLERANCE`` and just above it, and -0.0 real or imaginary parts."""
    import scipy.sparse as sp

    from anyonladder.basis import SparseOperator

    dim = basis.dim
    rows = rng.integers(0, dim, nnz)
    cols = rng.integers(0, dim, nnz)
    vals = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    kind = rng.integers(0, 8, nnz)
    vals[kind == 1] = 0.0
    vals[kind == 2] *= rng.uniform(0.1, 1.0, (kind == 2).sum()) * 1e-14 / np.abs(vals[kind == 2])
    vals[kind == 3] *= 1e-14 / np.abs(vals[kind == 3])
    vals[kind == 4] = np.nextafter(1e-14, 1.0)
    vals.real[kind == 5] = -0.0
    vals.imag[kind == 6] = -0.0
    vals[kind == 7] = complex(-0.0, -0.0)
    # Each row once more, cancelling its first entry exactly.
    first = np.unique(rows, return_index=True)[1]
    rows = np.concatenate([rows, rows[first]])
    cols = np.concatenate([cols, cols[first]])
    vals = np.concatenate([vals, -vals[first]])
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(dim + 1))
    mat = sp.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))
    return SparseOperator(basis, basis, mat)


def is_charge_diagonal_coo(op) -> bool:
    """``SparseOperator.is_charge_diagonal`` through a COO copy of the matrix."""
    mat = op.matrix.tocoo()
    return bool(np.array_equal(op.row_basis.totals()[mat.row], op.col_basis.totals()[mat.col]))


def csr_bytes(op):
    """The dtype and raw bytes of each CSR array of ``op``: equal exactly when
    two operators store the same entries in the same order, bit for bit."""
    return tuple(
        (part.dtype.str, part.tobytes())
        for part in (op.matrix.data, op.matrix.indices, op.matrix.indptr)
    )


def span_residuals_dense(ops, modes, span):
    """Largest unfitted entry of each operator of ``ops`` after a dense
    least-squares fit over the flattened operators of ``span(model, n_modes,
    len(modes))`` moved onto the region, ``U^dagger A U`` with ``U`` its
    relabel unitary, in each operator's own frame: the (D^2, K) frame and one
    ``lstsq`` for all targets, with no use of the span's orthogonality."""
    from anyonladder.algebra import mode_relabel_unitary

    basis = ops[0].row_basis
    s = tuple(sorted(modes))
    _, elements = span(basis.model, basis.n_modes, len(s))
    u = mode_relabel_unitary(basis.model, basis.n_modes, s)
    frame = np.stack([(u.dagger() @ el @ u).to_dense().ravel() for el in elements], axis=1)
    targets = np.stack([op.to_dense().ravel() for op in ops], axis=1)
    coeffs, *_ = np.linalg.lstsq(frame, targets, rcond=None)
    return np.abs(frame @ coeffs - targets).max(axis=0)
