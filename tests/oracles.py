"""Independent brute-force oracles used only by the tests.

Everything here is computed from the raw model data (fusion table, F- and
R-symbols) by direct enumeration, deliberately avoiding the package's own
basis/recoupling/closure machinery, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from anyonladder.model import dump_model

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
    assignments allowed by the fusion table at each internal node.  Returns
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
    col = {s: i for i, s in enumerate(spans)}
    grid = np.indices((model.n_labels,) * len(spans)).reshape(len(spans), -1).T
    keep = np.ones(len(grid), dtype=bool)
    for node, left, right in nodes:
        keep &= model.fusion[grid[:, col[left]], grid[:, col[right]], grid[:, col[node]]] > 0
    states = [tuple(int(c) for c in row) for row in grid[keep]]
    states.sort(key=lambda st: (
        st[col[(lo, hi)]], [st[col[s]] for s in leaves], [st[col[s]] for s in inner]
    ))
    return spans, states


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


def conjugate_factored(w, entries):
    """``W^dagger M W`` by the two sparse products, for ``M`` given by its
    entries in the shape of ``w.row_basis``, whatever ``W`` is."""
    from anyonladder.basis import SparseOperator

    fact = w.row_basis
    return (w.dagger() @ SparseOperator.from_entries(fact, fact, entries) @ w).drop()


def drop_coo(op, tol: float = 1e-14):
    """``SparseOperator.drop`` as a round trip through COO: the entries above
    ``tol`` in stored order, rebuilt as a CSR matrix."""
    from scipy import sparse

    from anyonladder.basis import SparseOperator

    mat = op.matrix.tocoo()
    keep = np.abs(mat.data) > tol
    out = sparse.csr_matrix(
        (mat.data[keep], (mat.row[keep], mat.col[keep])), shape=mat.shape
    )
    return SparseOperator(op.row_basis, op.col_basis, out)


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


def observable_basis_loop(model, n_modes: int, m: int):
    """``algebra.observable_basis`` from :func:`factored_groups`: ``E_{x,x'}``
    joins the factored states of equal rest labeling and total charge."""
    from anyonladder.algebra import region_states
    from anyonladder.basis import FusionTreeBasis

    w, groups = factored_groups(model, n_modes, m)
    blocks: dict[tuple, dict] = {}
    for group in groups.values():
        for (x, g), row in group.items():
            for (xp, gp), col in group.items():
                if g == gp:
                    blocks.setdefault((x, xp), {})[(row, col)] = 1.0
    states = region_states(model, m)
    region_keys = FusionTreeBasis(model, m).states
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
    that ``algebra.o_polynomial`` realizes up to abelian-rest terms.
    """
    from anyonladder.algebra import _as_region_state, _factor_terms
    from anyonladder.basis import FusionTreeBasis, SparseOperator
    from anyonladder.ladder import _element_family

    x = _as_region_state(model, leaves, internals)
    gi = model.charge(g)
    result = SparseOperator.identity(FusionTreeBasis(model, n_modes))
    for p, a_p in enumerate(x.leaves, start=1):
        terms = _factor_terms(model, n_modes, x, gi, p)
        factor = _element_family(model, n_modes, a_p, terms, p)[p]
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
    w = recouple(FusionTreeBasis(model, n_modes), pair_folded_shape(n_modes, k))
    target_basis = w.row_basis
    pos = target_basis._span_pos
    entries = {}
    for col, st in enumerate(target_basis.states):
        a, b, c = st[pos[(i, i)]], st[pos[(j, j)]], st[pos[(i, j)]]
        swapped = list(st)
        swapped[pos[(i, i)]] = b
        swapped[pos[(j, j)]] = a
        entries[(target_basis.index[tuple(swapped)], col)] = model.r(a, b, c)
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


def csr_bytes(op):
    """The dtype and raw bytes of each CSR array of ``op``: equal exactly when
    two operators store the same entries in the same order, bit for bit."""
    return tuple(
        (part.dtype.str, part.tobytes())
        for part in (op.matrix.data, op.matrix.indices, op.matrix.indptr)
    )


def span_residuals_dense(ops, modes, span):
    """Largest unfitted entry of each operator of ``ops``, region ``modes``
    braided to the front, after a dense least-squares fit over the flattened
    operators of ``span(model, n_modes, len(modes))``: the (D^2, K) frame and
    one ``lstsq`` for all targets, with no use of the span's orthogonality."""
    from anyonladder.algebra import mode_relabel_unitary

    basis = ops[0].row_basis
    s = tuple(sorted(modes))
    _, elements = span(basis.model, basis.n_modes, len(s))
    frame = np.stack([el.to_dense().ravel() for el in elements], axis=1)
    u = mode_relabel_unitary(basis.model, basis.n_modes, s)
    targets = np.stack([(u @ op @ u.dagger()).to_dense().ravel() for op in ops], axis=1)
    coeffs, *_ = np.linalg.lstsq(frame, targets, rcond=None)
    return np.abs(frame @ coeffs - targets).max(axis=0)
