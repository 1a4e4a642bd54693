"""Fusion-tree bases, sparse operators on them, recoupling and braiding.

The canonical basis of ``n`` modes is the left-comb (all-left) fusion tree
with states ``(a_1 .. a_n; d_1 .. d_{n-1})``, ordered lexicographically by
(total charge, leaf charges, internal charges).  Operators are stored as
scipy CSR matrices tied to their row/column bases; compositions drop
entries below ``DROP_TOLERANCE``.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from . import trees
from .model import AnyonModel

__all__ = [
    "DROP_TOLERANCE",
    "FusionTreeBasis",
    "SparseOperator",
    "recouple",
    "braid_adjacent",
    "braid_word",
    "total_charge_projector",
]

DROP_TOLERANCE = 1e-14


class FusionTreeBasis:
    """Ordered basis of fusion-tree labelings for a fixed shape.

    ``shape=None`` means the canonical left comb.  ``sector`` optionally
    restricts to states of one total charge (given as a label).
    """

    def __init__(self, model: AnyonModel, n_modes: int, sector: str | None = None,
                 shape=None):
        if n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        self.model = model
        self.n_modes = int(n_modes)
        self.shape = trees.left_comb(0, n_modes - 1) if shape is None else shape
        lo, hi = trees.span(self.shape)
        if (lo, hi) != (0, n_modes - 1):
            raise ValueError(f"shape covers {(lo, hi)}, expected (0, {n_modes - 1})")
        self.sector = None if sector is None else model.index(sector)
        self.spans, states = _labelings(model, self.shape)
        self._span_pos = {s: i for i, s in enumerate(self.spans)}
        self.root_span = (0, n_modes - 1)
        if self.sector is not None:
            root = self._span_pos[self.root_span]
            states = tuple(st for st in states if st[root] == self.sector)
        self.states: tuple[tuple[int, ...], ...] = states
        self.index: dict[tuple[int, ...], int] = {st: i for i, st in enumerate(states)}
        self._totals: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.states)

    def charge(self, state: tuple[int, ...], span: tuple[int, int]) -> int:
        return state[self._span_pos[span]]

    def total(self, state: tuple[int, ...]) -> int:
        return state[self._span_pos[self.root_span]]

    def leaves(self, state: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(state[self._span_pos[(i, i)]] for i in range(self.n_modes))

    def totals(self) -> np.ndarray:
        """Total charge per state, as a read-only int array built once per basis."""
        if self._totals is None:
            root = self._span_pos[self.root_span]
            totals = np.fromiter((st[root] for st in self.states), dtype=int, count=self.dim)
            totals.flags.writeable = False
            self._totals = totals
        return self._totals

    def sector_indices(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.totals() == g)

    def state_label(self, i: int) -> str:
        """Human-readable ``(a_1 .. a_n; d_1 .. d_{n-1})`` string."""
        st = self.states[i]
        names = self.model.labels
        leaves = ",".join(names[a] for a in self.leaves(st))
        inner = [s for s in self.spans if s[0] != s[1]]
        ds = ",".join(names[self.charge(st, s)] for s in inner)
        return f"({leaves};{ds})" if ds else f"({leaves})"

    def is_compatible(self, other: "FusionTreeBasis") -> bool:
        return (
            self.model is other.model
            and self.n_modes == other.n_modes
            and self.shape == other.shape
            and self.sector == other.sector
        )


@dataclass
class SparseOperator:
    """Complex sparse matrix between two fusion-tree bases."""

    row_basis: FusionTreeBasis
    col_basis: FusionTreeBasis
    matrix: sp.csr_matrix

    @classmethod
    def from_entries(cls, row_basis, col_basis, entries: Mapping[tuple[int, int], complex]):
        rows, cols, vals = [], [], []
        for (i, j), v in entries.items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
        mat = sp.csr_matrix(
            (np.array(vals, dtype=complex), (rows, cols)),
            shape=(row_basis.dim, col_basis.dim),
        )
        return cls(row_basis, col_basis, mat)

    @classmethod
    def identity(cls, basis: FusionTreeBasis):
        return cls(basis, basis, sp.identity(basis.dim, dtype=complex, format="csr"))

    @classmethod
    def zero(cls, row_basis: FusionTreeBasis, col_basis: FusionTreeBasis | None = None):
        col_basis = row_basis if col_basis is None else col_basis
        return cls(row_basis, col_basis, sp.csr_matrix((row_basis.dim, col_basis.dim), dtype=complex))

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if not self.col_basis.is_compatible(other.row_basis):
            raise ValueError("operator composition over incompatible bases")
        out = SparseOperator(self.row_basis, other.col_basis, (self.matrix @ other.matrix).tocsr())
        return out.drop()

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_bases(other)
        return SparseOperator(self.row_basis, self.col_basis, (self.matrix + other.matrix).tocsr())

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_bases(other)
        return SparseOperator(self.row_basis, self.col_basis, (self.matrix - other.matrix).tocsr())

    def __mul__(self, scalar: complex) -> "SparseOperator":
        return SparseOperator(self.row_basis, self.col_basis, (self.matrix * scalar).tocsr())

    __rmul__ = __mul__

    def __neg__(self) -> "SparseOperator":
        return self * (-1.0)

    def _require_same_bases(self, other: "SparseOperator"):
        if not (self.row_basis.is_compatible(other.row_basis)
                and self.col_basis.is_compatible(other.col_basis)):
            raise ValueError("operator arithmetic over incompatible bases")

    def dagger(self) -> "SparseOperator":
        return SparseOperator(self.col_basis, self.row_basis, self.matrix.conj().T.tocsr())

    def drop(self, tol: float = DROP_TOLERANCE) -> "SparseOperator":
        mat = self.matrix.tocoo()
        keep = np.abs(mat.data) > tol
        out = sp.csr_matrix(
            (mat.data[keep], (mat.row[keep], mat.col[keep])), shape=mat.shape
        )
        return SparseOperator(self.row_basis, self.col_basis, out)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    # -- inspection -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def norm_max(self) -> float:
        """Largest entry magnitude (0 for an empty matrix)."""
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def entries(self):
        mat = self.matrix.tocoo()
        for i, j, v in zip(mat.row, mat.col, mat.data):
            yield int(i), int(j), complex(v)

    def allclose(self, other: "SparseOperator", tol: float = 1e-10) -> bool:
        self._require_same_bases(other)
        diff = self.matrix - other.matrix
        return float(np.abs(diff.data).max()) <= tol if diff.nnz else True

    def _entry_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column total charge of every stored entry."""
        mat = self.matrix.tocoo()
        return self.row_basis.totals()[mat.row], self.col_basis.totals()[mat.col]

    def sector_pairs(self) -> set[tuple[int, int]]:
        """Distinct (row total charge, column total charge) pairs with support."""
        rows, cols = self._entry_totals()
        pairs = np.unique(np.stack([rows, cols], axis=1), axis=0)
        return {(int(r), int(c)) for r, c in pairs}

    def is_charge_diagonal(self) -> bool:
        rows, cols = self._entry_totals()
        return bool(np.array_equal(rows, cols))


# ---------------------------------------------------------------------------
# Recoupling
# ---------------------------------------------------------------------------


def _memo(fn):
    """Keep each result of ``fn(model, ...)`` in the model's operator cache.

    The key is ``fn`` with its bound arguments, defaults filled in, so every
    spelling of one call shares one entry; a call that raises stores
    nothing.  Results are shared by every caller and must be treated as
    read-only.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        model, *rest = bound.arguments.values()
        cache = vars(model).setdefault("_op_cache", {})
        key = (fn, *rest)
        if key not in cache:
            cache[key] = fn(*args, **kwargs)
        return cache[key]

    return memoised


@_memo
def _labelings(model: AnyonModel, shape):
    """``trees.enumerate_labelings(model, shape)`` as immutable tuples, shared
    by every basis and recoupling move of that shape."""
    spans, states = trees.enumerate_labelings(model, shape)
    return tuple(spans), tuple(states)


def _move_matrix(model: AnyonModel, shape, node_span):
    """One right-to-left rotation as a sparse overlap matrix.

    Returns ``(new_shape, M)`` with ``M[i_new, j_old] = <new_i|old_j>``.
    """
    new_shape, a_span, b_span, c_span = trees.rotate_right_to_left(shape, node_span)
    old_spans, old_states = _labelings(model, shape)
    new_spans, new_states = _labelings(model, new_shape)
    new_index = {st: i for i, st in enumerate(new_states)}
    old_pos = {s: i for i, s in enumerate(old_spans)}

    removed = (b_span[0], c_span[1])
    created = (a_span[0], b_span[1])
    # A new state is the old one with the removed charge dropped and the
    # created charge x inserted at ``slot``; every other span keeps its charge.
    slot = new_spans.index(created)
    kept = itemgetter(*(old_pos[s] for s in new_spans if s != created))
    pa, pb, pc, pd, py = (old_pos[s] for s in (a_span, b_span, c_span, node_span, removed))

    rows, cols, vals = [], [], []
    for j, st in enumerate(old_states):
        block = model.f_block(st[pa], st[pb], st[pc], st[pd])
        if block is None or st[py] not in block.cols:
            continue
        y = block.cols.index(st[py])
        rest = kept(st)
        head, tail = rest[:slot], rest[slot:]
        for idx, x in enumerate(block.rows):
            amp = block.mat[idx, y]
            if abs(amp) <= DROP_TOLERANCE:
                continue
            rows.append(new_index[head + (x,) + tail])
            cols.append(j)
            vals.append(complex(amp))
    mat = sp.csr_matrix(
        (np.array(vals, dtype=complex), (rows, cols)),
        shape=(len(new_states), len(old_states)),
    )
    return new_shape, mat


def recouple(basis: FusionTreeBasis, target_shape) -> SparseOperator:
    """Unitary change of coordinates from the canonical shape to ``target_shape``.

    The result ``W`` has rows over the target-shape basis and columns over the
    canonical basis; for a state with canonical coordinates ``v`` the
    target-shape coordinates are ``W @ v``.  ``W`` is charge preserving and
    unitary; ``recouple(basis, canonical_shape)`` is the identity.
    """
    if basis.sector is not None:
        raise ValueError("recouple expects the full (all-sector) canonical basis")
    if basis.shape != trees.left_comb(0, basis.n_modes - 1):
        raise ValueError("recouple expects the canonical left-comb basis")
    return _recouple(basis.model, basis.n_modes, target_shape)


@_memo
def _recouple(model: AnyonModel, n_modes: int, target_shape) -> SparseOperator:
    basis = FusionTreeBasis(model, n_modes)
    target_basis = FusionTreeBasis(model, n_modes, shape=target_shape)
    # Compose overlap matrices target -> canonical, then take the adjoint.
    shape = target_shape
    overlap = sp.identity(target_basis.dim, dtype=complex, format="csr")
    for node_span in trees.moves_to_left_comb(target_shape):
        shape, mat = _move_matrix(model, shape, node_span)
        overlap = (mat @ overlap).tocsr()
    return SparseOperator(basis, target_basis, overlap).drop().dagger()


def _from_factored(w: SparseOperator, entries: Mapping[tuple[int, int], complex]) -> SparseOperator:
    """``W^dagger M W`` on the canonical basis, for ``M`` given by its entries
    in the shape of ``w.row_basis``.  When that shape is the canonical one,
    ``W`` is the identity and the two products are skipped."""
    fact = w.row_basis
    if fact.shape == w.col_basis.shape:
        canonical = w.col_basis
        op = SparseOperator.from_entries(canonical, canonical, entries).drop()
        op.matrix.data += 0.0  # -0.0 parts become +0.0, as in a product with W
        return op
    return (w.dagger() @ SparseOperator.from_entries(fact, fact, entries) @ w).drop()


@_memo
def _factored_states(model: AnyonModel, n_modes: int, m: int):
    """The canonical states of ``n_modes`` modes factored as (modes 1..m) x (the rest).

    Returns ``(w, groups)``.  ``w`` recouples the canonical basis to the
    shape (left comb of modes 1..m, left comb of modes m+1..n); it is the
    identity when ``m == n_modes``.  ``groups[(b0, y)] = {(x, G): i}`` lists
    each factored state ``i`` under its rest charge ``b0`` (the vacuum when
    ``m == n_modes``) and rest labeling ``y``, keyed by its region labeling
    ``x`` (an ``m``-mode canonical state) and total charge ``G``.
    """
    if not 1 <= m <= n_modes:
        raise ValueError(f"region size {m} out of range")
    region = trees.left_comb(0, m - 1)
    shape = region if m == n_modes else (region, trees.left_comb(m, n_modes - 1))
    w = recouple(FusionTreeBasis(model, n_modes), shape)
    fact = w.row_basis
    region_pos = [p for p, s in enumerate(fact.spans) if s[1] < m]
    rest_pos = [p for p, s in enumerate(fact.spans) if s[0] >= m]
    root = fact._span_pos[fact.root_span]
    b0_pos = fact._span_pos.get((m, n_modes - 1))
    groups: dict = {}
    for i, st in enumerate(fact.states):
        b0 = model.vacuum if b0_pos is None else st[b0_pos]
        group = groups.setdefault((b0, tuple(st[p] for p in rest_pos)), {})
        group[(tuple(st[p] for p in region_pos), st[root])] = i
    return w, groups


@_memo
def braid_adjacent(model: AnyonModel, n_modes: int, k: int, sense: str = "over") -> SparseOperator:
    """Unitary braid exchanging modes ``k`` and ``k+1`` (1-based) on the canonical basis.

    ``over`` applies the stored R-symbols ``R^{a_k a_{k+1}}_c`` for a
    counterclockwise exchange; ``under`` is its adjoint.
    """
    if not 1 <= k <= n_modes - 1:
        raise ValueError(f"braid index k={k} out of range for {n_modes} modes")
    if sense not in ("over", "under"):
        raise ValueError(f"unknown braid sense {sense!r}")
    if sense == "under":
        return braid_adjacent(model, n_modes, k, "over").dagger()

    i, j = k - 1, k  # 0-based pair
    parts = list(range(0, i)) + [(i, j)] + list(range(j + 1, n_modes))
    target = trees.fold_left(parts)
    w = recouple(FusionTreeBasis(model, n_modes), target)
    target_basis = w.row_basis

    pair_span = (i, j)
    entries: dict[tuple[int, int], complex] = {}
    pos = target_basis._span_pos
    for col, st in enumerate(target_basis.states):
        a = st[pos[(i, i)]]
        b = st[pos[(j, j)]]
        c = st[pos[pair_span]]
        swapped = list(st)
        swapped[pos[(i, i)]] = b
        swapped[pos[(j, j)]] = a
        row = target_basis.index[tuple(swapped)]
        entries[(row, col)] = model.r(a, b, c)
    return _from_factored(w, entries)


def braid_word(model: AnyonModel, n_modes: int, word) -> SparseOperator:
    """Product of adjacent braids; ``word`` is a sequence of (k, sense) pairs.

    The first pair in ``word`` is the leftmost factor of the product, i.e.
    the last one applied to a ket.
    """
    basis = FusionTreeBasis(model, n_modes)
    result = SparseOperator.identity(basis)
    for k, sense in word:
        result = result @ braid_adjacent(model, n_modes, k, sense)
    return result


def total_charge_projector(model: AnyonModel, n_modes: int, g: str) -> SparseOperator:
    """Diagonal projector onto total charge ``g`` on the canonical basis."""
    basis = FusionTreeBasis(model, n_modes)
    entries = {(i, i): 1.0 for i in basis.sector_indices(model.index(g))}
    return SparseOperator.from_entries(basis, basis, entries)
