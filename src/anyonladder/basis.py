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
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
_INT32_MAX = np.iinfo(np.int32).max
_MAXPRINT = sp.csr_matrix((1, 1)).maxprint


class FusionTreeBasis:
    """Ordered basis of fusion-tree labelings for a fixed shape.

    ``shape=None`` means the canonical left comb.  ``sector`` optionally
    restricts to states of one total charge (a label or an index); its
    states are then rows ``offset .. offset + dim`` of the shape's full
    label table (``offset`` is 0 without a sector).
    """

    def __init__(self, model: AnyonModel, n_modes: int, sector: str | int | None = None,
                 shape=None):
        if n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        self.model = model
        self.n_modes = int(n_modes)
        self.shape = trees.left_comb(0, n_modes - 1) if shape is None else shape
        lo, hi = trees.span(self.shape)
        if (lo, hi) != (0, n_modes - 1):
            raise ValueError(f"shape covers {(lo, hi)}, expected (0, {n_modes - 1})")
        self.sector = None if sector is None else model.charge(sector)
        table = _label_table(model, self.shape)
        self.root_span = (0, n_modes - 1)
        self.offset = 0
        if self.sector is not None:
            # The root charge is the codes' most significant digit, so a
            # sector is a range of rows: a read-only view of the shared table.
            lo, hi = np.searchsorted(table.column(self.root_span), [self.sector, self.sector + 1])
            table = table._replace(rows=table.rows[lo:hi], codes=table.codes[lo:hi])
            self.offset = int(lo)
        self.table: trees.LabelTable = table

    @property
    def dim(self) -> int:
        return len(self.table.rows)

    def totals(self) -> np.ndarray:
        """Total charge per state, as a read-only column of ``table``."""
        return self.table.column(self.root_span)

    def state_label(self, i: int) -> str:
        """Human-readable ``(a_1 .. a_n; d_1 .. d_{n-1})`` string."""
        names = self.model.labels
        row = dict(zip(self.table.spans, self.table.rows[i].tolist()))
        leaves = ",".join(names[row[(k, k)]] for k in range(self.n_modes))
        ds = ",".join(names[c] for s, c in row.items() if s[0] != s[1])
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
    def from_entries(cls, row_basis, col_basis, entries):
        """``entries`` maps ``(i, j)`` to a value, or is a ``(rows, cols, values)``
        triple of arrays; either way entries are stored in the order given."""
        if isinstance(entries, Mapping):
            keys = np.array(list(entries), dtype=int).reshape(-1, 2)
            entries = keys[:, 0], keys[:, 1], list(entries.values())
        rows, cols, vals = (np.asarray(x) for x in entries)
        shape = (row_basis.dim, col_basis.dim)
        if not len(rows) == len(cols) == len(vals) or any(
                len(i) and not 0 <= i.min() <= i.max() < d for i, d in zip((rows, cols), shape)):
            raise ValueError(f"entries must be equally many, with indices inside the shape {shape}")
        return cls(row_basis, col_basis, _coo_csr(rows, cols, vals.astype(complex), shape))

    @classmethod
    def identity(cls, basis: FusionTreeBasis):
        dim = basis.dim
        return cls(basis, basis, _csr(np.ones(dim, complex), np.arange(dim), np.arange(dim + 1), (dim, dim)))

    @classmethod
    def zero(cls, row_basis: FusionTreeBasis, col_basis: FusionTreeBasis | None = None):
        col_basis = row_basis if col_basis is None else col_basis
        empty, shape = np.zeros(0, int), (row_basis.dim, col_basis.dim)
        return cls(row_basis, col_basis, _csr(empty + 0j, empty, np.zeros(shape[0] + 1, int), shape))

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if not self.col_basis.is_compatible(other.row_basis):
            raise ValueError("operator composition over incompatible bases")
        return SparseOperator(self.row_basis, other.col_basis, _drop(_product(self.matrix, other.matrix)))

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_bases(other)
        mat = _sum(_sparsetools.csr_plus_csr, self.matrix, other.matrix)
        return SparseOperator(self.row_basis, self.col_basis, mat)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        self._require_same_bases(other)
        mat = _sum(_sparsetools.csr_minus_csr, self.matrix, other.matrix)
        return SparseOperator(self.row_basis, self.col_basis, mat)

    def __mul__(self, scalar: complex) -> "SparseOperator":
        value = np.asarray(scalar)  # a matrix or an operator is a 0-d object array
        if value.ndim or value.dtype.kind not in "biufc":
            raise TypeError("* is by a scalar; use @ for the operator product and apply for a vector")
        mat = self.matrix  # scipy's scalar product: the data scaled, the index arrays copied
        scaled = _csr(mat.data * scalar, mat.indices.copy(), mat.indptr.copy(), mat.shape)
        return SparseOperator(self.row_basis, self.col_basis, scaled)

    __rmul__ = __mul__

    def __neg__(self) -> "SparseOperator":
        return self * (-1.0)

    def _require_same_bases(self, other: "SparseOperator"):
        if not (self.row_basis.is_compatible(other.row_basis)
                and self.col_basis.is_compatible(other.col_basis)):
            raise ValueError("operator arithmetic over incompatible bases")

    def dagger(self) -> "SparseOperator":
        """The adjoint: the transpose by scipy's ``csr_tocsc`` kernel into
        fresh arrays, its data conjugated in place, with the bytes of
        ``conj().T.tocsr()``."""
        mat = self.matrix
        (m, n), nnz = mat.shape, mat.nnz
        dtype = _index_dtype(m, n, nnz)
        indptr, indices, data = np.empty(n + 1, dtype), np.empty(nnz, dtype), np.empty(nnz, mat.dtype)
        _sparsetools.csr_tocsc(m, n, *_indices(dtype, mat), mat.data, indptr, indices, data)
        np.conjugate(data, out=data)
        return SparseOperator(self.col_basis, self.row_basis, _csr(data, indices, indptr, (n, m)))

    def drop(self, tol: float = DROP_TOLERANCE) -> "SparseOperator":
        return SparseOperator(self.row_basis, self.col_basis, _drop(self.matrix, tol))

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

    def allclose(self, other: "SparseOperator", tol: float = 1e-10) -> bool:
        diff = (self - other).matrix
        return float(np.abs(diff.data).max()) <= tol if diff.nnz else True

    def is_charge_diagonal(self) -> bool:
        """Whether every stored entry joins states of one total charge."""
        mat = self.matrix
        rows = np.repeat(self.row_basis.totals(), np.diff(mat.indptr))
        return bool(np.array_equal(rows, self.col_basis.totals()[mat.indices]))


def _drop(mat: sp.csr_matrix, tol: float = DROP_TOLERANCE) -> sp.csr_matrix:
    """``mat`` without its entries of magnitude ``tol`` or less, in canonical
    CSR: duplicates summed after the filter, int32 indices where they fit;
    ``mat`` itself, shared, when it is canonical with int32 indices and has
    nothing to drop.  ``mat`` is never written to."""
    keep = np.abs(mat.data) > tol
    if keep.all() and mat.indices.dtype == mat.indptr.dtype == np.int32 and mat.has_canonical_format:
        return mat
    indptr = np.concatenate(([0], np.cumsum(keep)))[mat.indptr]
    return _canonical(mat.data[keep], mat.indices[keep], indptr, mat.shape)


def _csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """The ``sp.csr_matrix`` that ``sp.csr_matrix((data, indices, indptr),
    shape=shape)`` builds from arrays that already form a valid CSR matrix,
    without its checks: ``indices`` and ``data`` cut to ``nnz``, a view of
    under half of its buffer copied (scipy's ``_prune_array``), and the index
    arrays int32 where ``max(shape)`` and ``nnz`` fit, int64 otherwise.

    Every sparse result of the package is made by the ``_sparsetools``
    kernel that scipy calls for it and wrapped here, so it has scipy's bytes.
    """
    nnz = int(indptr[-1])
    dtype = _index_dtype(*shape, nnz)
    indices, data = indices[:nnz].astype(dtype, copy=False), data[:nnz]
    mat = sp.csr_matrix.__new__(sp.csr_matrix)
    vars(mat).update(_shape=shape, maxprint=_MAXPRINT, indices=_pruned(indices),
                     indptr=np.asarray(indptr, dtype), data=_pruned(data))
    return mat


def _pruned(array: np.ndarray) -> np.ndarray:
    return array.copy() if array.base is not None and array.size < array.base.size // 2 else array


def _index_dtype(*sizes):
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


def _indices(dtype, *mats) -> list:
    """``indptr`` and ``indices`` of each of ``mats``, in ``dtype``."""
    return [x.astype(dtype, copy=False) for mat in mats for x in (mat.indptr, mat.indices)]


def _binop(kernel, a: sp.csr_matrix, b: sp.csr_matrix, shape, nnz: int) -> sp.csr_matrix:
    """scipy's ``kernel`` on ``a`` and ``b`` into fresh arrays of ``nnz``
    entries, the bound on the result's."""
    dtype = _index_dtype(*a.shape, *b.shape, a.nnz, b.nnz, nnz)
    ap, ai, bp, bi = _indices(dtype, a, b)
    indptr, indices = np.empty(shape[0] + 1, dtype), np.empty(nnz, dtype)
    data = np.empty(nnz, np.result_type(a.data, b.data))
    kernel(*shape, ap, ai, a.data, bp, bi, b.data, indptr, indices, data)
    return _csr(data, indices, indptr, shape)


def _product(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """``a @ b``, its fresh columns sorted in place: the bytes of ``(a @
    b).tocsr()`` after ``sort_indices``."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    shape = (a.shape[0], b.shape[1])
    nnz = _sparsetools.csr_matmat_maxnnz(*shape, *_indices(_index_dtype(*a.shape, *b.shape, a.nnz, b.nnz), a, b))
    mat = _binop(_sparsetools.csr_matmat, a, b, shape, nnz)
    _sparsetools.csr_sort_indices(shape[0], mat.indptr, mat.indices, mat.data)
    return mat


def _sum(kernel, a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """``a + b`` or ``a - b`` by scipy's ``csr_plus_csr`` or ``csr_minus_csr``
    ``kernel``, which stores no entry that comes to zero."""
    if a.shape != b.shape:
        raise ValueError(f"inconsistent shapes {a.shape} and {b.shape}")
    return _binop(kernel, a, b, a.shape, a.nnz + b.nnz)


def _coo_csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """``sp.csr_matrix((vals, (rows, cols)), shape=shape)`` by the kernels of
    scipy's COO to CSR build: entries in order within each row, then
    :func:`_canonical`.  The indices must lie inside ``shape``."""
    (m, n), nnz = shape, len(vals)
    dtype = _index_dtype(m, n, nnz)
    indptr, indices, data = np.empty(m + 1, dtype), np.empty(nnz, dtype), np.empty(nnz, vals.dtype)
    _sparsetools.coo_tocsr(m, n, nnz, rows.astype(dtype, copy=False), cols.astype(dtype, copy=False),
                           vals, indptr, indices, data)
    return _canonical(data, indices, indptr, shape)


def _canonical(data, indices, indptr, shape) -> sp.csr_matrix:
    """The CSR arrays, which it may write to, as ``sum_duplicates`` leaves
    them: columns sorted and repeats summed in stored order by scipy's
    kernels, only where the arrays are not canonical already."""
    m, n = shape
    dtype = _index_dtype(m, n, indptr[-1])
    indptr, indices = indptr.astype(dtype, copy=False), indices.astype(dtype, copy=False)
    if not _sparsetools.csr_has_canonical_format(m, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
            _sparsetools.csr_sort_indices(m, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(m, n, indptr, indices, data)
    return _csr(data, indices, indptr, shape)


def _require_finite(op: SparseOperator) -> None:
    """Raise ``ValueError`` naming the first stored entry of ``op`` that is
    not finite, in either part."""
    mat = op.matrix
    bad = np.flatnonzero(~np.isfinite(mat.data))
    if len(bad):
        k = int(bad[0])
        row = int(np.searchsorted(mat.indptr, k, side="right")) - 1
        raise ValueError(
            f"non-finite value {complex(mat.data[k])} at entry ({row}, {int(mat.indices[k])})"
        )


def _entries(op: SparseOperator) -> tuple[np.ndarray, np.ndarray]:
    """``op``'s stored entries as ``to_dense`` reads them: the distinct flat
    positions ``row * dim + col`` that hold one, and the value at each, a
    repeated position's entries added from zero in stored order."""
    mat = op.matrix
    flat = np.repeat(np.arange(mat.shape[0], dtype=np.int64) * mat.shape[1], np.diff(mat.indptr))
    flat += mat.indices
    if mat.has_canonical_format:
        return flat, mat.data
    flat, inverse = np.unique(flat, return_inverse=True)
    vals = np.zeros(len(flat), complex)
    np.add.at(vals, inverse, mat.data)
    return flat, vals


def _values_at(entries, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``entries`` from :func:`_entries` and ascending flat positions
    ``support``: the value at each position of ``support`` (zero where none
    is stored), and the values stored anywhere else."""
    flat, vals = entries
    loc = np.searchsorted(support, flat)
    hit = loc < len(support)
    hit[hit] = support[loc[hit]] == flat[hit]
    at = np.zeros(len(support), complex)
    at[loc[hit]] = vals[hit]
    return at, vals[~hit]


@dataclass(frozen=True, eq=False)
class _CSRBlock:
    """Equal-shape matrices between two bases, stacked row-wise in one CSR.

    Matrix ``i`` is rows ``i * R .. (i + 1) * R`` of the stack (``R`` the
    row-basis dimension), its entries in their stored order; ``rows`` holds
    the row of each entry within its matrix.  A word cache refers to matrix
    ``i`` as ``(block, i)``; no scipy object exists per matrix until
    :meth:`operator` makes one.
    """

    row_basis: FusionTreeBasis
    col_basis: FusionTreeBasis
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    _require_same_bases = SparseOperator._require_same_bases

    @classmethod
    def pack(cls, ops) -> "_CSRBlock":
        """The operators ``ops``, which share their bases, as one block."""
        first = ops[0]
        for op in ops:
            first._require_same_bases(op)
        mats = [op.matrix for op in ops]
        starts = np.cumsum([0] + [m.nnz for m in mats])
        indptr = np.concatenate([m.indptr[:-1] + s for m, s in zip(mats, starts)] + [starts[-1:]])
        rows = np.repeat(np.tile(np.arange(first.row_basis.dim), len(ops)), np.diff(indptr))
        return cls(first.row_basis, first.col_basis, indptr,
                   np.concatenate([m.indices for m in mats]),
                   np.concatenate([m.data for m in mats]).astype(complex, copy=False), rows)

    @classmethod
    def unstack(cls, row_basis, col_basis, mat: sp.csr_matrix) -> "_CSRBlock":
        """The block of the matrices stacked row-wise in ``mat``, as stored."""
        rows = np.repeat(np.arange(mat.shape[0]) % row_basis.dim, np.diff(mat.indptr))
        return cls(row_basis, col_basis, mat.indptr, mat.indices, mat.data, rows)

    def operator(self, i: int) -> SparseOperator:
        """Matrix ``i`` as a ``SparseOperator``, with the CSR bytes it was stored with."""
        n_rows = self.row_basis.dim
        ptr = self.indptr[i * n_rows:(i + 1) * n_rows + 1]
        lo, hi = ptr[0], ptr[-1]
        mat = _csr(self.data[lo:hi], self.indices[lo:hi], ptr - lo, (n_rows, self.col_basis.dim))
        return SparseOperator(self.row_basis, self.col_basis, mat)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _times(u, v) -> np.ndarray:
    """``u * v`` elementwise, real and imaginary parts formed by separate
    float operations as scipy's sparse kernels form them; numpy's complex
    multiply may fuse them and move the last bit."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), complex)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def _gather(refs):
    """The stored entries of the matrices ``block.operator(i)`` for ``(block,
    i)`` in ``refs``, in that order and each in its stored order: ``(first
    block, position in refs, row, column, value)`` per entry.

    The blocks must share their bases.  The references are grouped by block,
    each block is read with one gather per array, and one stable sort puts
    the entries back in the order of ``refs``.
    """
    blocks, slots = zip(*refs)
    slots = np.array(slots)
    base = blocks[0]
    word_rows = base.row_basis.dim
    if blocks.count(base) == len(blocks):
        first, order, bounds = [0], slice(None), [0, len(refs)]
    else:
        ids = np.fromiter(map(id, blocks), np.intp, len(blocks))
        _, first, which = np.unique(ids, return_index=True, return_inverse=True)
        order = np.argsort(which, kind="stable")
        bounds = np.searchsorted(which[order], np.arange(len(first) + 1)).tolist()
    starts, ends = np.empty(len(refs), np.int64), np.empty(len(refs), np.int64)
    grouped = slots[order]
    for b, i in enumerate(first):
        base._require_same_bases(blocks[i])
        word_ptr = blocks[i].indptr[::word_rows]
        lo, hi = bounds[b], bounds[b + 1]
        starts[lo:hi] = word_ptr[grouped[lo:hi]]
        ends[lo:hi] = word_ptr[grouped[lo:hi] + 1]
    counts = ends - starts
    src = _ranges(starts, counts)
    edges = np.concatenate([[0], np.cumsum(counts)])[bounds].tolist()
    parts = []
    for b, i in enumerate(first):
        block, sel = blocks[i], src[edges[b]:edges[b + 1]]
        parts.append((block.rows[sel], block.indices[sel], block.data[sel]))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    owner = np.repeat(np.arange(len(refs))[order], counts)
    if len(first) == 1:
        return base, owner, rows, cols, vals
    back = np.argsort(owner, kind="stable")  # back to the order of refs
    return base, owner[back], rows[back], cols[back], vals[back]


def _matmul_batch(lefts, rights) -> _CSRBlock:
    """The block of ``a @ b`` for the matrices ``a`` of ``lefts`` and ``b`` of
    ``rights`` (lists of ``(block, i)`` references), in one product:
    the ``a_i`` placed block-diagonally (rows ``i * R``, columns ``i * M``)
    times the ``b_i`` stacked row-wise, all entries in stored order.  That
    runs the kernel of ``SparseOperator.__matmul__`` on each ``a_i @ b_i``
    in place, so, sorted and dropped as there, each product has its CSR bytes.
    """
    a_base, a_owner, a_rows, a_col, a_val = _gather(lefts)
    b_base, b_owner, b_rows, b_col, b_val = _gather(rights)
    if not a_base.col_basis.is_compatible(b_base.row_basis):
        raise ValueError("operator composition over incompatible bases")
    n_rows, n_mid, n_cols = a_base.row_basis.dim, b_base.row_basis.dim, b_base.col_basis.dim

    def stacked(rows, cols, vals, n_stacked, width):  # rows ascending, order kept
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_stacked))))
        return _csr(vals, cols, indptr, (n_stacked, width))

    count = len(lefts)
    a = stacked(a_owner * n_rows + a_rows, a_owner * n_mid + a_col, a_val,
                count * n_rows, count * n_mid)
    b = stacked(b_owner * n_mid + b_rows, b_col, b_val, count * n_mid, n_cols)
    return _CSRBlock.unstack(a_base.row_basis, b_base.col_basis, _drop(_product(a, b)))


# ---------------------------------------------------------------------------
# Recoupling
# ---------------------------------------------------------------------------


def _memo(fn):
    """Keep each result of ``fn(model, ...)`` in the model's operator cache.

    The key is ``fn`` with its bound arguments, defaults filled in, so every
    spelling of one call shares one entry; a call that raises stores
    nothing.  A call that passes every parameter by position is keyed by its
    arguments as they stand, which are its bound arguments; any other
    spelling is bound to the signature first.  Results are shared by every
    caller and must be treated as read-only.
    """
    signature = inspect.signature(fn)
    plain = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    width = len(signature.parameters)
    if any(p.kind not in plain for p in signature.parameters.values()):
        width = -1  # a variadic signature is always bound

    @functools.wraps(fn)
    def memoised(*args, **kwargs):
        bound = args
        if kwargs or len(args) != width:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            bound = tuple(call.arguments.values())
        cache = vars(bound[0]).setdefault("_op_cache", {})
        key = (fn, *bound[1:])
        if key not in cache:
            cache[key] = fn(*args, **kwargs)
        return cache[key]

    return memoised


@_memo
def _label_table(model: AnyonModel, shape) -> trees.LabelTable:
    """``trees.enumerate_labelings(model, shape)``, shared by every basis and
    recoupling move of that shape."""
    return trees.enumerate_labelings(model, shape)


def _move_matrix(model: AnyonModel, shape, old: trees.LabelTable, node_span):
    """One right-to-left rotation of ``shape``, whose labelings are ``old``.

    Returns ``(new_shape, new, M)``: the rotated shape, its labelings and the
    sparse overlap matrix ``M[i_new, j_old] = <new_i|old_j>``.  A new state
    is an old one with the removed charge replaced by a created charge ``x``;
    every other span keeps its charge, so the new labelings are the old ones
    with every ``x`` the fusion rules allow, and no shape a move reaches is
    enumerated.
    """
    new_shape, a_span, b_span, c_span = trees.rotate_right_to_left(shape, node_span)
    removed = (b_span[0], c_span[1])
    created = (a_span[0], b_span[1])
    a, b, c, d, y = (old.column(s) for s in (a_span, b_span, c_span, node_span, removed))
    spans = trees.all_spans(new_shape)
    source = [old.spans.index(removed if s == created else s) for s in spans]
    # Pairs run by old state j, then by channel x in label order.
    j, x = np.nonzero(model.fusion[a, b, :] & model.fusion[:, c, d].T)
    labels = old.rows[np.ix_(j, source)]
    labels[:, spans.index(created)] = x
    new = trees.table_of(spans, labels, old.radix)
    assert len(new.rows) == len(old.rows), f"rotation at {node_span} changes the state count"
    amps = model.F[a[j], b[j], c[j], d[j], x, y[j]]
    keep = np.abs(amps) > DROP_TOLERANCE
    rows = np.searchsorted(new.codes, labels[keep] @ new.place)
    mat = _coo_csr(rows, j[keep], amps[keep], (len(new.rows), len(old.rows)))
    return new_shape, new, mat


def recouple(basis: FusionTreeBasis, target_shape) -> SparseOperator:
    """Unitary change of coordinates from the canonical shape to ``target_shape``.

    The result ``W`` has rows over the target-shape basis and columns over the
    canonical basis; for a state with canonical coordinates ``v`` the
    target-shape coordinates are ``W @ v``.  ``W`` is charge preserving and
    unitary; ``recouple(basis, canonical_shape)`` is the identity.  On a
    sector basis both bases keep that total charge only: F-moves keep the
    root, so ``W`` is the full recoupling's block of that sector, bit for bit.
    """
    if basis.shape != trees.left_comb(0, basis.n_modes - 1):
        raise ValueError("recouple expects the canonical left-comb basis")
    return _recouple(basis.model, basis.n_modes, target_shape, basis.sector)


@_memo
def _recouple(model: AnyonModel, n_modes: int, target_shape, sector: int | None = None) -> SparseOperator:
    basis = FusionTreeBasis(model, n_modes, sector)
    target_basis = FusionTreeBasis(model, n_modes, sector, shape=target_shape)
    # Compose overlap matrices target -> canonical, then take the adjoint.
    shape, table = target_shape, target_basis.table
    overlap = SparseOperator.identity(target_basis).matrix
    for node_span in trees.moves_to_left_comb(target_shape):
        shape, table, mat = _move_matrix(model, shape, table, node_span)
        overlap = _product(mat, overlap)
    return SparseOperator(basis, target_basis, overlap).drop().dagger()


@_memo
def _factored_states(model: AnyonModel, n_modes: int, m: int):
    """The canonical states of ``n_modes`` modes factored as (modes 1..m) x (the rest).

    Returns ``(w, b0, y, x, g)``.  ``w`` recouples the canonical basis to the
    shape (left comb of modes 1..m, left comb of modes m+1..n), the canonical
    shape itself when ``m == n_modes``.  The integer arrays run over the states
    of ``w.row_basis``: rest charge ``b0`` (the vacuum when ``m == n_modes``),
    rest-labeling id ``y`` (equal exactly for equal rest labelings), region
    labeling ``x`` as a position in the ``m``-mode canonical basis, and total
    charge ``g``.
    """
    if not 1 <= m <= n_modes:
        raise ValueError(f"region size {m} out of range")
    region = trees.left_comb(0, m - 1)
    shape = region if m == n_modes else (region, trees.left_comb(m, n_modes - 1))
    w = recouple(FusionTreeBasis(model, n_modes), shape)
    fact = w.row_basis.table
    in_region = [p for p, s in enumerate(fact.spans) if s[1] < m]
    in_rest = [p for p, s in enumerate(fact.spans) if s[0] >= m]
    x = FusionTreeBasis(model, m).table.find(fact.rows[:, in_region])
    # The rest digits of the labeling codes: one integer per rest labeling.
    _, y = np.unique(fact.rows[:, in_rest] @ fact.place[in_rest], return_inverse=True)
    b0 = fact.column((m, n_modes - 1)) if m < n_modes else np.full(len(x), model.vacuum)
    return w, b0, y, x, w.row_basis.totals()


def _pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` with ``key[i] == key[j]``, as two index arrays."""
    order = np.argsort(key, kind="stable")
    _, start, size = np.unique(key[order], return_index=True, return_counts=True)
    per = np.repeat(size, size)  # the group start and size of each state in ``order``
    return np.repeat(order, per), order[_ranges(np.repeat(start, size), per)]


def _conjugate(w: SparseOperator, rows, cols, vals, owner, count: int) -> _CSRBlock:
    """``W^dagger M_k W`` on the canonical basis for ``k < count``, as one block.

    ``M_k`` holds the entries ``(rows, cols, vals)`` whose ``owner`` is ``k``,
    in the shape of ``w.row_basis``; a ``k`` that owns none gives zero.  The
    ``M_k`` side by side are multiplied by ``W^dagger`` once, and the dropped
    product, restacked row-wise, by ``W`` once.  Each output entry sums the
    terms of the separate products in their order, so matrix ``k`` has the
    CSR bytes of ``w.dagger() @ M_k @ w``.
    """
    dim = w.row_basis.dim
    vals = np.asarray(vals, dtype=complex)
    wide = _coo_csr(rows, owner * dim + cols, vals, (dim, count * dim))
    half = _drop(_product(w.dagger().matrix, wide))
    # Entry (i, k * dim + c) moves to (k * dim + i, c), each row's columns
    # still ascending.
    k, c = np.divmod(half.indices, dim)
    row = np.repeat(np.arange(dim), np.diff(half.indptr))
    tall = _coo_csr(k * dim + row, c, half.data, (count * dim, dim))
    return _CSRBlock.unstack(w.col_basis, w.col_basis, _drop(_product(tall, w.matrix)))


@_memo
def _braid_tensors(model: AnyonModel) -> np.ndarray:
    """The entries of every adjacent braid, as one tensor ``T``.

    For modes ``k, k+1``, a canonical state with charges ``p`` on modes
    ``1..k-1`` (the vacuum for ``k = 1``), ``a, b`` on leaves ``k, k+1``,
    ``x`` on modes ``1..k`` and ``q`` on modes ``1..k+1`` has the entry
    ``T[p, a, b, q, x, z]`` in the column of the state with the leaves
    swapped and ``z`` on modes ``1..k``:

        sum_y  F^{pab}_q[x, y] R^{ba}_y conj(F^{pba}_q[z, y]),

    the braid ``W^dagger (P R) W`` through the one F-move ``W`` that folds
    the pair; a vacuum ``p`` has identity F-moves.  Each entry has the bits
    of those sparse products: every complex product part by part, each
    F-move entry summed from zero after its product with the identity, the
    ``DROP_TOLERANCE`` drops of each product, and the sum over ``y``
    ascending from zero.  A loop over ``y`` keeps every array at
    ``n_labels ** 6``.
    """
    one = np.complex128(1.0)
    r = model.R.transpose(1, 0, 2)  # r[a, b, y] = R^{ba}_y
    g = 0.0 + _times(model.F, one)  # the F-move's overlap entries
    g = np.where(np.abs(g) > DROP_TOLERANCE, g, 0.0)
    tensor = np.zeros(g.shape, complex)
    for y in range(model.n_labels):
        half = 0.0 + _times(g[..., y], r[None, :, :, None, None, y])
        half[np.abs(half) <= DROP_TOLERANCE] = 0.0
        w = np.conj(g[..., y].transpose(0, 2, 1, 3, 4))  # conj F^{pba}_q[z, y]
        terms = _times(half[..., :, None], w[..., None, :])
        stored = (half != 0)[..., :, None] & (w != 0)[..., None, :]
        tensor = np.where(stored, tensor + terms, tensor)
    tensor.flags.writeable = False
    return tensor


@_memo
def braid_adjacent(model: AnyonModel, n_modes: int, k: int, sense: str = "over") -> SparseOperator:
    """Unitary braid exchanging modes ``k`` and ``k+1`` (1-based) on the canonical basis.

    ``over`` applies the stored R-symbols ``R^{a_k a_{k+1}}_c`` for a
    counterclockwise exchange; ``under`` is its adjoint.  Each row takes its
    entries from :func:`_braid_tensors`, with ``p`` the vacuum and ``x`` leaf
    ``k`` when ``k = 1``; its columns are the row's state with leaves ``k,
    k+1`` swapped and each charge ``z`` on modes ``1..k``, found by their
    labeling codes.  Braids keep the total charge, so a sector's block is
    rows and columns ``offset .. offset + dim`` of the sector basis, which
    :func:`_braid_block` builds from those rows alone.
    """
    if not 1 <= k <= n_modes - 1:
        raise ValueError(f"braid index k={k} out of range for {n_modes} modes")
    if sense not in ("over", "under"):
        raise ValueError(f"unknown braid sense {sense!r}")
    if sense == "under":
        return braid_adjacent(model, n_modes, k, "over").dagger()
    return _braid_block(model, n_modes, k, None)


def _braid_block(model: AnyonModel, n_modes: int, k: int, sector: int | None) -> SparseOperator:
    """The ``over`` braid of :func:`braid_adjacent` on one total-charge
    ``sector`` (None: every state), built from that sector's rows alone: the
    full braid's block, bit for bit."""
    basis = FusionTreeBasis(model, n_modes, sector)
    table = basis.table
    i, j = k - 1, k  # 0-based pair
    leaf_i, leaf_j = table.spans.index((i, i)), table.spans.index((j, j))
    a, b, q, x = (table.column(s) for s in ((i, i), (j, j), (0, j), (0, i)))
    p = table.column((0, i - 1)) if k > 1 else model.vacuum
    vals = _braid_tensors(model)[p, a, b, q, x]
    swapped = table.codes + (b - a) * (table.place[leaf_i] - table.place[leaf_j])
    # Each column replaces the charge on modes 1..k, as it stands after the
    # swap (``b`` when k = 1), by one ``z``.
    place = table.place[table.spans.index((0, i))]
    after = swapped // place % table.radix
    codes = swapped[:, None] + (np.arange(model.n_labels) - after[:, None]) * place
    # Rows ascending, each row's columns ascending with z: canonical CSR.
    row, col = np.nonzero(np.abs(vals) > DROP_TOLERANCE)
    indptr = np.searchsorted(row, np.arange(basis.dim + 1))
    cols = np.searchsorted(table.codes, codes[row, col])
    mat = _csr(vals[row, col], cols, indptr, (basis.dim, basis.dim))
    return SparseOperator(basis, basis, mat)


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


def _sector_block(op: SparseOperator, sector: FusionTreeBasis) -> SparseOperator:
    """The block of the charge-keeping ``op`` on ``sector`` (one total-charge
    sector of its basis, or all of it): ``op``'s rows ``offset .. offset +
    dim`` as stored, columns shifted, ``data`` a view (:func:`_csr` copies a
    view of under half of ``op``'s entries)."""
    mat, lo = op.matrix, sector.offset - op.row_basis.offset
    ptr = mat.indptr[lo:lo + sector.dim + 1]
    data, cols = mat.data[ptr[0]:ptr[-1]], mat.indices[ptr[0]:ptr[-1]] - lo
    return SparseOperator(sector, sector, _csr(data, cols, ptr - ptr[0], (sector.dim,) * 2))


def total_charge_projector(model: AnyonModel, n_modes: int, g) -> SparseOperator:
    """Diagonal projector onto total charge ``g``, a label or a charge index:
    the identity on its rows."""
    basis = FusionTreeBasis(model, n_modes)
    sector = FusionTreeBasis(model, n_modes, model.charge(g))
    rows = np.arange(sector.offset, sector.offset + sector.dim)
    return SparseOperator.from_entries(basis, basis, (rows, rows, np.ones(sector.dim)))
