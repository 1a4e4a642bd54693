"""Binary fusion-tree shapes and elementary recoupling moves.

A shape is a full binary parenthesization of the modes ``0 .. n-1`` in
order: a leaf is the mode index (int), an internal node is a pair
``(left, right)``.  Because leaves always stay in order, every internal
node is uniquely identified by the span ``(lo, hi)`` of leaves it covers,
and a labeling of a shape is a map from spans (including the leaf spans
``(i, i)``) to particle indices.

The only elementary move needed here rotates ``(A, (B, C))`` into
``((A, B), C)`` at a node; in the F-convention of :mod:`.model` the move
matrix from right-associated to left-associated coordinates is
``[F^{abc}_d]_{x,y}`` where ``a, b, c`` are the child charges, ``d`` the
node charge, ``y`` the old ``(B, C)`` charge and ``x`` the new ``(A, B)``
charge.  Any shape is reduced to the left comb by such rotations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Shape",
    "is_leaf",
    "span",
    "left_comb",
    "right_comb",
    "internal_spans",
    "all_spans",
    "rotate_right_to_left",
    "moves_to_left_comb",
    "enumerate_labelings",
    "code_place",
    "table_of",
    "LabelTable",
]

Shape = object  # int leaf | tuple (left, right)


def is_leaf(shape) -> bool:
    return isinstance(shape, int)


def span(shape) -> tuple[int, int]:
    """Leaf span ``(lo, hi)`` covered by the (sub)shape."""
    if is_leaf(shape):
        return (shape, shape)
    lo, _ = span(shape[0])
    _, hi = span(shape[1])
    return (lo, hi)


def left_comb(lo: int, hi: int):
    """``((((lo, lo+1), lo+2), ...), hi)``."""
    shape = lo
    for leaf in range(lo + 1, hi + 1):
        shape = (shape, leaf)
    return shape


def right_comb(lo: int, hi: int):
    """``(lo, (lo+1, (..., hi)))``."""
    shape = hi
    for leaf in range(hi - 1, lo - 1, -1):
        shape = (leaf, shape)
    return shape


def internal_spans(shape) -> list[tuple[int, int]]:
    found = []

    def walk(s):
        if is_leaf(s):
            return
        found.append(span(s))
        walk(s[0])
        walk(s[1])

    walk(shape)
    return sorted(found)


def all_spans(shape) -> list[tuple[int, int]]:
    lo, hi = span(shape)
    leaf = [(i, i) for i in range(lo, hi + 1)]
    return sorted(leaf + internal_spans(shape))


def rotate_right_to_left(shape, target: tuple[int, int]):
    """Rotate ``(A, (B, C)) -> ((A, B), C)`` at the node covering ``target``.

    Returns ``(new_shape, a_span, b_span, c_span)``; the node span itself is
    ``target``.  The labeling span removed is ``span(B)+span(C)`` and the one
    created is ``span(A)+span(B)``.
    """
    if is_leaf(shape):
        raise KeyError(f"span {target} not in shape")
    if span(shape) == target:
        left, right = shape
        if is_leaf(right):
            raise ValueError(f"node at {target} has no internal right child")
        b, c = right
        return ((left, b), c), span(left), span(b), span(c)
    _, mid = span(shape[0])
    if target[1] <= mid:
        new_left, a_s, b_s, c_s = rotate_right_to_left(shape[0], target)
        return (new_left, shape[1]), a_s, b_s, c_s
    if target[0] > mid:
        new_right, a_s, b_s, c_s = rotate_right_to_left(shape[1], target)
        return (shape[0], new_right), a_s, b_s, c_s
    raise KeyError(f"span {target} not in shape")


def moves_to_left_comb(shape) -> list[tuple[int, int]]:
    """Node spans at which to rotate, in order, to reach the left comb."""
    moves: list[tuple[int, int]] = []

    def process(s):
        if is_leaf(s):
            return s
        left, right = s
        while not is_leaf(right):
            moves.append(span((left, right)))
            rl, rr = right
            left = (left, rl)
            right = rr
        return (process(left), right)

    process(shape)
    return moves


def _label_table(model, shape) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The sorted spans of ``shape`` and one row of their charges per valid
    labeling.

    A node's table joins every row of its left child's table with every row
    of its right child's, once per channel of the two child charges in
    ``model.fusion``.  Each column is gathered straight into its place in
    span order, one at a time, so the join holds no other copy of the table;
    the tables are column-major, so each gather reads one contiguous column.
    """
    if is_leaf(shape):
        return [(shape, shape)], np.arange(model.n_labels).reshape(-1, 1)
    left_spans, left = _label_table(model, shape[0])
    right_spans, right = _label_table(model, shape[1])
    li, ri = np.indices((len(left), len(right))).reshape(2, -1)
    left_root = left[li, left_spans.index(span(shape[0]))]
    right_root = right[ri, right_spans.index(span(shape[1]))]
    pair, charge = np.nonzero(model.fusion[left_root, right_root])
    spans = sorted(left_spans + right_spans + [span(shape)])
    table = np.empty((len(pair), len(spans)), dtype=charge.dtype, order="F")
    for child, rows, child_spans in ((left, li[pair], left_spans), (right, ri[pair], right_spans)):
        for c, s in enumerate(child_spans):
            table[:, spans.index(s)] = child[rows, c]
    table[:, spans.index(span(shape))] = charge
    return spans, table


class LabelTable(NamedTuple):
    """Every labeling of one shape, as one read-only integer table.

    Row ``i`` of ``rows`` holds the charges of state ``i`` over ``spans``.
    ``codes[i] = rows[i] @ place`` reads the row as a base-``radix`` number
    whose digits run root charge, leaf charges, internal charges by span;
    the rows are sorted by code, so ``codes`` increases with the position.
    """

    spans: tuple[tuple[int, int], ...]
    rows: np.ndarray
    codes: np.ndarray
    place: np.ndarray
    radix: int

    def find(self, labelings) -> np.ndarray:
        """Position of each row of ``labelings``; -1 for a row that is no state."""
        labelings = np.asarray(labelings, dtype=np.int64)
        codes = labelings @ self.place
        pos = np.searchsorted(self.codes, codes)
        found = ((labelings >= 0) & (labelings < self.radix)).all(axis=-1) & (pos < len(self.codes))
        found[found] = self.codes[pos[found]] == codes[found]
        return np.where(found, pos, -1)

    def column(self, span_: tuple[int, int]) -> np.ndarray:
        """The charges of one span, state by state."""
        return self.rows[:, self.spans.index(span_)]


def code_place(spans, radix: int) -> np.ndarray:
    """Digit weights of the labeling codes over the sorted ``spans``.

    The digits run root charge, leaf charges, internal charges by span, most
    significant first, in base ``radix``.  Raises ``ValueError`` when such
    codes would not fit in int64.
    """
    if radix ** len(spans) > 2 ** 63:
        raise ValueError(f"{radix} labels on {len(spans)} spans overflow the int64 labeling codes")
    root = (spans[0][0], max(hi for _, hi in spans))
    digits = sorted(range(len(spans)), key=lambda i: (spans[i] != root, spans[i][0] != spans[i][1]))
    place = np.zeros(len(spans), dtype=np.int64)
    place[digits] = [radix ** p for p in range(len(spans) - 1, -1, -1)]
    return place


def table_of(spans, rows: np.ndarray, radix: int) -> LabelTable:
    """The labelings ``rows`` over the sorted ``spans``, repeats merged, as a
    read-only :class:`LabelTable` sorted by code."""
    place = code_place(spans, radix)
    codes, first = np.unique(rows @ place, return_index=True)
    rows = rows[first]
    for array in (rows, codes, place):
        array.flags.writeable = False
    return LabelTable(tuple(spans), rows, codes, place, radix)


def enumerate_labelings(model, shape) -> LabelTable:
    """All labelings of ``shape`` over ``all_spans(shape)``, as a :class:`LabelTable`.

    The order is deterministic: lexicographic in (root charge, leaf charges,
    internal charges by span).  Raises ``ValueError`` when the codes of the
    shape would not fit in int64.
    """
    code_place(all_spans(shape), model.n_labels)  # refuse an overflowing shape before the join
    return table_of(*_label_table(model, shape), model.n_labels)
