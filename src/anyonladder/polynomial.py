"""Symbolic polynomials in creation/annihilation generators.

A word is a tuple of :class:`GeneratorSymbol`; a polynomial is a sum of
scalar-weighted words.  Two generator families exist:

* ``kind="std"``: the per-particle operators ``alpha^(j)_k`` built from the
  0/1 coefficient tables (``particle`` is a label, ``j`` the table index);
* ``kind="pair"``: the two special Fibonacci combinations ``alpha_k`` and
  ``beta_k`` carrying the 1/sqrt(2) weight on the shared term
  (``particle`` is ``"alpha"`` or ``"beta"``, ``j`` is unused and 0).

Evaluation multiplies the generator matrices supplied by a resolver
callback, so the same polynomial can be evaluated on any mode count.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .basis import (
    DROP_TOLERANCE, SparseOperator, _CSRBlock, _gather, _matmul_batch, _ranges, _times,
    _values_at,
)

__all__ = ["GeneratorSymbol", "LadderPolynomial", "MERGE_TOLERANCE"]

MERGE_TOLERANCE = 1e-12


class GeneratorSymbol(NamedTuple):
    """One generator factor in a word.

    A plain tuple of its five fields: hashing, equality and ordering compare
    the field tuples in C, so words key dicts and sort without Python-level
    calls.
    """

    mode: int  # 1-based lattice mode
    kind: str  # "std" | "pair"
    particle: str  # particle label, or "alpha"/"beta" for kind="pair"
    j: int  # coefficient-table index (0 for kind="pair")
    dagger: bool

    def adjoint(self) -> "GeneratorSymbol":
        return GeneratorSymbol(self.mode, self.kind, self.particle, self.j, not self.dagger)

    def relabel(self, mode_map: dict[int, int]) -> "GeneratorSymbol":
        return GeneratorSymbol(
            mode_map.get(self.mode, self.mode), self.kind, self.particle, self.j, self.dagger
        )

    def token(self) -> str:
        """Serialized form ``particle|mode|j|+`` (dagger) or ``...|-``."""
        mark = "+" if self.dagger else "-"
        return f"{self.particle}|{self.mode}|{self.j}|{mark}"

    @classmethod
    def from_token(cls, token: str) -> "GeneratorSymbol":
        particle, mode, j, mark = token.split("|")
        kind = "pair" if particle in ("alpha", "beta") else "std"
        return cls(int(mode), kind, particle, int(j), mark == "+")

    def __str__(self) -> str:
        dag = "^+" if self.dagger else ""
        if self.kind == "pair":
            return f"{self.particle}_{self.mode}{dag}"
        return f"{self.particle}[{self.mode},{self.j}]{dag}"


Word = tuple[GeneratorSymbol, ...]


class _Word(tuple):
    """A word that computes its tuple hash once, so that keying a dict by it
    hashes no symbol.  It equals, and hashes as, the plain tuple, and it
    pickles as one: string hashes differ between processes."""

    def __init__(self, _word):
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return tuple, (tuple(self),)


def _word_sort_key(word: Word):
    return (len(word), word)


def _letter(resolver, sym: GeneratorSymbol) -> SparseOperator:
    """The matrix of one letter: ``resolver(sym)`` for an undaggered symbol,
    the adjoint of its undaggered matrix for a daggered one, so ``resolver``
    only ever sees undaggered symbols."""
    base = resolver(sym.adjoint() if sym.dagger else sym)
    return base.dagger() if sym.dagger else base


def _fill_cache(words: Sequence[Word], resolver, cache: dict, identity) -> None:
    """Put a ``(block, i)`` reference to the matrix of each word in ``words``
    into ``cache``, with those of its uncached suffixes and of their first
    letters.

    The empty word is ``identity``; a letter is :func:`_letter` of
    ``resolver``; a longer word is ``letter @ rest`` with ``rest`` the word
    after its first letter.  Words are built shortest first, all of one
    length in one ``_matmul_batch`` call that stores them as one
    ``_CSRBlock``, so every product sees the same operands, and gives the
    same bits, as a word-by-word recursion.  Passing the words of many
    polynomials at once makes one batched product per word length in all.
    """
    pending: dict[Word, None] = {}  # an ordered set
    for word in words:
        if not word:
            cache[()] = (_CSRBlock.pack([identity]), 0)
        for k in range(len(word)):
            suffix = word[k:]
            if suffix in cache or suffix in pending:
                break
            pending[suffix] = None
            if word[k:k + 1] not in cache:
                pending[word[k:k + 1]] = None
    by_length: dict[int, list[Word]] = {}
    for word in pending:
        by_length.setdefault(len(word), []).append(word)
    for length in sorted(by_length):
        batch = by_length[length]
        if length == 1:
            block = _CSRBlock.pack([_letter(resolver, sym) for (sym,) in batch])
        else:
            block = _matmul_batch([cache[w[:1]] for w in batch], [cache[w[1:]] for w in batch])
        cache.update(zip(batch, zip(repeat(block), range(len(batch)))))


def _cells(owner: np.ndarray, flat: np.ndarray, vals: np.ndarray):
    """Each owner's matrix at its stored positions, as ``to_dense`` makes it:
    one value per owner and flat position, its entries there added to zero
    in stored order.  Returns ``(owner, flat, value)``, sorted by owner, then
    position."""
    span = np.int64(flat.max() + 1 if len(flat) else 1)
    cells, inverse = np.unique(owner * span + flat, return_inverse=True)
    dense = np.zeros(len(cells), complex)
    np.add.at(dense, inverse, vals)
    owner, flat = np.divmod(cells, span)
    return owner, flat, dense


def _fold(coeffs: np.ndarray, owner: np.ndarray, pos: np.ndarray, vals: np.ndarray,
          width: int) -> np.ndarray:
    """The sum of ``coeffs[t] * M_t`` over the terms ``t`` in order, on
    ``width`` positions; ``M_t`` holds the ``vals`` whose ``owner`` is ``t``
    at their positions ``pos`` (``owner`` ascending, one value per term and
    position, as :func:`_cells` makes them).

    It has the bits of the dense fold ``dense = c_0 * M_0; dense += c_t *
    M_t``, except that every zero part is ``+0.0``: the products are numpy's
    complex multiply, as in that fold (it may fuse multiply and add), and
    the unbuffered ``np.add.at`` adds each position's products one at a time
    in term order, from zero.  A term with no entry at a position adds ``c_t
    * 0`` there in the dense fold, which moves no sum, only the sign of a
    zero part; a sum from ``+0.0`` has no ``-0.0`` part.
    """
    total = np.zeros(width, complex)
    np.add.at(total, pos, coeffs[owner] * vals)
    return total


def _operator(row_basis, col_basis, flat: np.ndarray, folded: np.ndarray) -> SparseOperator:
    """The operator with the values ``folded`` at the ascending flat
    positions ``flat``: the entries ``drop`` would keep, stored as ``drop``
    stores them."""
    keep = np.flatnonzero(np.abs(folded) > DROP_TOLERANCE)
    rows, cols = np.divmod(flat[keep], col_basis.dim)
    return SparseOperator.from_entries(row_basis, col_basis, (rows, cols, folded[keep]))


class _PolynomialFrame:
    """Polynomials compiled to arrays over their union word table, so that a
    weighted sum of them is merged and evaluated without hashing a word.

    ``words`` holds every word of ``polys`` once.  Term ``k`` of the
    polynomials, one after the other and each in its term order, is word
    ``word[k]`` with coefficient ``coeff[k]``; polynomial ``i`` holds terms
    ``bounds[i] .. bounds[i + 1]``.  Word ``w``'s matrix is held as its
    :func:`_cells`, ``vals[ptr[w]:ptr[w + 1]]`` at positions ``pos`` into
    ``support``, the sorted flat positions of all the words' entries.  The
    word matrices are built into ``cache`` and gathered once, here; their
    bases are the frame's.  ``identity`` is the empty word's matrix, and
    gives the bases when no polynomial has a word.  A weighted sum of the
    words is evaluated by :func:`_fold`, one fold from zero.
    """

    def __init__(self, polys, resolver, cache: dict, identity: SparseOperator | None):
        index: dict[Word, int] = {}
        ids = [index.setdefault(w, len(index)) for poly in polys for w in poly._terms]
        self.words = list(index)
        self.word = np.array(ids, dtype=np.intp)
        self.coeff = np.fromiter(
            (c for poly in polys for c in poly._terms.values()), complex, len(ids)
        )
        self.bounds = np.cumsum([0] + [poly.n_terms for poly in polys])
        _fill_cache([w for w in self.words if w not in cache], resolver, cache, identity)
        if self.words:
            base, owner, rows, cols, vals = _gather([cache[w] for w in self.words])
        else:  # every polynomial is zero
            base, owner, rows, cols, vals = identity, *np.zeros((4, 0), np.intp)
        self.basis, self.col_basis = base.row_basis, base.col_basis
        owner, flat, self.vals = _cells(owner, rows * np.int64(self.col_basis.dim) + cols, vals)
        self.support, self.pos = np.unique(flat, return_inverse=True)
        self.ptr = np.searchsorted(owner, np.arange(len(self.words) + 1))

    def evaluate(self, i: int) -> SparseOperator:
        """Polynomial ``i``'s evaluation: the ``_operator`` of its :meth:`fold`."""
        terms = slice(self.bounds[i], self.bounds[i + 1])
        flat, folded = self.fold(self.word[terms], self.coeff[terms])
        return _operator(self.basis, self.col_basis, flat, folded)

    def weighted_sum(self, weights: np.ndarray):
        """``LadderPolynomial.sum`` of ``(weights[i], polys[i])`` over the
        polynomials ``i`` of nonzero weight, in frame order, as ``(word ids,
        coefficients)`` in its term order, with its bits.

        As there, a product ``term coefficient * weight`` (Python's complex
        multiply, :func:`basis._times`) at or below ``MERGE_TOLERANCE`` is
        left out, so a zero weight leaves its polynomial out; a word comes in
        at its first product with its running sum from zero, and a running
        sum at or below the tolerance removes it.  A word of one term is
        ``0.0 + product``.  The words of several terms are summed rank by
        rank over ``ranks``, where a cancel removes the word and its next
        product restarts it from zero.  A word's place is the term it came
        in at, so the kept terms, read in frame order, are the dict's order.
        """
        poly, single, ranks = self._layout
        products = _times(self.coeff, weights[poly])
        kept = np.abs(products) > MERGE_TOLERANCE
        total = np.zeros(len(ranks[0]) if ranks else 0, complex)
        start = np.full(len(total), -1)  # the term a word came in at, -1 while out
        for terms in ranks:
            rows = np.flatnonzero(kept[terms])
            at = terms[rows]
            on = start[rows] >= 0
            running = np.where(on, total[rows], 0.0) + products[at]
            total[rows] = running
            start[rows] = np.where(np.abs(running) > MERGE_TOLERANCE, np.where(on, start[rows], at), -1)
        live = start >= 0
        present = kept & single
        present[start[live]] = True
        sums = 0.0 + products
        sums[start[live]] = total[live]
        keys = np.flatnonzero(present)
        return self.word[keys], sums[keys]

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The term layout of :meth:`weighted_sum`, built at its first call:
        each term's polynomial, whether it is its word's only term, and for
        the other words, most terms first, rank ``r`` holding each one's term
        ``r`` in frame order, so rank ``r``'s words are a prefix."""
        poly = np.repeat(np.arange(len(self.bounds) - 1), np.diff(self.bounds))
        counts = np.bincount(self.word, minlength=len(self.words))
        by_word = np.argsort(self.word, kind="stable")
        shared = np.flatnonzero(counts > 1)
        shared = shared[np.argsort(-counts[shared], kind="stable")]
        first = np.cumsum(counts) - counts
        ranks = [by_word[first[shared[counts[shared] > r]] + r]
                 for r in range(counts[shared].max(initial=0))]
        return poly, counts[self.word] == 1, ranks

    @functools.cached_property
    def _keys(self) -> list["_Word"]:
        """``words`` as :class:`_Word`, built at the first :meth:`polynomial`."""
        return list(map(_Word, self.words))

    def polynomial(self, ids: np.ndarray, coeffs: np.ndarray) -> "LadderPolynomial":
        """The polynomial of the terms ``coeffs[i] * words[ids[i]]``, in that
        order, keyed by words that hash once per frame."""
        out = LadderPolynomial()
        out._terms = dict(zip(map(self._keys.__getitem__, ids.tolist()), coeffs.tolist()))
        return out

    def fold(self, ids: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The :func:`_fold` of ``polynomial(ids, coeffs)`` from the frame's
        cells, as ``(flat positions, values)``: ``_operator`` of it is that
        polynomial's evaluation."""
        lengths = self.ptr[ids + 1] - self.ptr[ids]
        cells = _ranges(self.ptr[ids], lengths)
        owner = np.repeat(np.arange(len(ids)), lengths)
        return self.support, _fold(coeffs, owner, self.pos[cells], self.vals[cells], len(self.support))

    def residual(self, ids: np.ndarray, coeffs: np.ndarray, entries) -> float:
        """The largest entry of ``polynomial(ids, coeffs)``'s evaluation minus
        the operator ``op`` whose :func:`basis._entries` are ``entries``, with
        the bits of ``(evaluated - op).norm_max()``: the same subtraction at
        each position, where a dropped or absent entry is zero.  Nothing of
        the size of the dense matrix is formed."""
        flat, folded = self.fold(ids, coeffs)
        at, rest = _values_at(entries, flat)
        kept = np.where(np.abs(folded) > DROP_TOLERANCE, folded, 0.0)
        return float(max(np.abs(kept - at).max(initial=0.0), np.abs(rest).max(initial=0.0)))


class LadderPolynomial:
    """Sum of complex-weighted generator words, kept in canonical form.

    Canonical form: like words merged, coefficients below
    ``MERGE_TOLERANCE`` dropped, terms ordered by (length, per-symbol key).
    Weighted sums of many polynomials go through :meth:`sum`, which merges
    every term in one pass.
    """

    def __init__(self, terms: Iterable[tuple[complex, Sequence[GeneratorSymbol]]] = ()):
        merged: dict[Word, complex] = {}
        for coeff, word in terms:
            if type(word) is not tuple:
                if isinstance(word, GeneratorSymbol):
                    raise TypeError("a word is a sequence of GeneratorSymbol, not a bare symbol")
                word = tuple(word)
            merged[word] = merged.get(word, 0.0) + complex(coeff)
        self._terms: dict[Word, complex] = {
            w: c for w, c in merged.items() if abs(c) > MERGE_TOLERANCE
        }

    @classmethod
    def sum(cls, pairs: Iterable[tuple[complex, "LadderPolynomial"]]) -> "LadderPolynomial":
        """The weighted sum ``c_0 * p_0 + c_1 * p_1 + ...`` of ``(c_i, p_i)`` pairs.

        Every term is merged into one dict, in one pass.  A term's
        coefficient is ``term_coeff * c_i``, left out when at most
        ``MERGE_TOLERANCE`` (as ``c_i * p_i`` leaves it out), and a word whose
        running sum cancels to at most the tolerance is removed at once (as
        each ``+`` of the left fold removes it).  The result therefore equals
        the left fold of ``+`` exactly: the same coefficients in the same
        term order.  Every stored coefficient is a sum from ``0.0``, as the
        constructor makes it, so the merged dict is the result's as it is.
        """
        merged: dict[Word, complex] = {}
        for weight, poly in pairs:
            for word, c in poly._terms.items():
                c = complex(c * weight)
                if abs(c) <= MERGE_TOLERANCE:
                    continue
                total = merged.get(word, 0.0) + c
                if abs(total) > MERGE_TOLERANCE:
                    merged[word] = total
                else:
                    del merged[word]
        out = cls()
        out._terms = merged
        return out

    @classmethod
    def constant(cls, value: complex) -> "LadderPolynomial":
        return cls([(value, ())])

    @classmethod
    def generator(cls, symbol: GeneratorSymbol) -> "LadderPolynomial":
        return cls([(1.0, (symbol,))])

    @property
    def terms(self) -> list[tuple[complex, Word]]:
        return [(self._terms[w], w) for w in sorted(self._terms, key=_word_sort_key)]

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return LadderPolynomial.sum([(1.0, self), (1.0, other)])

    def __sub__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return LadderPolynomial.sum([(1.0, self), (-1.0, other)])

    def __mul__(self, scalar: complex) -> "LadderPolynomial":
        if isinstance(scalar, LadderPolynomial):
            raise TypeError("use @ for the operator product; * is scalar multiplication")
        return LadderPolynomial([(c * scalar, w) for w, c in self._terms.items()])

    __rmul__ = __mul__

    def __matmul__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        """Operator product; words concatenate left-to-right."""
        out = []
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                out.append((c1 * c2, w1 + w2))
        return LadderPolynomial(out)

    def _symbol_map(self, fn: Callable[[GeneratorSymbol], GeneratorSymbol]):
        """``fn`` applied once to each distinct symbol, as a lookup function."""
        return {s: fn(s) for s in {s for w in self._terms for s in w}}.__getitem__

    def adjoint(self) -> "LadderPolynomial":
        adj = self._symbol_map(GeneratorSymbol.adjoint)
        return LadderPolynomial(
            [(np.conj(c), tuple(map(adj, reversed(w)))) for w, c in self._terms.items()]
        )

    def relabel_modes(self, mode_map: dict[int, int]) -> "LadderPolynomial":
        moved = self._symbol_map(lambda s: s.relabel(mode_map))
        return LadderPolynomial([(c, tuple(map(moved, w))) for w, c in self._terms.items()])

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        resolver: Callable[[GeneratorSymbol], SparseOperator],
        cache: dict | None = None,
    ) -> SparseOperator:
        """Evaluate on a concrete system.

        ``resolver`` maps an undaggered generator symbol to its matrix; a
        daggered letter is the adjoint of that matrix (:func:`_letter`), so
        ``resolver`` never sees a daggered symbol.  ``cache`` is shared
        across calls to reuse word products; it maps each word to a
        ``(block, i)`` reference, matrix ``i`` of a ``basis._CSRBlock``
        (``block.operator(i)`` makes it a ``SparseOperator``).  The
        polynomial is compiled to a one-polynomial :class:`_PolynomialFrame`,
        which builds its missing words (:func:`_fill_cache`) and evaluates
        it.  The result is the dense sum of the terms in term order, with the
        bits of a sum of ``coeff * matrix.to_dense()`` except that no stored
        real or imaginary part is ``-0.0``: the sum starts from zero.
        """
        if any(len(w) == 0 for w in self._terms):
            raise ValueError(
                "constant terms need an explicit identity; "
                "use evaluate_with_identity"
            )
        return self._accumulate(resolver, cache, None)

    def evaluate_with_identity(
        self,
        resolver: Callable[[GeneratorSymbol], SparseOperator],
        identity: SparseOperator,
        cache: dict | None = None,
    ) -> SparseOperator:
        """Like :meth:`evaluate` but supports constant (empty-word) terms,
        ``identity`` being the empty word's matrix."""
        return self._accumulate(resolver, cache, identity)

    def _accumulate(self, resolver, cache: dict | None, identity) -> SparseOperator:
        if not self._terms and identity is None:
            raise ValueError("cannot evaluate an empty polynomial without a basis")
        frame = _PolynomialFrame([self], resolver, {} if cache is None else cache, identity)
        return frame.evaluate(0)

    def signature(self) -> tuple:
        """Hashable canonical form: words with coefficients rounded.

        Equal signatures mean equal polynomials up to ``1e-12`` in each
        coefficient; used to deduplicate repeated realizations.
        """
        items = []
        for w, c in self._terms.items():
            items.append(
                (
                    tuple(s.token() for s in w),
                    round(c.real, 12),
                    round(c.imag, 12),
                )
            )
        return tuple(sorted(items))

    # -- serialization ----------------------------------------------------------

    def to_payload(self) -> list[dict]:
        return [
            {"coeff": [float(c.real), float(c.imag)], "word": [s.token() for s in w]}
            for c, w in self.terms
        ]

    @classmethod
    def from_payload(cls, payload: Iterable[dict]) -> "LadderPolynomial":
        terms = []
        for item in payload:
            coeff = complex(item["coeff"][0], item["coeff"][1])
            word = tuple(GeneratorSymbol.from_token(t) for t in item["word"])
            terms.append((coeff, word))
        return cls(terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for c, w in self.terms:
            body = " ".join(str(s) for s in w) if w else "1"
            parts.append(f"({c.real:+.6g}{c.imag:+.6g}j) {body}")
        return "  +  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LadderPolynomial({len(self._terms)} terms)"
