"""Named observable fixtures on modes {1,2} of a 3-mode Fibonacci system.

Up to Hermitian conjugation the local observable span of modes {1,2} has
nine independent terms: for each pair of two-mode region states with equal
charge there is one projector-like (diagonal) or exchange-like (off-diagonal)
element ``E = |x><x'| (x) id``.  Charge-e pairs give three terms, charge-tau
pairs give six.  Two occupation observables complete the corpus.

Names encode the content: ``ge``/``gt`` is the region charge sector,
``P-ab`` a diagonal term on region state (a,b), ``X-ab-cd`` an exchange
term between (a,b) and (c,d), and ``n1``/``n2`` the mode occupations.
"""

from __future__ import annotations

from .algebra import observable_basis
from .basis import SparseOperator, _memo
from .ladder import _shared_pair
from .model import builtin

__all__ = ["CORPUS_VERSION", "fixture", "fixture_names", "fixture_descriptions"]

CORPUS_VERSION = 1
_N_MODES = 3
_REGION = (1, 2)


@_memo
def _corpus(model):
    """The named observables on ``model``, the builtin Fibonacci model."""
    pairs, ops = observable_basis(model, _N_MODES, len(_REGION))
    corpus: dict[str, tuple[SparseOperator, str]] = {}
    seen_offdiag = set()
    for (x, xp), op in zip(pairs, ops):
        sector = "ge" if model.labels[x.charge] == "e" else "gt"
        a = "".join(model.labels[v][0] for v in x.leaves)
        b = "".join(model.labels[v][0] for v in xp.leaves)
        if x.index == xp.index:
            name = f"{sector}-P{a}"
            if name in corpus:  # same leaves, different region charge
                name = f"{sector}-P{a}-{model.labels[x.charge][0]}"
            desc = f"projector onto region state {x.label(model)}"
        else:
            key = frozenset((x.index, xp.index))
            if key in seen_offdiag:
                continue  # keep one of each conjugate pair
            seen_offdiag.add(key)
            name = f"{sector}-X-{a}-{b}"
            desc = (
                f"exchange term {x.label(model)} <-> {xp.label(model)} "
                "(plus conjugate)"
            )
            op = op + op.dagger()
        corpus[name] = (op.drop(), desc)

    pair = _shared_pair(model, _N_MODES)
    for k in _REGION:
        op = (
            pair.alpha[k].dagger() @ pair.alpha[k]
            + pair.beta[k].dagger() @ pair.beta[k]
        )
        corpus[f"n{k}"] = (op.drop(), f"occupation of mode {k}")
    return corpus


def fixture_names() -> list[str]:
    return sorted(_corpus(builtin("fibonacci")))


def fixture_descriptions() -> dict[str, str]:
    return {name: desc for name, (_op, desc) in sorted(_corpus(builtin("fibonacci")).items())}


def fixture(name: str) -> SparseOperator:
    """Look up a corpus observable by name (3-mode Fibonacci, modes {1,2})."""
    corpus = _corpus(builtin("fibonacci"))
    if name not in corpus:
        known = ", ".join(sorted(corpus))
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}")
    return corpus[name][0]
