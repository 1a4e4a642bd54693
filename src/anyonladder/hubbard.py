"""2xN ladder lattice, the anyonic Hubbard Hamiltonian, and sector solves.

The lattice is a two-leg ladder with N rungs and one mode per site, ordered
as a snake: the top row runs 1..N left to right and the bottom row continues
right to left, so modes i and 2N+1-i sit on the same rung.  With that
ordering the chain sum of the Hamiltonian couples (i, i+1) and the vertical
couplings are (i, 2N+1-i).  The printed rung sum instead couples (i, 2N-i),
which is a diagonal link under the snake layout; both edge conventions are
implemented behind the ``indexing`` flag (``geometric`` = vertical adjacency,
``paper`` = the printed index sum) since no single edge set satisfies both.

The Hamiltonian is built from the unnormalised Fibonacci pair operators

    H = -mu sum_i (a_i^+ a_i + b_i^+ b_i)
        - t sum_chain (a_{i+1}^+ a_i + b_{i+1}^+ b_i)
        - t sum_rung  (a_j^+ a_i + b_j^+ b_i)   + h.c. of the t-terms,

is Hermitian by construction and commutes with every total-charge projector,
so it is diagonalized per charge sector.  A build for one sector
(``hubbard_hamiltonian(..., sector=g)``) transports the pair on that
sector's columns only and assembles H on the sector basis; its bytes are
those of the full H sliced to the sector, and so are its eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import eigsh

from .basis import SparseOperator
# fibonacci_pair stays a module attribute: the benchmark's tracer rebinds it
# here (perfbench/test_perfbench.py::test_tracer_rebinds_every_copy_and_restores).
from .ladder import FibonacciPair, _shared_pair, fibonacci_pair  # noqa: F401
from .model import AnyonModel, builtin
from .polynomial import GeneratorSymbol, LadderPolynomial

__all__ = [
    "DENSE_CUTOFF",
    "HERMITICITY_TOLERANCE",
    "INDEXINGS",
    "LatticeSpec",
    "HubbardParams",
    "Spectrum",
    "build_lattice",
    "build_hamiltonian",
    "hamiltonian_polynomial",
    "hubbard_hamiltonian",
    "diagonalize",
    "occupation_profile",
]

DENSE_CUTOFF = 2048
HERMITICITY_TOLERANCE = 1e-10
INDEXINGS = ("geometric", "paper")


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSpec:
    """A 2xN ladder lattice with snake mode ordering.

    ``edges`` holds 1-based mode pairs tagged ``chain`` or ``rung``; the
    chain part is (i, i+1) for i = 1..2N-1 regardless of indexing, the rung
    part depends on the ``indexing`` convention (see module docstring).
    """

    rungs: int
    n_modes: int
    indexing: str
    edges: tuple[tuple[int, int, str], ...]

    def ordering(self) -> dict[tuple[int, int], int]:
        """Map (row, col) -> mode index; row 0 is the top leg."""
        out = {}
        for col in range(self.rungs):
            out[(0, col)] = col + 1
            out[(1, col)] = 2 * self.rungs - col
        return out

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(min(i, j), max(i, j)) for i, j, _kind in self.edges}

    def neighbor_counts(self) -> dict[int, int]:
        counts = {i: 0 for i in range(1, self.n_modes + 1)}
        for i, j in self.edge_pairs():
            counts[i] += 1
            counts[j] += 1
        return counts

    def describe(self) -> str:
        lines = [
            f"2x{self.rungs} lattice, {self.n_modes} modes, "
            f"{self.indexing} rung indexing"
        ]
        for i, j, kind in self.edges:
            lines.append(f"  edge ({i}, {j})  {kind}")
        return "\n".join(lines)


def build_lattice(n_rungs: int, indexing: str = "geometric") -> LatticeSpec:
    """Edge list of the 2xN ladder under the chosen rung-indexing convention.

    ``geometric`` rungs (i, 2N+1-i) are the vertical links of the snake
    layout; ``paper`` rungs (i, 2N-i) follow the printed Hamiltonian's index
    sum, which is diagonal under the same layout.  The two conventions agree
    only for N = 1 (no rungs at all); ``geometric`` is the default.
    """
    if n_rungs < 1:
        raise ValueError(f"need at least one rung, got {n_rungs}")
    if indexing not in INDEXINGS:
        raise ValueError(f"unknown indexing {indexing!r}; expected one of {INDEXINGS}")
    n_modes = 2 * n_rungs
    edges: list[tuple[int, int, str]] = []
    for i in range(1, n_modes):
        edges.append((i, i + 1, "chain"))
    offset = n_modes + 1 if indexing == "geometric" else n_modes
    for i in range(1, n_rungs):
        edges.append((i, offset - i, "rung"))
    return LatticeSpec(n_rungs, n_modes, indexing, tuple(edges))


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HubbardParams:
    """Hopping strength ``t``, chemical potential ``mu`` and rung indexing.

    Longitudinal and transverse hopping share the single strength ``t``.
    """

    t: float
    mu: float
    indexing: str = "geometric"

    def __post_init__(self):
        if not (np.isfinite(self.t) and np.isfinite(self.mu)):
            raise ValueError(f"t and mu must be finite, got t={self.t}, mu={self.mu}")
        if self.indexing not in INDEXINGS:
            raise ValueError(
                f"unknown indexing {self.indexing!r}; expected one of {INDEXINGS}"
            )


def _pair_symbol(family: str, mode: int, dagger: bool) -> GeneratorSymbol:
    return GeneratorSymbol(mode, "pair", family, 0, dagger)


def _check_indexing(spec: LatticeSpec, params: HubbardParams) -> None:
    if params.indexing != spec.indexing:
        raise ValueError(
            f"params request {params.indexing!r} indexing but the lattice was "
            f"built with {spec.indexing!r}"
        )


def hamiltonian_polynomial(spec: LatticeSpec, params: HubbardParams) -> LadderPolynomial:
    """The Hamiltonian as a ladder polynomial in the pair symbols.

    Evaluating it with the pair resolver must agree entrywise with
    :func:`build_hamiltonian`; the two construction paths cross-check each
    other.
    """
    _check_indexing(spec, params)
    parts = []
    for i in range(1, spec.n_modes + 1):
        for family in ("alpha", "beta"):
            word = (_pair_symbol(family, i, True), _pair_symbol(family, i, False))
            parts.append((-params.mu, LadderPolynomial([(1.0, word)])))
    for i, j, _kind in spec.edges:
        for family in ("alpha", "beta"):
            hop = (_pair_symbol(family, j, True), _pair_symbol(family, i, False))
            back = (_pair_symbol(family, i, True), _pair_symbol(family, j, False))
            parts.append((-params.t, LadderPolynomial([(1.0, hop), (1.0, back)])))
    return LadderPolynomial.sum(parts)


def build_hamiltonian(
    spec: LatticeSpec,
    params: HubbardParams,
    model: AnyonModel | None = None,
    pair: FibonacciPair | None = None,
) -> SparseOperator:
    """Assemble the Hamiltonian directly from the pair operator matrices.

    Without ``pair``, the model's shared pair (``ladder._shared_pair``) is
    used, so later callers on the same model and mode count reuse it.  H
    acts on the pair's column basis: the full canonical basis, or one
    total-charge sector for a pair built on that sector, where H is the
    full H's sector block with the same CSR bytes.
    """
    _check_indexing(spec, params)
    if pair is None:
        if model is None:
            model = builtin("fibonacci")
        pair = _shared_pair(model, spec.n_modes)
    if pair.n_modes != spec.n_modes:
        raise ValueError(
            f"pair operators cover {pair.n_modes} modes, lattice has {spec.n_modes}"
        )

    basis = pair.alpha[1].col_basis
    families = [(family, {i: op.dagger() for i, op in family.items()})
                for family in (pair.alpha, pair.beta)]
    h = SparseOperator.zero(basis)
    for i in range(1, spec.n_modes + 1):
        for family, daggers in families:
            h = h + (-params.mu) * (daggers[i] @ family[i])
    for i, j, _kind in spec.edges:
        for family, daggers in families:
            hop = daggers[j] @ family[i]
            h = h + (-params.t) * (hop + hop.dagger())
    return h.drop()


def hubbard_hamiltonian(
    n_rungs: int, params: HubbardParams, model: AnyonModel | None = None, sector=None
) -> tuple[LatticeSpec, SparseOperator]:
    """Build the lattice for ``params.indexing`` and its Hamiltonian.

    ``sector`` (a label or an index) builds H on that total-charge sector
    only, from the shared pair restricted to it; None builds every charge.
    """
    spec = build_lattice(n_rungs, params.indexing)
    model = builtin("fibonacci") if model is None else model
    pair = _shared_pair(model, spec.n_modes, sector)
    return spec, build_hamiltonian(spec, params, pair=pair)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Eigenvalues of one charge sector, sorted ascending.

    ``method`` records the solver: ``dense`` returns the full sector
    spectrum, ``iterative`` only the lowest few eigenvalues.  The ground
    state, when requested, lives in the basis of the diagonalized operator:
    embedded into the full canonical basis for a full operator, on the
    sector basis for an operator built on one sector.
    """

    sector: str
    block_dim: int
    method: str
    eigenvalues: np.ndarray
    ground_state: np.ndarray | None = None

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def diagonalize(
    h: SparseOperator,
    sector,
    method: str | None = None,
    want_vector: bool = True,
    k_extremal: int = 6,
) -> Spectrum:
    """Eigenvalues of one total-charge block of a Hermitian operator.

    The sector block is sliced straight from the CSR matrix and symmetrised
    there; the full operator is never densified, and the Hermiticity check
    runs on the sparse difference ``h - h^dagger``.  An operator on a sector
    basis is its own block and can only be solved for that sector.
    ``method`` defaults to a dense ``eigh`` of the block for block dimension
    up to ``DENSE_CUTOFF`` and an iterative extremal solve (lowest
    ``k_extremal`` eigenvalues, sparse ``eigsh``) above it.  Blocks of
    dimension at most ``k_extremal + 1`` are too small for ``eigsh`` and are
    always solved densely; the returned ``method`` says which solver ran.
    """
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}; expected dense or iterative")
    basis = h.row_basis
    model = basis.model
    g = model.charge(sector)
    if basis.sector not in (None, g):
        raise ValueError(
            f"operator is restricted to sector {model.labels[basis.sector]}; "
            f"cannot diagonalize sector {model.labels[g]}"
        )
    if (h + (-1.0) * h.dagger()).norm_max() > HERMITICITY_TOLERANCE:
        raise ValueError("operator is not Hermitian; cannot diagonalize")
    if not h.is_charge_diagonal():
        raise ValueError("operator mixes total-charge sectors")
    idx = basis.sector_indices(g)
    if len(idx) == 0:
        raise ValueError(
            f"sector {model.labels[g]} is empty for {basis.n_modes} modes"
        )
    block = h.matrix if basis.sector is not None else h.matrix[idx][:, idx]
    block = (block + block.conj().T) / 2.0

    if method is None:
        method = "dense" if len(idx) <= DENSE_CUTOFF else "iterative"
    if len(idx) <= k_extremal + 1:
        method = "dense"
    if method == "dense":
        vals, vecs = np.linalg.eigh(block.toarray())
        ground = vecs[:, 0]
    else:
        vals, vecs = eigsh(block, k=k_extremal, which="SA")
        order = np.argsort(vals)
        vals = vals[order]
        ground = vecs[:, order[0]]

    vector = None
    if want_vector:
        vector = np.zeros(basis.dim, dtype=complex)
        vector[idx] = ground
    return Spectrum(model.labels[g], len(idx), method, np.real(vals), vector)


def occupation_profile(state: np.ndarray, pair: FibonacciPair) -> np.ndarray:
    """Expected occupation <n_i> per mode, n_i = a_i^+ a_i + b_i^+ b_i.

    ``n_i`` is the projector onto states whose mode ``i`` is occupied, so
    every density lies in [0, 1].  ``state`` lives in the pair's column basis,
    so a sector ground state takes the pair built on that sector.
    Unnormalized input is rescaled with a warning.
    """
    state = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(state))
    if norm == 0.0:
        raise ValueError("cannot profile the zero vector")
    if abs(norm - 1.0) > 1e-9:
        warnings.warn(f"state norm {norm:.6g} != 1; rescaling", stacklevel=2)
        state = state / norm
    densities = np.empty(pair.n_modes)
    for i in range(1, pair.n_modes + 1):
        acc = 0.0
        for family in (pair.alpha, pair.beta):
            vec = family[i].apply(state)
            acc += float(np.real(np.vdot(vec, vec)))
        densities[i - 1] = acc
    return densities
