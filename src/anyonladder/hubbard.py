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

import ctypes
import functools
import os
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack
from scipy.sparse.linalg import eigsh

from .basis import FusionTreeBasis, SparseOperator, _require_finite, _sector_block
# fibonacci_pair stays a module attribute: the benchmark's tracer rebinds it
# here (perfbench/test_perfbench.py::test_tracer_rebinds_every_copy_and_restores).
from .ladder import FibonacciPair, _shared_pair, fibonacci_pair  # noqa: F401
from .model import AnyonModel, builtin
from .polynomial import GeneratorSymbol, LadderPolynomial

__all__ = [
    "DENSE_CUTOFF",
    "K_EXTREMAL",
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
K_EXTREMAL = 6  # eigenvalues an iterative sector solve finds
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


def hamiltonian_polynomial(n_rungs: int, params: HubbardParams) -> LadderPolynomial:
    """The Hamiltonian on ``n_rungs`` rungs as a ladder polynomial in the
    pair symbols, on the lattice ``build_lattice(n_rungs, params.indexing)``.

    Evaluating it with the pair resolver must agree entrywise with
    :func:`build_hamiltonian`; the two construction paths cross-check each
    other.
    """
    spec = build_lattice(n_rungs, params.indexing)
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


def build_hamiltonian(params: HubbardParams, pair: FibonacciPair) -> SparseOperator:
    """Assemble the Hamiltonian directly from the matrices of ``pair``.

    The lattice is ``build_lattice(pair.n_modes // 2, params.indexing)``;
    a pair on an odd number of modes fits no ladder and is refused.  H acts
    on the pair's column basis: the full canonical basis, or one
    total-charge sector for a pair built on that sector, where H is the
    full H's sector block with the same CSR bytes.
    """
    if pair.n_modes % 2:
        raise ValueError(f"a ladder needs an even number of modes, the pair has {pair.n_modes}")
    spec = build_lattice(pair.n_modes // 2, params.indexing)
    basis = pair.alpha[1].col_basis
    # A family of zero operators (beta on sector e) adds nothing.
    families = [(family, {i: op.dagger() for i, op in family.items()})
                for family in (pair.alpha, pair.beta)
                if any(op.nnz for op in family.values())]
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
    return spec, build_hamiltonian(params, pair)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Eigenvalues of one charge sector, sorted ascending.

    ``method`` records the solver: ``dense`` returns the full sector
    spectrum, with the bits of ``np.linalg.eigh``, ``iterative`` only the
    lowest few eigenvalues.  The ground state, when requested, lives in the
    basis of the diagonalized operator, zero off the sector's rows.
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
) -> Spectrum:
    """Eigenvalues of one total-charge block of a Hermitian operator.

    The block, of a full operator and a sector operator alike, is the
    sector's CSR rows ``offset .. offset + dim`` of ``h``, symmetrised
    there; the full operator is never densified, and the Hermiticity check
    runs on the sparse difference ``h - h^dagger``, after a non-finite entry
    of ``h`` is refused with ``ValueError``.  An operator on a sector
    basis is its own block and can only be solved for that sector.
    ``method`` defaults to a dense solve of the block for block dimension
    up to ``DENSE_CUTOFF`` and an iterative extremal solve (lowest
    ``K_EXTREMAL`` eigenvalues, sparse ``eigsh``) above it.  Blocks of
    dimension at most ``K_EXTREMAL + 1`` are too small for ``eigsh`` and are
    always solved densely; the returned ``method`` says which solver ran.
    The dense solve runs LAPACK zheevd's steps but back-transforms only the
    ground vector, and none without ``want_vector``; its eigenvalues and
    ground vector have the bits of ``np.linalg.eigh`` (see
    ``_dense_solve``).  This is the one-sector case of ``_spectra``, with
    which the CLI solves the dense blocks of all sectors side by side on the
    usable CPUs (there is no option), each solve on one BLAS thread
    (``_one_blas_thread``) without the GIL: no bit depends on the CPU count
    or the BLAS thread count.
    """
    return next(_spectra(h, [sector], method, want_vector))


def _spectra(h: SparseOperator, sectors, method=None, want_vector: bool = True):
    """Yield ``diagonalize(h, g, method, want_vector)`` for each g of ``sectors``
    in order, with H checked once and every block solved first: the largest
    dense one and the iterative ones by the caller, the others on up to
    ``len(os.sched_getaffinity(0)) - 1`` threads that run only ``_dense_solve``
    (not the benchmark's traced calls).  A failure raises in its sector's turn."""
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}; expected dense or iterative")
    basis, model = h.row_basis, h.row_basis.model
    charges = [model.charge(sector) for sector in sectors]
    for g in charges:
        if basis.sector not in (None, g):
            raise ValueError(f"operator is restricted to sector {model.labels[basis.sector]}; "
                             f"cannot diagonalize sector {model.labels[g]}")
    _require_finite(h)
    if (h + (-1.0) * h.dagger()).norm_max() > HERMITICITY_TOLERANCE:
        raise ValueError("operator is not Hermitian; cannot diagonalize")
    if not h.is_charge_diagonal():
        raise ValueError("operator mixes total-charge sectors")
    jobs = []
    for g in charges:
        rows = FusionTreeBasis(model, basis.n_modes, g, shape=basis.shape)
        block = _sector_block(h, rows).matrix
        how = method or ("dense" if rows.dim <= DENSE_CUTOFF else "iterative")
        how = "dense" if rows.dim <= K_EXTREMAL + 1 else how
        jobs.append((rows, how, (block + block.conj().T) / 2.0))
    dense = sorted((i for i, job in enumerate(jobs) if job[1] == "dense"),
                   key=lambda i: -jobs[i][0].dim)
    cpus = len(os.sched_getaffinity(0))
    with _one_blas_thread(), ThreadPoolExecutor(max(cpus - 1, 1)) as pool:
        solved = {i: pool.submit(_dense_solve, jobs[i][2], want_vector)
                  for i in (dense[1:] if cpus > 1 else ())}
        for i, (_rows, how, block) in enumerate(jobs):
            if i not in solved:
                solved[i] = _solved(how, block, want_vector)
    for i, (rows, how, _block) in enumerate(jobs):
        vals, ground = solved[i].result()
        vector = None
        if want_vector:
            vector = np.zeros(basis.dim, dtype=complex)
            vector[rows.offset - basis.offset + np.arange(rows.dim)] = ground
        yield Spectrum(model.labels[rows.sector], rows.dim, how, np.real(vals), vector)


def _solved(how: str, block, want_vector: bool) -> Future:
    """A done future of the solve's eigenvalues and ground vector, or error."""
    done = Future()
    try:
        if how == "dense":
            done.set_result(_dense_solve(block, want_vector))
            return done
        # A seeded start vector, uniform on (-1, 1) in both parts as ARPACK
        # draws its own, makes the result a function of the block alone.
        start = np.random.default_rng(0).uniform(-1.0, 1.0, (2, block.shape[0]))
        vals, vecs = eigsh(block, k=K_EXTREMAL, which="SA", v0=start[0] + 1j * start[1])
        order = np.argsort(vals)
        done.set_result((vals[order], vecs[:, order[0]]))
    except Exception as exc:
        done.set_exception(exc)
    return done


# The thread-count calls of an OpenBLAS, by the symbols that numpy's wheels
# (64-bit integers), scipy's wheels and a plain build export.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _PhdrInfo(ctypes.Structure):  # the head of glibc's struct dl_phdr_info
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_VISIT = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)
_BLAS_THREADS_LOCK = threading.Lock()
_BLAS_PINS = []  # per holder of _one_blas_thread, the counts the last one out restores


@functools.cache
def _openblas_threads() -> tuple:
    """``(get, set)`` of the thread count of every OpenBLAS loaded in this
    process, found by listing its shared objects with ``dl_iterate_phdr``;
    none where the C library has no such call."""
    paths = []

    @_VISIT
    def visit(info, _size, _data):
        paths.append(info.contents.name)
        return 0

    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except AttributeError:
        return ()
    iterate.argtypes, iterate.restype = [_VISIT, ctypes.c_void_p], ctypes.c_int
    iterate(visit, None)
    calls = []
    for path in filter(None, paths):
        if b"openblas" in os.path.basename(path).lower():
            lib = ctypes.CDLL(os.fsdecode(path))
            for get, put in _OPENBLAS_THREAD_CALLS:
                if hasattr(lib, get) and hasattr(lib, put):
                    get, put = getattr(lib, get), getattr(lib, put)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    calls.append((get, put))
                    break
    return tuple(calls)


@contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.  A threaded
    BLAS rounds by its thread count, so the sector solves, and the ``hubbard
    --out`` files, would depend on it.  The count is the process's, so the
    first of the holders in any thread (such as sectors solved side by side)
    sets it and the last one out gives each OpenBLAS its old count back."""
    calls = _openblas_threads()
    with _BLAS_THREADS_LOCK:
        first = not _BLAS_PINS
        _BLAS_PINS.append([get() for get, _put in calls] if first else _BLAS_PINS[0])
        for _get, put in calls if first else ():
            put(1)
    try:
        yield
    finally:
        with _BLAS_THREADS_LOCK:
            counts = _BLAS_PINS.pop()
            for (_get, put), count in zip(calls, () if _BLAS_PINS else counts):
                put(count)


# zheevd hands blocks of at most this dimension (LAPACK's SMLSIZ) to zsteqr
# on complex vectors, whose signed zeros a real tridiagonal solve does not
# give.  It rescales a block whose largest entry is outside (_RMIN, _RMAX),
# and dstevd rescales a tridiagonal matrix the same way, so the steps of
# _dense_solve run only where neither rescales.
_SMLSIZ = 25
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN, _RMAX = np.sqrt(_SMLNUM), np.sqrt(1.0 / _SMLNUM)


def _unscaled(x) -> bool:
    """Whether max |x| (a sparse block's stored values, 0 if none) is in (_RMIN, _RMAX)."""
    return bool(_RMIN < np.abs(x.data if sp.issparse(x) else x).max(initial=0.0) < _RMAX)


def _dense_solve(block, want_vector: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and ground vector of the Hermitian sparse ``block``, with
    the bits of ``np.linalg.eigh(block.toarray())`` under one BLAS thread.

    The steps are LAPACK zheevd's: Householder reduction of the lower
    triangle to a real tridiagonal matrix, divide and conquer on that, and the
    back-transform, here of column 0 only and unblocked (``lwork=1``), as
    numpy's zheevd workspace makes it.  Blocks that zheevd solves another way
    (see ``_SMLSIZ``) go to ``eigh``.  The block is densified once, in
    Fortran order, and reduced in place; with dstevd's eigenvectors and
    workspace (half a copy each) the solve peaks at two dense copies.  LAPACK
    runs without the GIL (``_lapack``); side by side, each solve keeps these bits.
    """
    n = block.shape[0]
    if n > _SMLSIZ and _unscaled(block):
        a = block.astype(complex, copy=False).toarray(order="F")
        d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1, complex)
        work = np.empty(1, complex)
        _lapack("zhetrd", b"L", n, a, n, d, e, tau, work, -1)  # the workspace query
        work = np.empty(int(work[0].real), complex)
        _lapack("zhetrd", b"L", n, a, n, d, e, tau, work, work.size)
        if _unscaled(np.concatenate([d, e])):
            # The vectors are needed either way: without them dstevd runs
            # dsterf, whose eigenvalues differ in the last bits.
            z, work = np.empty((n, n), order="F"), np.empty(1 + 4 * n + n * n)
            iwork = np.empty(3 + 5 * n, np.intc)
            _lapack("dstevd", b"V", n, d, e, z, n, work, work.size, iwork, iwork.size)
            if not want_vector:
                return d, None
            ground = z[:, 0].astype(complex)
            v = a.ravel(order="F")[1:]  # the Householder vectors from A(2,1) on, LDA = n
            _lapack("zunmqr", b"L", b"N", n - 1, 1, n - 1, v, n, tau, ground[1:], n - 1,
                    np.empty(1, complex), 1)
            return d, ground
        del a  # zhetrd has overwritten the block's dense copy
    vals, vecs = np.linalg.eigh(block.toarray())
    return vals, vecs[:, 0]


@functools.cache
def _lapack_routine(name: str):
    """``cython_lapack.name`` as a ctypes function of pointers (no GIL in the call)."""
    capsule, api, obj = cython_lapack.__pyx_capi__[name], ctypes.pythonapi, ctypes.py_object
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))(capsule)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    kind = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))
    return kind(pointer(capsule, signature))


def _lapack(name: str, *args) -> None:
    """LAPACK's ``name`` on ``args`` and INFO, by reference: bytes as a character, an
    int as an INTEGER, an array (Fortran-ordered, of its type) by its data."""
    refs = [np.array(arg, np.intc) if isinstance(arg, int) else arg for arg in (*args, 0)]
    routine = _lapack_routine(name)
    arrays = [ref for ref in refs if isinstance(ref, np.ndarray)]
    if len(refs) != len(routine.argtypes) or not all(a.flags.f_contiguous for a in arrays):
        raise ValueError(f"LAPACK {name} takes {len(routine.argtypes)} Fortran-ordered arguments")
    routine(*(ref if isinstance(ref, bytes) else ref.ctypes.data for ref in refs))
    if refs[-1] != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info={int(refs[-1])}")


def occupation_profile(state: np.ndarray, pair: FibonacciPair) -> np.ndarray:
    """Expected occupation <n_i> per mode, n_i = a_i^+ a_i + b_i^+ b_i.

    ``n_i`` is the projector onto states whose mode ``i`` is occupied, so
    every density lies in [0, 1].  ``state`` lives in the pair's column basis,
    so a sector ground state takes the pair built on that sector.
    Unnormalized input is rescaled with a warning; a non-finite entry raises
    ``ValueError``.
    """
    state = np.asarray(state, dtype=complex)
    columns = pair.alpha[1].col_basis.dim
    if state.shape != (columns,):
        raise ValueError(
            f"state has length {state.size}, but the pair's column dimension is "
            f"{columns}; a sector state needs that sector's pair"
        )
    bad = np.flatnonzero(~np.isfinite(state))
    if len(bad):
        k = int(bad[0])
        raise ValueError(f"non-finite value {complex(state[k])} at entry {k} of the state")
    with _one_blas_thread():  # the BLAS threads the norm and the dot products of long vectors
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
