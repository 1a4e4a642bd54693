"""Fusion data for multiplicity-free anyon models.

An :class:`AnyonModel` bundles everything the rest of the package needs to
know about an anyon theory: particle labels, fusion rules, F-symbols and
R-symbols.  Only multiplicity-free theories are supported, i.e. every fusion
coefficient N_ab^c is 0 or 1; higher multiplicities raise
:class:`ModelDataError`.

Conventions
-----------
* Labels are ordered with all abelian particle types first.  A type ``a`` is
  abelian when ``a x b`` has exactly one fusion channel for every ``b``.
* F-symbols follow the left/right tree convention
  ``|a,(b,c)_y; d> = sum_x [F^{abc}_d]_{x,y} |(a,b)_x,c; d>``,
  with rows ``x`` running over the valid channels of ``a x b`` and columns
  ``y`` over the valid channels of ``b x c``, both in label order.
* R-symbols ``R^{ab}_c`` are the phases picked up when the pair ``(a, b)``
  fused in channel ``c`` is exchanged counterclockwise (``a`` over ``b``).
* F- and R-symbols with a vacuum label among the upper indices are gauge
  fixed to 1 and are filled in automatically; documents only carry the
  non-trivial entries.
* Both are stored once, as read-only complex arrays over label indices:
  ``F[a, b, c, d, x, y] = [F^{abc}_d]_{x,y}`` (shape ``(n,) * 6``) and
  ``R[a, b, c] = R^{ab}_c`` (shape ``(n,) * 3``), zero wherever the fusion
  rules forbid an entry.
* ``alpha`` and ``beta`` (the Fibonacci pair in generator tokens) are not
  labels, and no label holds ``,``, ``;`` or ``|`` (the files' separators).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "AnyonModel",
    "ModelDataError",
    "ValidationReport",
    "builtin",
    "BUILTIN_MODELS",
    "fuse",
    "load_model",
    "dump_model",
    "rounding_cut",
    "validate_model",
]


class ModelDataError(ValueError):
    """Raised when model data is structurally unusable."""


def _check_labels(labels: Iterable[str]) -> None:
    for l in labels:
        if l in ("alpha", "beta") or any(ch in l for ch in ",;|"):
            raise ModelDataError(f"particle label {l!r} is reserved or holds one of , ; |")
        if not l or l != l.strip():
            raise ModelDataError(f"particle label {l!r} is empty or has leading or trailing whitespace")


class AnyonModel:
    """Immutable fusion data of a multiplicity-free anyon theory.

    Instances are meant to be built through :func:`builtin` or
    :func:`load_model`; all arrays are marked read-only.
    """

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        vacuum: str,
        dual: Mapping[str, str],
        triples: Iterable[tuple[str, str, str]],
        f_symbols: Mapping[tuple[str, str, str, str], np.ndarray],
        r_symbols: Mapping[tuple[str, str, str], complex],
    ):
        self.name = str(name)
        self.labels = tuple(str(l) for l in labels)
        if len(set(self.labels)) != len(self.labels):
            raise ModelDataError(f"duplicate particle labels in {self.labels}")
        _check_labels(self.labels)
        self._index = {l: i for i, l in enumerate(self.labels)}
        n = len(self.labels)
        if vacuum not in self._index:
            raise ModelDataError(f"vacuum label {vacuum!r} not among labels")
        self.vacuum = self._index[vacuum]

        try:
            self.dual = tuple(self._index[dual[l]] for l in self.labels)
        except KeyError as exc:
            raise ModelDataError(f"dual map incomplete or inconsistent: {exc}") from exc

        fusion = np.zeros((n, n, n), dtype=np.uint8)
        seen: set[tuple[int, int, int]] = set()
        for a, b, c in triples:
            key = (self._index[a], self._index[b], self._index[c])
            if key in seen:
                raise ModelDataError(
                    f"fusion multiplicity above 1 for {a} x {b} -> {c}; "
                    "only multiplicity-free theories are supported"
                )
            seen.add(key)
            fusion[key] = 1
        fusion.setflags(write=False)
        self.fusion = fusion

        self._fuse: dict[tuple[int, int], tuple[int, ...]] = {}
        for a in range(n):
            for b in range(n):
                self._fuse[a, b] = tuple(int(c) for c in np.nonzero(fusion[a, b])[0])
                if not self._fuse[a, b]:
                    raise ModelDataError(
                        f"no fusion channel for {self.labels[a]} x {self.labels[b]}"
                    )

        self.abelian = tuple(
            all(len(self._fuse[a, b]) == 1 for b in range(n)) for a in range(n)
        )

        # Perron-Frobenius eigenvalue of the fusion matrix (N_a)_{bc}.
        dims = []
        for a in range(n):
            eigs = np.linalg.eigvals(fusion[a].astype(float))
            dims.append(float(np.max(eigs.real)))
        self.quantum_dims = tuple(dims)

        self.F = self._assemble_f(f_symbols)
        self.R = self._assemble_r(r_symbols)

    # -- construction helpers -------------------------------------------------

    def _f_channel_lists(
        self, a: int, b: int, c: int, d: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        xs = tuple(x for x in self._fuse[a, b] if self.fusion[x, c, d])
        ys = tuple(y for y in self._fuse[b, c] if self.fusion[a, y, d])
        return xs, ys

    def _assemble_f(
        self, provided: Mapping[tuple[str, str, str, str], np.ndarray]
    ) -> np.ndarray:
        by_index = {}
        for (a, b, c, d), mat in provided.items():
            try:
                key = tuple(self._index[l] for l in (a, b, c, d))
            except KeyError as exc:
                raise ModelDataError(f"F-symbol key uses unknown label: {exc}") from exc
            by_index[key] = np.asarray(mat, dtype=complex)

        n = len(self.labels)
        table = np.zeros((n,) * 6, dtype=complex)
        for key in product(range(n), repeat=4):
            xs, ys = self._f_channel_lists(*key)
            if len(xs) != len(ys):
                a, b, c, d = (self.labels[i] for i in key)
                raise ModelDataError(f"fusion rules are not associative at ({a},{b},{c};{d})")
            if not xs:
                continue
            mat = by_index.pop(key, None)
            if self.vacuum in key[:3]:
                if mat is not None and not np.allclose(mat, np.eye(len(xs))):
                    raise ModelDataError(
                        "F-symbols with a vacuum upper index are gauge fixed to 1; "
                        f"conflicting entry for {self._f_key_str(key)}"
                    )
                mat = np.eye(len(xs))
            elif mat is None:
                raise ModelDataError(f"missing F-symbol {self._f_key_str(key)}")
            elif mat.shape != (len(xs), len(ys)):
                raise ModelDataError(
                    f"F-symbol {self._f_key_str(key)} has shape {mat.shape}, "
                    f"expected {(len(xs), len(ys))}"
                )
            table[key][np.ix_(xs, ys)] = mat
        if by_index:
            raise ModelDataError(
                f"F-symbol {self._f_key_str(next(iter(by_index)))} refers to a forbidden fusion"
            )
        table.setflags(write=False)
        return table

    def _assemble_r(self, provided: Mapping[tuple[str, str, str], complex]) -> np.ndarray:
        by_index = {}
        for (a, b, c), val in provided.items():
            try:
                key = tuple(self._index[l] for l in (a, b, c))
            except KeyError as exc:
                raise ModelDataError(f"R-symbol key uses unknown label: {exc}") from exc
            by_index[key] = complex(val)

        n = len(self.labels)
        table = np.zeros((n,) * 3, dtype=complex)
        for a, b in product(range(n), repeat=2):
            for c in self._fuse[a, b]:
                key = (a, b, c)
                val = by_index.pop(key, None)
                if self.vacuum in (a, b):
                    if val is not None and not cmath.isclose(val, 1.0):
                        raise ModelDataError(
                            "R-symbols with a vacuum index are gauge fixed to 1; "
                            f"conflicting entry for {self._r_key_str(key)}"
                        )
                    val = 1.0
                elif val is None:
                    raise ModelDataError(f"missing R-symbol {self._r_key_str(key)}")
                table[key] = val
        if by_index:
            raise ModelDataError(
                f"R-symbol {self._r_key_str(next(iter(by_index)))} refers to a forbidden fusion"
            )
        table.setflags(write=False)
        return table

    def _f_key_str(self, key: tuple[int, int, int, int]) -> str:
        a, b, c, d = (self.labels[i] for i in key)
        return f"[F^({a},{b},{c})_{d}]"

    def _r_key_str(self, key: tuple[int, int, int]) -> str:
        a, b, c = (self.labels[i] for i in key)
        return f"[R^({a},{b})_{c}]"

    # -- queries ---------------------------------------------------------------

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ModelDataError(f"unknown particle label {label!r}") from None

    def charge(self, g) -> int:
        """The index of charge ``g``, given as a label or as an integer index."""
        if not isinstance(g, (int, np.integer)):
            return self.index(g)
        if not 0 <= g < self.n_labels:
            raise ValueError(
                f"charge index {g} out of range; expected 0..{self.n_labels - 1} "
                f"for the labels {', '.join(self.labels)}"
            )
        return int(g)

    def fuse(self, a: int, b: int) -> tuple[int, ...]:
        """Fusion channels of ``a x b`` as label-order indices."""
        return self._fuse[a, b]

    def f_entry(self, a: int, b: int, c: int, d: int, x: int, y: int) -> complex:
        """``[F^{abc}_d]_{x,y}``; 0 whenever any index combination is invalid."""
        return complex(self.F[a, b, c, d, x, y])

    def r(self, a: int, b: int, c: int) -> complex:
        """``R^{ab}_c``; raises for a forbidden fusion."""
        if not self.fusion[a, b, c]:
            raise ModelDataError(
                f"R-symbol requested for forbidden fusion {self._r_key_str((a, b, c))}"
            )
        return complex(self.R[a, b, c])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnyonModel({self.name!r}, labels={self.labels})"


def fuse(model: AnyonModel, a: str, b: str) -> tuple[str, ...]:
    """Fusion channels of ``a x b`` as labels, in label order."""
    channels = model.fuse(model.index(a), model.index(b))
    return tuple(model.labels[c] for c in channels)


# ---------------------------------------------------------------------------
# Builtin models
# ---------------------------------------------------------------------------

_PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0


def _fibonacci() -> AnyonModel:
    f_tau = np.array(
        [
            [_PHI_INV, math.sqrt(_PHI_INV)],
            [math.sqrt(_PHI_INV), -_PHI_INV],
        ],
        dtype=complex,
    )
    return AnyonModel(
        name="fibonacci",
        labels=("e", "tau"),
        vacuum="e",
        dual={"e": "e", "tau": "tau"},
        triples=[
            ("e", "e", "e"),
            ("e", "tau", "tau"),
            ("tau", "e", "tau"),
            ("tau", "tau", "e"),
            ("tau", "tau", "tau"),
        ],
        f_symbols={
            ("tau", "tau", "tau", "e"): np.array([[1.0]], dtype=complex),
            ("tau", "tau", "tau", "tau"): f_tau,
        },
        r_symbols={
            ("tau", "tau", "e"): cmath.exp(-4j * math.pi / 5.0),
            ("tau", "tau", "tau"): cmath.exp(3j * math.pi / 5.0),
        },
    )


def _fermion() -> AnyonModel:
    return AnyonModel(
        name="fermion",
        labels=("e", "psi"),
        vacuum="e",
        dual={"e": "e", "psi": "psi"},
        triples=[
            ("e", "e", "e"),
            ("e", "psi", "psi"),
            ("psi", "e", "psi"),
            ("psi", "psi", "e"),
        ],
        f_symbols={
            ("psi", "psi", "psi", "psi"): np.array([[1.0]], dtype=complex),
        },
        r_symbols={
            ("psi", "psi", "e"): -1.0,
        },
    )


def _ising() -> AnyonModel:
    # 1x1 sign entries certified against the pentagon and hexagon equations;
    # see tests/test_model.py.
    s = 1.0 / math.sqrt(2.0)
    f_sigma = np.array([[s, s], [s, -s]], dtype=complex)
    signs = {
        ("psi", "psi", "psi", "psi"): 1.0,
        ("psi", "psi", "sigma", "sigma"): 1.0,
        ("sigma", "psi", "psi", "sigma"): 1.0,
        ("psi", "sigma", "psi", "sigma"): -1.0,
        ("psi", "sigma", "sigma", "e"): 1.0,
        ("psi", "sigma", "sigma", "psi"): 1.0,
        ("sigma", "sigma", "psi", "e"): 1.0,
        ("sigma", "sigma", "psi", "psi"): 1.0,
        ("sigma", "psi", "sigma", "e"): 1.0,
        ("sigma", "psi", "sigma", "psi"): -1.0,
    }
    f_symbols: dict[tuple[str, str, str, str], np.ndarray] = {
        key: np.array([[val]], dtype=complex) for key, val in signs.items()
    }
    f_symbols[("sigma", "sigma", "sigma", "sigma")] = f_sigma
    return AnyonModel(
        name="ising",
        labels=("e", "psi", "sigma"),
        vacuum="e",
        dual={"e": "e", "psi": "psi", "sigma": "sigma"},
        triples=[
            ("e", "e", "e"),
            ("e", "psi", "psi"),
            ("e", "sigma", "sigma"),
            ("psi", "e", "psi"),
            ("psi", "psi", "e"),
            ("psi", "sigma", "sigma"),
            ("sigma", "e", "sigma"),
            ("sigma", "psi", "sigma"),
            ("sigma", "sigma", "e"),
            ("sigma", "sigma", "psi"),
        ],
        f_symbols=f_symbols,
        r_symbols={
            ("psi", "psi", "e"): -1.0,
            ("psi", "sigma", "sigma"): -1.0j,
            ("sigma", "psi", "sigma"): -1.0j,
            ("sigma", "sigma", "e"): cmath.exp(-1j * math.pi / 8.0),
            ("sigma", "sigma", "psi"): cmath.exp(3j * math.pi / 8.0),
        },
    )


BUILTIN_MODELS = ("fibonacci", "fermion", "ising")


_BUILTIN_INSTANCES: dict[str, AnyonModel] = {}


def builtin(name: str) -> AnyonModel:
    """Return a builtin model: ``fibonacci``, ``fermion`` or ``ising``.

    Instances are shared per name so operators built in separate calls act on
    compatible bases (and reuse the per-model caches).
    """
    factories = {"fibonacci": _fibonacci, "fermion": _fermion, "ising": _ising}
    if name not in factories:
        raise ModelDataError(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_MODELS)}"
        )
    if name not in _BUILTIN_INSTANCES:
        _BUILTIN_INSTANCES[name] = factories[name]()
    return _BUILTIN_INSTANCES[name]


# ---------------------------------------------------------------------------
# Document I/O
# ---------------------------------------------------------------------------


def _complex_from_pair(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ModelDataError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def load_model(source) -> AnyonModel:
    """Build a model from a JSON document (path, file object or dict).

    The document layout is::

        {
          "name": "...",                       # optional
          "labels": ["e", "tau"],              # abelian types first
          "vacuum": "e",
          "dual": {"e": "e", "tau": "tau"},
          "fusion": [["tau", "tau", "e"], ...],
          "f_symbols": {"a,b,c;d": [[[re, im], ...], ...]},  # row-major
          "r_symbols": {"a,b;c": [re, im]}
        }

    F/R entries with a vacuum label are implied and must be omitted.
    Structural problems (fusion multiplicity, missing or misshaped symbols)
    raise :class:`ModelDataError`; numeric consistency is checked separately
    with :func:`validate_model`.
    """
    if isinstance(source, (dict,)):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    try:
        labels = doc["labels"]
        vacuum = doc["vacuum"]
        dual = doc["dual"]
        fusion = doc["fusion"]
    except KeyError as exc:
        raise ModelDataError(f"model document misses required field {exc}") from exc
    _check_labels(map(str, labels))

    triples = []
    for triple in fusion:
        if len(triple) != 3:
            raise ModelDataError(f"fusion entry {triple!r} is not a triple")
        triples.append(tuple(triple))

    f_symbols = {}
    for key, rows in doc.get("f_symbols", {}).items():
        try:
            upper, d = key.split(";")
            a, b, c = upper.split(",")
        except ValueError:
            raise ModelDataError(f"malformed F-symbol key {key!r}") from None
        f_symbols[(a.strip(), b.strip(), c.strip(), d.strip())] = np.array(
            [[_complex_from_pair(p) for p in row] for row in rows], dtype=complex
        )

    r_symbols = {}
    for key, pair in doc.get("r_symbols", {}).items():
        try:
            upper, c = key.split(";")
            a, b = upper.split(",")
        except ValueError:
            raise ModelDataError(f"malformed R-symbol key {key!r}") from None
        r_symbols[(a.strip(), b.strip(), c.strip())] = _complex_from_pair(pair)

    return AnyonModel(
        name=doc.get("name", "unnamed"),
        labels=labels,
        vacuum=vacuum,
        dual=dual,
        triples=triples,
        f_symbols=f_symbols,
        r_symbols=r_symbols,
    )


def dump_model(model: AnyonModel) -> dict:
    """Serialize a model into the document layout accepted by load_model."""
    doc = {
        "name": model.name,
        "labels": list(model.labels),
        "vacuum": model.labels[model.vacuum],
        "dual": {l: model.labels[model.dual[i]] for i, l in enumerate(model.labels)},
        "fusion": [
            [model.labels[a], model.labels[b], model.labels[c]]
            for a, b, c in np.argwhere(model.fusion == 1).tolist()
        ],
        "f_symbols": {},
        "r_symbols": {},
    }
    for (a, b, c, d), block in _f_blocks(model):
        if model.vacuum in (a, b, c):
            continue
        key = f"{model.labels[a]},{model.labels[b]},{model.labels[c]};{model.labels[d]}"
        doc["f_symbols"][key] = [
            [[float(v.real), float(v.imag)] for v in row] for row in block
        ]
    for a, b, c in np.argwhere(model.fusion == 1).tolist():
        if model.vacuum in (a, b):
            continue
        key = f"{model.labels[a]},{model.labels[b]};{model.labels[c]}"
        val = model.R[a, b, c]
        doc["r_symbols"][key] = [float(val.real), float(val.imag)]
    return doc


def _f_blocks(model: AnyonModel):
    """Each non-empty ``((a, b, c, d), [F^{abc}_d])``, sliced from ``model.F``."""
    for key in product(range(model.n_labels), repeat=4):
        xs, ys = model._f_channel_lists(*key)
        if xs:
            yield key, model.F[key][np.ix_(xs, ys)]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def rounding_cut(tol: float, size: int, scale: float) -> float:
    """The largest residual that counts as zero: ``tol``, never below the rounding
    level ``eps * size * scale`` of ``size`` terms of operands up to ``scale``.
    A ``tol`` that is not finite and non-negative raises ``ValueError``."""
    if not 0.0 <= tol < np.inf:  # NaN fails this too
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    return max(tol, np.finfo(float).eps * size * scale)


@dataclass
class ValidationReport:
    """Checks in the order they were made, each entry ``(status, text, residual)``.

    ``check`` passes a residual up to :func:`rounding_cut` of ``tolerance`` and
    the ``size`` and ``scale`` of what it compares (none for exact integer
    checks), ``verdict`` records a pass or fail decided elsewhere, and ``note``
    an ``info`` or ``n/a`` line that decides nothing; ``residual`` is ``None``
    for the last two.  A report with header lines stands alone: its entries
    are indented under the header and a ``result:`` line closes it.  A
    headerless report is one block of a larger one, a ``verify`` suite, and
    prints its entries only.
    """

    header: list[str]
    tolerance: float
    entries: list[tuple[str, str, float | None]] = field(default_factory=list)

    def check(self, name: str, residual: float, size: int = 0, scale: float = 0.0) -> None:
        residual = float(residual)
        status = "pass" if residual <= rounding_cut(self.tolerance, size, scale) else "FAIL"
        self.entries.append((status, f"{name}: residual={residual:.3e}", residual))

    def verdict(self, ok: bool, text: str) -> None:
        self.entries.append(("pass" if ok else "FAIL", text, None))

    def note(self, status: str, text: str) -> None:
        self.entries.append((status, text, None))

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for status, _, _ in self.entries)

    @property
    def max_residual(self) -> float:
        return max((r for _, _, r in self.entries if r is not None), default=0.0)

    def format_text(self) -> str:
        pad = "  " if self.header else ""
        lines = [*self.header, *(f"{pad}[{status}] {text}" for status, text, _ in self.entries)]
        if self.header:
            lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _vacuum_residual(model: AnyonModel) -> float:
    n = model.n_labels
    e = model.vacuum
    expect = np.eye(n, dtype=np.uint8)
    r1 = np.abs(model.fusion[e].astype(int) - expect).max()
    r2 = np.abs(model.fusion[:, e, :].astype(int) - expect).max()
    return float(max(r1, r2))


def _dual_residual(model: AnyonModel) -> float:
    worst = 0
    e = model.vacuum
    for a in range(model.n_labels):
        channels_to_vacuum = int(model.fusion[a, :, e].sum())
        worst = max(worst, abs(channels_to_vacuum - 1))
        worst = max(worst, int(model.fusion[a, model.dual[a], e] != 1))
        worst = max(worst, int(model.dual[model.dual[a]] != a))
    return float(worst)


def _associativity_residual(model: AnyonModel) -> float:
    fusion = model.fusion.astype(int)
    lhs = np.einsum("abx,xcd->abcd", fusion, fusion)
    rhs = np.einsum("bcy,ayd->abcd", fusion, fusion)
    return float(np.abs(lhs - rhs).max())


def _ordering_residual(model: AnyonModel) -> float:
    seen_nonabelian = False
    for flag in model.abelian:
        if not flag:
            seen_nonabelian = True
        elif seen_nonabelian:
            return 1.0
    return 0.0


def _f_unitarity_residual(model: AnyonModel) -> float:
    worst = 0.0
    for _key, block in _f_blocks(model):
        gram = block @ block.conj().T
        worst = max(worst, float(np.abs(gram - np.eye(len(block))).max()))
    return worst


def _r_modulus_residual(model: AnyonModel) -> float:
    return float(np.abs(np.abs(model.R[model.fusion == 1]) - 1.0).max())


def _quantum_dim_residual(model: AnyonModel) -> float:
    d = np.array(model.quantum_dims)
    lhs = np.outer(d, d)
    rhs = np.einsum("abc,c->ab", model.fusion.astype(float), d)
    return float(np.abs(lhs - rhs).max())


def pentagon_residual(model: AnyonModel) -> float:
    """Worst violation of the pentagon equation over all index tuples.

    In the tree convention used here the equation reads
    ``[F^{abz}_e]_{xv} [F^{xcd}_e]_{uz}
    = sum_y [F^{abc}_u]_{xy} [F^{ayd}_e]_{uv} [F^{bcd}_v]_{yz}``.
    """
    n = model.n_labels
    worst = 0.0
    for a, b, c, d in product(range(n), repeat=4):
        for x in model.fuse(a, b):
            for u in model.fuse(x, c):
                for z in model.fuse(c, d):
                    for v in model.fuse(b, z):
                        for e in range(n):
                            lhs = model.f_entry(a, b, z, e, x, v) * model.f_entry(
                                x, c, d, e, u, z
                            )
                            rhs = sum(
                                model.f_entry(a, b, c, u, x, y)
                                * model.f_entry(a, y, d, e, u, v)
                                * model.f_entry(b, c, d, v, y, z)
                                for y in model.fuse(b, c)
                            )
                            worst = max(worst, abs(lhs - rhs))
    return worst


def hexagon_residual(model: AnyonModel) -> float:
    """Worst violation of the two hexagon equations over all index tuples.

    Counterclockwise version:
    ``sum_g R^{ac}_e [F^{acb}_d]_{eg} R^{bc}_g [F^{abc}_d]^*_{fg}
    = R^{fc}_d [F^{cab}_d]_{ef}``;
    the clockwise version replaces every ``R^{pq}_m`` by ``(R^{qp}_m)^*``.
    """
    n = model.n_labels
    worst = 0.0
    for a, b, c in product(range(n), repeat=3):
        for f in model.fuse(a, b):
            for d in model.fuse(f, c):
                for e in model.fuse(a, c):
                    if not model.fusion[e, b, d]:
                        continue
                    lhs = sum(
                        model.r(a, c, e)
                        * model.f_entry(a, c, b, d, e, g)
                        * model.r(b, c, g)
                        * np.conj(model.f_entry(a, b, c, d, f, g))
                        for g in model.fuse(b, c)
                    )
                    rhs = model.r(f, c, d) * model.f_entry(c, a, b, d, e, f)
                    worst = max(worst, abs(lhs - rhs))
                    lhs2 = sum(
                        np.conj(model.r(c, a, e))
                        * model.f_entry(a, c, b, d, e, g)
                        * np.conj(model.r(c, b, g))
                        * np.conj(model.f_entry(a, b, c, d, f, g))
                        for g in model.fuse(b, c)
                    )
                    rhs2 = np.conj(model.r(c, f, d)) * model.f_entry(c, a, b, d, e, f)
                    worst = max(worst, abs(lhs2 - rhs2))
    return worst


def validate_model(
    model: AnyonModel, level: str = "full", tolerance: float = 1e-10
) -> ValidationReport:
    """Check model consistency.

    ``basic`` covers structural laws (vacuum, duals, commutativity,
    associativity, abelian-first ordering), F-unitarity, R unit modulus and
    the quantum-dimension product rule.  ``full`` adds the pentagon and
    hexagon equations by brute-force index contraction.
    """
    if level not in ("basic", "full"):
        raise ValueError(f"unknown validation level {level!r}")
    report = ValidationReport(
        [f"model: {model.name}", f"level: {level}", f"tolerance: {tolerance:.3e}"], tolerance
    )
    # a law summing n products of p entries up to big: size p * n, scale big**p
    n, big = model.n_labels, float(max(np.abs(model.F).max(), np.abs(model.R).max()))
    report.check("vacuum-law", _vacuum_residual(model))
    report.check("dual-law", _dual_residual(model))
    report.check(
        "commutativity",
        np.abs(model.fusion.astype(int) - model.fusion.transpose(1, 0, 2)).max(),
    )
    report.check("associativity", _associativity_residual(model))
    report.check("abelian-first-ordering", _ordering_residual(model))
    report.check("f-unitarity", _f_unitarity_residual(model), 2 * n, big**2)
    report.check("r-unit-modulus", _r_modulus_residual(model), 2, big**2)
    report.check("quantum-dimensions", _quantum_dim_residual(model), 2 * n, max(model.quantum_dims)**2)
    if level == "full":
        report.check("pentagon", pentagon_residual(model), 3 * n, big**3)
        report.check("hexagon", hexagon_residual(model), 4 * n, big**4)
    return report
