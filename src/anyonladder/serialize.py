"""File formats: operator triplets, coefficient tables, polynomials, CSVs.

All writers are deterministic — identical inputs produce byte-identical
files — and all numeric fields use full ``%.17g`` precision so round-trips
are exact at double precision.
"""

from __future__ import annotations

import csv
import functools
import io
import json

import numpy as np

from .basis import FusionTreeBasis, SparseOperator
from .ladder import CoefficientTable, coefficient_tables
from .model import AnyonModel
from .polynomial import LadderPolynomial

__all__ = [
    "FORMAT_VERSION",
    "dump_operator",
    "load_operator",
    "dump_tables",
    "load_tables",
    "dump_polynomial",
    "load_polynomial",
    "write_spectrum_csv",
    "write_occupation_csv",
]

FORMAT_VERSION = 1
ORDERING_VERSION = "left-comb-v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# Operator triplets
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _index_strings(size: int) -> np.ndarray:
    """``"{i} "`` for every index below ``size``: one read-only table per size,
    shared by every operator written at that size (an export writes all of
    its operators at one size)."""
    table = np.array([f"{i} " for i in range(size)], dtype=object)
    table.flags.writeable = False
    return table


def dump_operator(op: SparseOperator, name: str = "") -> str:
    """Coordinate-triplet text: header lines, then ``row col re im`` rows.

    Each distinct index and each distinct real or imaginary part is formatted
    once, with the bytes one ``%.17g`` per part gives; parts are told apart by
    their bits, so ``-0.0`` still prints ``-0``."""
    basis = op.row_basis
    lines = [
        f"# anyonladder operator v{FORMAT_VERSION}",
        f"# model: {basis.model.name}",
        f"# n_modes: {basis.n_modes}",
        f"# dim: {basis.dim} {op.col_basis.dim}",
        f"# ordering: {ORDERING_VERSION}",
    ]
    if name:
        lines.insert(1, f"# name: {name}")
    mat = op.matrix
    nnz = mat.nnz
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    cols, data = mat.indices[:nnz], mat.data[:nnz]
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    parts = np.concatenate((data.real, data.imag), dtype=np.float64)
    bits, which = np.unique(parts.view(np.int64), return_inverse=True)
    distinct = [_fmt(v) for v in bits.view(np.float64).tolist()]
    # A sector operator has fewer columns than rows.
    index = _index_strings(max(mat.shape))
    fields = np.empty((nnz, 4), dtype=object)
    fields[:, 0] = index[rows]
    fields[:, 1] = index[cols]
    fields[:, 2] = np.array([f"{s} " for s in distinct], dtype=object)[which[:nnz]]
    fields[:, 3] = np.array([f"{s}\n" for s in distinct], dtype=object)[which[nnz:]]
    return "\n".join(lines) + "\n" + "".join(fields.ravel().tolist())


def _header_ints(header: dict[str, str], key: str, count: int) -> tuple[int, ...]:
    """The ``count`` integers of header line ``# key:``, or a ValueError naming it."""
    try:
        values = tuple(int(v) for v in header[key].split())
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(
            f"'# {key}:' header expects {count} integer(s), got {header[key]!r}"
        )
    return values


def load_operator(text: str, model: AnyonModel) -> SparseOperator:
    """Parse the triplet format back into a SparseOperator on ``model``.

    Only square operators on the canonical basis of ``model`` load."""
    header: dict[str, str] = {}
    triplets: dict[tuple[int, int], complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"line {lineno}: expected 'row col re im', got {line!r}"
            )
        try:
            r, c = int(parts[0]), int(parts[1])
            v = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: expected integer row and col and real re and im, "
                f"got {line!r} ({exc})"
            ) from None
        if (r, c) in triplets:
            raise ValueError(f"line {lineno}: repeated entry ({r}, {c})")
        if not np.isfinite(v):
            raise ValueError(f"line {lineno}: non-finite value in {line!r}")
        triplets[(r, c)] = v
    if "n_modes" not in header:
        raise ValueError("missing '# n_modes:' header line")
    if "model" in header and header["model"] != model.name:
        raise ValueError(
            f"operator was written for model {header['model']!r}, "
            f"loading under {model.name!r}"
        )
    (n_modes,) = _header_ints(header, "n_modes", 1)
    basis = FusionTreeBasis(model, n_modes)
    if "dim" in header:
        declared = _header_ints(header, "dim", 2)
        if declared[0] != declared[1]:
            raise ValueError(
                f"declared dim {declared} is not square: only square operators "
                "on the canonical basis load"
            )
        if declared != (basis.dim, basis.dim):
            raise ValueError(
                f"declared dim {declared} does not match basis dim {basis.dim}"
            )
    for r, c in triplets:
        if not (0 <= r < basis.dim and 0 <= c < basis.dim):
            raise ValueError(f"entry ({r}, {c}) outside dimension {basis.dim}")
    # Exact zeros are not stored; the CSR is canonical, whatever the line order.
    nonzero = {rc: v for rc, v in triplets.items() if v != 0}
    return SparseOperator.from_entries(basis, basis, nonzero)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


def dump_tables(model: AnyonModel, particle: str) -> str:
    """JSON with table entries keyed ``b0|c0`` mapping to ``[re, im]``."""
    tables = coefficient_tables(model, particle)
    payload = {
        "model": model.name,
        "particle": particle,
        "tables": [
            {
                "j": t.j,
                "entries": {
                    f"{b0}|{c0}": [_fmt(v.real), _fmt(v.imag)]
                    for (b0, c0), v in sorted(t.entries.items())
                },
            }
            for t in tables
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_tables(text: str) -> list[CoefficientTable]:
    payload = json.loads(text)
    out = []
    for t in payload["tables"]:
        entries = {}
        for key, (re, im) in t["entries"].items():
            b0, _, c0 = key.partition("|")
            entries[(b0, c0)] = complex(float(re), float(im))
        out.append(CoefficientTable(payload["particle"], int(t["j"]), entries))
    return out


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def dump_polynomial(poly: LadderPolynomial) -> str:
    return json.dumps(poly.to_payload(), indent=2) + "\n"


def load_polynomial(text: str) -> LadderPolynomial:
    return LadderPolynomial.from_payload(json.loads(text))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_spectrum_csv(spectra) -> str:
    """Rows ``sector,index,eigenvalue`` for every sector in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sector", "index", "eigenvalue"])
    for sp in spectra:
        for i, val in enumerate(sp.eigenvalues):
            writer.writerow([sp.sector, i, _fmt(val)])
    return buf.getvalue()


def write_occupation_csv(densities) -> str:
    """Rows ``mode,density`` with 1-based mode indices."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mode", "density"])
    for i, d in enumerate(densities, start=1):
        writer.writerow([i, _fmt(d)])
    return buf.getvalue()
