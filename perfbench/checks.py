"""Output checks, run outside the timed region.

Each check takes what the timed call produced (CLI exit code, stdout, output
files, returned objects) and compares it with a reference computed along a
different path from the one being timed.  A check returns ``(ok, reason,
context)``; ``reason`` is empty when ``ok``.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import eigsh

E0_TOLERANCE = 1e-8
DECOMPOSE_TOLERANCE = 1e-10

_SECTOR_LINE = re.compile(r"^sector (\S+): dimension (\d+), ground energy (\S+)$", re.M)
_PARTICLE_LINE = re.compile(r"^particle (\S+): J = (\d+) operator\(s\) x (\d+) mode\(s\)$", re.M)


def path_counts(model, n_modes: int) -> dict[int, int]:
    """Left-comb labelings per total charge by direct dynamic programming.

    The same recursion as ``tests/oracles.path_counts``, kept here so the
    benchmark stands alone.
    """
    current = {a: 1 for a in range(model.n_labels)}
    for _ in range(n_modes - 1):
        nxt = {c: 0 for c in range(model.n_labels)}
        for d_prev, ways in current.items():
            for leaf in range(model.n_labels):
                for d in model.fuse(d_prev, leaf):
                    nxt[d] += ways
        current = nxt
    return current


def _spectrum_csv(text: str) -> dict[str, list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    out: dict[str, list[float]] = {}
    for sector, _index, value in rows[1:]:
        out.setdefault(sector, []).append(float(value))
    return out


def check_hubbard(stdout: str, h, n_modes: int, out_dir=None, e0_reference=None):
    """Sector dimensions, ground energies and (dense sectors) eigenvalue sums.

    ``h`` is the Hamiltonian the timed call built.  Each sector's ground
    energy is recomputed with ``eigsh`` on the CSR block sliced from
    ``h.matrix``; on sectors whose full spectrum was written, the eigenvalue
    sum must equal the block trace.
    """
    model = h.row_basis.model
    counts = path_counts(model, n_modes)
    totals = h.row_basis.totals()
    printed = _SECTOR_LINE.findall(stdout)
    if not printed:
        return False, "no sector lines in the output", {}
    spectra = None
    if out_dir is not None:
        spectrum_file = Path(out_dir) / "spectrum.csv"
        if not spectrum_file.is_file():
            return False, "spectrum.csv was not written", {}
        spectra = _spectrum_csv(spectrum_file.read_text())
        if sorted(spectra) != sorted(label for label, _dim, _e0 in printed):
            return False, f"spectrum.csv sectors {sorted(spectra)} differ from the report", {}
    worst = 0.0
    for label, dim, printed_e0 in printed:
        g = model.index(label)
        if int(dim) != counts[g]:
            return False, f"sector {label}: dimension {dim}, path count {counts[g]}", {}
        idx = np.flatnonzero(totals == g)
        block = h.matrix[idx][:, idx]
        reference = float(eigsh(block, k=1, which="SA")[0][0])
        values = spectra[label] if spectra is not None else [float(printed_e0)]
        e0 = min(values)
        error = abs(e0 - reference)
        if e0_reference is not None:
            error = max(error, abs(e0 - e0_reference))
        worst = max(worst, error)
        if error > E0_TOLERANCE:
            return False, f"sector {label}: E0 {e0!r} vs reference {reference!r}", {}
        if spectra is not None and len(values) == int(dim):
            trace = float(np.real(block.diagonal().sum()))
            if abs(sum(values) - trace) > E0_TOLERANCE * max(1.0, abs(trace)):
                return False, f"sector {label}: eigenvalue sum {sum(values)!r} vs trace {trace!r}", {}
    if out_dir is not None:
        rows = list(csv.reader(io.StringIO((Path(out_dir) / "occupation.csv").read_text())))
        densities = [float(d) for _mode, d in rows[1:]]
        if len(densities) != n_modes or not all(-1e-9 <= d <= 1 + 1e-9 for d in densities):
            return False, f"occupation profile out of range: {densities}", {}
    return True, "", {"e0_error": worst}


def evaluate_dense(polynomial, matrices: dict, dim: int) -> np.ndarray:
    """Sum of coefficient times the dense product of each word's matrices.

    ``matrices[(particle, mode, j)]`` is the dense annihilation operator; a
    daggered symbol uses its conjugate transpose.
    """
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, word in polynomial.terms:
        product = np.eye(dim, dtype=complex)
        for sym in word:
            if sym.kind != "std":
                raise ValueError(f"unexpected symbol kind {sym.kind!r}")
            base = matrices[(sym.particle, sym.mode, sym.j)]
            product = product @ (base.conj().T if sym.dagger else base)
        total += coeff * product
    return total


def check_decomposition(polynomial, observable: np.ndarray, matrices: dict):
    """Re-evaluate the polynomial with dense products and compare to the input."""
    try:
        evaluated = evaluate_dense(polynomial, matrices, observable.shape[0])
    except (KeyError, ValueError) as exc:
        return False, f"cannot evaluate the polynomial: {exc!r}", {}
    residual = float(np.abs(evaluated - observable).max())
    if residual > DECOMPOSE_TOLERANCE:
        return False, f"dense re-evaluation residual {residual:.3e}", {"residual": residual}
    return True, "", {"residual": residual}


def check_verify(model_name: str, exit_code, stdout: str):
    """Exit code 2 fails; Fibonacci must pass; 0 and 1 print a ``result:`` line."""
    if exit_code not in (0, 1):
        return False, f"exit code {exit_code}", {}
    if model_name == "fibonacci" and exit_code != 0:
        return False, "a Fibonacci suite failed", {}
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("result: "):
        return False, "no result line", {}
    return True, "", {}


def check_ladder(exit_code, stdout: str, out_dir):
    """One table file per particle and one triplet file per (mode, operator)."""
    if exit_code != 0:
        return False, f"exit code {exit_code}", {}
    particles = _PARTICLE_LINE.findall(stdout)
    if not particles:
        return False, "no particle lines", {}
    expected = sum(1 + int(j) * int(n) for _p, j, n in particles)
    written = [line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")]
    files = sorted(p.name for p in Path(out_dir).iterdir())
    if len(written) != expected or len(files) != expected:
        return False, f"expected {expected} files, wrote {len(written)}, found {len(files)}", {}
    if any(Path(path).stat().st_size == 0 for path in written):
        return False, "empty output file", {}
    return True, "", {}
