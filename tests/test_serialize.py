import re

import numpy as np
import pytest

import oracles as orc
from anyonladder.basis import FusionTreeBasis, SparseOperator
from anyonladder.hubbard import HubbardParams, diagonalize, hubbard_hamiltonian
from anyonladder.ladder import fibonacci_pair, ladder_set
from anyonladder.model import builtin
from anyonladder.polynomial import GeneratorSymbol, LadderPolynomial
from anyonladder.serialize import (
    dump_operator,
    dump_polynomial,
    dump_tables,
    load_operator,
    load_polynomial,
    load_tables,
    write_occupation_csv,
    write_spectrum_csv,
)


def test_operator_round_trip(fib):
    pair = fibonacci_pair(fib, 3)
    op = (pair.alpha[2].dagger() @ pair.beta[1]).drop()
    text = dump_operator(op, name="test-op")
    back = load_operator(text, fib)
    assert (back - op).norm_max() < 1e-15
    assert "# name: test-op" in text
    assert text == dump_operator(op, name="test-op")  # deterministic


def test_operator_header_validation(fib, ising):
    pair = fibonacci_pair(fib, 2)
    text = dump_operator(pair.alpha[1])
    with pytest.raises(ValueError, match="model"):
        load_operator(text, ising)
    with pytest.raises(ValueError):
        load_operator("not a dump", fib)
    # corrupt a data row
    lines = text.splitlines()
    data_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[data_at] = "0 1 2"  # three fields instead of four
    with pytest.raises(ValueError, match="row col re im"):
        load_operator("\n".join(lines), fib)
    lines = text.splitlines()
    lines[data_at] = "99999 0 1.0 0.0"
    with pytest.raises(ValueError):
        load_operator("\n".join(lines), fib)


def test_tables_round_trip(fib, ising):
    for model, particle in ((fib, "tau"), (ising, "sigma")):
        text = dump_tables(model, particle)
        tables = load_tables(text)
        want = ladder_set(model, 2, particle).tables
        assert len(tables) == len(want)
        for got, ref in zip(tables, want):
            assert got.j == ref.j
            assert got.particle == ref.particle
            for key, value in ref.entries.items():
                assert np.isclose(got.entries[key], value)
        assert text == dump_tables(model, particle)


def test_polynomial_round_trip():
    sym = GeneratorSymbol(1, "std", "tau", 0, False)
    poly = (0.5 - 0.25j) * (
        LadderPolynomial.generator(sym) @ LadderPolynomial.generator(sym.adjoint())
    ) + LadderPolynomial.constant(1.5)
    text = dump_polynomial(poly)
    back = load_polynomial(text)
    assert back.signature() == poly.signature()
    assert text == dump_polynomial(back)


def test_spectrum_csv_layout():
    _, h = hubbard_hamiltonian(1, HubbardParams(t=0.5, mu=0.2))
    spectra = [diagonalize(h, g, want_vector=False) for g in ("e", "tau")]
    text = write_spectrum_csv(spectra)
    lines = text.strip().splitlines()
    assert lines[0] == "sector,index,eigenvalue"
    total = sum(len(s.eigenvalues) for s in spectra)
    assert len(lines) == 1 + total
    sectors = {line.split(",")[0] for line in lines[1:]}
    assert sectors == {"e", "tau"}
    # eigenvalues parse back to the originals in order
    for g, spectrum in zip(("e", "tau"), spectra):
        values = [
            float(line.split(",")[2])
            for line in lines[1:]
            if line.split(",")[0] == g
        ]
        assert np.allclose(values, np.sort(spectrum.eigenvalues), atol=1e-12)


def test_occupation_csv_layout():
    densities = np.array([0.25, 0.5])
    text = write_occupation_csv(densities)
    lines = text.strip().splitlines()
    assert lines[0] == "mode,density"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    assert np.isclose(float(lines[1].split(",")[1]), 0.25)


def _assert_triplets_match_per_line_formatting(operator):
    text = dump_operator(operator, name="x")
    header = "".join(line + "\n" for line in text.splitlines() if line.startswith("#"))
    assert text == header + orc.dump_triplets(operator)


def test_operator_triplets_match_per_line_formatting(fib):
    """The one-pass triplet formatting prints what one f-string per entry
    prints: signed zeros, subnormal, huge and unsorted entries included."""
    basis = FusionTreeBasis(fib, 3)
    values = [complex(-0.0, 1.0), complex(2.5, -0.0), 5e-324, complex(1e300, -1 / 3), 0.1]
    op = SparseOperator.from_entries(basis, basis, ([4, 0, 0, 12, 7], [1, 3, 0, 12, 2], values))
    pair = fibonacci_pair(fib, 3)
    for operator in (op, pair.alpha[2], SparseOperator.zero(basis)):
        _assert_triplets_match_per_line_formatting(operator)


@pytest.mark.parametrize(
    "case", ["untidy-0", "untidy-1", "untidy-2", "untidy-3", "sector-columns", "signed-zeros"]
)
def test_operator_triplets_match_per_line_formatting_on_untidy_and_sector_operators(fib, case):
    """Repeated positions, stored zeros and unsorted columns of an untidy CSR
    (with -0.0 parts), a sector operator with fewer columns than rows, and
    stored 0.0 and -0.0 parts beside values and their negatives."""
    if case.startswith("untidy-"):
        operator = orc.untidy_operator(FusionTreeBasis(fib, 4), np.random.default_rng(int(case[7:])))
        assert not operator.matrix.has_sorted_indices
    elif case == "sector-columns":
        operator = fibonacci_pair(fib, 4, "tau").alpha[1]
        assert operator.matrix.shape == (34, 21)
    else:
        basis = FusionTreeBasis(fib, 3)
        values = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 0.7, -0.7, complex(0.7, -0.7)]
        operator = SparseOperator.from_entries(basis, basis, (range(7), [3, 1, 4, 1, 5, 9, 2], values))
        assert operator.nnz == len(values)
    _assert_triplets_match_per_line_formatting(operator)


def test_operator_triplets_of_alternating_sizes_match_per_line_formatting(fib):
    """Operators of more sizes than the writer keeps index tables for, dumped
    in alternation and each twice, and a sector operator whose column count
    (89) is a square operator's size: each prints its own indices."""
    sector = fibonacci_pair(fib, 6, "e").alpha[2]
    assert sector.matrix.shape == (233, 89)
    square = {n: fibonacci_pair(fib, n).alpha[1] for n in range(1, 7)}
    order = [1, 6, 2, "sector", 5, 3, 4, 6, "sector", 1, 5, 2, 4, 3]
    for key in order:
        _assert_triplets_match_per_line_formatting(sector if key == "sector" else square[key])


@pytest.mark.parametrize("name, modes", [("fibonacci", 8), ("ising", 6), ("fermion", 10)])
def test_pinned_ladder_exports_match_per_line_formatting(name, modes):
    """Every operator that ``ladder --out`` writes for the pinned exports."""
    model = builtin(name)
    for particle in (lab for i, lab in enumerate(model.labels) if i != model.vacuum):
        for op in ladder_set(model, modes, particle).ops.values():
            _assert_triplets_match_per_line_formatting(op)


@pytest.mark.parametrize("row", ["0.5 0 1 0", "0 x 1 0", "0 0 one 0", "0 0 1 i"])
def test_operator_loader_names_the_line_of_a_bad_number(fib, row):
    text = "# n_modes: 2\n\n" + row + "\n"
    with pytest.raises(ValueError, match="^line 3: .*" + re.escape(repr(row))):
        load_operator(text, fib)


def test_operator_loader_names_a_bad_header(fib):
    text = dump_operator(fibonacci_pair(fib, 3).alpha[1])
    assert "# n_modes: 3\n" in text and "# dim: 13 13\n" in text
    with pytest.raises(ValueError, match="'# n_modes:' header .*'two'"):
        load_operator(text.replace("# n_modes: 3", "# n_modes: two"), fib)
    with pytest.raises(ValueError, match="'# dim:' header .*'5'"):
        load_operator(text.replace("# dim: 13 13", "# dim: 5"), fib)
    rectangular = dump_operator(fibonacci_pair(fib, 4, "tau").alpha[1])
    assert "# dim: 34 21\n" in rectangular
    with pytest.raises(ValueError, match="not square: only square operators"):
        load_operator(rectangular, fib)


def test_loaded_operator_is_canonical_csr_whatever_the_line_order(fib):
    """Shuffled triplet lines and exact-zero triplets load to the CSR bytes
    that a ``dok_matrix`` filled entry by entry (which stores no zero) gives
    for the lines in the written, sorted order."""
    from scipy import sparse

    pair = fibonacci_pair(fib, 3)
    op = (pair.alpha[2].dagger() @ pair.beta[1] + 0.5j * pair.alpha[3]).drop()
    header, rows = [], []
    for line in dump_operator(op).splitlines():
        (header if line.startswith("#") else rows).append(line)
    rows += ["5 7 0 0", "2 11 -0.0 0.0"]  # exact zeros, at unstored positions
    want = sparse.dok_matrix(op.matrix.shape, dtype=complex)
    for line in sorted(rows, key=lambda line: tuple(map(int, line.split()[:2]))):
        r, c, re, im = line.split()
        want[int(r), int(c)] = complex(float(re), float(im))
    want = SparseOperator(op.row_basis, op.col_basis, want.tocsr())
    assert orc.csr_bytes(want) == orc.csr_bytes(op)
    rng = np.random.default_rng(3)
    for order in (rng.permutation(len(rows)), range(len(rows) - 1, -1, -1)):
        text = "\n".join(header + [rows[i] for i in order]) + "\n"
        assert orc.csr_bytes(load_operator(text, fib)) == orc.csr_bytes(want)
