import ctypes
import functools
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import anyonladder
import oracles as orc
from anyonladder import hubbard
from anyonladder.basis import FusionTreeBasis, SparseOperator, total_charge_projector
from anyonladder.hubbard import (
    INDEXINGS,
    HubbardParams,
    build_hamiltonian,
    build_lattice,
    diagonalize,
    hamiltonian_polynomial,
    hubbard_hamiltonian,
    occupation_profile,
)
from anyonladder.ladder import _shared_pair, fibonacci_pair, resolver
from anyonladder.model import builtin


def test_lattice_edges_geometric():
    assert build_lattice(1).edge_pairs() == {(1, 2)}
    spec2 = build_lattice(2)
    assert spec2.n_modes == 4
    assert spec2.edge_pairs() == {(1, 2), (2, 3), (3, 4), (1, 4)}
    spec3 = build_lattice(3)
    assert spec3.edge_pairs() == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)}


def test_lattice_edges_paper_indexing():
    assert build_lattice(1, "paper").edge_pairs() == {(1, 2)}
    assert build_lattice(2, "paper").edge_pairs() == {(1, 2), (2, 3), (3, 4), (1, 3)}
    assert build_lattice(3, "paper").edge_pairs() == {
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (2, 4),
    }


def test_snake_ordering_map():
    spec = build_lattice(3)
    order = spec.ordering()
    assert order[(0, 0)] == 1 and order[(0, 2)] == 3
    assert order[(1, 2)] == 4 and order[(1, 0)] == 6


def test_neighbor_counts():
    assert set(build_lattice(2).neighbor_counts().values()) == {2}  # 4-cycle
    for n in (3, 4, 5):
        counts = set(build_lattice(n).neighbor_counts().values())
        assert counts == {2, 3}
    paper = build_lattice(3, "paper").neighbor_counts()
    assert set(paper.values()) == {1, 2, 3}  # corner sites are degree-1/degree-3


def test_lattice_validation():
    with pytest.raises(ValueError, match="at least one rung"):
        build_lattice(0)
    with pytest.raises(ValueError):
        build_lattice(2, "diagonal-ish")


def test_params_validation():
    with pytest.raises(ValueError):
        HubbardParams(t=float("nan"), mu=0.0)
    with pytest.raises(ValueError):
        HubbardParams(t=1.0, mu=0.0, indexing="bogus")
    with pytest.raises(ValueError, match="even number of modes"):
        build_hamiltonian(HubbardParams(1.0, 0.0), _shared_pair(builtin("fibonacci"), 3))


def test_hamiltonian_invariants():
    spec, h = hubbard_hamiltonian(2, HubbardParams(t=0.7, mu=0.3))
    assert (h + (-1.0) * h.dagger()).norm_max() == 0.0
    assert h.is_charge_diagonal()
    basis = h.row_basis
    model = basis.model
    for g in model.labels:
        p = total_charge_projector(model, spec.n_modes, g)
        assert (h @ p - p @ h).norm_max() == 0.0


def test_polynomial_route_matches_direct():
    params = HubbardParams(t=1.1, mu=-0.4)
    model = builtin("fibonacci")
    direct = build_hamiltonian(params, fibonacci_pair(model, 4))
    poly = hamiltonian_polynomial(2, params)
    resolved = poly.evaluate_with_identity(
        resolver(model, 4), SparseOperator.identity(FusionTreeBasis(model, 4))
    )
    assert (direct - resolved).norm_max() < 1e-12


@pytest.mark.parametrize("indexing", INDEXINGS)
@pytest.mark.parametrize("n_rungs", [1, 2, 3])
def test_hamiltonian_polynomial_words_match_recursive_evaluation(n_rungs, indexing):
    poly = hamiltonian_polynomial(n_rungs, HubbardParams(t=1.1, mu=-0.4, indexing=indexing))
    model = builtin("fibonacci")
    resolve = resolver(model, 2 * n_rungs)
    identity = SparseOperator.identity(FusionTreeBasis(model, 2 * n_rungs))
    batched, recursive = {}, {}
    got = poly.evaluate_with_identity(resolve, identity, cache=batched)
    want = orc.evaluate_recursively(poly, resolve, recursive, identity)
    assert batched.keys() == recursive.keys()
    assert all(
        orc.csr_bytes(orc.cached_word(batched, w)) == orc.csr_bytes(recursive[w]) for w in recursive
    )
    assert orc.csr_bytes(got) == orc.csr_bytes(want)


def test_zero_hopping_is_diagonal_occupation_count():
    spec, h = hubbard_hamiltonian(2, HubbardParams(t=0.0, mu=1.0))
    dense = h.to_dense()
    off = dense - np.diag(np.diag(dense))
    assert np.abs(off).max() == 0.0
    eigs = np.real(np.diag(dense))
    histogram = {}
    for value in np.round(-eigs).astype(int):
        histogram[value] = histogram.get(value, 0) + 1
    assert histogram == orc.occupation_multiset(h.row_basis.model, 4)


def test_chemical_potential_ground_energy():
    for n_rungs in (1, 2):
        mu = 0.8
        spec, h = hubbard_hamiltonian(n_rungs, HubbardParams(t=0.0, mu=mu))
        best = min(
            diagonalize(h, g, want_vector=False).eigenvalues.min()
            for g in h.row_basis.model.labels
        )
        assert np.isclose(best, -mu * 2 * n_rungs, atol=1e-12)


def test_single_rung_reference_spectrum():
    # t = 0, mu = 1 on one rung: energies are minus the occupation numbers
    _, h = hubbard_hamiltonian(1, HubbardParams(t=0.0, mu=1.0))
    model = h.row_basis.model
    values = np.sort(
        np.concatenate(
            [diagonalize(h, g, want_vector=False).eigenvalues for g in model.labels]
        )
    )
    assert np.allclose(values, [-2.0, -2.0, -1.0, -1.0, 0.0], atol=1e-12)


def test_single_rung_hopping_symmetry():
    # mu = 0: the tau-sector spectrum of the pure hopping term is symmetric
    _, h = hubbard_hamiltonian(1, HubbardParams(t=1.0, mu=0.0))
    eigs = diagonalize(h, "tau", want_vector=False).eigenvalues
    assert np.allclose(np.sort(eigs), np.sort(-eigs[::-1]), atol=1e-12)


def test_sector_dimensions_match_path_counting():
    for n_rungs, dims in ((2, (13, 21)), (3, (89, 144))):
        _, h = hubbard_hamiltonian(n_rungs, HubbardParams(t=1.0, mu=0.5))
        model = h.row_basis.model
        counts = orc.path_counts(model, 2 * n_rungs)
        for g, want in zip(model.labels, dims):
            spectrum = diagonalize(h, g, want_vector=False)
            assert spectrum.block_dim == want
            assert want == counts[model.index(g)]


def test_dense_and_iterative_agree():
    _, h = hubbard_hamiltonian(3, HubbardParams(t=0.9, mu=0.2))
    dense = diagonalize(h, "tau", method="dense")
    iterative = diagonalize(h, "tau", method="iterative")
    assert dense.method == "dense" and iterative.method == "iterative"
    k = len(iterative.eigenvalues)
    assert np.allclose(
        np.sort(dense.eigenvalues)[:k], np.sort(iterative.eigenvalues), atol=1e-10
    )
    assert np.isclose(dense.ground_energy, iterative.ground_energy, atol=1e-10)


def test_ground_state_is_eigenvector():
    _, h = hubbard_hamiltonian(2, HubbardParams(t=1.0, mu=0.5))
    spectrum = diagonalize(h, "e")
    vec = spectrum.ground_state
    assert vec is not None
    hv = h.apply(vec)
    assert np.abs(hv - spectrum.ground_energy * vec).max() < 1e-10


def test_diagonalize_validation():
    _, h = hubbard_hamiltonian(1, HubbardParams(t=1.0, mu=0.0))
    with pytest.raises(ValueError):
        diagonalize(h, "sigma")  # not a label of the model
    for index in (5, -1, np.int64(2)):  # only 0 and 1 index a Fibonacci label
        with pytest.raises(ValueError, match="out of range.*e, tau"):
            diagonalize(h, index)
    from anyonladder.basis import SparseOperator

    basis = h.row_basis
    bad = SparseOperator.from_entries(basis, basis, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        diagonalize(bad, "e")


def test_diagonalize_refuses_a_non_finite_entry():
    """An infinite entry would pass the Hermiticity check as NaN and solve to
    NaN eigenvalues, and a NaN entry would reach LAPACK; both are refused
    first, naming the entry."""
    _, h = hubbard_hamiltonian(2, HubbardParams(t=1.0, mu=0.5))
    for value in (np.inf, np.nan, complex(0.0, -np.inf)):
        mat = h.matrix.copy()
        mat.data[3] = value
        row = int(np.searchsorted(mat.indptr, 3, side="right")) - 1
        bad = SparseOperator(h.row_basis, h.col_basis, mat)
        for sector in ("e", "tau"):
            with pytest.raises(ValueError, match=rf"non-finite value .* at entry \({row}, "):
                diagonalize(bad, sector)


def test_hubbard_cli_refuses_an_overflowing_hamiltonian(capsys):
    """``--t 1e308 --mu 1e308`` overflows H; the CLI names the non-finite
    entry and exits 2, not with LAPACK's convergence error."""
    from anyonladder.cli import main

    assert main(["hubbard", "--rungs", "2", "--t", "1e308", "--mu", "1e308"]) == 2
    assert "error: non-finite value" in capsys.readouterr().err


def _restricted(op, g, rows=True):
    """``op`` with its columns, and its rows unless ``rows`` is false, cut to sector ``g``."""
    model = op.row_basis.model
    sector = FusionTreeBasis(model, op.row_basis.n_modes, sector=g)
    idx = np.flatnonzero(op.col_basis.totals() == model.charge(g))
    if rows:
        return SparseOperator(sector, sector, op.matrix[idx][:, idx])
    return SparseOperator(op.row_basis, sector, op.matrix[:, idx])


def test_diagonalize_refuses_another_sector_of_a_restricted_operator():
    _, h = hubbard_hamiltonian(2, HubbardParams(t=1.0, mu=0.5))
    h_e = _restricted(h, "e")
    assert diagonalize(h_e, "e").eigenvalues.tobytes() == diagonalize(h, "e").eigenvalues.tobytes()
    for other in ("tau", 1):
        with pytest.raises(ValueError, match="restricted to sector e") as info:
            diagonalize(h_e, other)
        assert "empty" not in str(info.value)


@pytest.mark.parametrize("indexing", INDEXINGS)
def test_sector_hamiltonian_is_the_full_one_sliced_byte_for_byte(indexing):
    params = HubbardParams(t=0.7, mu=-0.3, indexing=indexing)
    for n_rungs in range(1, 6):
        _, full = hubbard_hamiltonian(n_rungs, params)
        for g in ("e", "tau"):
            _, h = hubbard_hamiltonian(n_rungs, params, sector=g)
            assert h.row_basis is h.col_basis and h.row_basis.sector == full.row_basis.model.charge(g)
            assert orc.csr_bytes(h) == orc.csr_bytes(_restricted(full, g)), (n_rungs, g)


def test_sector_pair_is_the_full_pair_on_sector_columns_byte_for_byte():
    model = builtin("fibonacci")
    for n in range(1, 11):
        full = _shared_pair(model, n)
        for g in ("e", "tau"):
            pair = _shared_pair(model, n, g)
            assert pair is _shared_pair(model, n, model.charge(g))
            for family, reference in ((pair.alpha, full.alpha), (pair.beta, full.beta)):
                assert sorted(family) == list(range(1, n + 1))
                for k, op in family.items():
                    assert op.row_basis.sector is None and op.col_basis.sector == model.charge(g)
                    want = orc.csr_bytes(_restricted(reference[k], g, rows=False))
                    assert orc.csr_bytes(op) == want, (n, g, k)


def test_sector_hamiltonian_solves_to_the_same_eigenvalue_bits():
    params = HubbardParams(0.8, 0.4)
    _, full = hubbard_hamiltonian(4, params)
    for g in ("e", "tau"):
        _, h = hubbard_hamiltonian(4, params, sector=g)
        for method in ("iterative", "dense"):
            want = diagonalize(full, g, method=method, want_vector=False)
            got = diagonalize(h, g, method=method, want_vector=False)
            assert (got.method, got.block_dim) == (want.method, want.block_dim)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), (g, method)


def test_iterative_solves_of_one_block_give_the_same_bits():
    """The iterative solve starts from a fixed vector, so repeating it
    repeats every eigenvalue bit and the ground vector."""
    _, h = hubbard_hamiltonian(4, HubbardParams(t=1.0, mu=0.5), sector="tau")
    first, second = (diagonalize(h, "tau", method="iterative") for _ in range(2))
    assert first.method == "iterative"
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.ground_state.tobytes() == second.ground_state.tobytes()


def test_sector_ground_state_lives_in_the_operator_basis():
    params = HubbardParams(t=1.0, mu=0.5)
    _, full = hubbard_hamiltonian(3, params)
    _, h = hubbard_hamiltonian(3, params, sector="e")
    want = diagonalize(full, "e", method="dense")
    got = diagonalize(h, "e", method="dense")
    idx = np.flatnonzero(full.row_basis.totals() == 0)
    assert got.ground_state.shape == (len(idx),) == (h.row_basis.dim,)
    assert got.ground_state.tobytes() == want.ground_state[idx].tobytes()
    model = h.row_basis.model
    profile = occupation_profile(got.ground_state, _shared_pair(model, 6, "e"))
    assert profile.tobytes() == occupation_profile(want.ground_state, _shared_pair(model, 6)).tobytes()


@pytest.mark.parametrize("indexing", INDEXINGS)
def test_full_ground_vector_is_the_sector_vector_on_the_sector_rows(indexing):
    """A full H's ground vector in a sector is the sector H's ground vector on
    the sector's rows ``offset .. offset + dim``, byte for byte, and exactly
    zero on every other row.  The iterative solve is checked up to five
    rungs; the dense one up to four, as a five-rung block takes 37 s or more."""
    params = HubbardParams(t=0.8, mu=0.3, indexing=indexing)
    for n_rungs in range(1, 6):
        _, full = hubbard_hamiltonian(n_rungs, params)
        for g in ("e", "tau"):
            _, h = hubbard_hamiltonian(n_rungs, params, sector=g)
            on_sector = np.zeros(full.row_basis.dim, dtype=bool)
            on_sector[h.row_basis.offset:h.row_basis.offset + h.row_basis.dim] = True
            for method in ("iterative", "dense") if n_rungs < 5 else ("iterative",):
                want = diagonalize(h, g, method=method).ground_state
                got = diagonalize(full, g, method=method).ground_state
                assert got[on_sector].tobytes() == want.tobytes(), (n_rungs, g, method)
                assert not np.any(got[~on_sector]), (n_rungs, g, method)


def test_occupation_profile_matches_leaf_occupancy():
    _, h = hubbard_hamiltonian(2, HubbardParams(t=0.0, mu=1.0))
    basis = h.row_basis
    pair = fibonacci_pair(basis.model, 4)
    # pick an arbitrary basis state and compare against its leaf content
    idx = 7
    state = np.zeros(basis.dim, dtype=complex)
    state[idx] = 1.0
    profile = occupation_profile(state, pair)
    st = orc.charge_rows(basis.model, orc.comb_shape(4))[idx]
    leaves = [st[(k, k)] for k in range(4)]
    assert np.allclose(profile, [1.0 if a != 0 else 0.0 for a in leaves], atol=1e-12)


def test_occupation_profile_normalizes_with_warning():
    _, h = hubbard_hamiltonian(1, HubbardParams(t=1.0, mu=0.5))
    basis = h.row_basis
    pair = fibonacci_pair(basis.model, 2)
    state = np.zeros(basis.dim, dtype=complex)
    state[0] = 2.0
    with pytest.warns(UserWarning):
        profile = occupation_profile(state, pair)
    assert profile.min() >= -1e-12
    with pytest.raises(ValueError):
        occupation_profile(np.zeros(basis.dim, dtype=complex), pair)


def test_occupation_profile_refuses_a_non_finite_state():
    """An all-NaN state would give NaN densities without a warning."""
    pair = fibonacci_pair(builtin("fibonacci"), 4, "e")
    with pytest.raises(ValueError, match=r"non-finite value \(nan\+0j\) at entry 0 of the state"):
        occupation_profile(np.full(13, np.nan, dtype=complex), pair)
    state = np.zeros(13, dtype=complex)
    state[0], state[5] = 1.0, complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite value .* at entry 5 of the state"):
        occupation_profile(state, pair)


def test_occupation_profile_names_a_state_of_the_wrong_basis():
    """A full-basis state with a sector pair, and a sector state with the
    full pair, are refused with both lengths named, not by numpy's matmul."""
    model = builtin("fibonacci")
    sector_pair, full_pair = fibonacci_pair(model, 4, "e"), fibonacci_pair(model, 4)
    full_state = np.zeros(34, dtype=complex)
    full_state[0] = 1.0
    with pytest.raises(ValueError, match=r"length 34.* 13; a sector state needs that sector's pair"):
        occupation_profile(full_state, sector_pair)
    with pytest.raises(ValueError, match=r"length 13.* 34; a sector state needs that sector's pair"):
        occupation_profile(full_state[:13], full_pair)
    assert occupation_profile(full_state, full_pair).shape == (4,)


def test_indexing_conventions_same_spectrum_when_edges_coincide():
    # one rung: both conventions give the single edge (1, 2)
    params_pairs = [(0.6, 0.1), (1.0, 0.0), (0.3, -0.7)]
    for t, mu in params_pairs:
        _, hg = hubbard_hamiltonian(1, HubbardParams(t, mu, "geometric"))
        _, hp = hubbard_hamiltonian(1, HubbardParams(t, mu, "paper"))
        for g in ("e", "tau"):
            eg = np.sort(diagonalize(hg, g, want_vector=False).eigenvalues)
            ep = np.sort(diagonalize(hp, g, want_vector=False).eigenvalues)
            assert np.allclose(eg, ep, atol=1e-12)


def test_indexing_conventions_differ_beyond_one_rung():
    # the two rung conventions give different edge sets for N >= 2 and
    # measurably different spectra
    ge = set(build_lattice(2, "geometric").edge_pairs())
    pa = set(build_lattice(2, "paper").edge_pairs())
    assert ge - pa == {(1, 4)} and pa - ge == {(1, 3)}
    _, hg = hubbard_hamiltonian(2, HubbardParams(1.0, 0.5, "geometric"))
    _, hp = hubbard_hamiltonian(2, HubbardParams(1.0, 0.5, "paper"))
    gap = max(
        np.abs(
            np.sort(diagonalize(hg, g, want_vector=False).eigenvalues)
            - np.sort(diagonalize(hp, g, want_vector=False).eigenvalues)
        ).max()
        for g in ("e", "tau")
    )
    assert gap > 0.1


def test_construction_is_deterministic():
    _, h1 = hubbard_hamiltonian(2, HubbardParams(t=0.5, mu=0.25))
    _, h2 = hubbard_hamiltonian(2, HubbardParams(t=0.5, mu=0.25))
    assert (h1 - h2).norm_max() == 0.0


def test_iterative_request_on_tiny_blocks_solves_densely(monkeypatch):
    one = diagonalize(
        SparseOperator.identity(FusionTreeBasis(builtin("fibonacci"), 1)), "e",
        method="iterative",
    )
    assert one.method == "dense" and np.array_equal(one.eigenvalues, [1.0])
    _, h = hubbard_hamiltonian(2, HubbardParams(t=1.0, mu=0.3))  # blocks 13 and 21
    for k_extremal, method in ((12, "dense"), (11, "iterative")):
        monkeypatch.setattr(hubbard, "K_EXTREMAL", k_extremal)
        sp = diagonalize(h, "e", method="iterative")
        assert sp.method == method
        full = diagonalize(h, "e", method="dense").eigenvalues
        assert np.allclose(sp.eigenvalues[:k_extremal], full[:k_extremal], atol=1e-10)
    with pytest.raises(ValueError, match="unknown method"):
        diagonalize(h, "e", method="lanczos")


def test_every_small_sector_matches_dense_eigh():
    for indexing in ("geometric", "paper"):
        for n_rungs in (1, 2, 3):
            _, h = hubbard_hamiltonian(n_rungs, HubbardParams(0.9, 0.35, indexing))
            dense = h.to_dense()
            for g in range(h.row_basis.model.n_labels):
                idx = np.flatnonzero(h.row_basis.totals() == g)
                block = dense[np.ix_(idx, idx)]
                want = np.linalg.eigh((block + block.conj().T) / 2.0)[0]
                got = diagonalize(h, g, want_vector=False).eigenvalues
                assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_rungs4_iterative_and_dense_ground_energy_agree():
    _, h = hubbard_hamiltonian(4, HubbardParams(t=1.0, mu=0.5))
    dense = diagonalize(h, "tau", method="dense", want_vector=False)
    iterative = diagonalize(h, "tau", method="iterative", want_vector=False)
    assert dense.block_dim == iterative.block_dim == 987
    assert iterative.method == "iterative"
    assert abs(dense.ground_energy - iterative.ground_energy) < 1e-10


def test_diagonalize_never_densifies_the_full_operator(monkeypatch):
    _, h = hubbard_hamiltonian(3, HubbardParams(t=1.0, mu=0.5))
    full_shape = h.matrix.shape
    toarray = type(h.matrix).toarray

    def guarded(self, *args, **kwargs):
        assert self.shape != full_shape, "dense copy of the full operator"
        return toarray(self, *args, **kwargs)

    def refuse(self):
        raise AssertionError("diagonalize called to_dense")

    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    monkeypatch.setattr(type(h.matrix), "toarray", guarded)
    for g in ("e", "tau"):
        for method in ("dense", "iterative"):
            sp = diagonalize(h, g, method=method)
            assert sp.method == method and sp.block_dim in (89, 144)


def test_rungs5_sector_e_ground_energy():
    """The largest lattice the benchmark solves, on the only ``eigsh`` path."""
    _, h = hubbard_hamiltonian(5, HubbardParams(t=1.0, mu=0.5, indexing="geometric"))
    spectrum = diagonalize(h, "e", want_vector=False)
    assert spectrum.method == "iterative"
    assert abs(spectrum.ground_energy - (-9.7006651521)) < 1e-9


def _run_on_blas_threads(threads: int, *args: str) -> str:
    """stdout of ``python *args`` run with the BLAS on ``threads`` threads."""
    paths = [Path(anyonladder.__file__).parents[1], Path(__file__).parent]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(
            filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")])
        ),
    }
    run = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _eigh_oracle_mismatches() -> list[str]:
    """Blocks whose dense-solve eigenvalue or ground-vector bytes differ
    from ``np.linalg.eigh``'s.  The solve takes a sparse block, as
    ``diagonalize`` passes it; dense test matrices go in as CSR."""
    blocks = []
    for indexing in INDEXINGS:
        for n_rungs in (1, 2, 3, 4):
            _, h = hubbard_hamiltonian(n_rungs, HubbardParams(0.9, 0.35, indexing))
            for g in range(h.row_basis.model.n_labels):
                idx = np.flatnonzero(h.row_basis.totals() == g)
                block = h.matrix[idx][:, idx]
                block = (block + block.conj().T) / 2.0
                blocks.append((f"{indexing} rungs {n_rungs} sector {g}", block))
    rng = np.random.default_rng(2024)
    for n in [*range(1, 81), 129, 257]:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append((f"random {n}", (m + m.conj().T) / 2.0))
    m = np.round(2 * rng.normal(size=(16, 16))) + 1j * np.round(2 * rng.normal(size=(16, 16)))
    blocks.append(("integer, every eigenvalue threefold", np.kron(np.eye(3), m + m.conj().T)))
    bad = []
    for name, block in blocks:
        block = sp.csr_matrix(block)
        want_vals, want_vecs = np.linalg.eigh(block.toarray())
        vals, ground = hubbard._dense_solve(block, want_vector=True)
        if vals.tobytes() != want_vals.tobytes():
            bad.append(f"{name}: eigenvalues")
        if ground.tobytes() != want_vecs[:, 0].tobytes():
            bad.append(f"{name}: ground vector")
    return bad


def test_dense_solve_has_the_bits_of_eigh():
    """numpy's ``eigh`` back-transforms every eigenvector, and a
    multi-threaded BLAS rounds column 0 of that product differently from the
    one-column product of the dense solve, so both run on one thread, as
    ``diagonalize`` runs the dense solve."""
    out = _run_on_blas_threads(
        1, "-c", "import test_hubbard as t; print(t._eigh_oracle_mismatches())"
    )
    assert out.strip() == "[]"


def test_hubbard_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``hubbard --out`` at rungs 4 (dense solves) and 5 (``eigsh``) writes
    the same bytes with the BLAS on one thread and on two."""
    script = (
        "import sys; from anyonladder.cli import main; "
        "sys.exit(max(main(['hubbard', '--rungs', n, '--out', sys.argv[1] + '/' + n]) "
        "for n in ('4', '5')))"
    )
    files = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        _run_on_blas_threads(threads, "-c", script, str(out))
        files.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.csv")})
    assert len(files[0]) == 4 and files[0] == files[1]


@pytest.mark.parametrize("indexing", INDEXINGS)
def test_dense_solve_holds_one_dense_copy_of_the_block(indexing):
    """The traced peak of a dense sector solve stays near two dense copies of
    the block: the copy zhetrd reduces in place, plus dstevd's eigenvectors
    and workspace (half a copy each)."""
    _, h = hubbard_hamiltonian(4, HubbardParams(0.9, 0.35, indexing))  # blocks 610 and 987
    for g in ("e", "tau"):
        tracemalloc.start()
        try:
            spectrum = diagonalize(h, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.method == "dense"
        copies = peak / (16 * spectrum.block_dim**2)
        assert copies <= 2.25, (g, copies)


def test_dense_solve_falls_back_to_eigh_on_a_fresh_copy(monkeypatch):
    """A tridiagonal matrix outside the unscaled range sends the block to
    ``eigh`` after zhetrd has overwritten the first dense copy; the result
    is still ``eigh`` of the original block, bit for bit."""
    _, h = hubbard_hamiltonian(3, HubbardParams(0.9, 0.35))
    idx = np.flatnonzero(h.row_basis.totals() == 1)
    block = h.matrix[idx][:, idx]
    block = (block + block.conj().T) / 2.0
    unscaled, checked = hubbard._unscaled, []

    def tridiagonal_out_of_range(x):
        checked.append(x.ndim)
        return unscaled(x) if x.ndim == 2 else False

    monkeypatch.setattr(hubbard, "_unscaled", tridiagonal_out_of_range)
    vals, ground = hubbard._dense_solve(block, want_vector=True)
    assert checked == [2, 1]  # the block passed, so zhetrd ran before the fallback
    want_vals, want_vecs = np.linalg.eigh(block.toarray())
    assert vals.tobytes() == want_vals.tobytes()
    assert ground.tobytes() == want_vecs[:, 0].tobytes()


def _patch_lapack(monkeypatch, name, replace):
    """Route every ``_lapack`` call of routine ``name`` through
    ``replace(call, *pointers)``, where ``call`` is the real routine."""
    routine = hubbard._lapack_routine

    def patched(called):
        call = routine(called)
        if called != name:
            return call
        wrapper = functools.partial(replace, call)
        wrapper.argtypes = call.argtypes
        return wrapper

    monkeypatch.setattr(hubbard, "_lapack_routine", patched)


def _fail_on(dim):
    """A replacement that runs the routine, then reports INFO = 3 on a block
    of dimension ``dim`` (the routine's N, its second argument)."""

    def replace(call, *pointers):
        call(*pointers)
        if ctypes.c_int.from_address(pointers[1]).value == dim:
            ctypes.c_int.from_address(pointers[-1]).value = 3

    return replace


def test_dense_solve_without_vector_skips_the_back_transform(monkeypatch):
    _, h = hubbard_hamiltonian(3, HubbardParams(0.9, 0.35))  # blocks 89 and 144
    with_vector = [diagonalize(h, g) for g in ("e", "tau")]

    def refuse(*args, **kwargs):
        raise AssertionError("back-transform without a vector request")

    _patch_lapack(monkeypatch, "zunmqr", refuse)
    for want in with_vector:
        got = diagonalize(h, want.sector, want_vector=False)
        assert got.ground_state is None
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    with pytest.raises(AssertionError, match="back-transform"):
        diagonalize(h, "tau")  # the patch reaches the routine the solve calls


def test_dense_solve_raises_on_a_lapack_failure(monkeypatch):
    _, h = hubbard_hamiltonian(3, HubbardParams(0.9, 0.35))
    _patch_lapack(monkeypatch, "dstevd", _fail_on(144))  # the tau block
    with pytest.raises(np.linalg.LinAlgError, match="dstevd"):
        diagonalize(h, "tau")


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_thread_starts(monkeypatch) -> list:
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("cpus", [1, 2])
def test_sectors_solved_side_by_side_have_the_bits_of_one_sector_solves(monkeypatch, cpus):
    """``_spectra`` gives every sector's ``diagonalize`` result bit for bit,
    on one usable CPU (no thread) and on two (the e block on a worker)."""
    _usable_cpus(monkeypatch, cpus)
    started = _count_thread_starts(monkeypatch)
    for indexing in INDEXINGS:
        for n_rungs in (1, 2, 3, 4):
            _, h = hubbard_hamiltonian(n_rungs, HubbardParams(0.9, 0.35, indexing))
            labels = h.row_basis.model.labels
            alone = [diagonalize(h, g) for g in labels]
            assert started == []  # one sector starts no thread
            together = list(hubbard._spectra(h, labels))
            assert len(started) == (cpus > 1)
            started.clear()
            for want, got in zip(alone, together, strict=True):
                assert (got.sector, got.block_dim, got.method) == (want.sector, want.block_dim, "dense")
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert got.ground_state.tobytes() == want.ground_state.tobytes()
    together = list(hubbard._spectra(h, labels, method="iterative", want_vector=False))
    assert started == [] and [sp.method for sp in together] == ["iterative"] * 2


def test_one_blas_thread_is_a_counted_pin():
    """Two threads inside ``_one_blas_thread`` at once both run on one BLAS
    thread, and the old count comes back only after both have left."""
    calls = hubbard._openblas_threads()
    assert calls, "no OpenBLAS found"

    def counts():
        return [get() for get, _put in calls]

    old = counts()
    for _get, put in calls:
        put(2)
    before = counts()
    both_in, first_out = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)
    seen = {}

    def holder(name):
        with hubbard._one_blas_thread():
            both_in.wait()
            seen[name, "both in"] = counts()
            if name == "stays":
                first_out.wait()
                seen[name, "other left"] = counts()
        if name == "leaves":
            first_out.wait()

    threads = [threading.Thread(target=holder, args=(name,)) for name in ("stays", "leaves")]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {
            ("stays", "both in"): [1] * len(calls),
            ("leaves", "both in"): [1] * len(calls),
            ("stays", "other left"): [1] * len(calls),
        }
        assert counts() == before
    finally:
        for (_get, put), count in zip(calls, old):
            put(count)


@pytest.mark.parametrize("failing, dim", [("e", 89), ("tau", 144)])
def test_a_failed_sector_solve_raises_in_its_turn(monkeypatch, capsys, failing, dim):
    """On two CPUs the e block is solved on a worker and the tau block by the
    caller.  A LAPACK failure in either raises the one-sector solve's
    ``LinAlgError``, and the CLI prints the lines a loop of ``diagonalize``
    calls printed before it: those of the sectors before the failed one."""
    from anyonladder.cli import main

    _usable_cpus(monkeypatch, 2)
    argv = ["hubbard", "--rungs", "3", "--t", "0.9", "--mu", "0.35"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    _, h = hubbard_hamiltonian(3, HubbardParams(0.9, 0.35))
    _patch_lapack(monkeypatch, "dstevd", _fail_on(dim))
    message = "LAPACK dstevd failed with info=3"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        diagonalize(h, failing)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        list(hubbard._spectra(h, ["e", "tau"]))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    turn = next(i for i, line in enumerate(lines) if line.startswith(f"sector {failing}:"))
    assert out.splitlines() == lines[:turn]


@pytest.mark.parametrize(
    "t, mu, spectrum_sha256, occupation_sha256",
    [
        # Largest entry above LAPACK's unscaled range: zheevd rescales.
        (
            "1e200", "0.5",
            "28ccad2b8ae0f53814619a20dd8818ccd6aeacfc9dad9a1a493d415e5e0c4a73",
            "5982692ccb9af5bebb22617ecea1163703eb68d7260882a9a436f9bd5c5d8464",
        ),
        # Below it: zheevd scales the block up.
        (
            "1e-200", "0",
            "9a377a0112ae6a5be3aea8e3097214c0d949942ff19c0105832aa84ec121b974",
            "d26c4495f287c4a5f05b28d04ae20fa9f5a0c6588ef402285e936d6c080886d0",
        ),
    ],
)
def test_hubbard_files_at_extreme_magnitudes_keep_their_bytes(
    tmp_path, t, mu, spectrum_sha256, occupation_sha256
):
    _run_on_blas_threads(
        1, "-m", "anyonladder.cli", "hubbard", "--rungs", "3", "--t", t, "--mu", mu,
        "--out", str(tmp_path),
    )
    for name, want in (("spectrum.csv", spectrum_sha256), ("occupation.csv", occupation_sha256)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
