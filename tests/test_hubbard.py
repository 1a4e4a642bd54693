import numpy as np
import pytest
import scipy.sparse.linalg

import oracles as orc
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
    with pytest.raises(ValueError):
        build_hamiltonian(build_lattice(1), HubbardParams(1.0, 0.0, "paper"))
    with pytest.raises(ValueError, match="indexing"):
        hamiltonian_polynomial(build_lattice(2), HubbardParams(1.0, 0.0, "paper"))


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
    spec = build_lattice(2)
    params = HubbardParams(t=1.1, mu=-0.4)
    from anyonladder.model import builtin
    from anyonladder.basis import SparseOperator

    model = builtin("fibonacci")
    pair = fibonacci_pair(model, spec.n_modes)
    direct = build_hamiltonian(spec, params, model=model, pair=pair)
    poly = hamiltonian_polynomial(spec, params)
    resolved = poly.evaluate_with_identity(
        resolver(model, spec.n_modes), SparseOperator.identity(FusionTreeBasis(model, spec.n_modes))
    )
    assert (direct - resolved).norm_max() < 1e-12


@pytest.mark.parametrize("indexing", INDEXINGS)
@pytest.mark.parametrize("n_rungs", [1, 2, 3])
def test_hamiltonian_polynomial_words_match_recursive_evaluation(n_rungs, indexing):
    spec = build_lattice(n_rungs, indexing)
    poly = hamiltonian_polynomial(spec, HubbardParams(t=1.1, mu=-0.4, indexing=indexing))
    model = builtin("fibonacci")
    resolve = resolver(model, spec.n_modes)
    identity = SparseOperator.identity(FusionTreeBasis(model, spec.n_modes))
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


def _restricted(op, g, rows=True):
    """``op`` with its columns, and its rows unless ``rows`` is false, cut to sector ``g``."""
    model = op.row_basis.model
    sector = FusionTreeBasis(model, op.row_basis.n_modes, sector=g)
    idx = op.col_basis.sector_indices(model.charge(g))
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


def test_sector_hamiltonian_solves_to_the_same_eigenvalue_bits(monkeypatch):
    # ARPACK draws a random start vector; a fixed one makes its result a
    # function of the block alone.
    from anyonladder import hubbard

    def eigsh_from_ones(block, **kwargs):
        return scipy.sparse.linalg.eigsh(block, v0=np.ones(block.shape[0]), **kwargs)

    monkeypatch.setattr(hubbard, "eigsh", eigsh_from_ones)
    params = HubbardParams(0.8, 0.4)
    _, full = hubbard_hamiltonian(4, params)
    for g in ("e", "tau"):
        _, h = hubbard_hamiltonian(4, params, sector=g)
        for method in ("iterative", "dense"):
            want = diagonalize(full, g, method=method, want_vector=False)
            got = diagonalize(h, g, method=method, want_vector=False)
            assert (got.method, got.block_dim) == (want.method, want.block_dim)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), (g, method)


def test_sector_ground_state_lives_in_the_operator_basis():
    params = HubbardParams(t=1.0, mu=0.5)
    _, full = hubbard_hamiltonian(3, params)
    _, h = hubbard_hamiltonian(3, params, sector="e")
    want = diagonalize(full, "e", method="dense")
    got = diagonalize(h, "e", method="dense")
    idx = full.row_basis.sector_indices(0)
    assert got.ground_state.shape == (len(idx),) == (h.row_basis.dim,)
    assert got.ground_state.tobytes() == want.ground_state[idx].tobytes()
    model = h.row_basis.model
    profile = occupation_profile(got.ground_state, _shared_pair(model, 6, "e"))
    assert profile.tobytes() == occupation_profile(want.ground_state, _shared_pair(model, 6)).tobytes()


def test_occupation_profile_matches_leaf_occupancy():
    _, h = hubbard_hamiltonian(2, HubbardParams(t=0.0, mu=1.0))
    basis = h.row_basis
    pair = fibonacci_pair(basis.model, 4)
    # pick an arbitrary basis state and compare against its leaf content
    idx = 7
    state = np.zeros(basis.dim, dtype=complex)
    state[idx] = 1.0
    profile = occupation_profile(state, pair)
    leaves = basis.leaves(basis.states[idx])
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


def test_iterative_request_on_tiny_blocks_solves_densely():
    one = diagonalize(
        SparseOperator.identity(FusionTreeBasis(builtin("fibonacci"), 1)), "e",
        method="iterative",
    )
    assert one.method == "dense" and np.array_equal(one.eigenvalues, [1.0])
    _, h = hubbard_hamiltonian(2, HubbardParams(t=1.0, mu=0.3))  # blocks 13 and 21
    for k_extremal, method in ((12, "dense"), (11, "iterative")):
        sp = diagonalize(h, "e", method="iterative", k_extremal=k_extremal)
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
                idx = h.row_basis.sector_indices(g)
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
