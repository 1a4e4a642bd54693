"""Command-line front end.

Subcommands: ``validate`` (model consistency), ``ladder`` (operator export),
``verify`` (relation/locality/fock/closure suites), ``decompose`` (observable
to ladder polynomial) and ``hubbard`` (lattice Hamiltonian spectra).

Exit codes: 0 success, 1 at least one asserted verification failed,
2 usage or input error.  Output is deterministic: identical inputs produce
byte-identical reports and files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import hubbard as hub
from . import serialize as sz
from .basis import (
    FusionTreeBasis,
    SparseOperator,
    braid_adjacent,
    total_charge_projector,
)
from .fixtures import fixture, fixture_descriptions, fixture_names
from .ladder import _shared_pair, fermion_type, fibonacci_type, j_count, ladder_set
from .model import (
    BUILTIN_MODELS,
    ModelDataError,
    builtin,
    load_model,
    validate_model,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _resolve_model(name_or_path: str):
    """A builtin name or a path to a model JSON file."""
    if name_or_path in BUILTIN_MODELS:
        return builtin(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise FileNotFoundError(
            f"{name_or_path!r} is neither a builtin model "
            f"({', '.join(BUILTIN_MODELS)}) nor an existing file"
        )
    return load_model(path)


def _write(out_dir: str | None, filename: str, text: str, written: list[str]):
    if out_dir is None:
        return
    path = Path(out_dir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    written.append(str(path))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    model = _resolve_model(args.model)
    report = validate_model(model, level=args.level, tolerance=args.tolerance)
    print(report.format_text())
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def cmd_ladder(args) -> int:
    model = _resolve_model(args.model)
    n = args.modes
    particles = (
        [args.particle]
        if args.particle
        else [lab for i, lab in enumerate(model.labels) if i != model.vacuum]
    )
    written: list[str] = []
    for particle in particles:
        ls = ladder_set(model, n, particle)
        print(
            f"particle {particle}: J = {j_count(model, particle)} "
            f"operator(s) x {n} mode(s)"
        )
        _write(args.out, f"tables-{particle}.json", sz.dump_tables(model, particle), written)
        for (k, j), op in sorted(ls.ops.items()):
            name = f"{particle}-a{j}-mode{k}"
            print(f"  alpha({j})_{k}: {op.nnz} nonzero entries")
            _write(args.out, f"{name}.triplets", sz.dump_operator(op, name=name), written)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_NO_PAIR_OR_FERMION = "no Fibonacci pair and no fermion type in this model"


def _verify_relations(model, n: int, tol: float) -> tuple[list[str], bool]:
    lines: list[str] = []
    psi = fermion_type(model)
    if psi is not None:
        ls = ladder_set(model, n, model.labels[psi])
        ops = [ls.op(k, 0) for k in range(1, n + 1)]
        ident = SparseOperator.identity(FusionTreeBasis(model, n))
        worst = 0.0
        for i, fi in enumerate(ops):
            for j, fj in enumerate(ops):
                worst = max(worst, (fi @ fj + fj @ fi).norm_max())
                cross = fi @ fj.dagger() + fj.dagger() @ fi
                if i == j:
                    cross = cross - ident
                worst = max(worst, cross.norm_max())
        ok = worst <= tol
        lines.append(
            f"[{'pass' if ok else 'FAIL'}] canonical anticommutation "
            f"relations: residual={worst:.3e}"
        )
        return lines, ok
    if fibonacci_type(model) is None:
        return [f"[n/a] {_NO_PAIR_OR_FERMION}"], True
    report = alg.verify_relations(model, n, tolerance=tol)
    lines.extend(report.format_text().splitlines())
    return lines, report.passed


def _verify_locality(model, n: int, tol: float) -> tuple[list[str], bool]:
    lines = []
    ok = True
    elems = alg.candidate_local_basis(model, n, mode=1)
    flags = [alg.is_local_candidate(op, (1,), tol=tol)[0] for _meta, op in elems]
    good = all(flags)
    ok &= good
    lines.append(
        f"[{'pass' if good else 'FAIL'}] {sum(flags)}/{len(flags)} mode-1 "
        "elements are candidate-local on {1}"
    )
    for g in model.labels:
        proj = total_charge_projector(model, n, g)
        flag, res = alg.is_local_candidate(proj, (1,), tol=tol)
        ok &= flag
        lines.append(
            f"[{'pass' if flag else 'FAIL'}] total-charge projector P_{g} "
            f"is candidate-local on {{1}}: residual={res:.3e}"
        )
    if n >= 2:
        braid = braid_adjacent(model, n, 1)
        flag, res = alg.is_local_candidate(braid, (1,), tol=tol)
        ok &= not flag
        lines.append(
            f"[{'pass' if not flag else 'FAIL'}] braid(1,2) is not local on "
            f"{{1}}: residual={res:.3e}"
        )
    return lines, ok


def _verify_fock(model, n: int, tol: float) -> tuple[list[str], bool]:
    dim = FusionTreeBasis(model, n).dim
    if fermion_type(model) is None and fibonacci_type(model) is None:
        lines, ok = [f"[n/a] creation words: {_NO_PAIR_OR_FERMION}"], True
    else:
        words = alg.fock_words(model, n)
        target = np.eye(dim)
        worst = max(
            (float(np.abs(alg.apply_word(model, n, *words[i]) - target[i]).max()) for i in words),
            default=0.0,
        )
        ok = len(words) == dim and worst <= tol
        lines = [
            f"[{'pass' if ok else 'FAIL'}] {len(words)}/{dim} states reconstructed "
            f"by creation words: residual={worst:.3e}"
        ]
    kdim = alg.kernel_dimension(model, n)
    kok = kdim == 1
    lines.append(
        f"[{'pass' if kok else 'FAIL'}] joint annihilator kernel dimension = {kdim} (expect 1)"
    )
    return lines, ok and kok


def _verify_closure(model, n: int, tol: float) -> tuple[list[str], bool]:
    """Mode-1 ladder operators with the total-charge projectors must close on
    the candidate-local span of mode 1 (the commutant of the complement
    observables); all ladder operators must close on the full algebra."""
    lines = []
    ok = True
    gens_all = []
    gens_mode1 = [total_charge_projector(model, n, g) for g in model.labels]
    for i, lab in enumerate(model.labels):
        if i == model.vacuum:
            continue
        ls = ladder_set(model, n, lab)
        for (k, j), op in sorted(ls.ops.items()):
            gens_all.append(op)
            if k == 1:
                gens_mode1.append(op)
    res1 = alg.algebra_closure(gens_mode1, tol=tol)
    cand = len(alg.local_candidate_span(model, n, 1)[1])
    good = res1.dimension == cand
    ok &= good
    lines.append(
        f"[{'pass' if good else 'FAIL'}] mode-1 closure with total-charge "
        f"projectors: dimension = {res1.dimension} (candidate-local span = {cand})"
    )
    dim = FusionTreeBasis(model, n).dim
    if dim <= 40:
        res = alg.algebra_closure(gens_all, tol=tol)
        full = dim * dim
        good = res.dimension == full
        ok &= good
        lines.append(
            f"[{'pass' if good else 'FAIL'}] all-modes closure dimension = "
            f"{res.dimension} (full operator algebra = {full})"
        )
    else:
        lines.append(
            f"[info] all-modes closure skipped (dimension {dim} too large)"
        )
    return lines, ok


def cmd_verify(args) -> int:
    model = _resolve_model(args.model)
    suites = (
        ["relations", "locality", "fock", "closure"]
        if args.suite == "all"
        else [args.suite]
    )
    runners = {
        "relations": _verify_relations,
        "locality": _verify_locality,
        "fock": _verify_fock,
        "closure": _verify_closure,
    }
    all_ok = True
    for suite in suites:
        print(f"suite: {suite}")
        lines, ok = runners[suite](model, args.modes, args.tolerance)
        for line in lines:
            print(f"  {line}")
        all_ok &= ok
    print(f"result: {'pass' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    if args.list_fixtures:
        for name, desc in fixture_descriptions().items():
            print(f"{name:14s} {desc}")
        return EXIT_OK
    if (args.op is None) == (args.fixture is None):
        raise ValueError("exactly one of --op or --fixture is required")
    sites = None if args.sites is None else tuple(int(s) for s in args.sites.split(","))
    if args.fixture is not None:
        try:
            op = fixture(args.fixture)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if sites not in (None, (1, 2)):
            raise ValueError("fixtures act on modes 1,2; --sites must be 1,2 or left out")
        sites = (1, 2)
    else:
        model = _resolve_model(args.model)
        op = sz.load_operator(Path(args.op).read_text(), model)
        if sites is None:
            raise ValueError("--sites is required with --op")

    dec = alg.decompose_observable(op, sites, tolerance=args.tolerance)
    print(dec.summary())
    if args.out:
        Path(args.out).write_text(sz.dump_polynomial(dec.polynomial))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hubbard
# ---------------------------------------------------------------------------


def cmd_hubbard(args) -> int:
    model = builtin("fibonacci")
    if args.sector is not None and args.sector not in model.labels:
        raise ValueError(
            f"unknown sector {args.sector!r}; expected one of {', '.join(model.labels)}"
        )
    sectors = [args.sector] if args.sector else list(model.labels)
    params = hub.HubbardParams(args.t, args.mu, args.indexing)
    # Through the module attribute, which the benchmark wraps to capture H.
    spec, h = hub.hubbard_hamiltonian(args.rungs, params, model=model, sector=args.sector)
    print(spec.describe())
    if args.indexing == "geometric":
        print(
            "note: geometric rung indexing couples vertical neighbors "
            "(i, 2N+1-i); pass --indexing paper for the (i, 2N-i) convention "
            "(the two differ for N >= 2)"
        )
    spectra = []
    for g in sectors:
        sp = hub.diagonalize(h, g)
        spectra.append(sp)
        print(
            f"sector {g}: dimension {sp.block_dim}, ground energy "
            f"{sp.ground_energy:.12g}"
        )
    written: list[str] = []
    _write(args.out, "spectrum.csv", sz.write_spectrum_csv(spectra), written)
    ground = min(spectra, key=lambda sp: sp.ground_energy)
    # The pair the Hamiltonian was built from, not a second construction.
    pair = _shared_pair(model, spec.n_modes, args.sector)
    densities = hub.occupation_profile(ground.ground_state, pair)
    _write(args.out, "occupation.csv", sz.write_occupation_csv(densities), written)
    print(
        f"ground sector {ground.sector}: occupation profile "
        + " ".join(f"{d:.6f}" for d in densities)
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonladder",
        description="Anyonic ladder operators: construction, verification, decomposition, Hamiltonians.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tolerance",
        type=float,
        default=1e-10,
        help="numerical tolerance for all comparisons (default 1e-10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check model consistency")
    p.add_argument("--model", required=True, help="builtin name or model JSON path")
    p.add_argument("--level", choices=("basic", "full"), default="full")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ladder", parents=[common], help="construct and export ladder operators")
    p.add_argument("--model", required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--particle", help="restrict to one particle label")
    p.add_argument("--out", help="directory for triplet/table files")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--model", default="fibonacci")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument(
        "--suite",
        choices=("relations", "locality", "fock", "closure", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common], help="decompose a local observable")
    p.add_argument("--op", help="operator triplet file")
    p.add_argument("--fixture", help="named corpus observable")
    p.add_argument("--list-fixtures", action="store_true")
    p.add_argument("--sites", help="comma-separated mode list, e.g. 1,2")
    p.add_argument("--model", default="fibonacci")
    p.add_argument("--out", help="write the polynomial JSON here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("hubbard", parents=[common], help="build and diagonalize the lattice Hamiltonian")
    p.add_argument("--rungs", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--indexing", choices=hub.INDEXINGS, default="geometric")
    p.add_argument("--sector", help="restrict to one total-charge sector")
    p.add_argument("--out", help="directory for spectrum/occupation CSVs")
    p.set_defaults(func=cmd_hubbard)

    return parser


def _check_arguments(args) -> None:
    """Reject values that no subcommand accepts, before any work or output."""
    if not 0.0 <= args.tolerance < np.inf:  # NaN fails this too
        raise ValueError(f"--tolerance must be finite and non-negative, got {args.tolerance}")
    if vars(args).get("modes", 1) < 1:
        raise ValueError(f"--modes must be at least 1, got {args.modes}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_arguments(args)
        return args.func(args)
    except (ModelDataError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
