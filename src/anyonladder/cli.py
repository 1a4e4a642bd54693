"""Command-line front end.

Subcommands: ``validate`` (model consistency), ``ladder`` (operator export),
``verify`` (relation/locality/fock/closure suites), ``decompose`` (observable
to ladder polynomial) and ``hubbard`` (lattice Hamiltonian spectra).

Exit codes: 0 success, 1 at least one asserted verification failed,
2 usage or input error.  Output is deterministic: identical inputs produce
byte-identical reports and files for a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
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
    ValidationReport,
    builtin,
    load_model,
    rounding_cut,
    validate_model,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
_COMMANDS = ("validate", "ladder", "verify", "decompose", "hubbard")


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


def _verify_relations(model, n: int, tol: float) -> ValidationReport:
    psi = fermion_type(model)
    if psi is None and fibonacci_type(model) is not None:
        return alg.verify_relations(model, n, tolerance=tol)
    report = ValidationReport([], tol)
    if psi is None:
        report.note("n/a", _NO_PAIR_OR_FERMION)
        return report
    ls = ladder_set(model, n, model.labels[psi])
    ops = [ls.op(k, 0) for k in range(1, n + 1)]
    adjoints = [op.dagger() for op in ops]
    products = [[fi @ fj for fj in ops] for fi in ops]
    ident = SparseOperator.identity(FusionTreeBasis(model, n))
    worst = 0.0
    for i, fi in enumerate(ops):
        for j, fjd in enumerate(adjoints):
            worst = max(worst, (products[i][j] + products[j][i]).norm_max())
            cross = fi @ fjd + fjd @ fi
            if i == j:
                cross = cross - ident
            worst = max(worst, cross.norm_max())
    scale = max(1.0, *(op.norm_max() for op in ops)) ** 2
    report.check("canonical anticommutation relations", worst, ident.row_basis.dim, scale)
    return report


def _verify_locality(model, n: int, tol: float) -> ValidationReport:
    report = ValidationReport([], tol)
    elems = alg.local_candidate_span(model, n, 1)[1]
    flags = [alg.is_local_candidate(op, (1,), tol=tol)[0] for op in elems]
    report.verdict(
        all(flags), f"{sum(flags)}/{len(flags)} mode-1 elements are candidate-local on {{1}}"
    )
    for g in model.labels:
        proj = total_charge_projector(model, n, g)
        res = alg.is_local_candidate(proj, (1,), tol=tol)[1]
        report.check(f"total-charge projector P_{g} is candidate-local on {{1}}", res,
                     proj.row_basis.dim, proj.norm_max())
    if n >= 2:
        flag, res = alg.is_local_candidate(braid_adjacent(model, n, 1), (1,), tol=tol)
        report.verdict(not flag, f"braid(1,2) is not local on {{1}}: residual={res:.3e}")
    return report


def _verify_fock(model, n: int, tol: float) -> ValidationReport:
    report = ValidationReport([], tol)
    dim = FusionTreeBasis(model, n).dim
    if fermion_type(model) is None and fibonacci_type(model) is None:
        report.note("n/a", f"creation words: {_NO_PAIR_OR_FERMION}")
    else:
        words = alg.fock_words(model, n)

        def miss(i: int) -> float:  # distance of word i's vector to unit vector i
            vec = alg.apply_word(model, n, *words[i])
            vec[i] -= 1.0
            return float(np.abs(vec).max())

        worst = max(map(miss, words), default=0.0)
        report.verdict(  # each word lands on a unit basis vector
            len(words) == dim and worst <= rounding_cut(tol, dim, 1.0),
            f"{len(words)}/{dim} states reconstructed by creation words: residual={worst:.3e}",
        )
    kdim = alg.kernel_dimension(model, n, tol)
    report.verdict(kdim == 1, f"joint annihilator kernel dimension = {kdim} (expect 1)")
    return report


def _verify_closure(model, n: int, tol: float) -> ValidationReport:
    """Mode-1 ladder operators with the total-charge projectors must close on
    the candidate-local span of mode 1 (the commutant of the complement
    observables); all ladder operators must close on the full algebra.

    The all-modes line (up to 40 basis states) is decided by Burnside's
    theorem: the ladder operators and their adjoints generate the full
    ``dim x dim`` algebra exactly when only the scalars commute with them.
    :func:`algebra.commutant_is_trivial` finds that from the second smallest
    eigenvalue of one ``dim**2``-sized commutator system, against a cut of
    ``max(tol, eps * dim**2)`` times a bound on its norm, and the line then
    reports ``dim**2``.  Otherwise it falls back to the dimension that
    :func:`algebra.algebra_closure` grows, so both paths decide the line
    alike."""
    report = ValidationReport([], tol)
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
    got = alg.algebra_closure(gens_mode1, tol=tol).dimension
    cand = len(alg.local_candidate_span(model, n, 1)[1])
    report.verdict(
        got == cand,
        f"mode-1 closure with total-charge projectors: dimension = {got} "
        f"(candidate-local span = {cand})",
    )
    dim = FusionTreeBasis(model, n).dim
    if dim <= 40:
        if alg.commutant_is_trivial(gens_all, tol=tol):
            got = dim * dim
        else:
            got = alg.algebra_closure(gens_all, tol=tol).dimension
        report.verdict(
            got == dim * dim,
            f"all-modes closure dimension = {got} (full operator algebra = {dim * dim})",
        )
    else:
        report.note("info", f"all-modes closure skipped (dimension {dim} too large)")
    return report


_SUITES = {
    "relations": _verify_relations,
    "locality": _verify_locality,
    "fock": _verify_fock,
    "closure": _verify_closure,
}


def cmd_verify(args) -> int:
    model = _resolve_model(args.model)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    passed = True
    for suite in suites:
        print(f"suite: {suite}")
        report = _SUITES[suite](model, args.modes, args.tolerance)
        print(textwrap.indent(report.format_text(), "  "))
        passed &= report.passed
    print(f"result: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_FAIL


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
    try:
        sites = None if args.sites is None else tuple(int(s) for s in args.sites.split(","))
    except ValueError:
        raise ValueError(f"--sites must be comma-separated mode numbers, got {args.sites!r}") from None
    if args.fixture is not None:
        if args.model != "fibonacci":
            raise ValueError(
                f"fixtures are Fibonacci observables; --model must be fibonacci "
                f"or left out, got {args.model!r}"
            )
        try:
            op = fixture(args.fixture)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if sites is not None and sorted(sites) != [1, 2]:
            raise ValueError("fixtures act on modes 1,2; --sites must name both or be left out")
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
    for sp in hub._spectra(h, sectors):
        spectra.append(sp)
        print(
            f"sector {sp.sector}: dimension {sp.block_dim}, ground energy "
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, of that
    one alone, whose top-level usage names it alone (:func:`main` reports a
    top-level error through the full parser)."""
    wanted = (command,) if command in _COMMANDS else _COMMANDS
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

    if "validate" in wanted:
        p = sub.add_parser("validate", parents=[common], help="check model consistency")
        p.add_argument("--model", required=True, help="builtin name or model JSON path")
        p.add_argument("--level", choices=("basic", "full"), default="full")
        p.set_defaults(func=cmd_validate)

    if "ladder" in wanted:
        p = sub.add_parser("ladder", help="construct and export ladder operators")
        p.add_argument("--model", required=True)
        p.add_argument("--modes", type=int, required=True)
        p.add_argument("--particle", help="restrict to one particle label")
        p.add_argument("--out", help="directory for triplet/table files")
        p.set_defaults(func=cmd_ladder)

    if "verify" in wanted:
        p = sub.add_parser("verify", parents=[common], help="run verification suites")
        p.add_argument("--model", default="fibonacci")
        p.add_argument("--modes", type=int, required=True)
        p.add_argument(
            "--suite",
            choices=("relations", "locality", "fock", "closure", "all"),
            default="all",
        )
        p.set_defaults(func=cmd_verify)

    if "decompose" in wanted:
        p = sub.add_parser("decompose", parents=[common], help="decompose a local observable")
        p.add_argument("--op", help="operator triplet file")
        p.add_argument("--fixture", help="named corpus observable")
        p.add_argument("--list-fixtures", action="store_true")
        p.add_argument("--sites", help="comma-separated mode list, e.g. 1,2")
        p.add_argument("--model", default="fibonacci")
        p.add_argument("--out", help="write the polynomial JSON here")
        p.set_defaults(func=cmd_decompose)

    if "hubbard" in wanted:
        p = sub.add_parser("hubbard", help="build and diagonalize the lattice Hamiltonian")
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
    tolerance = vars(args).get("tolerance", 0.0)
    if not 0.0 <= tolerance < np.inf:  # NaN fails this too
        raise ValueError(f"--tolerance must be finite and non-negative, got {tolerance}")
    if vars(args).get("modes", 1) < 1:
        raise ValueError(f"--modes must be at least 1, got {args.modes}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:  # the full parser prints its usage with the error
        build_parser().parse_args(argv)
    try:
        _check_arguments(args)
        return args.func(args)
    except (ModelDataError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
