"""Command-line front end.

Subcommands:

  check         parse a definition file, classify it, report the genus
  derive        dimensions and canonical bases of Der / Inn / AIDer
  analyze       series, centers, Killing rank, radical, nilradical, Levi
  catalog       emit a catalog family as a definition document
  verify-paper  run the registry of documented claims and report results

Exit codes: 0 success, 1 refuted claims (or invalid algebra for check),
2 usage errors, 3 internal errors: an invariant violation or any other
unexpected exception, 141 (128 + SIGPIPE) when the reader closes stdout.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from . import __version__, claims, dsl
from .algebra import Algebra
from .catalog import FAMILIES, FamilySpec, GROUPED, INTERLEAVED
from .derivations import GenusError, almost_inner_genus1, der_algebra, \
    inner_derivations
from .dsl import Report
from .exactlin import (
    Q,
    QI,
    InternalInvariantError,
    Subspace,
    format_rows,
    format_scalar,
    parse_scalar,
)
from .liestruct import killing, nilradical, radical, verify_levi

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _family_spec(args) -> FamilySpec:
    return FamilySpec(family=args.family, n=args.n,
                      a=parse_scalar(args.a, QI) if args.a is not None else None,
                      b=parse_scalar(args.b, QI) if args.b is not None else None,
                      order=args.order)


def _load_algebra(args) -> tuple[str, Algebra]:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = dsl.parse(text)
        return doc.name, doc.algebra
    spec = _family_spec(args)
    return spec.name(), spec.build()


def _add_algebra_args(p):
    p.add_argument("file", nargs="?", help="algebra definition file")
    p.add_argument("--family", choices=FAMILIES, help="catalog family")
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--a", help="scalar parameter (exact syntax, e.g. 1/2 or 1+1i)")
    p.add_argument("--b", help="imaginary part for realify-heisenberg")
    p.add_argument("--order", choices=(GROUPED, INTERLEAVED), default=GROUPED)


def _check_algebra_args(args, parser):
    if bool(args.file) == bool(args.family):
        parser.error("give exactly one of FILE or --family")
    if args.family and args.n is None:
        parser.error("--family requires --n")


def _matrix_text(cells: list, d: int) -> str:
    """The d x d matrix whose row-major entry texts are ``cells``: one
    bracketed line per row, each column right-justified to its widest text."""
    rows = [cells[r * d:(r + 1) * d] for r in range(d)]
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "\n".join("[ " + "  ".join(map(str.rjust, row, widths)) + " ]"
                     for row in rows)


def _print_subspace(title: str, sub: Subspace, out):
    out.write("%s (dim %d):\n" % (title, sub.dim))
    for line in format_rows(sub):
        out.write("  [%s]\n" % ", ".join(line))


def _kind_line(alg: Algebra) -> str:
    k = alg.kind
    return ("left=%s right=%s symmetric=%s lie=%s"
            % tuple("yes" if f else "no"
                    for f in (k.left_leibniz, k.right_leibniz, k.symmetric, k.lie)))


def cmd_check(args, out) -> int:
    name, alg = _load_algebra(args)
    k = alg.kind
    comm = alg.commutator_ideal
    nilp, ncls = alg.is_nilpotent()
    out.write("algebra %s: dim %d over %s\n" % (name, alg.dim, alg.field))
    out.write("classify: %s\n" % _kind_line(alg))
    out.write("dim [L,L] = %d (genus %d)\n" % (comm.dim, comm.dim))
    out.write("nilpotent: %s (class %d)\n" % ("yes" if nilp else "no", ncls))
    if not (k.left_leibniz or k.right_leibniz):
        out.write("not a Leibniz algebra (neither identity holds)\n")
        return 1
    return 0


def cmd_derive(args, out) -> int:
    name, alg = _load_algebra(args)
    der = der_algebra(alg)
    der.structure  # the closure check, whatever is printed
    inn = inner_derivations(alg) if alg.kind.left_leibniz else None
    try:
        aid = almost_inner_genus1(alg)
    except GenusError:
        aid = None
    if args.json:
        analysis = {
            "algebra": name,
            "dim": alg.dim,
            "field": alg.field,
            "der_dim": der.dim,
            "inn_dim": inn.dim if inn else None,
            "aider_dim": aid.dim if aid else None,
            "der_basis": format_rows(der.subspace),
        }
        report = Report(version=__version__, input=name, analyses=(analysis,))
        out.write(dsl.report_json(report))
        return 0
    out.write("algebra %s: dim %d over %s\n" % (name, alg.dim, alg.field))
    out.write("classify: %s\n" % _kind_line(alg))
    out.write("dim Der = %d\n" % der.dim)
    if inn is not None:
        out.write("dim Inn = %d\n" % inn.dim)
    else:
        out.write("Inn skipped (not a left Leibniz algebra)\n")
    if aid is not None:
        out.write("dim AIDer = %d\n" % aid.dim)
    else:
        out.write("AIDer skipped (commutator ideal is not one-dimensional)\n")
    for label, mla in (("Der", der), ("Inn", inn), ("AIDer", aid)):
        if mla is None:
            continue
        out.write("%s basis matrices:\n" % label)
        for cells in format_rows(mla.subspace):
            out.write(_matrix_text(cells, alg.dim) + "\n\n")
    if args.table:
        out.write("induced bracket table on the canonical Der basis:\n")
        for line in dsl.bracket_lines(der.structure):
            out.write(line + "\n")
    return 0


def _parse_levi(text: str, alg: Algebra) -> Subspace:
    vecs = []
    for part in text.split(";"):
        coords = [parse_scalar(tok, alg.field) for tok in part.split(",")]
        if len(coords) != alg.dim:
            raise ValueError("Levi vector has %d coordinates, need %d"
                             % (len(coords), alg.dim))
        vecs.append(tuple(coords))
    return Subspace.span(vecs, alg.dim, alg.field)


def cmd_analyze(args, out) -> int:
    name, alg = _load_algebra(args)
    if args.der:
        alg = der_algebra(alg).structure
        name += " derivation algebra"
    # parsed before the first output line, so bad input prints nothing
    candidate = _parse_levi(args.levi, alg) if args.levi is not None else None
    out.write("algebra %s: dim %d over %s\n" % (name, alg.dim, alg.field))
    out.write("classify: %s\n" % _kind_line(alg))
    lower = alg.series("lower_central")
    derived = alg.series("derived")
    out.write("lower central dims: %s\n" % (tuple(t.dim for t in lower),))
    out.write("derived dims: %s\n" % (tuple(t.dim for t in derived),))
    left, right, center = alg.centers()
    out.write("centers: left %d, right %d, two-sided %d\n"
              % (left.dim, right.dim, center.dim))
    if not alg.kind.lie:
        out.write("Lie-specific analysis skipped (not a Lie algebra)\n")
        return 0
    rad, nil = radical(alg), nilradical(alg)
    levi = verify_levi(alg, candidate) if candidate is not None else None
    out.write("Killing rank: %d\n"
              % Subspace.span(killing(alg).values(), alg.dim, alg.field).dim)
    _print_subspace("radical", rad, out)
    _print_subspace("nilradical", nil, out)
    if levi is not None:
        out.write("Levi candidate: %s\n" % (levi,))
    return 0


def cmd_catalog(args, out) -> int:
    alg = _family_spec(args).build()
    name = "%s_%d" % (args.family.replace("-", "_"), args.n)
    out.write(dsl.serialize(dsl.AlgebraDoc(name, alg)))
    return 0


def cmd_verify(args, out) -> int:
    a_values = claims.DEFAULT_A
    if args.a is not None:
        a_values = tuple(parse_scalar(tok, Q) for tok in args.a.split(","))
        for k, a in enumerate(a_values):
            if a in a_values[:k]:
                raise ValueError("repeated --a value %s" % format_scalar(a))
    only = set(args.claim) if args.claim else None
    report = claims.run_all(nmax=args.nmax, a_values=a_values,
                            seed=args.seed, only=only)
    if args.json:
        out.write(dsl.report_json(report, timing=args.timing))
    else:
        counts = {}
        for c in report.claims:
            counts[c["status"]] = counts.get(c["status"], 0) + 1
            line = "%-9s %-4s %s" % (c["status"], c["id"], " ".join(
                "%s=%s" % (k, v) for k, v in sorted(c["params"].items())))
            if c["status"] in (claims.REFUTED, claims.DISCREPANCY):
                line += "\n  expected: %s\n  actual:   %s" % (c["expected"],
                                                              c["actual"])
            out.write(line + "\n")
        out.write("totals: %s\n" % ", ".join(
            "%s %d" % (k, counts[k]) for k in sorted(counts)))
    bad = {claims.REFUTED, claims.DISCREPANCY} if args.strict else {claims.REFUTED}
    return 1 if any(c["status"] in bad for c in report.claims) else 0


def _derive_args(p):
    _add_algebra_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--table", action="store_true",
                   help="print the induced bracket table of Der")


def _analyze_args(p):
    _add_algebra_args(p)
    p.add_argument("--der", action="store_true",
                   help="analyze the derivation algebra of the input "
                        "instead of the input itself")
    p.add_argument("--levi", help="claimed Levi complement: 'v1;v2;...', "
                                  "each vector comma-separated coordinates "
                                  "in the analyzed algebra's basis")


def _catalog_args(p):
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--order", choices=(GROUPED, INTERLEAVED), default=GROUPED)


def _verify_args(p):
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--a", help="comma-separated parameter list")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report's input id only; every "
                        "claim is decided exactly")
    p.add_argument("--claim", action="append", help="claim id filter")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed times in JSON output")
    p.add_argument("--strict", action="store_true",
                   help="flagged discrepancies also fail the run")


# subcommand -> (help, function adding its arguments, function running it)
_COMMANDS = {
    "check": ("parse and classify an algebra", _add_algebra_args, cmd_check),
    "derive": ("compute Der / Inn / AIDer", _derive_args, cmd_derive),
    "analyze": ("structural analysis", _analyze_args, cmd_analyze),
    "catalog": ("emit a family as a definition document", _catalog_args,
                cmd_catalog),
    "verify-paper": ("re-verify the documented claim registry", _verify_args,
                     cmd_verify),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI's parser.  Every subcommand is listed with its help, but one
    run parses one subcommand, so only the one named by ``argv[0]`` gets its
    arguments; all of them do when ``argv[0]`` names none (``--help``,
    ``--version`` or a typo)."""
    parser = argparse.ArgumentParser(
        prog="derleib",
        description="exact derivation algebras of nilpotent Leibniz algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (text, add_args, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if chosen in (None, name):
            add_args(p)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    # Interpreter finalization runs full collections over every object the
    # run made.  The package defines no finalizers and closes its files with
    # ``with``, so freezing the heap at exit only skips that scan; done once
    # per process however often ``main`` runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.command in ("check", "derive", "analyze"):
            _check_algebra_args(args, parser)
        code = _COMMANDS[args.command][2](args, out)
        out.flush()
        return code
    except BrokenPipeError:  # the reader left; what stdout still buffers goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13  # as if killed by SIGPIPE
    except InternalInvariantError as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return INTERNAL_ERROR
    except (OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_ERROR
    except Exception as exc:  # a fault of the engine, not a refuted claim
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
