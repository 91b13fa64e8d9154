"""Command-line front end for the engine and the verification suite.

Every subcommand that works on a ring takes exactly one input source:
``--ring FILE`` (the block format documented in the parser module) or
``--builtin even|odd``, which names the built-in ring file of one of the two
spin presentations.  Output is deterministic; ``--format json`` switches to
a versioned structured schema.

Exit codes: 0 success or pass, 1 verification failure or negative
membership, 2 parse or usage error, 3 engine error (non-Artinian quotient,
a quotient above the dimension limit, a graded command on a quotient with no
grading, degree mismatch, a number too long to print, a division past the
reduction step limit, and friends).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import spindomain
from .groebner import buchberger
from .parser import ParseError, parse_polynomial, parse_ring_file
from .poly import RingError
from .quotient import (
    PointNormalization,
    build_quotient,
    hilbert_function,
    integrate,
    multiplication_matrix,
    rank,
)


class _ArgumentParser(argparse.ArgumentParser):
    # keep usage errors to the single diagnostic line the contract asks for
    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


class _Source:
    """One resolved input ring: name, context, Groebner basis, optional normalization."""

    def __init__(self, args):
        if args.builtin:
            presentation = spindomain.builtin(args.builtin)
            ring_file, self.normalization = presentation.ring_file, presentation.point_normalization
        else:
            try:
                text = Path(args.ring).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"cannot read ring file: {exc}") from None
            ring_file, self.normalization = parse_ring_file(text), None
        self.name = ring_file.name
        self.context = ring_file.context
        self.basis = buchberger(ring_file.ideal)

    def parse(self, text: str):
        return parse_polynomial(text, self.context)


def _point_normalization(source: _Source, spec_text: str | None) -> PointNormalization:
    if spec_text is None:
        if source.normalization is None:
            raise ParseError("integration over a ring file needs --point \"WITNESS=VALUE\"")
        return source.normalization
    witness_text, separator, value_text = spec_text.partition("=")
    if not separator:
        raise ParseError("--point takes the form \"WITNESS=VALUE\"")
    try:
        value = Fraction(value_text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad point value {value_text.strip()!r}") from None
    return PointNormalization(witness=source.parse(witness_text), value=value)


def _text(value) -> str:
    # str() of an int past sys.get_int_max_str_digits() raises ValueError
    try:
        return str(value)
    except ValueError:
        raise RingError("number too long to print") from None


# Each handler returns (JSON fields, text output, exit code); _run adds the
# schema version, and the ring name for the commands that take a source.


def _gb(args, source):
    elements = [_text(g) for g in source.basis]
    return {"order": source.context.order, "elements": elements}, "\n".join(elements), 0


def _nf(args, source):
    reduced = _text(source.basis.normal_form(source.parse(args.expr)))
    return {"expr": args.expr, "normal_form": reduced}, reduced, 0


def _member(args, source):
    inside = source.basis.contains(source.parse(args.expr))
    return {"expr": args.expr, "member": inside}, "yes" if inside else "no", 0 if inside else 1


def _hilbert(args, source):
    dimensions = hilbert_function(build_quotient(source.basis))
    return {"dimensions": dimensions}, " ".join(map(str, dimensions)), 0


def _integrate(args, source):
    normalization = _point_normalization(source, args.point)
    value = _text(integrate(build_quotient(source.basis), source.parse(args.expr), normalization))
    return {"expr": args.expr, "integral": value}, value, 0


def _lefschetz(args, source):
    matrix = multiplication_matrix(build_quotient(source.basis), source.parse(args.multiplier), args.from_degree)
    matrix_rank = rank(matrix)
    cells = [[_text(entry) for entry in row] for row in matrix]
    fields = {
        "multiplier": args.multiplier,
        "from_degree": args.from_degree,
        "matrix": cells,
        "rank": matrix_rank,
    }
    return fields, "\n".join([" ".join(row) for row in cells] + [f"rank {matrix_rank}"]), 0


def _verify(args):
    report = spindomain.verify(args.component)
    return report.to_document(), report.to_text(), 0 if report.passed else 1


def _strata(args):
    rows = spindomain.strata(graph=args.graph, component=args.component)
    lines = []
    for s in rows:
        line = f"{s.name:<4} {s.graph}  {s.component:<5} dim {s.dimension}  {s.description}"
        if s.note:
            line += f" ({s.note})"
        lines.append(line)
    return {"strata": [asdict(s) for s in rows]}, "\n".join(lines), 0


def _run(args) -> int:
    document = {"schema_version": spindomain.SCHEMA_VERSION}
    if hasattr(args, "builtin"):  # the command takes --ring or --builtin
        source = _Source(args)
        document["ring"] = source.name
        fields, text, code = args.handler(args, source)
    else:
        fields, text, code = args.handler(args)
    document.update(fields)
    print(json.dumps(document, indent=2) if args.format == "json" else text)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="spinring", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    source = _ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--ring", metavar="FILE", help="ring presentation file")
    group.add_argument("--builtin", choices=spindomain.COMPONENTS, help="built-in spin presentation")

    def add(name, handler, help_text, parents=()):
        sub = subparsers.add_parser(name, parents=list(parents), help=help_text)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        sub.set_defaults(handler=handler)
        return sub

    add("gb", _gb, "print the reduced Groebner basis", [source])
    nf = add("nf", _nf, "normal form of an expression", [source])
    nf.add_argument("--expr", required=True)
    member = add("member", _member, "ideal membership test (yes/no)", [source])
    member.add_argument("--expr", required=True)
    add("hilbert", _hilbert, "graded dimensions of the quotient", [source])
    integrate_cmd = add("integrate", _integrate, "integrate a top-degree class", [source])
    integrate_cmd.add_argument("--expr", required=True)
    integrate_cmd.add_argument("--point", metavar="WITNESS=VALUE", help="point normalization for ring files")
    lefschetz = add("lefschetz", _lefschetz, "multiplication matrix and its rank", [source])
    lefschetz.add_argument("--class", dest="multiplier", required=True, metavar="EXPR")
    lefschetz.add_argument("--from-degree", type=int, required=True, metavar="D")
    verify = add("verify", _verify, "replay the recorded verification suite")
    verify.add_argument(
        "--component",
        choices=(spindomain.EVEN, spindomain.ODD, spindomain.ALL),
        default=spindomain.ALL,
    )
    strata = add("strata", _strata, "list the stable-graph strata")
    strata.add_argument("--graph", choices=spindomain.GRAPH_TYPES)
    strata.add_argument("--component", choices=spindomain.COMPONENTS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"spinring: {exc}", file=sys.stderr)
        return 2
    except RingError as exc:
        print(f"spinring: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
