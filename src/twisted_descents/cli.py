"""Command-line interface.

Subcommands: ``conv``, ``comp``, ``coprod``, ``solomon``, ``young`` for
arithmetic, ``verify`` for the invariant suites.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error, 3 size cap exceeded.

Each subcommand takes only the flags it reads: ``--format`` on every command;
``--max-terms`` on ``conv``, ``comp`` and ``coprod``; ``--ascii`` on
``coprod``, the only output with a non-ASCII character (``⊗``); ``--max-n``,
``--max-support``, ``--seed`` and ``--trials`` on ``verify``.  The command
line is the only input a run reads; no environment variable moves a cap or a
size.  Counts are ASCII digits, as in the element grammar; ``--seed`` is the
grammar's ``int``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .algebra import composition_product, convolution, coproduct
from .limits import MAX_TERMS, SizeLimitError
from .permutations import compose
from .solomon import DescentElement, solomon_compose, young_decompose
from .textio import (
    _DIGITS,
    _INT,
    ParseError,
    _join_terms,
    element_to_json,
    parse,
    parse_composition,
    parse_permutation,
    render,
    render_composition,
    render_permutation,
    render_tensor,
    tensor_to_json,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# argparse names a rejected flag value after its type function
# ("invalid count value: '-1'"), hence these two public names.
def count(text: str) -> int:
    """A count: ASCII digits only, the element grammar's ``digit+``."""
    if _DIGITS.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not a count")
    return int(text)


def integer(text: str) -> int:
    """The element grammar's ``int``: an optional '-' and ASCII digits."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _emit(args: argparse.Namespace, text, obj) -> None:
    """Print ``text()`` or, under ``--format json``, ``obj()``; only one is built."""
    if args.format == "json":
        print(json.dumps(obj(), sort_keys=True, check_circular=False))
    else:
        print(text())


def cmd_product(args) -> int:
    """``conv`` or ``comp``: that product of the two parsed elements."""
    # Looked up per call, not stored in the cached parser, so the module's
    # current binding of each product is the one that runs.
    product = convolution if args.command == "conv" else composition_product
    result = product(parse(args.a), parse(args.b), args.max_terms)
    _emit(args, lambda: render(result), lambda: element_to_json(result))
    return EXIT_OK


def cmd_coprod(args) -> int:
    result = coproduct(parse(args.a), args.max_terms)
    _emit(
        args,
        lambda: render_tensor(result, ascii_only=args.ascii),
        lambda: tensor_to_json(result),
    )
    return EXIT_OK


def cmd_solomon(args) -> int:
    a = DescentElement({parse_composition(args.c1): 1})
    b = DescentElement({parse_composition(args.c2): 1})
    result = solomon_compose(a, b)
    _emit(
        args,
        lambda: _join_terms([(c, render_composition(k)) for k, c in result]),
        lambda: {"terms": [{"coeff": c, "parts": list(k)} for k, c in result]},
    )
    return EXIT_OK


def cmd_young(args) -> int:
    parts = parse_composition(args.partition)
    p = parse_permutation(args.perm)
    beta, tau = young_decompose(parts, p)
    if compose(beta, tau) != p:
        print(f"recomposition check failed: {beta} . {tau} != {p}", file=sys.stderr)
        return EXIT_VERIFY
    _emit(
        args,
        lambda: f"beta = {render_permutation(beta)}\nshuffle = {render_permutation(tau)}",
        lambda: {"beta": list(beta), "shuffle": list(tau)},
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    # Imported here: no arithmetic command runs the verifier, so none of them
    # pays for loading it.
    from .verify import Config, SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        names = ", ".join(list(SUITES) + ["all"])
        print(f"unknown suite {args.suite!r}; available: {names}", file=sys.stderr)
        return EXIT_USAGE
    cfg = Config(args.max_n, args.max_support, args.trials, args.seed)
    results = run_suite(args.suite, cfg)
    if args.format == "json":
        laws = [{"suite": r.suite, "law": r.law, "ok": r.ok, "detail": r.detail} for r in results]
        print(json.dumps({"results": laws}, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        failures = sum(1 for r in results if not r.ok)
        total = len(results)
        print(f"{total - failures}/{total} laws hold")
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")
    capped = argparse.ArgumentParser(add_help=False, parents=[fmt])
    capped.add_argument("--max-terms", type=count, default=MAX_TERMS, help="expansion size cap")

    parser = argparse.ArgumentParser(
        prog="twisted-descents",
        description="Exact products, coproducts, and verification for set compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what in [("conv", "convolution"), ("comp", "composition")]:
        p = sub.add_parser(name, parents=[capped], help=f"{what} product of two elements")
        p.add_argument("a")
        p.add_argument("b")
        p.set_defaults(fn=cmd_product)

    p = sub.add_parser("coprod", parents=[capped], help="coproduct of an element")
    p.add_argument("a")
    p.add_argument("--ascii", action="store_true", help="avoid non-ASCII output")
    p.set_defaults(fn=cmd_coprod)

    p = sub.add_parser(
        "solomon", parents=[fmt], help="Solomon's rule on two integer compositions"
    )
    p.add_argument("c1")
    p.add_argument("c2")
    p.set_defaults(fn=cmd_solomon)

    p = sub.add_parser(
        "young", parents=[fmt], help="Young/shuffle factorization of a permutation"
    )
    p.add_argument("partition", help="block sizes, e.g. 2,1")
    p.add_argument("perm", help="one-line permutation, e.g. 3,1,2")
    p.set_defaults(fn=cmd_young)

    p = sub.add_parser("verify", parents=[fmt], help="run an invariant suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--max-n", type=count, help="largest degree the sweeps reach")
    p.add_argument("--max-support", type=count, help="oracle universe size")
    p.add_argument("--seed", type=integer, default=0, help="seed for randomized suites")
    p.add_argument("--trials", type=count, help="randomized trial count")
    p.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse keeps no state between parse_args calls, so one parser serves all.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
