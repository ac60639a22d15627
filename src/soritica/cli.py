"""Command-line interface.

Subcommands::

    soritica numbers eval "<expr>" [--oracle] [--seed S]
    soritica tables
    soritica laws --seed S --n N
    soritica sorites run <config.json> [--format text|json] [-o FILE]

Exit codes: 0 success, 1 property or oracle failure, 2 usage/config error.

Importing this module loads only the number core, which ``numbers eval``
runs; ``laws``, ``tables`` and ``sorites run`` each import their own module
when they run, so no subcommand loads another one's code.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .neutrix import classify, parse_external
from .series import ParseError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Parsing leaves no state in the parser: every call returns a fresh
    namespace filled from the declared defaults.
    """
    parser = argparse.ArgumentParser(
        prog="soritica",
        description="External-number calculator and Sorites workbench",
    )
    parser.add_argument(
        "--version", action="version", version=f"soritica {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    numbers = sub.add_parser(
        "numbers", help="external-number expression calculator"
    )
    numbers_sub = numbers.add_subparsers(dest="numbers_command", required=True)
    numbers_eval = numbers_sub.add_parser(
        "eval", help="evaluate an expression"
    )
    numbers_eval.add_argument(
        "expr",
        help='write "--" before an expression that starts with "-":'
        ' soritica numbers eval -- "-e^(-1)"',
    )
    numbers_eval.add_argument(
        "--oracle",
        action="store_true",
        help="check that the printed result parses back to the same external number",
    )
    numbers_eval.add_argument(
        "--seed", type=int, default=0,
        help="echoed on the oracle line; no check draws from it yet",
    )

    sub.add_parser("tables", help="print the strong three-valued truth tables")

    laws = sub.add_parser("laws", help="run the randomized algebraic law suite")
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--n", type=int, default=100, help="cases per law")

    sorites = sub.add_parser("sorites", help="run a soritical scenario")
    sorites_sub = sorites.add_subparsers(dest="sorites_command", required=True)
    sorites_run = sorites_sub.add_parser("run", help="run a scenario config")
    sorites_run.add_argument("config")
    sorites_run.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    sorites_run.add_argument("-o", "--output", default=None)
    return parser


def _cannot_print() -> int:
    """Report a result holding a numeral past the int-to-str digit limit."""
    digits = sys.get_int_max_str_digits()
    print(f"cannot print result: numeral over {digits} digits", file=sys.stderr)
    return 2


def _cmd_numbers_eval(args) -> int:
    try:
        value = parse_external(args.expr)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    try:
        text = str(value)
    except ValueError:
        return _cannot_print()
    print(text)
    label = classify(value).value
    if label == "NeutrixOnly":
        label = f"NeutrixOnly({value.neutrix.kind.name.title()})"
    print(label)
    if args.oracle:
        ok = value == parse_external(text)
        print(f"oracle: {'ok' if ok else 'MISMATCH'} (seed {args.seed})")
        if not ok:
            return 1
    return 0


def _cmd_laws(args) -> int:
    from .laws import run_law_suite

    if args.n < 1:
        print("laws: --n must be >= 1", file=sys.stderr)
        return 2
    print(f"soritica {__version__} law suite (seed {args.seed}, n {args.n})")
    results = run_law_suite(args.seed, args.n)
    failed = False
    for result in results:
        if result.passed:
            print(f"PASS {result.name} ({result.cases} cases)")
        else:
            failed = True
            print(f"FAIL {result.name}: {result.counterexample}")
    return 1 if failed else 0


def _cmd_sorites_run(args) -> int:
    from .sorites import ConfigError, load_scenario, run_scenario

    try:
        scenario = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error at {exc.pointer or '/'}: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    # The runners write the report's details as text, so a numeral past the
    # int-to-str digit limit fails there or in the rendering.
    try:
        report = run_scenario(scenario)
        rendered = report.to_json() if args.format == "json" else report.to_text()
    except ValueError:
        return _cannot_print()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "numbers":
        return _cmd_numbers_eval(args)
    if args.command == "tables":
        from .semantics import kleene_tables

        sys.stdout.write(kleene_tables())
        return 0
    if args.command == "laws":
        return _cmd_laws(args)
    # Every subcommand is required, so the parser has refused anything else.
    return _cmd_sorites_run(args)


if __name__ == "__main__":
    sys.exit(main())
