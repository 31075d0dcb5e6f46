"""Command-line front-end.

Subcommands load JSON fixtures, run the checkers and verification suites,
and emit machine-readable results.  Exit codes: 0 pass, 1 mathematical
failure, 2 usage or schema error, 3 internal invariant breach (oracle
disagreement or a tripped termination guard).

Sampling is driven by seeded Mersenne-Twister generators (random.Random),
so a failing run is reproducible from its seed.  Golden files are compared
byte-exactly; the directory is taken from SUPERPOINTS_GOLDEN_DIR.  A missing
golden file is a usage error (exit 2) and is not created; regenerate one by
redirecting the stdout of the same normal-form run (without --trace) to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeff import GrassmannAlgebra
from .errors import (
    ClosureViolation,
    MembershipViolation,
    NonTermination,
    NotInvertible,
    SchemaError,
    SpanViolation,
    StructuralError,
)
from .gp import normal_form, reorder_symbolic
from .liesuper import check_axioms
from .serialize import (
    dump_normal_form,
    load_coeff,
    load_field,
    load_lie,
    load_pair,
    load_word,
    loads,
)
from .shcp import validate_pair
from .verify import SUITES

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from None


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if isinstance(payload, dict):
            for k, v in payload.items():
                print(f"{k}: {v}")
        else:
            print(payload)


def cmd_check_liesuper(args):
    lie = load_lie(loads(_read(args.path), args.path))
    rep = check_axioms(lie)
    if args.json:
        _emit({"ok": rep.ok, "failures": rep.failures, "notes": rep.notes}, True)
    else:
        print(rep.summary())
    return EXIT_PASS if rep.ok else EXIT_FAIL


def cmd_check_shcp(args):
    if args.samples < 1:  # a run that samples no point verifies nothing
        raise SchemaError(f"--samples: must be at least 1, not {args.samples}")
    pair = load_pair(loads(_read(args.path), args.path))
    rep = validate_pair(pair, samples=args.samples, seed=args.seed)
    if args.json:
        _emit({"ok": rep.ok, "failures": rep.failures, "notes": rep.notes}, True)
    else:
        print(rep.summary())
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _resolve_coeff(args):
    if args.coeff:
        return load_coeff(loads(_read(args.coeff), args.coeff))
    if args.field:
        field = load_field(args.field, "--field")
        try:
            return GrassmannAlgebra(field, args.grassmann_rank)
        except StructuralError as e:
            raise SchemaError(f"--grassmann-rank: {e}") from None
    raise SchemaError("supply --coeff FILE or --field/--grassmann-rank")


def cmd_normal_form(args):
    pair = load_pair(loads(_read(args.pair), args.pair))
    algebra = _resolve_coeff(args)
    word = load_word(loads(_read(args.word), args.word), pair, algebra)
    stats = {"trace": []} if args.trace else {}
    if args.oracle == "module":
        nf = normal_form(word)
    elif args.oracle == "rewrite":
        nf = reorder_symbolic(word, stats=stats)
    else:
        nf = normal_form(word)
        nf2 = reorder_symbolic(word, stats=stats)
        if nf != nf2:
            print("ORACLE DISAGREEMENT: module route != rewriting route",
                  file=sys.stderr)
            return EXIT_INTERNAL
    payload = dump_normal_form(nf)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.trace:
        try:
            lines = [msg.format(*values) for msg, values in stats["trace"]]
        except StructuralError as e:
            raise SchemaError(f"trace cannot be written: {e}") from None
        for line in lines:
            print(f"# {line}")
    print(text)
    if args.golden:
        return _compare_golden(args.golden, text + "\n")
    return EXIT_PASS


def _compare_golden(name, text):
    path = os.path.join(os.environ.get("SUPERPOINTS_GOLDEN_DIR", "golden"), name)
    if not os.path.exists(path):
        print(f"golden file missing: {path} (regenerate it with "
              f"`superpoints normal-form ... > {path}`, without --trace)",
              file=sys.stderr)
        return EXIT_USAGE
    if _read(path) != text:
        print(f"golden mismatch against {path}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def cmd_verify(args):
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return EXIT_USAGE
    rep = SUITES[args.suite](seed=args.seed)
    if args.json:
        _emit({"suite": args.suite, "ok": rep.ok,
               "failures": rep.failures, "notes": rep.notes}, True)
    else:
        print(f"suite {args.suite}: {rep.summary()}")
    return EXIT_PASS if rep.ok else EXIT_FAIL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superpoints",
        description="Exact supergroup points: checkers, normal forms, "
                    "verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-liesuper", help="verify Lie superalgebra axioms")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_liesuper)

    p = sub.add_parser("check-shcp", help="validate a super Harish-Chandra pair")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check_shcp)

    p = sub.add_parser("normal-form", help="canonical factorization of a word")
    p.add_argument("--pair", required=True)
    p.add_argument("--coeff")
    p.add_argument("--field", help="Q or F<p>, p a prime below 2**31")
    p.add_argument("--grassmann-rank", type=int, default=3)
    p.add_argument("--word", required=True)
    p.add_argument("--trace", action="store_true",
                   help="print the rewriting steps")
    p.add_argument("--oracle", choices=["module", "rewrite", "both"],
                   default="module")
    p.add_argument("--golden", help="compare against a golden file by name")
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NonTermination,) as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ClosureViolation, MembershipViolation, SpanViolation, NotInvertible,
            StructuralError) as e:
        print(f"failure: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
