"""Command-line interface: counting, series expansion, formula
cross-checks, verification suites, and applying the named maps.

Results are printed to stdout as JSON (or CSV) with every number rendered
as a decimal string; a run manifest goes to stderr so that stdout stays
byte-for-byte reproducible.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 resource-cap error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence

from . import __version__
from .errors import MatchboardError, ResourceCapError


# ---------------------------------------------------------------------------
# output plumbing


def _stringify(obj):
    """Render every integer as a decimal string, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(payload: dict, fmt: str) -> None:
    payload = _stringify(payload)
    if fmt == "csv":
        rows: list = []
        _flatten("", payload, rows)
        out = "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
        sys.stdout.write(out)
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _manifest(command: str, params: dict, started: float) -> None:
    manifest = {
        "command": command,
        "parameters": _stringify(params),
        "version": __version__,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 1),
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, ok)


def cmd_count(args) -> tuple[dict, bool]:
    from . import families
    from .patterns import as_patterns, parse_pattern_set

    avoid = ()
    if args.avoid is not None:
        avoid = as_patterns(parse_pattern_set(args.avoid))
    table = families.count(
        args.family,
        args.n,
        k=args.k,
        avoid=avoid,
        stats=args.stat == "valleys",
        by_shape=args.by_shape,
    )
    payload = {
        "family": args.family,
        "n": args.n,
        "k": args.k,
        "avoid": [p.to_text() for p in avoid],
        "total": table.total,
    }
    if table.by_valleys is not None:
        payload["by_valleys"] = table.by_valleys
    if table.by_shape is not None:
        payload["by_shape"] = [
            {"border": b, "count": c} for b, c in sorted(table.by_shape.items())
        ]
    return payload, True


def cmd_series(args) -> tuple[dict, bool]:
    from . import formulas

    coeffs = formulas.coefficients(args.formula, args.order)
    payload = {
        "formula": args.formula,
        "order": args.order,
        "coefficients": list(coeffs),
    }
    return payload, True


def cmd_cross_check(args) -> tuple[dict, bool]:
    from . import formulas

    report = formulas.cross_check(args.formula, args.max_n)
    ok = all(r["equal"] for r in report["results"])
    return report, ok


def cmd_verify(args) -> tuple[dict, bool]:
    from . import checks

    results = checks.run(args.suite, args.max_n)
    ok = all(c["pass"] for c in results)
    return {"suite": args.suite, "max_n": args.max_n, "checks": results, "pass": ok}, ok


def _parse_permutation(text: str) -> tuple[int, ...]:
    """One-line notation, e.g. ``6,5,1,4,3,2``."""
    from .model import parse_int_list

    return parse_int_list(text, f"permutation {text!r}")


def _maps() -> dict:
    """Map name -> (parser of --input, map), for every map but kappa-prime."""
    from .bijections import (
        NoncrossingPathPair,
        chi,
        delta213,
        delta213_inv,
        delta321,
        delta321_by_switch,
        delta321_inv,
        pi_labeling,
    )
    from .model import (
        Matching,
        RookPlacement,
        SetPartition,
        kappa,
        kappa_inv,
        partition_to_matching,
    )

    return {
        "kappa": (Matching.from_text, kappa),
        "kappa-inv": (RookPlacement.from_text, kappa_inv),
        "partition-to-matching": (SetPartition.from_text, partition_to_matching),
        "delta321": (RookPlacement.from_text, delta321),
        "delta321-switch": (RookPlacement.from_text, delta321_by_switch),
        "delta321-inv": (NoncrossingPathPair.from_text, delta321_inv),
        "delta213": (RookPlacement.from_text, delta213),
        "delta213-inv": (NoncrossingPathPair.from_text, delta213_inv),
        "pi": (RookPlacement.from_text, pi_labeling),
        "chi": (_parse_permutation, chi),
    }


def cmd_apply(args) -> tuple[dict, bool]:
    if args.map == "kappa-prime":
        from .bijections import kappa_prime
        from .model import Matching

        if not args.pattern:
            raise MatchboardError("kappa-prime needs --pattern 321 or 213")
        result = kappa_prime(Matching.from_text(args.input), args.pattern)
    elif args.pattern is not None:
        raise MatchboardError(f"--pattern applies to kappa-prime only, not {args.map}")
    else:
        parse, fn = _maps()[args.map]
        result = fn(parse(args.input))
    return {"map": args.map, "input": args.input, "output": result.to_text()}, True


_COMMANDS = {
    "count": cmd_count,
    "series": cmd_series,
    "cross-check": cmd_cross_check,
    "verify": cmd_verify,
    "apply": cmd_apply,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Choices(Sequence):
    """Choices read from the module that runs the command, loaded the
    first time argparse tests or lists them; a ``count`` call never
    imports ``formulas`` or ``checks``, and a ``series`` call never
    imports the object model."""

    def __init__(self, load):
        self._load = load

    def __getitem__(self, i):
        return self._load()[i]

    def __len__(self) -> int:
        return len(self._load())


def _formula_ids():
    from .formulas import FORMULA_IDS

    return FORMULA_IDS


def _suites():
    from .checks import SUITES

    return (*SUITES, "all")


def _family_names():
    from .families import FAMILY_NAMES

    return FAMILY_NAMES


def _map_names():
    return tuple(sorted([*_maps(), "kappa-prime"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchboard",
        description="Exact enumeration of pattern-avoiding matchings, "
        "partitions, and rook placements on Ferrers boards.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count a family, optionally filtered")
    c.add_argument("--family", required=True).choices = _Choices(_family_names)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--avoid", default=None, help="comma-separated patterns")
    c.add_argument("--by-shape", action="store_true")
    c.add_argument("--stat", choices=("valleys",), default=None)

    s = sub.add_parser("series", help="expand a named generating function")
    formula_ids = _Choices(_formula_ids)
    # set after add_argument, which would list the choices to check the metavar
    s.add_argument("--formula", required=True).choices = formula_ids
    s.add_argument("--order", type=int, required=True)

    x = sub.add_parser("cross-check", help="formula vs brute-force oracle")
    x.add_argument("--formula", required=True).choices = formula_ids
    x.add_argument("--max-n", type=int, required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True).choices = _Choices(_suites)
    v.add_argument("--max-n", type=int, default=5)

    a = sub.add_parser("apply", help="apply a named map to one object")
    a.add_argument("--map", required=True).choices = _Choices(_map_names)
    a.add_argument("--input", required=True)
    a.add_argument("--pattern", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    started = time.monotonic()
    try:
        payload, ok = _COMMANDS[args.command](args)
    except ResourceCapError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except MatchboardError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    _emit(payload, args.format)
    _manifest(args.command, vars(args), started)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
