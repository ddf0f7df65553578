"""One benchmark op, run in its own fresh interpreter.

Usage: child.py [--trace FILE] cli <matchboard arguments...>
       child.py [--trace FILE] lib <round trip> <arguments...>

``cli`` runs ``matchboard.cli.main`` exactly as the ``matchboard`` console
script does.  ``lib`` runs one of the library round trips below and prints
one JSON line.  With ``--trace`` the layer modules are wrapped first (see
``tracer.py``) and the trace is written to FILE when the op ends; stdout is
the same either way.
"""

from __future__ import annotations

import hashlib
import json
import sys


def coeff_bits(c) -> int:
    """Bit length of an integer or of a fraction's larger part."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def lib_routes(formula: str, order: str) -> dict:
    from matchboard import formulas

    a = formulas.coefficients(formula, int(order))
    b = formulas.secondary_coefficients(formula, int(order))
    return {"formula": formula, "order": int(order),
            "primary": [str(c) for c in a], "routes_agree": a == b}


def lib_fe(name: str, order: str) -> dict:
    from matchboard import series

    sol = series.fe_iterate(name, int(order))
    zero = series.residual(name, sol).is_zero()
    polys = sol.dicts()
    text = json.dumps(
        [sorted((list(k), str(c)) for k, c in p.items()) for p in polys]
    )
    return {
        "name": name,
        "order": int(order),
        "residual_zero": zero,
        "terms": sum(len(p) for p in polys),
        "max_coeff_bits": max((coeff_bits(c) for p in polys for c in p.values()), default=0),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def lib_kappa(n: str) -> dict:
    from matchboard import families
    from matchboard.model import kappa, kappa_inv

    total = bad = 0
    for m in families.matchings(int(n)):
        total += 1
        bad += kappa_inv(kappa(m)) != m
    return {"matchings": total, "mismatch": bad}


def _avoiders(n: int, pattern: str):
    from matchboard import families
    from matchboard.patterns import Pattern, placement_avoids

    pat = (Pattern.from_text(pattern),)
    for board in families.boards(n):
        for p in families.placements_on_board(board):
            if placement_avoids(p, pat):
                yield p


def lib_delta321(n: str) -> dict:
    from matchboard.bijections import delta321, delta321_by_switch, delta321_inv

    total = bad_switch = bad_inv = 0
    for p in _avoiders(int(n), "321"):
        total += 1
        pair = delta321(p)
        bad_switch += delta321_by_switch(p) != pair
        bad_inv += delta321_inv(pair).rook_rows != p.rook_rows
    return {"avoiders": total, "inverse_mismatch": bad_inv, "switch_mismatch": bad_switch}


def lib_delta213(n: str) -> dict:
    from matchboard.bijections import delta213, delta213_inv

    total = bad = 0
    for p in _avoiders(int(n), "213"):
        total += 1
        bad += delta213_inv(delta213(p)).rook_rows != p.rook_rows
    return {"avoiders": total, "inverse_mismatch": bad}


def lib_pi(n: str) -> dict:
    from matchboard.bijections import pi_labeling

    images = [pi_labeling(p).to_text() for p in _avoiders(int(n), "312")]
    return {"avoiders": len(images), "distinct_images": len(set(images))}


def lib_fixed_point(n: str) -> dict:
    """Fixed-point classes with n + k = N against noncrossing pairs ending in
    k south steps."""
    from matchboard import families

    top = int(n)
    out = {"n_plus_k": top, "pairs": [families.pair_count_ending_south(top - k, k)
                                      for k in range(top + 1)]}
    for tau in ("321", "213"):
        out[tau] = [families.count_fixed_point_class(top - k, k, tau) for k in range(top + 1)]
    return out


LIB = {
    "routes": lib_routes,
    "fe": lib_fe,
    "kappa": lib_kappa,
    "delta321": lib_delta321,
    "delta213": lib_delta213,
    "pi": lib_pi,
    "fixed-point": lib_fixed_point,
}


def run(argv: list[str]) -> int:
    if argv[0] == "cli":
        from matchboard import cli

        return cli.main(argv[1:])
    result = LIB[argv[1]](*argv[2:])
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace"]:
        return run(argv)
    import tracer

    out_path, argv = argv[1], argv[2:]
    trace = tracer.Tracer()
    trace.install()
    try:
        code = run(argv)
    finally:
        sys.stdout.flush()
        trace.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
