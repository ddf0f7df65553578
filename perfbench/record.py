"""Record the stdout of every op whose expected value has no reference
table or closed form, as golden/<op name>.out.  Run once, on the commit
whose outputs are taken as correct:

    python3 perfbench/record.py
"""

from __future__ import annotations

import sys

from run import OP_TIMEOUT_S, WORK, run_op
from workloads import GOLDEN_DIR, golden_ops


def main() -> int:
    WORK.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for op in golden_ops():
        path = GOLDEN_DIR / f"{op.name}.out"
        path.unlink(missing_ok=True)
        result = run_op(op, OP_TIMEOUT_S)
        if result.error != f"no recorded seed stdout {path.name}":
            print(f"{op.name}: {result.error}", file=sys.stderr)
            return 1
        path.write_bytes(result.stdout)
        print(f"{op.name}: {len(result.stdout)} bytes in {result.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
