"""Check the erasure oracle against the submatrix-rank reference on every
erasure pattern of the grid codes with mn <= 12.

For each of the 110 codes, each of its 2^(mn) patterns E, the empty one
included, must have ``oracle.correctable(E, H)`` equal to
``rank(H_E) == |E|``, with H the code's full parity check and H_E the
submatrix of its erased columns: 269 600 patterns in all.  Prints one
line for each pattern that differs, then a summary of the codes,
patterns and differences.  Exits 1 if any pattern differs.  Run from
anywhere:

    python tools/check_correctable.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gpcodes import oracle  # noqa: E402
from gpcodes.gpc import full_parity_matrix  # noqa: E402
from gpcodes.linalg import rank  # noqa: E402
from test_acceptance import _small_param_grid  # noqa: E402

MAX_CELLS = 12


def differences(codes, counts):
    """A line for each pattern of ``codes`` on which the oracle and the
    reference differ.  Counts the codes and patterns walked in
    ``counts``."""
    for p in codes:
        h, size = full_parity_matrix(p), p.m * p.n
        counts["codes"] += 1
        for mask in range(1 << size):
            cols = [i for i in range(size) if mask >> i & 1]
            counts["patterns"] += 1
            got = oracle.correctable(cols, h)
            want = rank(h.submatrix(cols=cols)) == len(cols)
            if got != want:
                yield f"{p.notation()} pattern {cols}: oracle {got}, rank {want}"


def main() -> int:
    codes = [p for p in _small_param_grid() if p.m * p.n <= MAX_CELLS]
    counts, found = {"codes": 0, "patterns": 0}, 0
    for line in differences(codes, counts):
        print(line)
        found += 1
    print(f"{counts['codes']} codes with mn <= {MAX_CELLS}, "
          f"{counts['patterns']} patterns checked, {found} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
