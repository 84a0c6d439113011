"""Check the exhaustive distance search against the unpruned reference
search on every code that the acceptance suite's criterion 6
distance-checks, at the code's formula distance.

The reference is ``_unpruned_min_distance`` of ``tests/test_oracle.py``,
which tests every column subset one by one.  Prints one line for each
code whose distance, witness or count of subsets examined differs, then
a summary, and exits 1 if any differs.  Run from anywhere:

    python tools/check_distance_search.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gpcodes.gpc import full_parity_matrix  # noqa: E402
from gpcodes.oracle import search_cost  # noqa: E402
from test_acceptance import DISTANCE_CHECK_BOUND, _small_param_grid  # noqa: E402
from test_oracle import (_pruned_min_distance,  # noqa: E402
                         _unpruned_min_distance)


def differences(codes):
    """A line for each code whose search differs from the reference."""
    for p in codes:
        h, d = full_parity_matrix(p), p.min_distance()
        got, want = _pruned_min_distance(h, d), _unpruned_min_distance(h, d)
        if got != want:
            yield f"{p.notation()} at cap {d}: search {got}, reference {want}"


def main() -> int:
    codes = [p for p in _small_param_grid()
             if search_cost(p.m * p.n, p.min_distance())
             <= DISTANCE_CHECK_BOUND]
    found = 0
    for line in differences(codes):
        print(line)
        found += 1
    print(f"{len(codes)} codes of criterion 6 checked, {found} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
