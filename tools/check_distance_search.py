"""Check the exhaustive distance search against the unpruned reference
search on every code that the acceptance suite's criterion 6
distance-checks, at the code's formula distance.

The reference is ``_unpruned_min_distance`` of ``tests/test_oracle.py``,
which tests every column subset one by one.  Prints one line for each
code whose distance, witness or count of subsets examined differs, then
a summary that also counts the codes whose certifying pass each method
settled: the information-set certificate or the column walk.  Exits 1
if any code differs.  Run from anywhere:

    python tools/check_distance_search.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gpcodes import oracle  # noqa: E402
from gpcodes.gpc import full_parity_matrix  # noqa: E402
from gpcodes.oracle import search_cost  # noqa: E402
from test_acceptance import DISTANCE_CHECK_BOUND, _small_param_grid  # noqa: E402
from test_oracle import (_pruned_min_distance,  # noqa: E402
                         _unpruned_min_distance)

METHODS = ("information sets", "the column walk")


def differences(codes, certified_by):
    """A line for each code whose search differs from the reference.
    Counts in ``certified_by`` the codes whose certifying pass each of
    ``METHODS`` settled."""
    real, verdicts = oracle._certify, []

    def certify(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    oracle._certify = certify
    try:
        for p in codes:
            h, d = full_parity_matrix(p), p.min_distance()
            verdicts.clear()
            got = _pruned_min_distance(h, d)
            certified_by[METHODS[0] if any(verdicts) else METHODS[1]] += 1
            want = _unpruned_min_distance(h, d)
            if got != want:
                yield (f"{p.notation()} at cap {d}: search {got}, "
                       f"reference {want}")
    finally:
        oracle._certify = real


def main() -> int:
    codes = [p for p in _small_param_grid()
             if search_cost(p.m * p.n, p.min_distance())
             <= DISTANCE_CHECK_BOUND]
    found, certified_by = 0, dict.fromkeys(METHODS, 0)
    for line in differences(codes, certified_by):
        print(line)
        found += 1
    print(f"{len(codes)} codes of criterion 6 checked, {found} differ; "
          + ", ".join(f"{count} certified by {method}"
                      for method, count in certified_by.items()))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
