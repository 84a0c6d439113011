"""Walk every single-flip decode of the small grid codes and count how
each decoder answers.

For each grid code of the acceptance suite with mn <= LIMIT (default
8), every erasure pattern E and every survivor j outside E, the zero
codeword with E erased and a 1 written at j goes to ``decode_rows`` and
to ``decode_iterative``.  For a fixed pattern every step of a decode
depends on the pattern alone, and every fill and check is linear, so
this one flip stands for every codeword and every nonzero flip value.
Each (E, j) pair ends one way:

* ``raised``: the decoder raises ``UncorrectableError``, its
  ``ContradictionError`` included;
* ``stalled``: ``decode_iterative`` returns cells still erased;
* ``codeword``: it returns a codeword: E and j hold the support of a
  codeword, so no decoder can see the flip;
* ``silent``: it returns a full array that is no codeword.

Pairs are split at |E| + 1 < d, where E and j together are
correctable, so a decode must raise.  Prints one line per decoder and
side of that bound.  Run from anywhere:

    python tools/flip_walk.py [LIMIT]
"""

import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gpcodes.gpc import (SymbolArray, UncorrectableError,  # noqa: E402
                         decode_iterative, decode_rows, is_member)
from test_acceptance import _small_param_grid  # noqa: E402

DECODERS = (decode_rows, decode_iterative)
OUTCOMES = ("raised", "stalled", "codeword", "silent")


def outcome(decoder, arr, params) -> str:
    """How ``decoder`` answers ``arr``: one of OUTCOMES."""
    try:
        out = decoder(arr, params)
    except UncorrectableError:
        return "raised"
    if out.erasure_count:
        return "stalled"
    return "codeword" if is_member(out, params) else "silent"


def walk(limit: int) -> dict[str, Counter]:
    """Per decoder name, the count of (E, j) pairs by (within, outcome),
    ``within`` true when |E| + 1 < d, over the grid codes with
    mn <= ``limit``."""
    counts = {decoder.__name__: Counter() for decoder in DECODERS}
    for p in _small_param_grid():
        size, d = p.m * p.n, p.min_distance()
        if size > limit:
            continue
        for mask in range(1 << size):
            erased = [divmod(i, p.n) for i in range(size) if mask >> i & 1]
            for j in range(size):
                if mask >> j & 1:
                    continue
                arr = SymbolArray.zeros(p.m, p.n)
                for r, c in erased:
                    arr.erase(r, c)
                arr.fill(*divmod(j, p.n), 1)
                within = len(erased) + 1 < d
                for decoder in DECODERS:
                    key = within, outcome(decoder, arr, p)
                    counts[decoder.__name__][key] += 1
    return counts


def main(argv: list[str]) -> int:
    limit = int(argv[0]) if argv else 8
    start = time.perf_counter()
    counts = walk(limit)
    for name, tally in counts.items():
        for within, side in ((True, "|E| + 1 < d"), (False, "beyond")):
            total = sum(tally[within, kind] for kind in OUTCOMES)
            parts = ", ".join(f"{tally[within, kind]} {kind}"
                              for kind in OUTCOMES)
            print(f"{name}, {side}: {total} pairs: {parts}")
    print(f"mn <= {limit}, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
