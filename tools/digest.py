"""Print one sha256 over the library's outputs on seeded inputs.

The digest is a bit-identity check: a change that must not alter any
output, error or trace prints the same digest before and after.  The
inputs are built here from fixed seeds, with no benchmark import:

* G16, C(30;14,(2^8,4^4,8^4)) over GF(2^8), with archive-like losses
  (two whole columns and one whole row) and scrub-like patterns (half
  from ``oracle.random_decodable_pattern``, half uniform of weight d to
  2d);
* the 6 x 7 flagship, s = (2, 1, 3) and u = (1, 3, 4), over GF(2^3),
  GF(2^10) and GF(2^20); a k = m code; the 4 x 5 code with s = (2, 2)
  and u = (1, 2) over ``GF.from_prime(19)``;
* ``build_h2(15, 17)`` and ``build_h3(5, 5)`` words with losses the
  peel finishes, and a 2 x 2 stopping set repeated until its plan is
  compiled.

Each code encodes three words, so a compiled encoder runs, and each
array or word is decoded as it is and once more with one changed
survivor.  Hashed, in order: ``encode``, ``is_member``, ``decode_rows``
with its ``DecodeTrace`` (row order, counts, system and steps),
``decode_iterative`` (values and mask), ``lc_encode`` and
``lc_erasure_decode``; for every raise, its class name, its message and
its sorted ``remaining``.  Run from anywhere:

    python tools/digest.py
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gpcodes.epc import build_h2, build_h3, lc_encode  # noqa: E402
from gpcodes.epc import lc_erasure_decode  # noqa: E402
from gpcodes.fields import GF, default_field  # noqa: E402
from gpcodes.gpc import (DecodeTrace, GpcParams, SymbolArray,  # noqa: E402
                         decode_iterative, decode_rows, encode,
                         erase_positions, is_member)
from gpcodes.oracle import random_decodable_pattern  # noqa: E402

G16 = GpcParams(m=16, n=30, k=14, s=(8, 4, 4), u=(2, 4, 8),
                field=default_field(8))
FLAGSHIPS = [GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=f)
             for f in (default_field(3), default_field(10),
                       GF(20, 0x100009))]
K_EQ_M = GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 2), field=default_field(4))
PRIME = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=GF.from_prime(19))


class Digest:
    """A running sha256 over the repr of each item fed to it."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.items = self.raised = 0

    def add(self, *item) -> None:
        self.hash.update(repr(item).encode() + b"\n")
        self.items += 1

    def call(self, tag: str, fn, *args):
        """``fn(*args)``, or None after hashing what it raised."""
        try:
            return fn(*args)
        except ValueError as exc:
            remaining = getattr(exc, "remaining", None)
            self.add(tag, type(exc).__name__, str(exc),
                     None if remaining is None else sorted(remaining))
            self.raised += 1
            return None


def _changed(values: list[int], erased: set, top: int,
             rng: random.Random) -> list[int]:
    # A copy of ``values`` with one survivor outside ``erased`` changed.
    out = list(values)
    j = rng.choice([j for j in range(len(out)) if j not in erased])
    out[j] ^= rng.randrange(1, top)
    return out


def _decode_array(digest: Digest, params: GpcParams, word: SymbolArray,
                  pattern: set, rng: random.Random) -> None:
    # Both decoders on ``word`` with ``pattern`` erased, then again with
    # one survivor changed, and membership of the changed word.
    top = 1 << params.field.w
    flat = {r * params.n + c for r, c in pattern}
    changed = _changed(word.flatten(), flat, top, rng)
    rows = [changed[r:r + params.n] for r in range(0, len(changed), params.n)]
    digest.add("changed member", digest.call("member", is_member,
                                             SymbolArray(rows), params))
    for arr in (erase_positions(word, pattern),
                erase_positions(SymbolArray(rows), pattern)):
        trace = DecodeTrace()
        out = digest.call("rows", decode_rows, arr, params, trace)
        digest.add("rows", None if out is None else out.values,
                   trace.row_order, trace.counts,
                   None if trace.system is None else trace.system.data,
                   trace.steps)
        out = digest.call("iterative", decode_iterative, arr, params)
        digest.add("iterative",
                   None if out is None else (out.values, out.erased))


def _array_code(digest: Digest, params: GpcParams, patterns,
                seed: int) -> None:
    # Three encodes of the code, membership of each word, and the
    # patterns ``patterns(rng)`` decoded on the last word.
    rng = random.Random(seed)
    top = 1 << params.field.w
    for _ in range(3):
        word = encode([rng.randrange(top) for _ in range(params.dimension())],
                      params)
        digest.add("encode", params, word.values)
        digest.add("member", is_member(word, params))
    for pattern in patterns(rng):
        digest.add("pattern", sorted(pattern))
        _decode_array(digest, params, word, pattern, rng)


def _archive_losses(params: GpcParams, count: int):
    def patterns(rng):
        for _ in range(count):
            cols = rng.sample(range(params.n), 2)
            row = rng.randrange(params.m)
            yield ({(r, c) for r in range(params.m) for c in cols}
                   | {(row, c) for c in range(params.n)})
    return patterns


def _scrub_patterns(params: GpcParams, count: int):
    cells = [(r, c) for r in range(params.m) for c in range(params.n)]
    d = params.min_distance()

    def patterns(rng):
        for i in range(count):
            if i % 2 == 0:
                yield random_decodable_pattern(params, rng)
            else:
                yield set(rng.sample(cells, rng.randint(d, min(2 * d,
                                                               len(cells)))))
    return patterns


def _flat_code(digest: Digest, code, losses, seed: int) -> None:
    # Three encodes of the flat code, then each loss decoded on the last
    # word, as it is and with one survivor changed.
    rng = random.Random(seed)
    top = 1 << code.field.w
    for _ in range(3):
        word = digest.call("lc_encode", lc_encode,
                           [rng.randrange(top) for _ in range(code.dimension)],
                           code)
        digest.add("lc_encode", code.length, word)
    for erased in losses:
        for values in (word, _changed(word, erased, top, rng)):
            digest.add("lc_decode", sorted(erased), digest.call(
                "lc_decode", lc_erasure_decode, values, erased, code))


def _peeling_losses(m: int, n: int, count: int, rng: random.Random):
    # Losses the peel finishes: one cell in each of ``count`` distinct
    # rows and columns.
    rows, cols = rng.sample(range(m), count), rng.sample(range(n), count)
    return [{r * n + c} for r, c in zip(rows, cols)] + [
        {r * n + c for r, c in zip(rows, cols)}]


def compute() -> Digest:
    digest = Digest()
    _array_code(digest, G16, _archive_losses(G16, 3), 1)
    _array_code(digest, G16, _scrub_patterns(G16, 12), 2)
    for i, params in enumerate([*FLAGSHIPS, K_EQ_M, PRIME]):
        _array_code(digest, params, _scrub_patterns(params, 40), 10 + i)
    rng = random.Random(20)
    for code, (m, n) in ((build_h2(15, 17), (15, 17)),
                         (build_h3(5, 5), (5, 5))):
        losses = _peeling_losses(m, n, 3, rng)
        r0, r1 = rng.sample(range(m), 2)
        c0, c1 = rng.sample(range(n), 2)
        square = {r0 * n + c0, r0 * n + c1, r1 * n + c0, r1 * n + c1}
        _flat_code(digest, code, losses + [square] * 3, 30 + m)
    return digest


def main() -> int:
    digest = compute()
    print(f"{digest.hash.hexdigest()} ({digest.items} items, "
          f"{digest.raised} raised)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
