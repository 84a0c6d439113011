"""Times scaled to a reference machine speed.

On a shared host the same pure-Python work can take anywhere from 0.17 s
to 0.30 s, in phases of a few seconds, depending on what other tenants
run; a run of the benchmark cannot avoid that, and medians within a run
do not remove it.  So every timed stretch is measured together with a
fixed reference run just before it (and, for whole processes, just
after it), and reported as ``raw * nominal / reference``.  A change to
the library leaves the references untouched, so its gains and losses
show in full; a slow phase of the host slows both and cancels out.

* Calls inside a process are scaled by :class:`Meter`, whose reference
  is a dense elimination over GF(2^8), written here in the library's
  style (list rows, log/exp tables, a method call per product) but
  sharing no code with it.
* Whole processes (CLI launches, set-up probes) are scaled by
  :func:`run_between_launches`, whose reference is an interpreter that
  imports a fixed set of standard-library modules.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable

# Duration of one reference run in a quiet phase of a 2-core Xeon host.
NOMINAL_S = 0.0007
LAUNCH_NOMINAL_S = 0.2
REFERENCE_LAUNCH = [
    sys.executable, "-c",
    "import argparse, asyncio, ast, dataclasses, decimal, email.parser, "
    "fractions, http.client, inspect, json, logging, tokenize, typing, "
    "unittest, xml.dom.minidom",
]
INTERVAL_S = 0.01       # run the reference at most this often
WINDOW = 5              # reference runs in the median

_EXP = [0] * 510
_LOG = [0] * 256
_v = 1
for _i in range(255):
    _EXP[_i], _LOG[_v] = _v, _i
    _v <<= 1
    if _v & 0x100:
        _v ^= 0x11D
_EXP[255:] = _EXP[:255]
del _v, _i

_rng = random.Random(0)
_MATRIX = [[_rng.randrange(1, 256) for _ in range(24)] for _ in range(12)]
del _rng


class _Field:
    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    def inv(self, a: int) -> int:
        return _EXP[255 - _LOG[a]]


def reference_work() -> list[list[int]]:
    """Reduced row echelon form of a fixed 12 x 24 matrix over GF(2^8)."""
    f = _Field()
    rows, cols = len(_MATRIX), len(_MATRIX[0])
    work = [row[:] for row in _MATRIX]
    pivot = 0
    for col in range(cols):
        if pivot == rows:
            break
        sel = next((i for i in range(pivot, rows) if work[i][col]), None)
        if sel is None:
            continue
        work[sel], work[pivot] = work[pivot], work[sel]
        inv = f.inv(work[pivot][col])
        work[pivot] = [f.mul(inv, x) for x in work[pivot]]
        prow = work[pivot]
        for i in range(rows):
            factor = work[i][col]
            if i != pivot and factor:
                work[i] = [x ^ f.mul(factor, y) for x, y in zip(work[i], prow)]
        pivot += 1
    return work


class Meter:
    """Starts timed operations and scales their durations.

    ``start()`` runs the reference when the last run is older than
    ``INTERVAL_S``, then returns ``perf_counter()``.  ``scale(raw)``
    does the same check once the operation is over, so that a long
    operation is scaled by runs from both its ends, and turns the raw
    duration into reference-speed seconds.  Raw and scaled totals are
    kept for the report.
    """

    def __init__(self):
        reference_work()                    # warm-up, not recorded
        self.samples: list[float] = []
        self._last = float("-inf")
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def start(self) -> float:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return perf_counter()

    def scale(self, raw: float) -> float:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        scaled = raw * NOMINAL_S / statistics.median(self.samples[-WINDOW:])
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled

    def report(self) -> dict:
        """Reference runs made, and the raw and scaled totals."""
        return {"reference_runs": len(self.samples),
                "reference_median_s": (statistics.median(self.samples)
                                       if self.samples else None),
                "raw_s": self.raw_s, "scaled_s": self.scaled_s}


def reference_launch() -> float:
    """Wall time of one reference interpreter launch."""
    t0 = perf_counter()
    subprocess.run(REFERENCE_LAUNCH, check=True, capture_output=True,
                   timeout=60)
    return perf_counter() - t0


def run_between_launches(tasks: list[Callable[[], tuple[object, float]]]
                         ) -> list[tuple[object, float, float]]:
    """Runs each task between two reference launches.

    A task returns ``(result, raw seconds)``; each comes back as
    ``(result, raw, scaled)``, scaled by the mean of the two launches
    around it.
    """
    before = reference_launch()
    out = []
    for task in tasks:
        result, raw = task()
        after = reference_launch()
        out.append((result, raw, raw * LAUNCH_NOMINAL_S * 2 / (before + after)))
        before = after
    return out
