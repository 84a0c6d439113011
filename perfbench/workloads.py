"""The benchmark's workloads: ``archive``, ``scrub`` and ``verify``.

Every workload is split the same way, so that ``worker.py`` can time
and trace each part on its own:

* ``build()`` constructs the fields and codes; ``setup_s`` times it
  together with ``import gpcodes``.
* ``inputs(codes, seed, seconds)`` derives every input from the seed
  before any timing.  Sizes grow with ``seconds`` and never depend on
  how fast the library runs, so two versions of the library always do
  the same work for the same arguments.
* ``run(codes, inputs, tracer, meter)`` times each call into the
  library's public functions, in reference-speed seconds (see
  ``reference.py``), and checks every output outside the timed region
  with the tracer paused.
* ``cli_sessions(codes, inputs, tmp)`` writes the files for the same
  kind of job done through the ``gpcodes`` command line and returns it
  as sessions: lists of command lines, each with a check of its output,
  that a user would run one after the other.

All library calls go through module attributes (``gpc.encode``, not a
name imported from ``gpcodes.gpc``) so that the tracer's wrappers see
them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field as dc_field
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

from gpcodes import epc, files, fields, gpc, linalg, oracle
from reference import Meter

# Sizing, per second of --seconds, from runs on a 2-core Xeon: each
# workload's measured loop then lasts roughly --seconds.
ARCHIVE_STRIPES_PER_S = 100
SCRUB_ARRAYS_PER_S = 30
SCRUB_WORDS_PER_S = 100
VERIFY_CODES_PER_S = 50     # 14 s and up run the whole 685-code list
CLI_SESSIONS = 3

# C(30;14,(2^8,4^4,8^4)) over GF(2^8): K=372, d=25.
G16_SPEC = {"kind": "gpc", "m": 16, "n": 30, "k": 14, "s": [8, 4, 4],
            "u": [2, 4, 8], "field": {"w": 8}}
H2_SHAPE = (15, 17)         # build_h2(15, 17) over GF(2^8): K=222, N=255

# The README's example specs.
README_SPECS = {
    "gpc": {"kind": "gpc", "m": 6, "n": 7, "k": 4, "s": [2, 1, 3],
            "u": [1, 3, 4]},
    "epc-g1": {"kind": "epc-g1", "m": 4, "v": 1, "n": 5, "h": 1},
    "epc-h2": {"kind": "epc-h2", "m": 3, "n": 3},
    "epc-h3": {"kind": "epc-h3", "m": 3, "n": 3,
               "field": {"w": 10, "modulus_hex": "7ff"}},
}
README_INFO_NK = {"gpc": (42, 19), "epc-g1": (20, 11), "epc-h2": (9, 2),
                  "epc-h3": (9, 1)}
README_DATA = "1 2 3 4 5 6 7 0 1 2 3\n"
README_ARRAY = "4 5 3\n1 2 3 4 4\n5 6 7 0 4\n1 2 3 5 5\n5 6 7 1 5\n"
README_VERIFY = {
    "epc-g1": ["rank=9 expected=9 OK", "d_bruteforce=6 d_formula=6 OK",
               "bound=6 d_formula=6 OK"],
    "epc-h2": ["d_bruteforce=8 expected=8 OK"],
    "epc-h3": ["condition35=ok d_bruteforce=9 expected=9 OK"],
}

GRID_SIZE = 1246            # criterion-6 grid: mn <= 24, at most 3 levels
GRID_COST_CAP = 120_000     # largest exhaustive search on the fixed list
VERIFY_LIST_SIZE = 685


@dataclass
class PassResult:
    """Per-operation timings and the correctness tally of one pass."""

    gpc_op_s: list[float] = dc_field(default_factory=list)
    epc_op_s: list[float] = dc_field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class CliJob:
    """One ``gpcodes`` command line and a check of its standard output."""

    argv: list[str]
    check: Callable[[str], bool]


def _expect_text(text: str) -> Callable[[str], bool]:
    return lambda out: out == text


def _expect_lines(lines: list[str]) -> Callable[[str], bool]:
    return lambda out: out.splitlines() == lines


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _hex(symbols) -> str:
    return " ".join(f"{v:x}" for v in symbols) + "\n"


# -- archive and scrub: the storage codes ---------------------------

def build_storage() -> dict:
    g16 = gpc.GpcParams(m=G16_SPEC["m"], n=G16_SPEC["n"], k=G16_SPEC["k"],
                        s=tuple(G16_SPEC["s"]), u=tuple(G16_SPEC["u"]),
                        field=fields.default_field(8)).check()
    h2 = epc.build_h2(*H2_SHAPE)
    h2.parity_positions()
    return {"G16": g16, "H2": h2}


def _g16_data_cells(g16: gpc.GpcParams) -> list[tuple[int, int]]:
    parity = g16.parity_positions()
    return [(r, c) for r in range(g16.m) for c in range(g16.n)
            if (r, c) not in parity]


def archive_inputs(codes: dict, seed: int, seconds: float) -> dict:
    """A seeded byte payload striped over both codes, and one loss
    pattern per code that every stripe suffers."""
    rng = random.Random(seed)
    g16, h2 = codes["G16"], codes["H2"]
    kg, kh = g16.dimension(), h2.dimension
    stripes = max(1, round(ARCHIVE_STRIPES_PER_S * seconds))
    payload = rng.randbytes(stripes * kg)
    padded = payload + bytes(-len(payload) % kh)
    # G16 loses two whole columns and one whole row.
    lost_cols = rng.sample(range(g16.n), 2)
    lost_row = rng.randrange(g16.m)
    g_loss = {(r, c) for r in range(g16.m) for c in lost_cols}
    g_loss |= {(lost_row, c) for c in range(g16.n)}
    # H2 loses one whole column and two more cells.
    m, n = H2_SHAPE
    col = rng.randrange(n)
    column = {i * n + col for i in range(m)}
    others = [j for j in range(h2.length) if j % n != col]
    while True:
        h_loss = column | set(rng.sample(others, 2))
        if oracle.correctable(h_loss, h2.check_matrix):
            break
    return {
        "payload_bytes": len(payload),
        "g_data": [list(payload[i:i + kg]) for i in range(0, len(payload), kg)],
        "h_data": [list(padded[i:i + kh]) for i in range(0, len(padded), kh)],
        "g_loss": g_loss,
        "h_loss": h_loss,
        "g_data_cells": _g16_data_cells(g16),
        "h_data_positions": h2.data_positions(),
    }


def run_archive(codes: dict, inp: dict, tracer, meter: Meter) -> PassResult:
    res = PassResult()
    g16, h2 = codes["G16"], codes["H2"]
    g_loss, h_loss = inp["g_loss"], inp["h_loss"]
    g_cells, h_pos = inp["g_data_cells"], inp["h_data_positions"]
    times = {"gpc_encode": [], "gpc_repair": [], "epc_encode": [],
             "epc_repair": []}
    for data in inp["g_data"]:
        t0 = meter.start()
        word = gpc.encode(data, g16)
        encode_s = meter.scale(perf_counter() - t0)
        damaged = gpc.erase_positions(word, g_loss)
        t0 = meter.start()
        repaired = gpc.decode_iterative(damaged, g16)
        repair_s = meter.scale(perf_counter() - t0)
        times["gpc_encode"].append(encode_s)
        times["gpc_repair"].append(repair_s)
        res.gpc_op_s.append(encode_s + repair_s)
        with tracer.paused():
            res.check(gpc.is_member(word, g16)
                      and [word.values[r][c] for r, c in g_cells] == data,
                      "G16 stripe encoded wrongly")
            res.check(repaired == word, "G16 stripe repaired wrongly")
    for data in inp["h_data"]:
        t0 = meter.start()
        word = epc.lc_encode(data, h2)
        encode_s = meter.scale(perf_counter() - t0)
        damaged = [0 if j in h_loss else v for j, v in enumerate(word)]
        t0 = meter.start()
        repaired = epc.lc_erasure_decode(damaged, h_loss, h2)
        repair_s = meter.scale(perf_counter() - t0)
        times["epc_encode"].append(encode_s)
        times["epc_repair"].append(repair_s)
        res.epc_op_s.append(encode_s + repair_s)
        with tracer.paused():
            res.check(epc.lc_is_member(word, h2)
                      and [word[j] for j in h_pos] == data,
                      "H2 stripe encoded wrongly")
            res.check(repaired == word, "H2 stripe repaired wrongly")
    res.details = {
        "payload_bytes": inp["payload_bytes"],
        "symbols": inp["payload_bytes"] * 2,
        "g16_stripes": len(inp["g_data"]),
        "h2_stripes": len(inp["h_data"]),
        "busy_s": {k: sum(v) for k, v in times.items()},
    }
    return res


def cli_sessions_archive(codes: dict, inp: dict,
                         tmp: Path) -> list[list[CliJob]]:
    """``encode`` a stripe of the payload, then ``decode`` it after the
    workload's loss pattern."""
    g16 = codes["G16"]
    spec = _write(tmp / "g16.json", json.dumps(G16_SPEC))
    sessions = []
    for i, data in enumerate(inp["g_data"][:CLI_SESSIONS]):
        word = gpc.encode(data, g16)
        text = files.array_to_text(word, 8)
        holes = files.array_to_text(gpc.erase_positions(word, inp["g_loss"]), 8)
        data_file = _write(tmp / f"data{i}.txt", _hex(data))
        holes_file = _write(tmp / f"holes{i}.txt", holes)
        sessions.append([CliJob(["encode", spec, data_file], _expect_text(text)),
                         CliJob(["decode", spec, holes_file], _expect_text(text))])
    return sessions


def scrub_inputs(codes: dict, seed: int, seconds: float) -> dict:
    """Encoded arrays and words, each with its own erasure pattern.

    Half of the G16 patterns come from the oracle's decodable-pattern
    sampler, half are uniform with weight between d and 2d.  The H2
    patterns have weight at most 7 and are checked correctable."""
    rng = random.Random(seed)
    g16, h2 = codes["G16"], codes["H2"]
    kg, kh = g16.dimension(), h2.dimension
    d = g16.min_distance()
    cells = [(r, c) for r in range(g16.m) for c in range(g16.n)]
    arrays, seen = [], set()
    while len(arrays) < max(1, round(SCRUB_ARRAYS_PER_S * seconds)):
        if len(arrays) % 2 == 0:
            pattern = oracle.random_decodable_pattern(g16, rng)
        else:
            pattern = set(rng.sample(cells, rng.randint(d, 2 * d)))
        key = frozenset(pattern)
        if not pattern or key in seen:
            continue
        seen.add(key)
        word = gpc.encode([rng.randrange(256) for _ in range(kg)], g16)
        arrays.append((word, pattern, gpc.erase_positions(word, pattern)))
    words, seen = [], set()
    while len(words) < max(1, round(SCRUB_WORDS_PER_S * seconds)):
        erased = frozenset(rng.sample(range(h2.length), rng.randint(1, 7)))
        if erased in seen or not oracle.correctable(erased, h2.check_matrix):
            continue
        seen.add(erased)
        word = epc.lc_encode([rng.randrange(256) for _ in range(kh)], h2)
        words.append((word, erased,
                      [0 if j in erased else v for j, v in enumerate(word)]))
    return {"arrays": arrays, "words": words,
            "g16_checks": gpc.full_parity_matrix(g16)}


def run_scrub(codes: dict, inp: dict, tracer, meter: Meter) -> PassResult:
    res = PassResult()
    g16, h2 = codes["G16"], codes["H2"]
    checks = inp["g16_checks"]
    recovered = within = 0
    for word, pattern, damaged in inp["arrays"]:
        t0 = meter.start()
        out = gpc.decode_iterative(damaged, g16)
        res.gpc_op_s.append(meter.scale(perf_counter() - t0))
        with tracer.paused():
            wrong = any(not out.erased[r][c]
                        and out.values[r][c] != word.values[r][c]
                        for r in range(g16.m) for c in range(g16.n))
            in_budget = gpc.decodable_profile(
                gpc.ErasureProfile.from_array(damaged), g16)
            within += in_budget
            done = out.erasure_count == 0
            agreed = done and oracle.correctable(
                [r * g16.n + c for r, c in pattern], checks)
            recovered += agreed
            res.check(not wrong and (done or not in_budget) and agreed == done,
                      f"G16 scrub of {len(pattern)} erasures: wrong={wrong} "
                      f"in_budget={in_budget} done={done} oracle={agreed}")
    for word, erased, damaged in inp["words"]:
        t0 = meter.start()
        out = epc.lc_erasure_decode(damaged, erased, h2)
        res.epc_op_s.append(meter.scale(perf_counter() - t0))
        res.check(out == word, f"H2 scrub of {len(erased)} erasures wrong")
    res.details = {
        "symbols": len(inp["arrays"]) * g16.m * g16.n
        + len(inp["words"]) * h2.length,
        "g16_arrays": len(inp["arrays"]),
        "g16_within_budget": within,
        "g16_recovered": recovered,
        "h2_words": len(inp["words"]),
    }
    return res


def cli_sessions_scrub(codes: dict, inp: dict,
                       tmp: Path) -> list[list[CliJob]]:
    """``decode`` two damaged arrays per session, with patterns from the
    decodable sampler."""
    spec = _write(tmp / "g16.json", json.dumps(G16_SPEC))
    jobs = []
    for i, (word, _, damaged) in enumerate(inp["arrays"][0:4 * CLI_SESSIONS:2]):
        holes = _write(tmp / f"holes{i}.txt", files.array_to_text(damaged, 8))
        jobs.append(CliJob(["decode", spec, holes],
                           _expect_text(files.array_to_text(word, 8))))
    return [jobs[i:i + 2] for i in range(0, len(jobs), 2)]


# -- verify: a code designer's session -------------------------------

def _grid():
    """Every parameter set with mn <= 24 and at most three levels, in
    the order of the acceptance suite's criterion 6."""
    for m in range(2, 13):
        for n in range(2, 13):
            if m * n > 24:
                continue
            field = fields.field_with_order(max(m, n))
            for t in (1, 2, 3):
                for u in itertools.combinations(range(1, n), t):
                    for cuts in itertools.combinations(range(1, m), t - 1):
                        s = tuple(b - a for a, b in
                                  zip((0,) + cuts, cuts + (m,)))
                        for k in range(max(1, m - s[-1] + 1), m + 1):
                            yield gpc.GpcParams(m=m, n=n, k=k, s=s, u=u,
                                                field=field)


def build_verify() -> dict:
    """The fixed code list: the grid codes whose exhaustive distance
    search, at the formula distance, covers at most 120 000 subsets."""
    grid = list(_grid())
    chosen = []
    for p in grid:
        d, cells = p.min_distance(), p.m * p.n
        cost = sum(comb(cells, c) for c in range(1, min(d, cells) + 1))
        if cost <= GRID_COST_CAP:
            chosen.append((p, cells - p.dimension(), d))
    if (len(grid), len(chosen)) != (GRID_SIZE, VERIFY_LIST_SIZE):
        raise RuntimeError(f"grid has {len(grid)} codes and the list "
                           f"{len(chosen)}; expected {GRID_SIZE} and "
                           f"{VERIFY_LIST_SIZE}")
    return {"list": chosen, "F13": fields.GF.from_prime(13)}


def verify_inputs(codes: dict, seed: int, seconds: float) -> dict:
    """The first codes of the fixed list (all of it from 15 s up) and
    every pattern of one to eight erasures of the 3x4 triple extension,
    the 495 of weight eight included.  The seed changes nothing: the
    list is fixed."""
    limit = max(1, round(VERIFY_CODES_PER_S * seconds))
    return {"list": codes["list"][:limit],
            "sweep": [p for w in range(1, 9)
                      for p in itertools.combinations(range(12), w)]}


def run_verify(codes: dict, inp: dict, tracer, meter: Meter) -> PassResult:
    res = PassResult()
    subsets = 0
    for p, expected_rank, d in inp["list"]:
        t0 = meter.start()
        h = gpc.full_parity_matrix(p)
        got_rank = linalg.rank(h)
        report = oracle.brute_min_distance(h, d)
        res.gpc_op_s.append(meter.scale(perf_counter() - t0))
        subsets += report.subsets_examined
        res.check(got_rank == expected_rank and report.distance == d,
                  f"{p.notation()}: rank {got_rank} (want {expected_rank}), "
                  f"distance {report.distance} (want {d})")
    t0 = meter.start()
    h2 = epc.build_h2(3, 3)
    report = oracle.brute_min_distance(h2.check_matrix, 8)
    res.epc_op_s.append(meter.scale(perf_counter() - t0))
    res.check(report.distance == 8, f"h2(3,3) distance {report.distance}")
    t0 = meter.start()
    h3 = epc.build_h3(3, 4, codes["F13"])
    report = oracle.brute_min_distance(h3.check_matrix, 9)
    res.epc_op_s.append(meter.scale(perf_counter() - t0))
    res.check(report.distance == 9, f"h3(3,4) distance {report.distance}")
    for pattern in inp["sweep"]:
        t0 = meter.start()
        ok = oracle.correctable(pattern, h3.check_matrix)
        res.epc_op_s.append(meter.scale(perf_counter() - t0))
        res.check(ok, f"h3(3,4) pattern {pattern} not correctable")
    res.details = {"codes": len(inp["list"]), "subsets_examined": subsets,
                   "sweep": len(inp["sweep"])}
    return res


def cli_sessions_verify(codes: dict, inp: dict,
                        tmp: Path) -> list[list[CliJob]]:
    """One session: ``info`` on the four spec kinds, the README encode
    -> punch -> decode round trip, and ``verify`` on the three epc
    specs."""
    specs = {kind: _write(tmp / f"{kind}.json", json.dumps(obj))
             for kind, obj in README_SPECS.items()}
    jobs = []
    for kind, (n_sym, k_sym) in README_INFO_NK.items():
        def check(out, kind=kind, nk=f"N={n_sym} K={k_sym}"):
            lines = out.splitlines()
            return lines[:1] == [f"kind: {kind}"] and any(
                ln.split(" d=")[0] == nk for ln in lines)
        jobs.append(CliJob(["info", specs[kind]], check))
    data = _write(tmp / "data.txt", README_DATA)
    holes_text = README_ARRAY.replace("\n1 ", "\n? ", 1)
    holes = _write(tmp / "holes.txt", holes_text)
    jobs.append(CliJob(["encode", specs["epc-g1"], data],
                       _expect_text(README_ARRAY)))
    jobs.append(CliJob(["decode", specs["epc-g1"], holes],
                       _expect_text(README_ARRAY)))
    for kind, lines in README_VERIFY.items():
        jobs.append(CliJob(["verify", specs[kind]], _expect_lines(lines)))
    return [jobs]


@dataclass(frozen=True)
class Workload:
    build: Callable[[], dict]
    inputs: Callable[[dict, int, float], dict]
    run: Callable[[dict, dict, object, Meter], PassResult]
    cli_sessions: Callable[[dict, dict, Path], list[list[CliJob]]]
    # a traced pass fails if this layer function recorded no call
    must_call: str


WORKLOADS = {
    "archive": Workload(build_storage, archive_inputs, run_archive,
                        cli_sessions_archive, "linalg.solve"),
    "scrub": Workload(build_storage, scrub_inputs, run_scrub,
                      cli_sessions_scrub, "linalg.row_reduce"),
    "verify": Workload(build_verify, verify_inputs, run_verify,
                       cli_sessions_verify, "oracle.brute_min_distance"),
}
