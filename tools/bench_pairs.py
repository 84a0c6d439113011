"""Run the benchmark alternately in two checkouts and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload scrub --seed 402 \\
        --seconds 15 --pairs 5 [--out BENCH_N.json]

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once from the root of each checkout, one
process at a time, the parent first in odd pairs and the change first
in even ones.  Bytecode is not written (``PYTHONDONTWRITEBYTECODE=1``),
so no run leaves a cache that speeds up the later ones.  A cache already
there is still read and lowers ``setup_s`` and ``cli_ms``, so the tool
exits 2 before any run when only one checkout holds
``src/gpcodes/__pycache__``.  For every end-to-end
metric of ``BENCHMARK.json`` it prints the parent's median and
interquartile range, the change's median, their ratio (change over
parent), the pairs the change won, and whether the change's median
lies within the metric's bound.  Next to them it prints the same for
archive's encode and repair throughputs, each family apart
(``THROUGHPUTS``, in MB/s, higher better, no bound), read from the
report line that precedes the result line.  ``--out`` adds the series
to a JSON record, created if missing, under
``summary["<workload>_seed<seed>"]`` and ``runs``, the shape the
``BENCH_*.json`` files keep.  Exits 1 when any run fails an operation
or reports wrong outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Named figures of archive's report, one per family and step.
THROUGHPUTS = ("gpc_encode_MBps", "gpc_repair_MBps", "epc_encode_MBps",
               "epc_repair_MBps")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``checkout``, with
    the values of the report's ``THROUGHPUTS`` under ``"named"``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    named = json.loads(lines[-2])["report"]["named"]
    return {**json.loads(lines[-1]), "named": {
        name: named[name]["value"] for name in THROUGHPUTS if name in named}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric comparison of a series of runs.

    ``runs`` holds ``{"side": "parent" | "change", "pair": i, "result":
    <run.py result line>}`` for each run, and ``metrics`` the
    ``end_to_end`` entries of ``BENCHMARK.json`` (name, better, bound).
    A pair is won when the change's value is better than the parent's.
    The ``THROUGHPUTS`` that every result holds under ``"named"`` are
    compared the same way, with no bound.
    """
    results = {(r["side"], r["pair"]): r["result"] for r in runs}
    pairs = sorted({p for side, p in results if side == "parent"}
                   & {p for side, p in results if side == "change"})
    out = {"pairs": len(pairs),
           "failed_parent": sum(results["parent", p]["failed"] for p in pairs),
           "failed_change": sum(results["change", p]["failed"] for p in pairs),
           "correct": all(results[side, p]["correct"] for p in pairs
                          for side in ("parent", "change"))}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        out[name] = _compare(
            [[results[side, p]["metrics"][name]["value"] for p in pairs]
             for side in ("parent", "change")], higher)
        ratio, bound = out[name]["ratio"], metric["bound"]
        out[name]["within_bound"] = (ratio >= 1 - bound if higher
                                     else ratio <= 1 + bound)
    for name in THROUGHPUTS:
        if pairs and all(name in r.get("named", {}) for r in results.values()):
            out[name] = _compare(
                [[results[side, p]["named"][name] for p in pairs]
                 for side in ("parent", "change")], True)
    return out


def _compare(series: list[list[float]], higher: bool) -> dict:
    # The parent's median and interquartile range, the change's median,
    # their ratio and the change's wins, from the two sides' values.
    parent, change = series
    q1, parent_median, q3 = _quartiles(parent)
    change_median = statistics.median(change)
    return {"parent_median": round(parent_median, 4),
            "parent_iqr": round(q3 - q1, 4),
            "change_median": round(change_median, 4),
            "ratio": round(change_median / parent_median, 3),
            "wins": sum((c > p) if higher else (c < p)
                        for p, c in zip(parent, change))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    caches = [Path(checkout) / "src" / "gpcodes" / "__pycache__"
              for checkout in (args.parent, args.change)]
    held = [cache for cache in caches if cache.is_dir()]
    if len(held) == 1:
        print(f"error: only checkout {held[0].parents[2]} holds a bytecode "
              f"cache, which lowers setup_s and cli_ms; clear it with "
              f"rm -r {held[0]}", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs = []
    for pair in range(1, args.pairs + 1):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if pair % 2 else sides[::-1]:
            result = run_once(checkout, args.workload, args.seed, args.seconds)
            runs.append({"side": side, "workload": args.workload,
                         "seed": args.seed, "pair": pair, "result": result})
    summary = {"seed": args.seed, **summarise(runs, metrics)}
    key = f"{args.workload}_seed{args.seed}"
    print(f"{key}: {summary['pairs']} pairs, failed "
          f"{summary['failed_parent']} / {summary['failed_change']}, "
          f"correct {summary['correct']}")
    for name in [m["name"] for m in metrics] + list(THROUGHPUTS):
        if name in summary:
            s = summary[name]
            bound = (f", within bound {s['within_bound']}"
                     if "within_bound" in s else "")
            print(f"  {name}: parent {s['parent_median']} "
                  f"(IQR {s['parent_iqr']}), change {s['change_median']}, "
                  f"ratio {s['ratio']}, won {s['wins']} of "
                  f"{summary['pairs']}{bound}")
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.setdefault("summary", {})[key] = summary
        record["runs"] = record.get("runs", []) + runs
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = summary["correct"] and not summary["failed_parent"] + \
        summary["failed_change"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
