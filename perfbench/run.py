"""Benchmark entry point.

    python3 perfbench/run.py --workload {archive,scrub,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each pass runs in a fresh
interpreter (``worker.py``), one at a time.  With ``--trace 0`` the run
measures the end-to-end metrics: set-up time over several fresh
processes, then one untraced pass of the workload and its ``gpcodes``
command-line sessions.  With ``--trace 1`` it makes an untraced and a
traced pass over the same inputs and reports the per-layer metrics and
the tracing overhead.

Standard output ends with two JSON lines: a full report (provenance,
each metric with its quartiles and sample count, and the workload's
named figures), then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

from reference import run_between_launches
from tracer import COUNTED, SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("archive", "scrub", "verify")
SETUP_PROBES = 5
DEADLINE_S = 170

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_MB": "MB",
    "gpc_ops_per_s": "1/s",
    "gpc_op_p50_ms": "ms",
    "epc_ops_per_s": "1/s",
    "cli_ms": "ms",
}

# name -> unit; the subset of the traced figures that BENCHMARK.json lists.
PER_LAYER = {
    "fields.GF.mul.calls": "count",
    "fields.GF.pow.calls": "count",
    "fields.GF.inv.calls": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.row_reduce.calls": "count",
    "linalg.row_reduce.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.kron.self_s": "s",
    "linalg.vandermonde.self_s": "s",
    "gpc.encode.self_s": "s",
    "gpc.decode_rows.calls": "count",
    "gpc.decode_rows.self_s": "s",
    "gpc.decode_rows.refused": "count",
    "gpc.decode_rows.useful_ratio": "ratio",
    "gpc.decode_iterative.self_s": "s",
    "gpc.decode_iterative.p99_ms": "ms",
    "gpc.triangulation_cache.entries": "count",
    "gpc.full_parity_matrix.self_s": "s",
    "epc.lc_encode.self_s": "s",
    "epc.lc_erasure_decode.calls": "count",
    "epc.lc_erasure_decode.self_s": "s",
    "epc.LinearCode.parity_positions.self_s": "s",
    "epc.build_h2.self_s": "s",
    "oracle.brute_min_distance.self_s": "s",
    "oracle.subsets_examined": "count",
    "oracle.subsets_per_s": "1/s",
    "oracle.correctable.self_s": "s",
    "files.load_code_spec.self_s": "s",
    "files.read_symbols.self_s": "s",
    "files.parse_array_text.self_s": "s",
    "files.array_to_text.self_s": "s",
    "cli.import_ms": "ms",
    "cli.import.sympy_ms": "ms",
    "trace.overhead_s": "s",
}


class PassError(RuntimeError):
    """A worker pass failed or timed out."""


def stats(values: list[float], unit: str, value: float | None = None) -> dict:
    """A figure with the median and quartiles of its samples."""
    if not values:
        return {"value": value, "unit": unit, "n": 0}
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"value": med if value is None else value, "unit": unit,
            "n": len(values), "q1": q1, "median": med, "q3": q3}


def rate(op_s: list[float]) -> dict:
    """Operations per second of the time spent in them; quartiles are
    of the per-operation rates."""
    value = len(op_s) / sum(op_s) if op_s else 0.0
    return stats([1 / t for t in op_s if t > 0], "1/s", value)


def worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise PassError(f"no time left for the {mode} pass")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass timed out") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    probes = run_between_launches(
        [lambda: (None, worker("setup", args, deadline)["setup_raw_s"])]
        * SETUP_PROBES)
    setups = [scaled for _, _, scaled in probes]
    main = worker("run", args, deadline)
    gpc_s, epc_s = main["gpc_op_s"], main["epc_op_s"]
    figures = {
        "setup_s": stats(setups, "s"),
        "peak_rss_MB": stats([main["peak_rss_MB"]], "MB"),
        "gpc_ops_per_s": rate(gpc_s),
        "gpc_op_p50_ms": stats([t * 1000 for t in gpc_s], "ms"),
        "epc_ops_per_s": rate(epc_s),
        "cli_ms": stats(main["cli_session_ms"], "ms"),
    }
    return figures, named_figures(args.workload, main), [main]


def named_figures(workload: str, main: dict) -> dict:
    """The figures the workload exists for, under their own names."""
    det = main["details"]
    gpc_s, epc_s = main["gpc_op_s"], main["epc_op_s"]
    out = {"failed_ratio": {"value": main["failed"] / max(1, main["attempted"]),
                            "unit": "ratio", "n": main["attempted"]}}
    launches = main["cli_launch_ms"]
    if workload == "archive":
        mb = det["payload_bytes"] / 1e6
        for name, busy in det["busy_s"].items():
            out[f"{name}_MBps"] = {"value": mb / busy, "unit": "MB/s",
                                   "busy_s": busy}
    elif workload == "scrub":
        out["gpc_scrub_arrays_per_s"] = rate(gpc_s)
        out["gpc_decode_p50_ms"] = stats([t * 1000 for t in gpc_s], "ms")
        out["iterative_recovered_ratio"] = {
            "value": det["g16_recovered"] / det["g16_arrays"],
            "unit": "ratio", "n": det["g16_arrays"]}
        out["epc_scrub_words_per_s"] = rate(epc_s)
    else:
        out["verify_s"] = {"value": sum(gpc_s) + sum(epc_s), "unit": "s",
                           "n": len(gpc_s) + len(epc_s)}
        out["cli_info_ms"] = stats(
            [ms for cmd, ms in launches if cmd == "info"], "ms")
        out["cli_roundtrip_ms"] = {
            "value": sum(ms for cmd, ms in launches
                         if cmd in ("encode", "decode")),
            "unit": "ms", "n": 1}
    return out


def per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    base = worker("baseline", args, deadline)
    traced = worker("traced", args, deadline)
    tr = traced["trace"]
    # Self times are raw inside the spans; scale them like the pass's
    # timed calls so that they compare across runs.
    ref = traced["reference"]
    speed = ref["scaled_s"] / ref["raw_s"] if ref["raw_s"] else 1.0
    figures = {}
    for name in SPANNED:
        figures[f"{name}.calls"] = tr["calls"][name]
        figures[f"{name}.self_s"] = tr["self_s"][name] * speed
    for name in COUNTED:
        figures[f"{name}.calls"] = tr["calls"][name]
    rows = tr["calls"]["gpc.decode_rows"]
    refused = tr["raised"]["gpc.decode_rows"]
    figures["gpc.decode_rows.refused"] = refused
    figures["gpc.decode_rows.useful_ratio"] = (rows - refused) / rows if rows else 0.0
    durations = tr["durations"]["gpc.decode_iterative"]
    figures["gpc.decode_iterative.p99_ms"] = 1000 * speed * (
        statistics.quantiles(durations, n=100)[98] if len(durations) > 1
        else sum(durations))
    figures["gpc.triangulation_cache.entries"] = tr["triangulation_cache_entries"]
    brute_s = figures["oracle.brute_min_distance.self_s"]
    figures["oracle.subsets_examined"] = tr["subsets_examined"]
    figures["oracle.subsets_per_s"] = (tr["subsets_examined"] / brute_s
                                       if brute_s else 0.0)
    figures["cli.import_ms"] = tr["import_ms"]["gpcodes"]
    figures["cli.import.sympy_ms"] = tr["import_ms"]["sympy"]
    figures["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    decodes = len(traced["gpc_op_s"])
    symbols = traced["details"].get("symbols")
    named = {
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "linalg.row_reduce.calls_per_gpc_op":
            tr["calls"]["linalg.row_reduce"] / max(1, decodes),
    }
    if symbols:
        for name in COUNTED:
            named[f"{name}.calls_per_symbol"] = tr["calls"][name] / symbols
    return figures, named, [base, traced]


def provenance() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "sympy": version("sympy"), "numpy": version("numpy"),
            "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (a
    checkout that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gpcodes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpcodes" / "__init__.py").is_file():
        print(f"error: no gpcodes sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            figures, named, passes = per_layer(args, deadline)
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            figures, named, passes = end_to_end(args, deadline)
            metrics = {name: {"value": figures[name]["value"], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), "metrics": figures, "named": named,
        "reference": [p["reference"] for p in passes],
        "failures": [msg for p in passes for msg in p["failures"]],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
