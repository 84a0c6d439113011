"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE --workload W --seed N --seconds S

MODE is one of

* ``setup``    -- import ``gpcodes`` and build the workload's codes only;
* ``run``      -- the untraced pass, then the workload's CLI jobs as
  ``gpcodes`` subprocesses, one at a time;
* ``baseline`` -- the untraced pass, then the CLI jobs replayed
  in-process through ``cli.main``: the reference for tracing overhead;
* ``traced``   -- the same as ``baseline`` with :class:`LayerTracer`
  installed, then ``python -X importtime -c "import gpcodes"`` probes.

Prints one JSON object on standard output.  ``run.py`` starts this
script; a fresh process per pass means every pass starts with empty
library caches.  Times are in reference-speed seconds (``reference.py``),
except the wall times used for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

from reference import Meter, run_between_launches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 60
IMPORTTIME_PROBES = 3


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """A ``gpcodes`` command line and its wall time."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gpcodes.cli", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc, perf_counter() - t0


def replay(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def import_times_ms() -> dict:
    """Cumulative import times of ``gpcodes`` and of ``sympy`` inside it,
    median over a few fresh interpreters."""
    samples = {"gpcodes": [], "sympy": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gpcodes"],
            capture_output=True, text=True, env=cli_env(), cwd=ROOT,
            timeout=CLI_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1000)
    return {name: statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "baseline", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    from gpcodes import cli, fields, gpc
    import workloads
    from tracer import LayerTracer

    gpc._TRIANGULATION_CACHE.clear()
    fields.default_field.cache_clear()
    wl = workloads.WORKLOADS[args.workload]
    tracer = LayerTracer()
    install_s = 0.0
    if args.mode == "traced":
        t0 = perf_counter()
        tracer.install()
        install_s = perf_counter() - t0
    try:
        out = one_pass(args, wl, tracer, cli, start, install_s)
        if args.mode == "traced":
            out["trace"] = {
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "raised": tracer.raised,
                "durations": tracer.durations,
                "subsets_examined": tracer.subsets_examined,
                "triangulation_cache_entries": len(gpc._TRIANGULATION_CACHE),
            }
    finally:
        tracer.uninstall()
    if args.mode == "traced":
        if not tracer.calls[wl.must_call]:
            print(f"error: the traced {args.workload} pass recorded no call "
                  f"to {wl.must_call}", file=sys.stderr)
            return 1
        out["trace"]["import_ms"] = import_times_ms()
    print(json.dumps(out))
    return 0


def one_pass(args, wl, tracer, cli, start: float, install_s: float) -> dict:
    codes = wl.build()
    setup_raw_s = perf_counter() - start - install_s
    if args.mode == "setup":
        return {"setup_raw_s": setup_raw_s}
    meter = Meter()
    with tracer.paused():
        inputs = wl.inputs(codes, args.seed, args.seconds)
    result = wl.run(codes, inputs, tracer, meter)
    session_ms, launch_ms = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        with tracer.paused():
            sessions = wl.cli_sessions(codes, inputs, Path(tmp))
        jobs = [job for session in sessions for job in session]
        if args.mode == "run":
            timed = run_between_launches([partial(launch, job.argv)
                                          for job in jobs])
            outcomes = [(proc.returncode, proc.stdout) for proc, _, _ in timed]
            launch_ms = [(job.argv[0], scaled * 1000)
                         for job, (_, _, scaled) in zip(jobs, timed)]
            rest = iter(ms for _, ms in launch_ms)
            session_ms = [sum(next(rest) for _ in session)
                          for session in sessions]
        else:
            outcomes = [replay(cli, job.argv) for job in jobs]
        for job, (code, out) in zip(jobs, outcomes):
            result.check(code == 0 and job.check(out),
                         f"gpcodes {job.argv[0]} exited {code}")
    return {
        "setup_raw_s": setup_raw_s,
        "wall_s": perf_counter() - start,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gpc_op_s": result.gpc_op_s,
        "epc_op_s": result.epc_op_s,
        "cli_session_ms": session_ms,
        "cli_launch_ms": launch_ms,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "details": result.details,
        "reference": meter.report(),
    }


if __name__ == "__main__":
    sys.exit(main())
