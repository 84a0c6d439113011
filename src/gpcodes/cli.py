"""Command-line front end.

Subcommands: ``info``, ``bound``, ``encode``, ``decode``, ``verify``,
``find-prime``.  Exit codes: 0 success, 2 malformed input or invalid
code description, 3 erasure pattern beyond the decoder's reach,
4 verification mismatch, 5 search budget exceeded, 6 standard output
closed by its reader, 7 surviving symbols that contradict the code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import epc, files, gpc
from .fields import PrimeSearchError, find_construction_prime
from .linalg import rank

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_UNCORRECTABLE = 3
EXIT_MISMATCH = 4
EXIT_BUDGET = 5
EXIT_PIPE = 6
EXIT_CONTRADICTION = 7


def _field_line(field) -> str:
    return (f"field: GF(2^{field.w}) modulus={field.modulus:#x} "
            f"alpha={field.alpha} order(alpha)={field.alpha_order}")


def _write_output(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fp:
            fp.write(text)
    except OSError as exc:
        raise files.SpecFileError(f"cannot write {path}: {exc}") from exc


def cmd_info(args) -> int:
    spec = files.load_code_spec(args.code)
    print(f"kind: {spec.kind}")
    if spec.params is not None:
        p = spec.params
        print(f"code: {p.notation()}")
        print(f"N={p.m * p.n} K={p.dimension()} d={p.min_distance()}")
        print(_field_line(p.field))
        print(f"levels: m={p.m} n={p.n} k={p.k} s={p.s} u={p.u}")
        print(f"parity cells: {len(p.parity_positions())}")
        if spec.shape is not None:
            print(f"shape: {spec.shape} bound: {spec.bound}")
        try:
            print(f"transpose: {p.transposed().notation()}")
        except ValueError:
            print("transpose: undefined (k = m)")
    else:
        print(f"shape: {spec.shape}")
        print(f"N={spec.linear.length} K={spec.linear.dimension}")
        print(_field_line(spec.field))
        print(f"distance upper bound: {spec.bound}")
    return EXIT_OK


def cmd_bound(args) -> int:
    shape = epc.EpcShape(args.m, args.v, args.n, args.h, args.g)
    bound, table = epc.distance_bound(shape)
    for a in sorted(table):
        print(f"a={a}: {table[a]}")
    print(f"bound: {bound}")
    return EXIT_OK


def cmd_encode(args) -> int:
    spec = files.load_code_spec(args.code)
    w = spec.field.w
    arr = spec.encode(files.read_symbols(args.data, w))
    _write_output(args.output, files.array_to_text(arr, w))
    return EXIT_OK


def _gpc_only(spec, option: str, used) -> None:
    # Options that run the gpc decoders need a gpc or epc-g1 code.
    if used and spec.params is None:
        raise ValueError(f"{option} needs a gpc or epc-g1 code, got kind "
                         f"{spec.kind!r}")


def cmd_decode(args) -> int:
    spec = files.load_code_spec(args.code)
    _gpc_only(spec, "--single-pass", args.single_pass)
    arr, w = files.read_array(args.array)
    if w != spec.field.w:
        raise files.SpecFileError(
            f"array symbol width {w} does not match field width {spec.field.w}")
    try:
        result = (gpc.decode_rows(arr, spec.params) if args.single_pass
                  else spec.decode(arr))
    except gpc.UncorrectableError as exc:
        print(f"uncorrectable: {exc}; unresolved positions "
              f"{sorted(exc.remaining)}", file=sys.stderr)
        return (EXIT_CONTRADICTION if isinstance(exc, gpc.ContradictionError)
                else EXIT_UNCORRECTABLE)
    _write_output(args.output, files.array_to_text(result, w))
    if result.erasure_count:
        residual = result.erased_positions()
        print(f"uncorrectable: {len(residual)} unresolved positions "
              f"{residual}", file=sys.stderr)
        return EXIT_UNCORRECTABLE
    return EXIT_OK


def _verdict(line: str, ok: bool) -> bool:
    print(line + (" OK" if ok else " MISMATCH"))
    return ok


def _brute_force(h, args, prefix: str, target: str, floor: int,
                 accept) -> bool | None:
    # Exhaustive distance check up to --exhaustive-cap, or else the
    # floor; a cap below the floor that is hit gives no verdict (None).
    from . import oracle     # loaded by verify only, not at start-up
    cap = args.exhaustive_cap or floor
    budget = oracle.DEFAULT_BUDGET if args.budget is None else args.budget
    try:
        d = oracle.brute_min_distance(h, cap, budget=budget).distance
    except oracle.DistanceCapError:
        if cap >= floor:
            return _verdict(f"{prefix}d_bruteforce>{cap} {target}", False)
        print(f"{prefix}d_bruteforce>{cap} {target} INCONCLUSIVE")
        return None
    except oracle.SearchBudgetError as exc:
        print(f"{prefix}d_bruteforce=skipped ({exc})")
        return None
    return _verdict(f"{prefix}d_bruteforce={d} {target}", accept(d))


def cmd_verify(args) -> int:
    from . import oracle
    spec = files.load_code_spec(args.code)
    p = spec.params
    _gpc_only(spec, "--random", args.random)
    verdicts: list[bool | None] = []
    if p is not None:
        h = gpc.full_parity_matrix(p)
        expected_rank = p.m * p.n - p.dimension()
        got_rank = rank(h)
        verdicts.append(_verdict(f"rank={got_rank} expected={expected_rank}",
                                 got_rank == expected_rank))
        floor = p.min_distance()
        target = f"d_formula={floor}"
    else:
        h, floor = spec.linear.check_matrix, spec.bound
        target = f"expected={floor}"
    prefix, accept = "", lambda d: d == floor
    if spec.kind == "epc-h3" and floor == 9:
        violation = epc.check_condition_35(spec.shape.m, spec.shape.n,
                                           spec.field)
        if violation is None:
            prefix = "condition35=ok "
        else:
            # the distance must then fall short of 9
            prefix = f"condition35=violated{violation} "
            target, accept = "expected=<9", lambda d: d < floor
    verdicts.append(_brute_force(h, args, prefix, target, floor, accept))
    if p is not None and spec.bound is not None:
        verdicts.append(_verdict(f"bound={spec.bound} d_formula={floor}",
                                 spec.bound == floor))
    if p is not None and args.random:
        report = oracle.decoder_oracle_equivalence(p, args.random, args.seed)
        verdicts.append(_verdict(
            f"random trials: {report.trials} seed={report.seed} "
            f"mismatches={len(report.mismatches)}", not report.mismatches))
        for msg in report.mismatches[:10]:
            print(f"  {msg}", file=sys.stderr)
    if False in verdicts:
        return EXIT_MISMATCH
    if None in verdicts:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_find_prime(args) -> int:
    print(find_construction_prime(args.min_size))
    return EXIT_OK


def _at_least(low: int):
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcodes",
        description="Erasure codes on symbol arrays: inspect, encode, "
                    "decode and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print code parameters")
    p.add_argument("code", help="JSON code description")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bound", help="distance upper bound for an extended "
                                     "product shape")
    for name in ("m", "v", "n", "h", "g"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("encode", help="systematic encode of a data file")
    p.add_argument("code")
    p.add_argument("data", help="whitespace-separated hex data symbols")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover erased symbols in an array file")
    p.add_argument("code")
    p.add_argument("array")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--single-pass", action="store_true",
                   help="row decoder only; no column alternation")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check a code against brute-force "
                                      "ground truth")
    p.add_argument("code")
    p.add_argument("--exhaustive-cap", type=_at_least(1), default=None,
                   help="largest dependent-set size to search for "
                        "(default: the expected distance); the cost "
                        "grows with C(N, cap - 1), not with the distance")
    p.add_argument("--budget", type=_at_least(0), default=None,
                   help="refuse searches over this many subsets")
    p.add_argument("--random", type=_at_least(0), default=0, metavar="TRIALS",
                   help="also run randomized decoder/oracle agreement trials "
                        "(gpc and epc-g1 codes)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find-prime", help="smallest usable all-ones-modulus "
                                          "prime above a size")
    p.add_argument("min_size", type=int)
    p.set_defaults(func=cmd_find_prime)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left: later writes, the exit's flush included, go
        # nowhere instead of raising again.
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except PrimeSearchError as exc:
        print(f"search limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
