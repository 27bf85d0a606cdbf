"""Command-line entry point.

Subcommands: bench-throughput, bench-energy, bench-reconfig, run. With no
flags each benchmark reproduces the calibrated default configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack

from neurovirt import bench
from neurovirt.scenario import ParseError, ValidationError, load_scenario


def _parse_int_list(text: str) -> list[int]:
    """Comma list with ranges: '1,2,4' or '1-16' or '1-4,8,16'."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"descending range {part!r} in {text!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"no counts in {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurovirt",
        description="Deterministic simulator and benchmarks for a "
        "virtualized neuromorphic fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_tp = sub.add_parser("bench-throughput", help="aggregate Gib/s vs transfer size")
    common(p_tp)
    p_tp.add_argument("--vm-counts", default="1,2,4", help="comma list, e.g. 1,2,4")
    p_tp.add_argument(
        "--sizes",
        default=",".join(str(s) for s in bench.DEFAULT_SIZES),
        help="comma list of transfer sizes in bytes",
    )

    p_en = sub.add_parser("bench-energy", help="energy vs accelerator count")
    common(p_en)
    p_en.add_argument("--accelerators", type=int, default=20, help="run counts 1..N")

    p_rc = sub.add_parser("bench-reconfig", help="full vs partial reconfiguration time")
    common(p_rc)
    p_rc.add_argument("--vm-counts", default="1-16", help="comma list or ranges")

    p_run = sub.add_parser("run", help="run a scenario file")
    common(p_run)
    p_run.add_argument("--seed", type=int, help="simulation seed (default: the scenario's)")
    p_run.add_argument("--scenario", required=True, help="scenario file to run")
    p_run.add_argument("--trace-out", default=None, help="event trace output path")
    return parser


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with _open_out(out_path) as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench-throughput":
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
            if not sizes:
                raise ValueError(f"no sizes in {args.sizes!r}")
            csv = bench.bench_throughput(
                vm_counts=_parse_int_list(args.vm_counts), sizes=sizes
            )
            _emit(csv, args.out)
        elif args.command == "bench-energy":
            csv = bench.bench_energy(max_accelerators=args.accelerators)
            _emit(csv, args.out)
        elif args.command == "bench-reconfig":
            csv = bench.bench_reconfig(vm_counts=_parse_int_list(args.vm_counts))
            _emit(csv, args.out)
        elif args.command == "run":
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario.seed = args.seed
            # two handles on one file would interleave the metrics and the trace
            paths = [p for p in (args.out, args.trace_out) if p is not None]
            if len({os.path.realpath(p) for p in paths}) < len(paths):
                raise ValueError(f"--out and --trace-out are the same file: {args.out}")
            # open both outputs first: a bad path then fails before the run,
            # not after a finished-looking metrics file is written
            with ExitStack() as files:
                out, trace = (
                    None if path is None else files.enter_context(_open_out(path))
                    for path in (args.out, args.trace_out)
                )
                result = bench.run_scenario(scenario)
                (out or sys.stdout).write(result.metrics_csv)
                if trace is not None:
                    result.engine.write_trace(trace)
    except (ParseError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
