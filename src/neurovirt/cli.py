"""Command-line entry point.

Subcommands: bench-throughput, bench-energy, bench-reconfig, run. With no
flags each benchmark reproduces the calibrated default configuration.
A count list reaches its benchmark one value at a time, and the benchmark
checks each as it reads it: a count is refused at the first refused value,
before any row runs, and a range is not expanded past it.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from functools import partial

from neurovirt import bench
from neurovirt.scenario import ANY, ParseError, ValidationError, load_scenario


def _int_list(text: str, ranges: bool = False):
    """The ints of the comma list ``text`` ('1,2,4'; with ``ranges`` also
    '1-4,8,16'), yielded one at a time; a ValueError, raised on reaching a
    part, names the part it cannot read or a descending range."""
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-") if ranges else (part, "", "")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise ValueError(f"cannot read {part!r} in {text!r}") from None
        if lo > hi:
            raise ValueError(f"descending range {part!r} in {text!r}")
        yield from range(lo, hi + 1)


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
    p_tp.add_argument("--vm-counts", type=partial(_int_list, ranges=True),
                      default=bench.DEFAULT_VM_COUNTS, help="comma list or ranges, e.g. 1,2,4")
    p_tp.add_argument("--sizes", type=_int_list, default=bench.DEFAULT_SIZES,
                      help="comma list of transfer sizes in bytes")

    p_en = sub.add_parser("bench-energy", help="energy vs accelerator count")
    common(p_en)
    p_en.add_argument("--accelerators", type=int, default=bench.DEFAULT_ACCELERATORS,
                      help="run counts 1..N")

    p_rc = sub.add_parser("bench-reconfig", help="full vs partial reconfiguration time")
    common(p_rc)
    p_rc.add_argument("--vm-counts", type=partial(_int_list, ranges=True),
                      default=bench.DEFAULT_RECONFIG_VM_COUNTS, help="comma list or ranges")

    p_run = sub.add_parser("run", help="run a scenario file")
    common(p_run)
    p_run.add_argument("--seed", type=int, help="simulation seed (default: the scenario's)")
    p_run.add_argument("--scenario", required=True, help="scenario file to run")
    p_run.add_argument("--trace-out", default=None, help="event trace output path")
    return parser


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def _identity(path: str):
    """The file ``path`` names: its device and inode when it exists, so a
    hard link matches its target, else its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


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
            csv = bench.bench_throughput(vm_counts=args.vm_counts, sizes=args.sizes)
            _emit(csv, args.out)
        elif args.command == "bench-energy":
            csv = bench.bench_energy(max_accelerators=args.accelerators)
            _emit(csv, args.out)
        elif args.command == "bench-reconfig":
            csv = bench.bench_reconfig(vm_counts=args.vm_counts)
            _emit(csv, args.out)
        elif args.command == "run":
            # the loader's rule for a seed in the file
            if args.seed is not None and not ANY[0] <= args.seed <= ANY[1]:
                raise ValueError(f"--seed {args.seed} must be below 2**63 in magnitude")
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario.seed = args.seed
            # opening an output truncates it: it must not be the scenario, and
            # two handles on one file would interleave the metrics and the trace
            outputs = {"--out": args.out, "--trace-out": args.trace_out}
            files = {flag: _identity(p) for flag, p in outputs.items() if p is not None}
            for flag, file in files.items():
                if file == _identity(args.scenario):
                    raise ValueError(f"{flag} is the scenario file: {outputs[flag]}")
            if len(set(files.values())) < len(files):
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
