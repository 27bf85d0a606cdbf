"""Command-line entry point.

Subcommands: bench-throughput, bench-energy, bench-reconfig, run. With no
flags each benchmark reproduces the calibrated default configuration.
"""

from __future__ import annotations

import argparse
import sys

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
            values.extend(range(int(lo), int(hi) + 1))
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
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_tp = sub.add_parser("bench-throughput", help="aggregate Gib/s vs transfer size")
    common(p_tp)
    p_tp.add_argument("--scenario", default=None, help="scenario file giving the link model")
    p_tp.add_argument("--vm-counts", default="1,2,4", help="comma list, e.g. 1,2,4")
    p_tp.add_argument(
        "--sizes",
        default=",".join(str(s) for s in bench.DEFAULT_SIZES),
        help="comma list of transfer sizes in bytes",
    )

    p_en = sub.add_parser("bench-energy", help="energy vs accelerator count")
    common(p_en)
    p_en.add_argument("--scenario", default=None, help="scenario file giving the energy model")
    p_en.add_argument("--accelerators", type=int, default=20, help="run counts 1..N")

    p_rc = sub.add_parser("bench-reconfig", help="full vs partial reconfiguration time")
    common(p_rc)
    p_rc.add_argument("--vm-counts", default="1-16", help="comma list or ranges")

    p_run = sub.add_parser("run", help="run a scenario file")
    common(p_run)
    p_run.set_defaults(seed=None)  # the scenario's own seed unless --seed is given
    p_run.add_argument("--scenario", required=True, help="scenario file to run")
    p_run.add_argument("--trace-out", default=None, help="event trace output path")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench-throughput":
            csv = bench.bench_throughput(
                vm_counts=_parse_int_list(args.vm_counts),
                sizes=[int(s) for s in args.sizes.split(",") if s.strip()],
                link=load_scenario(args.scenario).link if args.scenario else None,
                seed=args.seed,
            )
            _emit(csv, args.out)
        elif args.command == "bench-energy":
            csv = bench.bench_energy(
                max_accelerators=args.accelerators,
                model=load_scenario(args.scenario).energy if args.scenario else None,
                seed=args.seed,
            )
            _emit(csv, args.out)
        elif args.command == "bench-reconfig":
            csv = bench.bench_reconfig(
                vm_counts=_parse_int_list(args.vm_counts), seed=args.seed
            )
            _emit(csv, args.out)
        elif args.command == "run":
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario.seed = args.seed
            result = bench.run_scenario(scenario)
            _emit(result.metrics_csv, args.out)
            if args.trace_out is not None:
                with open(args.trace_out, "w", encoding="utf-8", newline="") as fh:
                    result.engine.write_trace(fh)
    except (ParseError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (bench.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
