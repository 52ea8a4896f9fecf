"""Command-line driver: parses arguments, runs the work and prints the
result.  Settings and numbers are parsed by config, the studies and the
1-D verification battery (harness.verify_1d) run in harness.

Subcommands:

    run             advance one quarter five-spot flood, dump fields
    study-spatial   grid-refinement error study (CSV + table)
    study-temporal  time-step refinement error study (CSV + table)
    verify-1d       reduced-system convergence and stencil-order checks

`--config` points at a flat key = value file; the remaining flags override
individual keys.  Exit codes: 0 success, 2 configuration or output error,
3 solver failure or a grid too large to allocate, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, parse_config, parse_number
from .harness import (STUDY_BASE, RefinementStudy, format_records,
                      run_spatial_study, run_temporal_study, verify_1d,
                      write_records_csv)
from .linsolve import SolverError
from .simulate import run_simulation

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _load_config(args, base: RunConfig = RunConfig()) -> RunConfig:
    overrides = {"out": args.out}
    for key in ("N", "dt", "tstop", "threshold"):  # numbers as in a file
        text = getattr(args, key, None)
        overrides[key] = None if text is None else parse_number(text)
    return parse_config(args.config, overrides, base)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_simulation(cfg)
    s = result.summary
    bt = "-" if s.breakthrough_time is None else f"{s.breakthrough_time:.6g}"
    print(f"steps {s.steps}  t_final {result.state.t:.6g}  breakthrough {bt}")
    print(f"s range [{s.s_min:.6g}, {s.s_max:.6g}]  "
          f"c range [{s.c_min:.6g}, {s.c_max:.6g}]")
    print(f"clamp hits  s {s.s_clamp_hits}  c {s.c_clamp_hits}")
    for path in result.dumps:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_study(args, mode: str) -> int:
    cfg = _load_config(args, STUDY_BASE if args.config is None else RunConfig())
    levels = tuple(parse_number(v) for v in args.levels.split(","))
    reference = parse_number(args.reference)
    study = RefinementStudy(mode, levels, reference, cfg)
    out_dir = Path(cfg.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)  # fails before the study runs
    run = run_spatial_study if mode == "spatial" else run_temporal_study
    records = run(study)
    print(format_records(records))
    csv_path = out_dir / f"{mode}_study.csv"
    write_records_csv(csv_path, records)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = 0
    for label, detail, passed in verify_1d():
        verdict = "PASS" if passed else "FAIL"
        print(f"{label:30s} {detail:42s} {verdict}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _add_common(p, nx=True, dt=True):
    """Config flags; a spatial study sets N by its levels and a temporal
    study dt, so neither takes that flag."""
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--out", default=None, help="output directory")
    if nx:
        p.add_argument("--nx", dest="N", default=None, help="cells per direction")
    if dt:
        p.add_argument("--dt", default=None, help="time step")
    p.add_argument("--tstop", default=None, help="stop time")
    p.add_argument("--threshold", default=None,
                   help="breakthrough saturation threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflood",
        description="two-phase polymer flood simulator and refinement harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance one simulation")
    _add_common(p_run)

    p_sp = sub.add_parser("study-spatial", help="grid refinement study")
    _add_common(p_sp, nx=False)
    p_sp.add_argument("--levels", default="8,16,32",
                      help="comma-separated grid sizes, each twice the last")
    p_sp.add_argument("--reference", default="64",
                      help="reference grid size (k times the last, k > 1)")

    p_tm = sub.add_parser("study-temporal", help="time step refinement study")
    _add_common(p_tm, dt=False)
    p_tm.add_argument("--levels", default="1/20,1/40,1/80",
                      help="comma-separated time steps, each half the last")
    p_tm.add_argument("--reference", default="1/160",
                      help="reference time step (below the last level)")

    sub.add_parser("verify-1d", help="reduced-system verification table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study-spatial":
            return _cmd_study(args, "spatial")
        if args.command == "study-temporal":
            return _cmd_study(args, "temporal")
        return _cmd_verify(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # reading the config file raises ConfigError
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as err:
        print("out of memory:", str(err) or "allocation failed", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
