"""Command-line driver: single runs, refinement studies, and the 1-D
verification battery.

Subcommands:

    run             advance one quarter five-spot flood, dump fields
    study-spatial   grid-refinement error study (CSV + table)
    study-temporal  time-step refinement error study (CSV + table)
    verify-1d       reduced-system convergence and stencil-order checks

`--config` points at a flat key = value file; the remaining flags override
individual keys.  Exit codes: 0 success, 2 configuration error, 3 solver
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, parse_value
from .grids import Grid1, interp_linear
from .harness import (RefinementStudy, error_norms_1d, format_records,
                      observed_order, run_spatial_study, run_temporal_study,
                      write_records_csv)
from .linsolve import SolverError
from .reduced1d import (characteristic_derivative_check, diffusion_stencil_check,
                        manufactured_problem, run1d)
from .simulate import run_simulation

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _load_config(args) -> RunConfig:
    overrides = {
        "N": args.nx,
        "dt": args.dt,
        "tstop": args.tstop,
        "threshold": args.threshold,
        "out": args.out,
    }
    try:
        return parse_config(args.config, overrides)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {err.filename}") from err


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_simulation(cfg)
    s = result.summary
    bt = "-" if s.breakthrough_time is None else f"{s.breakthrough_time:.6g}"
    print(f"steps {s.steps}  t_final {s.final_time:.6g}  breakthrough {bt}")
    print(f"s range [{s.s_min:.6g}, {s.s_max:.6g}]  "
          f"c range [{s.c_min:.6g}, {s.c_max:.6g}]")
    print(f"clamp hits  s {s.s_clamp_hits}  c {s.c_clamp_hits}")
    for path in result.dumps:
        print(f"wrote {path}")
    return EXIT_OK


def _numeric(text: str) -> float:
    """Parse a number or fraction; anything else is a config error."""
    value = parse_value(text)
    if isinstance(value, str):
        raise ConfigError(f"expected a number, got '{text}'")
    return value


def _study_value(text: str, mode: str):
    """One study level or reference: a grid size or a time step."""
    value = _numeric(text)
    if mode == "temporal":
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"grid sizes must be integers, got {text.strip()}")
    return int(value)


def _cmd_study(args, mode: str) -> int:
    cfg = _load_config(args)
    levels = tuple(_study_value(v, mode) for v in args.levels.split(","))
    reference = _study_value(args.reference, mode)
    study = RefinementStudy(mode, levels, reference, cfg)
    run = run_spatial_study if mode == "spatial" else run_temporal_study
    records = run(study)
    print(format_records(records))
    out_dir = Path(args.out if args.out else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{mode}_study.csv"
    write_records_csv(csv_path, records)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _verify_lines():
    """Run every reduced-system check; yield (label, detail, passed)."""
    # manufactured two-field convergence at dt = h
    coeffs, w_ex, m_ex = manufactured_problem()
    T = 0.5
    errs = []
    for n in (16, 32, 64, 128):
        g = Grid1(n)
        w, m, _ = run1d(g, coeffs, w_ex(g.x, 0.0), m_ex(g.x, 0.0), T, dt=g.h)
        errs.append(error_norms_1d(g, w, w_ex(g.x, T))[0]
                    + error_norms_1d(g, m, m_ex(g.x, T))[0])
    orders = [observed_order(errs[k], errs[k + 1]) for k in range(3)]
    yield ("manufactured convergence",
           "orders " + " ".join(f"{o:.3f}" for o in orders),
           all(0.8 <= o <= 1.3 for o in orders))

    # characteristic-derivative difference quotient
    s = lambda x, t: np.sin(2 * np.pi * x) * np.exp(-t) + 0.3 * x ** 2
    s_t = lambda x, t: -np.sin(2 * np.pi * x) * np.exp(-t)
    s_x = lambda x, t: 2 * np.pi * np.cos(2 * np.pi * x) * np.exp(-t) + 0.6 * x
    b = lambda x: np.full_like(x, 0.7)
    r_dt = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.02, 0.5)
    r_half = characteristic_derivative_check(s, s_t, s_x, b, 1.0, 64, 0.01, 0.5)
    ratio = r_dt / r_half
    yield ("characteristic derivative", f"dt-halving ratio {ratio:.3f}",
           1.6 <= ratio <= 2.4)

    lin = lambda x, t: 2.0 + 3.0 * (x - 0.7 * t)
    lin_t = lambda x, t: np.full_like(x, -2.1)
    lin_x = lambda x, t: np.full_like(x, 3.0)
    res = characteristic_derivative_check(lin, lin_t, lin_x, b, 1.0, 64, 0.02, 0.5)
    yield ("characteristic exactness", f"linear-profile residual {res:.2e}",
           res < 1e-10)

    # diffusion stencil
    quad = lambda x: 3 * x ** 2 - x + 0.5
    res = diffusion_stencil_check(quad, lambda x: np.full_like(x, 2.0),
                                lambda x: np.full_like(x, 12.0), 32)
    yield ("diffusion exactness", f"constant-D quadratic residual {res:.2e}",
           res < 1e-10)

    sprof = lambda x: np.sin(2 * np.pi * x)
    div_c = lambda x: -4 * np.pi ** 2 * np.sin(2 * np.pi * x)
    one = lambda x: np.ones_like(x)
    r_const = (diffusion_stencil_check(sprof, one, div_c, 32)
               / diffusion_stencil_check(sprof, one, div_c, 64))
    yield ("diffusion order, constant D", f"h-halving ratio {r_const:.3f}",
           3.5 <= r_const <= 4.5)

    D = lambda x: 1.0 + x ** 2
    div_v = lambda x: (2 * x * 2 * np.pi * np.cos(2 * np.pi * x)
                       - (1 + x ** 2) * 4 * np.pi ** 2 * np.sin(2 * np.pi * x))
    r_var = (diffusion_stencil_check(sprof, D, div_v, 32)
             / diffusion_stencil_check(sprof, D, div_v, 64))
    yield ("diffusion order, variable D", f"h-halving ratio {r_var:.3f}",
           1.7 <= r_var <= 4.5)

    # foot interpolation order on C^2 data
    f = lambda x: np.sin(2.3 * x + 0.7)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, 1000)
    ierrs = []
    for n in (32, 64):
        g = Grid1(n)
        ierrs.append(np.max(np.abs(interp_linear(g, f(g.x), pts) - f(pts))))
    r_interp = ierrs[0] / ierrs[1]
    yield ("foot interpolation order", f"h-halving ratio {r_interp:.3f}",
           3.5 <= r_interp <= 4.5)


def _cmd_verify(args) -> int:
    failures = 0
    for label, detail, passed in _verify_lines():
        verdict = "PASS" if passed else "FAIL"
        print(f"{label:30s} {detail:42s} {verdict}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--nx", type=int, default=None, help="cells per direction")
    p.add_argument("--dt", type=float, default=None, help="time step")
    p.add_argument("--tstop", type=float, default=None, help="stop time")
    p.add_argument("--threshold", type=float, default=None,
                   help="breakthrough saturation threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyflood",
        description="two-phase polymer flood simulator and refinement harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance one simulation")
    _add_common(p_run)

    p_sp = sub.add_parser("study-spatial", help="grid refinement study")
    _add_common(p_sp)
    p_sp.add_argument("--levels", default="8,16,32",
                      help="comma-separated grid sizes, coarse to fine")
    p_sp.add_argument("--reference", default="64",
                      help="reference grid size (strict multiple of levels)")

    p_tm = sub.add_parser("study-temporal", help="time step refinement study")
    _add_common(p_tm)
    p_tm.add_argument("--levels", default="1/20,1/40,1/80",
                      help="comma-separated time steps, coarse to fine")
    p_tm.add_argument("--reference", default="1/160",
                      help="reference time step (finest)")

    p_v = sub.add_parser("verify-1d", help="reduced-system verification table")
    _add_common(p_v)
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
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
