"""Tracing polyflood from outside: spans around its public functions.

Every wrapper is installed where the caller looks the function up (the
module global the caller reads, or the class attribute for PetroModel
methods), so nothing in the package changes.  Spans live in memory as
(name, start, end, parent, info); self time is a span's duration minus
the time its direct children cover.

Conjugate-gradient iterations are counted without touching linsolve:
the wrapped solve_cg hands the real solver a matrix proxy that forwards
.diagonal() and @ and counts the products.  solve_cg makes one product
for the initial residual and one per iteration.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

import polyflood.harness
import polyflood.pressure
import polyflood.reduced1d
import polyflood.simulate
import polyflood.transport
from polyflood.petro import PetroModel

PETRO_METHODS = ("mobilities", "fractional_flow", "df_ds", "df_dc",
                 "capillary_diffusion")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class CountingMatrix:
    """Forwards what solve_cg uses of a sparse matrix and counts products."""

    __slots__ = ("matrix", "products")

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def diagonal(self):
        return self.matrix.diagonal()

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


class Tracer:
    """Installs span wrappers on polyflood and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installing ----------------------------------------------------------

    def _wrap(self, fn, name, on_enter=None, on_exit=None):
        """on_enter(rec, args) may swap the arguments; on_exit(rec, args,
        out) records what the metrics need once the span has closed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = Span(name, 0.0, parent=stack[-1] if stack else -1)
            if on_enter is not None:
                args = on_enter(rec, args)
            stack.append(len(spans))
            spans.append(rec)
            rec.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(rec, args, out)
            return out

        return traced

    def _patch(self, owner, attr, name, on_enter=None, on_exit=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, on_enter, on_exit))
        self._undo.append((owner, attr, original))

    def install(self):
        sim, pres, tr = polyflood.simulate, polyflood.pressure, polyflood.transport
        run = self._wrap(sim.run_simulation, "simulate.run_simulation")
        for owner in (sim, polyflood.harness):
            self._undo.append((owner, "run_simulation", owner.run_simulation))
            owner.run_simulation = run
        self._patch(polyflood.harness, "run_spatial_study", "harness.study")
        self._patch(polyflood.harness, "run_temporal_study", "harness.study")
        self._patch(sim, "advance", "simulate.advance")
        self._patch(sim, "assemble_pressure", "pressure.assemble")
        self._patch(sim, "solve_pressure", "pressure.solve")
        self._patch(sim, "recover_velocity", "pressure.velocity")
        self._patch(sim, "saturation_step", "transport.saturation")
        self._patch(sim, "concentration_step", "transport.concentration")
        self._patch(sim, "write_field", "grids.dump", on_exit=_file_bytes)
        self._patch(pres, "solve_cg", "linsolve.pressure_cg", _count_products)
        self._patch(tr, "solve_cg", "linsolve.saturation_cg", _count_products)
        self._patch(tr, "trace_feet_saturation", "transport.feet",
                    on_exit=_keep_feet)
        self._patch(tr, "trace_feet_concentration", "transport.feet",
                    on_exit=_keep_feet)
        self._patch(tr, "interp_bilinear", "grids.interp", on_exit=_point_count)
        self._patch(polyflood.reduced1d, "step1d", "reduced1d.step1d")
        for method in PETRO_METHODS:
            self._patch(PetroModel, method, "petro.eval")
        return self

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        taken = self.spans[:]
        self.spans.clear()
        return taken


def _count_products(rec, args):
    proxy = CountingMatrix(args[0])
    rec.info["matrix"] = proxy
    return (proxy,) + tuple(args[1:])


def _keep_feet(rec, args, out):
    rec.info["grid"] = args[0].grid
    rec.info["feet"] = out


def _point_count(rec, args, out):
    rec.info["points"] = np.size(out)


def _file_bytes(rec, args, out):
    rec.info["bytes"] = os.path.getsize(args[0])


def time_advance(step_ms: list):
    """Minimal instrument for untraced runs: wall ms of each advance call.

    Returns a function that removes it again.
    """
    sim = polyflood.simulate
    original = sim.advance

    @functools.wraps(original)
    def timed(*args, **kwargs):
        tic = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            step_ms.append((time.perf_counter() - tic) * 1e3)

    sim.advance = timed

    def remove():
        sim.advance = original

    return remove


# -- per-layer metrics of one operation --------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec.parent >= 0:
            child[rec.parent] += rec.duration
    return [rec.duration - c for rec, c in zip(spans, child)]


def layer_metrics(spans: list[Span], expected: set) -> dict:
    """Per-layer values of one traced operation, keyed by metric name.

    Times are summed over the operation, in ms unless the name ends in _s.
    A module's time is its spans' self time, except petro.eval_ms (whole
    outermost model calls), simulate.setup_ms and harness.reference_s
    (whole intervals).  Raises if a span the workload must produce never
    fired.
    """
    missing = expected - {rec.name for rec in spans}
    if missing:
        raise RuntimeError(f"expected spans never fired: {sorted(missing)}")
    own = self_times(spans)

    def ms(name):
        return 1e3 * sum(t for rec, t in zip(spans, own) if rec.name == name)

    def of(name):
        return [rec for rec in spans if rec.name == name]

    def iters(name):
        counts = [max(rec.info["matrix"].products - 1, 0) for rec in of(name)]
        return sum(counts) / len(counts) if counts else 0.0

    petro_top = [rec for rec in of("petro.eval")
                 if rec.parent < 0 or spans[rec.parent].name != "petro.eval"]

    foot_cells = 0.0
    for rec in of("transport.feet"):
        grid = rec.info["grid"]
        X, Y = grid.xy
        xbar, ybar = rec.info["feet"]
        cells = np.hypot((X - xbar) * grid.nx, (Y - ybar) * grid.ny)
        foot_cells = max(foot_cells, float(cells.max()))

    # setup: entering run_simulation to its first advance; reference: the
    # first run a study makes, which is the one every level is compared to
    first_child: dict = {}
    for rec in spans:
        if rec.parent >= 0:
            first_child.setdefault((rec.parent, rec.name), rec)
    setup = reference = 0.0
    for k, rec in enumerate(spans):
        if rec.name == "simulate.run_simulation":
            step = first_child.get((k, "simulate.advance"))
            setup += (step.start if step else rec.end) - rec.start
        elif rec.name == "harness.study":
            reference += first_child[(k, "simulate.run_simulation")].duration

    products = sum(rec.info["matrix"].products for rec in spans
                   if rec.name.startswith("linsolve."))
    return {
        "linsolve.pressure_iters": iters("linsolve.pressure_cg"),
        "linsolve.pressure_cg_ms": ms("linsolve.pressure_cg"),
        "linsolve.saturation_iters": iters("linsolve.saturation_cg"),
        "linsolve.saturation_cg_ms": ms("linsolve.saturation_cg"),
        "linsolve.matvecs": float(products),
        "pressure.assemble_ms": ms("pressure.assemble"),
        "pressure.gauge_ms": ms("pressure.solve"),
        "pressure.velocity_ms": ms("pressure.velocity"),
        "petro.evals": float(len(petro_top)),
        "petro.eval_ms": 1e3 * sum(rec.duration for rec in petro_top),
        "transport.saturation_self_ms": ms("transport.saturation"),
        "transport.concentration_self_ms": ms("transport.concentration"),
        "transport.feet_ms": ms("transport.feet"),
        "transport.max_foot_cells": foot_cells,
        "grids.interp_ms": ms("grids.interp"),
        "grids.interp_points": float(sum(rec.info["points"]
                                         for rec in of("grids.interp"))),
        "grids.dump_ms": ms("grids.dump"),
        "grids.dump_bytes": float(sum(rec.info["bytes"] for rec in of("grids.dump"))),
        "simulate.advance_self_ms": ms("simulate.advance"),
        "simulate.setup_ms": 1e3 * setup,
        "harness.reference_s": reference,
        "reduced1d.step1d_ms": ms("reduced1d.step1d"),
        "reduced1d.steps": float(len(of("reduced1d.step1d"))),
    }

