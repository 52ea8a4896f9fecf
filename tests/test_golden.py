"""Golden records: the program's results, committed as tests/golden.json.

For five runs, the criterion 5 and 6 refinement studies and the
reduced-system checks, the file holds the SHA-256 of every final field and
dump file, each run's summary, the float.hex of each field's sum, max and
L2 norm and of each study record, and the verify-1d rows.  The test
recomputes them in a fresh interpreter with one BLAS thread.  Where numpy,
scipy and the CPU's SIMD targets match the file's fingerprint, every bit
must match ([bits]); elsewhere the float summaries and study rows must
agree within the file's tolerances, and the rest exactly ([summary]).
The tolerances are measured when the file is written: ten times the
largest move when one input (s0, K or Q) is nudged by one ulp.

A change that moves results on purpose rewrites the file:

    PYTHONPATH=src python tests/test_golden.py --write

Without --write the script prints the records as JSON.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = [dict(N=8, dt=0.05, tstop=0.15, dump_every=2),
        dict(N=32),
        dict(N=96, dt=0.2, well_radius=0.2),
        dict(N=33, well_radius=0.3, tstop=0.5),
        dict(N=64, tstop=0.3, well_radius=0.2)]
# the runs' and studies' inputs that the tolerance measurement nudges
NUDGED = ("s0", "K", "Q")
TOLERANCE_FACTOR = 10.0


def fingerprint() -> dict:
    """What the bits depend on besides the code: the numpy and scipy
    versions and the SIMD targets numpy's kernels run on here."""
    import numpy as np
    import scipy
    from numpy._core import _multiarray_umath as umath
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_baseline": list(umath.__cpu_baseline__),
            "cpu_dispatch": [target for target in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(target)]}


def records(nudge: str = "") -> dict:
    """Every record of the file but the fingerprint and the tolerances,
    with the input named by nudge moved up by one ulp."""
    import numpy as np
    from polyflood import RunConfig, run_simulation
    from polyflood.harness import (RefinementStudy, run_spatial_study,
                                   run_temporal_study, verify_1d)

    def config(**kw):
        cfg = RunConfig(**kw)
        if nudge:
            cfg = replace(cfg, **{nudge: math.nextafter(getattr(cfg, nudge),
                                                        math.inf)})
        return cfg

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    runs = []
    for kw in RUNS:
        with tempfile.TemporaryDirectory() as out:
            result = run_simulation(config(**kw, out=out))
            dumps = {path.name: sha(path.read_bytes())
                     for path in map(Path, result.dumps)}
        state = result.state
        runs.append({
            "config": kw,
            "summary": asdict(result.summary),
            "fields": {name: sha(getattr(state, name).tobytes())
                       for name in ("s", "c", "p", "vx", "vy")},
            "stats": {name: {"sum": float(values.sum()).hex(),
                             "max": float(values.max()).hex(),
                             "l2": float(np.linalg.norm(values)).hex()}
                      for name in ("s", "c", "p", "vx", "vy")
                      for values in [getattr(state, name)]},
            "dumps": dumps})

    def rows(study_records):
        return [{f.name: (value.hex() if isinstance(value, float) else value)
                 for f in fields(r) if f.name != "time"
                 for value in [getattr(r, f.name)]}
                for r in study_records]

    spatial = run_spatial_study(RefinementStudy(
        "spatial", (8, 16, 32), 64,
        config(dt=1.0 / 50.0, tstop=0.4, Q=1.0, well_radius=0.2)))
    temporal = run_temporal_study(RefinementStudy(
        "temporal", (1 / 20, 1 / 40, 1 / 80), 1 / 160,
        config(N=16, tstop=0.3, Q=1.5, well_radius=0.2)))
    return {"runs": runs,
            "studies": {"spatial": rows(spatial), "temporal": rows(temporal)},
            "verify_1d": [[label, detail, bool(passed)]
                          for label, detail, passed in verify_1d()]}


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _floats(rec: dict):
    """(class, key, value) of each float a [summary] check compares: a
    field statistic's class is its field, a study value's its column, a
    run summary's 'summary'."""
    for run in rec["runs"]:
        label = json.dumps(run["config"])
        for name, stats in run["stats"].items():
            for stat, value in stats.items():
                yield name, f"{label} {name} {stat}", float.fromhex(value)
        for key, value in run["summary"].items():
            if isinstance(value, float):
                yield "summary", f"{label} {key}", value
    for study, rows in rec["studies"].items():
        for k, row in enumerate(rows):
            for key, value in row.items():
                if isinstance(value, str) and key != "variable":
                    yield key, f"{study} row {k} {key}", float.fromhex(value)


def _exact(rec: dict):
    """What a [summary] check compares exactly: steps, clamp counts and
    breakthrough of each run, the shape of each study (variables and
    which orders exist), and each verify-1d row's label and verdict."""
    return ([{k: v for k, v in run["summary"].items()
              if not isinstance(v, float) or k == "breakthrough_time"}
             for run in rec["runs"]],
            {study: [{k: (v if k == "variable" or v is None else "")
                      for k, v in row.items()} for row in rows]
             for study, rows in rec["studies"].items()},
            [(label, passed) for label, _, passed in rec["verify_1d"]])


def tolerances(nominal: dict) -> dict:
    """Per class, TOLERANCE_FACTOR times the largest relative move of its
    floats over the NUDGED runs."""
    moved = {}
    for nudge in NUDGED:
        for (cls, _, a), (_, _, b) in zip(_floats(nominal),
                                            _floats(records(nudge))):
            moved[cls] = max(moved.get(cls, 0.0), _relative(a, b))
    return {"relative": {cls: TOLERANCE_FACTOR * m for cls, m in moved.items()},
            "measured": f"{TOLERANCE_FACTOR:g} x the largest relative move "
                        f"under a one-ulp nudge of {', '.join(NUDGED)}"}


def pytest_generate_tests(metafunc):
    # the mode is the test id, and only collection needs it
    golden = json.loads(GOLDEN.read_text())
    mode = "bits" if golden["fingerprint"] == fingerprint() else "summary"
    metafunc.parametrize("mode", [mode])


def test_results_match_the_golden_records(mode):
    # a fresh interpreter, so that one BLAS thread is set before numpy loads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    golden = json.loads(GOLDEN.read_text())
    if mode == "bits":
        for key in ("runs", "studies", "verify_1d"):
            assert got[key] == golden[key], key
        return
    assert _exact(got) == _exact(golden)
    tol = golden["tolerances"]["relative"]
    for (cls, key, a), (_, _, b) in zip(_floats(got), _floats(golden)):
        assert _relative(a, b) <= tol[cls], (key, a, b, tol[cls])


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    rec = records()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(),
                                      "tolerances": tolerances(rec), **rec},
                                     indent=1) + "\n")
    else:
        print(json.dumps(rec))
