"""Command-line interface tests: exit-code contract, override flags,
study CSV output, and the verification battery."""

import random
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from polyflood import PetroModel, cli, harness, simulate
from polyflood.config import ConfigError, RunConfig, parse_config, parse_number
from polyflood.grids import Grid2
from polyflood.harness import STUDY_BASE
from polyflood.linsolve import SolverError
from polyflood.simulate import run_simulation


def test_run_with_overrides_writes_dumps(tmp_path, capsys):
    out = tmp_path / "fields"
    code = cli.main(["run", "--nx", "8", "--dt", "0.05", "--tstop", "0.1",
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "steps 2" in captured
    assert (out / "s_000002.txt").exists()
    assert (out / "p_000002.txt").exists()


def test_config_file_feeds_the_run(tmp_path, capsys):
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("# tiny case\nN = 8\ndt = 1/20\ntstop = 0.1\nQ = 1.5\n")
    code = cli.main(["run", "--config", str(cfg)])
    assert code == 0
    assert "steps 2" in capsys.readouterr().out


def test_run_config_defaults_are_the_petro_defaults():
    assert RunConfig().petro() == PetroModel()


def test_every_petro_field_is_a_config_key_that_reaches_the_model(tmp_path):
    names = [f.name for f in fields(PetroModel)]
    assert set(names) <= {f.name for f in fields(RunConfig)}
    values = {"mu_w": 2.0, "mu_o": 7.5, "s_ra": 0.15, "s_ro": 0.25,
              "m": 0.5, "alpha0": 0.25, "beta": 3.0}
    assert sorted(values) == sorted(names)
    assert all(values[n] != getattr(PetroModel(), n) for n in names)
    path = tmp_path / "laws.cfg"
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in values.items()))
    assert parse_config(path).petro() == PetroModel(**values)


def test_flag_overrides_beat_the_file(tmp_path, capsys):
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("N = 8\ndt = 0.05\ntstop = 0.3\n")
    code = cli.main(["run", "--config", str(cfg), "--tstop", "0.1"])
    assert code == 0
    assert "t_final 0.1" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a directory, an empty path, which names the working directory, or a
    # file that is not UTF-8, which once ended in UnicodeDecodeError, exit 1
    binary = tmp_path / "bin.cfg"
    binary.write_bytes(b"\xff\xfeN = 8\n")
    for path in (str(tmp_path), "", str(binary)):
        assert cli.main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and err.count("\n") == 1


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("N = 8\nwhatever = 1\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "flood.cfg:2" in err and "whatever" in err

    # a value that is not a number names its line and key, as above
    for text, where in (("N = one\n", "flood.cfg:1: key 'N'"),
                        ("N = 8\ndt = fast\n", "flood.cfg:2: key 'dt'")):
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert where in err
        assert err.count("\n") == 1


def test_invalid_flag_value_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--nx", "1"]) == 2
    assert cli.main(["run", "--dt", "-0.5"]) == 2
    assert cli.main(["run", "--nx", "8", "--dt", "nan"]) == 2
    # an endless run without wells would have taken 0 steps and exited 0
    cfg = tmp_path / "endless.cfg"
    cfg.write_text("N = 8\nQ = 0\ntstop = inf\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "dt must be positive and finite" in err
    assert "tstop must be nonnegative and finite" in err
    # each of these once ran with no wells, a default threshold or an
    # unsolved field and exited 0, or failed step 1 with exit 3
    for text in ("Q = nan", "threshold = nan", "phi = 0", "phi = nan",
                 "K = nan", "K = 0", "K = -1", "c0 = nan", "beta = nan",
                 "Q = inf", "mu_w = inf"):
        cfg.write_text(f"N = 8\ntstop = 0.1\n{text}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2, text
        key = text.split()[0]
        assert key in capsys.readouterr().err, text
    # the solver tolerances and the clamp margin have their one home in
    # solve_pressure, StepParams and PetroModel, not in the config
    for key in ("pressure_tol", "transport_tol", "eps_sat"):
        cfg.write_text(f"N = 8\ntstop = 0.1\n{key} = inf\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2, key
        assert f"unknown key '{key}'" in capsys.readouterr().err, key
    assert cli.main(["study-spatial", "--levels", "5,9",
                     "--reference", "13", "--tstop", "0.1"]) == 2
    assert cli.main(["study-spatial", "--levels", "0,8",
                     "--reference", "16", "--tstop", "0.1"]) == 2
    assert cli.main(["study-spatial", "--levels", "4,8",
                     "--reference", "16.5", "--tstop", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "at least 2" in err and "16.5" in err
    assert cli.main(["study-spatial", "--levels", "4,x",
                     "--reference", "16", "--tstop", "0.1"]) == 2
    assert capsys.readouterr().err == ("config error: expected a number, "
                                       "got 'x'\n")
    # --dt, --tstop and --threshold read numbers as a config file does
    assert cli.main(["run", "--nx", "8", "--dt", "1/50", "--tstop", "0.1",
                     "--out", str(tmp_path / "fraction")]) == 0
    assert "steps 5" in capsys.readouterr().out
    assert cli.main(["run", "--nx", "8", "--dt", "1/50", "--tstop", "x"]) == 2
    assert capsys.readouterr().err == ("config error: expected a number, "
                                       "got 'x'\n")


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["run", "--config", "huge.cfg"], ["run", "--nx", "8", "--tstop", _HUGE],
    ["run", "--nx", _HUGE], ["run", "--nx", "8.0"],
    ["study-spatial", "--levels", f"4,{_HUGE}", "--reference", "16"],
    ["study-spatial", "--levels", "4,8", "--reference", _HUGE],
], ids=["file-Q", "tstop", "nx", "nx-float", "levels", "reference"])
def test_a_number_too_large_for_a_float_exits_2(argv, tmp_path, monkeypatch,
                                                capsys):
    # each once ended in OverflowError, exit 1; --nx 8.0 in argparse's
    # usage error, where N = 8.0 in a file gave the one config-error line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.cfg").write_text(f"N = 8\nQ = {_HUGE}\n")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["study-spatial", "--levels", "4,12", "--reference", "24"],
    ["study-temporal", "--levels", "0.04,0.01", "--reference", "0.005"]],
    ids=["spatial", "temporal"])
def test_a_ladder_that_does_not_halve_exits_2(argv, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(harness, "run_simulation", no_run)
    assert cli.main([*argv, "--tstop", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: each level must halve")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("radius", 0.0), ("radius", 1.5), ("dump_every", -1), ("mu_w", 0.0),
    ("s0", 0.05), ("threshold", 1.0)])
def test_a_value_outside_its_range_is_a_config_error(key, value, tmp_path,
                                                     capsys):
    # mu_w = 0 is PetroModel's ValueError, raised again as a ConfigError
    with pytest.raises(ConfigError):
        RunConfig(**{key: value})
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"N = 8\n{key} = {value}\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_a_line_without_an_equals_sign_names_its_path_and_line(tmp_path):
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("N 8\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == f"{cfg}:1: expected 'key = value'"


def test_a_fraction_that_is_no_number_is_a_config_error():
    for text in ("1/0", "a/2"):
        with pytest.raises(ConfigError, match=f"expected a number, got '{text}'"):
            parse_number(text)


def test_an_unknown_override_key_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown config key 'nx'"):
        parse_config(None, {"nx": 8})


def test_overrides_take_each_keys_type_from_its_default():
    # out = 5 once built a RunConfig and failed in run_simulation
    for key, value in (("out", 5), ("N", 8.0), ("dt", "0.05")):
        with pytest.raises(ConfigError, match=f"config key '{key}' wants"):
            parse_config(None, {"N": 8, "tstop": 0.05, key: value})
    cfg = parse_config(None, {"N": 8, "dt": 1, "out": "fields"})
    assert (cfg.N, cfg.dt, cfg.out) == (8, 1, "fields")


@pytest.mark.parametrize("key, value, wanted", [
    ("N", 8.5, "an integer"), ("dt", "0.1", "a number"),
    ("out", 5, "a string"), ("dump_every", 0.5, "an integer")])
def test_every_way_of_building_a_config_checks_each_keys_type(key, value,
                                                             wanted, tmp_path):
    # RunConfig(N=8.5) once built and failed in numpy's linspace, and
    # RunConfig(dump_every=0.5) dumped every state
    kw = {"N": 8, "tstop": 0.1, "out": str(tmp_path), key: value}
    for build in (lambda: RunConfig(**kw), lambda: replace(RunConfig(), **kw),
                  lambda: parse_config(None, kw)):
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == (f"config key '{key}' wants {wanted}, "
                                   f"got {value!r}")
    assert not any(tmp_path.iterdir())


def test_numpy_scalars_are_numbers_of_their_keys_type():
    assert RunConfig(N=np.int64(8)).N == 8
    assert replace(RunConfig(), radius=np.sqrt(2.0)).radius == np.sqrt(2.0)
    assert parse_config(None, {"N": np.int64(8)}).N == 8


def test_a_config_stores_numpy_scalars_as_its_keys_python_type():
    # a float32 dt once ran the clock in single precision: the run ended at
    # t = np.float32(0.1), with s and p 2.5e-9 and 2.7e-8 off its float twin
    twin = run_simulation(RunConfig(N=8, tstop=0.1, dt=float(np.float32(0.05))))
    kw = {"N": np.int64(8), "tstop": np.float64(0.1), "dt": np.float32(0.05),
          "dump_every": np.uint8(0)}
    for cfg in (RunConfig(**kw), replace(RunConfig(), **kw)):
        assert all(type(getattr(cfg, f.name)) is type(f.default)
                   for f in fields(cfg))
        state = run_simulation(cfg).state
        assert type(state.t) is float and state.t == twin.state.t
        for name in ("s", "c", "p", "vx", "vy"):
            assert np.array_equal(getattr(state, name), getattr(twin.state, name))


def test_an_integer_too_large_for_a_float_is_an_infinite_number():
    # as parse_number reads it; float(10**400) once raised OverflowError
    with pytest.raises(ConfigError, match="tstop must be nonnegative and finite"):
        RunConfig(tstop=10 ** 400)
    with pytest.raises(ConfigError, match="Q must be finite"):
        RunConfig(Q=-10 ** 400)



@pytest.mark.parametrize("argv", [
    ["verify-1d", "--nx", "8"], ["verify-1d", "--config", "x.cfg"],
    ["study-spatial", "--nx", "8"], ["study-temporal", "--dt", "0.1"]])
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

def test_bad_temporal_study_exits_2_before_any_run(monkeypatch, capsys):
    # the infinite level once passed the study and the reference ran first
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(harness, "run_simulation", no_run)
    assert cli.main(["study-temporal", "--levels", "inf,0.05",
                     "--reference", "0.00625", "--tstop", "0.1"]) == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("error, shown", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                 "(1000001, 1000001) and data type float64"), "7.28 TiB"),
    (MemoryError(), "allocation failed")], ids=["numpy", "bare"])
def test_a_grid_too_large_to_allocate_exits_3(error, shown, monkeypatch,
                                               capsys):
    # a grid of a million cells a side once ended in numpy's traceback and
    # exit 1; the allocation fails here without allocating anything
    def unable(grid):
        raise error
    monkeypatch.setattr(Grid2, "xy", property(unable))
    assert cli.main(["run", "--nx", "8", "--tstop", "0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and shown in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("exponent", [20, 40])
def test_a_grid_too_large_for_an_array_exits_3(exponent, capsys):
    # N = 10^20 once ended in numpy's "Maximum allowed size exceeded"
    # ValueError, a traceback and exit 1; the grid now refuses any N whose
    # node arrays numpy cannot size, before anything is allocated
    assert cli.main(["run", "--nx", "1" + "0" * exponent, "--tstop", "0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(cfg):
        raise SolverError("iteration stalled", 0.5, 1000)
    monkeypatch.setattr(cli, "run_simulation", boom)
    assert cli.main(["run", "--nx", "8", "--tstop", "0.1"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_numerical_failure_in_a_step_exits_3_with_a_dump(tmp_path, capsys):
    # the oil mobility overflows to inf in the first step; a tiny
    # van Genuchten exponent overflows the capillary pressure derivative;
    # a vanishing porosity breaks the saturation solve down
    for name, text, cause in (
            ("mu", "N = 8\nmu_o = 1e-320\ntstop = 0.1\n", "overflow"),
            ("m", "N = 8\nm = 0.001\ntstop = 0.1\n", "overflow"),
            ("phi", "N = 8\nphi = 1e-300\ntstop = 0.5\n", "breakdown")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: step 1 ") and err.count("\n") == 1
        assert cause in err and err.count("relative residual") <= 1
        assert (out / "s_000000.txt").exists()
    with pytest.raises(SolverError, match="^step 1 from t = 0 failed") as info:
        run_simulation(RunConfig(N=8, tstop=0.5, phi=1e-300))
    assert info.value.iterations == 1 and info.value.residual > 0.0


def test_a_failure_that_is_not_numerical_propagates_after_a_dump(
        tmp_path, monkeypatch, capsys):
    # run_simulation dumps the last consistent state and re-raises an
    # error that is no numerical failure of the step unchanged
    step = simulate.saturation_step
    calls = []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return step(*args)
    monkeypatch.setattr(simulate, "saturation_step", second_call_fails)
    out = tmp_path / "fields"
    assert cli.main(["run", "--nx", "8", "--tstop", "0.1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "out of memory: Unable to allocate 1.00 TiB\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "c_000001.txt", "p_000001.txt", "s_000001.txt"]


def test_spatial_study_writes_csv(tmp_path, capsys):
    code = cli.main(["study-spatial", "--levels", "4,8", "--reference", "16",
                     "--dt", "0.05", "--tstop", "0.1",
                     "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "spatial_study.csv").read_text().splitlines()
    assert csv[0] == "variable,h,dt,e2,order2,emax,orderinf,time"
    assert len(csv) == 7                        # 2 levels x 3 variables
    assert {line.split(",")[0] for line in csv[1:]} == {"s", "p", "v"}
    assert "wrote" in capsys.readouterr().out


def test_a_study_of_a_zero_pressure_leaves_its_orders_blank(tmp_path, capsys):
    # with no wells p and v are exactly 0 on every level, so their errors
    # are 0; the study once ended in observed_order's ValueError, exit 1
    cfg = tmp_path / "noflow.cfg"
    cfg.write_text("N = 8\nQ = 0\n")
    assert cli.main(["study-spatial", "--config", str(cfg), "--levels", "4,8",
                     "--reference", "16", "--tstop", "0.1",
                     "--out", str(tmp_path)]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()[2:8]]
    csv = [row.split(",") for row in
           (tmp_path / "spatial_study.csv").read_text().splitlines()[1:]]
    # the second level's rows of s, p and v
    for fields, columns in zip(csv[1::2], table[1::2]):
        zero = fields[0] in "pv"
        assert (float(fields[3]) == float(fields[5]) == 0.0) == zero
        assert (fields[4] == fields[6] == "") == zero
        assert (columns[4] == columns[6] == "-") == zero


@pytest.mark.parametrize("command", ["run", "study-spatial"])
def test_output_that_cannot_be_written_exits_2(command, tmp_path, capsys):
    # --out naming a file once ended in FileExistsError, exit 1
    taken = tmp_path / "taken.cfg"
    taken.write_text("N = 8\n")
    extra = ["--nx", "8"] if command == "run" else ["--levels", "4,8",
                                                    "--reference", "16"]
    assert cli.main([command, *extra, "--tstop", "0.1",
                     "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert taken.read_text() == "N = 8\n"


@pytest.mark.parametrize("command", ["study-spatial", "study-temporal"])
def test_studies_default_to_the_bump_well_base(command, tmp_path, monkeypatch,
                                               capsys):
    # a point well's corner velocity is singular, so without a config file
    # the studies run on harness.STUDY_BASE, whose wells are bumps; a
    # config file starts from RunConfig's defaults, as a run does
    studies = []
    for name in ("run_spatial_study", "run_temporal_study"):
        monkeypatch.setattr(cli, name, lambda study: studies.append(study) or [])
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("Q = 1.5\n")
    for extra in ([], ["--config", str(cfg)]):
        assert cli.main([command, "--tstop", "0.1", "--out", str(tmp_path),
                         *extra]) == 0
    capsys.readouterr()
    default, from_file = (study.base for study in studies)
    assert default.well_radius > 0.0
    assert default == replace(STUDY_BASE, tstop=0.1, out=str(tmp_path))
    assert from_file == RunConfig(Q=1.5, tstop=0.1, out=str(tmp_path))


def test_a_study_writes_to_the_config_files_out(tmp_path, monkeypatch,
                                               capsys):
    # the study once ignored the file's out and wrote ./spatial_study.csv
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.cfg").write_text("out = studyout\n")
    assert cli.main(["study-spatial", "--config", "o.cfg", "--levels", "4,8",
                     "--reference", "16", "--tstop", "0.1"]) == 0
    assert (tmp_path / "studyout" / "spatial_study.csv").is_file()
    assert not (tmp_path / "spatial_study.csv").exists()
    assert "wrote studyout/spatial_study.csv" in capsys.readouterr().out


def test_temporal_study_writes_csv(tmp_path, capsys):
    code = cli.main(["study-temporal", "--levels", "0.05,0.025",
                     "--reference", "1/80", "--nx", "8", "--tstop", "0.1",
                     "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "temporal_study.csv").read_text().splitlines()
    assert len(csv) == 3                        # saturation rows only
    assert csv[1].startswith("s,0.125,0.05,")
    capsys.readouterr()


def test_verification_battery_passes(capsys):
    assert cli.main(["verify-1d"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_a_failed_verification_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_1d",
                        lambda: iter([("broken check", "ratio 0.000", False)]))
    assert cli.main(["verify-1d"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and out.endswith("1 check(s) failed\n")


# The N = 8 extremes sweep: each data-set extreme alone, then seeded
# combinations of them.  Every run must exit 0 with every dumped s in
# [s_ra, 1 - s_ro] and c in [0, c0], or exit 2 or 3; a traceback (exit 1)
# or a run past SWEEP_SECONDS fails.  Each run takes under 0.1 s on a
# 2-core host.
SWEEP_SECONDS = 5.0
EXTREMES = {
    "beta=0": "beta = 0",
    "Q=0": "Q = 0",
    "c0=0": "c0 = 0",
    "well_radius=0": "well_radius = 0",
    "well_radius=0.5": "well_radius = 0.5",
    "dt>>1": "dt = 50\ntstop = 100",
    "s0=s_ra": "s0 = 0.1",
    "s0=1-s_ro": "s0 = 0.8",
    "m->0": "m = 0.02",
    "m->1": "m = 0.999",
    "tiny-viscosities": "mu_w = 1e-8\nmu_o = 1e-7",
    "huge-viscosities": "mu_w = 1e8\nmu_o = 1e9",
}
_POOL = {
    "beta": ("0", "15", "1e3"), "Q": ("0", "2", "1e4"), "c0": ("0", "0.1", "1"),
    "well_radius": ("0", "0.2", "0.5"), "dt": ("0.02", "50"),
    "s0": ("0.1", "0.21", "0.5"), "m": ("0.02", "0.5", "0.999"),
    "mu_w": ("1e-8", "1.26", "1e8"), "mu_o": ("1e-7", "12.6", "1e9"),
    "phi": ("1e-6", "1", "1e6"), "K": ("1e-6", "1", "1e6"),
}
_rng = random.Random(8)
EXTREMES.update(
    (f"seeded-{k}", "\n".join(f"{key} = {_rng.choice(values)}"
                               for key, values in _POOL.items()))
    for k in range(10))


@pytest.mark.parametrize("text", EXTREMES.values(), ids=EXTREMES.keys())
def test_extreme_config_ends_in_a_documented_exit(text, tmp_path, capsys):
    cfg_path = tmp_path / "extreme.cfg"
    cfg_path.write_text(f"N = 8\ntstop = 0.2\ndump_every = 1\n{text}\n")
    out = tmp_path / "fields"
    tic = time.perf_counter()
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert time.perf_counter() - tic < SWEEP_SECONDS
    assert code in (0, 2, 3), capsys.readouterr()
    if code != 0:
        return
    cfg = parse_config(cfg_path)
    dumps = {label: sorted(out.glob(f"{label}_*.txt")) for label in "sc"}
    assert dumps["s"] and len(dumps["s"]) == len(dumps["c"])
    for path in dumps["s"]:
        s = np.loadtxt(path)
        assert cfg.s_ra <= s.min() and s.max() <= 1.0 - cfg.s_ro, path.name
    for path in dumps["c"]:
        c = np.loadtxt(path)
        assert 0.0 <= c.min() and c.max() <= cfg.c0, path.name
