"""Command-line interface tests: exit-code contract, override flags,
study CSV output, and the verification battery."""

import pytest

from polyflood import cli
from polyflood.linsolve import SolverError


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


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flood.cfg"
    cfg.write_text("N = 8\nwhatever = 1\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "flood.cfg:2" in err and "whatever" in err

    cfg.write_text("N = one\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_invalid_flag_value_exits_2(capsys):
    assert cli.main(["run", "--nx", "1"]) == 2
    assert cli.main(["run", "--dt", "-0.5"]) == 2
    assert cli.main(["study-spatial", "--levels", "5,9",
                     "--reference", "13", "--tstop", "0.1"]) == 2
    assert cli.main(["study-spatial", "--levels", "0,8",
                     "--reference", "16", "--tstop", "0.1"]) == 2
    assert cli.main(["study-spatial", "--levels", "4,8",
                     "--reference", "16.5", "--tstop", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "at least 2" in err and "16.5" in err


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(cfg):
        raise SolverError("iteration stalled", 0.5, 1000)
    monkeypatch.setattr(cli, "run_simulation", boom)
    assert cli.main(["run", "--nx", "8", "--tstop", "0.1"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_numerical_failure_in_a_step_exits_3_with_a_dump(tmp_path, capsys):
    # the oil mobility overflows to inf in the first step; a tiny
    # van Genuchten exponent overflows the capillary pressure derivative
    for name, text in (("mu", "N = 8\nmu_o = 1e-320\ntstop = 0.1\n"),
                       ("m", "N = 8\nm = 0.001\ntstop = 0.1\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: step 1 ") and err.count("\n") == 1
        assert "overflow" in err
        assert (out / "s_000000.txt").exists()


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
