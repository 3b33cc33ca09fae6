"""Command-line entry point: subcommands, outputs, exit codes."""

import warnings

import numpy as np
import pytest

from lem import load_csv
from lem.cli import main


CHEAP = """\
[quick]
case = advdiff1d
n = 80
T = 0.5
D = 1, 2
rows = C=1 B=10
"""


def test_run_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "quick.ini"
    cfg.write_text(CHEAP)
    out = tmp_path / "report.csv"
    rc = main(["run", str(cfg), "--out", str(out), "--no-timing"])
    assert rc == 0
    reports = load_csv(str(out))
    assert sorted(r.D for r in reports) == [1, 2]
    assert all(np.isfinite(r.err_l2_rel) for r in reports)
    assert "wrote 2 rows" in capsys.readouterr().out


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[advdiff1d]\noracle = Psychic\nrows = C=1 B=2\n")
    rc = main(["run", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "unknown oracle" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b"[advdiff1d]\nrows = C=1% B=4\n",
    b"[advdiff1d]\nrows = C=1 B=8\n# caf\xe9\n",
    b"[advdiff1d]\nrows = C=1 B=2\n[advdiff1d]\n",
], ids=["percent", "latin1", "duplicate"])
def test_run_reports_config_error_in_one_line(tmp_path, capsys, data):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(data)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_run_rejects_missing_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini")])
    assert rc == 1


def test_run_rejects_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("")
    rc = main(["run", str(cfg)])
    assert rc == 1
    assert "declares no cases" in capsys.readouterr().err


def test_run_flags_failed_cells(tmp_path, capsys):
    cfg = tmp_path / "failing.ini"
    cfg.write_text(
        "[burgers1d]\nn = 64\nT = 0.5\nmethods = ExpEuler\n"
        "reference_tol = 1e-7\nrows = dt=0.25 B=0\n")
    out = tmp_path / "r.csv"
    rc = main(["run", str(cfg), "--out", str(out), "--no-timing"])
    assert rc == 1
    assert "1 failed runs" in capsys.readouterr().out
    (row,) = load_csv(str(out))
    assert any("run failed" in w for w in row.warnings)


@pytest.mark.parametrize("flags,message", [
    (["--workers", "2"], "error: --workers N needs --no-timing"),
    (["--workers", "0", "--no-timing"], "error: --workers must be at least 1"),
], ids=["timed", "zero"])
def test_run_rejects_bad_workers(tmp_path, capsys, flags, message):
    cfg = tmp_path / "quick.ini"
    cfg.write_text(CHEAP)
    out = tmp_path / "report.csv"
    rc = main(["run", str(cfg), "--out", str(out)] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env,warned", [
    ({}, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, False),
    ({"OMP_NUM_THREADS": "1"}, False),
], ids=["unset", "two", "openblas", "omp"])
def test_run_warns_about_blas_threads(tmp_path, capsys, monkeypatch, env, warned):
    # parallel cells each on every BLAS thread oversubscribe the cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg = tmp_path / "quick.ini"
    cfg.write_text(CHEAP)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "r.csv"),
               "--workers", "2", "--no-timing"])
    assert rc == 0
    err = capsys.readouterr().err
    assert ("warning: --workers 2" in err) == warned
    if warned:
        assert "OPENBLAS_NUM_THREADS=1" in err


def test_decay_profile(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    rc = main(["decay", "advdiff1d", "--courant", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distance,max_abs_entry,bound"
    assert len(lines) == 1 + 200  # one row per cyclic distance on 400 nodes
    # entries decay with distance by orders of magnitude
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last < 1e-10 * first


@pytest.mark.parametrize("courant", ["0", "-1", "nan", "inf"])
def test_decay_rejects_bad_courant(tmp_path, capsys, courant):
    out = tmp_path / "profile.csv"
    rc = main(["decay", "advdiff1d", "--courant", courant, "--out", str(out)])
    assert rc == 1
    assert "--courant must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_decay_overflow_is_one_error_line(tmp_path, capsys):
    # the squarings overflow; numpy's own overflow warnings stay silent,
    # so the error line is all that reaches stderr
    out = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["decay", "advdiff1d", "--courant", "1e300", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: expm_dense: overflow during squaring phase\n"
    assert not out.exists()


def test_decay_unknown_case(capsys):
    rc = main(["decay", "heat42", "--courant", "1"])
    assert rc == 1
    assert "unknown case" in capsys.readouterr().err


def test_decay_needs_wave_speed(capsys):
    rc = main(["decay", "porous1d", "--courant", "1"])
    assert rc == 1
    assert "no advective speed" in capsys.readouterr().err


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])
