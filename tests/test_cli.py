import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bec_cavity.cli
import bec_cavity.depletion
from bec_cavity.cli import main
from bec_cavity.config import (
    ConfigError,
    ResultTable,
    SweepSpec,
    load_config,
    parse_config,
    sweep_values,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    base = {
        "delta_c": -1000.0,
        "kappa": 100.0,
        "eta": 1000.0,
        "u0": -0.5,
        "n_atoms": 1000,
        "grid_points": 16,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


def strip_timestamp(text: str) -> list[str]:
    return [l for l in text.splitlines() if not l.startswith("# timestamp")]


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_applied(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.itp_dt == 1e-3
    assert cfg.tol_phi == 1e-9
    assert cfg.tol_alpha == 1e-10
    assert cfg.mixing == 0.3
    assert cfg.max_iters == 1_000_000
    assert cfg.subtract_mu is True
    assert cfg.tol_pair == 1e-8
    assert cfg.tol_noise == 1e-10
    assert cfg.tol_zero == 1e-6


def test_config_rejects_bad_sweep_parameter(tmp_path):
    path = write_config(
        tmp_path, sweep={"parameter": "kappa", "from": 1, "to": 2, "points": 3}
    )
    with pytest.raises(ConfigError, match="parameter"):
        load_config(path)


def test_config_rejects_nonpositive_knob(tmp_path):
    with pytest.raises(ConfigError, match="itp_dt"):
        load_config(write_config(tmp_path, itp_dt=0.0))


def test_config_rejects_bad_physics(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        load_config(write_config(tmp_path, kappa=-1.0))


@pytest.mark.parametrize(
    "override",
    [
        {"eta_follows_detuning": "false"},
        {"nonneg_re_only": "no"},
        {"oracle": 1},
        {"n_atoms": 1000.7},
        {"n_atoms": "1000"},
        {"grid_points": 16.5},
        {"detunings": ["abc"]},
        {"times": ["x"]},
        {"sweep": {"parameter": "u0", "from": "abc", "to": -0.5, "points": 2}},
        {"detunings": [True]},
        {"itp_dt": float("nan")},
        {"tol_noise": float("nan")},
        {"tol_pair": float("inf")},
        {"times": [float("nan")]},
        {"fault_injection": "corrupt_matrix"},
        {"delta_c": 10**400},
        {"out": None},
        {"out": 123},
        {"out": ""},
        {"tol_nosie": 1e-14},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": -0.5, "points": 2, "scael": "log"}},
    ],
)
def test_config_rejects_non_boolean_flags_and_fractional_counts(tmp_path, override):
    path = write_config(tmp_path, **override)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["groundstate", "--config", path]) == 2


def test_config_error_names_the_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="tol_nosie"):
        load_config(write_config(tmp_path, tol_nosie=1e-14))
    sweep = {"parameter": "u0", "from": 0.0, "to": -1.0, "points": 2, "scael": "log"}
    with pytest.raises(ConfigError, match="scael"):
        load_config(write_config(tmp_path, sweep=sweep))


def test_shipped_configs_load():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert configs
    for path in configs:
        load_config(str(path))


@pytest.mark.parametrize("times", ["nan", "1,inf"])
def test_depletion_rejects_non_finite_times_flag(tmp_path, times):
    cfg = write_config(tmp_path)
    assert main(["depletion", "--config", cfg, "--times", times]) == 2


def test_sweep_values_linear_and_log():
    lin = sweep_values(SweepSpec("u0", 0.0, -1.0, 5))
    assert np.allclose(lin, np.linspace(0.0, -1.0, 5))
    log = sweep_values(SweepSpec("u0", -0.01, -1.0, 3, scale="log"))
    assert np.allclose(log, -np.geomspace(0.01, 1.0, 3))


def test_result_table_roundtrip(tmp_path):
    table = ResultTable(
        columns=["a", "b", "status"],
        rows=[(0.1, -1234.5678901234567, "ok"), (1e-17, 3.0, "diverged")],
        meta={"program": "x", "config": "{}"},
    )
    path = tmp_path / "t.csv"
    with open(path, "w", newline="\n") as fh:
        table.write_csv(fh)
    with open(path) as fh:
        back = ResultTable.read_csv(fh)
    assert back.columns == table.columns
    assert back.rows == table.rows  # bit-exact float round trip


# ---------------------------------------------------------------------------
# commands


def test_groundstate_zero_coupling(tmp_path):
    cfg = write_config(tmp_path, u0=0.0)
    out = tmp_path / "gs.json"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["u_avg"] == 0.0
    assert abs(data["mu"]) < 1e-10
    phi = np.array(data["phi"])
    assert np.abs(phi[:, 0] - 1.0 / np.sqrt(np.pi)).max() < 1e-12
    assert np.abs(phi[:, 1]).max() == 0.0
    assert data["converged"] is True
    assert data["heating"] is False


def test_groundstate_reference_point_converges(tmp_path):
    cfg = write_config(tmp_path, u0=-0.5)
    out = tmp_path / "gs.json"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert data["heating"] is False
    assert data["residual_phi"] < 1e-8


def test_groundstate_nonconvergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, max_iters=2)
    assert main(["groundstate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("command", ["groundstate", "spectrum", "depletion"])
def test_unwritable_output_fails_before_any_point_runs(tmp_path, capsys, monkeypatch, command):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [
        (bec_cavity.cli, "solve_ground_state"),
        (bec_cavity.cli, "analyze_point"),
        (bec_cavity.depletion, "analyze_point"),
    ]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    cfg = write_config(tmp_path)
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:")
    assert "Traceback" not in err
    assert calls == []


def test_malformed_json_exit_code_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["groundstate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_parameter_exit_code_2(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"delta_c": -1000.0}))
    assert main(["spectrum", "--config", str(path)]) == 2


def test_spectrum_csv_contains_photon_line(tmp_path):
    cfg = write_config(
        tmp_path,
        u0=0.0,
        sweep={"parameter": "u0", "from": 0.0, "to": -0.5, "points": 2},
    )
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert table.columns == [
        "u0", "mode_index", "re_omega", "im_omega",
        "abs_l1", "abs_l2", "petermann", "status",
    ]
    at_zero = [r for r in table.rows if r[0] == 0]
    assert any(
        abs(r[2] - 1000.0) < 1e-6 and abs(r[3] + 100.0) < 1e-6 for r in at_zero
    )
    u0s = [r[0] for r in table.rows]
    assert u0s == sorted(u0s, reverse=True)  # sweep order preserved


def test_spectrum_nonneg_filter(tmp_path):
    cfg = write_config(tmp_path, u0=0.0)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--nonneg-re-only"]) == 0
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert all(row[2] >= 0.0 for row in table.rows if row[7] == "ok")


def test_depletion_csv_steady_state(tmp_path):
    cfg = write_config(tmp_path, u0=-0.5)
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert table.columns == [
        "delta_c", "u0", "depletion", "stability", "dominated_fraction", "status",
    ]
    (row,) = table.rows
    assert row[5] == "ok"
    assert row[2] > 0.0
    assert row[4] > 0.5


def test_depletion_marginal_status_not_a_number(tmp_path):
    cfg = write_config(tmp_path, u0=0.0)
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    (row,) = table.rows
    assert row[5] == "marginal"
    assert row[2] is None


def test_depletion_finite_times_and_oracle(tmp_path):
    cfg = write_config(tmp_path, u0=-0.5)
    out = tmp_path / "dep.csv"
    assert (
        main(["depletion", "--config", cfg, "--out", str(out), "--times", "0,1", "--oracle"])
        == 0
    )
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert "time" in table.columns and "oracle" in table.columns
    times = [r[table.columns.index("time")] for r in table.rows]
    assert times == [0, 1]
    dep = [r[table.columns.index("depletion")] for r in table.rows]
    oracle = [r[table.columns.index("oracle")] for r in table.rows]
    assert dep[0] == 0.0
    assert oracle[1] == pytest.approx(dep[1], rel=1e-3)


@pytest.mark.parametrize("flag", [True, False])
def test_depletion_oracle_above_its_grid_cap_exits_2_before_any_point(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(bec_cavity.cli, "solve_depletion_point", None)  # no point may run
    cfg = write_config(tmp_path, grid_points=64, **({} if flag else {"oracle": True}))
    out = tmp_path / "dep.csv"
    argv = ["depletion", "--config", cfg, "--out", str(out)] + (["--oracle"] if flag else [])
    assert main(argv) == 2
    assert "at most 32 grid points" in capsys.readouterr().err
    assert not out.exists()


def test_depletion_failing_point_is_recorded_and_the_sweep_continues(tmp_path, monkeypatch):
    real_to_real = bec_cavity.depletion._to_real
    calls = []

    def failing_second_call(value, *args, **kwargs):
        # a stable steady-state point calls _to_real once, so the second
        # call belongs to the middle u0 of the sweep
        calls.append(value)
        if len(calls) == 2:
            raise RuntimeError("injected failure, middle point")
        return real_to_real(value, *args, **kwargs)

    monkeypatch.setattr(bec_cavity.depletion, "_to_real", failing_second_call)
    monkeypatch.setenv("BEC_CAVITY_THREADS", "1")
    cfg = write_config(tmp_path, sweep={"parameter": "u0", "from": -0.3, "to": -0.5, "points": 3})
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 3
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert len(table.rows) == 3
    assert all(len(row) == len(table.columns) for row in table.rows)
    status = [row[table.columns.index("status")] for row in table.rows]
    assert status[0] == "ok" and status[2] == "ok"
    assert status[1].startswith("error: RuntimeError: injected failure")
    assert table.rows[1][2:5] == (None, None, None)


def test_cli_import_loads_neither_process_pool_nor_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, bec_cavity.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'scipy') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_depletion_eta_follows_detunings(tmp_path):
    cfg = write_config(tmp_path, u0=-0.3, detunings=[-1000.0, -2000.0])
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    with open(out) as fh:
        table = ResultTable.read_csv(fh)
    assert [r[0] for r in table.rows] == [-1000, -2000]


def test_outputs_are_deterministic(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        sweep={"parameter": "u0", "from": 0.0, "to": -0.5, "points": 2},
    )
    out1, out2, out3 = (tmp_path / f"d{i}.csv" for i in range(3))
    assert main(["depletion", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["depletion", "--config", cfg, "--out", str(out2)]) == 0
    monkeypatch.setenv("BEC_CAVITY_THREADS", "2")
    assert main(["depletion", "--config", cfg, "--out", str(out3)]) == 0
    a = strip_timestamp(out1.read_text())
    assert a == strip_timestamp(out2.read_text())
    assert a == strip_timestamp(out3.read_text())


def test_verify_default_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert report.count("PASS") >= 6


def test_verify_without_mu_subtraction_at_zero_coupling(tmp_path):
    cfg = write_config(tmp_path, u0=0.0, subtract_mu=False)
    assert main(["verify", "--config", cfg]) == 0


def test_verify_fault_injection_negative_control(tmp_path, capsys):
    cfg = write_config(tmp_path, fault_injection="corrupt-matrix")
    assert main(["verify", "--config", cfg]) == 1
    report = capsys.readouterr().out
    assert "FAIL symmetry" in report


def test_verify_reports_a_chain_failure_instead_of_crashing(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected stability failure")

    monkeypatch.setattr(bec_cavity.depletion, "classify_stability", broken)
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 1
    report = capsys.readouterr().out
    assert "PASS biorthonormality" in report
    assert "FAIL pipeline: injected stability failure" in report
    assert "oracle-equivalence" not in report
