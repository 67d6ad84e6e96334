import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bec_cavity.cli
import bec_cavity.depletion
import bec_cavity.meanfield
import bec_cavity.spectral
from bec_cavity.cli import main
from bec_cavity.config import (
    ConfigError,
    SweepSpec,
    load_config,
    parse_config,
    sweep_values,
    write_csv,
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


def read_table(path):
    """A written CSV's column names and its rows of cell strings, read with
    the csv module past the '#' metadata lines."""
    with open(path, newline="") as fh:
        columns, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    return columns, rows


# ---------------------------------------------------------------------------
# config parsing


# the chain's numerical tolerances and frame, fixed in code; each with the
# value it has there
FIXED_POLICY = {
    "itp_dt": 1e-3,
    "tol_phi": 1e-9,
    "tol_alpha": 1e-10,
    "mixing": 0.3,
    "max_iters": 1_000_000,
    "refine": True,
    "subtract_mu": True,
    "tol_pair": 1e-8,
    "tol_noise": 1e-10,
    "tol_zero": 1e-6,
}


def test_config_defaults_applied(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.sweep is None and cfg.detunings is None and cfg.times is None
    assert cfg.eta_follows_detuning is False
    assert cfg.nonneg_re_only is False and cfg.oracle is False
    assert cfg.out is None and cfg.fault_injection is None
    assert not any(hasattr(cfg, key) for key in FIXED_POLICY)


@pytest.mark.parametrize("parameter", ["kappa", "delta_c"])
def test_config_rejects_bad_sweep_parameter(tmp_path, parameter):
    # u0 is the one swept parameter; the error points a detuning scan at 'detunings'
    path = write_config(
        tmp_path, sweep={"parameter": parameter, "from": -100, "to": -200, "points": 3}
    )
    with pytest.raises(ConfigError, match="parameter must be 'u0'.*'detunings'"):
        load_config(path)


def test_config_rejects_nonpositive_knob(tmp_path):
    sweep = {"parameter": "u0", "from": 0.0, "to": -1.0, "points": 0}
    with pytest.raises(ConfigError, match="sweep points must be a positive integer"):
        load_config(write_config(tmp_path, sweep=sweep))


def test_config_rejects_bad_physics(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        load_config(write_config(tmp_path, kappa=-1.0))


@pytest.mark.parametrize(
    "override",
    [
        {"eta_follows_detuning": "false"},
        {"nonneg_re_only": "no"},
        {"n_atoms": 1000.7},
        {"n_atoms": "1000"},
        {"grid_points": 16.5},
        {"detunings": ["abc"]},
        {"sweep": {"parameter": "u0", "from": "abc", "to": -0.5, "points": 2}},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": -0.5, "points": 2.5}},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": -0.5, "points": 0}},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": -0.5, "points": True}},
        {"detunings": [True]},
        {"u0": float("nan")},
        {"eta": float("inf")},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": float("-inf"), "points": 2}},
        {"fault_injection": "corrupt_matrix"},
        {"delta_c": 10**400},
        {"out": None},
        {"out": 123},
        {"out": ""},
        {"tol_nosie": 1e-14},
        {"sweep": {"parameter": "u0", "from": -0.1, "to": -0.5, "points": 2, "scael": "log"}},
        # inputs with another way in: 'detunings', --times and --oracle
        {"sweep": {"parameter": "delta_c", "from": -100, "to": -200, "points": 2}},
        {"times": [1, 10]},
        {"oracle": True},
    ],
)
def test_config_rejects_non_boolean_flags_and_fractional_counts(tmp_path, override):
    path = write_config(tmp_path, **override)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["groundstate", "--config", path]) == 2


@pytest.mark.parametrize(
    "override",
    [
        {"n_atoms": 1000.0},
        {"grid_points": 16.0},
        {"sweep": {"parameter": "u0", "from": 0.0, "to": -1.0, "points": 3.0}},
    ],
)
def test_config_accepts_a_whole_float_count(tmp_path, override):
    # one rule for every count: a whole number, as an int or a float
    cfg = load_config(write_config(tmp_path, **override))
    assert (cfg.params.n_atoms, cfg.params.grid_points) == (1000, 16)
    assert cfg.sweep is None or cfg.sweep.points == 3


@pytest.mark.parametrize(
    "override, key",
    [
        pytest.param({"tol_nosie": 1e-14}, "tol_nosie", id="tol_nosie"),
        pytest.param(
            {"sweep": {"parameter": "u0", "from": 0.0, "to": -1.0, "points": 2, "scael": "log"}},
            "scael",
            id="scael",
        ),
        # the depletion command's --times and --oracle flags
        pytest.param({"times": [1, 10]}, "times", id="times"),
        pytest.param({"oracle": True}, "oracle", id="oracle"),
        *(pytest.param({key: value}, key, id=key) for key, value in FIXED_POLICY.items()),
    ],
)
def test_config_error_names_the_unknown_key(tmp_path, capsys, override, key):
    path = write_config(tmp_path, **override)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["groundstate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and key in err


def test_shipped_configs_load():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert configs
    for path in configs:
        # configs/<command>[_<name>].json sets only keys its command reads
        load_config(str(path)).refuse_unread_keys(path.stem.split("_")[0])


@pytest.mark.parametrize(
    "command, key, override",
    [
        ("spectrum", "detunings", {"detunings": [-100.0, -1000.0]}),
        ("groundstate", "sweep", {"sweep": {"parameter": "u0", "from": 0.0, "to": -0.5, "points": 2}}),
        ("groundstate", "detunings", {"detunings": [-1000.0]}),
        ("verify", "sweep", {"sweep": {"parameter": "u0", "from": 0.0, "to": -0.5, "points": 2}}),
        ("verify", "detunings", {"detunings": [-100.0, -1000.0]}),
        # option keys the command does not read
        ("spectrum", "eta_follows_detuning", {"eta_follows_detuning": True}),
        ("spectrum", "fault_injection", {"fault_injection": "corrupt-matrix"}),
        ("verify", "nonneg_re_only", {"nonneg_re_only": True}),
        ("verify", "out", {"out": "verify.txt"}),
        ("groundstate", "nonneg_re_only", {"nonneg_re_only": True}),
        ("groundstate", "eta_follows_detuning", {"eta_follows_detuning": False}),
        ("groundstate", "fault_injection", {"fault_injection": "corrupt-matrix"}),
        ("depletion", "nonneg_re_only", {"nonneg_re_only": False}),
        ("depletion", "fault_injection", {"fault_injection": "corrupt-matrix"}),
    ],
)
def test_a_sweep_axis_the_command_cannot_write_is_a_config_error(
    tmp_path, capsys, command, key, override
):
    cfg = write_config(tmp_path, **override)
    out = tmp_path / "out.txt"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command}") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("times", ["nan", "1,inf", ",", ""])
def test_depletion_rejects_non_finite_times_flag(tmp_path, times):
    cfg = write_config(tmp_path)
    assert main(["depletion", "--config", cfg, "--times", times]) == 2


def test_sweep_values_linear_and_log():
    lin = sweep_values(SweepSpec(0.0, -1.0, 5))
    assert np.allclose(lin, np.linspace(0.0, -1.0, 5))
    log = sweep_values(SweepSpec(-0.01, -1.0, 3, scale="log"))
    assert np.allclose(log, -np.geomspace(0.01, 1.0, 3))


def test_result_table_roundtrip(tmp_path):
    columns = ["a", "b", "status"]
    rows = [(0.1, -1234.5678901234567, "ok"), (1e-17, 3.0, "diverged")]
    path = tmp_path / "t.csv"
    with open(path, "w", newline="\n") as fh:
        write_csv(fh, columns, rows, {"program": "x", "config": "{}"})
    assert path.read_text().startswith("# program: x\n# config: {}\na,b,status\n")
    written_columns, written = read_table(path)
    assert written_columns == columns
    # bit-exact float round trip
    assert [(float(a), float(b), status) for a, b, status in written] == rows
    with pytest.raises(ValueError, match="row length"):
        write_csv(io.StringIO(), columns, [(1.0, "ok")], {})


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
    assert data["params"] == {
        "delta_c": -1000.0, "kappa": 100.0, "eta": 1000.0, "u0": -0.5, "n_atoms": 1000, "grid_points": 16,
    }


def test_groundstate_nonconvergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(bec_cavity.meanfield, "MAX_ITERS", 2)
    cfg = write_config(tmp_path)
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


def test_every_subcommand_has_a_handler_and_no_other_command_parses(tmp_path, capsys):
    # main looks the handler up by command name; argparse refuses any other
    # name with exit code 2 before a config is read
    parser = bec_cavity.cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert sorted(sub.choices) == sorted(bec_cavity.cli.COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", write_config(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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
    columns, rows = read_table(out)
    assert columns == [
        "u0", "mode_index", "re_omega", "im_omega",
        "abs_l1", "abs_l2", "petermann", "status",
    ]
    at_zero = [r for r in rows if float(r[0]) == 0]
    assert any(
        abs(float(r[2]) - 1000.0) < 1e-6 and abs(float(r[3]) + 100.0) < 1e-6 for r in at_zero
    )
    u0s = [float(r[0]) for r in rows]
    assert u0s == sorted(u0s, reverse=True)  # sweep order preserved


def test_spectrum_nonneg_filter(tmp_path, capsys):
    cfg = write_config(tmp_path, u0=0.0, nonneg_re_only=True)
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_table(out)
    assert rows and all(float(row[2]) >= 0.0 for row in rows if row[7] == "ok")
    # the config key is the one way in: spectrum takes no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "--out", str(out), "--nonneg-re-only"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nonneg-re-only" in capsys.readouterr().err


def test_depletion_csv_steady_state(tmp_path):
    cfg = write_config(tmp_path, u0=-0.5)
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    columns, (row,) = read_table(out)
    assert columns == [
        "delta_c", "u0", "depletion", "stability", "dominated_fraction", "status",
    ]
    assert row[5] == "ok"
    assert float(row[2]) > 0.0
    assert float(row[4]) > 0.5


def test_depletion_marginal_status_not_a_number(tmp_path):
    cfg = write_config(tmp_path, u0=0.0)
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    _, (row,) = read_table(out)
    assert row[5] == "marginal"
    assert row[2] == ""


def test_depletion_finite_times_and_oracle(tmp_path):
    cfg = write_config(tmp_path, u0=-0.5)
    out = tmp_path / "dep.csv"
    assert (
        main(["depletion", "--config", cfg, "--out", str(out), "--times", "0,1", "--oracle"])
        == 0
    )
    columns, rows = read_table(out)
    assert "time" in columns and "oracle" in columns
    times = [float(r[columns.index("time")]) for r in rows]
    assert times == [0, 1]
    dep = [float(r[columns.index("depletion")]) for r in rows]
    oracle = [float(r[columns.index("oracle")]) for r in rows]
    assert dep[0] == 0.0
    assert oracle[1] == pytest.approx(dep[1], rel=1e-3)


def test_depletion_oracle_cell_is_blank_where_the_oracle_overflows(tmp_path, capsys):
    # a growing point: dN(100) is about 1.2e96, and by t = 1e4 both the mode
    # sum and the oracle overflow
    cfg = write_config(tmp_path, u0=-1.2, grid_points=8)
    out = tmp_path / "dep.csv"
    argv = ["depletion", "--config", cfg, "--out", str(out), "--times", "1,100,10000", "--oracle"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    columns, rows = read_table(out)
    status = [r[columns.index("status")] for r in rows]
    oracle = [r[columns.index("oracle")] for r in rows]
    depletion = [r[columns.index("depletion")] for r in rows]
    assert status == ["ok", "ok", "diverged"]
    assert float(oracle[0]) == pytest.approx(float(depletion[0]), rel=1e-6)
    assert float(oracle[1]) == pytest.approx(float(depletion[1]), rel=1e-6)
    assert oracle[2] == ""


def _steady_oracle_sweep(tmp_path, name="dep.csv"):
    # the served u0 range at n = 16, at a detuning with heating points and
    # one without
    cfg = write_config(
        tmp_path, name=f"{name}.json", detunings=[-100.0, -1000.0], eta_follows_detuning=True,
        sweep={"parameter": "u0", "from": -0.02, "to": -1.04, "points": 7},
    )
    out = tmp_path / name
    assert main(["depletion", "--config", cfg, "--out", str(out), "--oracle"]) == 0
    columns, rows = read_table(out)
    return [dict(zip(columns, row)) for row in rows]


def test_steady_oracle_column_agrees_with_the_mode_sums(tmp_path):
    # criterion 3's steady bound, 1e-6 relative, on every ok row; the worst
    # gap here is about 1.4e-8
    rows = _steady_oracle_sweep(tmp_path)
    ok = [r for r in rows if r["status"] == "ok"]
    assert {float(r["delta_c"]) for r in ok} == {-100.0, -1000.0}
    assert len(ok) >= 9 and all(r["oracle"] for r in ok)
    for r in ok:
        assert float(r["depletion"]) == pytest.approx(float(r["oracle"]), rel=1e-6)
    # a heating point has no steady state, and no oracle value either
    assert all(r["oracle"] == "" for r in rows if r["status"] == "heating")


def test_steady_oracle_cell_is_blank_where_the_oracle_is_singular(tmp_path, monkeypatch):
    # the row keeps its mode sum and its ok status; only the oracle is lost
    reference = _steady_oracle_sweep(tmp_path, "reference.csv")

    def singular(*args, **kwargs):
        raise bec_cavity.depletion.OracleSingularError("injected: no steady state")

    monkeypatch.setattr(bec_cavity.depletion, "lyapunov_oracle", singular)
    rows = _steady_oracle_sweep(tmp_path)
    assert any(r["status"] == "ok" for r in rows)
    assert all(r["oracle"] == "" for r in rows)
    assert [{**r, "oracle": ""} for r in reference] == rows


@pytest.mark.parametrize("times", [None, "1,100"])
def test_depletion_point_whose_chain_fails_writes_one_error_row(tmp_path, monkeypatch, times):
    # decompose refuses the middle u0 of the sweep: that point writes one
    # error row, whatever the number of times, and the others their ok rows
    decompose = bec_cavity.depletion.decompose
    calls = []

    def refusing_second_call(fm):
        calls.append(fm)
        if len(calls) == 2:
            raise bec_cavity.spectral.DecompositionError("injected refusal at the middle point")
        return decompose(fm)

    monkeypatch.setattr(bec_cavity.depletion, "decompose", refusing_second_call)
    monkeypatch.setenv("BEC_CAVITY_THREADS", "1")
    cfg = write_config(tmp_path, sweep={"parameter": "u0", "from": -0.3, "to": -0.5, "points": 3})
    out = tmp_path / "dep.csv"
    argv = ["depletion", "--config", cfg, "--out", str(out), *(["--times", times] if times else [])]
    assert main(argv) == 0
    assert len(calls) == 3
    columns, rows = read_table(out)
    per_point = 2 if times else 1
    assert len(rows) == 2 * per_point + 1
    _, middle, _ = dict.fromkeys(r[1] for r in rows)  # the u0 cells, in order
    (row,) = [dict(zip(columns, r)) for r in rows if r[1] == middle]
    assert row["status"] == "error: DecompositionError: injected refusal at the middle point"
    assert all(row[name] == "" for name in columns if name not in ("delta_c", "u0", "status"))
    assert [r[columns.index("status")] for r in rows if r[1] != middle] == ["ok"] * 2 * per_point


def test_depletion_time_whose_sum_fails_costs_only_its_own_row(tmp_path, monkeypatch):
    # the sum at t = 1e25 keeps a non-negligible imaginary part (injected: in
    # the cosine modes no time of the shipped sweep does, up to 1e60); the
    # point's other times keep their rows
    module = bec_cavity.depletion
    kernel = module.finite_time_kernel

    def failing_at_1e25(z, t):
        value = kernel(z, t)
        return value * (1.0 + 1.0j) if t == 1e25 else value  # Im dN = Re dN

    monkeypatch.setattr(module, "finite_time_kernel", failing_at_1e25)
    cfg = write_config(tmp_path, delta_c=-100.0, eta=100.0, u0=-0.05)
    tables = []
    for times in ("1,100", "1,100,1e25"):
        out = tmp_path / f"dep-{len(times)}.csv"
        assert main(["depletion", "--config", cfg, "--out", str(out), "--times", times]) == 0
        tables.append(read_table(out))
    (columns, short), (_, long) = tables
    status = columns.index("status")
    assert [r[status] for r in short] == ["ok", "ok"]
    assert long[:2] == short
    row = dict(zip(columns, long[2]))
    assert float(row["time"]) == 1e25 and row["depletion"] == ""
    assert row["stability"] == short[0][columns.index("stability")]
    assert row["status"].startswith(
        "error: RuntimeError: depletion acquired a non-negligible imaginary part"
    )


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
    columns, rows = read_table(out)
    assert len(rows) == 3
    assert all(len(row) == len(columns) for row in rows)
    status = [row[columns.index("status")] for row in rows]
    assert status[0] == "ok" and status[2] == "ok"
    assert status[1].startswith("error: RuntimeError: injected failure")
    assert rows[1][2:5] == ["", "", ""]


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


def test_sweep_commands_load_no_numpy_ma(tmp_path):
    # np.unique and np.setdiff1d import numpy.ma on first use, 1.2 MB of
    # resident memory; a steady and a finite-time depletion sweep and a
    # spectrum sweep at n = 200 must not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cfg = write_config(tmp_path, u0=-0.5, grid_points=200)
    code = (
        "import sys; from bec_cavity.cli import main; "
        f"main(['depletion', '--config', {cfg!r}, '--out', {str(tmp_path / 'a.csv')!r}]); "
        f"main(['depletion', '--config', {cfg!r}, '--times', '1,100', '--out', {str(tmp_path / 'b.csv')!r}]); "
        f"main(['spectrum', '--config', {cfg!r}, '--out', {str(tmp_path / 'c.csv')!r}]); "
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "command, flags",
    [("depletion", ["--times", "1,100", "--oracle"])],
)
def test_a_flag_of_one_call_never_reaches_the_next(tmp_path, command, flags):
    # the parser is built once per process; a call without the flags then
    # writes what a fresh process writes
    assert bec_cavity.cli.build_parser() is bec_cavity.cli.build_parser()
    cfg = write_config(tmp_path, u0=-0.5)
    flagged, plain, fresh = (tmp_path / f"{name}.csv" for name in ("flagged", "plain", "fresh"))
    assert main([command, "--config", cfg, "--out", str(flagged), *flags]) == 0
    assert main([command, "--config", cfg, "--out", str(plain)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "bec_cavity.cli", command, "--config", cfg, "--out", str(fresh)]
    subprocess.run(argv, env=env, capture_output=True, check=True)
    assert strip_timestamp(plain.read_text()) == strip_timestamp(fresh.read_text())
    assert strip_timestamp(flagged.read_text()) != strip_timestamp(plain.read_text())


def test_depletion_eta_follows_detunings(tmp_path):
    cfg = write_config(
        tmp_path, u0=-0.3, detunings=[-1000.0, -2000.0], eta_follows_detuning=True
    )
    out = tmp_path / "dep.csv"
    assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_table(out)
    assert [float(r[0]) for r in rows] == [-1000, -2000]


def test_depletion_reads_the_config_eta(tmp_path):
    values = []
    for eta in (500.0, 1000.0):
        cfg = write_config(tmp_path, f"eta{eta:g}.json", eta=eta)
        out = tmp_path / f"eta{eta:g}.csv"
        assert main(["depletion", "--config", cfg, "--out", str(out)]) == 0
        columns, (row,) = read_table(out)
        assert row[columns.index("status")] == "ok"
        values.append(float(row[columns.index("depletion")]))
    assert values[0] != values[1]


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


@pytest.mark.parametrize("u0", [-0.5, 0.0])  # a phase/number chain; a decoupled pair
def test_verify_default_passes(tmp_path, capsys, u0):
    cfg = write_config(tmp_path, u0=u0)
    assert main(["verify", "--config", cfg]) == 0
    report = capsys.readouterr().out
    assert "FAIL" not in report
    assert report.count("PASS") >= 6


def test_verify_compares_a_diverged_steady_sum_at_t1(tmp_path, capsys):
    # draw 48 of tests/test_scan.py (seed 0): stable, its slowest noise-coupled
    # mode damped at 2.2e-13, so its steady sum reads diverged
    cfg = write_config(
        tmp_path, delta_c=-17867.206784555412, kappa=0.5456346016292521,
        eta=358.94258365021955, u0=-2.1429982206980265, n_atoms=518, grid_points=8,
    )
    assert main(["verify", "--config", cfg]) == 0
    report = capsys.readouterr().out
    assert "PASS oracle-equivalence: steady sum diverged, t=1 |diff|=" in report
    assert "6/6 invariants passed" in report


def test_verify_fault_injection_negative_control(tmp_path, capsys):
    cfg = write_config(tmp_path, fault_injection="corrupt-matrix")
    assert main(["verify", "--config", cfg]) == 1
    report = capsys.readouterr().out
    assert "FAIL symmetry" in report
    assert "FAIL pipeline: M breaks G M G = -conj(M)" in report


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
