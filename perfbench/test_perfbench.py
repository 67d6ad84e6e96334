"""Tests of the benchmark's own machinery; the package is replaced by a fake CLI."""

import json
from dataclasses import replace

import pytest

from run import run_loop, summarize
from spans import Tracer
from workloads import WORKLOADS, WRONG, Request, build_requests, draw_u0, write_config

HEADER = "delta_c,u0,depletion,stability,dominated_fraction,status"


def fake_cli(rows_for):
    """A stand-in for bec_cavity.cli.main that writes the table rows_for(cfg) returns."""

    def main(argv):
        cfg = json.loads(open(argv[argv.index("--config") + 1]).read())
        body = rows_for(cfg)
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write("# program: fake\n" + "\n".join(body) + "\n")
        return 0

    return main


def test_bad_rows_and_raising_requests_fail_while_the_run_continues(tmp_path):
    steady = Request(kind="steady", u0=-0.5, detunings=(-1000.0,), grid_points=16)
    oracle = replace(steady, kind="oracle_steady", u0=-0.6, oracle=True)
    corrupt = replace(steady, u0=-0.7)
    raising = replace(steady, u0=-0.8)
    requests = [corrupt, oracle, raising, steady]
    for slot, request in enumerate(requests):
        write_config(request, tmp_path / f"req{slot}.json")

    def rows_for(cfg):
        u0 = cfg["u0"]
        if u0 == -0.8:
            raise RuntimeError("depletion acquired a non-negligible imaginary part")
        if u0 == -0.7:
            return [HEADER, "-1000,-0.69999999999999996,nan,stable,1,ok"]
        if u0 == -0.6:
            return [HEADER + ",oracle", "-1000,-0.59999999999999998,60.5,stable,1,ok,"]
        return [HEADER, "-1000,-0.5,60.5,stable,1,ok"]

    log, elapsed, _ = run_loop(fake_cli(rows_for), requests, tmp_path, seconds=0.0)
    summary = summarize(log, elapsed)

    assert [entry["u0"] for entry in log] == [-0.7, -0.6, -0.8, -0.5]
    failures = [p["failure"] for entry in log for p in entry["points"]]
    assert failures[0].startswith(WRONG) and "nan" in failures[0]
    assert failures[1] == "blank oracle cell"
    assert failures[2] == "RuntimeError: depletion acquired a non-negligible imaginary part"
    assert failures[3] is None
    assert (summary["attempted"], summary["failed"], summary["succeeded"]) == (4, 3, 1)
    assert len(summary["wrong"]) == 1


def test_error_status_and_missing_rows_are_failures(tmp_path):
    request = Request(kind="finite", u0=-0.5, detunings=(-1000.0, -10000.0), grid_points=16,
                      times=(1.0, 10.0, 100.0))
    write_config(request, tmp_path / "req0.json")
    header = "delta_c,u0,time,depletion,stability,dominated_fraction,status"

    def rows_for(cfg):
        ok = [f"-1000,-0.5,{t},0.01,stable,,ok" for t in (1, 10, 100)]
        return [header, *ok, "-10000,-0.5,,,,,error: right eigenvector basis is numerically singular"]

    log, elapsed, _ = run_loop(fake_cli(rows_for), [request], tmp_path, seconds=0.0)
    verdicts = [p["failure"] for p in log[0]["points"]]
    assert verdicts == [None, "error: right eigenvector basis is numerically singular"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_draws_same_points(name):
    workload = WORKLOADS[name]
    assert draw_u0(workload, 7) == draw_u0(workload, 7)
    assert build_requests(workload, 7) == build_requests(workload, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_draws_other_points_in_the_same_strata(name):
    workload = WORKLOADS[name]
    lo, hi = workload.u0_range
    width = (hi - lo) / workload.strata
    first, second = draw_u0(workload, 1), draw_u0(workload, 2)
    assert [s for s, _ in first] == [s for s, _ in second]
    for (stratum, a), (_, b) in zip(first, second):
        if stratum < 0:
            assert a == b == 0.0
            continue
        assert a != b
        for u in (a, b):
            assert min(lo + stratum * width, lo + (stratum + 1) * width) - 1e-9 <= u
            assert u <= max(lo + stratum * width, lo + (stratum + 1) * width) + 1e-9


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.request(0):
        with tracer.span("meanfield.solve"):
            pass
        with tracer.span("spectral.decompose"):
            pass
    assert tracer.self_times() == {"meanfield.solve": 2.0, "spectral.decompose": 0.5, "cli": 7.5}
    assert {s[2] for s in tracer.spans} == {0}


def test_a_call_that_raised_is_left_out_of_the_per_call_times():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.request(0):
        with tracer.span("spectral.decompose"):
            pass
        with pytest.raises(RuntimeError), tracer.span("spectral.decompose"):
            raise RuntimeError("right eigenvector basis is numerically singular")
    assert tracer.self_times()["spectral.decompose"] == 2.5
    assert tracer.returned_calls() == {"spectral.decompose": (2.0, 1), "cli": (7.5, 1)}


def test_a_layer_table_stage_that_raises_is_reported_as_failed_not_fast():
    from types import SimpleNamespace

    from run import LAYER_TABLE_GRIDS, layer_table, layer_table_metrics

    def decompose(grid):
        if grid == 200:
            raise RuntimeError("right eigenvector basis is numerically singular")
        return SimpleNamespace(goldstone=[])

    fake = SimpleNamespace(
        SystemParams=lambda **kw: kw,
        validate=lambda params: params,
        make_grid=lambda n: n,
        solve_ground_state=lambda params, grid: SimpleNamespace(heating=False),
        build_matrix=lambda state, params, grid: grid,
        decompose=decompose,
        classify_stability=lambda dec: dec,
        steady_state_depletion=lambda dec, grid, stab, heating: SimpleNamespace(excluded_modes=[]),
        depletion_at_times=lambda dec, grid, times: None,
        mode_projector=lambda dec, modes: None,
        lyapunov_oracle=lambda fm, grid, *times, steady=False, deflate=None: None,
    )

    table = layer_table(fake)
    assert LAYER_TABLE_GRIDS[-1] == 200
    assert table["n200"]["error"].startswith("RuntimeError")
    assert set(table["n200"]) == {"meanfield.solve_s", "fluctuation.build_s", "error"}
    metrics = layer_table_metrics(table)
    assert metrics["layer_table.failed"]["value"] == 1
    assert "n200.meanfield.solve_s" in metrics and "n16.depletion.oracle_finite_s" in metrics
    assert "n200.spectral.decompose_s" not in metrics
    assert "n200.depletion.steady_sum_s" not in metrics


def test_benchmark_json_names_every_metric_run_py_prints():
    from pathlib import Path

    from run import END_TO_END, per_layer_names

    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
