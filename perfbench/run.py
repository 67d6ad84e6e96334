"""Benchmark of the bec_cavity CLI: one workload per fresh process.

    python3 perfbench/run.py --workload steady_n200 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  A single client sends requests
in a closed loop (the next one only after the previous returns): each
request is an in-process ``bec_cavity.cli.main`` call on a config this
script writes under ``.perfbench/``.  The seeded request list is run in
full at least once and then repeated until ``--seconds`` of request time
has passed.  Every point's output is checked; failures are counted, with
their text, and never stop the run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics (see spans.py) plus the layer x grid-size table.  The full
record of a run, with every failure's text, goes to
``.perfbench/<workload>-<seed>-trace<k>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, WRONG, Request, build_requests, check_output, read_rows, write_config  # noqa: E402

# set in main() before numpy loads OpenBLAS; recorded in every result
THREAD_PIN = {
    "BEC_CAVITY_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 24  # fresh interpreters per untraced run, spread over its request loop
LAYER_TABLE_GRIDS = (16, 64, 200)
LAYER_TABLE_POINT = {"delta_c": -1000.0, "u0": -0.5}
LAYER_TABLE_TIMES = (1.0, 10.0, 100.0)
LAYER_TABLE_ORACLE_TIMES = (10.0,)
ORACLE_MAX_GRID = 32  # the CLI's own cap on the Kronecker oracle

# span names of the layers, in chain order (spans.py names them)
LAYER_SPANS = (
    "meanfield.solve",
    "fluctuation.build",
    "spectral.decompose",
    "spectral.classify",
    "depletion.steady_sum",
    "depletion.finite_sum",
    "depletion.oracle_steady",
    "depletion.oracle_finite",
)
# per-layer time metrics, self seconds per call that returned: metric -> spans.
# Each is non-zero on every workload in BENCHMARK.json, so the two sums
# share one metric and the oracle spans (only on oracle_n16) have none;
# the layer x n table times every one of them separately.  cli.self_s is
# per request.
LAYER_METRICS = {
    "meanfield.solve_s": ("meanfield.solve",),
    "fluctuation.build_s": ("fluctuation.build",),
    "spectral.decompose_s": ("spectral.decompose",),
    "spectral.classify_s": ("spectral.classify",),
    "depletion.sum_s": ("depletion.steady_sum", "depletion.finite_sum"),
    "cli.self_s": ("cli",),
}
# counts over the first full pass, so they repeat exactly for a seed
COUNT_METRICS = (
    "meanfield.iterations",
    "meanfield.failed",
    "spectral.failed",
    "depletion.sum_failed",
    "check.residual_fail",
    "check.symmetry_fail",
    "check.biorth_fail",
    "check.pairing_fail",
    "check.goldstone_fail",
)


END_TO_END = ("points_per_s", "peak_rss_mb", "setup_s")


def table_metric_names() -> list[str]:
    return [
        f"n{n}.{span}_s"
        for n in LAYER_TABLE_GRIDS
        for span in LAYER_SPANS
        if n <= ORACLE_MAX_GRID or not span.startswith("depletion.oracle")
    ]


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, in BENCHMARK.json order."""
    return [*LAYER_METRICS, *COUNT_METRICS, "cli.points", "cli.rows", "layer_table.failed",
            *table_metric_names()]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import bec_cavity from this checkout's src/, never from elsewhere."""
    if not (SRC / "bec_cavity" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'bec_cavity'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bec_cavity
    import bec_cavity.cli

    if Path(bec_cavity.__file__).resolve().parent != (SRC / "bec_cavity").resolve():
        fail(f"bec_cavity imported from {bec_cavity.__file__}, not {SRC}")
    return bec_cavity


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_pin": dict(THREAD_PIN),
    }


def time_setup(config_path: Path) -> float:
    """Seconds from process start to ready-to-run in one fresh interpreter:
    interpreter start, import bec_cavity.cli, config parse."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        fail(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def call_cli(main, request: Request, workdir: Path, slot: int, span=None):
    """Run one request; return its wall time, per-point verdicts and row count.

    Only the CLI call itself is timed, inside `span` when one is given.
    Any exception, a non-zero exit or an unreadable table fails every
    point of the request, with the reason as text.
    """
    out_path = workdir / f"req{slot}.csv"
    out_path.unlink(missing_ok=True)
    argv = request.argv(str(workdir / f"req{slot}.json"), str(out_path))
    stderr = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with span or contextlib.nullcontext(), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    except Exception as exc:  # the request boundary: record and go on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if error is None and rc != 0:
        error = f"exit code {rc}: {stderr.getvalue().strip()}"
    rows = []
    if error is None:
        try:
            rows = read_rows(out_path)
        except (OSError, ValueError) as exc:
            error = f"unreadable output: {exc}"
    verdicts = [error] * len(request.points()) if error else check_output(request, rows)
    return wall, verdicts, len(rows)


def run_loop(main, requests: list[Request], workdir: Path, seconds: float, tracer: Tracer | None = None,
             between=None):
    """Closed loop over the request list: one full pass, then repeat until
    `seconds` of request time is spent.  `between(elapsed)`, when given,
    runs after each request, outside the timed part.  Returns the
    per-request log, the request time spent and the tracer counts as they
    stood after the first pass."""
    log = []
    elapsed = 0.0
    first_pass_counts = None
    index = 0
    while index < len(requests) or elapsed < seconds:
        slot = index % len(requests)
        request = requests[slot]
        span = tracer.request(index) if tracer is not None else None
        wall, verdicts, n_rows = call_cli(main, request, workdir, slot, span)
        elapsed += wall
        log.append({"slot": slot, "kind": request.kind, "u0": request.u0, "wall_s": wall, "rows": n_rows,
                    "points": [
                        {"delta_c": dc, "u0": u0, "failure": v}
                        for (dc, u0), v in zip(request.points(), verdicts)
                    ]})
        index += 1
        if between is not None:
            between(elapsed)
        if index == len(requests) and tracer is not None:
            first_pass_counts = dict(tracer.counts)
    return log, elapsed, first_pass_counts


def layer_table(pkg) -> dict:
    """Per-layer wall time at each grid size for one fixed point, from
    direct calls into the package's public functions.  The oracle runs
    only where the CLI allows it (n <= ORACLE_MAX_GRID).  A stage that
    raises, and every stage after it, gets no time; the row says why."""
    table = {}
    for n in LAYER_TABLE_GRIDS:
        params = pkg.validate(pkg.SystemParams(
            delta_c=LAYER_TABLE_POINT["delta_c"], kappa=100.0, eta=-LAYER_TABLE_POINT["delta_c"],
            u0=LAYER_TABLE_POINT["u0"], n_atoms=1000, grid_points=n,
        ))
        grid = pkg.make_grid(n)
        row = {}

        def timed(name, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            row[f"{name}_s"] = time.perf_counter() - start
            return result

        try:
            state = timed("meanfield.solve", pkg.solve_ground_state, params, grid)
            fm = timed("fluctuation.build", pkg.build_matrix, state, params, grid)
            dec = timed("spectral.decompose", pkg.decompose, fm)
            stab = timed("spectral.classify", pkg.classify_stability, dec)
            steady = timed("depletion.steady_sum", pkg.steady_state_depletion, dec, grid, stab,
                           heating=state.heating)
            timed("depletion.finite_sum", pkg.depletion_at_times, dec, grid, list(LAYER_TABLE_TIMES))
            if n <= ORACLE_MAX_GRID:
                proj = pkg.mode_projector(dec, steady.excluded_modes + dec.goldstone)
                timed("depletion.oracle_steady", pkg.lyapunov_oracle, fm, grid, steady=True, deflate=proj)
                timed("depletion.oracle_finite", pkg.lyapunov_oracle, fm, grid,
                      list(LAYER_TABLE_ORACLE_TIMES), deflate=proj)
        except Exception as exc:  # keep the stages that returned and say why the rest is missing
            row["error"] = f"{type(exc).__name__}: {exc}"
        table[f"n{n}"] = row
    return table


def layer_table_metrics(table: dict) -> dict:
    """The table's result-line metrics.  A stage that did not run is left
    out rather than read as fast; layer_table.failed counts the grid sizes
    whose row stopped."""
    metrics = {"layer_table.failed": metric(sum("error" in row for row in table.values()), "count")}
    for name in table_metric_names():
        n_key, _, stage = name.partition(".")
        if stage in table[n_key]:
            metrics[name] = metric(table[n_key][stage], "s")
    return metrics


def summarize(log: list[dict], elapsed: float) -> dict:
    points = [p for entry in log for p in entry["points"]]
    failed = [p for p in points if p["failure"] is not None]
    return {
        "attempted": len(points),
        "failed": len(failed),
        "succeeded": len(points) - len(failed),
        "elapsed_s": elapsed,
        "failures": failed,
        # a value the program presented as valid but that fails its check
        "wrong": [p for p in failed if p["failure"].startswith(WRONG)],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PIN)
    pkg = import_package()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    requests = build_requests(workload, args.seed)
    for slot, request in enumerate(requests):
        write_config(request, workdir / f"req{slot}.json")

    # warm-up outside the timed loop: first BLAS/LAPACK calls, lazy imports
    warm = replace(requests[0], grid_points=8)
    write_config(warm, workdir / "req-1.json")
    call_cli(pkg.cli.main, warm, workdir, -1)

    tracer = Tracer() if args.trace else None
    setup = []
    if tracer is None:
        # sample set-up between requests, evenly over the run's request time,
        # so that the samples do not all land in one phase of the host's load
        def sample_setup(elapsed: float) -> None:
            if len(setup) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
                setup.append(time_setup(workdir / "req0.json"))

        log, elapsed, counts = run_loop(pkg.cli.main, requests, workdir, args.seconds, between=sample_setup)
        while len(setup) < SETUP_SAMPLES:
            setup.append(time_setup(workdir / "req0.json"))
    else:
        with tracer.installed([pkg.depletion, pkg.cli]):
            log, elapsed, counts = run_loop(pkg.cli.main, requests, workdir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(log, elapsed)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "requests": [r.__dict__ for r in requests],
        "setup_samples_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "log": log,
        **summary,
    }
    if tracer is None:
        metrics = {
            "points_per_s": metric(summary["succeeded"] / elapsed, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            # the fastest start: host load only ever adds to it
            "setup_s": metric(min(setup), "s"),
        }
    else:
        self_times = tracer.self_times()
        returned = tracer.returned_calls()
        metrics = {}
        for name, spans in LAYER_METRICS.items():
            total = sum(returned.get(span, (0.0, 0))[0] for span in spans)
            calls = sum(returned.get(span, (0.0, 0))[1] for span in spans)
            if calls:  # a layer none of whose calls returned has no time to report
                metrics[name] = metric(total / calls, "s")
        for name in COUNT_METRICS:
            metrics[name] = metric(counts.get(name, 0), "count")
        first_pass = log[: len(requests)]
        metrics["cli.points"] = metric(sum(len(e["points"]) for e in first_pass), "count")
        metrics["cli.rows"] = metric(sum(e["rows"] for e in first_pass), "count")
        table = layer_table(pkg)
        metrics.update(layer_table_metrics(table))
        metrics = {name: metrics[name] for name in per_layer_names() if name in metrics}
        record["self_times_s"] = self_times
        record["counts_first_pass"] = counts
        record["layer_table"] = table
        record["spans"] = tracer.to_json()

    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not summary["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
