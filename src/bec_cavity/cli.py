"""Command-line interface: groundstate, spectrum, depletion, verify.

Every command takes --config pointing at a JSON file (see config.py)
and writes its result to --out, the config's "out" entry, or stdout.
Sweeps fan out over a process pool capped by the BEC_CAVITY_THREADS
environment variable (default 1); results are merged in sweep order, so
the output bytes do not depend on the pool size.  Exit codes: 0 on
success, 1 on runtime failure (non-convergence, failed verification),
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, ResultTable, RunConfig, load_config, sweep_values
from .depletion import (
    OracleSingularError,
    depletion_at_times,
    lyapunov_oracle,
    mode_projector,
    solve_depletion_point,
    steady_state_depletion,
)
from .fluctuation import build_matrix, symmetry_defect
from .grid import make_grid
from .meanfield import ConvergenceError, solve_ground_state
from .params import SystemParams
from .spectral import (
    DecompositionError,
    classify_stability,
    decompose,
    solve_spectrum_point,
)


def _worker_count(n_items: int) -> int:
    raw = os.environ.get("BEC_CAVITY_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 1
    return max(1, min(cap, n_items, os.cpu_count() or 1))


def _pool_map(fn, items):
    workers = _worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    # imported only here: single-worker runs never pay its ~2 MB
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _meta(cfg: RunConfig) -> dict:
    return {
        "program": f"bec-cavity {__version__}",
        "config": cfg.canonical_json(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _u0_values(cfg: RunConfig) -> np.ndarray:
    if cfg.sweep is not None and cfg.sweep.parameter == "u0":
        return sweep_values(cfg.sweep)
    return np.array([cfg.params.u0])


def _detunings(cfg: RunConfig) -> list[float]:
    if cfg.detunings is not None:
        return cfg.detunings
    if cfg.sweep is not None and cfg.sweep.parameter == "delta_c":
        return [float(x) for x in sweep_values(cfg.sweep)]
    return [cfg.params.delta_c]


def cmd_groundstate(cfg: RunConfig, out: str | None) -> int:
    grid = make_grid(cfg.params.grid_points)
    try:
        state = solve_ground_state(cfg.params, grid, **cfg.solver_options())
    except ConvergenceError as exc:
        print(
            f"groundstate failed: {exc} "
            f"(residual_phi={exc.residual_phi:.3e}, residual_alpha={exc.residual_alpha:.3e})",
            file=sys.stderr,
        )
        return 1
    payload = {
        "phi": [[z.real, z.imag] for z in state.phi],
        "alpha": [state.alpha.real, state.alpha.imag],
        "u_avg": state.u_avg,
        "mu": state.mu,
        "converged": state.converged,
        "residual_phi": state.residual_phi,
        "residual_alpha": state.residual_alpha,
        "iterations": state.iterations,
        "heating": state.heating,
        "params": {
            "delta_c": cfg.params.delta_c,
            "kappa": cfg.params.kappa,
            "eta": cfg.params.eta,
            "u0": cfg.params.u0,
            "n_atoms": cfg.params.n_atoms,
            "grid_points": cfg.params.grid_points,
        },
    }
    stream, close = _open_out(out or cfg.out)
    try:
        json.dump(payload, stream, indent=1)
        stream.write("\n")
    finally:
        if close:
            stream.close()
    return 0


def cmd_spectrum(cfg: RunConfig, out: str | None, nonneg_re_only: bool | None = None) -> int:
    if nonneg_re_only is None:
        nonneg_re_only = cfg.nonneg_re_only
    grid = make_grid(cfg.params.grid_points)
    u0s = _u0_values(cfg)
    worker = functools.partial(
        solve_spectrum_point,
        cfg.params,
        grid,
        solver_options=cfg.solver_options(),
        subtract_mu=cfg.subtract_mu,
    )
    points = _pool_map(worker, [float(u) for u in u0s])

    columns = [
        "u0", "mode_index", "re_omega", "im_omega",
        "abs_l1", "abs_l2", "petermann", "status",
    ]
    rows = []
    for point in points:
        if point.status != "ok":
            rows.append((point.u0, -1, None, None, None, None, None, point.status))
            continue
        index = 0
        for k in range(point.omegas.size):
            if nonneg_re_only and point.omegas[k].real < 0.0:
                continue
            rows.append(
                (
                    point.u0,
                    index,
                    point.omegas[k].real,
                    point.omegas[k].imag,
                    float(point.abs_l1[k]),
                    float(point.abs_l2[k]),
                    float(point.petermann[k]),
                    "ok",
                )
            )
            index += 1
    table = ResultTable(columns=columns, rows=rows, meta=_meta(cfg))
    stream, close = _open_out(out or cfg.out)
    try:
        table.write_csv(stream)
    finally:
        if close:
            stream.close()
    return 0


def _depletion_worker(args, params: SystemParams, grid, options: dict):
    delta_c, u0 = args
    return solve_depletion_point(params, grid, delta_c, u0, **options)


def cmd_depletion(
    cfg: RunConfig,
    out: str | None,
    times: list[float] | None = None,
    oracle: bool | None = None,
) -> int:
    grid = make_grid(cfg.params.grid_points)
    if times is None:
        times = cfg.times
    if oracle is None:
        oracle = cfg.oracle
    u0s = [float(u) for u in _u0_values(cfg)]
    detunings = _detunings(cfg)
    items = [(dc, u0) for dc in detunings for u0 in u0s]
    options = dict(
        eta_follows_detuning=cfg.eta_follows_detuning,
        times=times,
        oracle=oracle,
        solver_options=cfg.solver_options(),
        subtract_mu=cfg.subtract_mu,
        tol_pair=cfg.tol_pair,
        tol_noise=cfg.tol_noise,
        tol_zero=cfg.tol_zero,
    )
    worker = functools.partial(_depletion_worker, params=cfg.params, grid=grid, options=options)
    results = _pool_map(worker, items)

    columns = ["delta_c", "u0"]
    if times:
        columns.append("time")
    columns += ["depletion", "stability", "dominated_fraction", "status"]
    if oracle:
        columns.append("oracle")
    rows = []
    for point_rows in results:
        for r in point_rows:
            row = [r.delta_c, r.u0]
            if times:
                row.append(r.time)
            row += [r.depletion, r.stability, r.dominated_fraction, r.status]
            if oracle:
                row.append(r.oracle)
            rows.append(tuple(row))
    table = ResultTable(columns=columns, rows=rows, meta=_meta(cfg))
    stream, close = _open_out(out or cfg.out)
    try:
        table.write_csv(stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_verify(cfg: RunConfig, out: str | None = None) -> int:
    """Run the invariant suite on a reduced grid, one PASS/FAIL per line."""
    stream, close = _open_out(out)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    n_red = min(cfg.params.grid_points, 16)
    params = SystemParams(
        delta_c=cfg.params.delta_c,
        kappa=cfg.params.kappa,
        eta=cfg.params.eta,
        u0=cfg.params.u0,
        n_atoms=cfg.params.n_atoms,
        grid_points=n_red,
    )
    grid = make_grid(n_red)
    try:
        state = solve_ground_state(params, grid, **cfg.solver_options())
        record(
            "meanfield-selfconsistency",
            state.residual_phi < 1e-8 and state.residual_alpha < 1e-8,
            f"residual_phi={state.residual_phi:.2e} residual_alpha={state.residual_alpha:.2e}",
        )

        fm = build_matrix(state, params, grid, subtract_mu=cfg.subtract_mu)
        if cfg.fault_injection == "corrupt-matrix":
            fm.m[0, 3] += 1e-3 * (1.0 + 1.0j)
        defect = symmetry_defect(fm.m)
        record("symmetry", defect <= 1e-13, f"max|GMG + conj(M)|={defect:.2e}")

        dec = decompose(fm)
        record(
            "biorthonormality",
            dec.biorth_defect <= 1e-10,
            f"max|LR - I|={dec.biorth_defect:.2e}",
        )
        scale = float(np.abs(dec.omegas).max())
        record(
            "eigenvalue-pairing",
            dec.pairing_error <= 1e-8 * scale,
            f"pairing error={dec.pairing_error:.2e} (bound {1e-8 * scale:.2e})",
        )
        if cfg.subtract_mu:
            if len(dec.goldstone) == 2:
                photon = min(
                    float(np.abs(dec.right[:2, k]).max()) for k in dec.goldstone
                )
                freq = max(float(abs(dec.omegas[k])) for k in dec.goldstone)
                record(
                    "goldstone",
                    photon <= 1e-8 and freq <= 1e-6,
                    f"zero-mode photon weight={photon:.2e} |omega|={freq:.2e}",
                )
            else:
                record("goldstone", False, f"cluster size {len(dec.goldstone)} != 2")

        stability = classify_stability(dec, tol_zero=cfg.tol_zero, tol_noise=cfg.tol_noise)
        try:
            if stability.label == "stable" and not state.heating:
                steady = steady_state_depletion(
                    dec, grid, stability,
                    tol_pair=cfg.tol_pair, tol_noise=cfg.tol_noise,
                )
                if steady.diverged:
                    record("oracle-equivalence", False, "steady sum diverged")
                else:
                    proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
                    oracle = lyapunov_oracle(fm, grid, steady=True, deflate=proj)
                    rel = abs(steady.value - oracle.values[0]) / max(abs(oracle.values[0]), 1e-300)
                    finite = depletion_at_times(
                        dec, grid, [1.0], exclude_modes=steady.excluded_modes
                    )
                    oracle_t = lyapunov_oracle(fm, grid, [1.0], deflate=proj)
                    rel_t = abs(finite.values[0] - oracle_t.values[0]) / max(
                        abs(oracle_t.values[0]), 1e-300
                    )
                    record(
                        "oracle-equivalence",
                        rel <= 1e-6 and rel_t <= 1e-4,
                        f"steady rel={rel:.2e}, t=1 rel={rel_t:.2e}",
                    )
            else:
                finite = depletion_at_times(dec, grid, [1.0])
                oracle_t = lyapunov_oracle(fm, grid, [1.0])
                diff = abs(finite.values[0] - oracle_t.values[0])
                denom = max(abs(oracle_t.values[0]), 1e-8)
                record(
                    "oracle-equivalence",
                    diff / denom <= 1e-4 or diff <= 1e-10,
                    f"non-stable point, t=1 |diff|={diff:.2e}",
                )
        except (OracleSingularError, RuntimeError) as exc:
            record("oracle-equivalence", False, str(exc))
    except (ConvergenceError, DecompositionError) as exc:
        record("pipeline", False, str(exc))

    failed = [c for c in checks if not c[1]]
    try:
        for name, passed, detail in checks:
            stream.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
        stream.write(f"{len(checks) - len(failed)}/{len(checks)} invariants passed\n")
    finally:
        if close:
            stream.close()
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bec-cavity",
        description="Steady states, fluctuation spectra and cavity-noise "
        "depletion of a condensate in a driven lossy cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", default=None, help="output path (default: config 'out' or stdout)")

    sub.add_parser("groundstate", parents=[common], help="solve the mean-field steady state")
    p_spec = sub.add_parser("spectrum", parents=[common], help="eigenvalue sweep table")
    p_spec.add_argument(
        "--nonneg-re-only",
        action="store_true",
        help="keep only modes with nonnegative real frequency",
    )
    p_dep = sub.add_parser("depletion", parents=[common], help="depletion sweep table")
    p_dep.add_argument(
        "--times",
        default=None,
        help="comma-separated times for finite-time depletion (default: steady state)",
    )
    p_dep.add_argument(
        "--oracle",
        action="store_true",
        help="add a second-moment oracle column (small grids only)",
    )
    sub.add_parser("verify", parents=[common], help="run the invariant suite on a reduced grid")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "groundstate":
            return cmd_groundstate(cfg, args.out)
        if args.command == "spectrum":
            flag = True if args.nonneg_re_only else None
            return cmd_spectrum(cfg, args.out, nonneg_re_only=flag)
        if args.command == "depletion":
            times = None
            if args.times is not None:
                try:
                    times = [float(t) for t in args.times.split(",") if t.strip()]
                except ValueError:
                    print(f"bad --times value: {args.times!r}", file=sys.stderr)
                    return 2
                if any(t < 0 for t in times):
                    print("--times must be nonnegative", file=sys.stderr)
                    return 2
            oracle = True if args.oracle else None
            return cmd_depletion(cfg, args.out, times=times, oracle=oracle)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
    except ConvergenceError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
