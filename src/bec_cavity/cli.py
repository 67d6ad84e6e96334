"""Command-line interface: groundstate, spectrum, depletion, verify.

Every command takes --config pointing at a JSON file (see config.py)
and writes its result to --out, the config's "out" entry, or stdout.
spectrum, depletion and verify all run each point through
``depletion.analyze_point``; a sweep worker reduces that record to its
output rows, so no matrix ever crosses the process boundary.
Sweeps fan out over a process pool capped by the BEC_CAVITY_THREADS
environment variable (default 1); results are merged in sweep order, so
the output bytes do not depend on the pool size.  The output is opened
before any point runs.  Exit codes: 0 on success, 1 on runtime failure
(non-convergence, failed verification), 2 on configuration errors (the
oracle above ORACLE_MAX_GRID grid points included) and on an output path
that cannot be opened.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import replace as dc_replace
from typing import TextIO

import numpy as np

from . import __version__
from .config import ConfigError, ResultTable, RunConfig, load_config, sweep_values
from .depletion import (
    ORACLE_MAX_GRID,
    analyze_point,
    depletion_at_times,
    error_status,
    lyapunov_oracle,
    mode_projector,
    solve_depletion_point,
    steady_state_depletion,
)
from .fluctuation import symmetry_defect
from .grid import make_grid
from .meanfield import ConvergenceError, solve_ground_state
from .params import SystemParams
from .spectral import petermann_raw


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


def cmd_groundstate(cfg: RunConfig, stream: TextIO) -> int:
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
    json.dump(payload, stream, indent=1)
    stream.write("\n")
    return 0


def _chain_options(cfg: RunConfig) -> dict:
    return dict(
        solver_options=cfg.solver_options(),
        subtract_mu=cfg.subtract_mu,
        tol_zero=cfg.tol_zero,
        tol_noise=cfg.tol_noise,
    )


def _spectrum_rows(u0: float, params: SystemParams, grid, options: dict, nonneg_re_only: bool):
    """CSV rows of one light shift, built where the point record is made."""
    point = analyze_point(dc_replace(params, u0=u0), grid, **options)
    if point.error is not None:
        return [(u0, -1, None, None, None, None, None, error_status(point.error))]
    dec = point.dec
    abs_l1 = np.abs(dec.left[:, 0])
    abs_l2 = np.abs(dec.left[:, 1])
    petermann = petermann_raw(dec)
    shown = [k for k, w in enumerate(dec.omegas) if not (nonneg_re_only and w.real < 0.0)]
    return [
        (u0, index, dec.omegas[k].real, dec.omegas[k].imag,
         float(abs_l1[k]), float(abs_l2[k]), float(petermann[k]), "ok")
        for index, k in enumerate(shown)
    ]


def cmd_spectrum(cfg: RunConfig, stream: TextIO, nonneg_re_only: bool | None = None) -> int:
    if nonneg_re_only is None:
        nonneg_re_only = cfg.nonneg_re_only
    worker = functools.partial(
        _spectrum_rows,
        params=cfg.params,
        grid=make_grid(cfg.params.grid_points),
        options=_chain_options(cfg),
        nonneg_re_only=nonneg_re_only,
    )
    columns = [
        "u0", "mode_index", "re_omega", "im_omega",
        "abs_l1", "abs_l2", "petermann", "status",
    ]
    points = _pool_map(worker, [float(u) for u in _u0_values(cfg)])
    rows = [row for point_rows in points for row in point_rows]
    ResultTable(columns=columns, rows=rows, meta=_meta(cfg)).write_csv(stream)
    return 0


def _depletion_worker(args, params: SystemParams, grid, options: dict):
    delta_c, u0 = args
    return solve_depletion_point(params, grid, delta_c, u0, **options)


def cmd_depletion(
    cfg: RunConfig,
    stream: TextIO,
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
        _chain_options(cfg),
        eta_follows_detuning=cfg.eta_follows_detuning,
        times=times,
        oracle=oracle,
        tol_pair=cfg.tol_pair,
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
    ResultTable(columns=columns, rows=rows, meta=_meta(cfg)).write_csv(stream)
    return 0


def _oracle_equivalence(cfg: RunConfig, grid, point) -> tuple[bool, str]:
    """Mode sums against the second-moment oracle on the same observable."""
    fm, dec, stability = point.fm, point.dec, point.stability
    if stability.label != "stable" or point.state.heating:
        finite = depletion_at_times(dec, grid, [1.0])
        oracle_t = lyapunov_oracle(fm, grid, [1.0])
        diff = abs(finite.values[0] - oracle_t.values[0])
        denom = max(abs(oracle_t.values[0]), 1e-8)
        return diff / denom <= 1e-4 or diff <= 1e-10, f"non-stable point, t=1 |diff|={diff:.2e}"
    steady = steady_state_depletion(
        dec, grid, stability, tol_pair=cfg.tol_pair, tol_noise=cfg.tol_noise
    )
    if steady.diverged:
        return False, "steady sum diverged"
    proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
    oracle = lyapunov_oracle(fm, grid, steady=True, deflate=proj)
    rel = abs(steady.value - oracle.values[0]) / max(abs(oracle.values[0]), 1e-300)
    finite = depletion_at_times(dec, grid, [1.0], exclude_modes=steady.excluded_modes)
    oracle_t = lyapunov_oracle(fm, grid, [1.0], deflate=proj)
    rel_t = abs(finite.values[0] - oracle_t.values[0]) / max(abs(oracle_t.values[0]), 1e-300)
    return rel <= 1e-6 and rel_t <= 1e-4, f"steady rel={rel:.2e}, t=1 rel={rel_t:.2e}"


def cmd_verify(cfg: RunConfig, stream: TextIO) -> int:
    """Run the invariant suite on a reduced grid, one PASS/FAIL per line."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    n_red = min(cfg.params.grid_points, 16)
    params = dc_replace(cfg.params, grid_points=n_red)
    grid = make_grid(n_red)
    point = analyze_point(params, grid, fault_injection=cfg.fault_injection, **_chain_options(cfg))
    state, fm, dec, stability = point.state, point.fm, point.dec, point.stability
    if state is not None:
        record(
            "meanfield-selfconsistency",
            state.residual_phi < 1e-8 and state.residual_alpha < 1e-8,
            f"residual_phi={state.residual_phi:.2e} residual_alpha={state.residual_alpha:.2e}",
        )
    if fm is not None:
        defect = symmetry_defect(fm.m)
        record("symmetry", defect <= 1e-13, f"max|GMG + conj(M)|={defect:.2e}")
    if dec is not None:
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
    if stability is not None:
        try:
            record("oracle-equivalence", *_oracle_equivalence(cfg, grid, point))
        except Exception as exc:  # a failing oracle is a failed check, not a crash
            record("oracle-equivalence", False, str(exc))
    if point.error is not None:
        record("pipeline", False, str(point.error))

    failed = [c for c in checks if not c[1]]
    for name, passed, detail in checks:
        stream.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    stream.write(f"{len(checks) - len(failed)}/{len(checks)} invariants passed\n")
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
        help=f"add a second-moment oracle column (at most {ORACLE_MAX_GRID} grid points)",
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

    times = None
    if args.command == "depletion" and args.times is not None:
        try:
            times = [float(t) for t in args.times.split(",") if t.strip()]
        except ValueError:
            print(f"bad --times value: {args.times!r}", file=sys.stderr)
            return 2
        if not all(0.0 <= t < math.inf for t in times):
            print("--times must be finite and nonnegative", file=sys.stderr)
            return 2

    if args.command == "depletion" and (args.oracle or cfg.oracle):
        if cfg.params.grid_points > ORACLE_MAX_GRID:
            print(
                f"the oracle runs on at most {ORACLE_MAX_GRID} grid points, "
                f"got grid_points = {cfg.params.grid_points}",
                file=sys.stderr,
            )
            return 2

    # opened before any point runs, so a bad path throws away no work;
    # verify writes only to --out or stdout
    path = args.out if args.command == "verify" else args.out or cfg.out
    try:
        stream, close = _open_out(path)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    # every command reports its own runtime failures: groundstate catches the
    # mean field's ConvergenceError, the others record each point's error
    try:
        if args.command == "groundstate":
            return cmd_groundstate(cfg, stream)
        if args.command == "spectrum":
            flag = True if args.nonneg_re_only else None
            return cmd_spectrum(cfg, stream, nonneg_re_only=flag)
        if args.command == "depletion":
            oracle = True if args.oracle else None
            return cmd_depletion(cfg, stream, times=times, oracle=oracle)
        if args.command == "verify":
            return cmd_verify(cfg, stream)
    finally:
        if close:
            stream.close()
    raise AssertionError(f"unhandled command {args.command}")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
