"""Command-line interface: groundstate, spectrum, depletion, verify.

Every command takes --config pointing at a JSON file (see config.py)
and writes its result to --out, the config's "out" entry (which verify
does not read), or stdout.
spectrum, depletion and verify all run each point through
``depletion.analyze_point``; a sweep worker reduces that record to its
output rows, so no matrix ever crosses the process boundary.
Sweeps fan out over a process pool capped by the BEC_CAVITY_THREADS
environment variable (default 1); results are merged in sweep order, so
the output bytes do not depend on the pool size.  The output is opened
before any point runs.  Exit codes: 0 on success, 1 on runtime failure
(non-convergence, failed verification), 2 on configuration errors (an
option key the command does not read among them) and on an output path
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
from .spectral import odd_frequencies, petermann_raw


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
        state = solve_ground_state(cfg.params, grid)
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


def _spectrum_rows(u0: float, params: SystemParams, grid, nonneg_re_only: bool):
    """CSV rows of one light shift, built where the point record is made.

    The even modes of ``decompose`` come first, then the odd ones from
    ``odd_frequencies``, which are normal and noiseless: |l1| = |l2| = 0
    and a Petermann factor of 1.  Each sector is in a stable (Re, Im) sort
    of its own rows: an even and an odd mode of nearly equal frequency (the
    free levels 4 k^2 at a weak lattice) then keep their rows whatever the
    rounding, and the two exact-zero Goldstone modes keep their order.
    """
    point = analyze_point(dc_replace(params, u0=u0), grid)
    if point.error is not None:
        return [(u0, -1, None, None, None, None, None, error_status(point.error))]
    dec = point.dec
    w = np.concatenate([dec.omegas, odd_frequencies(point.fm)])
    n_e = dec.omegas.size
    photon = np.zeros((w.size, 2))  # |l1|, |l2|
    photon[:n_e] = np.abs(dec.even_left[:, :2])
    petermann = np.ones(w.size)
    petermann[:n_e] = petermann_raw(dec)
    modes = np.concatenate([
        sector.start + np.lexsort((w[sector].imag, w[sector].real))
        for sector in (slice(0, n_e), slice(n_e, w.size))
    ])
    shown = [k for k in modes if not (nonneg_re_only and w[k].real < 0.0)]
    return [
        (u0, index, w[k].real, w[k].imag,
         float(photon[k, 0]), float(photon[k, 1]), float(petermann[k]), "ok")
        for index, k in enumerate(shown)
    ]


def cmd_spectrum(cfg: RunConfig, stream: TextIO) -> int:
    worker = functools.partial(
        _spectrum_rows,
        params=cfg.params,
        grid=make_grid(cfg.params.grid_points),
        nonneg_re_only=cfg.nonneg_re_only,
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


def cmd_depletion(cfg: RunConfig, stream: TextIO) -> int:
    grid = make_grid(cfg.params.grid_points)
    times, oracle = cfg.times, cfg.oracle
    u0s = [float(u) for u in _u0_values(cfg)]
    detunings = _detunings(cfg)
    items = [(dc, u0) for dc in detunings for u0 in u0s]
    options = dict(eta_follows_detuning=cfg.eta_follows_detuning, times=times, oracle=oracle)
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


def _oracle_equivalence(grid, point) -> tuple[bool, str]:
    """Mode sums against the second-moment oracle on the same observable."""
    fm, dec, stability = point.fm, point.dec, point.stability
    if stability.label != "stable" or point.state.heating:
        finite = depletion_at_times(dec, grid, [1.0])
        oracle_t = lyapunov_oracle(fm, grid, [1.0])
        diff = abs(finite.values[0] - oracle_t.values[0])
        denom = max(abs(oracle_t.values[0]), 1e-8)
        return diff / denom <= 1e-4 or diff <= 1e-10, f"non-stable point, t=1 |diff|={diff:.2e}"
    steady = steady_state_depletion(dec, grid, stability)
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
    """Run the invariant suite at the configured point, one PASS/FAIL per line."""
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    grid = make_grid(cfg.params.grid_points)
    point = analyze_point(cfg.params, grid, fault_injection=cfg.fault_injection)
    state, fm, dec, stability = point.state, point.fm, point.dec, point.stability
    if state is not None:
        record(
            "meanfield-selfconsistency",
            state.residual_phi < 1e-8 and state.residual_alpha < 1e-8,
            f"residual_phi={state.residual_phi:.2e} residual_alpha={state.residual_alpha:.2e}",
        )
    if fm is not None:
        # G swaps the same blocks in the even sector's layout; the odd
        # sector, diag(h_odd, -h_odd) with h_odd real, keeps G by construction
        defect = symmetry_defect(fm.even)
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
        # decompose refuses a generator without the phase/number pair, so
        # every decomposition carries exactly two Goldstone modes
        photon = min(float(np.abs(dec.even_right[:2, k]).max()) for k in dec.goldstone)
        freq = max(float(abs(dec.omegas[k])) for k in dec.goldstone)
        record(
            "goldstone",
            photon <= 1e-8 and freq <= 1e-6,
            f"zero-mode photon weight={photon:.2e} |omega|={freq:.2e}",
        )
    if stability is not None:
        try:
            record("oracle-equivalence", *_oracle_equivalence(grid, point))
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
        help="add a second-moment oracle column",
    )
    sub.add_parser("verify", parents=[common], help="run the invariant suite")
    # a command without one of these flags reads it as unset
    parser.set_defaults(times=None, oracle=False, nonneg_re_only=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg.refuse_unread_keys(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    times = cfg.times
    if args.times is not None:
        try:
            times = [float(t) for t in args.times.split(",") if t.strip()]
        except ValueError:
            print(f"bad --times value: {args.times!r}", file=sys.stderr)
            return 2
        if not times or not all(0.0 <= t < math.inf for t in times):
            print("--times must be a non-empty list of finite, nonnegative numbers", file=sys.stderr)
            return 2
    # the flags only switch options on; the "# config:" echo stays cfg.raw
    cfg = dc_replace(
        cfg,
        times=times,
        oracle=cfg.oracle or args.oracle,
        nonneg_re_only=cfg.nonneg_re_only or args.nonneg_re_only,
    )

    # opened before any point runs, so a bad path throws away no work
    try:
        stream, close = _open_out(args.out or cfg.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    # every command reports its own runtime failures: groundstate catches the
    # mean field's ConvergenceError, the others record each point's error
    try:
        if args.command == "groundstate":
            return cmd_groundstate(cfg, stream)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, stream)
        if args.command == "depletion":
            return cmd_depletion(cfg, stream)
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
