"""Workload definitions: seeded u0 draws, CLI requests and output checks.

Every workload is a list of requests.  A request is one in-process
``bec_cavity.cli.main`` call on a config the benchmark writes itself, and
it covers one or more points (delta_c, u0).  The u0 values are drawn one
per stratum of the workload's stated range, so a seed moves the points
but never the coverage.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

KAPPA = 100.0
N_ATOMS = 1000

# statuses the CLI documents for a physics outcome; "error: ..." is a failure
PHYSICS_STATUSES = frozenset({"ok", "heating", "marginal", "unstable", "diverged"})

STEADY_ORACLE_RTOL = 1e-6  # acceptance criterion 3, steady rows
FINITE_ORACLE_RTOL = 1e-4  # acceptance criterion 3, finite-time rows


@dataclass(frozen=True)
class Request:
    """One CLI call: the argv tail, the config body and the points it covers."""

    kind: str  # "steady", "finite", "oracle_steady", "oracle_finite"
    u0: float
    detunings: tuple[float, ...]
    grid_points: int
    times: tuple[float, ...] = ()
    oracle: bool = False

    def config(self) -> dict:
        cfg = {
            "delta_c": self.detunings[0],
            "kappa": KAPPA,
            "eta": -self.detunings[0],
            "u0": self.u0,
            "n_atoms": N_ATOMS,
            "grid_points": self.grid_points,
            "eta_follows_detuning": True,
        }
        if len(self.detunings) > 1:
            cfg["detunings"] = list(self.detunings)
        return cfg

    def argv(self, config_path: str, out_path: str) -> list[str]:
        argv = ["depletion", "--config", config_path, "--out", out_path]
        if self.times:
            argv += ["--times", ",".join(f"{t:g}" for t in self.times)]
        if self.oracle:
            argv.append("--oracle")
        return argv

    def points(self) -> list[tuple[float, float]]:
        return [(dc, self.u0) for dc in self.detunings]


@dataclass(frozen=True)
class Workload:
    name: str
    u0_range: tuple[float, float]
    strata: int
    include_zero: bool
    grid_points: int
    detunings: tuple[float, ...]
    mix: tuple[str, ...]  # request kinds, assigned to strata in turn


# why each workload exists is recorded in BENCHMARK.json (steady_n200,
# finite_n16) and perfbench/baseline.json (all three)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady_n200",
            u0_range=(0.0, -1.04),
            strata=5,
            include_zero=True,
            grid_points=200,
            detunings=(-100.0, -1000.0, -10000.0),
            mix=("steady",),
        ),
        Workload(
            name="finite_n16",
            u0_range=(-0.02, -1.2),
            strata=16,
            include_zero=False,
            grid_points=16,
            detunings=(-1000.0, -10000.0),
            mix=("finite",),
        ),
        Workload(
            name="oracle_n16",
            u0_range=(-0.02, -1.04),
            strata=10,
            include_zero=False,
            grid_points=16,
            detunings=(-1000.0,),
            mix=("oracle_steady", "oracle_finite"),
        ),
    )
}

_KIND_OPTIONS = {
    "steady": dict(),
    "finite": dict(times=(1.0, 10.0, 100.0)),
    "oracle_steady": dict(oracle=True),
    "oracle_finite": dict(times=(10.0,), oracle=True),
}


def draw_u0(workload: Workload, seed: int) -> list[tuple[int, float]]:
    """(stratum, u0) pairs: one uniform draw inside each equal-width stratum.

    Stratum -1 is the fixed u0 = 0 point when the workload includes it.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    lo, hi = workload.u0_range
    width = (hi - lo) / workload.strata
    draws = [(-1, 0.0)] if workload.include_zero else []
    for i in range(workload.strata):
        # 1 - random() lies in (0, 1], so the stratum's open end is never drawn
        # twice and u0 = 0 stays the fixed point's alone
        draws.append((i, round(lo + (i + 1.0 - rng.random()) * width, 9)))
    return draws


def build_requests(workload: Workload, seed: int) -> list[Request]:
    """The seeded request list in its run order (shuffled by the same seed,
    so a partial pass is a fair sample rather than the start of the range)."""
    requests = []
    for stratum, u0 in draw_u0(workload, seed):
        kind = workload.mix[max(stratum, 0) % len(workload.mix)]
        requests.append(
            Request(
                kind=kind,
                u0=u0,
                detunings=workload.detunings,
                grid_points=workload.grid_points,
                **_KIND_OPTIONS[kind],
            )
        )
    random.Random(f"order:{workload.name}:{seed}").shuffle(requests)
    return requests


def write_config(request: Request, path: Path) -> None:
    path.write_text(json.dumps(request.config()), encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks


def read_rows(path: Path) -> list[dict]:
    """CSV rows as dicts of strings, skipping the '#' metadata lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _number(cell: str | None) -> float | None:
    if cell is None or cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return None


WRONG = "check: "  # prefix of a verdict on a value the program presented as valid


def check_point(request: Request, rows: list[dict]) -> str | None:
    """None when the point's rows pass the workload check, else the reason.

    A status outside PHYSICS_STATUSES ("error: ...") and a blank oracle
    cell are failures the program reported itself; every other reason
    starts with WRONG.
    """
    for row in rows:
        status = row.get("status", "")
        if status not in PHYSICS_STATUSES:
            return status or "blank status"
    expected = len(request.times) if request.times else 1
    if len(rows) != expected:
        return f"{WRONG}expected {expected} row(s), got {len(rows)}"
    for row in rows:
        dn = _number(row.get("depletion"))
        if request.times:
            if dn is None or not math.isfinite(dn) or dn < 0.0:
                return f"{WRONG}dN(t={row.get('time')}) = {row.get('depletion')!r}, not finite and >= 0"
            if _number(row.get("time")) not in request.times:
                return f"{WRONG}unexpected time {row.get('time')!r}"
        elif row["status"] == "ok" and (dn is None or not math.isfinite(dn) or dn <= 0.0):
            return f"{WRONG}ok row has dN = {row.get('depletion')!r}, not finite and > 0"
        if request.oracle and (row["status"] == "ok" or request.times):
            oracle = _number(row.get("oracle"))
            if oracle is None:
                return "blank oracle cell"
            rtol = FINITE_ORACLE_RTOL if request.times else STEADY_ORACLE_RTOL
            rel = abs(dn - oracle) / abs(oracle) if oracle != 0.0 else math.inf
            if not rel <= rtol:
                return f"{WRONG}|dN - oracle| / |oracle| = {rel:.3e} > {rtol:g}"
    return None


def check_output(request: Request, rows: list[dict]) -> list[str | None]:
    """One verdict per point of the request, in request.points() order."""
    by_point: dict[tuple[float, float], list[dict]] = {}
    stray = 0
    for row in rows:
        key = (_number(row.get("delta_c")), _number(row.get("u0")))
        if key in request.points():
            by_point.setdefault(key, []).append(row)
        else:
            stray += 1
    verdicts = [check_point(request, by_point.get(p, [])) for p in request.points()]
    if stray:
        verdicts = [v or f"{WRONG}{stray} row(s) for points not requested" for v in verdicts]
    return verdicts
