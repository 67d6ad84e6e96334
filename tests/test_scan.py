"""A seeded scan of the parameter space, far off the served grid.

The served domain is the shipped configs' grid: delta_c = -100, -1000 and
-10000 with eta = -delta_c, kappa = 100, N = 1000 and u0 from 0 down to
-1.2, on n = 16 to 200 grid points.  There the acceptance criteria hold
the values to their tolerances.  The scan draws points from a domain far
wider than that: blue and red detunings, narrow and broad cavities, weak
and strong pumps of either sign, repulsive lattices and lattices many
recoils deep, few and many atoms.  There a point only has to fail
cleanly: no exception escapes it, every row it writes carries a status,
and a finite-time row the chain calls ``ok`` agrees with the
second-moment oracle within criterion 3's 1e-4.  The steady rows are not
held to the oracle here; the steady oracle's resolution off the served
grid is still open.  The verdict is held everywhere: a heating point
(delta_c > N<U>) grows, so its row reads ``unstable``.  The draw never
makes u0 or eta exactly 0, so the cavity always couples and a heating
point's coupled rungs all grow, however slowly.
"""

import math

import numpy as np

from bec_cavity import SystemParams, make_grid, validate
from bec_cavity.depletion import solve_depletion_point

POINTS = 300
SEED = 0
TIMES = [1.0, 100.0]
STATUSES = {"ok", "heating", "marginal", "unstable", "diverged"}


def _log_uniform(rng, low, high):
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


def _draw(rng):
    eta = _log_uniform(rng, 1.0, 3e4) * rng.choice([-1.0, 1.0])
    return validate(
        SystemParams(
            delta_c=float(rng.uniform(-3e4, 1e3)),
            kappa=_log_uniform(rng, 0.3, 1e3),
            eta=float(eta),
            u0=float(rng.uniform(-5.0, 1.0)),
            n_atoms=round(_log_uniform(rng, 10.0, 1e5)),
            grid_points=int(rng.choice([8, 16])),
        )
    )


def _gap(depletion, oracle):
    if oracle == 0.0:
        return 0.0 if depletion == 0.0 else math.inf
    return abs(depletion - oracle) / abs(oracle)


def test_every_drawn_point_fails_cleanly_and_ok_rows_meet_the_oracle():
    rng = np.random.default_rng(SEED)
    grids = {n: make_grid(n) for n in (8, 16)}
    rows, misses, mislabelled = [], [], []
    for _ in range(POINTS):
        params = _draw(rng)
        grid = grids[params.grid_points]
        steady = solve_depletion_point(params, grid, params.delta_c, params.u0)
        finite = solve_depletion_point(
            params, grid, params.delta_c, params.u0, times=TIMES, oracle=True
        )
        assert len(steady) == 1 and len(finite) == len(TIMES)
        if steady[0].status == "heating" and steady[0].stability != "unstable":
            mislabelled.append((params, steady[0].stability))
        rows += steady + finite
        for row in finite:
            if row.status == "ok":
                gap = math.inf if row.oracle is None else _gap(row.depletion, row.oracle)
                if not gap <= 1e-4:
                    misses.append((params, row.time, row.depletion, row.oracle))
    unknown = [
        row.status for row in rows
        if row.status not in STATUSES and not row.status.startswith("error: ")
    ]
    assert unknown == []
    assert misses == []
    assert mislabelled == []
