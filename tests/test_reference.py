"""The chain's numbers at n = 16, 64 and 200, pinned against committed tables.

The acceptance criteria check physics bounds, not values, so a refactor
that moves a number would pass them.  This test compares the chain's
outputs with ``data/chain_n<n>.json`` over the three shipped detunings
(eta = -delta_c, as in configs/depletion_vs_u0.json) and nine light
shifts on the shipped sweep, at each grid size of GRIDS.  A change that
moves a value by design regenerates the tables with

    PYTHONPATH=src python tests/test_reference.py [n ...]

(every grid of GRIDS when no n is given) and says in CHANGES.md which
columns moved, with old and new values.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bec_cavity import (
    SystemParams,
    analyze_point,
    depletion_at_times,
    lyapunov_oracle,
    make_grid,
    steady_state_depletion,
)
from bec_cavity.depletion import _quadratures

GRIDS = (16, 64, 200)
DETUNINGS = (-100.0, -1000.0, -10000.0)
# every sixth point of the shipped sweep, -0.02 .. -1.04 in steps of 0.02
LIGHT_SHIFTS = tuple(round(-0.02 - 0.12 * i, 2) for i in range(9))
TIMES = (1.0, 100.0, 1e4)
# the point whose even-sector frequencies are pinned
SPECTRUM_POINT = (-1000.0, -0.5)

# Relative tolerances, one per column, none taken from a measured change:
# - mean field (<U>, alpha, mu): the polish solves the discrete fixed point
#   to |F| / |u| of order 1e-12, so 1e-10 leaves two digits for rounding
#   in the eigh and in the start it picks up from
MEAN_FIELD_RTOL = 1e-10
#   At n = 200 mu also takes an absolute floor of eps ||H0||, with
#   ||H0|| about n^2 + |alpha|^2 |u0| (kinetic top 4 (n/2)^2 plus the
#   lattice depth): that table's mu is an eigenvalue of a dense grid
#   kinetic matrix, whose rounding is absolute (at u0 = -0.02, |mu| about
#   0.01, it is 3.2e-12 off a long-double Rayleigh quotient of the same
#   state).  At n = 16 and 64 the relative bound holds alone.
MU_FLOOR_GRIDS = (200,)
# - mode sums (steady and finite-time dN): sums over a basis certified
#   biorthogonal to 1e-10 (BIORTH_LIMIT)
SUM_RTOL = 1e-10
# - the oracle at time t propagates the generator's rounding over t: its
#   error is of order t ||A||_inf eps relative (the quantity its horizon
#   RESOLUTION_HORIZON bounds), with SUM_RTOL as the floor at short times.
#   On an unstable point the mode sum takes the same bound: a growing
#   mode's e^{2 gamma t} turns the rounding of gamma, of order
#   eps ||A||_inf, into a relative error of order t ||A||_inf eps
# - even frequencies: eigenvalue rounding is absolute, of order
#   eps ||M|| times the basis condition; relative to the largest |omega|
#   of the sector, since the weak rungs' Im omega sit near rounding level
OMEGA_RTOL = 1e-10


def _finite(values):
    return [float(v) if math.isfinite(v) else None for v in values]


def _table_path(grid_points):
    return Path(__file__).parent / "data" / f"chain_n{grid_points}.json"


def _analyze(delta_c, u0, grid):
    params = SystemParams(
        delta_c=delta_c, kappa=100.0, eta=-delta_c, u0=u0, n_atoms=1000,
        grid_points=grid.n,
    )
    chain = analyze_point(params, grid)
    if chain.error is not None:
        raise chain.error
    return chain


def chain_point(grid_points, delta_c, u0):
    """The chain's cells at one point, as stored in the table: the heating
    flag and stability label, <U>, alpha, mu, steady dN (None unless the point is stable and not
    heating), dN and the oracle at TIMES (None where not finite), and
    ||A||_inf of the oracle's quadrature generator."""
    grid = make_grid(grid_points)
    chain = _analyze(delta_c, u0, grid)
    state, dec, stability = chain.state, chain.dec, chain.stability
    steady = None
    if not state.heating and stability.label == "stable":
        steady = steady_state_depletion(dec, grid, stability).value
    finite = depletion_at_times(dec, grid, TIMES)
    assert not any(finite.errors), finite.errors
    return {
        "delta_c": delta_c,
        "u0": u0,
        "heating": bool(state.heating),
        "stability": stability.label,
        "u_avg": state.u_avg,
        "alpha": [state.alpha.real, state.alpha.imag],
        "mu": state.mu,
        "steady": steady,
        "finite": _finite(finite.values),
        "oracle": _finite(lyapunov_oracle(chain.fm, grid, TIMES).values),
        "norm_a": float(np.linalg.norm(_quadratures(-1j * chain.fm.even), np.inf)),
    }


def even_frequencies(grid_points, delta_c, u0):
    """The even sector's n + 4 frequencies, in (Re, Im) order, as
    [re, im] pairs."""
    dec = _analyze(delta_c, u0, make_grid(grid_points)).dec
    omegas = dec.omegas
    omegas = omegas[np.lexsort((omegas.imag, omegas.real))]
    return [[float(w.real), float(w.imag)] for w in omegas]


def _table(grid_points):
    return json.loads(_table_path(grid_points).read_text())


def _close(value, ref, rtol, cell):
    if ref is None:
        assert value is None, f"{cell}: {value} where the table has no value"
        return
    assert value is not None, f"{cell}: missing, the table has {ref!r}"
    assert abs(value - ref) <= rtol * abs(ref), (
        f"{cell}: {value!r} against {ref!r} (relative {abs(value - ref) / abs(ref):.2e}, "
        f"bound {rtol:.1e})"
    )


def test_table_covers_every_point():
    for grid_points in GRIDS:
        table = _table(grid_points)
        keys = [(row["delta_c"], row["u0"]) for row in table["points"]]
        assert keys == [(dc, u0) for dc in DETUNINGS for u0 in LIGHT_SHIFTS]
        assert table["grid_points"] == grid_points
        assert table["times"] == list(TIMES)


@pytest.mark.parametrize("delta_c", DETUNINGS)
def test_chain_matches_the_table(delta_c):
    rows = [(n, row) for n in GRIDS for row in _table(n)["points"] if row["delta_c"] == delta_c]
    for grid_points, ref in rows:
        got = chain_point(grid_points, delta_c, ref["u0"])
        where = f"n = {grid_points}, delta_c = {delta_c}, u0 = {ref['u0']}"
        assert (got["heating"], got["stability"]) == (ref["heating"], ref["stability"]), where
        _close(got["u_avg"], ref["u_avg"], MEAN_FIELD_RTOL, f"{where}: u_avg")
        alpha, alpha_ref = complex(*got["alpha"]), complex(*ref["alpha"])
        assert abs(alpha - alpha_ref) <= MEAN_FIELD_RTOL * abs(alpha_ref), f"{where}: alpha"
        mu_rtol = MEAN_FIELD_RTOL
        if grid_points in MU_FLOOR_GRIDS:
            h0_norm = grid_points**2 + abs(alpha_ref) ** 2 * abs(ref["u0"])
            mu_rtol = max(mu_rtol, np.finfo(float).eps * h0_norm / abs(ref["mu"]))
        _close(got["mu"], ref["mu"], mu_rtol, f"{where}: mu")
        _close(got["steady"], ref["steady"], SUM_RTOL, f"{where}: steady dN")
        for t, value, value_ref, oracle, oracle_ref in zip(
            TIMES, got["finite"], ref["finite"], got["oracle"], ref["oracle"]
        ):
            rounding = t * ref["norm_a"] * np.finfo(float).eps
            growing = got["stability"] == "unstable"
            _close(value, value_ref, max(SUM_RTOL, rounding) if growing else SUM_RTOL,
                   f"{where}: dN(t = {t:g})")
            _close(oracle, oracle_ref, max(SUM_RTOL, rounding), f"{where}: oracle(t = {t:g})")


def test_even_frequencies_match_the_table():
    for grid_points in GRIDS:
        ref = _table(grid_points)["even_frequencies"]
        got = even_frequencies(grid_points, *SPECTRUM_POINT)
        assert len(got) == len(ref) == grid_points + 4
        scale = max(abs(complex(*w)) for w in ref)
        for k, (w, w_ref) in enumerate(zip(got, ref)):
            gap = abs(complex(*w) - complex(*w_ref))
            assert gap <= OMEGA_RTOL * scale, f"n = {grid_points}, omega_{k}: {w} against {w_ref}"


if __name__ == "__main__":
    for grid_points in [int(arg) for arg in sys.argv[1:]] or GRIDS:
        table = {
            "grid_points": grid_points,
            "times": list(TIMES),
            "spectrum_point": list(SPECTRUM_POINT),
            "points": [chain_point(grid_points, dc, u0) for dc in DETUNINGS for u0 in LIGHT_SHIFTS],
            "even_frequencies": even_frequencies(grid_points, *SPECTRUM_POINT),
        }
        path = _table_path(grid_points)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
