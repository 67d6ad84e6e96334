"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  The full-grid sweeps make this the slow part of the
test suite (a few minutes in total).
"""

import json
import time

import numpy as np
import pytest

from bec_cavity import (
    SystemParams,
    build_matrix,
    classify_stability,
    decompose,
    depletion_at_times,
    lyapunov_oracle,
    make_grid,
    mode_projector,
    potential_profile,
    relaxation_time,
    solve_ground_state,
    steady_state_depletion,
    symmetry_defect,
    validate,
)
from bec_cavity.cli import main
from bec_cavity.spectral import odd_frequencies
from conftest import dense_kinetic, run_pipeline

KAPPA = 100.0
_SHARED: dict = {}


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def steady_point(delta_c, u0, n_atoms=1000, ng=200, eta=None):
    """Uncached full pipeline for sweep-style acceptance checks."""
    eta = -delta_c if eta is None else eta
    params = validate(
        SystemParams(
            delta_c=delta_c, kappa=KAPPA, eta=eta, u0=u0,
            n_atoms=n_atoms, grid_points=ng,
        )
    )
    grid = _SHARED.setdefault(("grid", ng), make_grid(ng))
    state = solve_ground_state(params, grid)
    fm = build_matrix(state, params, grid)
    dec = decompose(fm)
    stability = classify_stability(dec)
    if state.heating or stability.label != "stable":
        return None, state, stability, dec, fm, grid
    steady = steady_state_depletion(dec, grid, stability, heating=state.heating)
    value = None if steady.diverged else steady.value
    return value, state, stability, dec, fm, grid


def plateau_sweep():
    if "plateau" not in _SHARED:
        u0s = np.linspace(-0.05, -0.5, 50)
        values = {}
        for u0 in u0s:
            value, *_ = steady_point(-1000.0, float(u0))
            values[float(u0)] = value
        _SHARED["plateau"] = values
    return _SHARED["plateau"]


def test_criterion_1_decoupled_limit():
    """Photon mode at (-delta_c) - i kappa, free-gas levels, zero depletion."""
    # warm the BLAS/FFT paths so the timed run measures the pipeline itself;
    # threaded LAPACK starts only at the sizes of the n = 200 even sector
    run_pipeline(u0=-0.5, ng=16)
    rng = np.random.default_rng(0)
    np.linalg.eig(rng.standard_normal((204, 204)) + 1j * rng.standard_normal((204, 204)))
    np.linalg.solve(rng.standard_normal((200, 200)), rng.standard_normal(200))

    start = time.perf_counter()
    params, grid, state, fm, dec = run_pipeline(u0=0.0, ng=200)
    result = depletion_at_times(dec, grid, [1.0, 10.0, 100.0])
    elapsed = time.perf_counter() - start

    # the even sector's modes and the odd ones that decompose leaves out
    omegas = np.concatenate([dec.omegas, odd_frequencies(fm)])
    target = 1000.0 - 100.0j
    photon = omegas[np.argmin(np.abs(omegas - target))]
    assert abs(photon - target) <= 1e-8 * abs(target)
    for level in (4.0, 16.0, 36.0, 64.0):
        hits = (np.abs(omegas - level) <= 1e-8 * level).sum()
        assert hits >= 2, f"level {level} not doubly degenerate"
    assert max(abs(v) for v in result.values) <= 1e-10
    assert elapsed < 1.0, f"decoupled pipeline took {elapsed:.2f}s"
    report(1, f"photon={photon:.6f}, levels 4/16/36/64 doubly degenerate, "
              f"dN(t)=0, runtime {elapsed:.2f}s < 1s at n=200")


def test_criterion_2_structural_invariants():
    """Symmetry, pairing, biorthonormality and Goldstone at every tested point."""
    details = []
    for u0, ng in ((0.0, 200), (-0.5, 200), (-0.1, 16), (-0.5, 16)):
        params, grid, state, fm, dec = run_pipeline(u0=u0, ng=ng)
        defect = symmetry_defect(fm.m)
        assert defect <= 1e-13, f"symmetry defect {defect} at u0={u0}"
        scale = float(np.abs(dec.omegas).max())
        assert dec.pairing_error <= 1e-8 * scale
        assert dec.biorth_defect <= 1e-10
        assert len(dec.goldstone) == 2
        zero_mode_photon = min(
            float(np.abs(dec.right[:2, k]).max()) for k in dec.goldstone
        )
        assert zero_mode_photon <= 1e-8
        assert max(abs(dec.omegas[k]) for k in dec.goldstone) <= 1e-6
        details.append(f"(u0={u0}, n={ng}: sym={defect:.1e}, "
                       f"LR-I={dec.biorth_defect:.1e})")
    report(2, "; ".join(details))


def test_criterion_3_oracle_equivalence():
    """Mode-sum depletion against the second-moment oracle."""
    details = []
    for ng in (8, 16, 200):
        for u0 in (-0.1, -0.5):
            params, grid, state, fm, dec = run_pipeline(u0=u0, ng=ng)
            stability = classify_stability(dec)
            assert stability.label == "stable"
            steady = steady_state_depletion(
                dec, grid, stability, heating=state.heating
            )
            assert not steady.diverged
            proj = mode_projector(dec, steady.excluded_modes + dec.goldstone)
            oracle = lyapunov_oracle(fm, grid, steady=True, deflate=proj)
            rel = abs(steady.value - oracle.values[0]) / abs(oracle.values[0])
            assert rel <= 1e-6, f"steady mismatch {rel:.2e} at ng={ng}, u0={u0}"

            times = [1.0, 10.0, 100.0]
            formula = depletion_at_times(
                dec, grid, times, exclude_modes=steady.excluded_modes
            )
            moments = lyapunov_oracle(fm, grid, times, deflate=proj)
            rels = [
                abs(a - b) / abs(b) for a, b in zip(formula.values, moments.values)
            ]
            assert max(rels) <= 1e-4, f"finite-time mismatch {rels} ng={ng} u0={u0}"
            details.append(
                f"(n={ng}, u0={u0}: steady {rel:.1e}, t-max {max(rels):.1e})"
            )
    report(3, "; ".join(details))


def test_criterion_4_plateau_flatness_and_atom_number():
    """Depletion flat within x2 across the plateau; independent of N."""
    values = plateau_sweep()
    finite = [v for v in values.values() if v is not None]
    assert len(finite) == len(values), "plateau sweep produced non-ok points"
    ratio = max(finite) / min(finite)
    assert ratio < 2.0, f"plateau varies by {ratio:.2f}"

    baseline, *_ = steady_point(-1000.0, -0.3, n_atoms=1000)
    doubled, *_ = steady_point(-1000.0, -0.15, n_atoms=2000)
    change = abs(doubled - baseline) / baseline
    assert change < 0.20, f"atom-number change {change:.2%}"
    report(4, f"50-point plateau max/min = {ratio:.3f} < 2; "
              f"N: 1000->2000 changes dN by {change:.2%} < 20%")


def test_criterion_5_detuning_scaling():
    """Plateau depletion scales by 10 when the detuning grows by 10."""
    anchor_u0s = (-0.1, -0.2, -0.3)
    small = np.median([plateau_sweep_value(u0) for u0 in anchor_u0s])
    large = np.median(
        [steady_point(-10000.0, u0)[0] for u0 in anchor_u0s]
    )
    ratio = large / small
    assert 7.5 <= ratio <= 12.5, f"detuning scaling ratio {ratio:.2f}"
    report(5, f"plateau dN(-10000)/dN(-1000) = {ratio:.2f} in [7.5, 12.5]")


def plateau_sweep_value(u0):
    values = plateau_sweep()
    key = min(values, key=lambda k: abs(k - u0))
    return values[key]


def test_criterion_6_resonance_divergence_then_instability():
    """Depletion grows 100x over the plateau before the instability."""
    values = plateau_sweep()
    plateau = float(np.median([v for v in values.values() if v is not None]))

    def is_stable(u0):
        value, state, stability, *_ = steady_point(-1000.0, u0, eta=1000.0)
        return stability.label == "stable" and not state.heating, value, stability

    lo, hi = -1.2, -1.0  # unstable / stable bracket
    ok, _, _ = is_stable(hi)
    assert ok
    ok, _, stab_lo = is_stable(lo)
    assert not ok
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        ok, _, _ = is_stable(mid)
        if ok:
            hi = mid
        else:
            lo = mid

    peak = None
    for eps in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
        u0 = lo + eps
        ok, value, _ = is_stable(u0)
        if ok and value is not None:
            peak = value
            if value > 100.0 * plateau:
                break
    assert peak is not None and peak > 100.0 * plateau, (
        f"peak {peak} vs 100x plateau {100 * plateau}"
    )

    _, state, stability, dec, *_ = steady_point(-1000.0, lo - 0.02, eta=1000.0)
    assert stability.label == "unstable"
    assert stability.max_growth_rate > 1e-6
    report(6, f"critical point near u0={lo:.5f}; stable-side dN reaches "
              f"{peak:.0f} > 100 x plateau ({plateau:.1f}); beyond it "
              f"max Im omega = {stability.max_growth_rate:.3f} > 0")


def test_criterion_7_relaxation_time_scaling():
    """Relaxation time diverges as the inverse square of the light shift."""
    logs_u, logs_t = [], []
    for mag in np.geomspace(0.01, 0.1, 6):
        params, grid, state, fm, dec = run_pipeline(u0=-float(mag), ng=200)
        tr = relaxation_time(dec)
        logs_u.append(np.log(mag))
        logs_t.append(np.log(tr))
    slope = np.polyfit(logs_u, logs_t, 1)[0]
    assert abs(slope + 2.0) <= 0.2, f"slope {slope:.3f}"
    report(7, f"log-log slope of relaxation time vs |u0| = {slope:.3f} (-2 +- 0.2)")


def test_criterion_8_mean_field_solver():
    """Uniform limit exactly; trapped limit against dense diagonalization."""
    params, grid, state, fm, dec = run_pipeline(u0=0.0, ng=200)
    assert np.abs(state.phi.real - 1.0 / np.sqrt(np.pi)).max() < 1e-12
    assert abs(state.mu) <= 1e-10
    expected = params.eta**2 / (params.delta_c**2 + params.kappa**2)
    assert abs(abs(state.alpha) ** 2 - expected) <= 1e-10

    # a deep lattice one atom barely shifts: self-consistent |alpha|^2 u0 = -10.07
    deep = validate(
        SystemParams(
            delta_c=-1000.0, kappa=KAPPA, eta=1000.0, u0=-10.0,
            n_atoms=1, grid_points=200,
        )
    )
    g200 = make_grid(200)
    trapped = solve_ground_state(deep, g200)
    depth = abs(trapped.alpha) ** 2 * potential_profile(g200, deep.u0)
    h = dense_kinetic(g200) + np.diag(depth)
    evals, evecs = np.linalg.eigh(h)
    phi_ref = evecs[:, 0] / np.sqrt(g200.dx)
    if phi_ref[int(np.argmin(depth))] < 0:
        phi_ref = -phi_ref
    mu_err = abs(trapped.mu - evals[0])
    phi_err = np.abs(trapped.phi.real - phi_ref).max()
    assert mu_err <= 1e-8 and phi_err <= 1e-8
    report(8, f"uniform limit exact (|alpha|^2 err {abs(abs(state.alpha)**2 - expected):.1e}); "
              f"depth-{abs(depth.min()):.2f} lattice vs dense diagonalization: mu err {mu_err:.1e}, "
              f"phi err {phi_err:.1e} <= 1e-8")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    """Identical config gives byte-identical data sections."""
    cfg = {
        "delta_c": -1000.0, "kappa": KAPPA, "eta": 1000.0, "u0": -0.5,
        "n_atoms": 1000, "grid_points": 16,
        "sweep": {"parameter": "u0", "from": 0.0, "to": -0.5, "points": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    def data_lines(p):
        return [l for l in p.read_text().splitlines() if not l.startswith("# timestamp")]

    outputs = []
    for i, threads in enumerate(("1", "1", "3")):
        monkeypatch.setenv("BEC_CAVITY_THREADS", threads)
        out = tmp_path / f"spec{i}.csv"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(data_lines(out))
        dep = tmp_path / f"dep{i}.csv"
        assert main(["depletion", "--config", str(path), "--out", str(dep)]) == 0
        outputs.append(data_lines(dep))
    assert outputs[0] == outputs[2] == outputs[4]
    assert outputs[1] == outputs[3] == outputs[5]
    report(9, "spectrum and depletion outputs byte-identical across reruns "
              "and worker counts (timestamp line excluded)")
