"""Spans around the calls the CLI makes into the package's layers.

The traced run replaces, for its own duration, the public functions that
``bec_cavity.depletion`` and ``bec_cavity.cli`` call with wrappers that
record a span (id, parent, request, name, start, end) in memory, count
exceptions per layer and evaluate the acceptance-criterion-2 invariants
on each point's matrix and decomposition.  Nothing in the package itself
is changed; the untraced run never installs the wrappers.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name per public function; lyapunov_oracle splits on its steady flag
LAYER_OF = {
    "solve_ground_state": "meanfield.solve",
    "build_matrix": "fluctuation.build",
    "decompose": "spectral.decompose",
    "classify_stability": "spectral.classify",
    "steady_state_depletion": "depletion.steady_sum",
    "depletion_at_times": "depletion.finite_sum",
    "lyapunov_oracle": "depletion.oracle",
}

# span name -> exception counter it feeds
FAILURE_COUNTER = {
    "meanfield.solve": "meanfield.failed",
    "spectral.decompose": "spectral.failed",
    "spectral.classify": "spectral.failed",
    "depletion.steady_sum": "depletion.sum_failed",
    "depletion.finite_sum": "depletion.sum_failed",
    "depletion.oracle_steady": "depletion.oracle_failed",
    "depletion.oracle_finite": "depletion.oracle_failed",
}

REQUEST_SPAN = "cli"
CHECK_SPAN = "bench.invariants"

# acceptance criterion 2 and the mean-field self-consistency gate
SYMMETRY_TOL = 1e-13
BIORTH_TOL = 1e-10
PAIRING_RTOL = 1e-8
GOLDSTONE_PHOTON_TOL = 1e-8
GOLDSTONE_FREQ_TOL = 1e-6
RESIDUAL_TOL = 1e-8


class Tracer:
    """In-memory span recorder; spans of one request share its id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (id, parent, request, name, start, end, returned normally)
        self.spans: list[tuple[int, int | None, int | None, str, float, float, bool]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request: int | None = None
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        returned = False
        try:
            yield
            returned = True
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((span_id, parent, self._request, name, start, end, returned))

    @contextmanager
    def request(self, request_id: int):
        self._request = request_id
        try:
            with self.span(REQUEST_SPAN):
                yield
        finally:
            self._request = None

    def wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            name = layer
            if layer == "depletion.oracle":
                name = "depletion.oracle_steady" if kwargs.get("steady") else "depletion.oracle_finite"
            if name.startswith("depletion.oracle"):
                self.counts["depletion.oracle_calls"] += 1
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                if name in FAILURE_COUNTER:
                    self.counts[FAILURE_COUNTER[name]] += 1
                raise
            with self.span(CHECK_SPAN):
                self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        import numpy as np
        from bec_cavity import symmetry_defect

        c = self.counts
        if name == "meanfield.solve":
            c["meanfield.iterations"] += int(result.iterations)
            if not (result.residual_phi <= RESIDUAL_TOL and result.residual_alpha <= RESIDUAL_TOL):
                c["check.residual_fail"] += 1
        elif name == "fluctuation.build":
            if not symmetry_defect(result.m) <= SYMMETRY_TOL:
                c["check.symmetry_fail"] += 1
        elif name == "spectral.decompose":
            if not result.biorth_defect <= BIORTH_TOL:
                c["check.biorth_fail"] += 1
            scale = float(np.abs(result.omegas).max())
            if not result.pairing_error <= PAIRING_RTOL * scale:
                c["check.pairing_fail"] += 1
            ok = len(result.goldstone) == 2
            if ok:
                photon = min(float(np.abs(result.right[:2, k]).max()) for k in result.goldstone)
                freq = max(float(abs(result.omegas[k])) for k in result.goldstone)
                ok = photon <= GOLDSTONE_PHOTON_TOL and freq <= GOLDSTONE_FREQ_TOL
            if not ok:
                c["check.goldstone_fail"] += 1

    @contextmanager
    def installed(self, modules):
        """Swap each module's references to the layer functions for traced
        wrappers, restoring the originals on exit."""
        saved = []
        for module in modules:
            for attr, layer in LAYER_OF.items():
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, layer))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _self_durations(self):
        """(name, self time, returned) per span: duration minus the part of
        it the span's children cover (children never overlap in one thread)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, _, _, name, start, end, returned in self.spans:
            yield name, (end - start) - child_time[span_id], returned

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over every span."""
        totals: dict[str, float] = defaultdict(float)
        for name, duration, _ in self._self_durations():
            totals[name] += duration
        return dict(totals)

    def returned_calls(self) -> dict[str, tuple[float, int]]:
        """Total self time and count per span name, over the spans that
        returned normally; a call that raised is left out, so that a layer
        which starts to fail fast does not read as a faster layer."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, duration, returned in self._self_durations():
            if returned:
                totals[name][0] += duration
                totals[name][1] += 1
        return {name: (total, count) for name, (total, count) in totals.items()}

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "request": r, "name": n, "start": s, "end": e, "returned": ok}
            for i, p, r, n, s, e, ok in self.spans
        ]
