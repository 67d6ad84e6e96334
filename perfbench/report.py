"""Human-readable benchmark report.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S] [--trace]

Runs each workload in a fresh process through run.py and prints every
end-to-end metric by name with its unit, the failed fraction and the
output-check verdicts, failures grouped by their text.  With --trace it
also makes the separate traced run of the same workload and seed and
prints the per-layer self times, their shares, the tracing overhead
against the untraced run, the invariant checks and the layer x grid-size
table.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import LAYER_SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1


def layer_group(span: str) -> str:
    return "depletion.oracle" if span.startswith("depletion.oracle") else span.split(".")[0]


def predicted_leaders() -> dict[str, str]:
    """Workload -> the layer group that baseline.json's layer_map says leads it."""
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    leaders = {}
    for entry in layer_map:
        span = re.sub(r"^n\d+\.", "", entry["layer"][0]).removesuffix("_s")
        for workload in entry.get("leads", ()):
            leaders[workload] = layer_group(span)
    return leaders


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / f"{workload}-{seed}-trace{trace}" / "result.json").read_text()
    )
    return line, record


def print_verdicts(line: dict, record: dict) -> None:
    attempted, failed = line["attempted"], line["failed"]
    print(f"  failed_frac         {failed / attempted:.4f}  ({failed} of {attempted} points)")
    print(f"  outputs correct     {line['correct']}")
    kinds = Counter()
    for entry in record["log"]:
        for point in entry["points"]:
            kinds[(entry["kind"], point["failure"] is None)] += 1
    for (kind, ok), count in sorted(kinds.items()):
        print(f"  check {kind:<14}{'pass' if ok else 'FAIL'} x{count}")
    texts = Counter(p["failure"].split(": (")[0][:110] for p in record["failures"])
    for text, count in texts.most_common():
        print(f"    {count:>3} x {text}")


def print_trace(untraced: dict, traced: dict, metrics: dict) -> None:
    self_times = traced["self_times_s"]
    wall = traced["elapsed_s"]
    print(f"  traced request wall {wall:.3f} s over {traced['attempted']} points")
    print(f"  {'layer':<26}{'self s':>10}{'share':>8}{'s/point':>11}")
    for name in (*LAYER_SPANS, "cli", "bench.invariants"):
        total = self_times.get(name, 0.0)
        label = "cli.self" if name == "cli" else name
        print(f"  {label:<26}{total:>10.3f}{total / wall:>8.1%}{total / traced['attempted']:>11.5f}")
    accounted = sum(self_times.values())
    print(f"  sum of self times   {accounted:.3f} s ({accounted / wall:.1%} of traced wall)")

    # same seed, same request list, so compare request time per attempted point
    u_point = untraced["elapsed_s"] / untraced["attempted"]
    t_point = wall / traced["attempted"]
    overhead = t_point - u_point
    checks = self_times.get("bench.invariants", 0.0) / traced["attempted"]
    print(f"  wall per point      untraced {u_point:.5f} s, traced {t_point:.5f} s, "
          f"tracing overhead {overhead:+.5f} s ({overhead / u_point:+.1%}), "
          f"of which invariant checks {checks:.5f} s")

    groups = Counter()
    for name in LAYER_SPANS:
        groups[layer_group(name)] += self_times.get(name, 0.0)
    leader = groups.most_common(1)[0][0]
    predicted = predicted_leaders()[traced["workload"]]
    verdict = "as predicted" if leader == predicted else f"MISMATCH, predicted {predicted}"
    shares = ", ".join(f"{g} {t / wall:.0%}" for g, t in groups.most_common())
    print(f"  leading layer       {leader} ({verdict}); {shares}")

    print("  invariants (first pass):", ", ".join(
        f"{k}={int(metrics[k]['value'])}" for k in metrics if k.startswith("check.")))
    counts = traced["counts_first_pass"]
    calls = counts.get("depletion.oracle_calls", 0)
    if calls:
        failed = counts.get("depletion.oracle_failed", 0)
        print(f"  oracle ok fraction  {(calls - failed) / calls:.3f} ({failed} of {calls} calls raised)")
    print("  layer x n at delta_c=-1000, u0=-0.5 (s):")
    table = traced["layer_table"]
    print(f"    {'layer':<26}" + "".join(f"{k:>10}" for k in table))
    for name in LAYER_SPANS:
        cells = [table[k].get(f"{name}_s") for k in table]
        print(f"    {name:<26}" + "".join(f"{c:>10.4f}" if c is not None else f"{'-':>10}" for c in cells))
    for key, row in table.items():
        if "error" in row:
            print(f"    {key} stopped: {row['error']}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add the traced per-layer report")
    args = parser.parse_args(argv)

    units = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    gated = {w["name"] for w in bench["workloads"]}
    for workload in args.workload or list(WORKLOADS):
        line, record = run_once(workload, args.seed, args.seconds, 0)
        facts = record["facts"]
        role = "gated by BENCHMARK.json" if workload in gated else "not gated (see baseline.json)"
        print(f"{workload}  [{role}]  seed {args.seed}, {args.seconds:g} s, nproc {facts['nproc']}, "
              f"numpy {facts['numpy']}, {facts['blas']}, threads pinned to 1")
        for name, m in line["metrics"].items():
            unit, better = units[name]
            print(f"  {name:<20}{m['value']:.6g} {unit}  ({better} is better)")
        print_verdicts(line, record)
        if args.trace:
            traced_line, traced = run_once(workload, args.seed, args.seconds, 1)
            print_trace(record, traced, traced_line["metrics"])
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
