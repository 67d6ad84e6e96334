"""Check a depletion table written with --oracle.

Fails (exit 1) on an error: status cell, on a blank oracle cell in an ok
row, on a table with no ok row to compare, or on a mode sum off the
oracle by more than criterion 3's bound: 1e-6 relative for a steady table
(no time column), 1e-4 for a finite-time one.  Usage: python3 .github/check_oracle_sweep.py <depletion.csv>
"""

import csv
import sys

reader = csv.DictReader(line for line in open(sys.argv[1]) if not line.startswith("#"))
rows = list(reader)
bound = 1e-4 if "time" in reader.fieldnames else 1e-6
errors = [r for r in rows if r["status"].startswith("error:")]
ok = [r for r in rows if r["status"] == "ok"]
blank = [r for r in ok if not r["oracle"]]
compared = [r for r in ok if r["oracle"]]


def gap(dn, oracle):
    return abs(dn - oracle) / abs(oracle) if oracle else (0.0 if dn == 0.0 else float("inf"))


worst = max((gap(float(r["depletion"]), float(r["oracle"])) for r in compared), default=0.0)
print(len(rows), "rows,", len(ok), "ok,", len(errors), "errors,", len(blank),
      "blank oracle cells, worst |dN - oracle| / |oracle| =", worst, "bound", bound)
sys.exit(1 if errors or blank or not compared or worst > bound else 0)
