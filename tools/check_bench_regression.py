#!/usr/bin/env python3
"""Bench regression guard: compare a fresh bench JSON against the committed
baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json

Every row declares each field's guard class (bench/bench_report.h):

    {"key": {...}, "exact": {...}, "ratio": {...}, "info": {...}}

Rows are joined on `key`. `exact` fields are outputs of seeded runs and
must match: a mismatch means a determinism contract broke, not that the
hardware was slow. `ratio` fields are relative measurements and may not
fall below baseline / 2.0, because absolute wall times are incomparable
across hosts. `info` fields are never compared. A field that is exact or
ratio on one side must carry the same class on the other, so a guard
cannot be demoted or dropped silently.

Exit code 0 when everything holds, 1 otherwise. Stdlib only (runs on a
bare CI image).
"""

import json
import sys

TOLERANCE = 2.0
CLASSES = ("key", "exact", "ratio", "info")
GUARDED = ("exact", "ratio")


def load_rows(report, side, failures):
    """Maps each row's canonical key to its {field: (class, value)}."""
    rows = {}
    for row in report.get("rows", []):
        key = json.dumps(row.get("key", {}), sort_keys=True)
        if key in rows:
            failures.append(f"duplicate row key in {side}: {key}")
        fields = {}
        for cls in CLASSES:
            for name, value in row.get(cls, {}).items():
                fields[name] = (cls, value)
        rows[key] = fields
    return rows


def compare(baseline, fresh):
    """Returns (failures, guarded field count) for one report pair."""
    failures = []
    if baseline.get("bench") != fresh.get("bench"):
        return [f"bench name mismatch: baseline {baseline.get('bench')!r} "
                f"vs fresh {fresh.get('bench')!r}"], 0
    base_rows = load_rows(baseline, "baseline", failures)
    fresh_rows = load_rows(fresh, "fresh run", failures)
    guarded = 0
    for key, base in base_rows.items():
        got = fresh_rows.get(key)
        if got is None:
            failures.append(f"row missing from fresh run: {key}")
            continue
        for name in sorted(set(base) | set(got)):
            base_cls, base_value = base.get(name, ("absent", None))
            got_cls, got_value = got.get(name, ("absent", None))
            if base_cls not in GUARDED and got_cls not in GUARDED:
                continue
            if base_cls != got_cls:
                failures.append(f"{key}: {name} is {base_cls} in baseline "
                                f"but {got_cls} in fresh run")
                continue
            guarded += 1
            if base_cls == "exact" and got_value != base_value:
                failures.append(f"{key}: {name} changed {base_value} -> "
                                f"{got_value} (determinism break)")
            elif base_cls == "ratio":
                floor = base_value / TOLERANCE
                status = "ok" if got_value >= floor else "REGRESSION"
                print(f"[{status}] {key}: {name} baseline {base_value:.3f}, "
                      f"floor {floor:.3f}, fresh {got_value:.3f}")
                if got_value < floor:
                    failures.append(f"{key}: {name} {got_value:.3f} < floor "
                                    f"{floor:.3f}")
    if guarded == 0:
        failures.append("no exact or ratio fields compared — baseline empty?")
    return failures, guarded


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)
    failures, guarded = compare(baseline, fresh)
    if failures:
        print(f"\nFAIL ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: {guarded} guarded field(s): exact fields match, ratio "
          f"fields within {TOLERANCE}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
