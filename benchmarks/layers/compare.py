#!/usr/bin/env python3
"""Compare two ledgers written by ``bench.py --out``.

    python3 benchmarks/layers/compare.py OLD.json NEW.json

Prints one row per workload and end-to-end metric: the old median, the
new median, the change and a verdict, using each metric's bound and
direction from the old ledger:

* ``unresolved`` -- either side's quartile spread (q3 - q1 over the
  median) is wider than the bound, and the two sides' reps overlap;
* ``regressed`` -- worse by more than the bound (or, when the spread is
  wide, every new rep worse than every old one);
* ``improved`` -- the same, in the better direction;
* ``ok`` -- otherwise.

Each workload also gets an ``error_rate`` row (failed / attempted
reps), which regresses on any increase.  Exit status is 1 when any row
regressed or a workload or metric is missing from NEW, else 0.
"""

from __future__ import annotations

import json
import sys


def verdict(old: dict, new: dict, better: str, bound: float):
    """(relative change, verdict) for one metric's two summaries."""
    change = (new["median"] - old["median"]) / old["median"]
    worse = change if better == "lower" else -change
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (old, new))
    if spread > bound:
        lo_old, hi_old = min(old["values"]), max(old["values"])
        lo_new, hi_new = min(new["values"]), max(new["values"])
        higher = lo_new > hi_old
        lower = hi_new < lo_old
        if not (higher or lower):
            return change, "unresolved"
        return change, "regressed" if higher == (better == "lower") \
            else "improved"
    if worse > bound:
        return change, "regressed"
    if worse < -bound:
        return change, "improved"
    return change, "ok"


def compare(old: dict, new: dict) -> list[tuple]:
    """Rows of (workload, metric, old, new, change, verdict)."""
    rows = []
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None:
            rows.append((name, "*", None, None, None, "missing"))
            continue
        for metric in old["metrics"]:
            key = metric["name"]
            a, b = before["metrics"].get(key), after["metrics"].get(key)
            if a is None:
                continue
            if b is None:
                rows.append((name, key, a["median"], None, None, "missing"))
                continue
            change, word = verdict(a, b, metric["better"], metric["bound"])
            rows.append((name, key, a["median"], b["median"], change, word))
        rate_a, rate_b = before["error_rate"], after["error_rate"]
        word = "regressed" if rate_b > rate_a else \
            "improved" if rate_b < rate_a else "ok"
        rows.append((name, "error_rate", rate_a, rate_b,
                     rate_b - rate_a, word))
    return rows


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    rows = compare(*ledgers)
    print(f"{'workload':<11} {'metric':<14} {'old':>12} {'new':>12} "
          f"{'change':>9}  verdict")
    for name, metric, a, b, change, word in rows:
        delta = "-" if change is None else f"{change:+.2%}"
        print(f"{name:<11} {metric:<14} {_fmt(a):>12} {_fmt(b):>12} "
              f"{delta:>9}  {word}")
    return 1 if any(row[5] in ("regressed", "missing") for row in rows) \
        else 0


if __name__ == "__main__":
    sys.exit(main())
