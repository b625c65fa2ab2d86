#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<workload>.<n>.txt``
and containing that run's standard output (only its last line, the
JSON result, is read); other files are ignored.  For example::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload chain_384 --seed $seed \\
          --seconds 25 > parent/chain_384.$seed.txt
    done

Runs pair up in file-name order; alternate which side runs first.
For each metric the tool prints both sides' median and quartiles and a
verdict:

- ``improved``: the change wins at least 9 in 10 of all pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile spread;
- ``unresolved``: the parent's own interquartile spread is wider than
  the metric's bound and not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound (per-layer metrics have no bound: the
  mirror image of ``improved``);
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import metrics as catalogue


def _directions():
    """``{name: (better, bound or None)}`` for every catalogue metric."""
    table = {name: (better, bound)
             for name, _, better, bound in catalogue.END_TO_END}
    table.update({name: (better, None)
                  for name, _, better in catalogue.PER_LAYER})
    return table


def load_runs(directory):
    """``{workload: [result, ...]}`` from the ``<workload>.<n>.txt``
    files of ``directory``; a run without a result line is an error."""
    workloads = {name for name, _ in catalogue.WORKLOADS}
    runs = {}
    for fname in sorted(os.listdir(directory)):
        parts = fname.split(".")
        if len(parts) != 3 or parts[0] not in workloads or parts[2] != "txt":
            continue
        with open(os.path.join(directory, fname)) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        if not lines or not lines[-1].startswith("{"):
            raise ValueError(f"{fname}: no result line")
        runs.setdefault(parts[0], []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Classify ``change`` against ``parent`` (lists of one metric's
    values, paired by index)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = abs(c_med - p_med)
    spread = p_q3 - p_q1
    if pairs and wins >= 0.9 * len(pairs) and gap > spread \
            and sign * (c_med - p_med) > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gap > spread:
            return "worse"
        return "unchanged"
    scale = abs(p_med) or 1.0
    if spread / scale > bound and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    if sign * (p_med - c_med) / scale > bound:
        return "worse"
    return "unchanged"


def compare(parent_runs, change_runs):
    """Yield ``(workload, metric, unit, parent_q, change_q, verdict)``."""
    directions = _directions()
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        if not parents or not changes:
            yield workload, "(missing runs)", "", None, None, "unresolved"
            continue
        for name, spec in parents[0]["metrics"].items():
            p_vals = [r["metrics"][name]["value"] for r in parents
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in changes
                      if name in r["metrics"]]
            if not c_vals:
                yield workload, name, spec["unit"], quartiles(p_vals), \
                    None, "unresolved"
                continue
            better, bound = directions.get(name, ("lower", None))
            yield (workload, name, spec["unit"], quartiles(p_vals),
                   quartiles(c_vals), verdict(p_vals, c_vals, better, bound))
        failed = [sum(r["failed"] for r in side) for side in (parents, changes)]
        if failed[1] > failed[0]:
            yield workload, "failed operations", "count", None, None, "worse"


def _fmt(q):
    if q is None:
        return "-"
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare two sets of perfbench runs")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows = list(compare(load_runs(args.parent), load_runs(args.change)))
    print(f"{'workload':<14}{'metric':<32}{'unit':<7}"
          f"{'parent median [q1, q3]':<32}{'change median [q1, q3]':<32}"
          f"verdict")
    for workload, name, unit, p_q, c_q, v in rows:
        print(f"{workload:<14}{name:<32}{unit:<7}{_fmt(p_q):<32}"
              f"{_fmt(c_q):<32}{v}")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
