"""Compare two sets of benchmark runs, or summarize one as a baseline.

    python3 benchmarks/e2e/compare.py A/ B/
    python3 benchmarks/e2e/compare.py --baseline A/ [--traced T.json]

``A/`` and ``B/`` hold ``run.py --json`` reports: A from the parent
commit, B from the change, ideally ten or more runs each with the same
seeds.  For every workload x end-to-end metric the comparison prints
each side's median and quartiles and a verdict:

* ``REGRESSED`` -- B's median is worse than A's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- either side's spread (quartile distance over median)
  exceeds the bound, and not every B run beats every A run;
* ``gain`` -- B beats A in at least 9/10 of the seed-matched pairs
  (ties count for neither) and the medians differ by more than A's
  quartile distance;
* ``better`` -- the spread is too wide to resolve, but every B run
  beats every A run;
* ``no change`` -- otherwise.

Deterministic results (simulated cycles, model error against the paper)
must be identical for every seed both sides ran.  Exit status 1 on any
regression or mismatch.  ``--baseline`` prints the median and quartiles
of one set of runs (plus a traced per-layer table) as JSON.
"""

import argparse
import json
import sys
from pathlib import Path

from metrics import quartiles
from run import DEV_SEED, HELD_OUT_SEED, ROOT


def load_runs(directory):
    """``({workload: [report, ...]}, host)`` from every report in a
    directory, each workload's reports ordered by seed."""
    by_workload, host = {}, None
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        host = document.get("host", host)
        for report in document["reports"]:
            by_workload.setdefault(report["workload"], []).append(report)
    for reports in by_workload.values():
        reports.sort(key=lambda report: report["seed"])
    return by_workload, host


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def _better(metric, x, y):
    """Is ``x`` strictly better than ``y``?"""
    return x < y if metric["better"] == "lower" else x > y


def verdict(metric, a, b):
    """``(change, verdict)``: B's median relative to A's, signed so that
    positive is worse, and the verdict described in the module doc."""
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb if mb else 0.0)
    bound = metric["bound"]
    all_better = all(_better(metric, y, x) for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(_better(metric, y, x) for x, y in pairs)
    if spread > bound:
        return worse, "better" if all_better else "unresolved"
    if worse > bound:
        return worse, "REGRESSED"
    if (pairs and wins >= 0.9 * len(pairs) and worse < 0
            and abs(mb - ma) > qa[2] - qa[0]):
        return worse, "gain"
    return worse, "no change"


def _paired(reports_a, reports_b):
    """Seed-matched report pairs (positional when no seed matches)."""
    seeds_b = {report["seed"]: report for report in reports_b}
    matched = [(r, seeds_b[r["seed"]]) for r in reports_a
               if r["seed"] in seeds_b]
    return matched or list(zip(reports_a, reports_b))


def compare(dir_a, dir_b):
    """``(rows, mismatches)``: one row per workload x end-to-end metric
    (both sides' quartiles, the change and its verdict), and the
    ``(workload, seeds)`` whose deterministic results differ."""
    runs_a, _ = load_runs(dir_a)
    runs_b, _ = load_runs(dir_b)
    rows, mismatches = [], []
    for workload in sorted(set(runs_a) & set(runs_b)):
        pairs = _paired(runs_a[workload], runs_b[workload])
        for metric in declared_metrics():
            name = metric["name"]
            a = [x["e2e"][name]["value"] for x, _y in pairs]
            b = [y["e2e"][name]["value"] for _x, y in pairs]
            change, label = verdict(metric, a, b)
            rows.append({"workload": workload, "metric": name,
                         "a": quartiles(a), "b": quartiles(b),
                         "change": change, "verdict": label,
                         "seeds": sum(x["seed"] == y["seed"]
                                      for x, y in pairs)})
        differ = [x["seed"] for x, y in pairs if x["seed"] == y["seed"]
                  and x["deterministic"] != y["deterministic"]]
        if differ:
            mismatches.append((workload, differ))
    return rows, mismatches


def render(rows, mismatches, out):
    out.write("%-17s %-17s %-34s %-34s %8s  %s\n"
              % ("workload", "metric", "A median [q1, q3]",
                 "B median [q1, q3]", "change", "verdict"))
    for row in rows:
        cells = ["%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
                 for q in (row["a"], row["b"])]
        out.write("%-17s %-17s %-34s %-34s %+7.1f%%  %s\n"
                  % (row["workload"], row["metric"], cells[0], cells[1],
                     100 * row["change"], row["verdict"]))
    for workload, seeds in mismatches:
        out.write("%s: deterministic results differ at seed(s) %s\n"
                  % (workload, ", ".join(map(str, seeds))))
    if not mismatches:
        out.write("deterministic results identical for every shared seed\n")


def baseline(directory, traced=None):
    """Median and quartiles of every end-to-end metric, deterministic
    results per seed, and one traced run's per-layer table."""
    runs, host = load_runs(directory)
    document = {"seeds": {"dev": DEV_SEED, "held_out": HELD_OUT_SEED},
                "host": host, "untraced": {}, "traced": {}}
    for workload, reports in sorted(runs.items()):
        metrics = {}
        for name, first in reports[0]["e2e"].items():
            q1, q2, q3 = quartiles([r["e2e"][name]["value"] for r in reports])
            metrics[name] = {"median": q2, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
        document["untraced"][workload] = {
            "runs": len(reports),
            "seconds": reports[0]["seconds"],
            "metrics": metrics,
            "deterministic": {str(r["seed"]): r["deterministic"]
                              for r in reports},
        }
    if traced:
        with open(traced, encoding="utf-8") as handle:
            traced_document = json.load(handle)
        for report in traced_document["reports"]:
            document["traced"][report["workload"]] = {
                "seed": report["seed"],
                "per_layer": {name: metric["value"] for name, metric
                              in report["per_layer"].items()}}
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare end-to-end benchmark runs against their bounds")
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="A/ B/ to compare, or one DIR with --baseline")
    parser.add_argument("--baseline", action="store_true",
                        help="print DIR's medians and quartiles as JSON")
    parser.add_argument("--traced", metavar="FILE",
                        help="with --baseline: a traced run's --json report")
    args = parser.parse_args(argv)
    if args.baseline:
        if len(args.dirs) != 1:
            parser.error("--baseline takes one directory")
        json.dump(baseline(args.dirs[0], args.traced), sys.stdout, indent=1,
                  sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if len(args.dirs) != 2:
        parser.error("compare takes two directories: A/ B/")
    rows, mismatches = compare(*args.dirs)
    render(rows, mismatches, sys.stdout)
    regressed = any(row["verdict"] == "REGRESSED" for row in rows)
    return 1 if regressed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
