"""End-to-end benchmark of the MultiTitan reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT]

Runs each workload (all five by default) in a fresh Python process,
prints every metric by name with its unit, and ends its standard output
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics untraced, the per-layer metrics with ``--trace``.
``setup_s`` is the median over four set-up-only processes and the
measuring one.  ``--json`` also writes the full reports (sample counts,
deterministic results, errors) for ``compare.py``; a traced run writes
its spans to ``.e2e/<workload>.spans.jsonl``.

Exit status: 0 when every correctness check passed, 1 when one failed
or a workload process died, 2 when the checkout has no ``src/repro``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".e2e"

DEV_SEED = 1989
#: A seed kept out of development, on which a claimed gain must also
#: hold (recorded in baseline.json).
HELD_OUT_SEED = 2718
DEFAULT_SECONDS = 10
SETUP_PROBES = 4
PROBE_TIMEOUT = 30.0
RUN_TIMEOUT = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark: DSE, Figure 14, Linpack, "
                    "observed Linpack and the campaign service")
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help="input seed (default %d)" % DEV_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload (default %d)"
                             % DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced pass and report per-layer "
                             "metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full reports to OUT")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# The workload process
# ---------------------------------------------------------------------------

def child_main(args):
    import workloads

    (name,) = args.workload
    # Caches, journals and trajectories stay behind: deleting files that
    # were fsynced can take longer than the run itself on some
    # filesystems.  Remove .e2e/ when done with it.
    (WORK / "runs").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%s-" % (name, args.child),
                               dir=WORK / "runs")
    if args.child == "setup":
        result = {"setup_s": workloads.setup_only(
            name, args.seed, workdir, args.started)}
    else:
        spans = WORK / (name + ".spans.jsonl") if args.trace else None
        result = workloads.measure(
            name, args.seed, args.seconds, trace=bool(args.trace),
            workdir=workdir, spans_path=str(spans) if spans else None,
            started=args.started)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The launcher
# ---------------------------------------------------------------------------

class WorkloadDied(RuntimeError):
    pass


def _spawn(name, args, mode, timeout):
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", mode, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--started", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkloadDied("%s %s process exceeded %.0fs"
                           % (name, mode, timeout)) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkloadDied("%s %s process exited with status %d"
                           % (name, mode, done.returncode))
    return json.loads(lines[-1])


def run_workload(name, args):
    from metrics import median

    setups = []
    if not args.trace:
        setups = [_spawn(name, args, "setup", PROBE_TIMEOUT)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    report = _spawn(name, args, "run", RUN_TIMEOUT)
    setups.append(report["e2e"]["setup_s"]["value"])
    report["e2e"]["setup_s"]["value"] = median(setups)
    report["samples"]["setup_s"] = len(setups)
    return report


def print_report(report):
    print("%s  seed=%d  %gs  %s  attempted=%d failed=%d  %s"
          % (report["workload"], report["seed"], report["seconds"],
             "traced" if report["trace"] else "untraced",
             report["attempted"], report["failed"],
             "correct" if report["correct"] else "INCORRECT"))
    counts = {"setup_s": report["samples"]["setup_s"],
              "op_ms_p50": report["samples"]["op_ms"],
              "op_ms_p90": report["samples"]["op_ms"]}
    sections = [("e2e", report["e2e"])]
    if "per_layer" in report:
        sections.append(("layer", report["per_layer"]))
    for label, metrics in sections:
        for name, metric in metrics.items():
            count = " (n=%d)" % counts[name] if name in counts else ""
            print("  %-5s %-34s %16.6g %s%s" % (label, name, metric["value"],
                                               metric["unit"], count))
    for name, value in report["deterministic"].items():
        if value is not None:
            print("  exact %-34s %16.6g" % (name, value))
    if report.get("spans"):
        print("  spans %s" % os.path.relpath(report["spans"], str(ROOT)))
    for error in report["errors"]:
        print("  ERROR %s" % error)


def result_line(reports, trace):
    key = "per_layer" if trace else "e2e"
    if len(reports) == 1:
        metrics = reports[0][key]
    else:
        metrics = {report["workload"]: report[key] for report in reports}
    return json.dumps({
        "correct": all(report["correct"] for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    })


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: %s has no src/repro; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    # The checkout's own source wins over any installed copy.
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child_main(args)

    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print("error: unknown workload(s) %s (have: %s)"
              % (", ".join(unknown), ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args))
            print_report(reports[-1])
            sys.stdout.flush()
    except WorkloadDied as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        document = {"host": {"nproc": os.cpu_count(),
                             "python": platform.python_version(),
                             "machine": platform.machine()},
                    "reports": reports}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(result_line(reports, args.trace))
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
