"""The five end-to-end workloads and the passes that measure them.

Each workload makes its inputs from one seed and runs *operations*, the
unit of work a user waits for:

==================  ==================================================
``dse-search``      one distinct design point of a ``dse`` search
``fig14``           one ``livermore-pair`` request (cold + warm run)
``linpack``         one ``measure_linpack(n=100)`` call
``linpack-observed``  one observed round: both Linpack codings, cold,
                    with a ``UtilizationObserver`` attached
``service``         one campaign, from submit to result body
==================  ==================================================

:func:`measure` runs the *untraced pass* (the workload as users run it,
for ``--seconds``) and, when tracing, a *traced pass* over the same
inputs.  Forked workers cannot be traced from here, so the traced pass
runs ``dse-search`` at ``jobs=1`` and ``service`` in-process; an
untraced pass in that same in-process configuration then gives the
tracing overhead.  Every pass must produce identical simulated results.
"""

import dataclasses
import hashlib
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from metrics import E2E, PER_LAYER, SPAN_LAYERS, median, percentile
from spans import Tracer

from repro import api, orchestrate
from repro.analysis.utilization import UtilizationObserver
from repro.baselines import reference_data
from repro.dse import FitnessSpec, create_agent, run_search, space_preset
from repro.dse.fitness import result_cycles
from repro.dse.search import search_space_for
from repro.dse.trajectory import (TrajectoryError, load_trajectory,
                                  validate_trajectory)
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceThread
from repro.workloads import common, linpack
from repro.workloads.livermore import harmonic_mean

SRC = Path(__file__).resolve().parents[2] / "src"

#: Largest model error against the paper's MFLOPS the correctness check
#: accepts (%); speed-only changes leave the error exactly unchanged.
MAX_MFLOPS_ERR_PCT = 25.0

#: Worker processes of the search and the service, and closed-loop
#: service clients: the reference host's core count.
FLEET_JOBS = 2
SERVICE_CLIENTS = 2

#: Seconds the service subprocess may take to start listening.
SERVER_START_TIMEOUT = 60.0

#: The paper's reference sizes; other sizes have no paper figure.
PAPER_LOOPS = tuple(range(1, 25))
PAPER_LINPACK_N = 100


def _err_pct(model, paper):
    return abs(model - paper) / paper * 100.0


def _accuracy_errors(result, what):
    errors = list(result.errors)
    if (result.mflops_err_pct is not None
            and result.mflops_err_pct > MAX_MFLOPS_ERR_PCT):
        errors.append("%s is %.1f%% off the paper"
                      % (what, result.mflops_err_pct))
    return errors


@dataclasses.dataclass
class OpResult:
    """What one operation produced."""

    samples_ms: list      # host time per operation it contains
    failed: int           # operations that failed or were refused
    cycles: int           # simulated cycles reported in its results
    output: object        # deterministic output, compared across passes
    errors: list = dataclasses.field(default_factory=list)
    campaigns: list = dataclasses.field(default_factory=list)
    counters: dict = dataclasses.field(default_factory=dict)
    mflops_err_pct: float = None
    check_data: object = None


@dataclasses.dataclass
class Phase:
    """One pass over a workload: its inputs, per-input results, wall."""

    inputs: list
    results: list
    wall_s: float
    refused: int = 0
    counters: dict = dataclasses.field(default_factory=dict)

    @property
    def samples_ms(self):
        return [ms for result in self.results for ms in result.samples_ms]

    @property
    def ops(self):
        return len(self.samples_ms)

    @property
    def attempted(self):
        return self.ops + self.refused

    @property
    def failed(self):
        return self.refused + sum(result.failed for result in self.results)

    @property
    def cycles(self):
        return sum(result.cycles for result in self.results)

    @property
    def outputs(self):
        return [result.output for result in self.results]

    @property
    def campaigns(self):
        return [c for result in self.results for c in result.campaigns]

    def total(self, counter):
        return sum(result.counters.get(counter, 0) for result in self.results)


class Workload:
    """A workload: seeded inputs, one operation per input, checks.

    ``setup`` does everything before the first call into a layer;
    ``in_process`` says whether the untraced pass already runs in the
    configuration the traced pass needs.
    """

    name = None
    in_process = True

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = str(workdir)

    def setup(self):
        pass

    def close(self):
        pass

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.workdir)

    def inputs(self):
        """Operation inputs: the seed, then seed+1, ... (data seeds)."""
        k = 0
        while True:
            yield self.seed + k
            k += 1

    def op(self, item, in_process):
        raise NotImplementedError

    def check(self, result):
        """Correctness errors of one operation (run outside timing)."""
        return list(result.errors)

    def layer_counters(self, phase):
        """This workload's own per-layer numbers from the untraced pass."""
        return {}

    def run(self, seconds=None, inputs=None, in_process=False, tracer=None):
        """Run operations in order.  With ``seconds``, stop after the
        whole number of operations whose total time is closest to it
        (at least one); with ``inputs``, run exactly those."""
        items = iter(inputs) if inputs is not None else self.inputs()
        done, results, durations = [], [], []
        start = time.perf_counter()
        for index, item in enumerate(items):
            began = time.perf_counter()
            scope = (tracer.span("bench.op", request="op%d" % index)
                     if tracer is not None else nullcontext())
            with scope:
                results.append(self.op(item, in_process))
            durations.append(time.perf_counter() - began)
            done.append(item)
            elapsed = time.perf_counter() - start
            if seconds is not None and elapsed + median(durations) / 2 >= seconds:
                break
        return Phase(done, results, time.perf_counter() - start)

    def verify(self, phase):
        return [error for result in phase.results
                for error in self.check(result)]


class _RecordingSession(api.Session):
    """A Session that keeps every campaign it ran (the search driver
    only keeps the last)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.campaigns = []

    def run_many(self, requests, **kwargs):
        results = super().run_many(requests, **kwargs)
        self.campaigns.append(self.last_campaign)
        return results


# ---------------------------------------------------------------------------
# dse-search
# ---------------------------------------------------------------------------

class DseSearch(Workload):
    """A successive-halving search over the default space, 2 workers,
    empty result cache: many short runs over few programs."""

    name = "dse-search"
    in_process = False

    def __init__(self, seed, workdir, budget=400, space="default",
                 suite="livermore-quick"):
        super().__init__(seed, workdir)
        self.budget = budget
        self.space_name = space
        self.suite = suite

    def setup(self):
        self.space = space_preset(self.space_name)
        self.fitness = FitnessSpec(self.suite)

    def inputs(self):
        """Search seeds: the seed itself, then seeded draws."""
        yield self.seed
        rng = random.Random(self.seed)
        while True:
            yield rng.randrange(1 << 31)

    def op(self, search_seed, in_process):
        directory = self.fresh_dir("search")
        session = _RecordingSession(jobs=1 if in_process else FLEET_JOBS,
                                    cache_dir=os.path.join(directory, "cache"))
        path = os.path.join(directory, "trajectory.jsonl")
        outcome = run_search(self.space, self.fitness, create_agent("halving"),
                             self.budget, session, path, seed=search_seed)
        per_point = len(self.fitness.entries)
        samples, cycles, failed = [], 0, 0
        for campaign in session.campaigns:
            points = len(campaign.results) // per_point
            # A point's share of the campaign that evaluated it.
            samples += [campaign.wall_seconds * 1e3 / points] * points
            for first in range(0, len(campaign.results), per_point):
                chunk = campaign.results[first:first + per_point]
                if all(result.passed for result in chunk):
                    cycles += sum(result_cycles(r.metrics) for r in chunk)
                else:
                    failed += 1
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return OpResult(
            samples, failed, cycles, output=digest,
            campaigns=session.campaigns,
            counters={"evaluations": outcome.evaluations,
                      "distinct_points": outcome.distinct_points,
                      "memo_hits": outcome.memo_hits},
            check_data=(path, outcome))

    def check(self, result):
        path, outcome = result.check_data
        errors = list(result.errors)
        try:
            header, records, torn = load_trajectory(path)
            validate_trajectory(header, records)
        except TrajectoryError as exc:
            return errors + ["trajectory invalid: %s" % exc]
        if torn is not None or len(records) != outcome.evaluations:
            errors.append("trajectory has %d records (torn at %s), the "
                          "search reported %d evaluations"
                          % (len(records), torn, outcome.evaluations))
        if outcome.failed_count:
            errors.append("%d evaluation(s) failed" % outcome.failed_count)
        best = outcome.best
        if best is not None:
            # Re-simulate the best point from scratch, in-process.
            config = search_space_for(self.space, self.fitness).config_for(
                best.point)
            rerun = api.Session(jobs=1).run_many(self.fitness.requests(config))
            if self.fitness.score(config, rerun) != (best.score, best.cycles):
                errors.append("best point %s does not re-simulate to score "
                              "%s" % (best.point, best.score))
        return errors

    def layer_counters(self, phase):
        evaluations = phase.total("evaluations")
        return {
            "dse.evaluations": evaluations,
            "dse.distinct_points": phase.total("distinct_points"),
            "dse.memo_hit_ratio": (phase.total("memo_hits") / evaluations
                                   if evaluations else 0.0),
        }


# ---------------------------------------------------------------------------
# fig14
# ---------------------------------------------------------------------------

class Fig14(Workload):
    """Livermore loops 1-24, cold and warm, one in-process session:
    request execution without a worker fleet."""

    name = "fig14"

    def __init__(self, seed, workdir, loops=PAPER_LOOPS):
        super().__init__(seed, workdir)
        self.loops = tuple(loops)

    def op(self, data_seed, in_process):
        requests = [api.RunRequest("livermore-pair",
                                   {"loop": loop, "seed": data_seed})
                    for loop in self.loops]
        session = api.Session(jobs=1)
        results = session.run_many(requests)
        error_pct = None
        if self.loops == PAPER_LOOPS:
            error_pct = _err_pct(
                harmonic_mean([result.metrics.get("warm_mflops", 0.0)
                               for result in results]),
                reference_data.FIGURE14_HARMONIC_MEANS["1-24"][1])
        return OpResult(
            [result.wall_seconds * 1e3 for result in results],
            failed=sum(not result.passed for result in results),
            cycles=sum(result.metrics.get("cold_cycles", 0)
                       + result.metrics.get("warm_cycles", 0)
                       for result in results),
            output=[result.to_dict() for result in results],
            errors=[result.check_error for result in results
                    if result.check_error is not None],
            campaigns=[session.last_campaign],
            mflops_err_pct=error_pct)

    def check(self, result):
        return _accuracy_errors(result, "harmonic-mean warm MFLOPS")


# ---------------------------------------------------------------------------
# linpack and linpack-observed
# ---------------------------------------------------------------------------

class Linpack(Workload):
    """Linpack at the paper's n=100, both codings, warm protocol: the
    cycle loop's fast path on a matrix larger than the data cache."""

    name = "linpack"

    def __init__(self, seed, workdir, n=PAPER_LINPACK_N):
        super().__init__(seed, workdir)
        self.n = n

    def op(self, data_seed, in_process):
        start = time.perf_counter()
        measurement = linpack.measure_linpack(n=self.n, seed=data_seed)
        wall = time.perf_counter() - start
        error = measurement.check_error
        return OpResult(
            [wall * 1e3], failed=int(error is not None),
            cycles=measurement.scalar_cycles + measurement.vector_cycles,
            output=dataclasses.asdict(measurement),
            errors=[error] if error is not None else [],
            mflops_err_pct=_err_pct(
                measurement.vector_mflops,
                reference_data.LINPACK_MFLOPS["MultiTitan vector"])
            if self.n == PAPER_LINPACK_N else None)

    def check(self, result):
        return _accuracy_errors(result, "vector Linpack MFLOPS")


class LinpackObserved(Workload):
    """The same Linpack system, cold, with a UtilizationObserver on the
    event bus: the slow loop plus event delivery."""

    name = "linpack-observed"

    def __init__(self, seed, workdir, n=PAPER_LINPACK_N):
        super().__init__(seed, workdir)
        self.n = n

    def op(self, data_seed, in_process):
        start = time.perf_counter()
        output, errors = [], []
        events = ops = cycles = 0
        for coding in ("scalar", "vector"):
            kernel = linpack.build_linpack(self.n, coding, data_seed)
            machine = common.create_machine(None, kernel.program,
                                            memory=kernel.memory)
            kernel.setup(machine)
            observer = UtilizationObserver(machine)
            run = machine.run()
            usage = observer.result(run.completion_cycle)
            observer.detach()
            error = kernel.check(machine)
            if error is not None:
                errors.append("%s: %s" % (coding, error))
            if not 0.0 < usage.operations_per_cycle <= 2.0:
                errors.append("%s: %.3f operations per cycle is outside "
                              "(0, 2]" % (coding, usage.operations_per_cycle))
            output.append(dataclasses.asdict(usage))
            events += machine.fpu.stats.elements_issued + observer.memory_ops
            ops += usage.alu_elements + usage.memory_ops
            cycles += run.completion_cycle
        wall = time.perf_counter() - start
        return OpResult([wall * 1e3], failed=int(bool(errors)), cycles=cycles,
                        output=output, errors=errors,
                        counters={"events": events, "ops": ops,
                                  "cycles": cycles})

    def layer_counters(self, phase):
        cycles = phase.total("cycles")
        return {"utilization.events": phase.total("events"),
                "utilization.ops_per_cycle": (phase.total("ops") / cycles
                                              if cycles else 0.0)}


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

class _Server:
    """``python -m repro serve --jobs 2`` with the CLI's default cache
    and journal under ``directory``, on an ephemeral port."""

    def __init__(self, directory):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        log_path = os.path.join(directory, "serve.log")
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--jobs", str(FLEET_JOBS), "--port", "0"],
                cwd=directory, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_for_port(log_path)
            ServiceClient(port=self.port).health()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, log_path):
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                found = re.search(r"listening on http://[^:]+:(\d+)",
                                  log.read())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        with open(log_path, encoding="utf-8", errors="replace") as log:
            raise RuntimeError("service did not start: %s" % log.read())

    def stop(self):
        """SIGTERM (the graceful drain) and wait for the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Service(Workload):
    """Closed-loop clients submitting one-point campaigns to a service
    subprocess: admission, HTTP/SSE, queueing, worker forks, journal
    fsyncs and cache puts on every campaign."""

    name = "service"
    in_process = False

    def __init__(self, seed, workdir, max_points=600, space="default",
                 suite="livermore-quick"):
        super().__init__(seed, workdir)
        self.max_points = max_points
        self.space_name = space
        self.suite = suite
        self.server = None

    def setup(self):
        self.space = space_preset(self.space_name)
        self.fitness = FitnessSpec(self.suite)
        self.server = _Server(self.fresh_dir("server"))
        rng = random.Random(self.seed)
        seen, self.points = set(), []
        for _ in range(20 * self.max_points):
            if len(self.points) == self.max_points:
                break
            point = self.space.sample(rng)
            key = self.space.point_key(point)
            if key not in seen:
                seen.add(key)
                self.points.append(point)

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    def inputs(self):
        return iter(range(len(self.points)))

    def requests(self, index):
        return self.fitness.requests(self.space.config_for(self.points[index]))

    def _campaign(self, client, index, options):
        """Submit, follow the event stream to the end, fetch the result."""
        begin = time.perf_counter()
        try:
            cid = client.submit(self.requests(index), **options)["campaign"]
        except ServiceError as exc:
            return index, None, {"refused": str(exc)}
        submitted = time.perf_counter()
        running = finished = state = None
        for event in client.events(cid):
            now = time.perf_counter()
            if event.get("state") == "running" and running is None:
                running = now
            if event.get("state") in protocol.TERMINAL_STATES:
                state, finished = event["state"], now
        if state is None:
            # The stream can end before its terminal event when the
            # campaign finishes while the first snapshot is being sent;
            # the status endpoint then has the final state.
            state = client.wait(cid, poll=0.005)["state"]
            finished = time.perf_counter()
        document = client.result(cid) if state == "done" else None
        end = time.perf_counter()
        finished = finished or end
        running = running or finished
        stages = {"submit": submitted - begin, "queue_wait": running - submitted,
                  "execute": finished - running, "result": end - finished}
        return index, document, {"state": state, "latency": end - begin,
                                 "stages": stages}

    def run(self, seconds=None, inputs=None, in_process=False, tracer=None):
        thread = None
        if in_process:
            directory = self.fresh_dir("inprocess")
            thread = ServiceThread(
                jobs=1, cache_dir=os.path.join(directory, "cache"),
                journal_dir=os.path.join(directory, "journal")).start()
            port, options = thread.port, {"jobs": 1}
        else:
            port, options = self.server.port, {}
        items = iter(inputs) if inputs is not None else self.inputs()
        lock = threading.Lock()
        start = time.perf_counter()

        def client_loop():
            client = ServiceClient(port=port)
            done = []
            while seconds is None or time.perf_counter() - start < seconds:
                with lock:
                    index = next(items, None)
                if index is None:
                    break
                scope = (tracer.span("bench.op", request="op%d" % index)
                         if tracer is not None else nullcontext())
                with scope:
                    done.append(self._campaign(client, index, options))
            return done

        try:
            with ThreadPoolExecutor(max_workers=SERVICE_CLIENTS) as pool:
                futures = [pool.submit(client_loop)
                           for _ in range(SERVICE_CLIENTS)]
                records = [record for future in futures
                           for record in future.result()]
            wall = time.perf_counter() - start
            if thread is not None:
                health = thread.service.health()[1]
            else:
                health = ServiceClient(port=port).health()
        finally:
            if thread is not None:
                thread.stop()
        return self._phase(sorted(records, key=lambda record: record[0]),
                           wall, health)

    def _phase(self, records, wall, health):
        results, refused = [], 0
        stages = {"submit": [], "queue_wait": [], "execute": [], "result": []}
        for index, document, info in records:
            if "refused" in info:
                refused += 1
                continue
            errors = []
            if document is None:
                errors.append("campaign %d ended %s" % (index, info["state"]))
                results.append(OpResult([info["latency"] * 1e3], 1, 0, None,
                                        errors=errors))
                continue
            for stage, seconds in info["stages"].items():
                stages[stage].append(seconds * 1e3)
            entries = document["results"]
            errors += ["campaign %d: %s" % (index, entry["check_error"])
                       for entry in entries if entry["check_error"]]
            results.append(OpResult(
                [info["latency"] * 1e3], failed=int(bool(errors)),
                cycles=sum(result_cycles(entry["metrics"])
                           for entry in entries if not entry["check_error"]),
                output=entries, errors=errors,
                check_data=(index, document)))
        counters = health["counters"]
        return Phase(
            [record[0] for record in records if "refused" not in record[2]],
            results, wall, refused=refused,
            counters={"stages": stages,
                      "rejected": sum(counters[key] for key in counters
                                      if key.startswith("rejected_")),
                      "completed": counters["completed"]})

    def check(self, result):
        errors = list(result.errors)
        if result.check_data is None:
            return errors
        index, document = result.check_data
        try:
            orchestrate.validate_bench_json(document)
        except ValueError as exc:
            return errors + ["campaign %d result invalid: %s" % (index, exc)]
        if len(document["results"]) != len(self.fitness.entries):
            errors.append("campaign %d returned %d results"
                          % (index, len(document["results"])))
        return errors

    def verify(self, phase):
        errors = super().verify(phase)
        # The first campaign, re-simulated in this process, must match
        # what the service returned byte for byte.
        first = next((r for r in phase.results if r.check_data), None)
        if first is not None:
            index, document = first.check_data
            local = [api.execute_request(request).to_dict()
                     for request in self.requests(index)]
            if local != document["results"]:
                errors.append("campaign %d differs from local execution"
                              % index)
        return errors

    def layer_counters(self, phase):
        stages = phase.counters["stages"]
        return {
            "service.submit_ms_p50": median(stages["submit"]),
            "service.queue_wait_ms_p50": median(stages["queue_wait"]),
            "service.execute_ms_p50": median(stages["execute"]),
            "service.result_ms_p50": median(stages["result"]),
            "service.rejected": phase.counters["rejected"],
            "service.completed": phase.counters["completed"],
        }


WORKLOADS = {cls.name: cls
             for cls in (DseSearch, Fig14, Linpack, LinpackObserved, Service)}


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

def fleet_metrics(campaigns):
    """Worker-fleet numbers from CampaignRun telemetry."""
    sidecars = [side for campaign in campaigns for side in campaign.sidecars
                if not side.get("resumed")]
    busy = sum(side["wall_seconds"] for side in sidecars)
    capacity = sum(campaign.wall_seconds * campaign.jobs
                   for campaign in campaigns)
    return {
        "orchestrate.cache_hit_rate": orchestrate.cache_hit_rate(
            sum(bool(side["cached"]) for side in sidecars), len(sidecars)),
        "orchestrate.worker_busy_s": busy,
        "orchestrate.worker_utilization": busy / capacity if capacity else 0.0,
        "orchestrate.task_ms_p50": median(
            [side["wall_seconds"] * 1e3 for side in sidecars]),
        "orchestrate.retried_tasks": sum(c.retried_count for c in campaigns),
        "orchestrate.failed_tasks": sum(c.failed_count for c in campaigns),
    }


def peak_rss_mb():
    """The larger of this process's and its waited-for children's peak
    resident set (Linux reports kilobytes)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _with_units(values, units):
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def _identity(phase):
    """What must not change between passes: the simulated cycles and a
    digest of every per-request output."""
    text = json.dumps(phase.outputs, sort_keys=True)
    return {"sim_cycles": phase.cycles,
            "outputs_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _traced(workload, normal, spans_path):
    """The traced pass (and its untraced in-process twin) over the
    untraced pass's inputs; returns the per-layer metrics and each
    pass's identity."""
    tracer = Tracer()
    with tracer:
        traced = workload.run(inputs=normal.inputs, in_process=True,
                              tracer=tracer)
    base = normal if workload.in_process else workload.run(
        inputs=normal.inputs, in_process=True)
    passes = {"untraced": _identity(normal), "traced": _identity(traced),
              "in-process": _identity(base)}
    if spans_path:
        tracer.write_jsonl(spans_path)
    table = tracer.layer_table()
    values = dict.fromkeys(PER_LAYER, 0)
    for layer in SPAN_LAYERS:
        values[layer + ".calls"] = table[layer]["calls"]
        values[layer + ".self_s"] = table[layer]["self_s"]
    run = table["machine.run"]
    values["machine.run.cycles"] = run["cycles"]
    values["machine.run.cycles_per_s"] = (run["cycles"] / run["self_s"]
                                          if run["self_s"] else 0.0)
    values["api.check_fail"] = table["api.execute_request"]["check_fail"]
    values.update(fleet_metrics(normal.campaigns or tracer.campaigns))
    values.update(workload.layer_counters(normal))
    values["trace.overhead_pct"] = (traced.wall_s / base.wall_s - 1.0) * 100.0
    return values, passes


def measure(name, seed, seconds, trace=False, workdir=None, sizes=None,
            spans_path=None, started=None):
    """Set up and measure one workload; returns its report.

    ``started`` is the wall-clock time set-up counts from (the process
    start, when run from ``run.py``); ``sizes`` shrink the workload and
    are for tests only.
    """
    started = time.time() if started is None else started
    workload = WORKLOADS[name](seed, workdir, **(sizes or {}))
    try:
        workload.setup()
        setup_s = time.time() - started
        normal = workload.run(seconds=seconds)
        errors = workload.verify(normal)
        per_layer = passes = None
        if trace:
            per_layer, passes = _traced(workload, normal, spans_path)
            errors += ["the %s pass changed simulated results" % label
                       for label, identity in passes.items()
                       if identity != passes["untraced"]]
    finally:
        workload.close()
    samples = normal.samples_ms
    e2e = {
        "setup_s": setup_s,
        "op_ms_p50": median(samples),
        "op_ms_p90": percentile(samples, 90),
        "ops_per_s": normal.ops / normal.wall_s,
        "sim_cycles_per_s": normal.cycles / normal.wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    first = normal.results[0] if normal.results else None
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "correct": not errors and normal.failed == 0,
        "attempted": normal.attempted,
        "failed": normal.failed,
        "errors": errors,
        "samples": {"setup_s": 1, "op_ms": len(samples)},
        "e2e": _with_units(e2e, E2E),
        "deterministic": {
            "sim_cycles": first.cycles if first else 0,
            "mflops_err_pct": first.mflops_err_pct if first else None,
        },
    }
    if per_layer is not None:
        report["per_layer"] = _with_units(per_layer, PER_LAYER)
        report["passes"] = passes
        report["spans"] = spans_path
    return report


def setup_only(name, seed, workdir, started):
    """Set a workload up and tear it down; returns the set-up seconds."""
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        return time.time() - started
    finally:
        workload.close()
