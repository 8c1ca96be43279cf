"""Outside-in layer tracing: spans around calls into each layer.

The tracer changes no code under ``src/``.  It replaces each function
in :data:`WRAPS` *where its caller looks it up* -- a module attribute
or a class attribute -- with a wrapper that records a span, and puts
the original back on exit.  Spans are kept in memory and written as
JSON lines when the benchmark ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.

Work done inside forked worker processes is invisible from here, so a
traced pass runs every workload in-process (see ``workloads.py``).
"""

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager

from metrics import SPAN_LAYERS


def _run_cycles(_tracer, result):
    return {"cycles": result.completion_cycle}


def _check_fail(_tracer, result):
    return {"check_fail": True} if result.check_error is not None else None


def _keep_campaign(tracer, result):
    tracer.campaigns.append(result)
    return {"tasks": len(result.results)}


#: ``(owner, attribute, layer, on_result)``: ``owner`` is a module path,
#: or ``module:Class`` for a method.  Several call sites may feed one
#: layer (Livermore and Linpack kernel builds, say).  ``on_result``
#: returns extra span attributes taken from the call's result.
WRAPS = (
    ("repro.workloads.livermore", "build_loop", "workloads.build_kernel", None),
    ("repro.workloads.linpack", "build_linpack", "workloads.build_kernel", None),
    ("repro.workloads.experiments", "program_digest",
     "semantics.program_digest", None),
    ("repro.core.semantics", "program_digest", "semantics.program_digest", None),
    ("repro.workloads.common", "create_machine", "machine.build", None),
    ("repro.workloads.experiments", "run_kernel", "workloads.run_kernel", None),
    ("repro.workloads.linpack", "run_kernel", "workloads.run_kernel", None),
    ("repro.cpu.machine:MultiTitan", "snapshot", "machine.snapshot", None),
    ("repro.cpu.machine:MultiTitan", "restore", "machine.restore", None),
    ("repro.cpu.machine:MultiTitan", "reset_cpu", "machine.reset_cpu", None),
    ("repro.cpu.machine:MultiTitan", "run", "machine.run", _run_cycles),
    ("repro.mem.memory:Memory", "restore_delta", "memory.restore_delta", None),
    ("repro.api", "execute_request", "api.execute_request", _check_fail),
    ("repro.orchestrate", "run_campaign", "orchestrate.run_campaign",
     _keep_campaign),
    ("repro.orchestrate:ResultCache", "get", "orchestrate.cache_get", None),
    ("repro.orchestrate:ResultCache", "put", "orchestrate.cache_put", None),
    ("repro.journal:CampaignJournal", "record", "journal.record", None),
    ("repro.dse.trajectory:TrajectoryWriter", "record",
     "dse.trajectory_record", None),
    ("repro.dse.agents:SuccessiveHalvingAgent", "ask", "dse.agent", None),
    ("repro.dse.agents:SearchAgent", "tell", "dse.agent", None),
)

#: Spans of one request share its id; a request starts here.
REQUEST_LAYER = "api.execute_request"

_MARK = "__e2e_traced__"


def resolve(owner):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def is_traced(fn):
    return getattr(fn, _MARK, False)


class Tracer:
    """Installs the wrappers for the length of a ``with`` block and
    keeps every span recorded meanwhile.

    A span is ``[id, name, start, end, parent id, request id, attrs]``;
    its parent is the innermost open span on the same thread.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.origin = clock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._restore = []
        #: Every CampaignRun the traced code returned (fleet metrics).
        self.campaigns = []

    # -- installing and removing the wrappers ---------------------------

    def __enter__(self):
        try:
            for owner, attr, layer, on_result in WRAPS:
                target = resolve(owner)
                original = getattr(target, attr)
                self._restore.append((target, attr, original))
                setattr(target, attr, self._wrap(original, layer, on_result))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *_exc):
        self._uninstall()
        return False

    def _uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            if name == REQUEST_LAYER:
                request = "r%d" % next(self._requests)
            elif parent is not None:
                request = parent[5]
        span = [next(self._ids), name, self.clock(), None,
                parent[0] if parent else None, request, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[3] = self.clock()
        self._stack().pop()

    @contextmanager
    def span(self, name, request=None):
        """A root span opened by the benchmark itself (one operation)."""
        span = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, layer, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                span[6] = on_result(tracer, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- reading --------------------------------------------------------

    def self_times(self):
        """``{span id: self seconds}`` over the closed spans."""
        covered = {}
        for span in self.spans:
            if span[4] is not None and span[3] is not None:
                covered[span[4]] = covered.get(span[4], 0.0) + span[3] - span[2]
        return {span[0]: span[3] - span[2] - covered.get(span[0], 0.0)
                for span in self.spans if span[3] is not None}

    def layer_table(self):
        """``{layer: {"calls", "self_s"}}`` for every span layer;
        ``machine.run`` also sums its simulated ``cycles`` and
        ``api.execute_request`` counts its ``check_fail`` results."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in SPAN_LAYERS}
        table["machine.run"]["cycles"] = 0
        table["api.execute_request"]["check_fail"] = 0
        self_s = self.self_times()
        for span in self.spans:
            row = table.get(span[1])
            if row is None or span[3] is None:
                continue
            row["calls"] += 1
            row["self_s"] += self_s[span[0]]
            for key, value in (span[6] or {}).items():
                if key in row:
                    row[key] += value
        return table

    def write_jsonl(self, path):
        """One span per line: id, name, start/end (seconds since the
        tracer was created), parent id, request id, self seconds and any
        result attributes."""
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span[3] is None:
                    continue
                record = {"id": span[0], "name": span[1],
                          "start": span[2] - self.origin,
                          "end": span[3] - self.origin,
                          "parent": span[4], "request": span[5],
                          "self_s": self_s[span[0]]}
                record.update(span[6] or {})
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path
