"""Metric declarations and the order statistics every report uses.

The names and units here are the ones ``BENCHMARK.json`` declares; the
tests check that the two agree, so a metric is renamed in both places
or in neither.
"""

import statistics

#: End-to-end metrics: what a user of the simulator waits for or pays.
#: An *operation* is the workload's unit of user-visible work (see
#: ``README.md``): a design point, a request, a Linpack measurement, an
#: observed Linpack round or a service campaign.
E2E = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics.  ``<layer>.calls``/``<layer>.self_s`` come from
#: the traced pass; the fleet, search, utilization and service numbers
#: from the untraced pass.  A layer a workload never reaches reports 0.
SPAN_LAYERS = (
    "workloads.build_kernel",
    "semantics.program_digest",
    "machine.build",
    "machine.snapshot",
    "machine.restore",
    "memory.restore_delta",
    "machine.reset_cpu",
    "machine.run",
    "workloads.run_kernel",
    "api.execute_request",
    "orchestrate.run_campaign",
    "orchestrate.cache_get",
    "orchestrate.cache_put",
    "journal.record",
    "dse.trajectory_record",
    "dse.agent",
)

PER_LAYER = {}
for _layer in SPAN_LAYERS:
    PER_LAYER[_layer + ".calls"] = "count"
    PER_LAYER[_layer + ".self_s"] = "s"
del _layer
PER_LAYER.update({
    "machine.run.cycles": "count",
    "machine.run.cycles_per_s": "1/s",
    "utilization.events": "count",
    "utilization.ops_per_cycle": "1/cycle",
    "api.check_fail": "count",
    "orchestrate.cache_hit_rate": "ratio",
    "orchestrate.worker_busy_s": "s",
    "orchestrate.worker_utilization": "ratio",
    "orchestrate.task_ms_p50": "ms",
    "orchestrate.retried_tasks": "count",
    "orchestrate.failed_tasks": "count",
    "dse.evaluations": "count",
    "dse.distinct_points": "count",
    "dse.memo_hit_ratio": "ratio",
    "service.submit_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.execute_ms_p50": "ms",
    "service.result_ms_p50": "ms",
    "service.rejected": "count",
    "service.completed": "count",
    "trace.overhead_pct": "%",
})


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """The ``q``-th percentile (an integer 1-99), interpolated between
    the closest ranks; a single sample is its own percentile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
