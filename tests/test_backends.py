"""The ExecutionBackend protocol, the backend registry, and the
cycle-level classical chained-vector backend.

Covers the contract every registered backend must honour (snapshot/
restore round-trips, including mid-vector stop-cycle restores), the
classical machine's functional equivalence against the sequential
reference and its timing rules (startup, chaining, the split-register-
file move tax), config validation, backend-aware cache keys and BENCH
schemas, and the cross-backend fuzz oracle.
"""

import dataclasses
import math

import pytest

from repro import api, orchestrate
from repro.baselines.classical_machine import (ClassicalCycleTiming,
                                               ClassicalVectorBackend)
from repro.core import backend as backend_mod
from repro.core.backend import (DEFAULT_BACKEND, ExecutionBackend,
                                backend_names, create_machine, get_backend)
from repro.core.exceptions import SimulationError
from repro.cpu.machine import MachineConfig, MultiTitan
from repro.cpu.program import ProgramBuilder
from repro.mem.memory import Memory
from repro.robustness import smoke
from repro.robustness.differential import bit_exact
from repro.robustness.reference import ReferenceExecutor

ALL_BACKENDS = backend_names()


def _smoke_machine(name):
    return create_machine(name, smoke.build_workload(),
                          memory=smoke.build_memory())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_registered_names_and_default(self):
        assert ALL_BACKENDS == ("percycle", "fastpath", "classical")
        assert DEFAULT_BACKEND == "fastpath"
        assert get_backend().name == "fastpath"

    def test_unknown_backend_names_the_registered_set(self):
        with pytest.raises(ValueError, match="percycle, fastpath, classical"):
            get_backend("cray")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backend_mod.register_backend(
                "percycle", "dup", timing_domain="multititan",
                factory=lambda *a, **k: None)

    def test_timing_domains(self):
        assert get_backend("percycle").timing_domain == "multititan"
        assert get_backend("fastpath").timing_domain == "multititan"
        assert get_backend("classical").timing_domain == "classical"
        assert not get_backend("classical").supports_faults

    def test_named_backends_force_dispatch_strategy(self):
        program = smoke.build_workload()
        fast = create_machine("fastpath", program,
                              config=MachineConfig(fast_path=False))
        slow = create_machine("percycle", program,
                              config=MachineConfig(fast_path=True))
        assert fast.config.fast_path and not slow.config.fast_path
        assert fast.backend_id == "fastpath"
        assert slow.backend_id == "percycle"

    def test_create_machine_none_leaves_config_untouched(self):
        config = MachineConfig(fast_path=False)
        machine = create_machine(None, smoke.build_workload(), config=config)
        assert machine.config is config
        assert machine.backend_id == "percycle"

    def test_every_backend_implements_the_protocol(self):
        for name in ALL_BACKENDS:
            machine = _smoke_machine(name)
            assert isinstance(machine, ExecutionBackend)
            assert machine.backend_id == name
            for attribute in ("config", "program", "memory", "decoded",
                              "cycle", "pc", "halted", "iregs", "fpu",
                              "stats", "events", "fault_plan"):
                assert hasattr(machine, attribute), (name, attribute)


# ---------------------------------------------------------------------------
# Snapshot/restore round-trips (parametrized over the registry)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestSnapshotRestore:
    def test_stop_cycle_snapshot_resumes_identically(self, name):
        golden = _smoke_machine(name)
        final = golden.run()
        baseline = golden.architectural_state()
        # Stop points spread across the run; several land mid-vector
        # (the smoke workload issues VL=16 FALUs and load/store bursts).
        total = final.completion_cycle
        saw_inflight = False
        for stop in sorted({1, total // 8, total // 3, total // 2,
                            2 * total // 3, total - 1}):
            paused = _smoke_machine(name)
            paused.run(stop_cycle=stop)
            assert not paused.halted or paused.cycle <= total
            if name == "classical" and paused._inflight is not None:
                saw_inflight = True
            resumed = _smoke_machine(name)
            resumed.restore(paused.snapshot())
            result = resumed.run()
            assert result.completion_cycle == total, stop
            assert resumed.architectural_state() == baseline, stop
        if name == "classical":
            assert saw_inflight, "no stop point paused mid-vector-stream"

    def test_delta_snapshot_keeps_negative_zero(self, name):
        # -0.0 compares equal to the +0.0 fill but is a different bit
        # pattern; a dropped -0.0 shows up as a cross-backend memory
        # divergence (found by the 250-seed oracle campaign).
        machine = _smoke_machine(name)
        machine.memory.write(0, -0.0)
        machine.memory.write(8, 0)        # int zero: also part of the delta
        delta = machine.memory.delta_snapshot()
        assert 0 in delta["words"]
        assert math.copysign(1.0, delta["words"][0]) < 0.0
        assert delta["words"][1] == 0 and type(delta["words"][1]) is int
        restored = _smoke_machine(name)
        restored.restore(machine.snapshot())
        assert math.copysign(1.0, restored.memory.read(0)) < 0.0

    def test_snapshot_rejects_other_programs(self, name):
        machine = _smoke_machine(name)
        snapshot = machine.snapshot()
        b = ProgramBuilder()
        b.fadd(16, 0, 8, vl=4)
        b.halt()
        other = create_machine(name, b.build(), memory=Memory())
        with pytest.raises(SimulationError):
            other.restore(snapshot)

    def test_architectural_state_matches_reference(self, name):
        machine = _smoke_machine(name)
        machine.run()
        program = smoke.build_workload()
        memory = smoke.build_memory()
        reference = ReferenceExecutor(program.instructions,
                                      memory_words=list(memory.words),
                                      decoded=program.decoded)
        reference.run()
        state = machine.architectural_state()
        assert state["halted"]
        assert all(bit_exact(a, b) for a, b
                   in zip(state["fregs"], reference.fregs))
        assert state["iregs"] == reference.iregs
        words = machine.memory.words
        assert len(words) == len(reference.memory)
        assert all(bit_exact(a, b) for a, b in zip(words, reference.memory))


# ---------------------------------------------------------------------------
# Classical timing rules
# ---------------------------------------------------------------------------

def _classical_cycles(build, timing=None):
    b = ProgramBuilder()
    build(b)
    b.halt()
    machine = ClassicalVectorBackend(b.build(), memory=Memory(),
                                     timing=timing)
    return machine.run().completion_cycle


class TestClassicalTiming:
    def test_vector_op_costs_startup_plus_length(self):
        vl4 = _classical_cycles(lambda b: b.fadd(16, 0, 8, vl=4))
        vl8 = _classical_cycles(lambda b: b.fadd(16, 0, 8, vl=8))
        assert vl8 - vl4 == 4  # one cycle per extra element
        empty = _classical_cycles(lambda b: None)
        timing = ClassicalCycleTiming()
        # one dispatch cycle + startup dead cycles + one cycle per element
        assert vl4 - empty == 1 + timing.vector_startup + 4

    def test_chaining_discounts_the_startup(self):
        def chained(b):
            b.fadd(16, 0, 8, vl=8)
            b.fmul(24, 16, 8, vl=8)      # sources the previous dest

        def independent(b):
            b.fadd(16, 0, 8, vl=8)
            b.fmul(32, 40, 44, vl=8)     # no overlap: full startup

        timing = ClassicalCycleTiming()
        saved = timing.vector_startup - timing.chain_delay
        assert (_classical_cycles(independent)
                - _classical_cycles(chained)) == saved
        # With chaining disabled (chain as expensive as a cold start)
        # the two programs cost the same.
        flat = dataclasses.replace(timing,
                                   chain_delay=timing.vector_startup)
        assert (_classical_cycles(independent, timing=flat)
                == _classical_cycles(chained, timing=flat))

    def test_scalar_read_of_vector_register_pays_the_move_tax(self):
        def store_vector_resident(b):
            b.fadd(16, 0, 8, vl=4)
            b.li(1, 0)
            b.fstore(16, 1, 0)           # R16 lives in the vector file

        def store_scalar_resident(b):
            b.fadd(16, 0, 8, vl=4)
            b.li(1, 0)
            b.fstore(0, 1, 0)            # R0 never left the scalar file

        timing = ClassicalCycleTiming()
        assert (_classical_cycles(store_vector_resident)
                - _classical_cycles(store_scalar_resident)
                == timing.move_latency)

    def test_move_tax_charged_once_then_rehomed(self):
        # The nop between the stores keeps them from fusing into a
        # vector store stream; both dispatch as scalar stores.
        def one_store(b):
            b.fadd(16, 0, 8, vl=4)
            b.li(1, 0)
            b.fstore(16, 1, 0)
            b.nop()

        def two_stores(b):
            b.fadd(16, 0, 8, vl=4)
            b.li(1, 0)
            b.fstore(16, 1, 0)
            b.nop()
            b.fstore(16, 1, 8)           # re-homed: no second tax

        timing = ClassicalCycleTiming()
        assert (_classical_cycles(two_stores)
                - _classical_cycles(one_store)
                == timing.scalar_mem_latency)

    def test_vector_load_run_streams_one_element_per_cycle(self):
        def run_of(n):
            def build(b):
                b.li(1, 0)
                for i in range(n):
                    b.fload(i, 1, 8 * i)
            return build

        assert (_classical_cycles(run_of(4))
                - _classical_cycles(run_of(2))) == 2

    def test_timing_report_names_backend_and_parameters(self):
        b = ProgramBuilder()
        b.fadd(16, 0, 8, vl=4)
        b.halt()
        machine = ClassicalVectorBackend(b.build(), memory=Memory())
        machine.run()
        report = machine.timing_report()
        assert report["backend"] == "classical"
        assert report["vector_startup"] == 15
        assert report["cycles"] == machine.cycle
        assert report["vector_ops"] >= 1

    def test_fault_plan_is_rejected_not_ignored(self):
        machine = _smoke_machine("classical")
        machine.fault_plan = object()
        with pytest.raises(SimulationError, match="fault injection"):
            machine.run()


# ---------------------------------------------------------------------------
# MachineConfig.validate
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_valid_config_returns_self(self):
        config = MachineConfig()
        assert config.validate() is config

    @pytest.mark.parametrize("field,value", [
        ("fpu_latency", 0),
        ("cycle_time_ns", 0),
        ("max_cycles", 0),
        ("store_port_cycles", 0),
        ("taken_branch_cycles", 0),
        ("dcache_miss_penalty", -1),
        ("dcache_size", 100),       # not a multiple of the line
        ("dcache_line", 0),
        ("max_vl", 0),
        ("max_vl", 60),             # above the register-file ceiling
    ])
    def test_inconsistent_config_names_the_field(self, field, value):
        with pytest.raises(ValueError, match="MachineConfig.%s" % field):
            MachineConfig(**{field: value}).validate()

    def test_from_overrides_validates(self):
        with pytest.raises(ValueError, match="MachineConfig.fpu_latency"):
            MachineConfig.from_overrides({"fpu_latency": 0})

    def test_machines_reject_programs_above_max_vl(self):
        b = ProgramBuilder()
        b.fadd(16, 0, 8, vl=16)
        b.halt()
        program = b.build()
        config = MachineConfig(max_vl=8)
        with pytest.raises(SimulationError, match="max_vl=8"):
            MultiTitan(program, config=config)
        with pytest.raises(SimulationError, match="max_vl=8"):
            ClassicalVectorBackend(program, config=config)


# ---------------------------------------------------------------------------
# API and orchestration plumbing
# ---------------------------------------------------------------------------

class TestApiPlumbing:
    def test_request_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.RunRequest("livermore", {"loop": 7}, backend="cray")

    def test_resolved_backend_defaults(self):
        request = api.RunRequest("livermore", {"loop": 7})
        assert request.backend is None
        assert request.resolved_backend() == DEFAULT_BACKEND

    def test_request_round_trips_backend(self):
        request = api.RunRequest("livermore", {"loop": 7},
                                 backend="classical")
        clone = api.RunRequest.from_dict(request.to_dict())
        assert clone.backend == "classical"

    def test_cache_key_distinguishes_backends(self):
        keys = {orchestrate.cache_key("w", {}, "fp", backend=name)
                for name in ALL_BACKENDS}
        assert len(keys) == len(ALL_BACKENDS)

    def test_result_backend_defaults_for_legacy_payloads(self):
        result = api.RunResult(workload="w", params={}, config={},
                               metrics={})
        payload = result.to_dict()
        assert payload["backend"] == DEFAULT_BACKEND
        del payload["backend"]
        assert api.RunResult.from_dict(payload).backend == DEFAULT_BACKEND

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_livermore_runs_on_every_backend(self, name):
        request = api.RunRequest("livermore", {"loop": 7, "n": 16},
                                 backend=name)
        result = api.execute_request(request)
        assert result.passed, result.check_error
        assert result.backend == name
        assert result.metrics["cycles"] > 0

    def test_helper_module_workloads_reject_backend_selection(self):
        request = api.RunRequest("reduction", {"strategy": "scalar_tree"},
                                 backend="classical")
        with pytest.raises(ValueError, match="does not support backend"):
            api.execute_request(request)

    def test_multititan_only_workloads_reject_classical(self):
        request = api.RunRequest("latency", {"op": "add"},
                                 backend="classical")
        with pytest.raises(ValueError, match="multititan-domain"):
            api.execute_request(request)

    def test_bench_document_validates_with_backend(self, tmp_path):
        request = api.RunRequest("livermore", {"loop": 7, "n": 16},
                                 backend="classical")
        result = api.execute_request(request)
        path = tmp_path / "BENCH_backends.json"
        orchestrate.write_bench_json(str(path), [result], sweep="test")
        document = orchestrate.validate_bench_json(str(path))
        assert document["results"][0]["backend"] == "classical"

    def test_legacy_v2_documents_still_validate_without_backend(self):
        document = {
            "schema": "repro-bench/2",
            "sweep": "trajectory",
            "count": 1,
            "results": [{
                "schema": "repro-run/2", "workload": "w", "params": {},
                "config": {}, "metrics": {"cycles": 1},
                "check_error": None, "key": "k",
            }],
        }
        assert orchestrate.validate_bench_json(document) is document

    def test_current_documents_require_backend(self):
        document = {
            "schema": orchestrate.BENCH_SCHEMA,
            "sweep": "s",
            "count": 1,
            "results": [{
                "schema": orchestrate.RESULT_SCHEMA, "workload": "w",
                "params": {}, "config": {}, "metrics": {},
                "check_error": None, "key": "k",
            }],
        }
        with pytest.raises(ValueError, match="backend"):
            orchestrate.validate_bench_json(document)

    def test_session_backend_threads_into_requests(self):
        session = api.Session(backend="classical")
        request = session.request("livermore", {"loop": 7})
        assert request.backend == "classical"
        override = session.request("livermore", {"loop": 7},
                                   backend="percycle")
        assert override.backend == "percycle"

    def test_legacy_smoke_shim_forwards_backend(self, monkeypatch):
        import repro.tools.cli as cli

        seen = {}
        monkeypatch.setattr(cli, "main",
                            lambda argv: seen.setdefault("argv", argv) and 0)
        with pytest.warns(DeprecationWarning, match="--backend"):
            smoke.main(argv=["--seeds", "1"], backend="percycle")
        assert seen["argv"] == ["smoke", "--backend", "percycle",
                                "--seeds", "1"]


# ---------------------------------------------------------------------------
# The cross-backend equivalence oracle
# ---------------------------------------------------------------------------

class TestCrossBackendOracle:
    def test_small_campaign_is_clean_and_reports_timings(self):
        from repro.robustness.fuzz import fuzz

        timings = []
        result = fuzz(seeds=25, base_seed=0, backends=ALL_BACKENDS,
                      on_case=lambda case, r: timings.append(r.timings))
        assert result.clean, result.summary()
        assert result.cases == 25
        reported = [t for t in timings if t]
        assert reported, "no case reported per-backend timings"
        for row in reported:
            assert set(row) == set(ALL_BACKENDS)
            assert row["percycle"]["cycles"] == row["fastpath"]["cycles"]
            assert row["classical"]["domain"] == "classical"

    def test_divergence_carries_a_crossbackend_signature(self):
        from repro.robustness.fuzz import run_case_backends
        from repro.robustness.fuzz.generator import generate_case

        case = generate_case(0)
        machine = ClassicalVectorBackend(case.program,
                                         memory=Memory())
        # Sanity: a healthy case passes first.
        healthy = run_case_backends(case.program, case.memory_words)
        assert healthy.verdict == "pass", healthy.signature
        assert machine.backend_id == "classical"
