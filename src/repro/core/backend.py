"""Pluggable execution backends: the formal machine/timing contract.

The repo grew around one machine -- :class:`repro.cpu.machine.MultiTitan`
-- and the contract between the machine's *state* layer, its execution
core, and every harness that drives it (snapshot/restore, the fuzzer's
lockstep oracle, ``run(stop_cycle=)`` pausing, the event bus) was
implicit.  This module makes that contract formal and *named*:

* :class:`ExecutionBackend` -- the abstract run/snapshot/restore/
  stop-cycle protocol every machine implements.  The ISA semantics layer
  (:mod:`repro.core.semantics`) is fixed; a backend supplies the timing
  and microarchitectural organization underneath it.
* a registry (:func:`register_backend` / :func:`get_backend` /
  :func:`create_machine`) mapping short stable names to machine
  factories, so ``backend="classical"`` can be threaded through
  :class:`repro.api.RunRequest`, the orchestrator's cache keys, and the
  ``python -m repro`` CLI.

Three backends are registered here:

``percycle``
    The MultiTitan simulator with the fast path disabled: the reference
    cycle-by-cycle staged pipeline (:mod:`repro.cpu.pipeline`).
``fastpath``
    The same machine with quiescent-cycle skipping and loop memoization
    enabled (the default; bit-exact with ``percycle``
    -- the fastpath-equivalence fuzz job enforces it).
``classical``
    A cycle-level classical chained-vector machine
    (:mod:`repro.baselines.classical_machine`): split scalar/vector
    register files, vector-register load/store, Cray-style startup and
    chaining latencies.  Architectural results are identical wherever
    the ISA contract defines them; timing is the experiment.

Backends sharing a ``timing_domain`` must agree on *cycle counts* as
well as architectural state (``percycle`` and ``fastpath`` share the
``"multititan"`` domain); backends in different domains agree only on
the architectural contract, and the cross-backend fuzz oracle
(:func:`repro.robustness.fuzz.run_case_backends`) reports their timings
side by side instead of comparing them.
"""

import abc
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_BACKEND",
    "BackendSpec",
    "ExecutionBackend",
    "backend_names",
    "create_machine",
    "get_backend",
    "register_backend",
]

#: The backend a ``backend=None`` request resolves to.  Matches the
#: historical default machine (``MachineConfig.fast_path=True``).
DEFAULT_BACKEND = "fastpath"


class ExecutionBackend(abc.ABC):
    """The contract every execution backend implements.

    A backend owns one program plus one memory image and simulates the
    shared ISA semantics (:mod:`repro.core.semantics`) under its own
    timing model.  Beyond the abstract methods, the contract requires
    these attributes (all read by the harnesses and the API layer):

    ``config``
        The :class:`repro.cpu.machine.MachineConfig` in effect
        (validated -- see :meth:`MachineConfig.validate`).
    ``program`` / ``memory`` / ``decoded``
        The immutable program, the word-addressed memory, and the
        predecoded entry list.
    ``cycle`` / ``pc`` / ``halted`` / ``iregs`` / ``fpu`` / ``stats``
        Simulation time, architectural CPU state, the FP register file
        holder (``fpu.regs`` / ``fpu.regs.psw``), and cumulative
        counters.
    ``events``
        A :class:`repro.core.events.EventBus`.  Backends that model
        per-element traffic publish ``alu``/``element``/``load``/
        ``store``/``commit``/``retire`` events on it; at minimum the
        attribute must exist so observers can subscribe without
        crashing.
    ``fault_plan``
        Harness attachment point for seeded fault injection; backends
        that cannot honour a plan must *raise* when one is set rather
        than silently ignore it.
    """

    #: Stable registry name reported in results and cache keys.
    backend_id = None

    @abc.abstractmethod
    def run(self, max_cycles=None, stop_cycle=None):
        """Run until HALT drains; return a :class:`repro.cpu.RunResult`.

        ``stop_cycle`` pauses cleanly (no error) once ``cycle`` reaches
        it, with all in-flight state intact; a subsequent ``run()`` --
        or a :meth:`restore` of a :meth:`snapshot` into a fresh machine
        -- resumes and completes with identical results and cycle
        counts as an uninterrupted run.  ``max_cycles`` bounds the run
        with a :class:`repro.core.exceptions.LivelockError`.
        """

    @abc.abstractmethod
    def snapshot(self):
        """The complete machine state as plain (JSON-able) data.

        Keyed by a stable program digest; restoring into a machine
        running a different program must fail loudly.
        """

    @abc.abstractmethod
    def restore(self, snapshot):
        """Restore a :meth:`snapshot` bit-exactly, even mid-vector."""

    @abc.abstractmethod
    def reset_cpu(self):
        """Reset CPU/FPU state; caches and memory are untouched."""

    def architectural_state(self):
        """The ISA-contract state every backend must agree on.

        Used by the cross-backend equivalence oracle: FP and integer
        register files, the sparse memory delta, the PSW, and the halt
        flag.  Deliberately excludes timing (``cycle``), caches, and
        microarchitectural residency -- that is where backends are
        allowed to differ.
        """
        return {
            "fregs": list(self.fpu.regs.values),
            "iregs": list(self.iregs),
            "memory": self.memory.delta_snapshot(),
            "psw": self.fpu.regs.psw.state_dict(),
            "halted": self.halted,
        }


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: identity, timing domain, and factory."""

    name: str
    description: str
    #: Backends sharing a domain must agree bit-exactly on cycle counts
    #: (e.g. ``percycle``/``fastpath``); across domains only the
    #: architectural contract is compared.
    timing_domain: str
    #: ``factory(program, memory=None, config=None) -> ExecutionBackend``
    factory: object = field(repr=False)
    #: Whether the backend honours ``fault_plan`` injection.
    supports_faults: bool = True


_REGISTRY = {}


def register_backend(name, description, timing_domain, factory,
                     supports_faults=True):
    """Register a backend factory under a stable short name."""
    if name in _REGISTRY:
        raise ValueError("backend %r is already registered" % (name,))
    spec = BackendSpec(name=name, description=description,
                       timing_domain=timing_domain, factory=factory,
                       supports_faults=supports_faults)
    _REGISTRY[name] = spec
    return spec


def backend_names():
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name=None):
    """The :class:`BackendSpec` for ``name`` (``None`` -> default)."""
    if name is None:
        name = DEFAULT_BACKEND
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown backend %r (registered: %s)"
            % (name, ", ".join(backend_names()))) from None


def create_machine(name, program, memory=None, config=None):
    """Build a fresh machine for ``name``.

    ``None`` builds the default machine with the config untouched --
    equivalent to ``"fastpath"`` for a default config, but an explicit
    ``fast_path=False`` override still wins (the two dispatch
    strategies are bit-exact, so this is an observation-only
    distinction); a *named* backend forces its dispatch strategy.
    """
    if name is None:
        from repro.cpu.machine import MultiTitan

        return MultiTitan(program, memory=memory, config=config)
    spec = get_backend(name)
    return spec.factory(program, memory=memory, config=config)


# ----------------------------------------------------------------------
# Built-in backends.  Factories import lazily: repro.cpu.machine itself
# imports this module (MultiTitan subclasses ExecutionBackend), so the
# imports must not run at module load.
# ----------------------------------------------------------------------

def _multititan_factory(fast_path):
    def factory(program, memory=None, config=None):
        from dataclasses import replace

        from repro.cpu.machine import MachineConfig, MultiTitan

        config = config if config is not None else MachineConfig()
        if config.fast_path != fast_path:
            config = replace(config, fast_path=fast_path)
        return MultiTitan(program, memory=memory, config=config)
    return factory


def _classical_factory(program, memory=None, config=None):
    from repro.baselines.classical_machine import ClassicalVectorBackend

    return ClassicalVectorBackend(program, memory=memory, config=config)


register_backend(
    "percycle",
    "MultiTitan, reference cycle-by-cycle staged pipeline",
    timing_domain="multititan",
    factory=_multititan_factory(fast_path=False),
)
register_backend(
    "fastpath",
    "MultiTitan with quiescent-cycle skipping and loop memoization (default)",
    timing_domain="multititan",
    factory=_multititan_factory(fast_path=True),
)
register_backend(
    "classical",
    "cycle-level classical chained-vector machine (split register files)",
    timing_domain="classical",
    factory=_classical_factory,
    supports_faults=False,
)
