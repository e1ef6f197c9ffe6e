"""Differential lockstep harness: fast path vs. reference interpreter.

Every scenario runs three times from one compile — the superblock
JIT (``fastpath=True, jit=True``: generated code objects), the closure
tier (``fastpath=True, jit=False``: predecoded dispatch, one closure
per instruction), and the reference (``fastpath=False``: the original
decode + if-chain interpreter, one instruction per step) — and all runs
must agree on everything a program or an observer could see: the
result value, the final machine clock, every per-CPU cycle-category
counter (byte-identical ``snapshot()`` dicts), the architectural
register state, and printed output.

The fallback matrix then checks the dormancy rule from the other side:
attaching any single observer must leave every cycle unchanged, on the
reference step for a per-instruction observer and on the fast step for
the rest; the observed lockstep checks that a full observation records
the same events, sampler windows and transactions on either step.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings

from repro import workloads
from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.machine.trace import Tracer
from repro.obs import HotPathProfiler, Observation
from repro.obs.events import EventBus
from repro.obs.txn import TransactionTracer
from tests.integration.test_differential import future_programs, programs


def _build(compiled, config, fastpath, jit=True):
    if config.lazy_futures != compiled.wants_lazy_scheduling:
        config = config.replace(lazy_futures=compiled.wants_lazy_scheduling)
    return AlewifeMachine(compiled.program, config, fastpath=fastpath,
                          jit=jit)


def _run_pair(source, mode, config, args):
    """One compile, two runs; returns ((machine, result), (machine, result))."""
    compiled = compile_source(source, mode=mode)
    pair = []
    for fastpath in (True, False):
        machine = _build(compiled, config, fastpath)
        result = machine.run(entry=compiled.entry_label("main"), args=args)
        pair.append((machine, result))
    return pair


def _run_triple(source, mode, config, args):
    """One compile, three runs: JIT, closure tier, reference."""
    compiled = compile_source(source, mode=mode)
    runs = []
    for fastpath, jit in ((True, True), (True, False), (False, False)):
        machine = _build(compiled, config, fastpath, jit=jit)
        result = machine.run(entry=compiled.entry_label("main"), args=args)
        runs.append((machine, result))
    return runs


def _assert_triple(jit, closure, reference, expect_jit_runs=True):
    """All three tiers in lockstep; the JIT tier must have fired."""
    _assert_lockstep(jit, reference)
    _assert_lockstep(closure, reference)
    jit_machine = jit[0]
    assert all(not cpu.jit_runs for cpu in closure[0].cpus)
    if expect_jit_runs:
        assert any(cpu.jit_runs > 0 for cpu in jit_machine.cpus)


def _assert_lockstep(fast, reference):
    fast_machine, fast_result = fast
    ref_machine, ref_result = reference
    assert fast_machine.loop_used == "fast"
    assert ref_machine.loop_used == "reference"
    assert fast_result.value == ref_result.value
    assert fast_result.cycles == ref_result.cycles
    assert fast_result.output == ref_result.output
    for fast_cpu, ref_cpu in zip(fast_machine.cpus, ref_machine.cpus):
        assert fast_cpu.cycles == ref_cpu.cycles
        assert fast_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert fast_cpu.stats.total_cycles == fast_cpu.cycles
        assert fast_cpu.globals == ref_cpu.globals
        assert fast_cpu.fp == ref_cpu.fp
        for fast_frame, ref_frame in zip(fast_cpu.frames, ref_cpu.frames):
            assert fast_frame.regs == ref_frame.regs
            assert fast_frame.pc == ref_frame.pc
            assert fast_frame.npc == ref_frame.npc
            # Thread ids come from a process-global counter (two
            # machines in one process never see the same tids), so the
            # PSR comparison masks the tid field out.
            assert (fast_frame.psr.value & ~0xFFFF
                    == ref_frame.psr.value & ~0xFFFF)


class TestBenchmarkLockstep:
    """The Mul-T benchmarks, across every execution configuration."""

    def test_fib_sequential(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "sequential",
                           MachineConfig(num_processors=1), (10,))
        assert runs[0][1].value == module.reference(10)
        _assert_triple(*runs)

    def test_fib_eager_p2(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "eager",
                           MachineConfig(num_processors=2), (10,))
        assert runs[0][1].value == module.reference(10)
        _assert_triple(*runs)

    def test_fib_lazy_p2(self):
        module = workloads.get("fib")
        runs = _run_triple(module.source(), "lazy",
                           MachineConfig(num_processors=2), (9,))
        assert runs[0][1].value == module.reference(9)
        _assert_triple(*runs)

    def test_fib_coherent_p4(self):
        module = workloads.get("fib")
        runs = _run_triple(
            module.source(), "eager",
            MachineConfig(num_processors=4, memory_mode="coherent"), (9,))
        assert runs[0][1].value == module.reference(9)
        _assert_triple(*runs)

    def test_queens_eager_p4(self):
        module = workloads.get("queens")
        runs = _run_triple(module.source(), "eager",
                           MachineConfig(num_processors=4), (4,))
        assert runs[0][1].value == module.reference(4)
        _assert_triple(*runs)

    def test_queens_sequential(self):
        module = workloads.get("queens")
        runs = _run_triple(module.source(), "sequential",
                           MachineConfig(num_processors=1), (4,))
        assert runs[0][1].value == module.reference(4)
        _assert_triple(*runs)

    def test_fast_sequential_actually_fuses(self):
        """The fast run must fire the JIT (compiled superblocks through
        ``step_block``), or this whole file proves nothing about it."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="sequential")
        machine = _build(compiled, MachineConfig(num_processors=1), True)
        machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert machine.loop_used == "fast"
        assert machine.cpus[0].jit_runs > 0


_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomizedLockstep:
    """Hypothesis-generated programs through both interpreters."""

    @_SETTINGS
    @given(programs())
    def test_random_sequential(self, source):
        runs = _run_triple(source, "sequential",
                           MachineConfig(num_processors=1), (3, 4))
        # Random programs may be too short to warm the JIT tier; the
        # lockstep assertions still hold regardless.
        _assert_triple(*runs, expect_jit_runs=False)

    @_SETTINGS
    @given(future_programs())
    def test_random_futures_eager_p2(self, source):
        runs = _run_triple(source, "eager",
                           MachineConfig(num_processors=2), (3, 4))
        _assert_triple(*runs, expect_jit_runs=False)


# -- the fallback matrix -----------------------------------------------------

def _dormant_baseline(compiled, config, args):
    machine = _build(compiled, config, True)
    result = machine.run(entry=compiled.entry_label("main"), args=args)
    assert machine.loop_used == "fast"
    return machine, result


# Each attacher installs one observer on a machine and returns a
# zero-argument witness of what that observer saw.

def _attach_trace(machine):
    tracer = Tracer(machine)
    return lambda: tracer.instructions_seen


def _attach_profile(machine):
    profiler = HotPathProfiler()
    profiler.attach(machine)
    return lambda: profiler.total_cycles


def _attach_watch(machine):
    calls = []

    def hook(cpu, pc, address, is_load, outcome):
        calls.append(pc)

    for cpu in machine.cpus:
        cpu.watch_hook = hook
    return lambda: len(calls)


def _attach_events(machine):
    bus = EventBus(capacity=None)
    for cpu in machine.cpus:
        cpu.events = bus
    return lambda: [(e.cycle, e.node, e.kind) for e in bus]


def _attach_txn(machine):
    tracer = TransactionTracer()
    for cpu in machine.cpus:
        cpu.txn = tracer
    return tracer.to_json


def _attach_machine_events(machine):
    bus = machine.events = EventBus(capacity=None)
    return lambda: len(bus)


#: Observers of single instructions or accesses: each pins the
#: reference step (``AlewifeMachine._hooks_dormant``).
PINNING_ATTACHERS = {
    "trace_hook": _attach_trace,
    "profile_hook": _attach_profile,
    "watch_hook": _attach_watch,
}
#: Observers of traps, scheduling and transactions: each keeps the
#: fast step, with the JIT firing.
FAST_ATTACHERS = {
    "cpu_events": _attach_events,
    "cpu_txn": _attach_txn,
    "machine_events": _attach_machine_events,
}


def _assert_step_for(machine, hook):
    """The step the dormancy rule picks for ``hook``, and its JIT runs."""
    if hook in PINNING_ATTACHERS:
        assert machine.loop_used == "reference"
        assert all(not cpu.jit_runs for cpu in machine.cpus)
    else:
        assert machine.loop_used == "fast"
        assert any(cpu.jit_runs > 0 for cpu in machine.cpus)


class TestFallbackMatrix:
    """Each observer, attached alone, must leave every cycle of the
    dormant fast run unchanged.  Per-instruction observers force the
    reference step; the rest keep the fast step."""

    ATTACHERS = {**PINNING_ATTACHERS, **FAST_ATTACHERS}

    @pytest.mark.parametrize("hook", sorted(ATTACHERS))
    def test_single_hook_forces_reference(self, hook):
        """The step follows the dormancy rule, and the observer sees
        what it sees on ``fastpath=False``."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        witnesses = []
        for fastpath in (True, False):
            machine = _build(compiled, config, fastpath)
            witness = self.ATTACHERS[hook](machine)
            result = machine.run(entry=compiled.entry_label("main"),
                                 args=(9,))
            witnesses.append(witness())
            if fastpath:
                _assert_step_for(machine, hook)
            assert result.value == dormant.value
            assert result.cycles == dormant.cycles
            for cpu, dormant_row in zip(machine.cpus,
                                        dormant.stats.per_cpu):
                assert cpu.stats.snapshot() == dormant_row
        assert witnesses[0] == witnesses[1]

    def test_lifetime_observation_conserves(self):
        """A threads=True observation keeps the fast step (the
        accountant settles the cycle counters instead of hooking each
        charge), leaves every cycle unchanged and balances its ledger."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True)
        obs = Observation(threads=True, window=4096)
        obs.attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "fast"
        assert any(cpu.jit_runs > 0 for cpu in machine.cpus)
        assert result.value == dormant.value
        assert result.cycles == dormant.cycles
        for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
            assert cpu.stats.snapshot() == dormant_row
        assert obs.lifetime.finalize(machine).check()["exact"]

    def test_sampler_forces_reference(self):
        """The sampler keeps the fast step: its deadline bounds the
        slice, so the JIT never steps over a window boundary."""
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True)
        obs = Observation(events=False, window=512)
        obs.attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "fast"
        assert any(cpu.jit_runs > 0 for cpu in machine.cpus)
        assert result.value == dormant.value
        assert result.cycles == dormant.cycles
        for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
            assert cpu.stats.snapshot() == dormant_row


class TestJitFallbackMatrix:
    """The fallback matrix again, with the JIT axis explicit: a hooked
    run (on whichever step the rule picks) and a closure-tier run
    (``jit=False``) must both be cycle-identical to the dormant
    JIT-enabled fast run."""

    @pytest.mark.parametrize("hook", sorted(TestFallbackMatrix.ATTACHERS))
    def test_hooked_run_matches_dormant_jit(self, hook):
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        dormant_machine, dormant = _dormant_baseline(compiled, config, (9,))
        assert any(cpu.jit_runs > 0 for cpu in dormant_machine.cpus)

        machine = _build(compiled, config, True, jit=True)
        TestFallbackMatrix.ATTACHERS[hook](machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        _assert_step_for(machine, hook)
        assert result.value == dormant.value
        assert result.cycles == dormant.cycles
        for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
            assert cpu.stats.snapshot() == dormant_row

    def test_jit_disabled_matches_dormant_jit(self):
        module = workloads.get("fib")
        compiled = compile_source(module.source(), mode="eager")
        config = MachineConfig(num_processors=2)
        _, dormant = _dormant_baseline(compiled, config, (9,))

        machine = _build(compiled, config, True, jit=False)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert machine.loop_used == "fast"
        assert all(not cpu.jit_runs for cpu in machine.cpus)
        assert result.value == dormant.value
        assert result.cycles == dormant.cycles
        for cpu, dormant_row in zip(machine.cpus, dormant.stats.per_cpu):
            assert cpu.stats.snapshot() == dormant_row


# -- observation on the fast step ----------------------------------------------

#: Event payload keys holding raw thread ids.
_TID_KEYS = ("tid", "parent", "waker", "victim_tid")
_THREAD_NAME = re.compile(r"thread-(\d+)")


def _dense_events(bus):
    """The bus's events as dicts, raw tids renumbered densely in
    first-seen order (raw tids come from a process-global counter).
    ``victim`` is a node index and stays as it is."""
    dense = {}

    def renumber(tid):
        return dense.setdefault(tid, len(dense))

    records = []
    for event in bus:
        record = event.to_dict()
        for key in _TID_KEYS:
            if record.get(key) is not None:
                record[key] = renumber(record[key])
        for key, value in record.items():
            if isinstance(value, str):
                record[key] = _THREAD_NAME.sub(
                    lambda m: "thread-%d" % renumber(int(m.group(1))), value)
        records.append(record)
    return records


#: (workload, compile mode, processors, memory mode, args)
OBSERVED_CELLS = [
    ("fib", "sequential", 1, "ideal", (10,)),
    ("queens", "sequential", 1, "ideal", (4,)),
    ("fib", "eager", 2, "ideal", (9,)),
    ("fib", "eager", 4, "ideal", (9,)),
    ("fib", "lazy", 2, "ideal", (9,)),
    ("fib", "lazy", 16, "ideal", (10,)),
    ("fib", "eager", 4, "coherent", (8,)),
    ("fib", "lazy", 16, "coherent", (9,)),
]


def _cell_id(cell):
    name, mode, processors, memory_mode, _ = cell
    return "%s-%s-p%d-%s" % (name, mode, processors, memory_mode)


class TestObservedLockstep:
    """A full observation (events, 256-cycle sampler windows, the
    lifetime accountant and, on coherent memory, transaction traces)
    keeps the fast step, and on it records exactly what it records on
    ``fastpath=False``."""

    @pytest.mark.parametrize("cell", OBSERVED_CELLS, ids=_cell_id)
    def test_observation_matches_reference(self, cell):
        name, mode, processors, memory_mode, args = cell
        module = workloads.get(name)
        compiled = compile_source(module.source(), mode=mode)
        config = MachineConfig(num_processors=processors,
                               memory_mode=memory_mode)
        dormant_machine, _ = _dormant_baseline(compiled, config, args)

        runs = []
        for fastpath in (True, False):
            machine = _build(compiled, config, fastpath)
            obs = Observation(events=True, capacity=None, window=256,
                              txn=memory_mode == "coherent", threads=True)
            obs.attach(machine)
            result = machine.run(entry=compiled.entry_label("main"),
                                 args=args)
            runs.append((machine, result, obs))
        (fast_machine, fast, fast_obs), (ref_machine, ref, ref_obs) = runs

        assert fast.value == module.reference(*args)
        _assert_lockstep((fast_machine, fast), (ref_machine, ref))
        for dormant_cpu, cpu in zip(dormant_machine.cpus, fast_machine.cpus):
            if dormant_cpu.jit_runs:
                assert cpu.jit_runs > 0
        assert _dense_events(fast_obs.bus) == _dense_events(ref_obs.bus)
        assert fast_obs.sampler.windows == ref_obs.sampler.windows
        assert fast_obs.explain() == ref_obs.explain()
        if fast_obs.txn is not None:
            assert fast_obs.txn.finished
            assert fast_obs.txn.to_payload() == ref_obs.txn.to_payload()
