"""The ALEWIFE machine simulator (paper Sections 2 and 7, Figure 4).

Ties processors, memory system, and run-time system together and runs
the whole machine with one slice scheduler (:class:`MachineStepper`):
the processor with the smallest local clock executes next, for as long
as its clock stays strictly below every other, so inter-processor
interleavings respect simulated time without a global lock-step sweep.
:meth:`AlewifeMachine.run` drives it to completion with the fast step
(JIT-compiled superblocks through ``step_block``, closure steps
elsewhere) or the reference step (``step()``, which per-instruction
observers need); the monitor drives the same scheduler one step at a
time.

Two memory modes (matching the paper's methodology):

* ``ideal`` — one shared single-cycle memory, no caches or network:
  the configuration of the Table 3 multiprocessor measurements
  ("simulating a shared-memory machine with no memory latency").
* ``coherent`` — per-node caches kept coherent by a directory protocol
  over a k-ary n-cube network; remote misses trap the processor into
  the switch-spin handler (the full ALEWIFE configuration).
"""

import heapq

from repro.core.processor import Processor
from repro.errors import DeadlockError, SimulationError
from repro.isa.encoding import DecodeCache
from repro.machine.config import MachineConfig
from repro.machine.stats import MachineStats
from repro.mem.ideal import IdealMemoryPort
from repro.mem.memory import CodeWatch, Memory
from repro.runtime.rts import RuntimeSystem


class MachineResult:
    """Outcome of one machine run."""

    def __init__(self, machine, result_word):
        self.result_word = result_word
        self.value = machine.runtime.decode_value(result_word)
        self.cycles = machine.time
        self.stats = MachineStats(machine)
        self.output = list(machine.runtime.output)

    def __repr__(self):
        return "MachineResult(value=%r, cycles=%d)" % (self.value, self.cycles)


class AlewifeMachine:
    """An N-node ALEWIFE machine executing one loaded program.

    :meth:`run` and :meth:`stepper` share one schedule, the
    :class:`MachineStepper` slice scheduler; only the step it calls
    varies.

    ``fastpath`` selects the interpreter generation.  ``True`` (the
    default) uses predecoded dispatch plus — unless a per-instruction
    observer is attached (:meth:`_hooks_dormant`) — the fast step,
    which hands whole superblocks to ``step_block``; ``False`` pins
    every processor to the original decode + if-chain interpreter on
    the reference step, which is the oracle side of the differential
    lockstep harness.  It is
    deliberately a constructor argument and *not* a
    :class:`MachineConfig` knob, so experiment cache fingerprints are
    unaffected.

    ``jit`` gates the fast path's hot tier (:mod:`repro.core.jit`):
    hot superblocks compiled to generated Python functions.  ``False``
    (CLI ``--no-jit``) runs the fast path on the closure tier alone,
    one ``step()`` per instruction — the A/B knob for pricing what
    the generated code is worth.  Same
    contract as ``fastpath``: a constructor argument, not a config
    knob, and architecturally invisible (the lockstep harness pins all
    tiers cycle-identical).

    Whatever the tier, every store into a translated pc range
    invalidates the covering cached translations through a shared
    :class:`~repro.mem.memory.CodeWatch`, so self-modifying code stays
    correct on all paths.
    """

    def __init__(self, program, config=None, fastpath=True, jit=True):
        self.config = config or MachineConfig()
        self.program = program
        self.memory = Memory(self.config.memory_words)
        self.memory.load_program(program)
        self.time = 0
        self.fastpath = fastpath
        #: Which step the scheduler took: "fast" or "reference" (set
        #: by :meth:`run`) or "stepper" (set by :meth:`stepper`); tests.
        self.loop_used = None
        #: Observability slots (see :mod:`repro.obs`), wired by an
        #: attached ``Observation``; ``events`` through :meth:`set_bus`.
        self.sampler = None
        self.events = None
        #: Optional :class:`repro.obs.flight.Watchdog`; the scheduler
        #: polls its ``next_check_at`` and converts the run-time
        #: system's deadlock abort into a typed ``HangDetected``.
        self.watchdog = None
        decoder = DecodeCache()

        self.cpus = []
        self._build_memory_system(decoder)
        self.jit = jit
        watch = CodeWatch()
        self.memory.code_watch = watch
        for cpu in self.cpus:
            cpu.jit_enabled = jit
            cpu.attach_code_watch(watch)
        if not fastpath:
            for cpu in self.cpus:
                cpu.use_reference_interpreter()
        self.runtime = RuntimeSystem(
            self.config, self.memory, self.cpus, program)

    def _build_memory_system(self, decoder):
        config = self.config
        if config.memory_mode == "ideal":
            port = IdealMemoryPort(self.memory, latency=config.memory_latency)
            for node in range(config.num_processors):
                cpu = Processor(node_id=node, port=port,
                                num_frames=config.num_task_frames,
                                decoder=decoder)
                cpu.trap_squash_cycles = config.trap_squash_cycles
                self.cpus.append(cpu)
            self.fabric = None
        else:
            # Full cache + directory + network system.
            from repro.mem.system import CoherentMemorySystem
            self.fabric = CoherentMemorySystem(self, decoder)
            self.cpus = self.fabric.cpus

    # -- execution ---------------------------------------------------------

    def _hooks_dormant(self):
        """True when the fast step may run; the one place that decides.

        Two observers watch single instructions and so pin the
        reference step: a per-instruction hook (``cpu.instr_hooks``: the
        tracer, the hot-path profiler) and a ``watch_hook`` (the
        monitor's watchpoints).  Nothing else does.  Event buses and
        transaction tracers see only traps, scheduling, futures,
        network messages and memory transactions, none of which a JIT
        block inlines, and the lifetime accountant reads the cycle
        counters when the run-time system changes a node's owner; the
        lockstep harness pins what each records equal on both steps.
        The sampler and watchdog polls are deadlines in the slice bound
        (see :class:`MachineStepper`), so they run at the same clocks
        on either step.
        """
        for cpu in self.cpus:
            if cpu.instr_hooks or cpu.watch_hook is not None:
                return False
        return True

    def _traced_components(self):
        """Every component carrying both an ``events`` and a ``txn`` slot."""
        components = list(self.cpus)
        fabric = self.fabric
        if fabric is not None:
            components.append(fabric.network)
            components += (fabric.caches + fabric.controllers
                           + fabric.directories)
        return components

    def set_bus(self, bus):
        """Point every emitting component's ``events`` slot at ``bus``.

        ``None`` detaches.  Raises :class:`ValueError` when a different
        bus is already installed: replacing it would silently cut off
        its subscribers, such as a flight recorder's rings.  Attach an
        ``Observation`` before a ``Watchdog``; the watchdog's recorder
        then subscribes to the observation's bus.
        """
        if bus is not None and self.events not in (None, bus):
            raise ValueError(
                "an event bus is already installed; attach the "
                "Observation before the Watchdog or FlightRecorder, "
                "which then subscribes to the Observation's bus")
        self.events = bus
        runtime = self.runtime
        for component in ([runtime, runtime.scheduler, runtime.futures]
                          + self._traced_components()):
            component.events = bus

    def set_txn(self, tracer):
        """Point every ``txn`` slot at ``tracer``; ``None`` detaches."""
        for component in self._traced_components():
            component.txn = tracer

    def run(self, entry="main", args=(), max_cycles=200_000_000):
        """Run ``entry`` on the machine; returns a :class:`MachineResult`.

        Raises :class:`SimulationError` on deadlock or cycle exhaustion
        (a :class:`~repro.errors.HangDetected` when a watchdog is
        attached and names the hang).
        """
        schedule = MachineStepper(self, entry=entry, args=args,
                                  max_cycles=max_cycles)
        fast = self.fastpath and self._hooks_dormant()
        self.loop_used = "fast" if fast else "reference"
        schedule.run_slices(_MIN_BLOCK if fast else _NO_BLOCK)
        return schedule.result()

    def stats(self):
        """Current :class:`MachineStats` snapshot."""
        return MachineStats(self)

    def stepper(self, entry="main", args=(), max_cycles=200_000_000):
        """A resumable :class:`MachineStepper` for this machine.

        Spawns the root thread immediately; the caller then advances
        the run one scheduling iteration at a time (the monitor's
        single-step / run-until substrate).  Use *either* :meth:`run`
        or a stepper on a given machine, never both.
        """
        self.loop_used = "stepper"
        return MachineStepper(self, entry=entry, args=args,
                              max_cycles=max_cycles)


#: Slice bound of a processor with no other live processor queued: it
#: runs until a deadline, a halt, or the end of the program.
_UNBOUNDED = 1 << 62
#: Smallest budget the fast step hands to ``step_block``.  A JIT block
#: costs one cycle per instruction and at least two; a tighter slice
#: admits only the shortest blocks, whose generated-function call buys
#: little over the step() calls it replaces, so it takes one step().
_MIN_BLOCK = 4
#: ``min_block`` of the reference step: never call ``step_block``.
_NO_BLOCK = 1 << 63


class StepInfo:
    """What one :meth:`MachineStepper.step_machine` iteration did."""

    __slots__ = ("node", "pc", "executed", "stopped")

    def __init__(self, node, pc, executed, stopped):
        #: Node index of the processor the iteration arbitrated to.
        self.node = node
        #: The active frame's pc before the iteration (None when idle).
        self.pc = pc
        #: True when one instruction (or trap) actually executed.
        self.executed = executed
        #: True when a guard stopped the iteration *before* executing;
        #: the machine state is untouched and the same processor will
        #: be re-arbitrated next call.
        self.stopped = stopped


class MachineStepper:
    """The machine's slice scheduler, resumable across calls.

    One event queue of ``(local clock, sequence, cpu index)`` entries
    orders the processors; the sequence number breaks clock ties.
    :meth:`run_slices` pops the earliest entry and runs that processor
    for a *slice* — while its clock stays strictly below the next
    queue head — then re-pushes it with a fresh sequence number.
    Stepping one instruction per pop would pop the same processor
    again at every point inside the slice (a strict minimum wins, and
    at a tie the entry still queued holds the older sequence number),
    so slicing changes no interleaving.  Halted processors are dropped
    instead of re-pushed.

    The cycle limit and the sampler and watchdog polls run at pops, at
    the machine time the popped clock sets.  Their next due clock is a
    deadline, and a slice's bound is the earlier of the queue head (the
    horizon) and that deadline: the slice ends after the step that
    reaches the bound, and the following pop runs the poll at exactly
    the clock a one-step loop would have.

    :meth:`AlewifeMachine.run` drives one scheduler to completion with
    either step: the fast one hands ``step_block`` the cycles left
    before the bound, the reference one calls ``step()``.  A JIT block
    runs only when its cost, one cycle per instruction, fits that
    budget, so no block steps over the bound, and every clock a block
    passes through is one the reference step would also pass through:
    both steps reach the horizon and each deadline at the same clock.
    The monitor drives one-step slices through :meth:`step_machine`;
    the queue and the idle streak persist across calls, which is what
    makes a run resumable.
    """

    def __init__(self, machine, entry="main", args=(),
                 max_cycles=200_000_000):
        self.machine = machine
        self.runtime = machine.runtime
        self.max_cycles = max_cycles
        self.runtime.spawn_main(entry, args)
        if machine.watchdog is not None:
            machine.watchdog.next_check_at = machine.watchdog.interval
        self._queue = [(cpu.cycles, index, index)
                       for index, cpu in enumerate(machine.cpus)]
        heapq.heapify(self._queue)
        self._seq = len(self._queue)
        self._idle_streak = 0

    @property
    def done(self):
        return self.runtime.done

    @property
    def time(self):
        return self.machine.time

    def result(self):
        """The :class:`MachineResult` once the run is done, else None."""
        if not self.runtime.done:
            return None
        machine = self.machine
        machine.time = max(machine.time,
                           max(cpu.cycles for cpu in machine.cpus))
        if machine.sampler is not None:
            machine.sampler.finish(machine.time)
        return MachineResult(machine, self.runtime.result)

    def step_machine(self, guard=None):
        """Advance the machine by one scheduling iteration.

        Args:
            guard: optional ``guard(cpu) -> bool`` consulted when the
                arbitrated processor is about to execute an
                instruction; returning True stops *before* executing
                (breakpoints) and re-queues the same entry, so stopping
                cannot perturb tie-breaking.  Idle iterations never
                consult it.

        Returns a :class:`StepInfo`, or ``None`` once the run is done.
        Raises :class:`SimulationError` on deadlock, cycle exhaustion,
        or all processors halting.
        """
        return self.run_slices(one_step=True, guard=guard)

    def _deadline(self):
        """The clock at which the next poll or the cycle limit is due."""
        machine = self.machine
        deadline = self.max_cycles + 1
        if machine.sampler is not None:
            deadline = min(deadline, machine.sampler.next_sample_at)
        if machine.watchdog is not None:
            deadline = min(deadline, machine.watchdog.next_check_at)
        return deadline

    def run_slices(self, min_block=_NO_BLOCK, one_step=False, guard=None):
        """Run slices until the program is done.

        ``min_block`` picks the step: a slice budget of at least that
        many cycles goes to ``step_block``, anything less to ``step()``
        (so :data:`_NO_BLOCK` is the reference step).  ``one_step``
        ends after a single one-iteration slice and returns its
        :class:`StepInfo`; ``guard`` is described at
        :meth:`step_machine`.
        """
        machine = self.machine
        runtime = self.runtime
        cpus = machine.cpus
        queue = self._queue
        fabric = machine.fabric
        sampler = machine.sampler
        watchdog = machine.watchdog
        has_work = runtime.has_work
        on_idle = runtime.on_idle
        heappush = heapq.heappush
        heappop = heapq.heappop
        max_cycles = self.max_cycles
        idle_limit = 4 * len(cpus)
        idle_streak = self._idle_streak
        seq = self._seq
        time = machine.time
        deadline = self._deadline()
        try:
            while not runtime.done:
                if not queue:
                    raise SimulationError(
                        "all processors halted without a result")
                entry = heappop(queue)
                index = entry[2]
                cpu = cpus[index]
                if cpu.halted:
                    continue
                if cpu.cycles > time:
                    time = machine.time = cpu.cycles
                if time >= deadline:
                    if sampler is not None and time >= sampler.next_sample_at:
                        sampler.sample(time)
                    if (watchdog is not None
                            and time >= watchdog.next_check_at):
                        watchdog.check(time)
                    if time > max_cycles:
                        heappush(queue, entry)
                        raise SimulationError(
                            "cycle limit %d exceeded (deadlock or "
                            "undersized limit)" % max_cycles)
                    deadline = self._deadline()
                if fabric is not None:
                    # Time-driven-work-free (transactions compute their
                    # completion at issue), so once per slice suffices.
                    fabric.advance_to(time)

                horizon = queue[0][0] if queue else _UNBOUNDED
                if one_step:
                    bound = -1
                    pc = None
                    if has_work(cpu):
                        pc = cpu.frames[cpu.fp].pc
                        if guard is not None and guard(cpu):
                            heappush(queue, entry)
                            return StepInfo(index, pc, executed=False,
                                            stopped=True)
                else:
                    bound = horizon if horizon < deadline else deadline
                while True:
                    before = cpu.cycles
                    if has_work(cpu):
                        budget = bound - before
                        if budget >= min_block:
                            cpu.step_block(budget)
                        else:
                            cpu.step()
                        idle_streak = 0
                    elif on_idle(cpu):
                        idle_streak = 0
                    else:
                        idle_streak += 1
                        if idle_streak > idle_limit:
                            runtime.check_deadlock()
                    now = cpu.cycles
                    # Zero progress re-arbitrates: the re-pushed entry
                    # loses any clock tie, as a one-step loop's would.
                    if (now >= bound or now == before or cpu.halted
                            or runtime.done):
                        break
                if not cpu.halted:
                    heappush(queue, (now, seq, index))
                    seq += 1
                if one_step:
                    return StepInfo(index, pc, executed=pc is not None,
                                    stopped=False)
        except DeadlockError as exc:
            # The idle-streak deadlock abort fires long before the
            # watchdog's periodic window; with a watchdog attached it
            # becomes the same typed post-mortem result.
            if watchdog is None:
                raise
            machine.time = max(machine.time,
                               max(cpu.cycles for cpu in cpus))
            raise watchdog.on_deadlock(machine.time, exc) from exc
        finally:
            self._idle_streak = idle_streak
            self._seq = seq
        return None


def run_program(program, config=None, entry="main", args=(),
                max_cycles=200_000_000, fastpath=True, jit=True):
    """Build a machine, run a program, return the :class:`MachineResult`."""
    machine = AlewifeMachine(program, config, fastpath=fastpath, jit=jit)
    return machine.run(entry=entry, args=args, max_cycles=max_cycles)


def execute_payload(payload):
    """Run one sweep-job payload; the picklable worker entry point.

    Everything in and out is plain picklable/JSON-ready data, so
    :mod:`repro.exp` can ship this call to a ``ProcessPoolExecutor``
    worker and cache the return value verbatim on disk.  The payload is
    what :meth:`repro.exp.job.Job.payload` produces::

        {"source": ..., "mode": ..., "software_checks": ...,
         "optimize": ..., "config": MachineConfig.to_dict(),
         "entry": ..., "args": [...], "max_cycles": ...,
         "capture": "report" | "stats", "expect": optional}

    The worker recompiles from source (compilation is deterministic;
    the parent already hashed the compiled words for the cache key),
    attaches the per-job observation from
    :func:`repro.obs.session.for_job`, and returns the result value,
    cycle count, stats, and — under ``capture="report"`` — the full
    ``machine_report`` plus the coherence-latency histogram summary.

    Raises :class:`~repro.errors.WorkloadCheckError` when ``expect`` is
    given and the run returns a different value.
    """
    from repro.errors import WorkloadCheckError
    from repro.lang.compiler import compile_source
    from repro.obs.report import machine_report
    from repro.obs.session import for_job

    spans = None
    if payload.get("trace_spans"):
        # Serve-injected knob: self-time compile/run/store so the
        # request trace can nest worker sub-spans under its execute
        # span.  runner is already imported — it is the worker entry
        # that called us.
        from repro.exp.runner import WorkerSpans
        spans = WorkerSpans()

    compiled = compile_source(
        payload["source"],
        mode=payload.get("mode", "eager"),
        software_checks=payload.get("software_checks", False),
        optimize=payload.get("optimize", False))
    config = MachineConfig(**payload["config"])
    if config.lazy_futures != compiled.wants_lazy_scheduling:
        config = config.replace(lazy_futures=compiled.wants_lazy_scheduling)

    observation = for_job(config)
    # Absent keys default True so pre-existing payload hashes (and the
    # content-addressed result cache) are unchanged by these knobs —
    # legitimate because every tier is lockstep-identical in cycles
    # and results; the knobs only change host wall time.
    machine = AlewifeMachine(compiled.program, config,
                             fastpath=payload.get("fastpath", True),
                             jit=payload.get("jit", True))
    if observation is not None:
        observation.attach(machine)
    if spans is not None:
        spans.mark("compile")
    result = machine.run(
        entry=compiled.entry_label(payload.get("entry", "main")),
        args=tuple(payload.get("args", ())),
        max_cycles=payload.get("max_cycles", 200_000_000))
    if spans is not None:
        spans.mark("run")

    expect = payload.get("expect")
    if expect is not None and result.value != expect:
        raise WorkloadCheckError(
            "result %r != expected %r" % (result.value, expect),
            config=config, expected=expect, actual=result.value)

    out = {
        "status": "ok",
        "value": result.value,
        "cycles": result.cycles,
        "output": result.output,
        "stats": result.stats.to_dict(),
    }
    if observation is not None and observation.lifetime is not None:
        out["critpath"] = observation.critpath_summary()
    if payload.get("capture", "report") == "report":
        out["report"] = machine_report(machine, result=result,
                                       observation=observation)
        if observation is not None and observation.hist is not None:
            out["histograms"] = {
                kind: {"count": h.count, "p50": h.percentile(50),
                       "p90": h.percentile(90), "p99": h.percentile(99)}
                for kind, h in
                sorted(observation.hist.by_kind.items())
            }
    if spans is not None:
        spans.mark("store")         # report/stats assembly
        out["spans"] = spans.spans
    return out
