"""The APRIL processor (paper Sections 3-5).

A pipelined RISC interpreter with the multiprocessing extensions:

* four hardware task frames selected by a frame pointer (FP), plus
  eight global registers;
* coarse-grain multithreading: execution proceeds full-speed within one
  thread until the cache controller or the full/empty logic traps the
  processor, at which point a (cheap) trap handler context-switches;
* hardware future detection: strict compute instructions and memory
  address operands trap when a value has its LSB set;
* a PC chain (PC + nPC) giving a single-cycle branch delay slot;
* the trap mechanism of Section 5: five cycles to squash the pipeline,
  then the handler runs in the trapping thread's task frame.

Cycle accounting: every instruction costs one cycle (plus memory stall
cycles reported by the controller, plus trap/handler overheads).  The
processor keeps per-category cycle counters so the harness can decompose
utilization exactly like Figure 5 of the paper (useful work / switch
overhead / memory stalls / idle).
"""

from collections import deque

from repro.core import alu
from repro.core.fpu import FPU
from repro.core.jit import CodeCache, compile_block
from repro.core.psr import ET_BIT
from repro.core.task_frame import TaskFrame
from repro.core.traps import (
    TRAP_SQUASH_CYCLES,
    Trap,
    TrapAction,
    TrapKind,
    TrapSignal,
    TrapTable,
)
from repro.errors import ProcessorError
from repro.isa import registers
from repro.isa.encoding import DecodeCache
from repro.isa.instructions import (
    LOAD_FLAVORS,
    STORE_FLAVORS,
    Category,
    Opcode,
)
from repro.isa.tags import WORD_MASK
from repro.obs.events import EventKind

#: Cycle-cost categories tracked by :attr:`Processor.stats`.
CATEGORIES = ("useful", "stall", "trap", "switch", "spin", "idle")

#: Superblock visits at one pc before the JIT tier compiles it.
#: Low on purpose: compiled blocks are shared process-wide (see
#: :data:`repro.core.jit.SHARED_BLOCKS`), so compilation is cheap on
#: every machine after the first, and short benchmark runs spend most
#: of their cycles warm only if the ladder promotes quickly.
JIT_THRESHOLD = 4

#: Bound on the per-CPU pc -> ExecEntry predecode cache (LRU).
PREDECODE_CACHE_CAPACITY = 1 << 16

#: Bound on the per-CPU JIT block cache (LRU).
JIT_CACHE_CAPACITY = 2048


class ProcessorStats:
    """Per-processor cycle and event counters.

    ``_total`` mirrors the sum of the six category counters
    incrementally, so :attr:`total_cycles` is an attribute read instead
    of a 6-way ``getattr`` sum; everything that bumps a category (the
    ``_add_*`` table, the fast-path handlers in
    :mod:`repro.core.execops`, the JIT's generated code) bumps ``_total``
    by the same amount.  The invariant is asserted in the test suite.
    """

    __slots__ = (
        "useful", "stall", "trap", "switch", "spin", "idle", "_total",
        "instructions", "context_switches", "traps_taken", "trap_counts",
        "_charge",
    )

    def __init__(self):
        for name in CATEGORIES:
            setattr(self, name, 0)
        self._total = 0
        self.instructions = 0
        self.context_switches = 0
        self.traps_taken = 0
        self.trap_counts = {}
        # Per-category bound-method dispatch: replaces the
        # getattr/setattr pair in the old Processor.charge.
        self._charge = {
            "useful": self._add_useful,
            "stall": self._add_stall,
            "trap": self._add_trap,
            "switch": self._add_switch,
            "spin": self._add_spin,
            "idle": self._add_idle,
        }

    # -- category adders (the precomputed charge table) --------------------

    def _add_useful(self, cycles):
        self.useful += cycles
        self._total += cycles

    def _add_stall(self, cycles):
        self.stall += cycles
        self._total += cycles

    def _add_trap(self, cycles):
        self.trap += cycles
        self._total += cycles

    def _add_switch(self, cycles):
        self.switch += cycles
        self._total += cycles

    def _add_spin(self, cycles):
        self.spin += cycles
        self._total += cycles

    def _add_idle(self, cycles):
        self.idle += cycles
        self._total += cycles

    @property
    def total_cycles(self):
        return self._total

    def utilization(self):
        """Fraction of cycles doing useful work (the paper's U)."""
        total = self._total
        return self.useful / total if total else 0.0

    def count_trap(self, kind):
        self.traps_taken += 1
        self.trap_counts[kind] = self.trap_counts.get(kind, 0) + 1

    def snapshot(self):
        """Dict snapshot for reporting."""
        data = {name: getattr(self, name) for name in CATEGORIES}
        data.update(
            instructions=self.instructions,
            context_switches=self.context_switches,
            traps_taken=self.traps_taken,
            total_cycles=self.total_cycles,
        )
        return data


class Processor:
    """One APRIL processor.

    Args:
        node_id: index of the ALEWIFE node this processor belongs to.
        port: a :class:`repro.core.memport.MemoryPort`.
        num_frames: hardware task frames (4 in the SPARC implementation).
        decoder: optionally shared :class:`DecodeCache`.
    """

    def __init__(self, node_id=0, port=None, num_frames=registers.NUM_TASK_FRAMES,
                 decoder=None):
        self.node_id = node_id
        self.port = port
        self.frames = [TaskFrame(i) for i in range(num_frames)]
        self.globals = [0] * registers.NUM_GLOBAL_REGISTERS
        self.fp = 0
        self.fpu = FPU()
        self.trap_table = TrapTable()
        self.decoder = decoder if decoder is not None else DecodeCache()
        self.cycles = 0
        self.stats = ProcessorStats()
        self.halted = False
        self.ipi_queue = deque()
        #: pc -> :class:`ExecEntry` translation cache, bounded LRU;
        #: lets :meth:`step` skip the fetch + word-keyed predecode pair
        #: on every revisited pc.  ``_entry_map`` aliases its backing
        #: OrderedDict for the hot path.
        self._entries = CodeCache(PREDECODE_CACHE_CAPACITY)
        self._entry_map = self._entries.data
        #: The JIT tier (see :mod:`repro.core.jit`): pc ->
        #: :class:`JitBlock` (or ``False`` for "not compilable here"),
        #: bounded LRU; ``_jit_map`` aliases its backing OrderedDict.
        self._jit = CodeCache(JIT_CACHE_CAPACITY)
        self._jit_map = self._jit.data
        #: pc -> visit count; promotion to the JIT tier at
        #: :data:`JIT_THRESHOLD` (bounded by the code footprint).
        self._heat = {}
        #: Master switch for the JIT tier (the ``april bench --no-jit``
        #: A/B knob; the machine sets it from its ``jit`` argument).
        self.jit_enabled = True
        self.jit_threshold = JIT_THRESHOLD
        #: Optional :class:`~repro.mem.memory.CodeWatch` this CPU
        #: registers its translated pc ranges with (self-modifying-code
        #: invalidation); see :meth:`attach_code_watch`.
        self._code_watch = None
        #: JIT tier diagnostics (diagnostics/tests only; deliberately
        #: not part of ``stats.snapshot()``).
        self.jit_compiles = 0
        self.jit_runs = 0
        self.jit_deopts = 0
        #: Pipeline-squash cost per trap (4 on custom APRIL silicon).
        self.trap_squash_cycles = TRAP_SQUASH_CYCLES
        #: Per-instruction callbacks ``hook(cpu, pc, instr)``, called
        #: before each instruction executes.  Observers (the tracer,
        #: the hot-path profiler) append and remove their own; a
        #: non-empty list pins the machine to the reference step.
        self.instr_hooks = []
        #: Optional per-trap callback(cpu, frame, trap) at trap entry.
        self.trap_hook = None
        #: Optional data-access callback(cpu, pc, address, is_load,
        #: outcome) fired after every *successful* load/store (both
        #: interpreters).  The monitor's watchpoints attribute memory
        #: and full/empty-bit transitions to the storing pc through it.
        self.watch_hook = None
        #: Optional :class:`repro.obs.events.EventBus` (None = no-op hooks).
        self.events = None
        #: Optional transaction tracer (see :mod:`repro.obs.txn`).
        self.txn = None
        #: Opaque slot for the run-time system (scheduler, queues...).
        self.env = None

    # -- register file ----------------------------------------------------

    @property
    def frame(self):
        """The active task frame (designated by FP)."""
        return self.frames[self.fp]

    def read_reg(self, number, frame=None):
        """Read an encoded register (frame-relative or global)."""
        if number == 0:
            return 0
        if number < registers.GLOBAL_BASE:
            return (frame or self.frame).regs[number]
        return self.globals[number - registers.GLOBAL_BASE]

    def write_reg(self, number, value, frame=None):
        """Write an encoded register; writes to r0 are discarded."""
        if number == 0:
            return
        value &= WORD_MASK
        if number < registers.GLOBAL_BASE:
            (frame or self.frame).regs[number] = value
        else:
            self.globals[number - registers.GLOBAL_BASE] = value

    # -- cycle accounting ------------------------------------------------------

    def charge(self, cycles, category="useful"):
        """Advance the local clock, attributing cycles to a category."""
        if cycles < 0:
            raise ProcessorError("negative cycle charge")
        self.cycles += cycles
        self.stats._charge[category](cycles)

    # -- IPI delivery (Section 3.4) -----------------------------------------

    def post_ipi(self, message):
        """Queue a preemptive interprocessor interrupt for this processor."""
        self.ipi_queue.append(message)

    # -- main step loop ------------------------------------------------------

    def step(self):
        """Execute one instruction (or take one trap).

        Returns the number of cycles consumed, and advances
        :attr:`cycles` by the same amount.

        Dispatches through the translation cache
        (:meth:`DecodeCache.predecode`): each fetched word resolves to a
        prebuilt :class:`~repro.core.execops.ExecEntry` whose ``run``
        closure has the operand fields already unpacked, replacing the
        old ``_execute`` if-chain walk.  The if-chain survives as
        :meth:`step_reference` so the lockstep harness can run both
        interpreters differentially.
        """
        if self.halted:
            return 0
        start = self.cycles

        frame = self.frames[self.fp]
        if self.ipi_queue and frame.psr.value & ET_BIT:
            message = self.ipi_queue.popleft()
            self._take_trap(frame, Trap(TrapKind.IPI, pc=frame.pc, value=message))
            return self.cycles - start

        pc = frame.pc
        entries = self._entry_map
        entry = entries.get(pc)
        if entry is None:
            try:
                entry = self.decoder.predecode(self.port.fetch(pc))
            except Exception as exc:
                self._take_trap(
                    frame, Trap(TrapKind.ILLEGAL, pc=pc, cause=str(exc)))
                return self.cycles - start
            # Only successful translations are cached, so a faulting pc
            # re-raises (and re-traps) on every execution, like the
            # reference interpreter.
            self._entries.put(pc, entry)
            watch = self._code_watch
            if watch is not None:
                watch.cover(pc, pc + 4)
        else:
            entries.move_to_end(pc)

        if self.instr_hooks:
            for hook in self.instr_hooks:
                hook(self, pc, entry.instr)
        try:
            next_pc, next_npc = entry.run(self, frame, pc, frame.npc)
        except TrapSignal as signal:
            self._take_trap(frame, signal.trap)
            return self.cycles - start

        # The executing frame's PC chain advances; a handler or INCFP may
        # have redirected FP, which only affects the *next* fetch.
        frame.pc = next_pc
        frame.npc = next_npc
        self.stats.instructions += 1
        return self.cycles - start

    def step_reference(self):
        """The original decode + if-chain interpreter step.

        Semantically identical to :meth:`step`; kept as the oracle side
        of the differential lockstep harness
        (``tests/core/test_lockstep.py``) and selected machine-wide by
        ``AlewifeMachine(..., fastpath=False)``.
        """
        if self.halted:
            return 0
        start = self.cycles

        frame = self.frame
        if self.ipi_queue and frame.psr.traps_enabled:
            message = self.ipi_queue.popleft()
            self._take_trap(frame, Trap(TrapKind.IPI, pc=frame.pc, value=message))
            return self.cycles - start

        pc = frame.pc
        try:
            word = self.port.fetch(pc)
            instr = self.decoder.decode(word)
        except Exception as exc:
            self._take_trap(frame, Trap(TrapKind.ILLEGAL, pc=pc, cause=str(exc)))
            return self.cycles - start

        if self.instr_hooks:
            for hook in self.instr_hooks:
                hook(self, pc, instr)
        npc = frame.npc
        try:
            next_pc, next_npc = self._execute(frame, instr, pc, npc)
        except TrapSignal as signal:
            self._take_trap(frame, signal.trap)
            return self.cycles - start

        frame.pc = next_pc
        frame.npc = next_npc
        self.stats.instructions += 1
        return self.cycles - start

    def use_reference_interpreter(self):
        """Route all step() calls through :meth:`step_reference`.

        Shadows the bound method on the instance so every caller —
        run-time system, machine loop, tests — gets the if-chain path
        without per-step branching.
        """
        self.step = self.step_reference

    # -- superblock executor (fast path only) --------------------------------

    def step_block(self, budget):
        """Execute one JIT-compiled superblock, or fall back to :meth:`step`.

        The tier ladder at a block-start pc: cold pcs run through the
        closure tier (:meth:`step`) while a visit counter warms; at
        :attr:`jit_threshold` the pc is compiled by :mod:`repro.core.jit`
        into one generated Python function that executes the whole
        straight-line run *and* its terminating branch/memory
        instruction with batched accounting.  An uncompilable pc, a
        compiled block that does not fit the slice budget, or
        ``jit_enabled = False`` takes one :meth:`step` instead.

        ``budget`` bounds the block cost in cycles so the caller's
        slice bound — the next processor's clock or the next poll
        deadline — is never overshot (every block instruction costs
        exactly one cycle; a delegated memory terminator may stall past
        the bound, but so would the same instruction under
        :meth:`step`).  Returns cycles consumed, like :meth:`step`.

        Precondition, checked once per run by
        :meth:`~repro.machine.alewife.AlewifeMachine._hooks_dormant`:
        no :attr:`instr_hooks` and no ``watch_hook``, since a block
        calls no per-instruction callback.  Event buses, transaction
        tracers and the lifetime accountant may be attached: nothing a
        block inlines emits an event, opens a transaction or moves FP,
        and a block commits its batched counters before it returns.
        """
        if self.halted:
            return 0
        if not self.jit_enabled:
            return self.step()
        frame = self.frames[self.fp]
        if self.ipi_queue and frame.psr.value & ET_BIT:
            return self.step()
        pc = frame.pc
        if frame.npc != pc + 4:
            # In a branch delay slot (or a redirected PC chain): the
            # block's straight-line npc math would be wrong.
            return self.step()

        jit_map = self._jit_map
        jb = jit_map.get(pc)
        if jb is not None:
            jit_map.move_to_end(pc)
        else:
            heat = self._heat.get(pc, 0) + 1
            if heat < self.jit_threshold:
                self._heat[pc] = heat
                return self.step()
            self._heat.pop(pc, None)
            jb = self._compile_jit(pc)
        if jb and jb.cost <= budget:
            return self._run_jit(jb, frame, budget)
        # Uncompilable pc, or the compiled block overshoots the slice.
        return self.step()

    # -- JIT tier (see repro.core.jit) ----------------------------------------

    def _compile_jit(self, pc):
        """Compile the superblock at ``pc``; caches the result.

        Uncompilable pcs cache ``False`` so the hotness counter is paid
        only once per pc; real blocks register their pc range with the
        code watch so self-modifying stores invalidate them.
        """
        jb = compile_block(self, pc)
        self._jit.put(pc, jb if jb is not None else False)
        if jb is not None:
            self.jit_compiles += 1
            watch = self._code_watch
            if watch is not None:
                watch.cover(jb.start, jb.end)
        return jb

    def _run_jit(self, jb, frame, budget):
        """Execute one compiled block; returns cycles consumed.

        The block may stop early — at a tripped future guard, at the
        slow path of an inlined memory access, or at a taken branch —
        so the cycles consumed are whatever the generated code banked,
        not ``jb.cost``.  Traps raised by a guard or a delegated
        instruction are taken here exactly as :meth:`step` takes them
        (the generated code parked the PC chain at the instruction and
        committed the prefix first).  A zero-cycle return cannot
        happen on current codegen (guards raise, delegates charge);
        the deoptimize-to-:meth:`step` branch below is a safety net
        that keeps any future zero-progress block from livelocking the
        event loop.
        """
        start = self.cycles
        try:
            jb.fn(self, frame)
        except TrapSignal as signal:
            self._take_trap(frame, signal.trap)
            self.jit_runs += 1
            return self.cycles - start
        spent = self.cycles - start
        if spent == 0:
            self.jit_deopts += 1
            return self.step()
        self.jit_runs += 1
        return spent

    def attach_code_watch(self, watch):
        """Register with a :class:`~repro.mem.memory.CodeWatch`.

        The watch notifies :meth:`invalidate_code` on every store into
        a word this CPU has translated, keeping both translation caches
        (predecode entries and JIT blocks) correct under self-modifying
        code.
        """
        self._code_watch = watch
        watch.add_listener(self.invalidate_code)

    def invalidate_code(self, address):
        """Drop every cached translation covering ``address``.

        ``False`` JIT sentinels ("nothing to compile here") are kept:
        they never execute stale instructions, only route the pc to
        :meth:`step`, so correctness cannot depend on dropping them.
        """
        word = address & ~3
        self._entries.discard(word)
        jit = self._jit
        jit_map = jit.data
        if jit_map:
            for key in [k for k, jb in jit_map.items()
                        if jb is not False and jb.start <= word < jb.end]:
                # A block can never invalidate *itself* mid-run (inline
                # stores refuse watched words; delegated stores end the
                # block), so dropping the cache entry is sufficient.
                jit.discard(key)

    def translation_counters(self):
        """JSON-ready per-tier translation-cache counters.

        Surfaced by :func:`repro.obs.report.machine_report` next to the
        per-CPU cycle stats; none of this participates in
        ``stats.snapshot()`` (the lockstep harness pins that
        byte-identical across tiers).
        """
        jit = self._jit.counters()
        jit.update(
            blocks=sum(1 for jb in self._jit.data.values()
                       if jb is not False),
            compiles=self.jit_compiles,
            runs=self.jit_runs,
            deopts=self.jit_deopts,
            enabled=self.jit_enabled,
        )
        return {
            "node": self.node_id,
            "predecode": self._entries.counters(),
            "jit": jit,
        }

    def run(self, max_cycles=None, max_instructions=None):
        """Step until halted or a limit is reached; returns cycles run."""
        start = self.cycles
        executed = 0
        while not self.halted:
            if max_cycles is not None and self.cycles - start >= max_cycles:
                break
            if max_instructions is not None and executed >= max_instructions:
                break
            self.step()
            executed += 1
        return self.cycles - start

    # -- trap mechanism -----------------------------------------------------

    def _take_trap(self, frame, trap):
        """The hardware trap sequence (Section 5): squash, bank state,
        run the handler in the trapping frame, apply its action."""
        self.charge(self.trap_squash_cycles, "trap")
        self.stats.count_trap(trap.kind)
        if self.trap_hook is not None:
            self.trap_hook(self, frame, trap)
        if self.events is not None:
            self.events.emit(
                EventKind.TRAP_ENTER, self.cycles, self.node_id,
                trap=trap.kind.name, pc=trap.pc, frame=frame.index)
        frame.enter_trap()
        handler = self.trap_table.lookup(trap)
        action = handler(self, frame, trap)
        if action is None:
            raise ProcessorError("trap handler returned no action for %r" % trap)
        if self.events is not None:
            self.events.emit(
                EventKind.TRAP_EXIT, self.cycles, self.node_id,
                trap=trap.kind.name, action=action.name, frame=self.fp)
        if self.txn is not None:
            self.txn.trap_action(self.node_id, trap.kind.name, action.name,
                                 self.cycles, self.fp)
        if action is TrapAction.RETRY or action is TrapAction.SWITCHED:
            # PC chain untouched: the trapping instruction re-executes
            # when this frame next runs.
            return
        if action is TrapAction.RESUME:
            frame.pc = frame.trap_saved_npc
            frame.npc = frame.trap_saved_npc + 4
            return
        if action is TrapAction.HALT:
            self.halted = True
            return
        raise ProcessorError("unknown trap action %r" % action)

    # -- execute stage ----------------------------------------------------------

    def _execute(self, frame, instr, pc, npc):
        """Execute one decoded instruction; returns the next PC chain."""
        op = instr.op
        cat = instr.category

        if cat is Category.COMPUTE or cat is Category.LOGIC:
            self._execute_alu(frame, instr, pc)
            self.charge(1)
            return npc, npc + 4

        if cat is Category.LOAD:
            self._execute_load(frame, instr, pc)
            return npc, npc + 4

        if cat is Category.STORE:
            self._execute_store(frame, instr, pc)
            return npc, npc + 4

        if cat is Category.BRANCH:
            self.charge(1)
            if alu.branch_taken(op, frame.psr):
                return npc, pc + 4 * instr.imm
            return npc, npc + 4

        if op is Opcode.CALL:
            self.charge(1)
            self.write_reg(registers.RA, pc + 8, frame)
            return npc, pc + 4 * instr.imm

        if op is Opcode.JMPL:
            self.charge(1)
            target = (self.read_reg(instr.rs1, frame) + instr.imm) & WORD_MASK
            self.write_reg(instr.rd, pc + 8, frame)
            return npc, target

        if cat is Category.FRAME:
            return self._execute_frame_op(frame, instr, npc)

        if cat is Category.SYSTEM:
            return self._execute_system(frame, instr, pc, npc)

        if cat is Category.OOB:
            self._execute_oob(frame, instr)
            return npc, npc + 4

        raise ProcessorError("unimplemented instruction %r" % instr)

    def _alu_operand_b(self, frame, instr):
        if instr.use_imm:
            return instr.imm & WORD_MASK
        return self.read_reg(instr.rs2, frame)

    def _execute_alu(self, frame, instr, pc):
        op = instr.op
        if op is Opcode.LUI:
            self.write_reg(instr.rd, (instr.imm << 14) & WORD_MASK, frame)
            return
        if op is Opcode.ORIL:
            value = self.read_reg(instr.rd, frame) | instr.imm
            self.write_reg(instr.rd, value, frame)
            return
        a = self.read_reg(instr.rs1, frame)
        b = self._alu_operand_b(frame, instr)
        result, (n, z, v, c) = alu.execute(op, a, b, instr=instr, pc=pc)
        frame.psr.set_ccs(n, z, v, c)
        if op is not Opcode.CMP:
            self.write_reg(instr.rd, result, frame)

    def _data_address(self, frame, instr, pc, raw):
        """Compute and validate a data address; trap on future pointers."""
        base = self.read_reg(instr.rs1, frame)
        if not raw and (base & 1):
            raise TrapSignal(Trap(
                TrapKind.FUTURE_ADDRESS, instr=instr, pc=pc, value=base,
            ))
        address = (base + instr.imm) & WORD_MASK
        if address & 3:
            raise TrapSignal(Trap(
                TrapKind.ALIGNMENT, instr=instr, pc=pc, address=address,
            ))
        return address

    def _execute_load(self, frame, instr, pc):
        flavor = LOAD_FLAVORS[instr.op]
        address = self._data_address(frame, instr, pc, flavor.raw)
        outcome = self.port.load(address, flavor, context=self)
        self._finish_access(frame, instr, pc, address, outcome, is_load=True)

    def _execute_store(self, frame, instr, pc):
        flavor = STORE_FLAVORS[instr.op]
        address = self._data_address(frame, instr, pc, flavor.raw)
        value = self.read_reg(instr.rd, frame)
        outcome = self.port.store(address, value, flavor, context=self)
        self._finish_access(frame, instr, pc, address, outcome, is_load=False)

    def _finish_access(self, frame, instr, pc, address, outcome, is_load):
        if not outcome.ok:
            # The controller charged us for the attempt before trapping.
            self.charge(max(outcome.cycles - 1, 0), "stall")
            self.charge(1)
            raise TrapSignal(Trap(
                outcome.trap_kind, instr=instr, pc=pc, address=address,
                cause=outcome.detail,
            ))
        self.charge(1)
        if outcome.cycles > 1:
            self.charge(outcome.cycles - 1, "stall")
        frame.psr.fe = outcome.fe_full
        if is_load:
            self.write_reg(instr.rd, outcome.value, frame)
        if self.watch_hook is not None:
            self.watch_hook(self, pc, address, is_load, outcome)

    def _execute_frame_op(self, frame, instr, npc):
        op = instr.op
        self.charge(1)
        count = len(self.frames)
        if op is Opcode.INCFP:
            self.fp = (self.fp + 1) % count
        elif op is Opcode.DECFP:
            self.fp = (self.fp - 1) % count
        elif op is Opcode.RDFP:
            self.write_reg(instr.rd, self.fp, frame)
        elif op is Opcode.STFP:
            self.fp = self.read_reg(instr.rs1, frame) % count
        return npc, npc + 4

    def _execute_system(self, frame, instr, pc, npc):
        op = instr.op
        if op is Opcode.NOP:
            self.charge(1)
            return npc, npc + 4
        if op is Opcode.HALT:
            self.charge(1)
            self.halted = True
            return pc, npc  # PC frozen at the halt
        if op is Opcode.TRAP:
            self.charge(1)
            raise TrapSignal(Trap(
                TrapKind.SOFTWARE, vector=instr.imm, instr=instr, pc=pc,
            ))
        if op is Opcode.RDPSR:
            self.charge(1)
            self.write_reg(instr.rd, frame.psr.value, frame)
            return npc, npc + 4
        if op is Opcode.WRPSR:
            self.charge(1)
            frame.psr.value = self.read_reg(instr.rs1, frame)
            return npc, npc + 4
        if op is Opcode.RETT:
            self.charge(1)
            frame.return_from_trap(retry=True)
            return frame.pc, frame.npc
        raise ProcessorError("unimplemented system op %r" % instr)

    def _execute_oob(self, frame, instr):
        op = instr.op
        base = self.read_reg(instr.rs1, frame)
        address = (base + instr.imm) & WORD_MASK
        if op is Opcode.FLUSH:
            outcome = self.port.flush(address, context=self)
            self.charge(outcome.cycles)
        elif op is Opcode.LDIO:
            outcome = self.port.ldio(address, context=self)
            self.charge(outcome.cycles)
            self.write_reg(instr.rd, outcome.value, frame)
        elif op is Opcode.STIO:
            value = self.read_reg(instr.rd, frame)
            outcome = self.port.stio(address, value, context=self)
            self.charge(outcome.cycles)
        else:
            raise ProcessorError("unimplemented OOB op %r" % instr)

    # -- occupancy helpers used by the run-time system ------------------------

    def occupied_frames(self):
        """Frames currently holding loaded threads."""
        return [f for f in self.frames if f.occupied]

    def free_frame(self):
        """A frame with no loaded thread, or ``None``."""
        for f in self.frames:
            if not f.occupied:
                return f
        return None

    def __repr__(self):
        return "Processor(node=%d, fp=%d, cycles=%d, halted=%s)" % (
            self.node_id, self.fp, self.cycles, self.halted,
        )
