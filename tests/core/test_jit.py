"""Superblock JIT unit tests: generated code vs. the reference step.

The machine-level lockstep harness (``test_lockstep.py``) proves the
JIT tier end-to-end on whole Mul-T runs; this file pins the mechanism
at the processor level — codegen parity on hand-written assembly,
future-guard trap payloads, the bounded code cache, process-wide block
sharing, and self-modifying-code invalidation.
"""

import pytest

from repro.core.jit import SHARED_BLOCKS, CodeCache, compile_block
from repro.core.traps import TrapAction, TrapKind
from repro.isa.assembler import assemble
from repro.isa.tags import make_fixnum
from repro.mem.memory import CodeWatch

from tests.helpers import build_cpu, run_to_halt


def build_jit_cpu(source, **kwargs):
    """A :func:`build_cpu` whose JIT promotes on the first visit and
    whose memory carries a code watch (as the machine attaches one)."""
    cpu, memory, program = build_cpu(source, **kwargs)
    cpu.jit_threshold = 1
    watch = CodeWatch()
    memory.code_watch = watch
    cpu.attach_code_watch(watch)
    return cpu, memory, program


def run_jit_to_halt(cpu, max_blocks=200000):
    """Drive the processor through ``step_block`` until HALT."""
    blocks = 0
    while not cpu.halted:
        cpu.step_block(1 << 30)
        blocks += 1
        if blocks > max_blocks:
            raise AssertionError("program did not halt in %d blocks" % blocks)
    return cpu


def assert_same_outcome(source, check=None, build_ref=build_cpu,
                        build_jit=build_jit_cpu, prepare=None):
    """Run ``source`` under step() and under the JIT; compare everything.

    ``prepare(cpu, memory)`` (applied to both machines) seeds registers
    or memory; ``check(cpu)`` adds scenario assertions on the JIT run.
    """
    ref_cpu, ref_mem, _ = build_ref(source)
    jit_cpu, jit_mem, _ = build_jit(source)
    if prepare is not None:
        prepare(ref_cpu, ref_mem)
        prepare(jit_cpu, jit_mem)
    run_to_halt(ref_cpu)
    run_jit_to_halt(jit_cpu)
    assert jit_cpu.cycles == ref_cpu.cycles
    assert jit_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
    assert jit_cpu.stats.instructions == ref_cpu.stats.instructions
    assert jit_cpu.globals == ref_cpu.globals
    for jit_frame, ref_frame in zip(jit_cpu.frames, ref_cpu.frames):
        assert jit_frame.regs == ref_frame.regs
        assert jit_frame.psr.value == ref_frame.psr.value
    if check is not None:
        check(jit_cpu)
    return jit_cpu


class TestCodegenParity:
    def test_straight_line_and_loop(self):
        cpu = assert_same_outcome("""
                set 0, r1
                set 1, r2
            loop:
                cmpr r2, 50
                bg done
                addr r1, r2, r1
                addr r2, 1, r2
                ba loop
            done:
                halt
        """, check=lambda cpu: None)
        assert cpu.jit_runs > 0
        assert cpu.jit_compiles > 0
        assert cpu.read_reg(1) == sum(range(1, 51))

    def test_logic_shift_and_wide_constants(self):
        assert_same_outcome("""
            set 0x0FABCDEC, r1
            and r1, 0xFF, r2
            or r2, 0x100, r3
            xor r3, r1, r4
            sll r1, 3, r5
            srl r1, 5, r6
            sra r1, 2, r7
            andn r1, r2, r8
            halt
        """)

    def test_memory_flavors_inline(self):
        # Raw and trapping loads/stores over the ideal port: the inline
        # fast path must be bit-identical, full/empty bits included.
        def prepare(cpu, memory):
            memory.write_word(0x4000, 77)
            memory.set_full(0x4004, False)

        assert_same_outcome("""
                set 0x4000, r1
                set 10, r9
            loop:
                ldnt [r1+0], r2      ; trapping-flavor load (full word)
                addr r2, 1, r2
                stnt r2, [r1+0]      ; trapping-flavor store (leaves full)
                ldr  [r1+0], r3      ; raw load
                str  r3, [r1+8]      ; raw store
                stfnt r3, [r1+4]     ; fill the empty word, set full
                ldent [r1+4], r4     ; empty-setting load
                subr r9, 1, r9
                cmpr r9, 0
                bg loop
                halt
        """, prepare=prepare)

    def test_branch_delay_slots(self):
        assert_same_outcome("""
                set 5, r1
                set 0, r2
            loop:
                cmpr r1, 0
                ble out
                @addr r2, 1, r2      ; conditional-exit delay slot
                subr r1, 1, r1
                ba loop
                @addr r2, 10, r2     ; unconditional-exit delay slot
            out:
                halt
        """)

    def test_call_return_chain(self):
        assert_same_outcome("""
                set 3, r1
                call double
                @nop
                call double
                @nop
                halt
            double:
                addr r1, r1, r1
                jmpl [ra+0], r0
                @nop
        """)


class TestGuardTrapParity:
    FUTURE_WORD = 0x2005     # tagged pointer with the future LSB set

    def _resolver(self, log):
        def resolve(cpu, frame, trap):
            log.append((trap.kind, trap.pc, trap.value, trap.cause,
                        trap.instr.op))
            cpu.write_reg(1, make_fixnum(10), frame)
            return TrapAction.RETRY
        return resolve

    def test_guard_raises_identical_trap(self):
        source = """
            set %d, r1
            addr r0, 0, r2
            add r1, 4, r2
            halt
        """ % self.FUTURE_WORD
        logs = []

        def build_with_log(builder):
            cpu, memory, program = builder(source)
            log = []
            logs.append(log)
            cpu.trap_table.register(
                TrapKind.FUTURE_COMPUTE, self._resolver(log))
            return cpu, memory, program

        assert_same_outcome(
            source,
            build_ref=lambda s: build_with_log(build_cpu),
            build_jit=lambda s: build_with_log(build_jit_cpu))
        ref_log, jit_log = logs
        assert ref_log == jit_log
        assert len(jit_log) == 1
        kind, pc, value, cause, op = jit_log[0]
        assert kind is TrapKind.FUTURE_COMPUTE
        assert value == self.FUTURE_WORD
        assert cause == "ADD"

    def test_guard_mid_block_commits_prefix(self):
        # The guard trips after two straight instructions: their
        # effects and cycles must be banked before the trap is taken.
        source = """
            set %d, r1
            addr r0, 7, r3
            addr r3, 1, r4
            add r1, 4, r2
            halt
        """ % self.FUTURE_WORD
        cpu, _, _ = build_jit_cpu(source)
        cpu.trap_table.register(TrapKind.FUTURE_COMPUTE, self._resolver([]))
        run_jit_to_halt(cpu)
        assert cpu.read_reg(3) == 7
        assert cpu.read_reg(4) == 8


class TestCodeCache:
    def test_lru_eviction_and_counters(self):
        cache = CodeCache(2)
        cache.put(0, "a")
        cache.put(4, "b")
        assert cache.get(0) == "a"         # refreshes 0's recency
        cache.put(8, "c")                  # evicts 4, the LRU tail
        assert cache.evictions == 1
        assert cache.get(4) is None
        assert cache.get(0) == "a"
        assert cache.get(8) == "c"

    def test_discard_counts_invalidations(self):
        cache = CodeCache(4)
        cache.put(0, "a")
        assert cache.discard(0)
        assert not cache.discard(0)
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_counters_shape(self):
        counters = CodeCache(8).counters()
        assert counters == {"size": 0, "capacity": 8, "evictions": 0,
                            "invalidations": 0}


class TestSharedBlocks:
    SOURCE = """
            set 0, r1
            set 1, r2
        loop:
            cmpr r2, 20
            bg done
            addr r1, r2, r1
            addr r2, 1, r2
            ba loop
        done:
            halt
    """

    def test_identical_translations_are_shared(self):
        first, _, program = build_jit_cpu(self.SOURCE)
        second, _, _ = build_jit_cpu(self.SOURCE)
        jb_first = compile_block(first, program.base)
        jb_second = compile_block(second, program.base)
        assert jb_first is not None
        assert jb_first is jb_second        # same object: no recompile
        assert jb_first.key in SHARED_BLOCKS.data

    def test_generated_function_is_machine_independent(self):
        cpu, _, program = build_jit_cpu(self.SOURCE)
        jb = compile_block(cpu, program.base)
        # Nothing machine-specific may be baked into the code object:
        # registers, memory, and the PSR all come off (cpu, frame).
        assert "cpu" in jb.fn.__code__.co_varnames
        assert jb.source.startswith("def _jit(cpu, frame")


class TestSelfModifyingCode:
    def _smc_source(self):
        return """
                set 0, r1
                set 0, r2
            loop:
                addr r1, 1, r1       ; the word patched mid-test
                addr r2, 1, r2
                cmpr r2, 10
                bl loop
                halt
            donor:
                addr r1, 2, r1
        """

    def _patch_and_rerun(self, cpu, memory, program):
        """Patch the loop body with the donor word (through the watched
        write path, as a store instruction would), then re-run from the
        top: the stale translation must not execute."""
        memory.write_word(program.address_of("loop"),
                          memory.read_word(program.address_of("donor")))
        frame = cpu.frame
        frame.pc = program.base
        frame.npc = program.base + 4
        cpu.halted = False
        run_jit_to_halt(cpu)
        assert cpu.read_reg(1) == 20     # 10 iterations of +2

    def test_patch_invalidates_compiled_block(self):
        cpu, memory, program = build_jit_cpu(self._smc_source())
        run_jit_to_halt(cpu)
        assert cpu.read_reg(1) == 10
        assert cpu.jit_runs > 0
        stale_keys = set(SHARED_BLOCKS.data)

        self._patch_and_rerun(cpu, memory, program)
        assert cpu._jit.invalidations > 0
        body = program.address_of("loop")

        # The recompiled block has different words, hence a new
        # shared-cache key; the stale entry can never be looked up
        # again (the key embeds the translated words).
        fresh = [key for key in SHARED_BLOCKS.data
                 if key not in stale_keys and key[0] == body]
        assert fresh

    def test_patch_invalidates_predecode_entry_on_closure_tier(self):
        # With the JIT off, step_block is plain step(): the predecoded
        # closure is the only translation of the patched word, and it
        # alone must be dropped.
        cpu, memory, program = build_jit_cpu(self._smc_source())
        cpu.jit_enabled = False
        run_jit_to_halt(cpu)
        assert cpu.read_reg(1) == 10
        assert cpu.jit_runs == 0

        self._patch_and_rerun(cpu, memory, program)
        assert cpu._entries.invalidations > 0

    def test_store_instruction_invalidates(self):
        # The program patches its *own* loop body with a raw store,
        # then loops again: classic self-modifying code, JIT-compiled.
        source = """
                set 0, r1
                set 0, r2
            phase1:
                addr r1, 1, r1
                addr r2, 1, r2
                cmpr r2, 8
                bl phase1
                set donor, r3
                ldr [r3+0], r4
                set target, r5
                str r4, [r5+0]       ; overwrite the phase2 body word
                set 0, r2
            phase2:
            target:
                addr r1, 1, r1       ; becomes "addr r1, 5, r1"
                addr r2, 1, r2
                cmpr r2, 8
                bl phase2
                halt
            donor:
                addr r1, 5, r1
        """
        ref_cpu, _, _ = build_cpu(source)
        run_to_halt(ref_cpu)
        jit_cpu, _, _ = build_jit_cpu(source)
        run_jit_to_halt(jit_cpu)
        assert jit_cpu.read_reg(1) == ref_cpu.read_reg(1) == 8 + 8 * 5
        assert jit_cpu.cycles == ref_cpu.cycles
        assert jit_cpu.stats.snapshot() == ref_cpu.stats.snapshot()
        assert jit_cpu._jit.invalidations > 0

    def test_deopt_counter_stays_zero(self):
        # Current codegen never returns without progress (guards raise,
        # delegates charge), so the deopt safety net must stay cold.
        cpu, _, _ = build_jit_cpu(self._smc_source())
        run_jit_to_halt(cpu)
        assert cpu.jit_deopts == 0
