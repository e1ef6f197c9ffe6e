"""Superblock JIT: translation-cache entries compiled to Python code.

The hot tier of the fast path.  :mod:`repro.core.execops` predecodes
each word into a bound closure (the cold tier that
:meth:`~repro.core.processor.Processor.step` dispatches); this module
goes one step further and compiles a whole superblock into a *single
generated Python function* via ``compile()`` + ``exec``:

* operand fields, masks, immediates, and memory-flavor semantics are
  baked into the source as integer literals;
* register reads and writes are flattened to Python locals, with one
  read-in of the referenced registers at block entry and one write-back
  of the dirty ones at block exit;
* the per-instruction cycle/useful/instruction accounting collapses
  into batched adds at segment boundaries;
* branch exits assign the next PC chain directly (taken target and
  fall-through both precomputed at compile time).

A superblock is more than a straight-line run.  The former extends
through three kinds of joints that would otherwise terminate a block
after a handful of instructions (RISC code has a branch or memory
access every ~3 words, so plain straight-line blocks average under 3
instructions and the per-call overhead eats the win):

* **memory instructions** over the ideal single-cycle port (the Table
  3 configuration) are *inlined*: the generated code performs the
  full/empty-bit flavor semantics directly on the memory arrays, and
  the access costs one batched cycle like any other instruction.  Any
  access the inline path cannot complete bit-identically — a future
  base address, a misaligned or out-of-bank address, a full/empty
  mismatch (the flavors that trap), or a store into a code-watched
  word — falls to the instruction's
  :class:`~repro.core.execops.ExecEntry` closure with the PC chain
  parked at the instruction, and the block *ends there*: the closure
  redoes the access from scratch (the inline test mutated nothing), so
  trap payloads and stall charging stay exactly the closure tier's.
  On a non-ideal port (the cache / directory machine) every memory
  instruction is such a delegated block terminator.  Because
  delegation always ends the block, a
  compiled block never runs on past a stall or a self-invalidating
  store — the multi-CPU slice interleaving stays reference-identical;
* **branch delay slots** are fused into the exit: the delay
  instruction executes on the block's locals after the branch
  decision, then the taken/untaken chain is installed — without this
  every taken branch costs a full ``step()``;
* **untaken conditional branches** continue the block: the taken path
  writes back, commits, and returns; the fall-through path keeps
  accumulating in locals, so a forward if-then costs one test.

Strict compute ops (``ADD``/``SUB``/``MUL``/``CMP``) are inlined with
their future-detection guard.  A tripped guard writes back the
registers dirtied so far, commits the cycles already earned, parks the
PC chain at the guarded instruction, and raises the *identical*
:class:`TrapSignal` the closure tier's strict op would — same kind,
instr, pc, value, and cause — which the runner
(:meth:`repro.core.processor.Processor._run_jit`) takes exactly as
``step()`` does.  ``DIV``/``REM`` (divide-by-zero on top of
strictness) are never inlined.

A block's final terminator is either *inlined* (``BA``, ``CALL``,
``JMPL`` — pure PC-chain math on the locals) or *delegated*: any other
decodable instruction (frame ops, system ops, ``DIV``/``REM``) runs
through its closure after the prefix commits, ending the block.

Self-modifying code: each compiled block records the byte range
``[start, end)`` it was translated from and a hash of the translated
words; the machine's :class:`~repro.mem.memory.CodeWatch` notifies
every processor on stores into covered words and the overlapping
blocks are discarded (see ``Processor.invalidate_code``).  A block can
never invalidate *itself* mid-run: inline stores to watched words are
exactly the case the inline path refuses, and the delegated store that
performs them ends the block.

Generated functions close over nothing machine-specific — registers,
memory arrays, and the PSR all come off the ``(cpu, frame)`` arguments
— so compiled blocks are shared process-wide through
:data:`SHARED_BLOCKS`, keyed by ``(pc, code words, port spec)``.  A
second machine running the same program (benchmark repetitions, sweep
workers in-process, A/B observation runs) reuses the code objects and
pays no ``compile()`` cost; self-modifying code changes the words and
therefore the key.

Determinism contract: generated code performs *identical architectural
semantics* to the reference ``_execute`` if-chain — same results, same
CC bits, same trap conditions in the same order, same per-category
cycle accounting, same event-loop interleaving — which the
differential lockstep harness (``tests/core/test_lockstep.py``)
enforces per instruction, per tier.
"""

from collections import OrderedDict

from repro.core.psr import C_BIT, FE_BIT, N_BIT, V_BIT, Z_BIT
from repro.core.traps import Trap, TrapKind, TrapSignal
from repro.isa import registers
from repro.isa.instructions import (
    BRANCHES,
    LOAD_FLAVORS,
    STORE_FLAVORS,
    STRICT_COMPUTE,
    Opcode,
)
from repro.isa.tags import WORD_MASK
from repro.mem.ideal import IdealMemoryPort

_GLOBAL_BASE = registers.GLOBAL_BASE
_CC_MASK = N_BIT | Z_BIT | V_BIT | C_BIT
_NOT_CC = ~_CC_MASK
_SIGN = 0x80000000

#: Most instructions one generated function may execute on a single
#: pass (the slice-budget admission cost); also the scan bound.
MAX_JIT_BLOCK = 32

#: Straight-line ops inlined into the generated body (everything here
#: costs exactly one "useful" cycle; strict ops get an inline guard).
#: ``BN`` (branch never) belongs here: it charges one cycle and always
#: falls through, so its delay slot is just the next instruction.
_STRAIGHT = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.CMP,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.ANDN,
    Opcode.SLL, Opcode.SRL, Opcode.SRA,
    Opcode.ADDR, Opcode.SUBR, Opcode.LUI, Opcode.ORIL,
    Opcode.NOP, Opcode.BN,
})

#: Memory ops (inlined over the ideal port, delegated otherwise).
_MEM_LOADS = frozenset(LOAD_FLAVORS)
_MEM_STORES = frozenset(STORE_FLAVORS)
_MEM = _MEM_LOADS | _MEM_STORES

#: Unconditional redirects compiled to inline PC-chain math.
_UNCOND_EXITS = frozenset({Opcode.BA, Opcode.CALL, Opcode.JMPL})

#: Branch condition source expressions over the local ``psr`` word —
#: exact transliterations of ``execops._BRANCH_TESTS``.
_COND = {
    Opcode.BE: "psr & %d" % Z_BIT,
    Opcode.BNE: "not psr & %d" % Z_BIT,
    Opcode.BL: "(psr & %d != 0) != (psr & %d != 0)" % (N_BIT, V_BIT),
    Opcode.BLE: "psr & %d or (psr & %d != 0) != (psr & %d != 0)" % (
        Z_BIT, N_BIT, V_BIT),
    Opcode.BG: "not (psr & %d or (psr & %d != 0) != (psr & %d != 0))" % (
        Z_BIT, N_BIT, V_BIT),
    Opcode.BGE: "(psr & %d != 0) == (psr & %d != 0)" % (N_BIT, V_BIT),
    Opcode.BNEG: "psr & %d" % N_BIT,
    Opcode.BPOS: "not psr & %d" % N_BIT,
    Opcode.BCS: "psr & %d" % C_BIT,
    Opcode.BCC: "not psr & %d" % C_BIT,
    Opcode.BVS: "psr & %d" % V_BIT,
    Opcode.BVC: "not psr & %d" % V_BIT,
    Opcode.JFULL: "psr & %d" % FE_BIT,
    Opcode.JEMPTY: "not psr & %d" % FE_BIT,
}


class CodeCache:
    """A bounded pc-keyed translation cache with true LRU eviction.

    Shared by the predecode entry cache and the JIT block cache (the
    "same LRU policy" both tiers advertise).  ``data`` is the backing
    :class:`OrderedDict`; hot paths may read it directly (``data.get``
    + ``data.move_to_end``) and must route insertions through
    :meth:`put` so the bound and the eviction counter stay exact.  The
    dict object is never replaced, so callers may alias it.
    """

    __slots__ = ("data", "capacity", "evictions", "invalidations")

    def __init__(self, capacity):
        self.data = OrderedDict()
        self.capacity = capacity
        self.evictions = 0
        self.invalidations = 0

    def get(self, key):
        """LRU lookup: returns the value or None, refreshing recency."""
        data = self.data
        value = data.get(key)
        if value is not None:
            data.move_to_end(key)
        return value

    def put(self, key, value):
        """Insert (refreshing recency), evicting the LRU tail if full."""
        data = self.data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def discard(self, key):
        """Drop one key (an invalidation); returns True if present."""
        if key in self.data:
            del self.data[key]
            self.invalidations += 1
            return True
        return False

    def __len__(self):
        return len(self.data)

    def counters(self):
        """JSON-ready size/eviction/invalidation counters."""
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


#: Process-wide cache of compiled blocks, keyed by
#: ``(pc, words tuple, port spec)``.  Nothing machine-specific is baked
#: into a generated function (see the module docstring), so any machine
#: whose code words at ``pc`` match — and whose port admits the same
#: inline-memory specialization — reuses the block and skips
#: ``compile()``, the dominant cost of warming a fresh machine.
SHARED_BLOCKS = CodeCache(1 << 12)


def _port_spec(cpu):
    """Inline-memory specialization key for this CPU's port.

    Only the plain ideal port with unit latency is inlined — its
    successful loads and stores are pure array reads/writes plus
    full/empty-bit flavor logic, all compile-time known.  The spec
    carries the bank geometry because it is baked into the generated
    bounds checks.  ``None`` means "delegate every memory access".
    """
    port = cpu.port
    if type(port) is IdealMemoryPort and port.latency == 1:
        memory = port.memory
        return (memory.base, memory.size_words)
    return None


class JitBlock:
    """One compiled superblock.

    Attributes:
        fn: the generated ``fn(cpu, frame)`` — executes the whole
            block including accounting and the PC-chain exit; raises
            :class:`TrapSignal` from a guard or a delegated closure.
        count: instructions the block executes on a full pass.
        cost: worst-case 1-cycle instructions the block issues (equal
            to ``count``) — the slice-budget admission test.
        start/end: byte range of code words the block was compiled
            from (invalidation granularity).
        key: the :data:`SHARED_BLOCKS` key — ``(start, words, spec)``;
            a recompile after self-modifying code yields a different
            key.
        source: the generated Python source (debugging / tests).
    """

    __slots__ = ("fn", "count", "cost", "start", "end", "key", "source")

    def __init__(self, fn, count, cost, start, end, key, source):
        self.fn = fn
        self.count = count
        self.cost = cost
        self.start = start
        self.end = end
        self.key = key
        self.source = source

    def __repr__(self):
        return "JitBlock(start=%#x, count=%d, cost=%d)" % (
            self.start, self.count, self.cost)


class _Emitter:
    """Accumulates generated source plus the register-local bookkeeping."""

    def __init__(self):
        self.body = []
        # name -> load statement, in first-reference order.
        self.refs = OrderedDict()
        self.dirty = OrderedDict()   # name -> store_stmt
        self._stores = {}
        self.psr_used = False
        self.psr_dirty = False
        self.needs_regs = False
        self.needs_glob = False
        self.needs_mem = False
        self.delegates = []          # closure default-arg values
        self.instrs = []             # Instruction constants (trap payloads)

    def line(self, indent, text):
        self.body.append("    " * indent + text)

    # -- register locals ---------------------------------------------------

    def use_reg(self, number):
        """Expression for reading register ``number`` (read-in local)."""
        if number == 0:
            return "0"
        if number < _GLOBAL_BASE:
            name = "r%d" % number
            load = "%s = regs[%d]" % (name, number)
            store = "regs[%d] = %s" % (number, name)
            self.needs_regs = True
        else:
            index = number - _GLOBAL_BASE
            name = "g%d" % index
            load = "%s = glob[%d]" % (name, index)
            store = "glob[%d] = %s" % (index, name)
            self.needs_glob = True
        if name not in self.refs:
            self.refs[name] = load
            self._stores[name] = store
        return name

    def def_reg(self, number):
        """Local name for writing register ``number`` (marked dirty)."""
        name = self.use_reg(number)
        if name not in self.dirty:
            self.dirty[name] = self._stores[name]
        return name

    def use_psr(self):
        self.psr_used = True

    def def_psr(self):
        self.psr_used = True
        self.psr_dirty = True

    def add_delegate(self, run):
        """Bind a closure as a default argument; returns its local name."""
        name = "_d%d" % len(self.delegates)
        self.delegates.append(run)
        return name

    def add_instr(self, instr):
        """Bake an Instruction as a namespace constant (trap payloads)."""
        name = "_i%d" % len(self.instrs)
        self.instrs.append(instr)
        return name

    # -- common fragments --------------------------------------------------

    def writeback(self, indent, dirty_names=None, psr_dirty=None):
        """Emit register + PSR write-back for the given dirty snapshot."""
        names = self.dirty if dirty_names is None else dirty_names
        for name in names:
            self.line(indent, self._stores[name])
        if self.psr_dirty if psr_dirty is None else psr_dirty:
            self.line(indent, "_psr.value = psr")

    def commit(self, indent, count):
        """Emit the batched cycle/useful/instruction accounting."""
        self.line(indent, "cpu.cycles += %d" % count)
        self.line(indent, "_st = cpu.stats")
        self.line(indent, "_st.useful += %d" % count)
        self.line(indent, "_st._total += %d" % count)
        self.line(indent, "_st.instructions += %d" % count)


def _emit_guard(emitter, guard_expr, value_expr, instr, pending, pc_k,
                npc_expr=None):
    """Inline future-detection guard: write back, commit, raise.

    ``pending`` is the number of uncommitted instructions already
    executed when the guard trips.  The tripped guard writes back the
    dirt so far, commits the earned cycles, parks the PC chain at the
    guarded instruction (``npc_expr`` overrides the straight ``pc +
    4`` for a delay-slot guard whose next pc is the branch target),
    and raises the *identical* :class:`TrapSignal` the closure tier's
    strict op would — same kind, instr, pc, value, and cause — which
    the runner takes exactly as ``step()`` does.
    """
    emitter.line(1, "if %s:" % guard_expr)
    # Snapshot of dirt *so far* — later instructions' write-backs must
    # not leak into an earlier bail.
    emitter.writeback(2, dirty_names=list(emitter.dirty),
                      psr_dirty=emitter.psr_dirty)
    if pending:
        emitter.commit(2, pending)
    emitter.line(2, "frame.pc = %d" % pc_k)
    emitter.line(2, "frame.npc = %s" % (
        npc_expr if npc_expr is not None else "%d" % (pc_k + 4)))
    name = emitter.add_instr(instr)
    emitter.line(2, "raise _TS(_T(_FC, instr=%s, pc=%d, value=%s,"
                 " cause=%r))" % (name, pc_k, value_expr, instr.op.name))


def _emit_straight(emitter, instr, pending, pc_i, npc_expr=None):
    """Emit one inlined straight-line instruction at ``pc_i``."""
    op = instr.op
    if op is Opcode.NOP or op is Opcode.BN:
        return
    if op is Opcode.LUI:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            emitter.line(1, "%s = %d" % (name, (instr.imm << 14) & WORD_MASK))
        return
    if op is Opcode.ORIL:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            if instr.rd < _GLOBAL_BASE:
                # Mirrors the closure: frame regs hold masked words and
                # the 18-bit immediate cannot push them out of range.
                emitter.line(1, "%s |= %d" % (name, instr.imm))
            else:
                emitter.line(1, "%s = (%s | %d) & %d" % (
                    name, name, instr.imm, WORD_MASK))
        return

    a = emitter.use_reg(instr.rs1)
    if instr.use_imm:
        imm_w = instr.imm & WORD_MASK
        b = "%d" % imm_w
        b_const = imm_w
    else:
        b = emitter.use_reg(instr.rs2)
        b_const = None

    if op in STRICT_COMPUTE:
        if b_const is not None and not b_const & 1:
            guard = "%s & 1" % a
            value = a
        elif b_const is not None and b_const & 1:
            guard = "1"          # odd literal operand: always a future
            value = "%s if %s & 1 else %s" % (a, a, b)
        else:
            guard = "(%s | %s) & 1" % (a, b)
            value = "%s if %s & 1 else %s" % (a, a, b)
        _emit_guard(emitter, guard, value, instr, pending, pc_i, npc_expr)

    line = emitter.line
    if op is Opcode.ADD or op is Opcode.ADDR:
        line(1, "_t = %s + %s" % (a, b))
        line(1, "res = _t & %d" % WORD_MASK)
        line(1, "_cc = %d if res == 0 else (%d if res & %d else 0)" % (
            Z_BIT, N_BIT, _SIGN))
        line(1, "if (%s ^ res) & (%s ^ res) & %d:" % (a, b, _SIGN))
        line(2, "_cc |= %d" % V_BIT)
        line(1, "if _t > %d:" % WORD_MASK)
        line(2, "_cc |= %d" % C_BIT)
    elif op is Opcode.SUB or op is Opcode.SUBR or op is Opcode.CMP:
        line(1, "_t = %s - %s" % (a, b))
        line(1, "res = _t & %d" % WORD_MASK)
        line(1, "_cc = %d if res == 0 else (%d if res & %d else 0)" % (
            Z_BIT, N_BIT, _SIGN))
        line(1, "if (%s ^ %s) & (%s ^ res) & %d:" % (a, b, a, _SIGN))
        line(2, "_cc |= %d" % V_BIT)
        line(1, "if _t < 0:")
        line(2, "_cc |= %d" % C_BIT)
    elif op is Opcode.MUL:
        line(1, "_sa = %s - %d if %s & %d else %s" % (a, 1 << 32, a, _SIGN, a))
        line(1, "_sb = %s - %d if %s & %d else %s" % (b, 1 << 32, b, _SIGN, b))
        line(1, "_t = (_sa >> 2) * _sb")
        line(1, "res = _t & %d" % WORD_MASK)
        line(1, "_cc = %d if res == 0 else (%d if res & %d else 0)" % (
            Z_BIT, N_BIT, _SIGN))
        line(1, "if not %d <= _t < %d:" % (-(1 << 31), 1 << 31))
        line(2, "_cc |= %d" % V_BIT)
    else:
        if op is Opcode.AND:
            expr = "%s & %s" % (a, b)
        elif op is Opcode.OR:
            expr = "%s | %s" % (a, b)
        elif op is Opcode.XOR:
            expr = "(%s ^ %s) & %d" % (a, b, WORD_MASK)
        elif op is Opcode.ANDN:
            expr = "%s & ~%s & %d" % (a, b, WORD_MASK)
        elif op is Opcode.SLL:
            expr = "(%s << (%s & 31)) & %d" % (a, b, WORD_MASK)
        elif op is Opcode.SRL:
            expr = "(%s & %d) >> (%s & 31)" % (a, WORD_MASK, b)
        else:  # SRA
            expr = "((%s - %d if %s & %d else %s) >> (%s & 31)) & %d" % (
                a, 1 << 32, a, _SIGN, a, b, WORD_MASK)
        line(1, "res = %s" % expr)
        line(1, "_cc = %d if res == 0 else (%d if res & %d else 0)" % (
            Z_BIT, N_BIT, _SIGN))
    emitter.def_psr()
    line(1, "psr = psr & %d | _cc" % _NOT_CC)
    if instr.rd and op is not Opcode.CMP:
        name = emitter.def_reg(instr.rd)
        line(1, "%s = res" % name)


def _emit_mem_delegate(emitter, instr, run, pending, pc_i, npc_expr,
                       install, indent=1):
    """Emit a delegated load/store at ``pc_i``, ending the block.

    Writes back and commits the pending segment, parks the PC chain at
    the instruction (so a raised trap banks exactly the state
    ``step()`` would have), calls the closure, installs the next
    chain, bumps the retired counter, and returns.  When ``install``
    the chain comes from the closure's return value (delay-slot use,
    where the next pc is dynamic); otherwise it is the static
    fall-through.  Used both for every memory access on a non-ideal
    port and for the slow path of an inlined access.
    """
    name = emitter.add_delegate(run)
    dirty = list(emitter.dirty) if indent > 1 else None
    psr_dirty = emitter.psr_dirty if indent > 1 else None
    emitter.writeback(indent, dirty_names=dirty, psr_dirty=psr_dirty)
    if pending:
        emitter.commit(indent, pending)
    line = emitter.line
    line(indent, "frame.pc = %d" % pc_i)
    line(indent, "frame.npc = %s" % npc_expr)
    call = "%s(cpu, frame, %d, %s)" % (name, pc_i, npc_expr)
    if install:
        line(indent, "_p, _n = %s" % call)
        line(indent, "frame.pc = _p")
        line(indent, "frame.npc = _n")
    else:
        line(indent, "%s" % call)
        line(indent, "frame.pc = %d" % (pc_i + 4))
        line(indent, "frame.npc = %d" % (pc_i + 8))
    line(indent, "cpu.stats.instructions += 1")
    line(indent, "return")


def _emit_mem_inline(emitter, instr, run, pending, pc_i, npc_expr, spec,
                     install):
    """Emit an inlined ideal-port load/store at ``pc_i``.

    The successful single-cycle access runs on the block's locals and
    memory arrays and joins the pending batch; every other case — the
    flavor's trap condition, a future base, a misaligned or
    out-of-bank address, a store into a code-watched word — takes the
    slow branch, which delegates to the closure and ends the block
    (the inline test mutated nothing, so the closure redoes the access
    from scratch, bit-identically).  No ``watch_hook`` test is needed:
    a watch hook keeps the machine off ``step_block`` altogether
    (:meth:`~repro.machine.alewife.AlewifeMachine._hooks_dormant`).
    """
    emitter.needs_mem = True
    op = instr.op
    is_load = op in _MEM_LOADS
    flavor = LOAD_FLAVORS[op] if is_load else STORE_FLAVORS[op]
    base, size_words = spec
    line = emitter.line

    b = emitter.use_reg(instr.rs1)
    line(1, "_a = (%s + %d) & %d" % (b, instr.imm, WORD_MASK))
    if base:
        line(1, "_x = (_a - %d) >> 2" % base)
    else:
        line(1, "_x = _a >> 2")
    slow = []
    if not flavor.raw:
        slow.append("%s & 1" % b)
    slow.append("_a & 3")
    if base:
        slow.append("_x < 0")
    slow.append("_x >= %d" % size_words)
    if is_load:
        if flavor.trap_on_empty:
            slow.append("not _fe[_x]")
    else:
        slow.append("_x in _ww")
        if flavor.trap_on_full:
            slow.append("_fe[_x]")
    line(1, "if %s:" % " or ".join(slow))
    _emit_mem_delegate(emitter, instr, run, pending, pc_i, npc_expr,
                       install, indent=2)

    # Fast path: the flavor's semantics inline.  The PSR full/empty
    # condition bit reflects the state *before* the access.
    emitter.def_psr()
    line(1, "psr = psr | %d if _fe[_x] else psr & %d" % (FE_BIT, ~FE_BIT))
    if is_load:
        if instr.rd:
            name = emitter.def_reg(instr.rd)
            line(1, "%s = _mw[_x]" % name)
        if flavor.set_empty:
            line(1, "_fe[_x] = 0")
    else:
        value = emitter.use_reg(instr.rd)
        line(1, "_mw[_x] = %s" % value)
        if flavor.set_full:
            line(1, "_fe[_x] = 1")


def _classify_delay(decoder, fetch, address):
    """Decode the delay-slot instruction at ``address`` for fusion.

    Returns ``("s", instr, None, word)`` for an inlineable straight
    op, ``("m", instr, run, word)`` for a load/store, or ``None`` when
    the slot cannot be fused (another branch, a system op, an
    unfetchable word) — the exit then leaves the delay slot to
    ``step()``, exactly as the closure tier does.
    """
    try:
        word = fetch(address)
        instr = decoder.decode(word)
    except Exception:
        return None
    if instr.op in _STRAIGHT:
        return ("s", instr, None, word)
    if instr.op in _MEM:
        try:
            run = decoder.predecode(word).run
        except Exception:
            return None
        return ("m", instr, run, word)
    return None


def _scan_block(cpu, pc, spec):
    """Scan the superblock at ``pc`` into a translation plan.

    Returns ``(plan, words, total, end)`` — the classified
    instructions, the code words covered, the instruction count on a
    full pass, and the first byte past the block — without generating
    any source.  The split from emission exists so a
    :data:`SHARED_BLOCKS` hit (the common case on every machine after
    the first) pays only this cheap classification walk, not the
    string building.  Scanning uses side-effect-free instruction
    fetches (the perfect I-cache), so it never stalls or charges.

    Plan items:
        ``("s", instr, pc)`` — inlined straight-line op;
        ``("mi", instr, run, pc)`` — inlined ideal-port load/store;
        ``("md", instr, run, pc)`` — delegated memory terminator;
        ``("cb", instr, pc)`` — bare conditional exit;
        ``("c", instr, pc, delay)`` — fused conditional (continues);
        ``("u", instr, pc, delay_or_None)`` — BA/CALL/JMPL exit;
        ``("d", instr, run, pc)`` — delegated terminator.
    """
    decoder = cpu.decoder
    fetch = cpu.port.fetch
    predecode = decoder.predecode
    plan = []
    words = []
    scan = pc
    total = 0

    while total < MAX_JIT_BLOCK:
        try:
            word = fetch(scan)
            instr = decoder.decode(word)
        except Exception:
            # Unfetchable/undecodable word ends the block; executing
            # into it falls to step(), which raises the ILLEGAL trap.
            break
        op = instr.op

        if op in _STRAIGHT:
            plan.append(("s", instr, scan))
            words.append(word)
            total += 1
            scan += 4
            continue

        if op in _MEM:
            try:
                run = predecode(word).run
            except Exception:
                break
            words.append(word)
            if spec is not None:
                plan.append(("mi", instr, run, scan))
                total += 1
                scan += 4
                continue
            # Non-ideal port: a delegated terminator.
            plan.append(("md", instr, run, scan))
            total += 1
            scan += 4
            break

        if op in _UNCOND_EXITS or op in _COND:
            delay = _classify_delay(decoder, fetch, scan + 4)
            if delay is not None and delay[0] == "m" and spec is None:
                # A delegated delay slot ends the block anyway; fusing
                # it buys nothing over the bare exit, so keep the exit
                # simple on non-ideal ports.
                delay = None
            if op in _COND:
                if delay is None:
                    plan.append(("cb", instr, scan))
                    words.append(word)
                    total += 1
                    scan += 4
                    break
                plan.append(("c", instr, scan, delay))
                words.append(word)
                words.append(delay[3])
                total += 2
                scan += 8
                continue
            plan.append(("u", instr, scan, delay))
            words.append(word)
            total += 1
            scan += 4
            if delay is not None:
                words.append(delay[3])
                total += 1
                scan += 4
            break

        # Anything else decodable (frame ops, system ops, DIV/REM, IO):
        # a delegated terminator ending the block.
        try:
            run = predecode(word).run
        except Exception:
            break
        plan.append(("d", instr, run, scan))
        words.append(word)
        total += 1
        scan += 4
        break

    return plan, words, total, scan


def compile_block(cpu, pc):
    """Compile the superblock starting at ``pc`` for ``cpu``.

    Returns a :class:`JitBlock`, or ``None`` when the code at ``pc``
    yields fewer than two compilable instructions (nothing worth a
    generated function).  Identical translations are shared
    process-wide through :data:`SHARED_BLOCKS` — source emission and
    ``compile()`` run only on a cache miss.
    """
    spec = _port_spec(cpu)
    plan, words, total, end = _scan_block(cpu, pc, spec)
    if total < 2:
        return None

    key = (pc, tuple(words), spec)
    shared = SHARED_BLOCKS.get(key)
    if shared is not None:
        return shared

    emitter = _Emitter()
    line = emitter.line
    pending = 0        # uncommitted 1-cycle instructions so far
    term_emitted = False

    for item in plan:
        kind = item[0]
        if kind == "s":
            _, instr, pc_i = item
            _emit_straight(emitter, instr, pending, pc_i)
            pending += 1
        elif kind == "mi":
            _, instr, run, pc_i = item
            _emit_mem_inline(emitter, instr, run, pending, pc_i,
                             "%d" % (pc_i + 4), spec, install=False)
            pending += 1
        elif kind == "md":
            _, instr, run, pc_i = item
            _emit_mem_delegate(emitter, instr, run, pending, pc_i,
                               "%d" % (pc_i + 4), install=False)
            term_emitted = True
        elif kind == "cb":
            # Bare conditional exit: branch only, delay slot left to
            # step() (the chain is no longer straight).
            _, instr, pc_i = item
            emitter.use_psr()
            emitter.writeback(1)
            emitter.commit(1, pending + 1)
            line(1, "frame.pc = %d" % (pc_i + 4))
            line(1, "frame.npc = %d if %s else %d" % (
                pc_i + 4 * instr.imm, _COND[instr.op], pc_i + 8))
            line(1, "return")
            term_emitted = True
        elif kind == "c":
            # Fused conditional: decide, run the delay slot, exit on
            # taken, continue the block on fall-through.
            _, instr, pc_i, delay = item
            emitter.use_psr()
            target = pc_i + 4 * instr.imm
            line(1, "_tk = %s" % _COND[instr.op])
            line(1, "_nn = %d if _tk else %d" % (target, pc_i + 8))
            pending += 1
            dkind, dinstr, drun, _dword = delay
            if dkind == "s":
                _emit_straight(emitter, dinstr, pending, pc_i + 4,
                               npc_expr="_nn")
            else:
                _emit_mem_inline(emitter, dinstr, drun, pending,
                                 pc_i + 4, "_nn", spec, install=True)
            pending += 1
            line(1, "if _tk:")
            emitter.writeback(2, dirty_names=list(emitter.dirty),
                              psr_dirty=emitter.psr_dirty)
            emitter.commit(2, pending)
            line(2, "frame.pc = %d" % target)
            line(2, "frame.npc = %d" % (target + 4))
            line(2, "return")
        elif kind == "u":
            # Unconditional redirect: BA/CALL/JMPL, delay slot fused
            # when possible.
            _, instr, pc_i, delay = item
            op = instr.op
            pending += 1
            if op is Opcode.CALL:
                name = emitter.def_reg(registers.RA)
                line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "%d" % (pc_i + 4 * instr.imm)
            elif op is Opcode.JMPL:
                base = emitter.use_reg(instr.rs1)
                line(1, "_nn = (%s + %d) & %d" % (
                    base, instr.imm, WORD_MASK))
                if instr.rd:
                    name = emitter.def_reg(instr.rd)
                    line(1, "%s = %d" % (name, (pc_i + 8) & WORD_MASK))
                target_expr = "_nn"
            else:  # BA
                target_expr = "%d" % (pc_i + 4 * instr.imm)
            if delay is None:
                emitter.writeback(1)
                emitter.commit(1, pending)
                line(1, "frame.pc = %d" % (pc_i + 4))
                line(1, "frame.npc = %s" % target_expr)
                line(1, "return")
            else:
                dkind, dinstr, drun, _dword = delay
                if dkind == "s":
                    _emit_straight(emitter, dinstr, pending, pc_i + 4,
                                   npc_expr=target_expr)
                else:
                    _emit_mem_inline(emitter, dinstr, drun, pending,
                                     pc_i + 4, target_expr, spec,
                                     install=True)
                pending += 1
                emitter.writeback(1)
                emitter.commit(1, pending)
                line(1, "frame.pc = %s" % target_expr)
                if target_expr == "_nn":
                    line(1, "frame.npc = _nn + 4")
                else:
                    line(1, "frame.npc = %d" % (int(target_expr) + 4))
                line(1, "return")
            term_emitted = True
        else:  # "d": delegated terminator
            _, instr, run, pc_i = item
            name = emitter.add_delegate(run)
            emitter.writeback(1)
            if pending:
                emitter.commit(1, pending)
            line(1, "frame.pc = %d" % pc_i)
            line(1, "frame.npc = %d" % (pc_i + 4))
            line(1, "_p, _n = %s(cpu, frame, %d, %d)" % (
                name, pc_i, pc_i + 4))
            line(1, "frame.pc = _p")
            line(1, "frame.npc = _n")
            line(1, "cpu.stats.instructions += 1")
            line(1, "return")
            term_emitted = True

    scan = end
    if not term_emitted:
        # Ran off the scan bound (or into an undecodable word): park
        # the chain at the first untranslated pc.
        emitter.writeback(1)
        if pending:
            emitter.commit(1, pending)
        emitter.line(1, "frame.pc = %d" % scan)
        emitter.line(1, "frame.npc = %d" % (scan + 4))
        emitter.line(1, "return")

    params = ["cpu", "frame"]
    for index in range(len(emitter.delegates)):
        params.append("_d%d=_D%d" % (index, index))
    header = ["def _jit(%s):" % ", ".join(params)]
    prologue = []
    if emitter.needs_regs:
        prologue.append("    regs = frame.regs")
    if emitter.needs_glob:
        prologue.append("    glob = cpu.globals")
    if emitter.psr_used:
        prologue.append("    _psr = frame.psr")
        prologue.append("    psr = _psr.value")
    if emitter.needs_mem:
        prologue.append("    _mem = cpu.port.memory")
        prologue.append("    _mw = _mem._words")
        prologue.append("    _fe = _mem._full")
        prologue.append("    _cw = _mem.code_watch")
        prologue.append("    _ww = _cw.words if _cw is not None else ()")
    prologue.extend("    " + load for load in emitter.refs.values())
    source = "\n".join(header + prologue + emitter.body) + "\n"

    # Trap machinery and Instruction payloads resolve through the
    # generated function's globals — cold path, so dict lookups are
    # fine there (the hot path only touches locals and default args).
    namespace = {
        "_TS": TrapSignal,
        "_T": Trap,
        "_FC": TrapKind.FUTURE_COMPUTE,
    }
    for index, instr_const in enumerate(emitter.instrs):
        namespace["_i%d" % index] = instr_const
    for index, run in enumerate(emitter.delegates):
        namespace["_D%d" % index] = run
    code = compile(source, "<jit:%#x>" % pc, "exec")
    exec(code, namespace)
    fn = namespace["_jit"]

    jb = JitBlock(fn, total, total, pc, scan, key, source)
    SHARED_BLOCKS.put(key, jb)
    return jb
