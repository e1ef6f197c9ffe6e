"""Execution tracing (the tracer boxes of the paper's Figure 4).

Attach a :class:`Tracer` to a machine before ``run()`` to capture a
bounded instruction trace per processor — address, disassembly, active
frame, and the source line when the program carries a source map (the
assembler and the Mul-T compiler both produce one).  Trap entries are
captured too (with the trap kind), so switch-handler and run-time
activity is visible between the retired instructions.  Used for
debugging run-time/compiler interactions and by the examples; cheap
enough to leave compiled in (one list test per instruction when
disabled).
"""

from collections import deque

from repro.isa.disassembler import disassemble_word
from repro.isa.instructions import render


class TraceRecord:
    """One executed instruction, or one trap entry (``trap`` set)."""

    __slots__ = ("cycle", "node", "frame", "pc", "text", "source", "trap")

    def __init__(self, cycle, node, frame, pc, text, source, trap=None):
        self.cycle = cycle
        self.node = node
        self.frame = frame
        self.pc = pc
        self.text = text
        self.source = source
        self.trap = trap

    def __repr__(self):
        return "[%8d] n%d/f%d %#07x  %s" % (
            self.cycle, self.node, self.frame, self.pc, self.text)


class Tracer:
    """A bounded, filterable instruction trace over a whole machine.

    Args:
        machine: the :class:`AlewifeMachine` to instrument.
        capacity: ring size (oldest records are dropped).
        nodes: restrict to these node ids (None = all).
        pc_range: ``(lo, hi)`` byte-address filter (None = all).
        traps: also record trap entries (default True).
    """

    def __init__(self, machine, capacity=10000, nodes=None, pc_range=None,
                 traps=True):
        self.machine = machine
        self.records = deque(maxlen=capacity)
        self.nodes = set(nodes) if nodes is not None else None
        self.pc_range = pc_range
        self.instructions_seen = 0
        self.traps_seen = 0
        self._source_map = machine.program.source_map
        for cpu in machine.cpus:
            cpu.instr_hooks.append(self._hook)
            if traps:
                cpu.trap_hook = self._trap_hook

    def detach(self):
        """Stop tracing."""
        for cpu in self.machine.cpus:
            if self._hook in cpu.instr_hooks:
                cpu.instr_hooks.remove(self._hook)
            if cpu.trap_hook == self._trap_hook:
                cpu.trap_hook = None

    def _passes(self, cpu, pc):
        if self.nodes is not None and cpu.node_id not in self.nodes:
            return False
        if self.pc_range is not None:
            lo, hi = self.pc_range
            if not lo <= pc < hi:
                return False
        return True

    def _hook(self, cpu, pc, instr):
        self.instructions_seen += 1
        if not self._passes(cpu, pc):
            return
        try:
            text = render(instr)
        except ValueError:
            text = disassemble_word(0)
        source = self._source_map.get(pc)
        self.records.append(TraceRecord(
            cpu.cycles, cpu.node_id, cpu.fp, pc, text, source))

    def _trap_hook(self, cpu, frame, trap):
        """Record a trap entry (the handler runs after this point)."""
        self.traps_seen += 1
        pc = trap.pc if trap.pc is not None else frame.pc
        if not self._passes(cpu, pc):
            return
        kind = trap.kind.name
        self.records.append(TraceRecord(
            cpu.cycles, cpu.node_id, frame.index, pc,
            "*** trap %s" % kind, self._source_map.get(pc), trap=kind))

    # -- queries -------------------------------------------------------------

    def __len__(self):
        return len(self.records)

    def last(self, count=20):
        """The most recent ``count`` records."""
        return list(self.records)[-count:]

    def at_label(self, label):
        """Records whose PC is the given program label."""
        address = self.machine.program.address_of(label)
        return [r for r in self.records if r.pc == address]

    def trap_records(self, kind=None):
        """The captured trap entries (optionally one kind only)."""
        records = [r for r in self.records if r.trap is not None]
        if kind is not None:
            records = [r for r in records if r.trap == kind]
        return records

    def per_node_counts(self):
        counts = {}
        for record in self.records:
            counts[record.node] = counts.get(record.node, 0) + 1
        return counts

    def render(self, count=30):
        """A listing of the last ``count`` records with source lines."""
        lines = []
        for record in self.last(count):
            suffix = ""
            if record.source is not None:
                suffix = "    ; line %d: %s" % record.source
            lines.append("%r%s" % (record, suffix))
        return "\n".join(lines)
