"""The hot-path profiler: where do the cycles actually go?

Appends a callback to every processor's per-instruction
``instr_hooks`` list (tested once per instruction) and charges, to
each PC, the *full* cycle cost of the instruction fetched there — ALU
cycle, memory stalls, and any trap/handler cycles it provoked —
measured as the processor-clock delta to the next fetch on the same
processor.  That attribution convention makes synchronization
costs land on the touching instruction, which is what you want when
hunting the paper's future-touch and switch-spin overheads.

The flat PC profile folds through the program's source map (assembler
line or Mul-T source line) so ``report()`` reads like a profiler, not a
disassembly listing.
"""


class ProfileEntry:
    """Aggregated cost of one PC (or one source line)."""

    __slots__ = ("key", "count", "cycles", "source")

    def __init__(self, key, count, cycles, source):
        self.key = key
        self.count = count
        self.cycles = cycles
        self.source = source

    def to_dict(self):
        record = {"count": self.count, "cycles": self.cycles}
        if isinstance(self.key, int):
            record["pc"] = self.key
        if self.source is not None:
            record["line"] = self.source[0]
            record["text"] = self.source[1]
        return record


class HotPathProfiler:
    """Flat profile of PC -> (execution count, cycle cost)."""

    def __init__(self):
        self._records = {}        # pc -> [count, cycles]
        self._state = {}          # node id -> [last record, cycles then]
        self._hooks = {}          # node id -> installed hook closure
        self._source_map = {}

    @property
    def total_cycles(self):
        """All cycles attributed so far (exactly the sum of the per-PC
        costs — the hook maintains no separate counter)."""
        return sum(record[1] for record in self._records.values())

    def attach(self, machine):
        """Install the per-instruction hook on every processor."""
        self._source_map = machine.program.source_map
        for cpu in machine.cpus:
            state = self._state[cpu.node_id] = [None, 0]
            hook = self._hooks[cpu.node_id] = self._make_hook(state)
            cpu.instr_hooks.append(hook)

    def detach(self, machine):
        for cpu in machine.cpus:
            hook = self._hooks.get(cpu.node_id)
            if hook in cpu.instr_hooks:
                cpu.instr_hooks.remove(hook)

    def _make_hook(self, state):
        """Build one processor's hook closure.

        The per-CPU ``state`` list and the shared records dict are
        captured as closure cells, and ``state`` remembers the *record
        list* of the previous pc (not the pc itself), so the hook —
        which runs once per instruction — pays a single dict lookup
        per call on hot paths.
        """
        records = self._records

        def hook(cpu, pc, instr):
            cycles = cpu.cycles
            last = state[0]
            if last is not None:
                last[1] += cycles - state[1]
            try:
                record = records[pc]
            except KeyError:
                record = records[pc] = [0, 0]
            record[0] += 1
            state[0] = record
            state[1] = cycles

        return hook

    # -- reports -----------------------------------------------------------

    def flat(self):
        """Per-PC entries, hottest first."""
        entries = [
            ProfileEntry(pc, count, cycles, self._source_map.get(pc))
            for pc, (count, cycles) in self._records.items()
        ]
        entries.sort(key=lambda e: (-e.cycles, e.key))
        return entries

    def by_line(self):
        """Entries folded to source lines (unmapped PCs fold together)."""
        folded = {}
        for entry in self.flat():
            key = entry.source if entry.source is not None else ("?", "?")
            if key in folded:
                folded[key].count += entry.count
                folded[key].cycles += entry.cycles
            else:
                source = entry.source
                folded[key] = ProfileEntry(
                    source[0] if source else -1, entry.count, entry.cycles,
                    source)
        entries = list(folded.values())
        entries.sort(key=lambda e: (-e.cycles, e.key))
        return entries

    def report(self, top=20, lines=True):
        """A human-readable profile table."""
        entries = self.by_line() if lines else self.flat()
        total = self.total_cycles or 1
        header = "source line" if lines else "pc"
        out = ["hot paths (%d instructions profiled, %d cycles)"
               % (sum(r[0] for r in self._records.values()),
                  self.total_cycles),
               "  %%cyc       cycles        count  %s" % header]
        for entry in entries[:top]:
            if lines:
                if entry.source is not None:
                    where = "line %4d: %s" % entry.source
                else:
                    where = "(no source map)"
            else:
                where = "%#07x" % entry.key
                if entry.source is not None:
                    where += "  ; line %d: %s" % entry.source
            out.append("%6.2f %12d %12d  %s" % (
                100.0 * entry.cycles / total, entry.cycles,
                entry.count, where))
        return "\n".join(out)

    def to_dict(self, top=None):
        flat = self.flat()
        lines = self.by_line()
        if top is not None:
            flat, lines = flat[:top], lines[:top]
        return {
            "total_cycles": self.total_cycles,
            "instructions": sum(r[0] for r in self._records.values()),
            "flat": [entry.to_dict() for entry in flat],
            "by_line": [entry.to_dict() for entry in lines],
        }
