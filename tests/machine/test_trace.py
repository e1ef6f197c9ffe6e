"""Tracer tests: capture, filters, and source mapping."""

from repro.lang.compiler import compile_source
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.machine.trace import Tracer


FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""


def run_traced(processors=2, **tracer_kwargs):
    compiled = compile_source(FIB, mode="eager")
    machine = AlewifeMachine(compiled.program,
                             MachineConfig(num_processors=processors))
    tracer = Tracer(machine, **tracer_kwargs)
    result = machine.run(entry=compiled.entry_label(), args=(7,))
    return machine, tracer, result


class TestTracer:
    def test_captures_instructions(self):
        _machine, tracer, result = run_traced()
        assert result.value == 13
        # The hook fires at fetch, including instructions that then
        # trap (which don't retire), so seen >= retired.
        assert tracer.instructions_seen >= result.stats.instructions
        assert len(tracer) > 0

    def test_ring_bounded(self):
        _machine, tracer, _ = run_traced(capacity=50)
        assert len(tracer) == 50

    def test_node_filter(self):
        _machine, tracer, _ = run_traced(processors=2, nodes=[1])
        assert set(tracer.per_node_counts()) <= {1}

    def test_pc_range_filter(self):
        machine, tracer, _ = run_traced(pc_range=(0, 0x40))
        assert all(r.pc < 0x40 for r in tracer.records)

    def test_records_render(self):
        _machine, tracer, _ = run_traced(capacity=100)
        text = tracer.render(5)
        assert "0x" in text

    def test_at_label(self):
        compiled = compile_source(FIB, mode="sequential")
        machine = AlewifeMachine(compiled.program, MachineConfig())
        tracer = Tracer(machine)
        machine.run(entry=compiled.entry_label(), args=(5,))
        hits = tracer.at_label(compiled.entry_label())
        assert len(hits) == 1   # main called once

    def test_detach_stops(self):
        compiled = compile_source(FIB, mode="sequential")
        machine = AlewifeMachine(compiled.program, MachineConfig())
        tracer = Tracer(machine)
        tracer.detach()
        machine.run(entry=compiled.entry_label(), args=(5,))
        assert len(tracer) == 0

    def test_disabled_by_default(self):
        compiled = compile_source(FIB, mode="sequential")
        machine = AlewifeMachine(compiled.program, MachineConfig())
        for cpu in machine.cpus:
            assert cpu.instr_hooks == []
            assert cpu.trap_hook is None


class TestTrapCapture:
    def test_captures_trap_entries_with_kind(self):
        _machine, tracer, result = run_traced()
        assert result.value == 13
        assert tracer.traps_seen > 0
        records = tracer.trap_records()
        assert records
        # Every trap record names its kind; fib's futures guarantee
        # future-touch traps among them.
        assert all(isinstance(r.trap, str) for r in records)
        kinds = {r.trap for r in records}
        assert "FUTURE_COMPUTE" in kinds    # strict ops touching futures
        assert tracer.trap_records("FUTURE_COMPUTE") == [
            r for r in records if r.trap == "FUTURE_COMPUTE"]

    def test_trap_records_render_inline(self):
        _machine, tracer, _ = run_traced()
        text = "\n".join(repr(r) for r in tracer.trap_records()[:3])
        assert "*** trap" in text

    def test_traps_false_disables(self):
        _machine, tracer, _ = run_traced(traps=False)
        assert tracer.traps_seen == 0
        assert tracer.trap_records() == []

    def test_instruction_records_have_no_trap(self):
        _machine, tracer, _ = run_traced()
        plain = [r for r in tracer.records if r.trap is None]
        assert plain
        assert all(not r.text.startswith("*** trap") for r in plain)
