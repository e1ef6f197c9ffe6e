"""The interactive monitor: stepper equivalence, breakpoints,
watchpoints, pokes, and byte-stable scripted transcripts."""

import io

import pytest

from repro.errors import SimulationError
from repro.lang.run import build_mult_machine
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs.monitor import Monitor
from tests.obs.test_flight import DRIVERS, drive

FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""


def make_monitor(source=FIB, processors=1, args=(6,), **kwargs):
    machine, compiled = build_mult_machine(source, processors=processors)
    out = io.StringIO()
    monitor = Monitor(machine, entry=compiled.entry_label("main"),
                      args=args, out=out, **kwargs)
    return monitor, out


class TestStepperEquivalence:
    def test_stepper_matches_batch_run(self):
        """Driving the machine to completion one step at a time must
        give the same result and cycle count as machine.run() on either
        step — the stepper is the same schedule, just resumable — and
        a cycle limit must stop every driver at the same clocks."""
        compiled = build_mult_machine(FIB, processors=1)[1]
        entry = compiled.entry_label("main")
        limited = {1: (5010, [5010]), 2: (5016, [5016, 5023])}

        def build(processors, driver):
            return AlewifeMachine(compiled.program,
                                  MachineConfig(num_processors=processors),
                                  fastpath=driver != "reference")

        for processors in (1, 2):
            runs = []
            for driver in DRIVERS:
                machine = build(processors, driver)
                result = drive(machine, driver, entry=entry, args=(9,))
                assert machine.loop_used == driver
                runs.append((result.value, result.cycles))
            assert runs[0][0] == 34
            assert runs[0] == runs[1] == runs[2]

            for driver in DRIVERS:
                machine = build(processors, driver)
                with pytest.raises(SimulationError, match="cycle limit"):
                    drive(machine, driver, entry=entry, args=(12,),
                          max_cycles=5000)
                clocks = [cpu.cycles for cpu in machine.cpus]
                assert (machine.time, clocks) == limited[processors], driver


class TestMonitorCommands:
    def test_breakpoint_stops_at_pc(self):
        monitor, out = make_monitor()
        body = monitor.machine.program.labels
        target = next(k for k in body if k.startswith("fn_fib")
                      and k.endswith("_body"))
        monitor.dispatch("break %s" % target)
        monitor.dispatch("run")
        cpu = monitor.machine.cpus[0]
        assert cpu.frames[cpu.fp].pc == body[target]
        assert "breakpoint 1 at" in out.getvalue()

    def test_run_after_breakpoint_makes_progress(self):
        monitor, out = make_monitor()
        labels = monitor.machine.program.labels
        target = next(k for k in labels if k.startswith("fn_fib")
                      and k.endswith("_body"))
        monitor.dispatch("break %s" % target)
        monitor.dispatch("run")
        first = monitor.machine.time
        monitor.dispatch("run")
        assert monitor.machine.time > first
        # One line when the breakpoint is set, one per stop.
        assert out.getvalue().count("\nbreakpoint 1 at") == 2

    def test_step_counts_executed_instructions(self):
        monitor, out = make_monitor()
        monitor.dispatch("step 4")
        lines = [l for l in out.getvalue().splitlines()
                 if l.startswith("[")]
        assert len(lines) == 4

    def test_watchpoint_reports_value_and_fe_transition(self):
        monitor, out = make_monitor()
        machine = monitor.machine
        # Watch the top of the heap, then poke it from the monitor and
        # flip its full/empty bit: both transitions must be reported
        # when the change comes from the machine, and suppressed when
        # it comes from our own poke (the poke refreshes the baseline).
        address = 0x21000
        monitor.dispatch("watch %#x" % address)
        monitor.dispatch("poke mem %#x 7" % address)
        monitor.dispatch("step 1")
        transcript = out.getvalue()
        assert "watchpoint 1 at" in transcript
        assert transcript.count("->") == 0          # poke: no spurious hit
        machine.memory.write_word(address, 99)
        machine.memory.set_full(address, False)
        monitor.dispatch("step 1")
        assert "0x00000007/full -> 0x00000063/empty" in out.getvalue()

    def test_watchpoint_stops_run_with_attribution(self):
        """A store executed by the program itself trips the watchpoint
        mid-run and names the pc that did it (watch_hook attribution)."""
        monitor, out = make_monitor()
        machine = monitor.machine
        # fib's prologue stores ra at the initial stack top.
        sp_index = 14
        monitor.dispatch("step 1")
        cpu = machine.cpus[0]
        stack_top = cpu.frames[cpu.fp].regs[sp_index]
        monitor.dispatch("watch %#x" % stack_top)
        monitor.dispatch("run")
        transcript = out.getvalue()
        assert "->" in transcript                   # the hit line
        assert "store)" in transcript               # pc attribution

    def test_poke_reg_and_mem(self):
        monitor, out = make_monitor()
        monitor.dispatch("step 1")
        monitor.dispatch("poke reg r5 0x123")
        assert monitor.machine.cpus[0].read_reg(5) == 0x123
        monitor.dispatch("poke mem 0x21004 77")
        assert monitor.machine.memory.read_word(0x21004) == 77
        monitor.dispatch("poke fe 0x21004 empty")
        assert not monitor.machine.memory.is_full(0x21004)

    def test_threads_table_uses_dense_tids(self):
        monitor, out = make_monitor()
        monitor.dispatch("run until 2000")
        out.truncate(0)
        out.seek(0)
        monitor.dispatch("threads")
        table = out.getvalue()
        assert "  main" in table
        # Dense numbering: tid column starts at 1 regardless of how
        # many threads earlier tests burned from the global counter.
        rows = [l for l in table.splitlines() if l.strip()
                and not l.strip().startswith("tid")]
        first_tid = int(rows[0].split()[0])
        assert first_tid == 1

    def test_disas_marks_current_pc(self):
        monitor, out = make_monitor()
        monitor.dispatch("step 1")
        out.truncate(0)
        out.seek(0)
        monitor.dispatch("disas")
        assert "=>" in out.getvalue()

    def test_unknown_command_is_friendly(self):
        monitor, out = make_monitor()
        monitor.dispatch("frobnicate")
        assert "unknown command" in out.getvalue()

    def test_run_to_completion_reports_result(self):
        monitor, out = make_monitor()
        monitor.dispatch("run")
        assert "program finished: result 8" in out.getvalue()
        monitor.dispatch("step 1")
        assert "program already finished" in out.getvalue()


class TestTranscriptDeterminism:
    SCRIPT = [
        "where",
        "step 6",
        "break fn_fib_FIBBODY",
        "run",
        "regs",
        "psr",
        "frames",
        "threads",
        "disas",
        "watch 0x21000",
        "poke mem 0x21000 5",
        "run until 900",
        "bp",
        "delete 1",
        "run",
        "quit",
    ]

    def _transcript(self, compiled, processors=2):
        machine = AlewifeMachine(compiled.program,
                                 MachineConfig(num_processors=processors))
        out = io.StringIO()
        monitor = Monitor(machine, entry=compiled.entry_label("main"),
                          args=(8,), out=out, echo=True)
        body = next(k for k in machine.program.labels
                    if k.startswith("fn_fib") and k.endswith("_body"))
        monitor.repl([line.replace("fn_fib_FIBBODY", body)
                      for line in self.SCRIPT])
        return out.getvalue()

    def test_two_runs_byte_identical(self):
        """The raw tid counter differs between runs; the transcript must
        not (dense tids everywhere)."""
        _, compiled = build_mult_machine(FIB, processors=2)
        first = self._transcript(compiled)
        second = self._transcript(compiled)
        assert first == second
        assert "(april) run" in first
        assert "program finished: result 21" in first
