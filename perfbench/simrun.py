"""Run cells through the public simulator API and check their outputs.

Each cell is compiled with :func:`repro.lang.compiler.compile_source`,
built as an :class:`~repro.machine.alewife.AlewifeMachine` on the
default :class:`~repro.machine.config.MachineConfig` and run with
``machine.run``.  The three phases are timed apart: compile plus build
is set-up, ``run`` is where simulated cycles are made.

A cell's outcome is checked against the workload's native
``reference()`` and against ``pins.json``, which pins the simulated
cycle and instruction counts (or the error type) of every cell.  A
speed-up may not move a pinned count.
"""

import gc
import json
import os
import time

from repro import workloads
from repro.lang import compiler
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


class Outcome:
    """What one cell did: timings, result counts, and its check."""

    __slots__ = ("cell", "started", "compile_s", "build_s", "run_s", "value",
                 "cycles", "instructions", "error", "ok", "expected",
                 "problem")

    def __init__(self, cell):
        self.cell = cell
        #: ``perf_counter()`` when compile began; the phases follow on.
        self.started = 0.0
        self.compile_s = self.build_s = self.run_s = 0.0
        self.value = self.cycles = self.instructions = None
        #: The error's type name, for a cell that raised.
        self.error = None
        self.ok = False
        #: For a failed cell: True when it failed exactly as pinned.
        self.expected = False
        self.problem = None

    @property
    def node_cycles(self):
        return self.cycles * self.cell.processors

    def pin(self):
        """The pin this outcome would record."""
        if self.error is not None:
            return {"error": self.error}
        return {"value": self.value, "cycles": self.cycles,
                "instructions": self.instructions}


def load_pins(path=PINS_PATH):
    with open(path) as handle:
        return json.load(handle)["cells"]


def run_cell(cell, on_machine=None):
    """Compile, build and run one cell; returns an unchecked Outcome.

    ``on_machine(machine)`` is called once the machine has run, even
    when the run failed, outside the timed phases.
    """
    clock = time.perf_counter
    outcome = Outcome(cell)
    module = workloads.get(cell.program)
    machine = None
    start = outcome.started = clock()
    try:
        compiled = compiler.compile_source(module.source(), mode=cell.mode)
        built = clock()
        config = MachineConfig(
            num_processors=cell.processors, memory_mode=cell.memory,
            lazy_futures=compiled.wants_lazy_scheduling)
        machine = AlewifeMachine(compiled.program, config)
        ready = clock()
        outcome.compile_s = built - start
        outcome.build_s = ready - built
        result = machine.run(entry=compiled.entry_label("main"),
                             args=module.args(*cell.params))
        outcome.run_s = clock() - ready
    except Exception as exc:   # a failed cell is recorded, not fatal
        # Names only: the exception's tracebacks would keep the failed
        # machine alive while the next cell runs.
        outcome.error = type(exc).__name__
        outcome.problem = "%s: %s" % (outcome.error, exc)
    else:
        outcome.value = result.value
        outcome.cycles = result.cycles
        outcome.instructions = result.stats.instructions
    if on_machine is not None and machine is not None:
        on_machine(machine)
    return outcome


def check(outcome, pins):
    """Judge an outcome against its reference value and its pin.

    Sets ``ok`` (completed with every output as pinned), ``expected``
    (failed exactly as pinned: the same error type) and ``problem`` (a
    one-line reason for any failure).
    """
    cell = outcome.cell
    pin = pins.get(cell.label)
    if pin is None:
        outcome.problem = "no pin for this cell"
        return outcome
    if outcome.error is not None:
        outcome.expected = pin.get("error") == outcome.error
        return outcome
    want = workloads.get(cell.program).reference(*cell.params)
    if outcome.value != want:
        outcome.problem = "value %r, reference %r" % (outcome.value, want)
    elif "error" in pin:
        # Pinned as failing but now completes correctly: a fixed defect.
        # There are no counts to compare against.
        outcome.ok = True
    else:
        wrong = ["%s %r, pinned %r" % (key, got, pin[key])
                 for key, got in (("value", outcome.value),
                                  ("cycles", outcome.cycles),
                                  ("instructions", outcome.instructions))
                 if got != pin[key]]
        if wrong:
            outcome.problem = "; ".join(wrong)
        else:
            outcome.ok = True
    return outcome


def run_pass(cells, pins, on_machine=None):
    """Run and check every cell once, in the order given.

    Each cell starts from a collected heap, so the cyclic garbage of
    the cells before it (and so the cell order) does not change what
    the collector costs inside the cell's timed phases.
    """
    outcomes = []
    for cell in cells:
        gc.collect()
        outcomes.append(check(run_cell(cell, on_machine), pins))
    return outcomes
