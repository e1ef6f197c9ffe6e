"""The benchmark's workloads: the simulator runs ("cells") of one pass.

A cell is one Mul-T program run to completion on one machine: program,
compilation mode, processor count, the program's size parameters and
the memory mode.  Every pass of a workload runs the same cells; the
seed only chooses the order of the cells in each pass and which
24-number window ``factor`` works on.  The simulator sees nothing but
the generated program arguments.

This module imports nothing from the simulator, so the entry points can
check for the source tree (:func:`bootstrap`) before anything else.
"""

import os
import random
import sys
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``factor`` sums the largest prime factors of ``FACTOR_COUNT``
#: consecutive numbers; the seed picks one of ``FACTOR_WINDOWS``
#: adjacent windows starting at ``FACTOR_BASE``.  ``pins.json`` holds
#: an entry for every window.
FACTOR_BASE = 10000
FACTOR_COUNT = 24
FACTOR_WINDOWS = 16


class Cell(namedtuple("Cell", "program mode processors params memory")):
    """One simulator run; ``params`` feed the workload's ``args()``."""

    __slots__ = ()

    @property
    def label(self):
        return "%s(%s) %s p%d %s" % (
            self.program, ",".join(str(p) for p in self.params), self.mode,
            self.processors, self.memory)


#: Stands in for factor's (lo, count) until the seed picks the window.
FACTOR = None


def _cell(program, mode, processors, params, memory="ideal"):
    return Cell(program, mode, processors, params, memory)


#: Workload name -> cell templates.  Why each workload exists is in
#: README.md and in ``BENCHMARK.json``.
WORKLOADS = {
    "seq-ideal": (
        _cell("fib", "sequential", 1, (18,)),
        _cell("queens", "sequential", 1, (6,)),
        _cell("factor", "sequential", 1, FACTOR),
        _cell("speech", "sequential", 1, (5, 10))),
    "eager-ideal": (
        _cell("fib", "eager", 4, (15,)),
        _cell("queens", "eager", 2, (6,)),
        _cell("factor", "eager", 4, FACTOR),
        _cell("speech", "eager", 4, (5, 10)),
        # The size EXPERIMENTS.md quotes; exhausts the default kernel
        # heap at this commit and is counted as a failed cell.
        _cell("fib", "eager", 2, (16,))),
    "lazy-ideal": (
        _cell("fib", "lazy", 2, (16,)),
        _cell("fib", "lazy", 16, (16,)),
        _cell("queens", "lazy", 2, (6,)),
        _cell("queens", "lazy", 16, (6,)),
        _cell("speech", "lazy", 4, (5, 10))),
    "coherent": (
        _cell("fib", "eager", 4, (12,), "coherent"),
        _cell("fib", "lazy", 16, (14,), "coherent"),
        _cell("queens", "eager", 4, (5,), "coherent"),
        _cell("queens", "lazy", 16, (6,), "coherent")),
}


def factor_params(window):
    """``factor``'s (lo, count) for one of the seeded windows."""
    return (FACTOR_BASE + FACTOR_COUNT * window, FACTOR_COUNT)


def cells_for(workload, seed):
    """The workload's cells and the seeded generator that orders passes."""
    rng = random.Random(seed)
    window = rng.randrange(FACTOR_WINDOWS)
    cells = [cell._replace(params=factor_params(window))
             if cell.params is FACTOR else cell
             for cell in WORKLOADS[workload]]
    return cells, rng


def all_cells():
    """Every cell any seed can produce (what ``pins.json`` covers)."""
    seen = {}
    for templates in WORKLOADS.values():
        for cell in templates:
            if cell.params is FACTOR:
                for window in range(FACTOR_WINDOWS):
                    one = cell._replace(params=factor_params(window))
                    seen[one.label] = one
            else:
                seen[cell.label] = cell
    return list(seen.values())


def bootstrap():
    """Put the simulator source on ``sys.path``; exit if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: no simulator source under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
