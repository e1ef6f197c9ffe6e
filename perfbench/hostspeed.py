"""Host-speed calibration: time measured in reference seconds.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within seconds, because neighbours contend for the same cores.
The drift slows every piece of Python code in the process alike. So,
while the end-to-end metrics are measured, an interval timer
interrupts the process every :data:`INTERVAL_S` host seconds and times
a small fixed pure-Python kernel. The kernel needs nothing from the
simulator, so no change to the simulator can alter it. Host seconds
convert to *reference seconds*: the time the same work would take on a
host where the kernel takes :data:`REFERENCE_S`::

    reference seconds = host seconds * REFERENCE_S / kernel time nearby

The kernel's own time converts to nothing. A faster simulator still
shows as fewer reference seconds; a busier host does not. The
conversion assumes the process runs one thread, which
:func:`require_one_thread` checks: a second thread would slow the
kernel and the simulator alike, and the conversion would hide it.
"""

import bisect
import signal
import threading
import time

#: Kernel time on the reference host: about its uncontended time on
#: the 2-vCPU x86-64 VM (CPython 3.11) the benchmark was built on.
REFERENCE_S = 0.00125

#: Host seconds between samples.
INTERVAL_S = 0.05

#: A stretch between two samples is converted with the mean kernel
#: time of this many samples on each side of it.
WINDOW = 2

_ITERATIONS = 5000


class _Machine:
    __slots__ = ("regs", "mem", "pc")


def _add(m, a, b):
    m.regs[a] = (m.regs[a] + m.regs[b]) & 0xFFFF


def _sub(m, a, b):
    m.regs[a] = (m.regs[a] - m.regs[b]) & 0xFFFF


def _load(m, a, b):
    m.regs[a] = m.mem[(m.regs[b] + a) & 1023]


def _store(m, a, b):
    m.mem[(m.regs[a] + b) & 1023] = m.regs[b]


_OPS = {0: _add, 1: _sub, 2: _load, 3: _store}
_PROGRAM = [((i * 7) % 4, (i * 5) % 32, (i * 3) % 32) for i in range(64)]


def _kernel():
    """A toy register machine: dispatch through a dict, attribute and
    list traffic, calls.  Host contention slows it about as much as it
    slows the simulator, which is the same kind of code."""
    machine = _Machine()
    machine.regs = list(range(32))
    machine.mem = [0] * 1024
    machine.pc = 0
    ops = _OPS
    program = _PROGRAM
    for _ in range(_ITERATIONS):
        op, a, b = program[machine.pc]
        ops[op](machine, a, b)
        machine.pc = (machine.pc + 1) & 63
    return machine.regs[0]


class HostSpeed:
    """Kernel timings taken through a run, and the conversion they give.

    Use as a context manager: it samples on entry, from a ``SIGALRM``
    interval timer while inside, and on exit.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def sample(self, *_):
        """Time the kernel once (also the signal handler)."""
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # A signal already delivered is handled during this last sample,
        # while the handler is still ours.
        self.sample()
        signal.signal(signal.SIGALRM, self._previous)

    def _factor(self, gap):
        """Reference s per host s in the stretch after sample
        ``gap - 1``."""
        near = range(max(gap - WINDOW, 0), min(gap + WINDOW, len(self.starts)))
        spent = sum(self.ends[i] - self.starts[i] for i in near)
        return REFERENCE_S * len(near) / spent

    def reference_seconds(self, begin, end):
        """Convert the host interval [begin, end) to reference seconds."""
        total = 0.0
        gap = bisect.bisect_right(self.ends, begin)
        while True:
            low = max(begin, self.ends[gap - 1]) if gap else begin
            high = min(end, self.starts[gap]) if gap < len(self.starts) \
                else end
            if high > low:
                total += (high - low) * self._factor(gap)
            if gap >= len(self.starts) or self.starts[gap] >= end:
                return total
            gap += 1


def require_one_thread():
    if threading.active_count() != 1:
        raise RuntimeError(
            "%d threads are running; reference seconds assume one"
            % threading.active_count())
