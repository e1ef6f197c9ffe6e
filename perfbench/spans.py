"""Span recording for the benchmark's traced run.

The traced run wraps public simulator functions at their layer
boundaries — class attributes and module functions, replaced on the
class or module itself — and records one span per call: name, start,
end (integer ``perf_counter_ns``) and the enclosing span.  Spans are
kept in memory in flat arrays and written out once, at the end.

A span's *self time* is its duration minus the durations of its direct
children.  Every span except a region's root has its parent inside the
region, so the self times of a region sum to the root's duration
exactly, in integer nanoseconds; there is no "other" bucket.  The
harness opens the root around a whole pass, which makes the self times
sum to the traced wall time.

Span names are ``<layer>.<what>``; the layer is everything before the
first dot.
"""

import time
from array import array


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        #: name id -> calls that returned something other than None
        #: (only for wrappers made with ``count_hits``).
        self.hits = {}
        self._stack = [-1]

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        """Start a span by hand (the harness root); returns its index."""
        index = len(self.ends)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        self._stack.append(index)
        return index

    def close(self, index):
        """End a span opened with :meth:`open`."""
        self.ends[index] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("span %d closed out of order" % index)

    def wrap(self, fn, name, count_hits=False):
        """A function that calls ``fn`` inside a span called ``name``."""
        nid = self.name_id(name)
        ids_append = self.name_ids.append
        starts_append = self.starts.append
        ends = self.ends
        ends_append = ends.append
        parents_append = self.parents.append
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns
        hits = self.hits

        def traced(*args, **kwargs):
            index = len(ends)
            ids_append(nid)
            parents_append(stack[-1])
            ends_append(0)
            push(index)
            starts_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()
            if count_hits and result is not None:
                hits[nid] = hits.get(nid, 0) + 1
            return result

        return traced

    def summarize(self, root):
        """Per-name totals over the region rooted at span ``root``.

        Returns ``{name: [calls, layer_entries, self_ns]}`` and
        the root's duration.  ``layer_entries`` counts the calls made
        from a span of another layer: entries into the layer, not its
        internal re-entries.  Raises if the self times do not sum to
        the root's duration.
        """
        ids, starts, ends, parents = (self.name_ids, self.starts, self.ends,
                                      self.parents)
        layer = [name.split(".", 1)[0] for name in self.names]
        totals = {}
        stop = len(ends)
        for i in range(root, stop):
            if i != root and parents[i] < root:
                stop = i           # the next region begins here
                break
        for i in range(root, stop):
            nid = ids[i]
            row = totals.get(nid)
            if row is None:
                row = totals[nid] = [0, 0, 0]
            duration = ends[i] - starts[i]
            row[0] += 1
            row[2] += duration
            parent = parents[i]
            if i != root:
                pid = ids[parent]
                totals[pid][2] -= duration
                if layer[pid] != layer[nid]:
                    row[1] += 1
        wall = ends[root] - starts[root]
        accounted = sum(row[2] for row in totals.values())
        if accounted != wall:
            raise RuntimeError("self times sum to %d ns, wall is %d ns"
                               % (accounted, wall))
        return ({self.names[nid]: row for nid, row in totals.items()}, wall)

    def take_hits(self):
        """Hit counts by span name since the last call; then resets."""
        hits = {self.names[nid]: count for nid, count in self.hits.items()}
        self.hits.clear()
        return hits

    def write(self, handle):
        """Write every span as four int64 columns in native byte order:
        name id, start ns, end ns, parent index (-1 for a root)."""
        for column in (self.name_ids, self.starts, self.ends, self.parents):
            column.tofile(handle)


class Wrapping:
    """Class-level wrappers, installed together and removed together.

    ``targets`` are ``(owner, attribute, span name, count_hits)``; the
    owner is a class or a module and must define the attribute itself.
    """

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self._originals = []

    def install(self):
        for owner, attr, name, count_hits in self.targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self.tracer.wrap(original, name, count_hits))
            self._originals.append((owner, attr, original))

    def remove(self):
        """Put every original back; raises unless all are restored."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        stale = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                 for owner, attr, original in self._originals
                 if vars(owner)[attr] is not original]
        self._originals = []
        if stale:
            raise RuntimeError("wrappers left installed: %s"
                               % ", ".join(stale))


def simulator_targets():
    """The layer boundaries the traced run wraps."""
    from repro.core import processor
    from repro.core.processor import Processor
    from repro.lang import compiler
    from repro.machine.alewife import AlewifeMachine
    from repro.mem.controller import CacheController
    from repro.mem.directory import Directory
    from repro.mem.ideal import IdealMemoryPort
    from repro.mem.system import CoherentMemorySystem
    from repro.net.network import Network
    from repro.runtime.handlers import TrapHandlers
    from repro.runtime.rts import RuntimeSystem
    from repro.runtime.scheduler import Scheduler

    targets = [
        (compiler, "compile_source", "lang.compile", False),
        (AlewifeMachine, "__init__", "machine.build", False),
        (AlewifeMachine, "run", "machine.run", False),
        (Processor, "step", "core.step", False),
        (Processor, "step_block", "core.step_block", False),
        # As bound in repro.core.processor, where _compile_jit calls it.
        (processor, "compile_block", "core.jit_compile", False),
        (RuntimeSystem, "on_idle", "runtime.idle", False),
        (RuntimeSystem, "steal_lazy_task", "runtime.steal.lazy", True),
        (Scheduler, "steal_ready_thread", "runtime.steal.ready", True),
        (Scheduler, "load_thread", "runtime.sched.load", False),
        (Scheduler, "unload_thread", "runtime.sched.unload", False),
        (CoherentMemorySystem, "advance_to", "mem.advance", False),
        (Directory, "handle_read", "mem.dir.read", False),
        (Directory, "handle_write", "mem.dir.write", False),
        (Directory, "handle_eviction", "mem.dir.evict", False),
        (Network, "send", "net.send", False),
    ]
    targets += [(TrapHandlers, attr, "runtime.trap." + attr[3:], False)
                for attr in sorted(vars(TrapHandlers))
                if attr.startswith("on_")]
    targets += [(port, attr, "mem.port." + attr, False)
                for port in (CacheController, IdealMemoryPort)
                for attr in ("load", "store", "flush")]
    return targets
