"""Per-virtual-thread cycle accounting with exact conservation.

The paper's Figure 5 decomposes *processor* time; this module does the
same lift for *threads*: every cycle of every virtual thread's life is
attributed to exactly one bucket, so "why is speedup sublinear" becomes
a table instead of a guess.  Two exact integer ledgers are kept:

**Node-time ledger** (conserved machine-wide).  The accountant reads
each processor's six cycle-category counters (``cpu.stats``), the same
counters the interval sampler reads, so it observes from the fast step
as well as the reference one.  :meth:`LifetimeAccountant.settle` gives
a node's counter growth since its previous settle to the node's
*owner*: the top of an owner stack pushed around charges that run with
an empty frame (thread load/unload, lazy-steal setup, the resolve a
thread performs after its own retirement), else the thread in the
active task frame.  Cycles charged with no owner are per-node overhead
(idle polling, IPI delivery at idle).  The run-time system settles
immediately before every change of owner — loading, unloading or
retiring a thread, moving FP, pushing or popping an owner — and
:meth:`~LifetimeAccountant.finalize` settles every node, so between two
settles the owner is constant and the attribution is exact.  Every
clock advance (``Processor.charge``, the inline charges of the
predecoded closures, the batched charges of JIT blocks) bumps those
counters before control reaches the run-time system.  The invariant is
exact, by construction::

    sum(per-thread on-cpu) + sum(per-node overhead) + sum(end skew)
        == machine.time * num_nodes

where ``end skew`` is each processor's distance from the final
``machine.time`` (the run ends when the root thread exits; other clocks
stop a few cycles short).  No float ever enters the ledger and there is
no "other" bucket.

Precondition: while an accountant is attached, only the run-time
system writes ``cpu.fp`` or ``frame.thread``.  The frame-pointer
instructions (``INCFP``/``DECFP``/``STFP``) would move FP behind its
back; the Mul-T compiler and run-time system never emit them, and only
Mul-T entry points (``april run``, ``explain``, ``report`` and sweep
jobs) attach an accountant.

**Per-thread wall ledger**.  The event stream (spawn / load / unload /
exit / wake) partitions each thread's life ``[spawn, end]`` into
contiguous segments: ``queue`` (ready, never run or re-queued),
``loaded`` (resident in a task frame), ``blocked`` (on a future's
waiter list).  Loaded segments subdivide into the on-cpu categories
charged during the episode plus ``loaded_wait`` (resident but a sibling
frame had the processor).  The per-thread invariant is also exact::

    queue_wait + runnable_unloaded + blocked_future + loaded
        == end_cycle - spawn_cycle

Event timestamps come from *different* local clocks, so a thread's
events can arrive with slightly decreasing cycles (a resolver whose
clock trails the blocker's).  Timestamps are clamped monotonically
per thread; the total clamped slack is reported as ``clock_slip`` so
the approximation is visible, and it never breaks either invariant.

Everything exported is byte-stable: tids are renumbered densely in
first-spawn order and thread names are rewritten to match, so two runs
of the same program produce identical JSON even though the process-wide
tid counter differs.
"""

import re

#: Processor charge category -> on-cpu accounting class.
ONCPU_CLASS = {
    "useful": "running",
    "trap": "trap",
    "switch": "switch_spin",
    "spin": "switch_spin",
    "stall": "blocked_memory",
    "idle": "idle",
}

#: On-cpu classes in fixed report order.
ONCPU_KEYS = ("running", "trap", "switch_spin", "blocked_memory", "idle")

#: Wall-clock wait classes in fixed report order.
WAIT_KEYS = ("queue_wait", "runnable_unloaded", "blocked_future",
             "loaded_wait")

_THREAD_NAME = re.compile(r"thread-(\d+)")

#: A node's (total, category counters) before its first settle.
_NO_CYCLES = (0, (0,) * len(ONCPU_CLASS))


class ConservationError(Exception):
    """The lifetime ledger failed an exact conservation check."""


class Segment:
    """One contiguous piece of a thread's life."""

    __slots__ = ("kind", "start", "end", "node", "frame", "cause",
                 "waker", "pc", "cell", "prev_free", "oncpu")

    def __init__(self, kind, start, end, node=None, frame=None, cause=None,
                 waker=None, pc=None, cell=None, prev_free=None, oncpu=None):
        self.kind = kind          # "queue" | "ready" | "loaded" | "blocked"
        self.start = start
        self.end = end
        self.node = node
        self.frame = frame
        self.cause = cause        # ("spawn", parent) | ("wake", waker) | ...
        self.waker = waker        # tid that resolved the future (blocked)
        self.pc = pc              # touch pc that blocked the thread
        self.cell = cell          # future cell address (blocked)
        self.prev_free = prev_free  # (cycle, tid) that freed the frame
        self.oncpu = oncpu        # {class: cycles} charged in the episode

    @property
    def length(self):
        return self.end - self.start


class ThreadLedger:
    """Both ledgers' per-thread state."""

    __slots__ = ("tid", "name", "parent", "home", "spawn_cycle", "end_cycle",
                 "done", "oncpu", "waits", "segments", "block_sites",
                 "_state", "_clock", "_episode_base", "clock_slip", "steals")

    def __init__(self, tid, name=None, parent=None, home=None, spawn_cycle=0):
        self.tid = tid
        self.name = name or ("thread-%d" % tid)
        self.parent = parent
        self.home = home
        self.spawn_cycle = spawn_cycle
        self.end_cycle = None
        self.done = False
        self.oncpu = {}           # node-time ledger: {class: cycles}
        self.waits = {}           # wall ledger: {wait class: cycles}
        self.segments = []
        self.block_sites = {}     # pc -> blocked cycles
        #: Open state: ("queue"/"ready", since, cause) or
        #: ("loaded", since, node, frame) or ("blocked", since, cell, pc).
        self._state = ("queue", spawn_cycle, ("spawn", parent))
        self._clock = spawn_cycle
        self._episode_base = None
        self.clock_slip = 0
        self.steals = 0

    def timestamp(self, cycle):
        """Clamp an event cycle monotonically for this thread."""
        if cycle < self._clock:
            self.clock_slip += self._clock - cycle
            return self._clock
        self._clock = cycle
        return cycle

    def add_oncpu(self, category, cycles):
        key = ONCPU_CLASS.get(category, category)
        self.oncpu[key] = self.oncpu.get(key, 0) + cycles

    def wall_total(self):
        return sum(seg.length for seg in self.segments)


class LifetimeAccountant:
    """The per-thread lifetime accountant (see module docstring).

    Wire it through :class:`repro.obs.session.Observation` with
    ``threads=True``; it subscribes to the event bus synchronously (so
    ring capacity never truncates its view), and the run-time system
    calls :meth:`settle` before each change of a node's owner.
    """

    def __init__(self):
        self.threads = {}         # raw tid -> ThreadLedger
        self.order = []           # raw tids in first-seen order
        self.node_attr = {}       # node -> cycles attributed on that node
        self.node_overhead = {}   # node -> {category: cycles} (no thread)
        self.node_skew = {}       # node -> machine.time - cpu.cycles
        self.last_exit = None     # (cycle, raw tid) of the latest THREAD_EXIT
        self.end_cycle = None
        self.nodes = None
        self._owner = {}          # node -> [tid] override stack
        self._settled = {}        # node -> (total, counters) at last settle
        self._frame_free = {}     # (node, frame) -> (cycle, tid)
        self._finalized = False

    # -- wiring ----------------------------------------------------------

    def subscribe(self, bus):
        """Attach the event-stream half to a bus (synchronous)."""
        from repro.obs.events import EventKind
        bus.subscribe(self._on_spawn, EventKind.THREAD_SPAWN)
        bus.subscribe(self._on_load, EventKind.THREAD_LOAD)
        bus.subscribe(self._on_unload, EventKind.THREAD_UNLOAD)
        bus.subscribe(self._on_exit, EventKind.THREAD_EXIT)
        bus.subscribe(self._on_wake, EventKind.THREAD_WAKE)
        bus.subscribe(self._on_steal, EventKind.THREAD_STEAL)

    # -- node-time ledger (counter settles) ------------------------------

    def push_owner(self, cpu, tid):
        """Attribute subsequent charges on this node to ``tid``."""
        self.settle(cpu)
        self._owner.setdefault(cpu.node_id, []).append(tid)

    def pop_owner(self, cpu):
        self.settle(cpu)
        self._owner[cpu.node_id].pop()

    def settle(self, cpu):
        """Give the node's cycles charged since its last settle to its
        current owner, category by category."""
        stats = cpu.stats
        total, last = self._settled.get(cpu.node_id, _NO_CYCLES)
        if stats.total_cycles == total:
            return                # counters only grow: nothing charged
        now = [getattr(stats, category) for category in ONCPU_CLASS]
        self._settled[cpu.node_id] = (stats.total_cycles, now)
        for category, value, before in zip(ONCPU_CLASS, now, last):
            if value != before:
                self._attribute(cpu, value - before, category)

    def _attribute(self, cpu, cycles, category):
        node = cpu.node_id
        self.node_attr[node] = self.node_attr.get(node, 0) + cycles
        stack = self._owner.get(node)
        if stack:
            tid = stack[-1]
        else:
            thread = cpu.frames[cpu.fp].thread
            tid = thread.tid if thread is not None else None
        if tid is None:
            bucket = self.node_overhead.setdefault(node, {})
            bucket[category] = bucket.get(category, 0) + cycles
            return
        self._ledger(tid).add_oncpu(category, cycles)

    # -- wall ledger (event stream) --------------------------------------

    def _ledger(self, tid, cycle=0, name=None, parent=None, home=None):
        ledger = self.threads.get(tid)
        if ledger is None:
            ledger = ThreadLedger(tid, name=name, parent=parent, home=home,
                                  spawn_cycle=cycle)
            self.threads[tid] = ledger
            self.order.append(tid)
        return ledger

    def _on_spawn(self, event):
        data = event.data
        self._ledger(data["tid"], cycle=event.cycle,
                     name=data.get("thread"), parent=data.get("parent"),
                     home=data.get("home"))

    def _close_wait(self, ledger, t, prev_free=None):
        """Close the open queue/ready/blocked state at ``t``."""
        kind, since = ledger._state[0], ledger._state[1]
        if kind in ("queue", "ready"):
            seg = Segment(kind, since, t, cause=ledger._state[2],
                          prev_free=prev_free)
            bucket = "queue_wait" if kind == "queue" else "runnable_unloaded"
        else:                     # blocked
            _, _, cell, pc = ledger._state
            seg = Segment("blocked", since, t, cell=cell, pc=pc)
            bucket = "blocked_future"
            if pc is not None and t > since:
                ledger.block_sites[pc] = (
                    ledger.block_sites.get(pc, 0) + (t - since))
        ledger.segments.append(seg)
        ledger.waits[bucket] = ledger.waits.get(bucket, 0) + seg.length
        return seg

    def _close_episode(self, ledger, t):
        """Close the open loaded episode at ``t``."""
        _, since, node, frame = ledger._state
        base = ledger._episode_base or {}
        delta = {}
        for key, value in ledger.oncpu.items():
            diff = value - base.get(key, 0)
            if diff:
                delta[key] = diff
        spent = sum(delta.values())
        if t < since + spent:
            # Charges overflow the clamped wall window (cross-clock
            # skew): stretch the episode so loaded_wait stays >= 0.
            ledger.clock_slip += since + spent - t
            t = since + spent
            ledger._clock = t
        seg = Segment("loaded", since, t, node=node, frame=frame,
                      oncpu=delta)
        ledger.segments.append(seg)
        ledger.waits["loaded_wait"] = (
            ledger.waits.get("loaded_wait", 0) + seg.length - spent)
        ledger._episode_base = None
        return seg, t

    def _on_load(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle,
                              name=data.get("thread"))
        t = ledger.timestamp(event.cycle)
        key = (event.node, data.get("frame"))
        self._close_wait(ledger, t, prev_free=self._frame_free.get(key))
        ledger._state = ("loaded", t, event.node, data.get("frame"))
        ledger._episode_base = dict(ledger.oncpu)

    def _on_unload(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        t = ledger.timestamp(event.cycle)
        if ledger._state[0] == "loaded":
            _, t = self._close_episode(ledger, t)
        else:                     # defensive: unload without a load seen
            self._close_wait(ledger, t)
        self._frame_free[(event.node, data.get("frame"))] = (t, ledger.tid)
        if data.get("state") == "blocked":
            ledger._state = ("blocked", t, data.get("cell"), data.get("pc"))
        else:
            ledger._state = ("ready", t, ("yield", None))

    def _on_exit(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        t = ledger.timestamp(event.cycle)
        if ledger._state[0] == "loaded":
            _, t = self._close_episode(ledger, t)
        else:                     # defensive: exit without a residency
            self._close_wait(ledger, t)
        self._frame_free[(event.node, data.get("frame"))] = (t, ledger.tid)
        ledger.end_cycle = t
        ledger.done = True
        ledger._state = None
        self.last_exit = (t, ledger.tid)

    def _on_wake(self, event):
        data = event.data
        ledger = self._ledger(data["tid"], cycle=event.cycle)
        if ledger._state is None or ledger._state[0] != "blocked":
            return                # defensive: wake of a non-blocked thread
        t = ledger.timestamp(event.cycle)
        seg = self._close_wait(ledger, t)
        seg.waker = data.get("waker")
        ledger._state = ("ready", t, ("wake", data.get("waker")))

    def _on_steal(self, event):
        ledger = self.threads.get(event.data.get("tid"))
        if ledger is not None:
            ledger.steals += 1

    # -- finalize + conservation -----------------------------------------

    def finalize(self, machine):
        """Close every open state at run end; idempotent."""
        if self._finalized:
            return self
        self._finalized = True
        self.end_cycle = machine.time
        self.nodes = len(machine.cpus)
        for cpu in machine.cpus:
            self.settle(cpu)
            self.node_skew[cpu.node_id] = machine.time - cpu.cycles
            self.node_attr.setdefault(cpu.node_id, 0)
        for tid in self.order:
            ledger = self.threads[tid]
            if ledger._state is None:
                continue
            t = max(machine.time, ledger._clock)
            if ledger._state[0] == "loaded":
                _, t = self._close_episode(ledger, t)
            else:
                self._close_wait(ledger, t)
            ledger.end_cycle = t
            ledger._state = None
        return self

    def conservation(self):
        """Both exact invariants as a JSON-ready dict."""
        if not self._finalized:
            raise ConservationError("finalize(machine) must run first")
        thread_cycles = sum(sum(l.oncpu.values())
                            for l in self.threads.values())
        overhead = sum(sum(b.values())
                       for b in self.node_overhead.values())
        skew = sum(self.node_skew.values())
        attributed = thread_cycles + overhead + skew
        expected = self.end_cycle * self.nodes
        node_ok = all(
            self.node_attr.get(node, 0) + self.node_skew[node]
            == self.end_cycle for node in self.node_skew)
        wall_bad = []
        slip = 0
        for tid in self.order:
            ledger = self.threads[tid]
            slip += ledger.clock_slip
            span = (ledger.end_cycle or ledger.spawn_cycle) - ledger.spawn_cycle
            if ledger.wall_total() != span:
                wall_bad.append(tid)
        return {
            "machine_cycles": self.end_cycle,
            "nodes": self.nodes,
            "cycles_x_nodes": expected,
            "attributed": attributed,
            "thread_cycles": thread_cycles,
            "node_overhead": overhead,
            "end_skew": skew,
            "exact": attributed == expected and node_ok and not wall_bad,
            "clock_slip": slip,
        }

    def check(self):
        """Raise :class:`ConservationError` unless both ledgers balance."""
        data = self.conservation()
        if not data["exact"]:
            raise ConservationError(
                "lifetime ledger out of balance: attributed %d != %d "
                "(machine %d x %d nodes)"
                % (data["attributed"], data["cycles_x_nodes"],
                   data["machine_cycles"], data["nodes"]))
        return data

    # -- byte-stable export ----------------------------------------------

    def dense_ids(self):
        """Raw tid -> dense id in first-spawn order (run-stable)."""
        return {tid: index for index, tid in enumerate(self.order)}

    def _norm_name(self, name, dense):
        return _THREAD_NAME.sub(
            lambda m: "thread-%d" % dense.get(int(m.group(1)),
                                              int(m.group(1))), name)

    def to_dict(self, source_map=None, top=None):
        """JSON-ready accounting tables (run-stable byte-for-byte)."""
        dense = self.dense_ids()
        rows = []
        for tid in self.order:
            ledger = self.threads[tid]
            sites = []
            for pc, cycles in sorted(ledger.block_sites.items(),
                                     key=lambda kv: (-kv[1], kv[0])):
                site = {"pc": pc, "cycles": cycles}
                if source_map is not None and pc in source_map:
                    line, text = source_map[pc]
                    site["line"] = line
                    site["text"] = text
                sites.append(site)
            rows.append({
                "tid": dense[tid],
                "name": self._norm_name(ledger.name, dense),
                "parent": (dense.get(ledger.parent)
                           if ledger.parent is not None else None),
                "home": ledger.home,
                "spawn": ledger.spawn_cycle,
                "end": ledger.end_cycle,
                "done": ledger.done,
                "episodes": sum(1 for s in ledger.segments
                                if s.kind == "loaded"),
                "steals": ledger.steals,
                "oncpu": {k: ledger.oncpu.get(k, 0) for k in ONCPU_KEYS
                          if ledger.oncpu.get(k, 0)},
                "waits": {k: ledger.waits.get(k, 0) for k in WAIT_KEYS
                          if ledger.waits.get(k, 0)},
                "block_sites": sites,
            })
        totals_on = {}
        totals_wait = {}
        for ledger in self.threads.values():
            for key, value in ledger.oncpu.items():
                totals_on[key] = totals_on.get(key, 0) + value
            for key, value in ledger.waits.items():
                totals_wait[key] = totals_wait.get(key, 0) + value
        if top is not None and len(rows) > top:
            keep = sorted(rows, key=lambda r: -(sum(r["oncpu"].values())
                                                + sum(r["waits"].values())))
            kept = {row["tid"] for row in keep[:top]}
            rows = [row for row in rows if row["tid"] in kept]
        return {
            "conservation": self.conservation(),
            "node_overhead": {
                str(node): dict(sorted(
                    list(self.node_overhead.get(node, {}).items())
                    + [("end_skew", self.node_skew[node])]))
                for node in sorted(self.node_skew)},
            "totals": {
                "oncpu": {k: totals_on.get(k, 0) for k in ONCPU_KEYS
                          if totals_on.get(k, 0)},
                "waits": {k: totals_wait.get(k, 0) for k in WAIT_KEYS
                          if totals_wait.get(k, 0)},
            },
            "threads": rows,
        }

    def render(self, source_map=None, top=12):
        """Human-readable per-thread table."""
        data = self.to_dict(source_map=source_map)
        cons = data["conservation"]
        lines = [
            "per-thread cycle accounting (%d threads, %d nodes, %d cycles)"
            % (len(self.order), cons["nodes"], cons["machine_cycles"]),
            "conservation: %s (%d attributed == %d x %d + skew %d)"
            % ("exact" if cons["exact"] else "BROKEN",
               cons["attributed"], cons["machine_cycles"], cons["nodes"],
               cons["end_skew"]),
            "",
            "%-5s %-18s %8s %8s %8s %8s %8s %8s %8s" % (
                "tid", "name", "run", "trap", "switch", "memstall",
                "queue", "blocked", "loadwait"),
        ]
        rows = sorted(
            data["threads"],
            key=lambda r: -(sum(r["oncpu"].values())
                            + sum(r["waits"].values())))
        for row in rows[:top]:
            on, wait = row["oncpu"], row["waits"]
            lines.append("%-5d %-18s %8d %8d %8d %8d %8d %8d %8d" % (
                row["tid"], row["name"][:18], on.get("running", 0),
                on.get("trap", 0), on.get("switch_spin", 0),
                on.get("blocked_memory", 0),
                wait.get("queue_wait", 0)
                + wait.get("runnable_unloaded", 0),
                wait.get("blocked_future", 0), wait.get("loaded_wait", 0)))
        if len(rows) > top:
            lines.append("... %d more threads" % (len(rows) - top))
        return "\n".join(lines)
