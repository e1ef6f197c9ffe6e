"""The simulator benchmark: simulated node-cycles per second.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq-ideal --seed 1 --seconds 20 --trace 0

One process, one thread.  The first pass over the workload's cells is
the cold pass; it is timed as ``cold_start_s`` and never mixed into the
other metrics.  Then warm passes repeat for ``--seconds``.  Every cell
of every pass is checked against its reference value and its pin.

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds (see ``hostspeed.py``).  ``--trace 1`` runs the cold pass and
one warm pass with every layer boundary wrapped, prints the per-layer
metrics, and writes the spans to ``.perfbench-out/<workload>-spans.bin``
(layout: ``spans.Tracer.write``) with a JSON header beside it.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

START = time.perf_counter()   # cold start counts the imports below

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import cells
import hostspeed

OUT_DIR = os.path.join(cells.ROOT, ".perfbench-out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(cells.ROOT)}


def declared_metrics():
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(cells.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Tally:
    """Every checked outcome of a run, plus the warm passes' totals.

    With a :class:`hostspeed.HostSpeed`, warm-pass times are kept in
    reference seconds; without one, in host seconds.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        #: (cell label, problem) -> count, for every failed cell.
        self.failures = {}
        self.unexpected = False
        self.warm_passes = 0
        self.node_cycles = 0
        self.run_s = 0.0
        self.host_run_s = 0.0
        #: cell label -> compile + build seconds, one per warm pass.
        self.setup_s = {}

    def _seconds(self, begin, host_s):
        if self.speed is None:
            return host_s
        return self.speed.reference_seconds(begin, begin + host_s)

    def add(self, outcomes, warm):
        for outcome in outcomes:
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                key = (outcome.cell.label, outcome.problem
                       + ("" if outcome.expected else " (unexpected)"))
                self.failures[key] = self.failures.get(key, 0) + 1
                self.unexpected = self.unexpected or not outcome.expected
        if not warm:
            return
        self.warm_passes += 1
        for o in outcomes:
            setup = o.compile_s + o.build_s
            self.setup_s.setdefault(o.cell.label, []).append(
                self._seconds(o.started, setup))
            if o.ok:
                self.node_cycles += o.node_cycles
                self.run_s += self._seconds(o.started + setup, o.run_s)
                self.host_run_s += o.run_s


def ordered(cell_list, rng):
    order = list(cell_list)
    rng.shuffle(order)
    return order


def warm_passes(cell_list, rng, pins, tally, seconds):
    """Repeat passes while the next is expected to end within budget.

    Returns each pass's wall time; there is always at least one pass.
    """
    import simrun
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + walls[-1] <= seconds:
        start = time.perf_counter()
        outcomes = simrun.run_pass(ordered(cell_list, rng), pins)
        walls.append(time.perf_counter() - start)
        hostspeed.require_one_thread()
        tally.add(outcomes, warm=True)
    return walls


def end_to_end(workload, seed, seconds, tally):
    """The five end-to-end metrics; times are in reference seconds.

    ``tally.speed`` has been sampling since before the simulator was
    imported.
    """
    import simrun
    cell_list, rng = cells.cells_for(workload, seed)
    pins = simrun.load_pins()
    tally.add(simrun.run_pass(ordered(cell_list, rng), pins), warm=False)
    cold_end = time.perf_counter()
    warm_passes(cell_list, rng, pins, tally, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("host seconds: node_cycles_per_s %.6g, cold_start_s %.6g"
          % (_ratio(tally.node_cycles, tally.host_run_s), cold_end - START))
    return {
        "node_cycles_per_s": _ratio(tally.node_cycles, tally.run_s),
        # A pass's set-up, robust to one-off host stalls: the sum over
        # cells of each cell's median compile + build time.
        "setup_s": sum(statistics.median(times)
                       for times in tally.setup_s.values()),
        "cold_start_s": tally.speed.reference_seconds(START, cold_end),
        "peak_rss_mb": peak_kb / 1024.0,
        "completed_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


class Harvest:
    """Counters read from each machine of the traced warm pass."""

    def __init__(self):
        self.node_cycles = 0
        self.jit_runs = 0
        self.cache_hits = 0
        self.cache_accesses = 0

    def add(self, machine):
        cpus = machine.cpus
        self.node_cycles += max(cpu.cycles for cpu in cpus) * len(cpus)
        self.jit_runs += sum(cpu.translation_counters()["jit"]["runs"]
                             for cpu in cpus)
        if machine.fabric is not None:
            for cache in machine.fabric.caches:
                self.cache_hits += cache.stats.hits
                self.cache_accesses += cache.stats.hits + cache.stats.misses


def layer_metrics(names, rows, wall_ns, cold_rows, hits, harvest,
                  untraced_s):
    """Per-layer metrics from the warm region (JIT compiles: cold).

    ``names`` lists every span name, also those of wrappers that were
    never called; each trap handler gets a count and a self time.
    """

    def pick(table, prefix, column):
        return sum(row[column] for name, row in table.items()
                   if name == prefix or name.startswith(prefix + "."))

    def self_s(prefix, table=rows):
        return pick(table, prefix, 2) / 1e9

    def calls(prefix, table=rows):
        return pick(table, prefix, 0)

    # Calls into the layer: step() from the machine loop, not from
    # inside step_block.
    step_calls = rows.get("core.step", (0, 0, 0))[1]
    block_calls = calls("core.step_block")
    steals = sum(count for name, count in hits.items()
                 if name.startswith("runtime.steal."))
    metrics = {
        "trace_overhead": wall_ns / 1e9 / statistics.median(untraced_s),
        "trace.wall_s": wall_ns / 1e9,
        "trace.node_cycles": harvest.node_cycles,
        # These eight self times sum to trace.wall_s.
        "harness.self_s": self_s("harness"),
        "lang.compile_s": self_s("lang"),
        "machine.build_s": self_s("machine.build"),
        "machine.loop_self_s": self_s("machine.run"),
        "core.self_s": self_s("core"),
        "runtime.self_s": self_s("runtime"),
        "mem.self_s": self_s("mem"),
        "net.send_s": self_s("net"),
        "core.step_calls": step_calls,
        "core.block_calls": block_calls,
        "core.cycles_per_call": _ratio(harvest.node_cycles,
                                       step_calls + block_calls),
        "core.jit_run_ratio": _ratio(harvest.jit_runs, block_calls),
        "core.jit_compiles": calls("core.jit_compile", cold_rows),
        "core.jit_compile_s": self_s("core.jit_compile", cold_rows),
        "runtime.idle_calls": calls("runtime.idle"),
        "runtime.idle_s": self_s("runtime.idle"),
        "runtime.sched_s": self_s("runtime.sched"),
        "runtime.steals": steals,
        "runtime.steal_hit_ratio": _ratio(steals, calls("runtime.steal")),
        "mem.port_calls": calls("mem.port"),
        "mem.port_s": self_s("mem.port"),
        "mem.cache_hit_ratio": _ratio(harvest.cache_hits,
                                      harvest.cache_accesses),
        "mem.dir_s": self_s("mem.dir"),
        "mem.advance_calls": calls("mem.advance"),
        "net.msgs": calls("net.send"),
    }
    for name in names:
        if name.startswith("runtime.trap."):
            kind = name[len("runtime.trap."):]
            metrics["runtime.traps." + kind] = calls(name)
            metrics["runtime.trap_s." + kind] = self_s(name)
    return metrics


def traced(workload, seed, seconds, tally):
    """Cold and warm pass with spans, then untraced passes to compare.

    The traced warm pass and the untraced passes after it share the
    ``seconds`` budget; at least one untraced pass always runs.
    """
    import simrun
    import spans
    cell_list, rng = cells.cells_for(workload, seed)
    pins = simrun.load_pins()
    tracer = spans.Tracer()
    wrapping = spans.Wrapping(tracer, spans.simulator_targets())
    harvest = Harvest()
    wrapping.install()
    try:
        cold_root = tracer.open("harness.pass")
        tally.add(simrun.run_pass(ordered(cell_list, rng), pins), warm=False)
        tracer.close(cold_root)
        tracer.take_hits()
        warm_root = tracer.open("harness.pass")
        tally.add(simrun.run_pass(ordered(cell_list, rng), pins,
                                  on_machine=harvest.add), warm=False)
        tracer.close(warm_root)
        hits = tracer.take_hits()
    finally:
        wrapping.remove()
    rows, wall_ns = tracer.summarize(warm_root)
    cold_rows, _ = tracer.summarize(cold_root)
    untraced_s = warm_passes(cell_list, rng, pins, tally,
                             max(seconds - wall_ns / 1e9, 0.0))
    metrics = layer_metrics(tracer.names, rows, wall_ns, cold_rows, hits,
                            harvest, untraced_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    prefix = os.path.join(OUT_DIR, workload)
    with open(prefix + "-spans.bin", "wb") as handle:
        tracer.write(handle)
    with open(prefix + "-trace.json", "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "environment": environment(), "metrics": metrics,
                   "span_names": tracer.names, "span_count": len(tracer.ends),
                   "byteorder": sys.byteorder,
                   "regions": {"cold": cold_root, "warm": warm_root},
                   "spans_file": os.path.basename(prefix) + "-spans.bin"},
                  handle, indent=1, sort_keys=True)
    print("spans written to %s-spans.bin" % os.path.relpath(prefix,
                                                            cells.ROOT))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if args.trace:
        cells.bootstrap()
        tally = Tally()
        metrics = traced(args.workload, args.seed, args.seconds, tally)
    else:
        with hostspeed.HostSpeed() as speed:
            cells.bootstrap()
            tally = Tally(speed)
            metrics = end_to_end(args.workload, args.seed, args.seconds,
                                 tally)
    declared = declared_metrics()["per_layer" if args.trace else
                                  "end_to_end"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        sys.exit("perfbench: metrics not measured: %s" % ", ".join(missing))

    print("perfbench %s seed=%d trace=%d: %d warm passes, %d cells"
          % (args.workload, args.seed, args.trace, tally.warm_passes,
             tally.attempted))
    print("environment %s" % json.dumps(environment(), sort_keys=True))
    for (label, problem), count in sorted(tally.failures.items()):
        print("failed x%d  %s: %s" % (count, label, problem))
    for name, unit in declared.items():
        print("%-28s %16.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))


if __name__ == "__main__":
    main()
