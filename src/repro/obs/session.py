"""The :class:`Observation` session: wire consumers into a machine.

One object gathers the event bus, the interval sampler, the hot-path
profiler, the coherence-transaction tracer and the lifetime accountant,
and installs them on an :class:`AlewifeMachine`: the bus and the tracer
through the machine's ``set_bus``/``set_txn``, which know every
component carrying an ``events`` or ``txn`` slot.  Slots left ``None``
cost one test at each emission site.

Only the profiler moves a run onto the reference step (see
``AlewifeMachine._hooks_dormant``); events, the sampler, transactions
and the lifetime accountant are recorded on the fast step with the
same cycle stamps.  Attach an Observation before a ``Watchdog``: the
watchdog's flight recorder then shares the Observation's bus, and the
other order raises :class:`ValueError`.
"""

import json

from repro.obs.critpath import analyze as _critpath_analyze
from repro.obs.critpath import summarize as _critpath_summarize
from repro.obs.events import EventBus
from repro.obs.lifetime import LifetimeAccountant
from repro.obs.perfetto import perfetto_trace
from repro.obs.profiler import HotPathProfiler
from repro.obs.report import machine_report
from repro.obs.sampler import IntervalSampler
from repro.obs.txn import TransactionTracer


class Observation:
    """Observability configuration + attached consumers for one run.

    Args:
        events: record the structured event stream.
        capacity: event ring size (None = unbounded).
        window: sampler window in cycles; 0/None disables the sampler.
        profile: enable the per-instruction hot-path profiler.
        txn: enable the coherence-transaction tracer (+ histograms).
        txn_capacity: finished-transaction ring size (None = unbounded).
        threads: enable the per-thread lifetime accountant (and the
            critical-path analyzer on top of it).  Forces an event bus —
            the accountant subscribes synchronously, so ring capacity
            never truncates its view.
    """

    def __init__(self, events=True, capacity=1_000_000, window=4096,
                 profile=False, txn=False, txn_capacity=200_000,
                 threads=False):
        self.bus = EventBus(capacity) if (events or threads) else None
        self.sampler = IntervalSampler(window) if window else None
        self.profiler = HotPathProfiler() if profile else None
        self.txn = TransactionTracer(txn_capacity) if txn else None
        self.lifetime = LifetimeAccountant() if threads else None
        self.machine = None

    @property
    def hist(self):
        """The transaction-latency histograms (None without ``txn``)."""
        return self.txn.histograms if self.txn is not None else None

    # -- wiring ------------------------------------------------------------

    def attach(self, machine):
        """Install every enabled consumer on a machine (before ``run``).

        Raises :class:`ValueError`, leaving the machine untouched, when
        another event bus (a flight recorder's) is already installed.
        """
        bus = self.bus
        if bus is not None:
            machine.set_bus(bus)
        self.machine = machine
        if self.sampler is not None:
            self.sampler.attach(machine.cpus)
            machine.sampler = self.sampler
        if self.profiler is not None:
            self.profiler.attach(machine)
        lifetime = self.lifetime
        if lifetime is not None:
            lifetime.subscribe(bus)
            machine.runtime.lifetime = lifetime
            machine.runtime.scheduler.lifetime = lifetime
        if self.txn is not None:
            machine.set_txn(self.txn)

    def detach(self):
        """Remove every hook installed by :meth:`attach`."""
        machine = self.machine
        if machine is None:
            return
        machine.sampler = None
        if self.bus is not None:
            machine.set_bus(None)
        if self.txn is not None:
            machine.set_txn(None)
        runtime = machine.runtime
        runtime.lifetime = None
        runtime.scheduler.lifetime = None
        if self.profiler is not None:
            self.profiler.detach(machine)

    # -- exports -----------------------------------------------------------

    def perfetto(self):
        """The Chrome/Perfetto trace dict for the observed run."""
        if self.bus is None:
            raise ValueError("Observation was built with events=False")
        machine = self.machine
        lifetime = self._finalized_lifetime()
        return perfetto_trace(self.bus, len(machine.cpus), machine.time,
                              sampler=self.sampler, transactions=self.txn,
                              lifetime=lifetime)

    def write_perfetto(self, path):
        """Write the Perfetto trace JSON; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.perfetto(), handle)
        return path

    def write_txn(self, path):
        """Write the transaction trace JSON; returns the path."""
        if self.txn is None:
            raise ValueError("Observation was built with txn=False")
        return self.txn.write(path)

    def report(self, result=None, top=40):
        """Full machine report dict (stats + components + observations)."""
        return machine_report(self.machine, result=result, observation=self,
                              top=top)

    # -- lifetime accounting / critical path -------------------------------

    def _source_map(self):
        machine = self.machine
        if machine is None:
            return None
        return getattr(machine.program, "source_map", None)

    def _finalized_lifetime(self):
        """The accountant, finalized against the machine (or None)."""
        if self.lifetime is None or self.machine is None:
            return self.lifetime
        return self.lifetime.finalize(self.machine)

    def thread_accounting(self, top=None):
        """The per-thread cycle tables (see :mod:`repro.obs.lifetime`)."""
        lifetime = self._finalized_lifetime()
        if lifetime is None:
            raise ValueError("Observation was built with threads=False")
        return lifetime.to_dict(source_map=self._source_map(), top=top)

    def critical_path(self):
        """The :class:`~repro.obs.critpath.CriticalPath` of the run."""
        lifetime = self._finalized_lifetime()
        if lifetime is None:
            raise ValueError("Observation was built with threads=False")
        return _critpath_analyze(lifetime, source_map=self._source_map())

    def critpath_summary(self, top=3):
        """Compact per-cell summary for the experiment engine."""
        lifetime = self._finalized_lifetime()
        if lifetime is None:
            return None
        return _critpath_summarize(lifetime, source_map=self._source_map(),
                                   top=top)

    def explain_render(self, top=12):
        """Human-readable ``april explain`` report (accounting + path)."""
        source_map = self._source_map()
        lifetime = self._finalized_lifetime()
        if lifetime is None:
            raise ValueError("Observation was built with threads=False")
        path = _critpath_analyze(lifetime, source_map=source_map)
        return "%s\n\n%s" % (lifetime.render(source_map=source_map, top=top),
                             path.render(source_map=source_map, top=top))

    def explain(self, top=None, why_top=None):
        """The full ``april explain`` payload: accounting + critical path.

        Byte-stable across identical runs (dense tids, no wall-clock).
        """
        source_map = self._source_map()
        lifetime = self._finalized_lifetime()
        if lifetime is None:
            raise ValueError("Observation was built with threads=False")
        path = _critpath_analyze(lifetime, source_map=source_map)
        return {
            "threads": lifetime.to_dict(source_map=source_map, top=top),
            "critical_path": path.to_dict(source_map=source_map,
                                          top=why_top),
        }

    def to_dict(self, top=40):
        """The observation sections of the report."""
        data = {}
        if self.bus is not None:
            data["events"] = {
                "emitted": self.bus.emitted,
                "recorded": len(self.bus),
                "dropped": self.bus.dropped,
                "capacity": self.bus.capacity,
                "counts": self.bus.counts(),
            }
        if self.sampler is not None:
            data["timeline"] = self.sampler.to_dict()
        if self.profiler is not None:
            data["profile"] = self.profiler.to_dict(top=top)
        if self.txn is not None:
            data["transactions"] = self.txn.summary()
            data["histograms"] = self.txn.histograms.to_dict()
        if self.lifetime is not None and self.machine is not None:
            data["threads"] = self.thread_accounting(top=top)
        return data


def for_job(config):
    """The :class:`Observation` a sweep worker attaches for one job.

    Workers (see :mod:`repro.exp.runner`) capture each job's machine
    report; on a coherent-mode config they additionally trace
    transactions so the cached result carries the latency-histogram
    summary, and on any multiprocessor cell they run the lifetime
    accountant so the cached result carries a critical-path summary
    (``april speedup`` prints the dominant blocker per cell from it).
    None of these leaves the fast step, so every job keeps the JIT.
    Sequential ideal-mode runs return ``None``: the plain
    ``machine_report`` already covers everything observable there.
    """
    coherent = getattr(config, "memory_mode", "ideal") == "coherent"
    parallel = getattr(config, "num_processors", 1) > 1
    if not coherent and not parallel:
        return None
    return Observation(events=False, capacity=4096, window=0, profile=False,
                       txn=coherent, threads=parallel)
