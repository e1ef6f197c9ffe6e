"""Per-thread lifetime accountant: exact conservation, byte stability."""

import json

import pytest

from repro.lang.run import run_mult
from repro.machine.config import MachineConfig
from repro.obs import ConservationError, Observation
from repro.obs.lifetime import ONCPU_CLASS
from tests.obs.conftest import FIB, observed_run


def lifetime_run(n=8, processors=2, coherent=False, mode="eager"):
    """Run fib(n) with the accountant on; returns (result, observation)."""
    obs = Observation(events=False, window=0, threads=True,
                      txn=coherent)
    config = MachineConfig(
        num_processors=processors,
        memory_mode="coherent" if coherent else "ideal")
    result = run_mult(FIB, mode=mode, args=(n,), config=config, observe=obs)
    return result, obs


class TestConservation:
    """sum(attributed) == machine.time x nodes, exactly, everywhere."""

    @pytest.mark.parametrize("processors,coherent,mode", [
        (1, False, "eager"),
        (2, False, "eager"),
        (4, False, "eager"),
        (4, False, "lazy"),
        (2, True, "eager"),
    ])
    def test_exact_on_every_config(self, processors, coherent, mode):
        result, obs = lifetime_run(processors=processors, coherent=coherent,
                                   mode=mode)
        assert result.value == 21
        lifetime = obs.lifetime.finalize(obs.machine)
        cons = lifetime.check()       # raises on any imbalance
        assert cons["exact"]
        assert cons["attributed"] == cons["cycles_x_nodes"]
        assert cons["cycles_x_nodes"] == result.cycles * processors
        # Integer ledgers: no float slop, no "other" bucket anywhere.
        for ledger in lifetime.threads.values():
            for value in list(ledger.oncpu.values()) + list(
                    ledger.waits.values()):
                assert isinstance(value, int)
                assert value >= 0

    def test_per_node_attribution_balances(self):
        result, obs = lifetime_run(processors=4)
        lifetime = obs.lifetime.finalize(obs.machine)
        for node, skew in lifetime.node_skew.items():
            assert lifetime.node_attr[node] + skew == result.cycles

    def test_wall_ledger_tiles_each_life(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        for ledger in lifetime.threads.values():
            assert ledger.wall_total() == ledger.end_cycle - ledger.spawn_cycle
            # Segments are contiguous: each starts where the last ended.
            for prev, seg in zip(ledger.segments, ledger.segments[1:]):
                assert seg.start == prev.end

    def test_all_threads_finish_and_root_exit_anchors(self):
        result, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        assert all(l.done for l in lifetime.threads.values())
        assert lifetime.last_exit is not None
        cycle, _ = lifetime.last_exit
        assert cycle <= result.cycles

    def test_conservation_requires_finalize(self):
        _, obs = lifetime_run()
        with pytest.raises(ConservationError):
            obs.lifetime.conservation()

    def test_check_raises_on_tampered_ledger(self):
        _, obs = lifetime_run()
        lifetime = obs.lifetime.finalize(obs.machine)
        lifetime.check()
        tid = lifetime.order[0]
        lifetime.threads[tid].oncpu["running"] = (
            lifetime.threads[tid].oncpu.get("running", 0) + 1)
        with pytest.raises(ConservationError):
            lifetime.check()


class TestCategoryIdentity:
    """The ledger files each cycle under the category the processor
    counted it in, not just somewhere: conservation alone checks only
    totals."""

    @pytest.mark.parametrize("processors,coherent,mode", [
        (2, False, "eager"),
        (4, False, "lazy"),
        (4, True, "eager"),
    ])
    def test_oncpu_plus_overhead_equals_counters(self, processors,
                                                 coherent, mode):
        _, obs = lifetime_run(processors=processors, coherent=coherent,
                              mode=mode)
        lifetime = obs.lifetime.finalize(obs.machine)
        counted = {}
        filed = {}
        for cpu in obs.machine.cpus:
            node = cpu.node_id
            overhead = lifetime.node_overhead.get(node, {})
            attributed = 0
            for category, klass in ONCPU_CLASS.items():
                value = getattr(cpu.stats, category)
                attributed += value
                counted[klass] = counted.get(klass, 0) + value
                filed[klass] = (filed.get(klass, 0)
                                + overhead.get(category, 0))
                assert overhead.get(category, 0) <= value
            assert lifetime.node_attr[node] == attributed
        for ledger in lifetime.threads.values():
            for klass, cycles in ledger.oncpu.items():
                filed[klass] = filed.get(klass, 0) + cycles
        assert set(counted) == set(ONCPU_CLASS.values())
        for klass in counted:
            assert filed.get(klass, 0) == counted[klass], klass


class TestOwnerAttribution:
    """Charges with an empty frame land on the pushed owner, not limbo."""

    def test_scheduler_work_attributed_to_threads(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        # Every loaded thread pays its own load/unload switch cycles, so
        # the switch bucket is populated per thread while per-node
        # overhead holds only thread-free categories (idle polling).
        switched = [l for l in lifetime.threads.values()
                    if l.oncpu.get("switch_spin")]
        assert switched, "no thread carries its context-switch cycles"
        for bucket in lifetime.node_overhead.values():
            assert "useful" not in bucket

    def test_blocked_waits_carry_touch_sites(self):
        _, obs = lifetime_run(processors=2)
        lifetime = obs.lifetime.finalize(obs.machine)
        sites = {}
        for ledger in lifetime.threads.values():
            for pc, cycles in ledger.block_sites.items():
                sites[pc] = sites.get(pc, 0) + cycles
        assert sites, "no blocked-on-future wait recorded a touch pc"
        total_blocked = sum(l.waits.get("blocked_future", 0)
                            for l in lifetime.threads.values())
        assert sum(sites.values()) <= total_blocked


class TestByteStability:
    def test_two_runs_identical_json(self):
        _, first = lifetime_run(processors=2)
        _, second = lifetime_run(processors=2)
        one = first.thread_accounting()
        two = second.thread_accounting()
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_dense_ids_and_names_renumbered(self):
        _, obs = lifetime_run(processors=2)
        data = obs.thread_accounting()
        tids = [row["tid"] for row in data["threads"]]
        assert tids == list(range(len(tids)))
        for row in data["threads"]:
            if row["name"].startswith("thread-"):
                assert row["name"] == "thread-%d" % row["tid"]

    def test_top_keeps_heaviest_rows(self):
        _, obs = lifetime_run(processors=2)
        full = obs.thread_accounting()
        cut = obs.thread_accounting(top=3)
        assert len(cut["threads"]) == 3
        assert len(full["threads"]) > 3
        assert cut["conservation"] == full["conservation"]


class TestReportIntegration:
    def test_report_carries_threads_section(self):
        _, obs = observed_run(threads=True, window=0)
        report = obs.report()
        assert "threads" in report
        assert report["threads"]["conservation"]["exact"]

    def test_render_mentions_conservation(self):
        _, obs = lifetime_run(processors=2)
        text = obs.lifetime.finalize(obs.machine).render()
        assert "conservation: exact" in text
        assert "tid" in text
