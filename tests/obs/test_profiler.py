"""Hot-path profiler: cycle attribution and source-line folding."""

from tests.obs.conftest import observed_run


def profiled_run(**kwargs):
    kwargs.setdefault("events", False)
    kwargs.setdefault("window", 0)
    return observed_run(profile=True, **kwargs)


class TestHotPathProfiler:
    def test_accounts_for_most_of_the_run(self):
        result, obs = profiled_run(n=8, processors=2)
        profiler = obs.profiler
        assert result.value == 21
        # Every cycle between first and last fetch on each processor is
        # charged to some PC; only the tail after the final fetch on
        # each CPU escapes, so the profile covers nearly the whole run.
        machine_cycles = sum(cpu.cycles for cpu in obs.machine.cpus)
        assert profiler.total_cycles > 0.9 * machine_cycles
        assert profiler.total_cycles <= machine_cycles

    def test_flat_costs_fold_to_lines_exactly(self):
        _, obs = profiled_run(n=7)
        flat = obs.profiler.flat()
        by_line = obs.profiler.by_line()
        assert sum(e.cycles for e in flat) == obs.profiler.total_cycles
        assert sum(e.cycles for e in by_line) == obs.profiler.total_cycles
        assert sum(e.count for e in by_line) == sum(e.count for e in flat)
        # Folding can only shrink the entry count.
        assert len(by_line) <= len(flat)

    def test_source_line_attribution(self):
        _, obs = profiled_run(n=8, processors=2)
        mapped = [e for e in obs.profiler.by_line() if e.source is not None]
        assert mapped, "compiler source map produced no attributions"
        # Nearly every profiled cycle lands on a mapped line: the Mul-T
        # compiler emits a source map for all the code it generates.
        mapped_cycles = sum(e.cycles for e in mapped)
        assert mapped_cycles > 0.95 * obs.profiler.total_cycles
        # fib is dominated by future machinery: the trap instructions
        # (task create / future touch stubs) must carry most of the
        # cost — the attribution convention charges handler cycles to
        # the provoking instruction.
        trap_cycles = sum(
            e.cycles for e in mapped if e.source[1].startswith("trap"))
        assert trap_cycles > 0.5 * obs.profiler.total_cycles

    def test_report_renders(self):
        _, obs = profiled_run(n=7)
        text = obs.profiler.report(top=5)
        assert "hot paths" in text
        assert "line" in text
        flat_text = obs.profiler.report(top=5, lines=False)
        assert "0x" in flat_text

    def test_to_dict_top_limits_entries(self):
        _, obs = profiled_run(n=7)
        data = obs.profiler.to_dict(top=3)
        assert len(data["flat"]) == 3
        assert len(data["by_line"]) <= 3
        assert data["total_cycles"] == obs.profiler.total_cycles
        for entry in data["flat"]:
            assert set(entry) >= {"count", "cycles", "pc"}

    def test_detach_stops_profiling(self):
        _, obs = profiled_run(n=6)
        total = obs.profiler.total_cycles
        obs.detach()
        for cpu in obs.machine.cpus:
            assert cpu.instr_hooks == []
        assert obs.profiler.total_cycles == total
