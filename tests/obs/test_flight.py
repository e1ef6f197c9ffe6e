"""Flight recorder + hang watchdog: detection, post-mortems, the
fast-path eligibility contract (an event bus must not pin the machine
onto the reference loop), and the attach order with an Observation."""

import pytest

from repro.errors import HangDetected
from repro.isa.assembler import assemble
from repro.lang.run import build_mult_machine, run_mult
from repro.machine.alewife import AlewifeMachine
from repro.machine.config import MachineConfig
from repro.obs import EventKind, FlightRecorder, Watchdog
from repro.runtime import stubs
from repro.runtime.sync import SYNC_ASM

DEADLOCK = """
(define fa 0)
(define fb 0)
(define (worker-a n)
  (if (< n 1) (touch fb) (worker-a (- n 1))))
(define (worker-b n)
  (if (< n 1) (touch fa) (worker-b (- n 1))))
(define (main)
  (begin
    (set! fa (future-on 0 (worker-a 64)))
    (set! fb (future-on 1 (worker-b 64)))
    (+ (touch fa) (touch fb))))
"""

FIB = """
(define (fib n)
  (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
(define (main n) (fib n))
"""

# A consumer switch-spinning forever on an I-structure slot nobody will
# ever fill: the spin-storm (livelock) fixture.
STORM = """
main:
    set slot, a0
    st ra, [sp+0]
    addr sp, 4, sp
    call __ifetch
    subr sp, 4, sp
    ld [sp+0], ra
    ret

.align 8
slot:
    .word 0
"""


#: The three ways to drive a machine: ``run()`` on the fast step,
#: ``run()`` on the reference step, and the monitor's stepper.
DRIVERS = ("fast", "reference", "stepper")


def drive(machine, driver, **run_kwargs):
    """Run ``machine`` to completion the way ``driver`` names."""
    if driver != "stepper":
        return machine.run(**run_kwargs)
    stepper = machine.stepper(**run_kwargs)
    while stepper.step_machine() is not None:
        pass
    return stepper.result()


def _deadlocked_machine(interval=1024, fastpath=True):
    machine, compiled = build_mult_machine(DEADLOCK, processors=2,
                                           fastpath=fastpath)
    watchdog = Watchdog(interval=interval).attach(machine)
    return machine, compiled, watchdog


class TestDeadlockDetection:
    def test_deadlock_raises_hang_detected(self):
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected) as info:
            machine.run(entry=compiled.entry_label("main"),
                        max_cycles=50_000_000)
        exc = info.value
        assert exc.kind == "deadlock"
        # Detected within a couple of intervals, not at --max-cycles.
        assert exc.cycle < 20_000
        assert machine.time == exc.cycle

    def test_postmortem_names_the_wait_for_cycle(self):
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected) as info:
            machine.run(entry=compiled.entry_label("main"))
        pm = info.value.postmortem
        assert pm["kind"] == "deadlock"
        # worker-a <-> worker-b is the cycle; main hangs off it.
        assert len(pm["wait_for"]["cycles"]) == 1
        cycle = pm["wait_for"]["cycles"][0]
        assert len(cycle) == 2
        assert len(pm["wait_for"]["edges"]) == 3
        # Every blocked thread gets a disassembly window at its pc.
        assert len(pm["disassembly"]) == 3
        for section in pm["disassembly"]:
            assert "=>" in section["listing"]
        # Flight rings captured the tail of events on both nodes.
        assert len(pm["nodes"]) == 2
        assert all(node["last_events"] for node in pm["nodes"])

    def test_render_is_deterministic_across_runs(self):
        """Raw tids differ between in-process runs (process-global
        counter); the rendered post-mortem densifies them, so two
        identical runs produce byte-identical text."""
        machine_a, compiled, _ = _deadlocked_machine()
        machine_b = AlewifeMachine(compiled.program,
                                   MachineConfig(num_processors=2))
        Watchdog(interval=1024).attach(machine_b)
        texts = []
        for machine in (machine_a, machine_b):
            with pytest.raises(HangDetected) as info:
                machine.run(entry=compiled.entry_label("main"))
            texts.append(info.value.render())
        assert texts[0] == texts[1]
        assert "== HANG DETECTED: deadlock" in texts[0]
        assert "wait-for cycle:" in texts[0]

    def test_stepper_matches_run(self):
        """The monitor's stepper polls the watchdog like run() does:
        the same typed hang, at the same cycle, with the same text."""
        outcomes = []
        for driver in DRIVERS:
            machine, compiled, _ = _deadlocked_machine(
                fastpath=driver != "reference")
            with pytest.raises(HangDetected) as info:
                drive(machine, driver, entry=compiled.entry_label("main"))
            outcomes.append((info.value.kind, info.value.cycle,
                             info.value.render()))
        assert outcomes[0][:2] == ("deadlock", 2753)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_run_mult_watchdog_parameter(self):
        with pytest.raises(HangDetected):
            run_mult(DEADLOCK, processors=2, watchdog=Watchdog())


class TestLivelockDetection:
    def test_spin_storm_raises_livelock(self):
        """Every driver polls the watchdog at the same clocks, so each
        one names the storm at the same cycle."""
        source = stubs.thread_start_stub() + SYNC_ASM + STORM
        for processors, cycle in ((1, 4329), (2, 4160)):
            for driver in DRIVERS:
                config = MachineConfig(num_processors=processors)
                machine = AlewifeMachine(assemble(source), config,
                                         fastpath=driver != "reference")
                machine.memory.set_full(
                    machine.program.address_of("slot"), False)
                Watchdog(interval=1024).attach(machine)
                with pytest.raises(HangDetected) as info:
                    drive(machine, driver, max_cycles=50_000_000)
                exc = info.value
                assert exc.kind == "livelock"
                assert exc.cycle == cycle, (processors, driver)
                assert "spin" in exc.reason

    def test_legitimate_run_never_trips(self):
        """fib spawns, spins briefly on steals, and resolves futures —
        the storm detector must stay quiet (strikes + useful-cycle
        guard) and the result must be untouched."""
        watchdog = Watchdog(interval=512)
        result = run_mult(FIB, processors=4, args=(12,), watchdog=watchdog)
        assert result.value == 144


class TestFastPathEligibility:
    def test_watchdog_keeps_fast_loop(self):
        """The flight recorder's bus must not force the reference
        loop: an always-on recorder has to be cheap."""
        machine, compiled, _ = _deadlocked_machine()
        with pytest.raises(HangDetected):
            machine.run(entry=compiled.entry_label("main"))
        assert machine.loop_used == "fast"

    def test_detach_restores_dormancy(self):
        machine, compiled = build_mult_machine(FIB, processors=1)
        watchdog = Watchdog().attach(machine)
        assert machine.events is not None
        assert machine.watchdog is watchdog
        watchdog.detach()
        assert machine.events is None
        assert machine.watchdog is None
        result = machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert result.value == 55
        assert machine.loop_used == "fast"

    def test_existing_observation_bus_is_reused(self):
        """When an Observation already owns the event bus, the recorder
        subscribes to it instead of installing a second bus, and the
        shared bus keeps the fast loop."""
        from repro.obs import Observation
        machine, compiled = build_mult_machine(FIB, processors=1)
        obs = Observation(events=True)
        obs.attach(machine)
        flight = FlightRecorder()
        flight.attach(machine)
        assert machine.events is obs.bus
        result = machine.run(entry=compiled.entry_label("main"), args=(8,))
        assert result.value == 21
        assert machine.loop_used == "fast"
        assert machine.cpus[0].jit_runs > 0
        assert any(flight.rings.values())

    def test_observation_then_watchdog_fills_rings(self):
        """The working order: the watchdog's recorder subscribes to the
        Observation's bus, so a hang post-mortem keeps its event tails."""
        from repro.obs import Observation
        machine, compiled = build_mult_machine(FIB, processors=2)
        obs = Observation(events=True)
        obs.attach(machine)
        watchdog = Watchdog().attach(machine)
        result = machine.run(entry=compiled.entry_label("main"), args=(9,))
        assert result.value == 34
        assert machine.events is obs.bus
        assert sum(len(ring) for ring in watchdog.flight.rings.values()) > 0

    def test_watchdog_then_observation_is_refused(self):
        """The other order would replace the recorder's bus and leave
        its rings empty; the machine refuses it and names the order."""
        from repro.obs import Observation
        machine, _ = build_mult_machine(FIB, processors=2)
        watchdog = Watchdog().attach(machine)
        recorder_bus = machine.events
        with pytest.raises(ValueError, match="Observation before"):
            Observation(events=True).attach(machine)
        assert machine.events is recorder_bus
        assert all(cpu.events is recorder_bus for cpu in machine.cpus)
        assert machine.sampler is None
        watchdog.detach()

    def test_flight_events_match_reference_loop(self):
        """Same program, fast loops vs reference loop: the coarse rings
        must hold identical (cycle, kind) tails — the lockstep proof
        that coarse subscription sees the same machine."""
        tails = []
        for fastpath in (True, False):
            machine, compiled = build_mult_machine(
                FIB, processors=2, fastpath=fastpath)
            flight = FlightRecorder(per_node=256)
            flight.attach(machine)
            result = machine.run(entry=compiled.entry_label("main"),
                                 args=(9,))
            assert result.value == 34
            tails.append([
                [(e.cycle, e.kind.value) for e in machine_ring]
                for machine_ring in
                (flight.rings[n] for n in sorted(flight.rings))])
        assert tails[0] == tails[1]


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        machine, compiled = build_mult_machine(FIB, processors=1)
        flight = FlightRecorder(per_node=16)
        flight.attach(machine)
        machine.run(entry=compiled.entry_label("main"), args=(10,))
        assert all(len(ring) <= 16 for ring in flight.rings.values())
        assert flight.rings[0]

    def test_coarse_bus_excludes_cache_noise(self):
        from repro.obs.flight import COARSE_KINDS
        assert EventKind.CACHE_EVICT not in COARSE_KINDS
        assert EventKind.DIRECTORY_READ not in COARSE_KINDS
        assert EventKind.TRAP_ENTER in COARSE_KINDS
        assert EventKind.CONTEXT_SWITCH in COARSE_KINDS
