"""JIT A/B smoke: the generated-code tier vs. the closure tier.

CI's ``jit-smoke`` job runs this after the lockstep exactness tests.
Both legs run the same program and must report the *same simulated
cycle count* (the JIT is exact); only the host wall clock differs.
``jit=False`` keeps the translation-cache fast path (one predecoded
closure per ``step()``), so the measured ratio isolates what the
generated code objects alone are worth.

Methodology: the process-wide shared block cache is warmed with one
throwaway run, then each leg takes the best of three timings.  Block
compilation is a fixed startup fee amortised across machines
(``repro.core.jit.SHARED_BLOCKS``), and minimum-of-reps is the
standard defence against noisy CI runners.  The sequential leg is the
gate (the JIT's win there is ~3-4x locally, floor 2x); the eager leg
is reported for information only — at smoke sizes its wall time is
dominated by runtime-system trap handlers and scheduler ping-pong,
which the JIT cannot touch (see EXPERIMENTS.md, "Superblock JIT").
"""

import time

from repro.lang.run import run_mult
from repro import workloads

#: The sequential leg must show at least this JIT/closure speed ratio.
FLOOR = 2.0

#: Sized for a CI smoke: a few seconds total, yet long enough that the
#: warm JIT ratio is stable (fib(14) sequential is ~170k cycles).
SEQ_N = 14
EAGER_N = 11
REPS = 3


def _best_of(source, jit, reps=REPS, **kwargs):
    """(cycles, best wall seconds) over ``reps`` identical runs."""
    best = None
    cycles = None
    for _ in range(reps):
        start = time.perf_counter()
        result = run_mult(source, jit=jit, **kwargs)
        elapsed = time.perf_counter() - start
        cycles = result.cycles
        best = elapsed if best is None else min(best, elapsed)
    return cycles, best


def test_jit_speedup():
    module = workloads.get("fib")
    source = module.source()

    # Warm SHARED_BLOCKS so the gate times steady-state execution, not
    # the one-off compile fee.
    run_mult(source, mode="sequential", args=(11,), jit=True)

    seq_kwargs = {"mode": "sequential", "args": (SEQ_N,)}
    jit_cycles, jit_s = _best_of(source, True, **seq_kwargs)
    closure_cycles, closure_s = _best_of(source, False, **seq_kwargs)
    assert jit_cycles == closure_cycles, (
        "JIT changed the simulated cycle count: %d vs %d"
        % (jit_cycles, closure_cycles))
    ratio = closure_s / jit_s
    print("sequential fib(%d): jit %.0f cycles/s, closure %.0f cycles/s "
          "-> %.2fx" % (SEQ_N, jit_cycles / jit_s,
                        closure_cycles / closure_s, ratio))

    eager_kwargs = {"mode": "eager", "processors": 2, "args": (EAGER_N,)}
    ecy_jit, eager_jit_s = _best_of(source, True, **eager_kwargs)
    ecy_clo, eager_closure_s = _best_of(source, False, **eager_kwargs)
    assert ecy_jit == ecy_clo, (
        "JIT changed the eager cycle count: %d vs %d" % (ecy_jit, ecy_clo))
    print("eager p2 fib(%d): jit %.0f cycles/s, closure %.0f cycles/s "
          "-> %.2fx (informational)"
          % (EAGER_N, ecy_jit / eager_jit_s, ecy_clo / eager_closure_s,
             eager_closure_s / eager_jit_s))

    assert ratio >= FLOOR, (
        "JIT sequential speedup %.2fx below the %.1fx floor "
        "(jit %.3fs vs closure %.3fs)" % (ratio, FLOOR, jit_s, closure_s))


if __name__ == "__main__":
    test_jit_speedup()
    print("jit A/B smoke: ok")
