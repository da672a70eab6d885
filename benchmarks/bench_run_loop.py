"""Supplementary — the quantum-batched register run loop.

Rows time the run loops (:func:`repro.machine.step.run_quantum` /
``run_quantum_compiled``), which hold the control registers in Python
locals for a whole quantum, on three shapes chosen to stress different
parts of the loop:

* ``arith-loop`` — a tight tail loop of trivial applications: the
  best case for register batching (almost every transition stays in
  locals, one write-back per quantum);
* ``mutual-deep`` — deep mutual recursion: frame pushes and link
  deliveries dominate, exercising the fused one-frame delivery path;
* ``pcall-fan-out`` — a 64-branch ``pcall``: every fork and join is a
  spill point, so batching buys the least; this row bounds the spill
  protocol's overhead rather than its savings.

The quantum sweep on ``arith-loop`` shows where the amortisation
flattens out: quantum=1 pays a spill per step, and by a few hundred steps per
quantum the write-back cost has vanished into the noise.
"""

from __future__ import annotations

import pytest

from repro import Interpreter

ARITH_LOOP = (
    "(define (spin n acc) (if (= n 0) acc (spin (- n 1) (+ acc 1))))",
    "(spin 4000 0)",
)

MUTUAL_DEEP = (
    "(begin"
    " (define (even? n) (if (= n 0) #t (odd? (- n 1))))"
    " (define (odd? n) (if (= n 0) #f (even? (- n 1)))))",
    "(even? 6000)",
)

PCALL_FAN_OUT = (
    "(define (work n) (if (= n 0) 1 (work (- n 1))))",
    "(pcall + " + " ".join("(work 32)" for _ in range(64)) + ")",
)

SHAPES = {
    "arith-loop": ARITH_LOOP,
    "mutual-deep": MUTUAL_DEEP,
    "pcall-fan-out": PCALL_FAN_OUT,
}


def fresh(*, engine: str = "compiled", quantum: int = 4096, **kwargs) -> Interpreter:
    return Interpreter(policy="round-robin", engine=engine, quantum=quantum, **kwargs)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_run_loop_timing(benchmark, shape):
    setup, expr = SHAPES[shape]
    interp = fresh()
    interp.run(setup)
    benchmark(lambda: interp.eval(expr))


@pytest.mark.parametrize("quantum", [1, 16, 256, 4096])
def test_quantum_sweep_timing(benchmark, quantum):
    setup, expr = ARITH_LOOP
    # analysis=False: the grant would enlarge the quantum of this
    # single-task loop and flatten the sweep.
    interp = fresh(quantum=quantum, analysis=False)
    interp.run(setup)
    benchmark(lambda: interp.eval(expr))


@pytest.mark.parametrize("engine", ["dict", "compiled", "codegen"])
def test_engine_run_loops(benchmark, engine):
    # dict runs run_quantum; compiled and codegen share
    # run_quantum_compiled.
    setup, expr = ARITH_LOOP
    interp = fresh(engine=engine)
    interp.run(setup)
    benchmark(lambda: interp.eval(expr))


def test_write_backs_avoided_scale_with_quantum():
    print("\nRun loop  spill profile vs quantum (arith-loop)")
    setup, expr = ARITH_LOOP
    rows = []
    for quantum in (1, 16, 256, 4096):
        interp = fresh(quantum=quantum, profile=True, analysis=False)
        interp.run(setup)
        interp.eval(expr)
        stats = interp.stats
        avoided = stats["vm.allocations_avoided"]
        steps = stats["vm.quantum_steps"]
        rows.append((quantum, avoided, steps))
        print(
            f"  quantum={quantum:5d}: steps={steps:6d} quanta={stats['vm.quanta']:6d}"
            f" write-backs avoided={avoided}"
        )
    # quantum=1 spills every step; larger quanta avoid nearly all of them.
    assert rows[0][1] == 0
    assert rows[-1][1] > rows[-1][2] * 0.95
