"""Supplementary — raw interpreter throughput on classic workloads.

Not a paper claim: a baseline so regressions in the machine (which
every E-experiment runs on) are visible.  Standard tiny benchmarks:
fib, tak, list-heavy code, deep mutual recursion, and their pcall
variants.
"""

from __future__ import annotations

import pytest

from repro import Interpreter

WORKLOADS = {
    "fib-15": ("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))", "(fib 15)", 610),
    "tak-12-8-4": (
        """
        (define (tak x y z)
          (if (not (< y x))
              z
              (tak (tak (- x 1) y z)
                   (tak (- y 1) z x)
                   (tak (- z 1) x y))))
        """,
        "(tak 12 8 4)",
        5,
    ),
    "list-ops": (
        "",
        "(length (reverse (append (iota 300) (map add1 (iota 300)))))",
        600,
    ),
    "mutual-recursion": (
        """
        (define (even2? n) (if (= n 0) #t (odd2? (- n 1))))
        (define (odd2? n) (if (= n 0) #f (even2? (- n 1))))
        """,
        "(even2? 20000)",
        True,
    ),
    "pfib-10": (
        "(define (pfib n) (if (< n 2) n (pcall + (pfib (- n 1)) (pfib (- n 2)))))",
        "(pfib 10)",
        55,
    ),
    "vector-sieve": (
        """
        (define (sieve n)
          (let ([v (make-vector n #t)])
            (let loop ([i 2] [count 0])
              (cond
                [(>= i n) count]
                [(vector-ref v i)
                 (let mark ([j (* i i)])
                   (when (< j n)
                     (vector-set! v j #f)
                     (mark (+ j i))))
                 (loop (+ i 1) (+ count 1))]
                [else (loop (+ i 1) count)]))))
        """,
        "(sieve 500)",
        95,
    ),
}


@pytest.mark.parametrize("engine", ["compiled", "dict"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_baseline_timing(benchmark, name, engine):
    setup, expr, expected = WORKLOADS[name]
    interp = Interpreter(engine=engine)
    if setup:
        interp.run(setup)

    result = benchmark(lambda: interp.eval(expr))
    if isinstance(expected, bool):
        assert result is expected
    else:
        assert result == expected


def test_steps_per_workload_report():
    print("\nBaseline  machine steps per workload (compiled / dict)")
    for name, (setup, expr, _expected) in WORKLOADS.items():
        counts = []
        for engine in ("compiled", "dict"):
            interp = Interpreter(engine=engine)
            if setup:
                interp.run(setup)
            before = interp.machine.steps_total
            interp.eval(expr)
            counts.append(interp.machine.steps_total - before)
        print(f"  {name:18s} {counts[0]:>9d} / {counts[1]:>9d} steps")
