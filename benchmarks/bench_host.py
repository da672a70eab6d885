#!/usr/bin/env python
"""Host-runtime benchmark: multi-session throughput, fairness and the
deadline-enforcement divergence gate.

    PYTHONPATH=src python benchmarks/bench_host.py           # full run
    PYTHONPATH=src python benchmarks/bench_host.py --smoke   # CI mode
    PYTHONPATH=src python benchmarks/bench_host.py --out x.json

Three measurements:

* **Throughput** — the same batch of capture-heavy requests (the E1
  product workload and ``sum-of-products``) served two ways: one
  serial :class:`Interpreter` evaluating them back to back, and a
  :class:`Host` multiplexing them across 8 sessions tick by tick.
  Multiplexing costs context rotation, so the gate is an *overhead
  ceiling*: host throughput must stay within 15% of serial
  (``host_over_serial ≥ 0.85``).  CPU time (``process_time``),
  best-of-N, for runner stability.
* **Fairness** — 8 identical sessions under each host policy; reports
  the per-session served-steps spread (max/min) and each session's
  completion tick.  Round-robin must finish identical workloads on the
  same tick.
* **Deadline divergence** — the acceptance gate CI keys on: a doomed
  request with a per-request step budget must fail with
  :class:`StepBudgetExceeded` at *exactly* the budget — same step
  count, same exception — across every engine × task policy × machine
  quantum, and a wall-clock deadline of 0 must run *zero* steps in
  every configuration.  Any spread between configurations is a
  divergence and fails the run.

``--smoke`` (CI) runs the divergence matrix plus a single-repeat
throughput pass whose ratio is reported but not gated (shared runners);
the full run gates the 0.85× floor too.  Results merge into
``BENCH_results.json`` under the ``"host"`` key, preserving whatever
``run_all.py`` already wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_ROOT, "src")):
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.api import Interpreter  # noqa: E402
from repro.errors import StepBudgetExceeded  # noqa: E402
from repro.host import Host, Session  # noqa: E402
from repro.machine.scheduler import ENGINES  # noqa: E402

#: Host throughput must stay within 15% of the serial baseline.
THROUGHPUT_FLOOR = 0.85

HOST_POLICIES = ("round-robin", "deficit")
DIVERGENCE_POLICIES = ("serial", "round-robin")
DIVERGENCE_QUANTA = (1, 16, 4096)
DOOMED_BUDGET = 2_000

N_SESSIONS = 8
REQUESTS_PER_SESSION = 4

_PRODUCT = "(" + " ".join("2" for _ in range(120)) + ")"

#: (paper example to preload, request expression) — capture-heavy on
#: purpose: suspended trees with captures are what the host suspends
#: and resumes between ticks.
WORKLOADS = [
    ("product-callcc", f"(product '{_PRODUCT})"),
    ("sum-of-products", "(sum-of-products '(1 2 3 4) '(5 6 7 8))"),
]

LOOP = "(define (loop n) (loop (+ n 1)))"


def _requests() -> list[tuple[str, str]]:
    reqs = []
    for i in range(N_SESSIONS * REQUESTS_PER_SESSION):
        reqs.append(WORKLOADS[i % len(WORKLOADS)])
    return reqs


def _time_serial(engine: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        interp = Interpreter(engine=engine)
        for example in {w[0] for w in WORKLOADS}:
            interp.load_paper_example(example)
        reqs = _requests()
        start = time.process_time()
        for _, expr in reqs:
            interp.eval(expr)
        best = min(best, time.process_time() - start)
    return best


def _time_host(engine: str, policy: str, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        host = Host(policy=policy, quantum=512)
        sessions = []
        for k in range(N_SESSIONS):
            sess = host.session(f"s{k}", engine=engine)
            for example in {w[0] for w in WORKLOADS}:
                sess.load_paper_example(example)
            sessions.append(sess)
        reqs = _requests()
        start = time.process_time()
        handles = [
            host.submit(sessions[i % N_SESSIONS], expr)
            for i, (_, expr) in enumerate(reqs)
        ]
        host.run_until_idle()
        elapsed = time.process_time() - start
        assert all(h.exception() is None for h in handles)
        best = min(best, elapsed)
    return best


def run_throughput(repeats: int) -> dict[str, object]:
    print("\n=== host throughput vs serial (8 sessions, capture-heavy) ===")
    out: dict[str, object] = {}
    for engine in ENGINES:
        serial_s = _time_serial(engine, repeats)
        row: dict[str, object] = {"serial_s": serial_s}
        for policy in HOST_POLICIES:
            host_s = _time_host(engine, policy, repeats)
            ratio = serial_s / host_s if host_s else float("inf")
            row[f"host_{policy}_s"] = host_s
            row[f"host_over_serial_{policy}"] = round(ratio, 3)
            print(
                f"  {engine:9s} {policy:12s} serial={serial_s * 1e3:8.2f}ms  "
                f"host={host_s * 1e3:8.2f}ms  host/serial={ratio:5.2f}x"
            )
        out[engine] = row
    return out


def run_fairness() -> dict[str, object]:
    print("\n=== fairness (8 identical sessions) ===")
    out: dict[str, object] = {}
    for policy in HOST_POLICIES:
        host = Host(policy=policy, quantum=256)
        handles = []
        for k in range(N_SESSIONS):
            sess = host.session(f"s{k}", prelude=False)
            handles.append(
                host.submit(
                    sess, "(let loop ([i 0]) (if (= i 4000) i (loop (+ i 1))))"
                )
            )
        finish_tick: dict[int, int] = {}
        tick = 0
        while not host.idle:
            host.tick()
            tick += 1
            for k, handle in enumerate(handles):
                if handle.done() and k not in finish_tick:
                    finish_tick[k] = tick
        served = [sess.stats["session.steps_served"] for sess in host]
        spread = max(served) / min(served) if min(served) else float("inf")
        same_tick = len(set(finish_tick.values())) == 1
        out[policy] = {
            "ticks": tick,
            "steps_spread": round(spread, 4),
            "finish_ticks": sorted(set(finish_tick.values())),
            "identical_finish_tick": same_tick,
        }
        print(
            f"  {policy:12s} ticks={tick:4d} spread={spread:.3f}x "
            f"finish-ticks={sorted(set(finish_tick.values()))}"
        )
    return out


def run_divergence() -> dict[str, object]:
    """The gate: budget enforcement must be bit-identical across the
    engine × policy × quantum matrix."""
    print("\n=== deadline-enforcement divergence (engines × policies × quanta) ===")
    budget_cells: dict[str, object] = {}
    zero_cells: dict[str, object] = {}
    for engine in ENGINES:
        for policy in DIVERGENCE_POLICIES:
            for quantum in DIVERGENCE_QUANTA:
                label = f"{engine}/{policy}/q{quantum}"
                session = Session(engine=engine, policy=policy, quantum=quantum)
                session.run(LOOP)
                doomed = session.submit("(loop 0)", max_steps=DOOMED_BUDGET)
                while not doomed.done():
                    session.pump(777)  # deliberately misaligned chunks
                exc = doomed.exception()
                budget_cells[label] = (
                    f"{type(exc).__name__}@{doomed.steps}"
                    if isinstance(exc, StepBudgetExceeded)
                    else f"UNEXPECTED:{exc!r}"
                )
                instant = session.submit("(loop 0)", deadline=0.0)
                session.pump(1 << 20)
                zero_cells[label] = f"{type(instant.exception()).__name__}@{instant.steps}"
                # The session must survive both misses intact:
                if session.eval("(+ 40 2)") != 42:
                    budget_cells[label] = "SESSION CORRUPTED"
    budget_agree = len(set(budget_cells.values())) == 1 and all(
        v == f"StepBudgetExceeded@{DOOMED_BUDGET}" for v in budget_cells.values()
    )
    zero_agree = len(set(zero_cells.values())) == 1 and all(
        v == "DeadlineExceeded@0" for v in zero_cells.values()
    )
    print(f"  step-budget cells : {sorted(set(budget_cells.values()))}")
    print(f"  zero-deadline cells: {sorted(set(zero_cells.values()))}")
    marker = "ok " if budget_agree and zero_agree else "DIVERGED"
    print(f"  [{marker}] {len(budget_cells)} configurations each")
    return {
        "budget": budget_cells,
        "zero_deadline": zero_cells,
        "budget_agree": budget_agree,
        "zero_deadline_agree": zero_agree,
        "agree": budget_agree and zero_agree,
    }


def _merge_out(path: str, host_payload: dict[str, object]) -> None:
    data: dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["host"] = host_payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_results.json"),
        help="result JSON path; the host section merges into an "
        "existing run_all.py file (default: BENCH_results.json)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: divergence gated, single-repeat throughput "
        "reported but not gated (shared runners)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)

    divergence = run_divergence()
    throughput = run_throughput(repeats)
    fairness = run_fairness()

    ratios = {
        f"{engine}/{policy}": throughput[engine][f"host_over_serial_{policy}"]  # type: ignore[index]
        for engine in ENGINES
        for policy in HOST_POLICIES
    }
    throughput_ok = all(r >= THROUGHPUT_FLOOR for r in ratios.values())
    fairness_ok = bool(fairness["round-robin"]["identical_finish_tick"])  # type: ignore[index]
    if args.smoke:
        acceptance_pass = bool(divergence["agree"]) and fairness_ok
    else:
        acceptance_pass = bool(divergence["agree"]) and fairness_ok and throughput_ok

    payload = {
        "sessions": N_SESSIONS,
        "requests_per_session": REQUESTS_PER_SESSION,
        "repeats": repeats,
        "smoke": args.smoke,
        "throughput": throughput,
        "fairness": fairness,
        "divergence": divergence,
        "acceptance": {
            "throughput_floor": THROUGHPUT_FLOOR,
            "host_over_serial": ratios,
            "throughput_ok": throughput_ok,
            "fairness_ok": fairness_ok,
            "divergence_ok": divergence["agree"],
            "pass": acceptance_pass,
        },
    }
    _merge_out(args.out, payload)
    print(f"\nwrote host section to {args.out}")
    status = "pass" if acceptance_pass else "FAIL"
    worst = min(ratios, key=lambda k: ratios[k])
    print(
        f"acceptance [{status}]: divergence_ok={divergence['agree']} "
        f"fairness_ok={fairness_ok} worst host/serial {worst}={ratios[worst]:.2f}x "
        f"(floor {THROUGHPUT_FLOOR}x"
        + (", not gated in --smoke" if args.smoke else "")
        + ")"
    )
    return 0 if acceptance_pass else 1


if __name__ == "__main__":
    sys.exit(main())
