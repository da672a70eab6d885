"""What the benchmark measures: workloads, their fixed rates, and how.

``BENCHMARK.json`` at the repository root is the one list of workload
and metric names, units, directions and bounds; :mod:`run` reads it and
checks that each workload's ``why`` line states the ladder given here.
This module holds what that file has no key for -- each workload's
backend, rate ladder, low and high rungs, latency limit, phase sizes and
the layers it stresses or bypasses -- and the reasons a per-layer metric
reads 0 on a workload.

Every end-to-end metric is measured on every workload:

* ``setup_s`` -- launch of the process hosting the system until it is
  ready (every workload session warmed by one request), median of the
  workload's ``setups`` launches in one run.
* ``p50_ms.low`` / ``p50_ms.high`` -- median latency of the serve mix at
  the workload's fixed low and high rate, from each request's due time
  to its terminal answer: the mean of the middle half of the ROUNDS
  round medians (see ``load.Phase.p50_rounds``).
* ``max_rps`` -- the achieved rate of the fastest probe whose p99 meets
  the latency limit with no growing backlog and <= 1% misses: the climb
  goes up the ladder until a rung fails (every one of PROBE_TRIES probes
  at it), then halves the gap between the last passing rate and the
  failing one BISECT_STEPS times (geometrically).  Each probe is one
  long round, so each of its connections carries hundreds of requests
  and what a connection's age costs the gateway shows here.
* ``compute_s`` / ``control_s`` -- CPU time the processes hosting the
  system spend on the compute and control program sets: the sum over
  the set's programs of each program's mean over the run's passes.
  CPU time, not wall time, because hypervisor steal stretches wall time
  by up to 2x and the scheduler's CPU time leaves it out; the wall
  times are printed beside them.
* ``peak_rss_mb`` -- peak RSS summed over the processes hosting the
  system, read before the max_rps climb.

The system runs on one CPU and the load generator on another, and every
metric but ``peak_rss_mb`` is reported *at reference speed*: scaled by
the speed factor of the system's CPU over exactly the interval it
measured (a set-up, a round, a probe, a program run), so that it follows
the program rather than the speed the shared machine gave that CPU (see
:mod:`speed`).  ``compute_s`` and ``control_s``, CPU time spent
interpreting, take the whole factor; the latencies, ``max_rps`` and
``setup_s``, which also wait on system calls, memory, other processes and
timers, take its square root (``speed.PART``).  For ``max_rps`` the
ladder's rates are at reference speed: each probe offers its rate times
the factor of the RECENT_S before it to that power, and its achieved
rate is divided by the same.  Every run prints each metric but
``max_rps`` as measured beside its value at reference speed.

While a run measures, an idle-priority busy loop on each CPU keeps the
CPUs from halting (see ``speed.Spinners``): on a virtual machine the
hypervisor's delay in handing a halted CPU back, which it reports as
steal, otherwise lands in every latency and rate and swings with the
neighbours' load.  The steal share a run still saw is printed and flags
the run above STEAL_LIMIT.

Each phase report also prints its tail (p99 where at least ten samples
lie beyond it, else the highest of p98/p95/p90 that has them) with the
sample count.  Tails are printed, not gated: on a 2-core virtual machine
with hypervisor steal their run-to-run spread exceeds any bound the
benchmark may set.

On ``programs`` the serve mix goes straight to an in-process ``Host``
(no gateway, no sockets) and the program sets run on an in-process
``Interpreter``; on ``serve-*`` both go through the gateway, so the
difference between workloads isolates the layers in between.
"""

from __future__ import annotations

from dataclasses import dataclass

from load import Ladder

#: Rounds per rate phase; the low and high rounds and the program passes
#: interleave, and a phase's p50 is the mean of the middle half of its
#: rounds' p50s.
ROUNDS = 12
#: Closed-loop serve requests in each deterministic count pass.
COUNT_PASS_REQUESTS = 120
#: Requests in the traced low-rate phase and in its untraced reference.
TRACE_PHASE_REQUESTS = 300
#: Length of one max_rps probe at the nominal run length, and the least
#: requests a probe sends: a probe passes with at most 1% of them late,
#: and with fewer a single late answer would fail it.
PROBE_S = 1.5
PROBE_MIN_REQUESTS = 300
#: Geometric halvings of the gap between the last passing rung and the
#: first failing one.
BISECT_STEPS = 4
#: Probes at one rate before it counts as failed.
PROBE_TRIES = 2
#: A probe at reference speed offers its rate times the speed factor of
#: this many seconds before it.
RECENT_S = 1.0
#: A phase whose generator lag p99 exceeds this is flagged invalid.
LAG_LIMIT_MS = 10.0
#: A run where hypervisor steal exceeds this share of busy CPU time is
#: flagged invalid.
STEAL_LIMIT = 0.2
#: Never used while tuning; kept for confirming later claims.
HELD_OUT_SEED = 424242


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "host" | "cluster" | "inprocess"
    ladder: Ladder
    rung_requests: int  # requests at each of the low and high rates
    program_passes: int  # passes over both program sets
    setups: int  # set-ups per run; setup_s is their median
    why: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]


WORKLOADS = {
    "serve-host": Workload(
        name="serve-host",
        backend="host",
        ladder=Ladder(rates=(100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0), low=100.0, high=200.0,
                      limit_ms=250.0),
        rung_requests=900,
        program_passes=10,
        setups=4,
        why=(
            "Per-request machine work is tiny, so the gateway wire path and the "
            "front end take most of the server time."
        ),
        stresses=("gateway", "host", "reader", "expander", "ir.resolve", "analysis", "ir.compile"),
        bypasses=("cluster", "snapshot"),
    ),
    "serve-cluster": Workload(
        name="serve-cluster",
        backend="cluster",
        ladder=Ladder(rates=(20.0, 30.0, 60.0, 120.0, 240.0), low=20.0, high=30.0,
                      limit_ms=500.0),
        rung_requests=200,
        program_passes=8,
        setups=3,
        why=(
            "Snapshot encode dominates each shard round trip and the dispatcher "
            "runs one at a time; the mix matches serve-host, so the difference "
            "isolates the backend."
        ),
        stresses=("gateway", "cluster", "snapshot", "host", "reader", "expander",
                  "ir.resolve", "analysis", "ir.compile"),
        bypasses=(),
    ),
    "programs": Workload(
        name="programs",
        backend="inprocess",
        ladder=Ladder(rates=(900.0, 1200.0, 2400.0, 4800.0, 9600.0), low=900.0, high=1200.0,
                      limit_ms=100.0),
        rung_requests=3000,
        program_passes=12,
        setups=5,
        why=(
            "The front end runs once per program and no network or snapshot layer "
            "is involved, so machine and control take the time; the control set "
            "carries the paper's section 7 claim."
        ),
        stresses=("machine", "control", "host"),
        bypasses=("gateway", "cluster", "snapshot"),
    ),
}

#: The counts checked to repeat exactly across two count passes (and
#: across runs of the same workload, seed and source tree).
DETERMINISTIC = (
    "frontend.forms",
    "analysis.grants",
    "machine.steps",
    "vm.quanta",
    "control.captures",
    "control.reinstatements",
    "control.forks",
    "snapshot.bytes",
)

#: Why a per-layer metric reads 0 on a workload: the layer is bypassed,
#: not unmeasurable.  Every per-layer metric is timed from outside.
BYPASSED = {
    "serve-host": "cluster.* and snapshot.* are 0: a Host backend has no shards or snapshots.",
    "serve-cluster": "none.",
    "programs": (
        "gateway.* and cluster.* and snapshot.* are 0: requests go straight to an "
        "in-process Host and Interpreter."
    ),
}
