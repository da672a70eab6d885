"""The repository benchmark: one command per workload run.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-host --seed 1 --seconds 24 --trace 0

``--workload`` is ``serve-host``, ``serve-cluster`` or ``programs``
(see :mod:`spec`).  ``--trace 0`` measures every end-to-end metric with
no tracing; ``--trace 1`` installs the layer wrappers of :mod:`spans`
and reports every per-layer metric instead.  Every answer is checked
against the generator's own result; any wrong answer makes the run exit
1.  Human-readable reports go first (each phase with its sample count,
tail and generator lag); the last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The system runs on the first CPU the run may use and the load generator
on the last; every time and rate is scaled to reference speed (see
:mod:`speed` and :mod:`spec`).

Spans of a traced run are written under ``.perfbench/trace/<workload>/``;
deterministic counts under ``.perfbench/counts/``, keyed by workload,
seed and a digest of the sources under ``src/``, so a second traced run
of the same code, workload and seed is checked against the first.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
from time import perf_counter
from typing import Any

ROOT = os.getcwd()
#: The run length BENCHMARK.json declares; the phase sizes in spec.py
#: are for this length and scale with --seconds.
NOMINAL_SECONDS = 24
#: Hard stop for one run (the contract allows 180 s).
WATCHDOG_S = 170
HASH_SEED = "0"


def bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: src/repro not found under the current directory; "
            "run from the repository root"
        )
    sys.path.insert(0, src)


def report(tag: str, obj: Any) -> None:
    print(f"{tag}: {json.dumps(obj, sort_keys=True)}", flush=True)


class Result:
    """Everything a run checks, counts and measures."""

    def __init__(self, gauge: Any) -> None:
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: dict[str, float] = {}
        self.invalid: list[str] = []

    def add_phase(self, label: str, ph: Any, limit_ms: float = 1e9, *, probe: bool = False) -> None:
        """Count a phase and report it; a probe rung above the high rate
        may fail, and then its generator lag says nothing."""
        from spec import LAG_LIMIT_MS

        self.attempted += ph.attempted
        self.failed += ph.misses
        self.wrong += ph.wrong
        summary = ph.summary(limit_ms / 1e3, self.gauge if ph.windows else None)
        lag = summary["lag_p99_ms"]
        if ph.rate and not probe and lag is not None and lag > LAG_LIMIT_MS:
            self.invalid.append(f"{label}: generator lag p99 {lag} ms > {LAG_LIMIT_MS} ms")
        report(f"phase {label}", summary)
        for example in ph.wrong_examples:
            print(f"  wrong: {example}", flush=True)

    def add_programs(self, label: str, n: int, bad: list[str]) -> None:
        self.attempted += n
        self.failed += len(bad)
        self.wrong += len(bad)
        for item in bad:
            print(f"  {label} program wrong: {item}", flush=True)

    def note_steal(self, before: list[int] | None, after: list[int] | None) -> None:
        """Flag the run when the hypervisor took more than STEAL_LIMIT of
        the CPU time the machine tried to use: its wall-clock figures
        then measure the neighbours as much as the program."""
        from load import steal_share
        from spec import STEAL_LIMIT

        if before is None or after is None:
            return
        share = steal_share(before, after)
        report("hypervisor steal", {"share_of_busy": round(share, 3)})
        if share > STEAL_LIMIT:
            self.invalid.append(f"hypervisor steal {share:.0%} of busy CPU > {STEAL_LIMIT:.0%}")

    def emit(self, declared: list[dict[str, Any]]) -> int:
        """Print the validity report and the result line with the metrics
        ``declared`` (BENCHMARK.json's entries); the exit code."""
        report("validity", {"valid": not self.invalid, "problems": self.invalid})
        missing = [m["name"] for m in declared if m["name"] not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        out = {
            "correct": self.wrong == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        print(json.dumps(out), flush=True)
        return 0 if self.wrong == 0 else 1


def scaled(n: int, seconds: float, floor: int = 1) -> int:
    return max(floor, round(n * seconds / NOMINAL_SECONDS))


async def start(w: Any, seed: int, gauge: Any, trace_dir: str | None = None) -> Any:
    """The system with every workload session warm, ready for load."""
    from load import GatewayLoad, InProcessLoad

    if w.backend == "inprocess":
        return await InProcessLoad.start(seed, gauge)
    return await GatewayLoad.start(w.backend, seed, gauge, trace_dir)


async def program_pass(load: Any, session: str, seed: int, res: Result) -> dict[tuple[str, str], Any]:
    """Both program sets once on ``session``; each program's times
    (``load.ProgramTime``), keyed by (set, program)."""
    from mix import program_sets

    times = {}
    for label, progs in zip(("compute", "control"), program_sets(seed)):
        walls, bad = await load.run_programs(session, progs)
        res.add_programs(label, len(progs), bad)
        times.update({(label, prog.name): t for prog, t in zip(progs, walls)})
    return times


async def timed_setup(w: Any, seed: int, gauge: Any) -> tuple[float, Any, Any]:
    """Launch the system and time it until ready: the time, the window
    whose speed factor gives it at reference speed, and the load.  The
    in-process workload's system is set up in a fresh process of its own
    (then stopped), as the serving workloads' gateway is; the returned
    load is None then."""
    from load import ServerProcess

    # The client side's own imports are the benchmark's, not the system's.
    import repro.errors  # noqa: F401
    import repro.gateway  # noqa: F401

    before = gauge.sample()
    t0 = perf_counter()
    load = None
    if w.backend == "inprocess":
        server = ServerProcess("inprocess", seed, gauge.cpu)
        elapsed = perf_counter() - t0
        server.close()
    else:
        load = await start(w, seed, gauge)
        elapsed = perf_counter() - t0
    return elapsed, (before[0], gauge.sample()[1]), load


async def climb(load: Any, w: Any, seconds: float, low: Any, high: Any, res: Result) -> float:
    """max_rps: probe the rungs above the high rate until one fails,
    then narrow the gap to the last passing rate BISECT_STEPS times.  A
    rate passes when one of PROBE_TRIES probes at it passes: a burst of
    interference fails a probe by chance, an overload fails every one.
    The figure is the achieved rate of the last passing probe.

    The rates are at reference speed: a probe offers its rate times the
    speed factor of the RECENT_S before it to the power PART, and its
    achieved rate is divided by the same (see :mod:`speed`)."""
    from spec import BISECT_STEPS, PROBE_MIN_REQUESTS, PROBE_S, PROBE_TRIES, RECENT_S

    from speed import PART

    ladder = w.ladder
    limit_s = ladder.limit_ms / 1e3
    if not low.passes(limit_s):
        res.invalid.append(f"the low rate {ladder.low:g}/s failed its latency limit")
        return low.achieved_rps
    if not high.passes(limit_s):
        res.invalid.append(f"the high rate {ladder.high:g}/s failed its latency limit")
        return low.achieved_rps
    probe_s = PROBE_S * seconds / NOMINAL_SECONDS

    async def probe(rate: float) -> float | None:
        """The achieved rate of a passing probe at ``rate``, at reference
        speed, or None if every try failed."""
        for _ in range(PROBE_TRIES):
            end = load.gauge.sample()[1]
            factor = load.gauge.over([(end - RECENT_S, end)]) ** PART
            reqs = load.mix.take(max(PROBE_MIN_REQUESTS, round(rate * factor * probe_s)))
            ph = await load.probe(reqs, rate * factor, limit_s)
            res.add_phase(f"probe {rate:.1f}/s (offered {rate * factor:.1f}/s)", ph, ladder.limit_ms, probe=True)
            if ph.passes(limit_s):
                return ph.achieved_rps / factor
        return None

    passed, failed = ladder.high, None
    best = high.achieved_rps / load.gauge.over(high.windows) ** PART
    load.migrate(True)
    try:
        for rate in (r for r in ladder.rates if r > ladder.high):
            rps = await probe(rate)
            if rps is None:
                failed = rate
                break
            passed, best = rate, rps
        if failed is None:
            res.invalid.append(f"the top rung {ladder.rates[-1]:g}/s passed: the ladder is too low")
        else:
            for _ in range(BISECT_STEPS):
                rate = math.sqrt(passed * failed)
                rps = await probe(rate)
                if rps is None:
                    failed = rate
                else:
                    passed, best = rate, rps
    finally:
        load.migrate(False)
    report("max_rps", {"passed_rate": passed, "failed_rate": failed, "max_rps": round(best, 2)})
    return best


async def measure(w: Any, seed: int, seconds: float, gauge: Any, res: Result) -> None:
    """The end-to-end metrics.  Set up ``w.setups`` times; then, on the
    last system (for the in-process workload, one set up here), interleave
    low-rate rounds, high-rate rounds and program passes so a slow
    stretch of the host touches each a little; then climb the ladder
    for max_rps.  Every metric but max_rps and peak_rss_mb is reported
    at reference speed and printed as measured beside it (see
    :mod:`speed`)."""
    from load import Phase
    from spec import ROUNDS
    from speed import PART

    raw: dict[str, float] = {}
    ref: dict[str, float] = {}
    setups = []
    load = None
    for _ in range(w.setups):
        if load is not None:
            await load.shutdown()
            load = None
        gc.collect()
        elapsed, window, load = await timed_setup(w, seed, gauge)
        setups.append((elapsed, elapsed * gauge.over([window]) ** PART))
    report("setup_s and at reference speed", setups)
    raw["setup_s"] = statistics.median(t for t, _ in setups)
    ref["setup_s"] = statistics.median(t for _, t in setups)
    if load is None:
        load = await start(w, seed, gauge)
    ladder = w.ladder
    try:
        low, high = Phase(ladder.low), Phase(ladder.high)
        per_round = scaled(w.rung_requests, seconds, floor=ROUNDS) // ROUNDS
        passes = scaled(w.program_passes, seconds)
        programs: dict[tuple[str, str], list[Any]] = {}
        for r in range(ROUNDS):
            load.migrate(True)
            await load.open_round(low, load.mix.take(per_round))
            await load.open_round(high, load.mix.take(per_round))
            load.migrate(False)
            for _ in range(passes // ROUNDS + (r < passes % ROUNDS)):
                for key, t in (await program_pass(load, "prog", seed, res)).items():
                    programs.setdefault(key, []).append(t)
        res.add_phase(f"{ladder.low:g}/s (low)", low, ladder.limit_ms)
        res.add_phase(f"{ladder.high:g}/s (high)", high, ladder.limit_ms)
        cpu_ref = {k: [t.cpu * gauge.over([t.window]) for t in v] for k, v in programs.items()}
        report("program ms: wall, cpu, cpu at reference speed",
               {f"{k[0]}/{k[1]}": [[round(x * 1e3, 2) for x in (t.wall, t.cpu, c)] for t, c in zip(v, cpu_ref[k])]
                for k, v in programs.items()})
        for name, ph in (("p50_ms.low", low), ("p50_ms.high", high)):
            raw[name] = ph.p50_rounds() * 1e3
            ref[name] = ph.p50_rounds(gauge) * 1e3
        # Before the climb: how far the probes get, and so how many
        # requests their connections accumulate, varies from run to run,
        # and the peak would follow it.
        res.metrics["peak_rss_mb"] = load.rss_mb()
        # One climb, at reference speed or not (see climb).
        res.metrics["max_rps"] = await climb(load, w, seconds, low, high, res)
        # CPU time, not wall time: a program is CPU-bound work, and on a
        # shared virtual machine hypervisor steal stretches its wall time
        # by up to 2x from one second to the next, while the scheduler's
        # CPU time leaves steal out.  Each program's mean over the passes.
        for label in ("compute", "control"):
            raw[f"{label}_s"] = sum(statistics.fmean(t.cpu for t in v) for k, v in programs.items() if k[0] == label)
            ref[f"{label}_s"] = sum(statistics.fmean(v) for k, v in cpu_ref.items() if k[0] == label)
    finally:
        await load.shutdown()
    report("as measured and at reference speed", {k: [raw[k], ref[k]] for k in raw})
    res.metrics.update(ref)


def count_mix(seed: int, tag: str) -> Any:
    """The serve mix of a deterministic count pass: eight sessions of
    its own, and one request in twenty opening a new session."""
    from mix import ServeMix

    return ServeMix(seed, sessions=tuple(f"d{tag}{i:02d}" for i in range(8)),
                    cold_share=0.05, cold_prefix=f"c{tag}")


async def count_pass(load: Any, seed: int, tag: str, res: Result) -> tuple[float, float]:
    """Closed-loop serve requests and both program sets on sessions of
    the pass's own; returns the pass's time window."""
    from spec import COUNT_PASS_REQUESTS

    t0 = perf_counter()
    main_mix, load.mix = load.mix, count_mix(seed, tag)
    try:
        ph = await load.closed_loop(load.mix.warmup() + load.mix.take(COUNT_PASS_REQUESTS))
        res.add_phase(f"count pass {tag}", ph)
        await load.define_programs(f"p{tag}")
        await program_pass(load, f"p{tag}", seed, res)
    finally:
        load.mix = main_mix
    return t0, perf_counter()


async def trace(w: Any, seed: int, seconds: float, gauge: Any, res: Result, trace_dir: str) -> None:
    """The per-layer metrics: an untraced reference phase, then a traced
    system running two count passes and the same phase."""
    import spans
    from layers import counts, flatten, pass_layers, phase_layers, read_dumps, within
    from spec import BYPASSED, DETERMINISTIC, ROUNDS, TRACE_PHASE_REQUESTS

    n = scaled(TRACE_PHASE_REQUESTS, seconds, floor=ROUNDS)
    rate = w.ladder.low
    load = await start(w, seed, gauge)
    try:
        load.migrate(True)
        ref = await load.open_loop(load.mix.take(n), rate, rounds=ROUNDS)
        load.migrate(False)
        res.add_phase(f"untraced {rate:g}/s", ref)
    finally:
        await load.shutdown()

    if w.backend == "inprocess":
        log = spans.install(trace_dir)
    load = await start(w, seed, gauge, trace_dir)
    try:
        windows = {tag: await count_pass(load, seed, tag, res) for tag in ("a", "b")}
        hist0, stats0 = load.hist(), await load.stats()
        load.migrate(True)
        ph = await load.open_loop(load.mix.take(n), rate, rounds=ROUNDS)
        load.migrate(False)
        hist1, stats1 = load.hist(), await load.stats()
        res.add_phase(f"traced {rate:g}/s", ph)
    finally:
        await load.shutdown()
    if w.backend == "inprocess":
        log.dump(os.path.join(trace_dir, f"spans-runner-{os.getpid()}.json"))
    rows = flatten(read_dumps(trace_dir))
    res.metrics.update(phase_layers(
        within(rows, (ph.start, ph.end)),
        requests=ph.attempted,
        client_service_us=statistics.fmean(ph.service) * 1e6,
        hist_before=hist0, hist_after=hist1, stats_before=stats0, stats_after=stats1,
    ))
    res.metrics.update(pass_layers(within(rows, windows["a"])))

    count_a = counts(within(rows, windows["a"]))
    count_b = counts(within(rows, windows["b"]))
    flagged = {k for k in DETERMINISTIC if count_a[k] != count_b[k]}
    path = os.path.join(ROOT, ".perfbench", "counts", f"{w.name}-seed{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        flagged |= {k for k in DETERMINISTIC if earlier.get(k) != count_a[k]}
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(count_a, fh, sort_keys=True)
    report("deterministic counts", {"pass_a": count_a, "pass_b": count_b,
                                    "nondeterministic": sorted(flagged)})
    report("layers at 0", BYPASSED[w.name])
    res.metrics["trace.nondeterministic"] = float(len(flagged))
    res.metrics["trace.overhead_pct"] = (ph.p(0.5) / ref.p(0.5) - 1.0) * 100.0
    report("tracing overhead", {"p50_ms_untraced": ref.p(0.5) * 1e3, "p50_ms_traced": ph.p(0.5) * 1e3})


def source_digest() -> str:
    """A digest of the Python sources under ``src/``: counts stored by an
    earlier run are compared only against runs of the same code."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def pin_hash_seed() -> None:
    """Re-execute with a fixed PYTHONHASHSEED (inherited by the server
    and shard processes): string hashing decides dict and set layout in
    the system under test, so a random seed per process adds run-to-run
    spread that no code change caused."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from spec import HELD_OUT_SEED, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    whys = {d["name"]: d["why"] for d in declared["workloads"]}
    if list(whys) != list(WORKLOADS):
        raise SystemExit("perfbench: BENCHMARK.json and perfbench/spec.py name different workloads")
    for name, w in WORKLOADS.items():
        if w.ladder.describe() not in whys[name]:
            raise SystemExit(f"perfbench: the why line of {name} in BENCHMARK.json does not state "
                             f"its ladder as perfbench/spec.py has it: {w.ladder.describe()!r}")

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed == HELD_OUT_SEED:
        print(f"note: seed {HELD_OUT_SEED} is the held-out confirmation seed", flush=True)
    w = WORKLOADS[args.workload]
    report("workload", {"name": w.name, "why": w.why, "stresses": w.stresses,
                        "bypasses": w.bypasses, "ladder": vars(w.ladder)})

    def watchdog(signum: int, frame: Any) -> None:
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    import speed
    from load import cpu_ticks

    # The system on a CPU of its own, the load generator on the other;
    # the in-process workload's runner is the system.
    system_cpu, client_cpu = speed.cpus()
    home = system_cpu if w.backend == "inprocess" else client_cpu
    speed.pin(home)
    gauge = speed.Gauge(system_cpu, home)
    res = Result(gauge)
    spinners = speed.Spinners(sorted({system_cpu, client_cpu}))
    gauge.spinners = spinners
    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    ticks = cpu_ticks()
    try:
        if args.trace:
            trace_dir = os.path.join(ROOT, ".perfbench", "trace", w.name)
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            asyncio.run(trace(w, args.seed, args.seconds, gauge, res, trace_dir))
        else:
            asyncio.run(measure(w, args.seed, args.seconds, gauge, res))
    finally:
        signal.alarm(0)
        spinners.stop()
    res.note_steal(ticks, cpu_ticks())
    return res.emit(declared["per_layer" if args.trace else "end_to_end"])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
