"""Load generation: open-loop rounds, closed-loop passes, program passes.

Two drivers share one interface:

* :class:`GatewayLoad` -- one asyncio process, ``CONNECTIONS`` pipelined
  :class:`~repro.gateway.GatewayClient` connections to a gateway in a
  process of its own (:class:`ServerProcess`).  Every session is pinned
  to one connection so its requests reach the server in order, and each
  session submits as its own tenant (a user of the service).
* :class:`InProcessLoad` -- the same requests submitted straight to a
  :class:`~repro.host.Host` in this process, ticked by the driver itself
  (no sockets, no gateway), and the program sets run on an in-process
  :class:`~repro.api.Interpreter`.

An open-loop round sends request ``i`` at ``start + i / rate`` whatever
happened before, and times it from that due time to its terminal
answer, so a stall also delays every request due during it.  How late
the generator itself sent each request is kept as ``lag``, and how many
requests were in flight after each send as ``outstanding``.

Every round opens fresh connections, so no round inherits another's
server state.  The rounds of the fixed low and high rates are short; a
rate probe that finds ``max_rps`` is one long round, so each of its
connections carries many hundreds of requests, as a long-lived client's
would, and what a connection's age costs the server shows there.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from mix import PROGRAM_DEFS, UNSPECIFIED, Program, Request, ServeMix
from speed import PART, Gauge, Window

CONNECTIONS = 2
#: A request with no answer after this long counts as timed out.
REQUEST_TIMEOUT_S = 30.0
#: Samples a tail needs beyond it before it is reported.
TAIL_SAMPLES = 10
#: A probe stops before sending a request to a session that already has
#: this many in flight: the backlog is growing, and stopping here keeps
#: every session clear of the per-session queue bound (64 requests) and
#: the gateway's per-tenant admission cap (64), so a probe sheds nothing.
SESSION_STOP = 48
#: The backlog of a phase is growing when the requests in flight over
#: its last quarter of sends exceed those over its first quarter by more
#: than this many, or by more than BACKLOG_SHARE of its sends.
BACKLOG_SLACK = 5
BACKLOG_SHARE = 0.02


def cpu_ticks() -> list[int] | None:
    """The machine's cumulative CPU ticks (user, nice, system, idle,
    iowait, irq, softirq, steal, ...), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float:
    """The share of the CPU time the machine tried to use between two
    :func:`cpu_ticks` readings that the hypervisor gave to others."""
    if before is None or after is None:
        return 0.0
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[7]
    return d[7] / busy if busy else 0.0


def cpu_seconds(pids: list[int]) -> float:
    """CPU time the threads of ``pids`` have run so far, from the
    scheduler's own accounting (``/proc/<pid>/task/*/schedstat``): it
    leaves out the time the hypervisor gave the CPU to someone else,
    which a wall clock counts."""
    total = 0
    for pid in pids:
        base = f"/proc/{pid}/task"
        for tid in os.listdir(base):
            try:
                with open(f"{base}/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended
    return total / 1e9


@dataclass(frozen=True)
class ProgramTime:
    """One program run: wall time, CPU time, and the window whose speed
    factor gives its CPU time at reference speed (see :mod:`speed`)."""

    wall: float
    cpu: float
    window: Window


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_supported(n: int, q: float) -> bool:
    """True when at least TAIL_SAMPLES samples lie beyond the q-th percentile."""
    return n - math.ceil(q * n) >= TAIL_SAMPLES


@dataclass
class Phase:
    """What the rounds at one rate (or a closed-loop pass) saw."""

    rate: float
    start: float = 0.0  # when the first round began
    end: float = 0.0  # last terminal answer
    span: float = 0.0  # time spent sending and answering (rounds summed)
    latencies: list[float] = field(default_factory=list)  # due -> answer, answered ok
    rounds: list[list[float]] = field(default_factory=list)  # latencies per round
    round_steal: list[float] = field(default_factory=list)  # steal share per round
    windows: list[Window] = field(default_factory=list)  # per round, with its speed samples
    service: list[float] = field(default_factory=list)  # sent -> answer, answered ok
    lag: list[float] = field(default_factory=list)  # sent - due
    outstanding: list[int] = field(default_factory=list)  # in flight after each send
    limit_s: float = math.inf  # a probe's latency limit
    over_limit: int = 0  # answered later than limit_s
    attempted: int = 0
    shed: int = 0
    failed: int = 0
    timed_out: int = 0
    wrong: int = 0
    wrong_examples: list[str] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def misses(self) -> int:
        return self.shed + self.failed + self.timed_out + self.wrong

    def all_latencies(self) -> list[float]:
        """Answered latencies plus REQUEST_TIMEOUT_S for every miss (a
        refused or failed request misses any latency limit)."""
        return sorted(self.latencies + [REQUEST_TIMEOUT_S] * self.misses)

    def p(self, q: float) -> float:
        values = self.all_latencies()
        return percentile(values, q) if values else REQUEST_TIMEOUT_S

    def round_p50s(self) -> list[float]:
        return [percentile(sorted(r), 0.5) if r else REQUEST_TIMEOUT_S for r in self.rounds]

    def round_speed(self, gauge: Gauge) -> list[float]:
        """Each round's speed factor (see :mod:`speed`)."""
        return [gauge.over([w]) for w in self.windows]

    def p50_rounds(self, gauge: Gauge | None = None) -> float:
        """Mean of the middle half of the rounds' median latencies, each
        scaled by its round's speed factor to the power PART if a
        ``gauge`` is given (see :mod:`speed`).  On a
        shared virtual machine a CPU's speed switches between a fast and
        a slow state every few seconds (most likely a neighbour's busy
        thread on the same core coming and going), so the round medians
        of one run fall into two groups, and now and then a burst of
        hypervisor steal triples one round.  The median of the rounds
        jumps from one group to the other with the share of slow rounds;
        their mean follows a tripled round; the mean of the middle half
        does neither."""
        meds = self.round_p50s()
        if gauge is not None:
            meds = [m * f ** PART for m, f in zip(meds, self.round_speed(gauge))]
        meds.sort()
        if not meds:
            return REQUEST_TIMEOUT_S
        trim = len(meds) // 4
        return statistics.fmean(meds[trim:len(meds) - trim])

    @property
    def achieved_rps(self) -> float:
        return len(self.latencies) / self.span if self.span > 0 else 0.0

    def tail(self) -> dict[str, Any] | None:
        """The highest of p99/p98/p95/p90 with TAIL_SAMPLES samples beyond it."""
        n = self.attempted
        for q in (0.99, 0.98, 0.95, 0.90):
            if tail_supported(n, q):
                return {"q": q, "ms": round(self.p(q) * 1e3, 3), "samples": n}
        return None

    def backlog_growing(self) -> bool:
        """The server fell behind: the requests in flight when the last
        quarter of the phase was sent clearly exceed those when the
        first quarter was (medians of each quarter's samples)."""
        n = len(self.outstanding)
        q = n // 4
        if q < 2:
            return False
        first = percentile(sorted(self.outstanding[:q]), 0.5)
        last = percentile(sorted(self.outstanding[-q:]), 0.5)
        return last - first > max(BACKLOG_SLACK, BACKLOG_SHARE * n)

    def passes(self, limit_s: float) -> bool:
        return (
            not self.stopped_early
            and self.p(0.99) <= limit_s
            and not self.backlog_growing()
            and self.misses <= 0.01 * self.attempted
        )

    def summary(self, limit_s: float, gauge: Gauge | None = None) -> dict[str, Any]:
        n = self.attempted
        return {
            "rate": self.rate,
            "attempted": n,
            "answered": len(self.latencies),
            "shed": self.shed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "wrong": self.wrong,
            "p50_ms": round(self.p(0.50) * 1e3, 3) if n else None,
            "round_p50s_ms": [round(x * 1e3, 3) for x in self.round_p50s()],
            "round_steal": [round(x, 3) for x in self.round_steal],
            "round_speed": [round(x, 3) for x in self.round_speed(gauge)] if gauge else None,
            "tail": self.tail(),
            "achieved_rps": round(self.achieved_rps, 2),
            "lag_p99_ms": round(percentile(sorted(self.lag), 0.99) * 1e3, 3) if self.lag else None,
            "lag_max_ms": round(max(self.lag) * 1e3, 3) if self.lag else None,
            "outstanding_max": max(self.outstanding) if self.outstanding else 0,
            "backlog_growing": self.backlog_growing(),
            "stopped_early": self.stopped_early,
            "passes": self.passes(limit_s),
        }


def split_rounds(reqs: list[Request], rounds: int) -> list[list[Request]]:
    size = max(1, math.ceil(len(reqs) / rounds))
    return [reqs[k:k + size] for k in range(0, len(reqs), size)]


class _Driver:
    """What both drivers share: the oracle check and phase plumbing."""

    def __init__(self, mix: ServeMix, gauge: Gauge):
        self.mix = mix
        self.gauge = gauge
        self.inflight = 0  # open-loop requests sent and not yet answered
        self.by_session: dict[str, int] = {}  # the same, per session

    def check(self, ph: Phase, req: Request, value: Any, due: float, sent: float, done: float) -> None:
        expect = self.mix.expected(req)
        if value != expect:
            ph.wrong += 1
            if len(ph.wrong_examples) < 5:
                ph.wrong_examples.append(f"{req.session} {req.source!r}: got {value!r}, expected {expect!r}")
            return
        ph.latencies.append(done - due)
        if done - due > ph.limit_s:
            ph.over_limit += 1
        if ph.rounds:
            ph.rounds[-1].append(done - due)
        ph.service.append(done - sent)
        if done > ph.end:
            ph.end = done

    async def open_loop(self, reqs: list[Request], rate: float, *, rounds: int) -> Phase:
        """All of ``reqs`` at ``rate``, in ``rounds`` rounds."""
        ph = Phase(rate)
        for part in split_rounds(reqs, rounds):
            await self.open_round(ph, part)
        return ph

    async def probe(self, reqs: list[Request], rate: float, limit_s: float) -> Phase:
        """One probe rung: all of ``reqs`` at ``rate`` in one round.  It
        stops early, and fails, once more than 1% of its requests missed
        ``limit_s`` or the next request's session has SESSION_STOP in
        flight: overloading further proves nothing."""
        ph = Phase(rate, limit_s=limit_s)
        await self.open_round(ph, reqs, stop_after=0.01 * len(reqs))
        return ph

    async def open_round(self, ph: Phase, reqs: list[Request], *, stop_after: float | None = None) -> None:
        """Send ``reqs`` at ``ph.rate`` into ``ph`` (see :meth:`probe` for
        ``stop_after``)."""
        if not ph.start:
            ph.start = perf_counter()
        ph.rounds.append([])
        # The generator's own collector pauses would show up as lag and
        # latency the server never caused; collect between rounds instead.
        gc.collect()
        before = self.gauge.sample()
        gc.disable()
        ticks = cpu_ticks()
        try:
            start = perf_counter() + 0.01
            await self._round(ph, reqs, start, stop_after)
        finally:
            gc.enable()
        ph.round_steal.append(steal_share(ticks, cpu_ticks()))
        ph.windows.append((before[0], self.gauge.sample()[1]))
        ph.span += max(0.0, ph.end - start)

    async def _round(self, ph: Phase, reqs: list[Request], start: float,
                     stop_after: float | None) -> None:
        raise NotImplementedError

    def _should_stop(self, ph: Phase, stop_after: float | None, session: str) -> bool:
        if stop_after is None:
            return False
        if ph.over_limit + ph.misses > stop_after or self.by_session.get(session, 0) >= SESSION_STOP:
            ph.stopped_early = True
        return ph.stopped_early


class ServerProcess:
    """The process hosting the system (server.py) and its control
    channel; it is ready once it printed its first line."""

    def __init__(self, backend: str, seed: int, cpu: int, trace_dir: str | None = None):
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "server.py"), "--backend", backend, "--seed", str(seed),
               "--cpu", str(cpu)]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"server exited with {self.proc.returncode} before it was ready")
        self.port = json.loads(line).get("port")

    def call(self, **cmd: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self, timeout: float = 30.0) -> None:
        """Ask the server to quit and wait for it (and its shards)."""
        proc = self.proc
        if proc.poll() is None:
            try:
                proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, ValueError):
                pass
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if not stream.closed:
                stream.close()


class GatewayLoad(_Driver):
    """Load over pipelined gateway connections to a :class:`ServerProcess`."""

    def __init__(self, mix: ServeMix, gauge: Gauge, server: ServerProcess):
        super().__init__(mix, gauge)
        self.server = server
        self.clients: list[Any] = []

    @classmethod
    async def start(cls, backend: str, seed: int, gauge: Gauge, trace_dir: str | None = None) -> "GatewayLoad":
        """Launch the server on the gauge's CPU, connect, and warm every
        workload session plus the ``prog`` session (program definitions)."""
        load = cls(ServeMix(seed), gauge, ServerProcess(backend, seed, gauge.cpu, trace_dir))
        try:
            await load.connect()
            warm = await load.closed_loop(load.mix.warmup())
            defs = await load.define_programs("prog")
            if warm.misses or defs != UNSPECIFIED:
                raise RuntimeError(f"warm-up failed: {warm.summary(1.0)}, definitions -> {defs!r}")
        except BaseException:
            await load.shutdown()
            raise
        return load

    async def shutdown(self) -> None:
        await self.close()
        self.server.close()

    async def connect(self) -> None:
        from repro.gateway import GatewayClient

        self.clients = [await GatewayClient.connect("127.0.0.1", self.server.port) for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    async def reconnect(self) -> None:
        await self.close()
        await self.connect()

    def _lane(self, session: str) -> int:
        lane = self.mix.lanes(CONNECTIONS).get(session)
        return zlib.crc32(session.encode()) % CONNECTIONS if lane is None else lane

    async def _one(self, req: Request, due: float, ph: Phase) -> None:
        from repro.errors import GatewayBusy, GatewayClosed, GatewayRequestError

        lane = self._lane(req.session)
        client = self.clients[lane]
        sent = perf_counter()
        ph.lag.append(sent - due)
        ph.attempted += 1
        self.inflight += 1
        self.by_session[req.session] = self.by_session.get(req.session, 0) + 1
        try:
            try:
                rid = await client.submit(req.session, req.source, tenant=req.session)
            except GatewayBusy:
                ph.shed += 1
                return
            except (GatewayRequestError, GatewayClosed):
                ph.failed += 1
                return
            self.mix.admitted(req)
            try:
                value = await client.result(rid, timeout=REQUEST_TIMEOUT_S)
            except TimeoutError:
                ph.timed_out += 1
                return
            except (GatewayRequestError, GatewayClosed):
                ph.failed += 1
                return
            self.check(ph, req, value, due, sent, perf_counter())
        finally:
            self.inflight -= 1
            self.by_session[req.session] -= 1

    async def _round(self, ph: Phase, reqs: list[Request], start: float,
                     stop_after: float | None) -> None:
        # The gateway keeps every finished request of a connection until
        # it disconnects and scans them all on each pump pass, so a
        # connection's cost grows with its age; fresh connections per
        # round keep rounds alike.
        await self.reconnect()
        tasks = []
        for i, req in enumerate(reqs):
            due = start + i / ph.rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._should_stop(ph, stop_after, req.session):
                break
            tasks.append(asyncio.ensure_future(self._one(req, due, ph)))
            ph.outstanding.append(self.inflight)
        await asyncio.gather(*tasks)

    async def closed_loop(self, reqs: list[Request]) -> Phase:
        """One request at a time, each sent when the previous answered."""
        if not self.clients:
            await self.connect()
        ph = Phase(0.0)
        ph.start = ph.end = perf_counter()
        for req in reqs:
            await self._one(req, perf_counter(), ph)
        return ph

    async def define_programs(self, session: str) -> Any:
        if not self.clients:
            await self.connect()
        return await self.clients[self._lane(session)].eval(session, PROGRAM_DEFS)

    async def run_programs(self, session: str, programs: list[Program]) -> tuple[list[ProgramTime], list[str]]:
        """Run programs one after another on ``session``; returns each
        one's times (its CPU time is what the server and its shards spent
        meanwhile), and what went wrong."""
        from repro.errors import GatewayBusy, GatewayClosed, GatewayRequestError

        # A fresh connection, as for every round: the time must not
        # depend on how many requests the connection carried before.
        await self.reconnect()
        pids = self.server.call(op="pids")["pids"]
        bad: list[str] = []
        times: list[ProgramTime] = []
        client = self.clients[self._lane(session)]
        before = self.gauge.sample()
        for prog in programs:
            c0, t0 = cpu_seconds(pids), perf_counter()
            try:
                value = await client.eval(session, prog.source, timeout=REQUEST_TIMEOUT_S)
            except (GatewayBusy, GatewayRequestError, GatewayClosed, TimeoutError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - t0, cpu_seconds(pids) - c0
            after = self.gauge.sample()
            times.append(ProgramTime(wall, cpu, (before[0], after[1])))
            before = after
            if value != prog.expect:
                bad.append(f"{prog.name}: got {value!r}, expected {prog.expect!r}")
        return times, bad

    async def stats(self) -> dict[str, Any]:
        if not self.clients:
            await self.connect()
        return await self.clients[0].stats()

    def hist(self) -> dict[str, Any]:
        out = self.server.call(op="hist")
        return {**out["gateway"], **out.get("cluster", {})}

    def migrate(self, on: bool) -> None:
        self.server.call(op="migrate", on=on)

    def rss_mb(self) -> float:
        return self.server.call(op="rss")["peak_rss_kb"] / 1024.0


class InProcessLoad(_Driver):
    """The same requests against a Host in this process, ticked here,
    and the program sets on an Interpreter in this process."""

    def __init__(self, mix: ServeMix, gauge: Gauge, host: Any, interp: Any):
        super().__init__(mix, gauge)
        self.host = host
        self.interps = {"prog": interp}  # session name -> Interpreter

    @classmethod
    async def start(cls, seed: int, gauge: Gauge) -> "InProcessLoad":
        """``Interpreter()`` plus the program definitions, and a Host
        with every workload session warmed by one request."""
        from repro import Interpreter
        from repro.host import Host

        interp = Interpreter()
        interp.run(PROGRAM_DEFS)
        load = cls(ServeMix(seed), gauge, Host(), interp)
        warm = await load.closed_loop(load.mix.warmup())
        if warm.misses:
            raise RuntimeError(f"warm-up failed: {warm.summary(1.0)}")
        return load

    async def shutdown(self) -> None:
        pass

    def _submit(self, req: Request, ph: Phase) -> Any:
        from repro.errors import HostSaturated

        host = self.host
        try:
            host[req.session]
        except KeyError:
            # What the gateway does for an unknown session name.
            host.session(name=req.session, prelude=False)
        ph.attempted += 1
        try:
            handle = host.submit(req.session, req.source)
        except HostSaturated:
            ph.shed += 1
            return None
        self.mix.admitted(req)
        return handle

    def _finish(self, ph: Phase, req: Request, handle: Any, due: float, sent: float, now: float) -> None:
        from repro.datum.printer import scheme_repr

        if handle.exception() is not None:
            ph.failed += 1
            return
        values = handle.values
        self.check(ph, req, scheme_repr(values[-1]) if values else None, due, sent, now)

    async def _round(self, ph: Phase, reqs: list[Request], start: float,
                     stop_after: float | None) -> None:
        host = self.host
        inflight: list[tuple[Request, Any, float, float]] = []
        i, n = 0, len(reqs)
        while i < n or inflight:
            now = perf_counter()
            while i < n and start + i / ph.rate <= now:
                due = start + i / ph.rate
                if self._should_stop(ph, stop_after, reqs[i].session):
                    n = i
                    break
                sent = perf_counter()
                ph.lag.append(sent - due)
                handle = self._submit(reqs[i], ph)
                if handle is not None:
                    inflight.append((reqs[i], handle, due, sent))
                    self.by_session[reqs[i].session] = self.by_session.get(reqs[i].session, 0) + 1
                ph.outstanding.append(len(inflight))
                i += 1
            if inflight:
                host.tick()
                now = perf_counter()
                still = []
                for item in inflight:
                    if item[1].done():
                        self.by_session[item[0].session] -= 1
                        self._finish(ph, item[0], item[1], item[2], item[3], now)
                    else:
                        still.append(item)
                inflight = still
            elif i < n:
                # Spin until the next request is due rather than sleep: a
                # sleeping thread wakes late by a varying amount, and while
                # it sleeps whatever else runs on its CPU evicts the
                # system's working set from the caches; both would be
                # charged to the system here.  The spin walks the speed
                # kernel's trees, so the CPU's speed is known meanwhile.
                self.gauge.idle_until(start + i / ph.rate)

    async def closed_loop(self, reqs: list[Request]) -> Phase:
        ph = Phase(0.0)
        ph.start = ph.end = perf_counter()
        for req in reqs:
            sent = perf_counter()
            handle = self._submit(req, ph)
            if handle is None:
                continue
            while not handle.done():
                self.host.tick()
            self._finish(ph, req, handle, sent, sent, perf_counter())
        return ph

    async def define_programs(self, session: str) -> Any:
        """A fresh Interpreter for ``session``, with the program definitions."""
        from repro import Interpreter

        interp = self.interps[session] = Interpreter()
        interp.run(PROGRAM_DEFS)
        return UNSPECIFIED

    async def run_programs(self, session: str, programs: list[Program]) -> tuple[list[ProgramTime], list[str]]:
        """Run programs one after another on the Interpreter of
        ``session``; each one's times, and what went wrong."""
        from repro.datum.printer import scheme_repr

        interp = self.interps[session]
        bad: list[str] = []
        times: list[ProgramTime] = []
        before = self.gauge.sample()
        for prog in programs:
            c0, t0 = time.thread_time(), perf_counter()
            value = scheme_repr(interp.eval(prog.source))
            wall, cpu = perf_counter() - t0, time.thread_time() - c0
            after = self.gauge.sample()
            times.append(ProgramTime(wall, cpu, (before[0], after[1])))
            before = after
            if value != prog.expect:
                bad.append(f"{prog.name}: got {value!r}, expected {prog.expect!r}")
        return times, bad

    async def stats(self) -> dict[str, Any]:
        return dict(self.host.stats)

    def hist(self) -> dict[str, Any]:
        return {}

    def migrate(self, on: bool) -> None:
        pass

    def rss_mb(self) -> float:
        from server import vm_hwm_kb

        return vm_hwm_kb() / 1024.0


@dataclass(frozen=True)
class Ladder:
    """A workload's fixed rates: the ladder, its low and high rungs and
    the p99 latency limit.  The top rung lies above the workload's knee,
    so the climb always ends on a failing rung."""

    rates: tuple[float, ...]
    low: float
    high: float
    limit_ms: float

    def describe(self) -> str:
        """How BENCHMARK.json's ``why`` line states this ladder."""
        return (
            f"Low {self.low:g}, high {self.high:g} req/s; "
            f"ladder {'/'.join(f'{r:g}' for r in self.rates)}; p99 limit {self.limit_ms:g} ms"
        )
