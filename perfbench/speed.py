"""The speed of the CPU that runs the system, measured beside the work.

On a shared virtual machine each virtual CPU runs at a speed that
changes by up to 2x from one stretch of seconds to the next and from one
run to the next (the neighbours on its physical core come and go), and
two CPUs change independently.  A figure that CPU time bounds follows
those changes more than it follows any change to the program.  So the
system runs on a CPU of its own (``cpus()[0]``, the load generator on
``cpus()[1]``), and the benchmark keeps walking a reference kernel's
trees on the system's CPU: a run of :data:`KERNEL_TREES` trees right
before and right after each measured piece of work (:meth:`Gauge.sample`),
trees walked while the in-process load waits for the next request
(:meth:`Gauge.idle_until`), and trees walked by an idle-priority spinner
whenever the CPU has nothing else to do (:class:`Spinners`).  A tree walk
does what an interpreter does -- walks a tree, pushes and pops an
explicit stack, looks values up in a dict -- and shares no code with the
system, so a change to the system leaves its time alone.

The *speed factor* of an interval is ``REF_KERNEL_S`` over the mean CPU
time of :data:`KERNEL_TREES` tree walks made on the system's CPU in it
(:meth:`Gauge.over`).  A CPU time ``t`` measured over the interval is
reported *at reference speed* as ``t * factor``: what it would be on a
CPU where the kernel takes ``REF_KERNEL_S``.  A latency, a rate or a
set-up time also waits on system calls, memory, other processes and
timers, so it follows the kernel's speed only in part: measured here,
by a power of the factor anywhere from about 0 to 1, differing between
workloads and from one stretch of a run to the next.  Such a figure is
scaled by ``factor ** PART`` (a rate divided by it), which leaves at most
half of the speed's swing in it whichever that power is.  The raw
figure is printed beside each scaled one.
"""

from __future__ import annotations

import bisect
import gc
import os
import subprocess
import sys
import threading
import time

#: The reference kernel's CPU time on the reference CPU: a round figure
#: in its range on a 2-vCPU Intel Xeon KVM guest (2.6-5.6 ms there).
REF_KERNEL_S = 0.005
#: Trees walked by one run of the kernel, and nodes per tree.
KERNEL_TREES = 60
_DEPTH = 60
#: Tree walks are tallied per this many seconds.
BUCKET_S = 0.01
#: The power of the speed factor that scales a latency, a rate or a
#: set-up time (see above).
PART = 0.5

#: A window of ``time.perf_counter`` times, (start, end).
Window = tuple[float, float]


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: object, b: object) -> None:
        self.op, self.a, self.b = op, a, b


def _build(depth: int) -> object:
    node: object = 0
    for d in range(1, depth + 1):
        node = _Node("+" if d % 2 else "*", node, d)
    return node


def _walk(tree: object, env: dict[int, int]) -> int:
    stack, vals = [tree], []
    while stack:
        x = stack.pop()
        if isinstance(x, int):
            vals.append(env.get(x, x))
        elif isinstance(x, str):
            b, a = vals.pop(), vals.pop()
            vals.append(a + b if x == "+" else (a * b) % 1000003)
        else:
            stack.append(x.op)
            stack.append(x.b)
            stack.append(x.a)
    return vals[0]


class Tally:
    """Tree walks made on one CPU: ``entries`` holds (time of the first
    walk, trees, CPU seconds), one per BUCKET_S in which trees were
    walked."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, int, float]] = []
        self._env = {i: i * 7 for i in range(64)}
        self._bucket, self._first, self._trees, self._spent = -1, 0.0, 0, 0.0

    def walk(self) -> tuple[float, int, float] | None:
        """Walk one tree; returns the entry it closed, if any."""
        now = time.perf_counter()
        c0 = time.thread_time()
        if _walk(_build(_DEPTH), self._env) <= 0:
            raise AssertionError("reference kernel went wrong")
        spent = time.thread_time() - c0
        closed = None
        bucket = int(now / BUCKET_S)
        if bucket != self._bucket or not self._trees:
            closed = self.flush()
            self._bucket, self._first = bucket, now
        self._trees += 1
        self._spent += spent
        return closed

    def flush(self) -> tuple[float, int, float] | None:
        closed = None
        if self._trees:
            closed = (self._first, self._trees, self._spent)
            self.entries.append(closed)
        self._trees, self._spent = 0, 0.0
        return closed


def cpus() -> tuple[int, int]:
    """(system CPU, load-generator CPU): the first and the last CPU this
    process may use (the same CPU on a one-CPU machine)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Keep this thread, and every thread and process it starts later,
    on ``cpu``."""
    os.sched_setaffinity(0, {cpu})


class Gauge:
    """The speed of ``cpu``, the system's CPU, seen from a process whose
    main thread lives on ``home``."""

    def __init__(self, cpu: int, home: int) -> None:
        self.cpu, self.home = cpu, home
        self.spinners: Spinners | None = None
        self.tally = Tally()
        self._walk_s = 0.0  # the longest recent tree walk, decaying

    def sample(self) -> Window:
        """Walk KERNEL_TREES trees on the system's CPU (moving this thread
        there and back if it lives elsewhere); the window they took."""
        enabled = gc.isenabled()
        gc.disable()
        if self.cpu != self.home:
            pin(self.cpu)
        try:
            start = time.perf_counter()
            for _ in range(KERNEL_TREES):
                self.tally.walk()
            self.tally.flush()
            return start, time.perf_counter()
        finally:
            if self.cpu != self.home:
                pin(self.home)
            if enabled:
                gc.enable()

    def idle_until(self, due: float) -> None:
        """Busy-wait until ``due`` (a ``perf_counter`` time); on the
        system's CPU, walk trees while two walks' time is left."""
        if self.cpu == self.home:
            while due - time.perf_counter() > 2.0 * self._walk_s:
                t0 = time.perf_counter()
                self.tally.walk()
                self._walk_s = max(0.9 * self._walk_s, time.perf_counter() - t0)
        while time.perf_counter() < due:
            pass

    def over(self, windows: list[Window]) -> float:
        """The speed factor over ``windows``, from every tree walked on
        the system's CPU in them."""
        self.tally.flush()
        entries = sorted(self.tally.entries + (self.spinners.entries(self.cpu) if self.spinners else []))
        times = [e[0] for e in entries]
        trees = spent = 0.0
        for start, end in windows:
            for _, n, c in entries[bisect.bisect_left(times, start):bisect.bisect_right(times, end)]:
                trees += n
                spent += c
        if not trees:
            raise RuntimeError("no reference tree was walked on the system's CPU in the window")
        return REF_KERNEL_S / (spent / trees * KERNEL_TREES)


class Spinners:
    """One busy loop on each of ``cpus``, at idle priority (``SCHED_IDLE``:
    it runs only when nothing else on that CPU can).  Each loop walks the
    reference kernel's trees and reports its tally entries, so the speed
    of its CPU is known whenever the CPU had time to spare, at no cost to
    the work on it.

    On a virtual machine a CPU with nothing to run halts, and the
    hypervisor may take a while to give it back when work arrives; it
    reports that delay as steal.  A serving system wakes from idle for
    nearly every request, so the delay lands in its latencies and rates,
    and it swings with the neighbours' load from one minute to the next.
    CPUs that never halt leave it out of the figures."""

    def __init__(self, cpus: list[int]) -> None:
        self.procs: list[subprocess.Popen[str]] = []
        self.readers: list[threading.Thread] = []
        self._entries: dict[int, list[tuple[float, int, float]]] = {}
        if not hasattr(os, "SCHED_IDLE"):
            return
        for cpu in cpus:
            # A plain child process, not multiprocessing: its spawn start
            # method also starts a resource-tracker process that outlives
            # the run by a moment.
            proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(cpu)], text=True,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            self.procs.append(proc)
            self._entries[cpu] = []
            reader = threading.Thread(target=self._read, args=(proc, self._entries[cpu]), daemon=True)
            reader.start()
            self.readers.append(reader)

    @staticmethod
    def _read(proc: subprocess.Popen[str], out: list[tuple[float, int, float]]) -> None:
        for line in proc.stdout:
            t, trees, spent = line.split()
            out.append((float(t), int(trees), float(spent)))

    def entries(self, cpu: int) -> list[tuple[float, int, float]]:
        return list(self._entries.get(cpu, ()))

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
        for reader in self.readers:
            reader.join()
        for proc in self.procs:
            proc.stdout.close()


def spin(cpu: int) -> None:
    """A spinner's body (see :class:`Spinners`).  It ends with the run,
    however the run ends."""
    parent = os.getppid()
    pin(cpu)
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    gc.disable()
    tally = Tally()
    while os.getppid() == parent:
        closed = tally.walk()
        if closed is not None:
            sys.stdout.write("%.6f %d %.9f\n" % closed)
            sys.stdout.flush()


if __name__ == "__main__":
    spin(int(sys.argv[1]))
