"""The system under test, in a process of its own.

Starts a :class:`~repro.gateway.Gateway` with default settings over a
default :class:`~repro.host.Host` (``--backend host``) or a default
2-worker :class:`~repro.cluster.Cluster` (``--backend cluster``:
prelude sessions, snapshot after every request into a ``MemoryStore``),
prints ``{"port": N}`` on stdout, then answers JSON-line commands on
stdin until ``{"op": "quit"}``.  With ``--backend inprocess`` it sets up
what the ``programs`` workload runs in its own process (an
``Interpreter`` with the program definitions and a ``Host`` with every
workload session warm), prints ``{"ready": true}`` and serves only
``rss`` and ``quit``: launching it times that workload's set-up from a
fresh process.  The commands:

* ``hist`` -- ``Gateway.histograms()`` and, for a cluster,
  ``Cluster.histograms()``;
* ``migrate`` with ``"on": true/false`` -- start or stop moving
  sessions between shards on a seeded schedule through the public
  ``Cluster.migrate``;
* ``pids`` -- this process and every shard worker;
* ``rss`` -- peak resident set (``VmHWM``) of this process and every
  shard worker.

With ``--trace-dir`` the layer wrappers of :mod:`spans` are installed
before the backend exists (so forked shards inherit them) and every
process writes its spans there when it exits.

The process and everything it starts run on CPU ``--cpu``.

Usage: ``python3 perfbench/server.py --backend host|cluster|inprocess
--seed N --cpu C [--trace-dir DIR]`` from the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import random
import sys
import threading

from mix import SESSIONS
from speed import pin

MIGRATE_EVERY_S = 0.5  # gap between migrations


def vm_hwm_kb(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for {pid}")


class Migrator:
    """Every MIGRATE_EVERY_S, moves a seeded choice of session to the other shard."""

    def __init__(self, cluster: object, seed: int):
        self.cluster = cluster
        self.rng = random.Random(seed ^ 0x5EED)
        self.stop = threading.Event()
        self.thread: threading.Thread | None = None

    def start(self) -> None:
        if self.thread is None:
            self.stop.clear()
            self.thread = threading.Thread(target=self._run, name="migrator", daemon=True)
            self.thread.start()

    def halt(self) -> None:
        if self.thread is not None:
            self.stop.set()
            self.thread.join()
            self.thread = None

    def _run(self) -> None:
        cluster = self.cluster
        while not self.stop.wait(MIGRATE_EVERY_S):
            session = self.rng.choice(SESSIONS)
            cluster.migrate(session, (cluster.shard_for(session) + 1) % 2)


async def serve(backend_kind: str, seed: int, cpu: int) -> None:
    gateway = backend = migrator = None
    if backend_kind == "inprocess":
        from load import InProcessLoad
        from speed import Gauge

        backend = await InProcessLoad.start(seed, Gauge(cpu, cpu))
    else:
        from repro.cluster import Cluster
        from repro.gateway import Gateway
        from repro.host import Host

        backend = Cluster() if backend_kind == "cluster" else Host()
        gateway = Gateway(backend)
        await gateway.start()
        if backend_kind == "cluster":
            migrator = Migrator(backend, seed)
    loop = asyncio.get_running_loop()
    finished = asyncio.Event()

    def reply(obj: object) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    def control() -> None:
        try:
            for line in sys.stdin:
                cmd = json.loads(line)
                op = cmd["op"]
                if op == "quit":
                    break
                if op == "hist" and gateway is not None:
                    out = {"gateway": gateway.histograms()}
                    if migrator is not None:
                        out["cluster"] = backend.histograms()
                    reply(out)
                elif op == "migrate":
                    if migrator is not None:
                        migrator.start() if cmd["on"] else migrator.halt()
                    reply({"ok": True})
                elif op == "pids":
                    reply({"pids": [os.getpid()] + [p.pid for p in multiprocessing.active_children()]})
                elif op == "rss":
                    kb = vm_hwm_kb() + sum(vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
                    reply({"peak_rss_kb": kb})
                else:
                    reply({"error": f"unknown op {op!r}"})
        finally:
            loop.call_soon_threadsafe(finished.set)

    threading.Thread(target=control, name="control", daemon=True).start()
    reply({"port": gateway.port} if gateway is not None else {"ready": True})
    await finished.wait()
    if migrator is not None:
        migrator.halt()
    if gateway is not None:
        await gateway.close()
    if backend_kind == "cluster":
        backend.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("host", "cluster", "inprocess"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    # Before any thread or shard exists, so that all of them inherit it.
    pin(args.cpu)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    log = None
    if args.trace_dir:
        import spans

        log = spans.install(args.trace_dir)
    asyncio.run(serve(args.backend, args.seed, args.cpu))
    if log is not None:
        log.dump(os.path.join(args.trace_dir, f"spans-gateway-{os.getpid()}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
