"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer -- the
frame codec, ``Host.submit``/``tick``, ``Session`` creation, submit,
pump, snapshot and restore, the five front-end stages the session
calls, ``Machine.begin_eval`` and ``Machine.step_n`` (with the steps,
quanta and control events each call ran), ``Cluster.submit_async`` and
the shard request handler -- with recorders that keep one row per call
in memory.  Nothing under ``src/`` changes; the wrappers replace
attributes at run time, before any session or shard exists, so forked
shards inherit them.  The rows of a shard carry the shard's own
per-session request numbers, which restart when a session migrates.

A row is ``[name, start, end, parent, rid, value]``: ``parent`` is the
index of the enclosing row of the same thread (-1 at top level),
``rid`` the request the row belongs to (``"<session>#<n>"``, numbered
per session by the layer that first sees the request), and ``value``
a count the layer reports (forms read, steps run, bytes encoded, ...).
Rows named in :data:`NOT_CALLS` record a wait or an event, not a call.
Rows are written out as JSON when the process ends (:meth:`SpanLog.dump`).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import types
from time import perf_counter
from typing import Any, Callable


#: Rows that are not calls: excluded from self-time arithmetic.
NOT_CALLS = frozenset({"host.queue_wait", "analysis.grant"})


class SpanLog:
    """Per-thread span rows for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list[list[Any]]] = []
        self._lock = threading.Lock()
        # Machine -> rid of the evaluation it is running; id(first node
        # of a submitted form) -> (rid, time submit returned).
        self.machine_rid: dict[int, str] = {}
        self.pending: dict[int, tuple[str, float]] = {}
        self.seq: dict[str, int] = {}

    def reset(self) -> None:
        """Forget everything (a forked child starts empty)."""
        self.__init__()

    def state(self) -> Any:
        tl = self._local
        if not hasattr(tl, "rows"):
            tl.rows = []
            tl.stack = []
            tl.rid = None
            tl.quanta = 0
            with self._lock:
                self._threads.append(tl.rows)
        return tl

    def next_rid(self, session: str) -> str:
        with self._lock:
            n = self.seq.get(session, 0) + 1
            self.seq[session] = n
        return f"{session}#{n}"

    def add(self, name: str, start: float, end: float, rid: str | None, value: Any = None) -> None:
        """Record a row that is not a call (a wait, or an event when
        ``start == end``); its time is never subtracted from the
        enclosing call's self time."""
        tl = self.state()
        tl.rows.append([name, start, end, tl.stack[-1] if tl.stack else -1, rid, value])

    def dump(self, path: str) -> None:
        with self._lock:
            threads = [list(rows) for rows in self._threads]
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "threads": threads}, fh)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        value: Callable[[tuple, Any, Any], Any] | None = None,
        rid: Callable[[tuple], str | None] | None = None,
        before: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recorder around the original.
        ``rid(args)`` names the request a top-level call starts (it
        stays current for nested calls on this thread; a nested call
        keeps the request already current).  ``before(args)`` runs ahead
        of the call; ``value(args, pre, result)`` computes the row's
        count from its result."""
        fn = getattr(owner, attr)
        log = self

        @functools.wraps(fn)
        def recorder(*args: Any, **kwargs: Any) -> Any:
            tl = log.state()
            rows = tl.rows
            outer_rid = tl.rid
            if rid is not None and outer_rid is None:
                tl.rid = rid(args)
            pre = before(args) if before is not None else None
            row = [name, perf_counter(), 0.0, tl.stack[-1] if tl.stack else -1, tl.rid, None]
            rows.append(row)
            tl.stack.append(len(rows) - 1)
            try:
                result = fn(*args, **kwargs)
                row[2] = perf_counter()
                if value is not None:
                    row[5] = value(args, pre, result)
            finally:
                if not row[2]:
                    row[2] = perf_counter()
                tl.stack.pop()
                tl.rid = outer_rid
            return result

        setattr(owner, attr, recorder)


LOG = SpanLog()


def install(out_dir: str) -> SpanLog:
    """Wrap every traced layer entry point; shard workers forked after
    this call record into their own (emptied) log and dump it to
    ``out_dir`` when they exit."""
    import repro.cluster.cluster as cluster_mod
    import repro.gateway.server as gateway_server
    import repro.host.session as session_mod
    import repro.machine.scheduler as scheduler_mod
    from repro.cluster.cluster import Cluster
    from repro.cluster.shard import ShardRuntime
    from repro.host.host import Host
    from repro.host.session import Session
    from repro.machine.scheduler import Machine

    log = LOG

    # gateway: the frame codec the server calls
    log.wrap(gateway_server, "encode_frame", "gateway.codec")
    log.wrap(gateway_server, "decode_frame", "gateway.codec")

    # host and session
    log.wrap(Host, "submit", "host.submit",
             rid=lambda a: log.next_rid(a[1] if isinstance(a[1], str) else a[1].name))
    log.wrap(Host, "tick", "host.tick")
    log.wrap(Session, "__init__", "session.create")
    log.wrap(Session, "pump", "session.pump")

    def session_submit(args: tuple, pre: Any, handle: Any) -> None:
        if handle.nodes:
            log.pending[id(handle.nodes[0])] = (log.state().rid, perf_counter())

    log.wrap(Session, "submit", "session.submit", value=session_submit,
             rid=lambda a: log.next_rid(a[0].name))

    # the front-end stages, as the session module calls them
    log.wrap(session_mod, "read_all", "reader", value=lambda a, p, r: len(r))
    log.wrap(session_mod, "expand_program", "expander")
    log.wrap(session_mod, "resolve_program", "resolve")
    log.wrap(session_mod, "annotate_program", "analysis")
    log.wrap(session_mod, "compile_program", "compile")
    log.wrap(session_mod, "codegen_program", "compile")

    # machine: begin_eval ends the request's queue wait and says whether
    # the session granted an enlarged quantum; step_n counts steps,
    # quanta and control events while it runs.
    original_begin = Machine.begin_eval

    @functools.wraps(original_begin)
    def begin_eval(machine: Machine, node: Any, env: Any = None) -> None:
        now = perf_counter()
        entry = log.pending.pop(id(node), None)
        if entry is not None:
            rid, submitted = entry
            log.machine_rid[id(machine)] = rid
            log.add("host.queue_wait", submitted, now, rid)
        log.add("analysis.grant", now, now, log.machine_rid.get(id(machine)),
                1 if machine.quantum_grant is not None else 0)
        return original_begin(machine, node, env)

    Machine.begin_eval = begin_eval

    def step_counts(args: tuple, before: tuple[int, ...], result: Any) -> list[int]:
        machine = args[0]
        stats = machine.stats
        return [
            machine.steps_total - before[0],
            log.state().quanta - before[1],
            stats["captures"] - before[2],
            stats["reinstatements"] - before[3],
            stats["forks"] - before[4],
        ]

    def step_before(args: tuple) -> tuple[int, ...]:
        machine = args[0]
        stats = machine.stats
        return (machine.steps_total, log.state().quanta, stats["captures"],
                stats["reinstatements"], stats["forks"])

    log.wrap(Machine, "step_n", "machine.run", value=step_counts, before=step_before,
             rid=lambda a: log.machine_rid.get(id(a[0])))

    # vm.quanta: Machine.__init__ binds the run-quantum function of its
    # engine, so count calls of the module-level functions it binds.
    for attr in ("run_quantum", "run_quantum_compiled", "run_quantum_stepped"):
        original = getattr(scheduler_mod, attr)

        def counted(machine: Any, task: Any, budget: int, _fn: Any = original) -> Any:
            log.state().quanta += 1
            return _fn(machine, task, budget)

        setattr(scheduler_mod, attr, counted)

    # snapshot encode/decode (both happen on shards in the cluster tier)
    log.wrap(Session, "snapshot", "snapshot.encode", value=lambda a, p, r: len(r))
    restore = types.SimpleNamespace(fn=Session.__dict__["restore"].__func__)
    log.wrap(restore, "fn", "snapshot.decode")
    Session.restore = classmethod(restore.fn)

    # cluster front and shard handler
    log.wrap(Cluster, "submit_async", "cluster.submit",
             rid=lambda a: log.next_rid(a[1]))
    log.wrap(ShardRuntime, "handle", "shard.handle",
             rid=lambda a: log.next_rid(a[2]["session_id"]) if a[1] == "submit" else None,
             value=lambda a, p, r: a[1])

    original_shard_main = cluster_mod.shard_main

    @functools.wraps(original_shard_main)
    def shard_main(index: int, cmd_queue: Any, result_queue: Any) -> None:
        log.reset()
        try:
            original_shard_main(index, cmd_queue, result_queue)
        finally:
            log.dump(os.path.join(out_dir, f"spans-shard{index}-{os.getpid()}.json"))

    cluster_mod.shard_main = shard_main
    return log
