"""Metric-name stability: the exact key sets of every public stats and
histograms surface.

Dashboards, ``BENCH_results.json`` and ``perfbench/`` read these names,
so a change to how counters are held must rename nothing.  Each pinned
set below is the complete key set of one surface after a small fixed
workload; a key added, dropped or respelled fails here.

Run this module as a script (``PYTHONPATH=src python
tests/obs/test_metric_names.py``) to print the current sets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Interpreter
from repro.cluster import Cluster
from repro.gateway import Gateway, GatewayClient
from repro.host import Host, Session

ENGINES = ("dict", "compiled", "codegen")

MACHINE = {
    "forks", "label_pops", "join_fires", "captures", "reinstatements",
    "tasks_created",
}

SESSION = {
    "session.submits", "session.evals_completed", "session.evals_failed",
    "session.deadline_misses", "session.cancellations", "session.saturations",
    "session.quanta_served", "session.steps_served", "session.max_queue_depth",
    "session.submits_pure", "session.submits_capture_heavy",
    "session.submits_spawning",
}

RESOLVER = {
    "resolver.locals", "resolver.globals", "resolver.lambdas",
    "resolver.cells_interned", "resolver.cell_cache_hits",
}

COMPILE = {
    "compile.nodes", "compile.lambdas", "compile.apps_inlined",
    "compile.tests_inlined",
}

CODEGEN = {
    "codegen.hits", "codegen.misses", "codegen.evictions", "codegen.emit_us",
    "codegen.nodes", "codegen.lambdas", "codegen.apps_inlined",
    "codegen.tests_inlined", "codegen.prims_inlined", "codegen.inline_bodies",
    "codegen.self_inlines", "codegen.spill_elisions", "codegen.fallback_nodes",
}

ANALYSIS = {
    "analysis.forms", "analysis.lambdas", "analysis.capture_free",
    "analysis.spawn_free", "analysis.known_total", "analysis.spawn_sites",
    "analysis.fixpoint_passes", "analysis.grants",
}

VM = {
    "vm.quanta", "vm.quantum_steps", "vm.spill_apply", "vm.spill_control",
    "vm.spill_suspend", "vm.spill_budget", "vm.spill_trace",
    "vm.spill_fallback", "vm.allocations_avoided",
}

ENGINE_KEYS = {"dict": set(), "compiled": RESOLVER | COMPILE, "codegen": RESOLVER | CODEGEN}

HOST = {
    "host.ticks", "host.submits", "host.saturations", "host.steps_served",
    "host.session_faults", "host.sessions",
} | {"host.sessions." + key.split(".", 1)[1] for key in SESSION}

HOST_HISTOGRAMS = {
    "host.tick_us", "host.steps_per_tick",
    "session.a.latency_us", "session.a.steps_per_request",
    "session.b.latency_us", "session.b.steps_per_request",
}

CLUSTER = {
    "cluster.submits", "cluster.completed", "cluster.failed",
    "cluster.saturations", "cluster.cancellations", "cluster.snapshots",
    "cluster.restores", "cluster.migrations", "cluster.recoveries",
    "cluster.respawns", "cluster.evictions", "cluster.shards",
    "cluster.queue_depth", "cluster.resident_sessions",
    "cluster.stored_sessions",
}

CLUSTER_HISTOGRAMS = {
    "cluster.snapshot_bytes", "cluster.snapshot_us", "cluster.restore_us",
    "cluster.request_us",
}

GATEWAY_COUNTERS = {
    "gateway.connections", "gateway.disconnects", "gateway.frames",
    "gateway.submits", "gateway.completed", "gateway.failed",
    "gateway.cancelled", "gateway.shed", "gateway.protocol_errors",
    "gateway.disconnect_cancels", "gateway.output_events",
    "gateway.recovery.replays", "gateway.recovery.failures",
}

GATEWAY = GATEWAY_COUNTERS | {"gateway.inflight", "gateway.tracked_requests"}

GATEWAY_HISTOGRAMS = {"gateway.request_us", "gateway.result_wait_us"}

#: The ``stats`` op: backend stats, the gateway counters, and inflight.
STATS_OP_HOST = HOST | GATEWAY_COUNTERS | {"gateway.inflight"}
STATS_OP_CLUSTER = CLUSTER | GATEWAY_COUNTERS | {"gateway.inflight"}


def session_keys(engine: str, analysis: bool) -> set[str]:
    keys = MACHINE | SESSION | ENGINE_KEYS[engine]
    if analysis and engine != "dict":
        keys |= ANALYSIS
    return keys


# -- the surfaces, after a fixed workload ---------------------------------


def session_stats(engine: str, analysis: bool) -> dict[str, int]:
    session = Session(engine=engine, analysis=analysis)
    session.eval("(define (sq x) (* x x)) (sq 7)")
    return session.stats


def host_surfaces() -> tuple[dict, dict, dict]:
    host = Host()
    host.session("a")
    host.session("b")
    host.submit("a", "(+ 1 2)")
    host.submit("b", "(pcall + 1 2)")
    host.run_until_idle()
    return host.stats, host.histograms(), host.session_stats()


def cluster_surfaces() -> tuple[dict, dict]:
    with Cluster(workers=0, session_defaults={"prelude": False}) as cluster:
        cluster.submit("a", "(+ 1 2)")
        return cluster.stats, cluster.histograms()


def gateway_surfaces(backend) -> tuple[dict, dict, dict]:
    async def main():
        async with Gateway(backend) as gw:
            client = await GatewayClient.connect(gw.host, gw.port)
            try:
                await client.eval("s", "(+ 1 2)")
                op = await client.stats()
            finally:
                await client.close()
            return gw.stats, gw.histograms(), op

    return asyncio.run(main())


# -- the pins -------------------------------------------------------------


@pytest.mark.parametrize("analysis", [True, False])
@pytest.mark.parametrize("engine", ENGINES)
def test_session_stats_names(engine, analysis):
    assert set(session_stats(engine, analysis)) == session_keys(engine, analysis)


def test_interpreter_stats_names_with_profile():
    interp = Interpreter(profile=True)
    interp.eval("(+ 1 2)")
    assert set(interp.stats) == session_keys("compiled", True) | VM


def test_host_stats_and_histogram_names():
    stats, hists, per_session = host_surfaces()
    assert set(stats) == HOST
    assert set(hists) == HOST_HISTOGRAMS
    assert set(per_session) == {"a", "b"}
    for keys in per_session.values():
        assert set(keys) == session_keys("compiled", True)


def test_cluster_stats_and_histogram_names():
    stats, hists = cluster_surfaces()
    assert set(stats) == CLUSTER
    assert set(hists) == CLUSTER_HISTOGRAMS


def test_gateway_stats_histogram_and_stats_op_names():
    stats, hists, op = gateway_surfaces(Host())
    assert set(stats) == GATEWAY
    assert set(hists) == GATEWAY_HISTOGRAMS
    assert set(op) == STATS_OP_HOST


def test_gateway_stats_op_names_over_a_cluster():
    cluster = Cluster(workers=0, session_defaults={"prelude": False})
    try:
        _, _, op = gateway_surfaces(cluster)
    finally:
        cluster.close()
    assert set(op) == STATS_OP_CLUSTER


def test_every_histogram_summary_has_the_same_fields():
    _, hists, _ = host_surfaces()
    fields = {"count", "sum", "min", "max", "mean", "p50", "p90", "p99", "buckets"}
    for name, summary in hists.items():
        assert set(summary) == fields, name


if __name__ == "__main__":  # pragma: no cover - prints the current sets
    for engine in ENGINES:
        for analysis in (True, False):
            print(engine, analysis, sorted(session_stats(engine, analysis)))
    for label, surface in (("host", host_surfaces()), ("cluster", cluster_surfaces()),
                           ("gateway", gateway_surfaces(Host()))):
        for part in surface:
            print(label, sorted(part))
