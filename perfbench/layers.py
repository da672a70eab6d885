"""Per-layer metrics from recorded spans, histograms and counters.

Self time of a call row is its duration minus the durations of the
call rows directly inside it on the same thread.  Rows under a session
creation or a snapshot restore (the prelude the new session runs) are
charged to that creation, not to the request front end.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Any, Iterable

from spans import NOT_CALLS
from spec import DETERMINISTIC

SETUP_ROWS = frozenset({"session.create", "snapshot.decode"})


@dataclass(frozen=True)
class Row:
    name: str
    start: float
    end: float
    self_time: float
    in_setup: bool  # inside a session creation / restore
    value: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def flatten(dumps: Iterable[dict[str, Any]]) -> list[Row]:
    out: list[Row] = []
    for dump in dumps:
        for rows in dump["threads"]:
            child = [0.0] * len(rows)
            setup = [False] * len(rows)
            for i, (name, start, end, parent, _rid, _value) in enumerate(rows):
                if parent >= 0:
                    setup[i] = setup[parent] or rows[parent][0] in SETUP_ROWS
                    if name not in NOT_CALLS:
                        child[parent] += end - start
            for i, (name, start, end, _parent, _rid, value) in enumerate(rows):
                self_time = 0.0 if name in NOT_CALLS else end - start - child[i]
                out.append(Row(name, start, end, self_time, setup[i], value))
    return out


def read_dumps(directory: str) -> list[dict[str, Any]]:
    dumps = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as fh:
            dumps.append(json.load(fh))
    return dumps


def within(rows: list[Row], window: tuple[float, float]) -> list[Row]:
    lo, hi = window
    return [r for r in rows if lo <= r.start <= hi]


def counts(rows: list[Row]) -> dict[str, int]:
    """The deterministic counts of a window (request work only)."""
    out = dict.fromkeys(DETERMINISTIC, 0)
    for r in rows:
        if r.name == "snapshot.encode":
            out["snapshot.bytes"] += r.value or 0
        if r.in_setup:
            continue
        if r.name == "reader" and r.value is not None:
            out["frontend.forms"] += r.value
        elif r.name == "analysis.grant":
            out["analysis.grants"] += r.value
        elif r.name == "machine.run" and r.value is not None:
            steps, quanta, captures, reinstatements, forks = r.value
            out["machine.steps"] += steps
            out["vm.quanta"] += quanta
            out["control.captures"] += captures
            out["control.reinstatements"] += reinstatements
            out["control.forks"] += forks
    return out


def _self_sum(rows: list[Row], name: str) -> float:
    return sum(r.self_time for r in rows if r.name == name and not r.in_setup)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _hist_mean(before: dict[str, Any], after: dict[str, Any], key: str) -> float:
    b, a = before.get(key) or {}, after.get(key) or {}
    n = a.get("count", 0) - b.get("count", 0)
    return (a.get("sum", 0) - b.get("sum", 0)) / n if n else 0.0


def phase_layers(
    rows: list[Row],
    *,
    requests: int,
    client_service_us: float,
    hist_before: dict[str, Any],
    hist_after: dict[str, Any],
    stats_before: dict[str, Any],
    stats_after: dict[str, Any],
) -> dict[str, float]:
    """Serving-layer metrics of one traced rate phase: per request
    means of self time, waits and the program's own histograms."""
    n = max(1, requests)
    us = 1e6
    out: dict[str, float] = {}
    server_us = _hist_mean(hist_before, hist_after, "gateway.request_us")
    out["gateway.server_us"] = server_us
    out["gateway.wire_us"] = client_service_us - server_us if server_us else 0.0
    out["gateway.codec_us"] = _self_sum(rows, "gateway.codec") * us / n

    def delta(key: str) -> float:
        return float(stats_after.get(key, 0) - stats_before.get(key, 0))

    out["gateway.frames"] = delta("gateway.frames")
    out["gateway.shed"] = delta("gateway.shed")
    out["host.queue_wait_us"] = _mean(
        [r.duration * us for r in rows if r.name == "host.queue_wait" and not r.in_setup]
    )
    ticks = [r.duration * us for r in rows if r.name == "host.tick"]
    out["host.tick_us"] = _mean(ticks)
    out["host.ticks"] = len(ticks) / n
    # A restore builds its session inside snapshot.decode: not a create.
    creates = [r.duration * us for r in rows if r.name == "session.create" and not r.in_setup]
    out["session.create_us"] = _mean(creates)
    out["session.creates"] = float(len(creates))
    for stage, metric in (("reader", "reader.us"), ("expander", "expander.us"),
                          ("resolve", "resolve.us"), ("analysis", "analysis.us"),
                          ("compile", "compile.us")):
        out[metric] = _self_sum(rows, stage) * us / n
    roundtrip = _hist_mean(hist_before, hist_after, "cluster.request_us")
    out["cluster.roundtrip_us"] = roundtrip
    out["cluster.queue_wait_us"] = server_us - roundtrip if roundtrip else 0.0
    out["cluster.restores"] = delta("cluster.restores")
    out["cluster.migrations"] = delta("cluster.migrations")
    out["snapshot.encode_us"] = _hist_mean(hist_before, hist_after, "cluster.snapshot_us")
    out["snapshot.decode_us"] = _hist_mean(hist_before, hist_after, "cluster.restore_us")
    busy = sum(r.self_time for r in rows if r.name not in NOT_CALLS)
    out["trace.unaccounted_us"] = client_service_us - busy * us / n
    return out


def pass_layers(rows: list[Row]) -> dict[str, float]:
    """Counts and machine time of one deterministic count pass."""
    out: dict[str, float] = {k: float(v) for k, v in counts(rows).items()}
    out["analysis.grant_ratio"] = (
        out["analysis.grants"] / out["frontend.forms"] if out["frontend.forms"] else 0.0
    )
    out["machine.run_us"] = _self_sum(rows, "machine.run") * 1e6
    return out
