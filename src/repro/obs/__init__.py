"""``repro.obs`` — the unified observability layer.

One :class:`Recorder` threads through machine → session → host, so a
single host request reconstructs as a span tree (host.tick →
session.pump → quantum → control events).  One :class:`Metrics`
record per owner (session, host, cluster, gateway) holds its counters
and histograms.  See ``docs/OBSERVABILITY.md`` for the model and
overhead numbers.
"""

from repro.obs.export import render_timeline, to_chrome_trace, validate_chrome_trace
from repro.obs.histogram import Histogram
from repro.obs.metrics import Metrics, rollup
from repro.obs.recorder import ObsEvent, Recorder

__all__ = [
    "Histogram",
    "Metrics",
    "ObsEvent",
    "Recorder",
    "render_timeline",
    "rollup",
    "to_chrome_trace",
    "validate_chrome_trace",
]
