"""The one counter record: named int counters plus named histograms.

Every owner of counters holds one :class:`Metrics` — a
:class:`~repro.host.session.Session` (``resolver.*``, ``compile.*``,
``codegen.*``, ``analysis.*`` and ``session.*``), a
:class:`~repro.host.host.Host` (``host.*``), a
:class:`~repro.cluster.cluster.Cluster` (``cluster.*``) and a
:class:`~repro.gateway.server.Gateway` (``gateway.*``).  Keys are the
public namespaced names, so :meth:`Metrics.as_dict` and
:meth:`Metrics.histograms` export them as they are, and the snapshot
codec stores the record as one name-keyed list.

The record is a ``dict`` of counters: sites bump ``metrics[name] += 1``
and a name never declared reads as 0.  The compile stages take a
record too, so a standalone ``compile_program(nodes, Metrics())``
counts into a fresh one.  Counters are sums, except the declared
*peaks* — high-water marks, which :func:`rollup` combines by ``max``.
The machine's own ``stats``/``vm_stats`` dicts are not records: the run
loops bump those in place.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.histogram import Histogram

__all__ = ["Metrics", "rollup"]


class Metrics(dict):
    """Named int counters (the dict itself) and named histograms."""

    __slots__ = ("hists", "peaks")

    def __init__(
        self,
        counters: Iterable[str] = (),
        histograms: Iterable[str] = (),
        peaks: Iterable[str] = (),
    ) -> None:
        super().__init__(dict.fromkeys(counters, 0))
        self.peaks = frozenset(peaks)
        self.hists = {name: Histogram() for name in histograms}

    def __missing__(self, name: str) -> int:
        return 0

    def peak(self, name: str, value: int) -> None:
        """Raise the high-water mark ``name`` to ``value``."""
        if value > self[name]:
            self[name] = value

    def observe(self, name: str, value: float) -> None:
        self.hists[name].observe(value)

    def reset(self, namespace: str) -> None:
        """Zero the ``namespace.*`` counters and histograms."""
        for name in self.select((namespace,)):
            self[name] = 0
        for name in self.hists:
            if name.partition(".")[0] == namespace:
                self.hists[name] = Histogram()

    def as_dict(self) -> dict[str, int]:
        return dict(self)

    def select(self, namespaces: Iterable[str]) -> dict[str, int]:
        """The counters under the given namespaces (``x`` in ``x.name``)."""
        return {k: v for k, v in self.items() if k.partition(".")[0] in namespaces}

    def histograms(self) -> dict[str, Any]:
        """The distribution summaries, JSON-ready."""
        return {name: hist.as_dict() for name, hist in self.hists.items()}


def rollup(records: Iterable[Metrics], namespace: str) -> dict[str, int]:
    """The ``namespace.*`` counters of ``records`` combined: summed,
    except high-water marks, which take the maximum."""
    out: dict[str, int] = {}
    for record in records:
        for name, value in record.select((namespace,)).items():
            if name in record.peaks:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out
