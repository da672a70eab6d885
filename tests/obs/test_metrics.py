"""The counter record: counters, peaks, histograms, namespaces, rollup."""

from repro.obs import Metrics, rollup


def _record() -> Metrics:
    return Metrics(
        ("a.x", "a.depth", "b.y"),
        histograms=("a.lat",),
        peaks=("a.depth",),
    )


def test_declared_counters_start_at_zero_and_undeclared_read_zero():
    m = _record()
    assert m.as_dict() == {"a.x": 0, "a.depth": 0, "b.y": 0}
    assert m["nope.z"] == 0 and "nope.z" not in m
    m["nope.z"] += 2  # a bump declares it
    assert m["nope.z"] == 2


def test_peak_only_rises():
    m = _record()
    m.peak("a.depth", 3)
    m.peak("a.depth", 1)
    assert m["a.depth"] == 3


def test_select_reset_and_histograms():
    m = _record()
    m["a.x"] += 1
    m["b.y"] += 5
    m.observe("a.lat", 7)
    assert m.select(("a",)) == {"a.x": 1, "a.depth": 0}
    assert m.select(()) == {}
    assert m.histograms()["a.lat"]["count"] == 1
    m.reset("a")
    assert m.as_dict() == {"a.x": 0, "a.depth": 0, "b.y": 5}
    assert m.histograms()["a.lat"]["count"] == 0


def test_rollup_sums_counters_and_maxes_peaks():
    one, two = _record(), _record()
    one["a.x"] += 2
    two["a.x"] += 3
    one.peak("a.depth", 3)
    two.peak("a.depth", 3)
    assert rollup([one, two], "a") == {"a.x": 5, "a.depth": 3}
    assert rollup([], "a") == {}
