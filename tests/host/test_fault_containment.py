"""Session-fatal fault containment: when a session dies (lifetime step
budget exhausted), every queued handle must reach a terminal state —
a PENDING handle left behind would block its waiter forever and
re-fault the session on every subsequent host tick."""

from __future__ import annotations

import pytest

from repro import Host, Session
from repro.errors import SessionCancelled, StepBudgetExceeded
from repro.host import HandleState

LOOP = "(define (spin n) (if (= n 0) 0 (spin (- n 1)))) (spin 100000)"


def make_faulting_session(**kwargs):
    """A session whose *lifetime* budget is far smaller than its first
    request, with more requests queued behind it."""
    s = Session(max_steps=200, **kwargs)
    doomed = s.submit(LOOP)
    queued = [s.submit("(+ 1 1)"), s.submit("(+ 2 2)")]
    return s, doomed, queued


def test_queued_handles_resolved_on_session_fatal_fault():
    s, doomed, queued = make_faulting_session()
    with pytest.raises(StepBudgetExceeded):
        while not s.idle:
            s.pump(512)
    assert doomed.state is HandleState.FAILED
    assert isinstance(doomed.exception(), StepBudgetExceeded)
    for handle in queued:
        assert handle.done(), "queued handle leaked in PENDING"
        assert handle.state is HandleState.CANCELLED
        exc = handle.exception()
        assert isinstance(exc, SessionCancelled)
        assert "session-fatal fault" in str(exc)
    # The queue is drained: the dead session reads as idle, so a
    # scheduler skips it instead of re-faulting it forever.
    assert s.idle
    assert s.queue_depth == 0


def test_fault_metrics_account_all_requests():
    s, doomed, queued = make_faulting_session()
    with pytest.raises(StepBudgetExceeded):
        while not s.idle:
            s.pump(512)
    # One failed active + two cancelled queued.
    assert s.metrics["session.evals_failed"] == 3
    assert s.metrics["session.cancellations"] == 2
    # Every request reached a terminal state, so every request is in
    # the latency histogram.
    assert s.metrics.hists["session.latency_us"].count == 3


def test_host_faults_once_not_every_tick():
    host = Host(quantum=512)
    s, doomed, queued = make_faulting_session()
    host.add_session(s)
    healthy = host.session(name="healthy")
    host.submit(healthy, "(+ 20 22)")
    for _ in range(10):
        host.tick()
    assert host.metrics["host.session_faults"] == 1, (
        "a dead session with a drained queue must not re-fault on "
        "every tick"
    )
    assert healthy.idle
    for handle in (doomed, *queued):
        assert handle.done()


def test_remove_session_resolves_queued_handles():
    """The other lifecycle edge: detaching a session from a host
    cancels everything still queued on it."""
    host = Host()
    s = host.session(name="leaver")
    h1 = host.submit(s, "(+ 1 1)")
    h2 = host.submit(s, "(+ 2 2)")
    host.remove_session(s)
    for handle in (h1, h2):
        assert handle.done()
        assert handle.state is HandleState.CANCELLED
