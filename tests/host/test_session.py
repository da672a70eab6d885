"""Session-level behaviour: incremental pumping, suspend/resume across
pumps, per-request budgets, error isolation, namespaced stats."""

from __future__ import annotations

import pytest

from repro import Engine, Session
from repro.errors import (
    DeadlineExceeded,
    HostSaturated,
    ReaderError,
    SchemeError,
    SessionCancelled,
    StepBudgetExceeded,
)
from repro.host import HandleState

ENGINES = ["dict", "compiled"]

LOOP = "(define (loop n) (loop (+ n 1)))"
SUM_100 = "(let loop ([n 0] [acc 0]) (if (= n 100) acc (loop (+ n 1) (+ acc n))))"


# -- basics ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_eval_roundtrip(engine):
    session = Session(engine=engine)
    assert session.eval("(+ 1 2)") == 3


def test_engine_enum_accepted():
    assert Session(engine=Engine.DICT, prelude=False).engine == "dict"
    assert Session(engine="codegen", prelude=False).engine == "codegen"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Session(engine="bytecode", prelude=False)


def test_run_returns_per_form_values(bare_session):
    values = bare_session.run("(+ 1 1) (+ 2 2) (+ 3 3)")
    assert values == [2, 4, 6]


def test_frontend_errors_raise_at_submit(bare_session):
    with pytest.raises(ReaderError):
        bare_session.submit("(+ 1")
    assert bare_session.idle  # nothing was queued


# -- incremental pumping --------------------------------------------------


@pytest.fixture
def bare_session() -> Session:
    return Session(prelude=False)


@pytest.mark.parametrize("engine", ENGINES)
def test_pump_suspends_and_resumes(engine):
    session = Session(engine=engine, prelude=False)
    handle = session.submit(SUM_100)
    pumps = 0
    while not handle.done():
        took = session.pump(25)
        assert took <= 25
        pumps += 1
    assert handle.result() == 4950
    assert pumps > 3  # genuinely incremental, not one shot
    assert handle.steps == session.metrics["session.steps_served"]


def test_pump_zero_budget_is_a_noop(bare_session):
    handle = bare_session.submit("(+ 1 2)")
    assert bare_session.pump(0) == 0
    assert handle.state is HandleState.PENDING


def test_pcall_tree_survives_suspension():
    # A capture-heavy program suspended mid-pcall must resume correctly:
    # the whole process tree (branches, join, controller root) is live
    # state between pumps.
    session = Session(quantum=4)
    session.load_paper_example("sum-of-products")
    handle = session.submit("(sum-of-products '(1 2 3) '(4 0 6))")
    while not handle.done():
        session.pump(7)  # deliberately tiny, misaligned with quantum
    assert handle.result() == 6


def test_fifo_order_across_handles(bare_session):
    first = bare_session.submit("(define x 10)")
    second = bare_session.submit("(+ x 1)")
    while not second.done():
        bare_session.pump(64)
    assert first.done()
    assert second.result() == 11


def test_handle_result_drives_session(bare_session):
    handle = bare_session.submit("(* 6 7)")
    assert handle.result() == 42  # no explicit pump needed
    assert handle.state is HandleState.DONE


# -- per-request budgets --------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_step_budget_enforced_exactly(engine):
    session = Session(engine=engine)
    session.run(LOOP)
    handle = session.submit("(loop 0)", max_steps=500)
    while not handle.done():
        session.pump(64)
    assert handle.state is HandleState.FAILED
    assert isinstance(handle.exception(), StepBudgetExceeded)
    assert handle.steps == 500  # exact, not approximate
    assert session.metrics["session.deadline_misses"] == 1


def test_step_budget_smaller_than_pump(bare_session):
    handle = bare_session.submit(SUM_100, max_steps=10)
    bare_session.pump(1 << 20)
    assert isinstance(handle.exception(), StepBudgetExceeded)
    assert handle.steps == 10


def test_wall_deadline_zero_runs_no_steps(bare_session):
    handle = bare_session.submit(SUM_100, deadline=0.0)
    bare_session.pump(1 << 20)
    assert isinstance(handle.exception(), DeadlineExceeded)
    assert handle.steps == 0  # refused before the first quantum


def test_wall_deadline_mid_run():
    session = Session()
    session.run(LOOP)
    handle = session.submit("(loop 0)", deadline=0.05)
    while not handle.done():
        session.pump(4096)
    assert isinstance(handle.exception(), DeadlineExceeded)
    assert handle.exception().steps == handle.steps


def test_budget_miss_does_not_poison_session(bare_session):
    doomed = bare_session.submit(SUM_100, max_steps=5)
    after = bare_session.submit("(+ 40 2)")
    while not after.done():
        bare_session.pump(64)
    assert isinstance(doomed.exception(), StepBudgetExceeded)
    assert after.result() == 42


def test_lifetime_budget_still_raises_to_driver():
    session = Session(max_steps=200, prelude=False)
    handle = session.submit(SUM_100)
    with pytest.raises(StepBudgetExceeded):
        session.drive(handle)
    assert handle.state is HandleState.FAILED
    assert session.machine.steps_total == 200


# -- errors and cancellation ----------------------------------------------


def test_scheme_error_fails_only_its_handle(bare_session):
    bad = bare_session.submit("(error \"boom\")")
    good = bare_session.submit("(+ 1 2)")
    while not good.done():
        bare_session.pump(64)
    assert isinstance(bad.exception(), SchemeError)
    assert good.result() == 3


def test_cancel_queued_handle(bare_session):
    blocker = bare_session.submit(SUM_100)
    queued = bare_session.submit("(+ 1 2)")
    assert queued.cancel() is True
    assert queued.state is HandleState.CANCELLED
    assert isinstance(queued.exception(), SessionCancelled)
    assert blocker.result() == 4950  # sibling unaffected


def test_cancel_in_flight_handle(bare_session):
    handle = bare_session.submit(SUM_100)
    bare_session.pump(20)  # started, suspended mid-run
    assert handle.state is HandleState.RUNNING
    assert handle.cancel() is True
    assert handle.state is HandleState.CANCELLED
    with pytest.raises(SessionCancelled):
        handle.result()
    assert bare_session.eval("(* 2 3)") == 6  # machine left clean


def test_cancel_terminal_handle_returns_false(bare_session):
    handle = bare_session.submit("(+ 1 2)")
    assert handle.result() == 3
    assert handle.cancel() is False


def test_cancel_all(bare_session):
    handles = [bare_session.submit("(+ 1 2)") for _ in range(3)]
    bare_session.pump(2)  # first handle now in flight
    assert bare_session.cancel_all() == 3
    assert bare_session.idle
    assert all(h.state is HandleState.CANCELLED for h in handles)


def test_cancellation_during_in_flight_capture():
    # Cancel while the tree is suspended mid-pcall with a controller
    # captured: discard must be at the root, leaving the session able
    # to run the same program again correctly.
    session = Session(quantum=4)
    session.load_paper_example("sum-of-products")
    handle = session.submit("(sum-of-products '(1 2 3) '(4 5 6))")
    session.pump(30)  # inside the pcall, captures have happened
    assert handle.state is HandleState.RUNNING
    handle.cancel()
    assert handle.state is HandleState.CANCELLED
    assert session.eval("(sum-of-products '(1 2 3) '(4 0 6))") == 6


# -- backpressure ---------------------------------------------------------


def test_bounded_queue_saturates():
    session = Session(prelude=False, max_pending=2)
    session.submit("(+ 1 1)")
    session.submit("(+ 2 2)")
    with pytest.raises(HostSaturated):
        session.submit("(+ 3 3)")
    assert session.metrics["session.saturations"] == 1
    # Draining frees capacity.
    session.pump(1 << 20)
    session.submit("(+ 4 4)")


# -- stats ----------------------------------------------------------------


def test_stats_namespaced_only():
    # 1.4.0: the flat aliases are gone; every compiler/VM counter is
    # exported once, under its namespace.
    session = Session(engine="compiled", profile=True)
    session.eval("(+ 1 2)")
    stats = session.stats
    for flat, namespaced in [
        ("resolver_locals", "resolver.locals"),
        ("compile_nodes", "compile.nodes"),
        ("vm_quanta", "vm.quanta"),
    ]:
        assert namespaced in stats
        assert flat not in stats
    assert stats["session.submits"] == session.metrics["session.submits"]


def test_dict_engine_has_no_resolver_stats():
    session = Session(engine="dict", prelude=False)
    session.eval("(+ 1 2)")
    assert "resolver.locals" not in session.stats


def test_sessions_are_isolated():
    a = Session(prelude=False)
    b = Session(prelude=False)
    a.run("(define shared 1)")
    b.run("(define shared 2)")
    assert a.eval("shared") == 1
    assert b.eval("shared") == 2
