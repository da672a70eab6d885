"""The quantum-batched run loop and its spill protocol.

The batched loops (:func:`repro.machine.step.run_quantum`,
:func:`~repro.machine.step.run_quantum_compiled`) hold the control
registers in Python locals and only write them back to the task at
spill points.  These tests pin the observable contract:

* a capture that fires mid-quantum sees exactly the machine state a
  quantum-of-one machine would have shown it;
* ``StepBudgetExceeded`` fires at *exactly* ``max_steps`` transitions,
  batched or driven one transition per call, with any quantum;
* a trace hook forces a per-step spill — it observes coherent task
  registers and step counters on every transition;
* ``profile=True`` keeps the VM counters, ``profile=False`` costs
  nothing and leaves them untouched;
* every engine's loop, driven one transition per call
  (:func:`drive_stepwise`), behaves exactly like the same loop run a
  whole quantum at a time.
"""

import pytest

from repro import Interpreter
from repro.errors import StepBudgetExceeded
from repro.machine.scheduler import ENGINES
from repro.machine.task import APPLY, EVAL, VALUE, TaskState

LOOP = "(define (count n) (if (= n 0) 'done (count (- n 1))))"


def drive_stepwise(machine):
    """Install a run-quantum wrapper on ``machine`` that calls the
    engine's own loop with budget 1, up to the quantum's budget times,
    while the task stays runnable — the loop driven one transition per
    call.  Batching keeps the control registers in locals between
    transitions; this takes them back out after every one, so any
    register the spill protocol forgets shows up as a difference."""
    loop = machine._run_quantum

    def one_transition_per_call(machine, task, budget):
        taken = 0
        while taken < budget and task.state is TaskState.RUNNABLE:
            taken += loop(machine, task, 1)
        return taken

    machine._run_quantum = one_transition_per_call
    return machine


def _interpreter(batched, **kwargs):
    interp = Interpreter(**kwargs)
    if not batched:
        drive_stepwise(interp.machine)
    return interp


# ---------------------------------------------------------------------------
# Exact budget semantics (the step_n clamp)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("quantum", [1, 16, 4096])
@pytest.mark.parametrize("max_steps", [1, 7, 100])
def test_budget_raises_at_exactly_max_steps(batched, quantum, max_steps):
    interp = _interpreter(batched, engine="compiled", quantum=quantum)
    interp.run(LOOP)
    interp.machine.steps_total = 0  # the budget covers the loop only
    interp.machine.max_steps = max_steps
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(count 1000000)")
    assert interp.machine.steps_total == max_steps


@pytest.mark.parametrize("engine", ENGINES)
def test_budget_not_overshot_by_batching(engine):
    # A program that finishes within the budget must not raise even
    # when the quantum is far larger than the budget headroom.
    interp = Interpreter(engine=engine, quantum=4096, max_steps=100000)
    interp.run(LOOP)
    assert interp.eval_to_string("(count 10)") == "done"


# ---------------------------------------------------------------------------
# Mid-quantum capture sees the same machine as quantum-of-one
# ---------------------------------------------------------------------------

CAPTURE_PROGRAM = """
(define saved #f)
(define r (+ 1 (+ 2 (call/cc (lambda (k) (set! saved k) 10)))))
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batched", [True, False])
def test_mid_quantum_capture_frame_chain(engine, batched):
    results = {}
    for quantum in (1, 4096):
        interp = _interpreter(batched, engine=engine, quantum=quantum)
        interp.run(CAPTURE_PROGRAM)
        first = interp.eval("r")
        # Reinstating the saved continuation re-runs the additions
        # around the capture point: the frame chain spilled mid-quantum
        # must be the full (+ 1 (+ 2 _)) tower, re-binding r.
        interp.eval("(if (< r 50) (saved 40) 'already)")
        results[quantum] = (first, interp.eval("r"))
    assert results[1] == results[4096] == (13, 43)


@pytest.mark.parametrize("engine", ENGINES)
def test_multi_shot_reinstatement_mid_quantum(engine):
    interp = Interpreter(engine=engine, quantum=4096)
    interp.run(CAPTURE_PROGRAM)
    # Fire the same captured continuation twice from inside a quantum:
    # each shot re-runs the (+ 1 (+ 2 _)) tower and re-binds r.
    interp.eval("(if (< r 100) (saved 100) 'already)")
    assert interp.eval("r") == 103
    interp.eval("(if (< r 200) (saved 200) 'already)")
    assert interp.eval("r") == 203


# ---------------------------------------------------------------------------
# Trace hooks force a per-step spill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batched", [True, False])
def test_trace_hook_sees_every_transition(engine, batched):
    interp = _interpreter(batched, engine=engine, quantum=4096)
    interp.run(LOOP)
    seen = []

    def hook(machine, task):
        # The spill protocol guarantees coherent registers here: the
        # tag is a live control tag and the machine counter matches
        # the number of hook calls so far.
        assert task.tag is EVAL or task.tag is VALUE or task.tag is APPLY
        assert machine.steps_total == len(seen)
        seen.append(task.tag)

    interp.machine.steps_total = 0
    interp.machine.trace_hook = hook
    interp.eval("(count 20)")
    interp.machine.trace_hook = None
    assert len(seen) == interp.machine.steps_total
    # Engines fuse differently (codegen's self-call inlining runs two
    # loop iterations per step); any real run of the loop still takes
    # a healthy number of transitions.
    assert len(seen) > 10


def test_trace_hook_count_is_batching_invariant():
    counts = {}
    for batched in (True, False):
        interp = _interpreter(batched, engine="compiled", quantum=16)
        interp.run(LOOP)
        calls = [0]

        def hook(machine, task, calls=calls):
            calls[0] += 1

        interp.machine.trace_hook = hook
        interp.eval("(count 50)")
        counts[batched] = calls[0]
    assert counts[True] == counts[False]


# ---------------------------------------------------------------------------
# VM profile counters
# ---------------------------------------------------------------------------


def test_profile_counters_track_quanta_and_spills():
    interp = Interpreter(engine="compiled", policy="serial", profile=True)
    interp.eval(LOOP)
    interp.eval("(count 100)")
    stats = interp.stats
    assert stats["vm.quanta"] > 0
    assert stats["vm.quantum_steps"] > 100
    # A tail loop of this shape runs almost entirely in registers.
    assert stats["vm.allocations_avoided"] > 100
    assert stats["vm.spill_trace"] == 0


def test_profile_off_leaves_counters_untouched():
    interp = Interpreter(engine="compiled")
    interp.eval("(+ 1 2)")
    assert all(value == 0 for value in interp.machine.vm_stats.values())
    assert "vm.quanta" not in interp.stats


def test_profile_counts_trace_spills():
    interp = Interpreter(engine="compiled", profile=True)
    interp.run(LOOP)
    interp.machine.trace_hook = lambda machine, task: None
    interp.eval("(count 10)")
    interp.machine.trace_hook = None
    assert interp.stats["vm.spill_trace"] > 0


# ---------------------------------------------------------------------------
# Every apply shape, batched and driven one transition per call
# ---------------------------------------------------------------------------

APPLY_SHAPES = [
    ("(+ 1 2 3)", "6"),
    ("((lambda (a b) (- a b)) 10 4)", "6"),
    ("((lambda args (length args)) 1 2 3 4)", "4"),
    ("((lambda (a . rest) (cons a rest)) 1 2 3)", "(1 2 3)"),
    ("(apply + '(1 2 3))", "6"),
    ("(call/cc (lambda (k) (+ 1 (k 41))))", "41"),
    ("(+ 1 (prompt (+ 10 (F (lambda (k) (k (k 100)))))))", "121"),
    ("(spawn (lambda (c) 5))", "5"),
]


@pytest.mark.parametrize("source,expected", APPLY_SHAPES)
@pytest.mark.parametrize("engine", ENGINES)
def test_unbatched_apply_path_is_equivalent(engine, source, expected):
    fast = _interpreter(True, engine=engine)
    slow = _interpreter(False, engine=engine)
    assert fast.eval_to_string(source) == slow.eval_to_string(source) == expected
    assert fast.machine.steps_total == slow.machine.steps_total


def test_arity_errors_agree_across_apply_paths():
    from repro.errors import ArityError

    for batched in (True, False):
        interp = _interpreter(batched, engine="compiled")
        with pytest.raises(ArityError):
            interp.eval("((lambda (a b) a) 1)")
        with pytest.raises(ArityError):
            interp.eval("((lambda (a b) a) 1 2 3)")
