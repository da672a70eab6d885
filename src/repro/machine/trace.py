"""Structured execution tracing: a filtered view over the recorder.

:class:`Tracer` shows the control-relevant events of a run — forks,
joins firing, label and prompt pops, captures, reinstatements and,
optionally, task switches — as typed records, and renders them as a
readable timeline.  It exists for three consumers: debugging control
operators, the teaching examples, and tests that assert on *event
sequences* rather than just final values.

There is one event stream, the machine's
:class:`~repro.obs.recorder.Recorder`.  Every control event comes from
one of the machine's notify points (``notify_fork`` /
``notify_label_pop`` / ``notify_join_fire`` / ``notify_capture`` /
``notify_reinstate``), which all three engines call from shared code
and which count the event and emit it in the same place — so counted ==
emitted, whatever the engine, the quantum, or an abort mid-quantum.
A tracer only marks a window of that stream:

* a machine with an enabled recorder keeps it, and the recorder keeps
  receiving every event while the tracer is active (the tracer reads
  its window; on a recorder shared by several machines the window
  holds all of their control events);
* a machine without one gets a private recorder for the ``with``
  block, detached again on exit.

The recorder is a bounded ring.  If events of the window were evicted
(or the recorder was cleared) before they are read, :attr:`Tracer.events`
raises instead of returning a truncated list; attach a recorder with a
larger ``capacity`` to the machine for long traces.

With ``record_switches=True`` a per-step trace hook emits a
``task-switch`` event into the recorder whenever the running task
changes; only then do the batched run loops spill per step.

Usage::

    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) (c (lambda (k) (k 1)))))")
    print(tracer.render())
    tracer.events_of_kind("capture")   # -> [TraceEvent(...)]

A tracer instance may be reused: each ``with`` block starts a fresh
window.  Nested entry of the *same* instance is a bug and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.machine.task import Task
from repro.obs.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["TraceEvent", "Tracer"]

#: The recorder event names a tracer shows.
_CONTROL_KINDS = frozenset(
    ("fork", "join-fire", "label-pop", "prompt-pop", "capture", "reinstate", "task-switch")
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    step: int
    kind: str  # one of _CONTROL_KINDS
    detail: str


class Tracer:
    """A window over a machine's recorder, filtered to control events."""

    def __init__(self, machine: "Machine", record_switches: bool = False):
        self.machine = machine
        self.record_switches = record_switches
        self.recorder: Recorder | None = None
        self._start = 0
        self._end: int | None = 0
        self._saved: tuple[Any, Any] = (None, None)
        self._entered = False

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._entered:
            raise RuntimeError(
                "Tracer is not re-entrant: this instance is already active "
                "(sequential reuse across separate `with` blocks is fine)"
            )
        self._entered = True
        machine = self.machine
        self._saved = (machine.recorder, machine.trace_hook)
        rec = machine.recorder
        if rec is None or not rec.enabled:
            rec = machine.recorder = Recorder()
        self.recorder = rec
        self._start = rec.appended
        self._end = None
        if self.record_switches:
            previous = machine.trace_hook
            last_uid: list[int | None] = [None]

            def hook(machine_: "Machine", task: Task) -> None:
                if previous is not None:
                    previous(machine_, task)
                if task.uid != last_uid[0]:
                    last_uid[0] = task.uid
                    rec.emit("task-switch", f"-> task {task.uid}", step=machine_.steps_total)

            machine.trace_hook = hook
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self.recorder is not None
        self._end = self.recorder.appended
        self.machine.recorder, self.machine.trace_hook = self._saved
        self._entered = False

    # -- queries -------------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        """The window's control events, oldest first.  Raises
        :class:`RuntimeError` if any event of the window is gone from
        the recorder's ring."""
        rec = self.recorder
        if rec is None:
            return []
        end = rec.appended if self._end is None else self._end
        ring = rec.events
        first = rec.appended - len(ring)  # number of the oldest held event
        lost = min(end, first) - self._start
        if lost > 0:
            raise RuntimeError(
                f"trace window truncated: {lost} of its {end - self._start} "
                f"recorder events were evicted or cleared (ring capacity "
                f"{rec.capacity}); attach a larger Recorder to the machine"
            )
        return [
            TraceEvent(e.step, e.name, e.detail)
            for e in ring[self._start - first : end - first]
            if e.phase == "i" and e.name in _CONTROL_KINDS
        ]

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> list[str]:
        """The event-kind sequence (for order assertions)."""
        return [e.kind for e in self.events]

    def render(self) -> str:
        """A readable timeline."""
        lines = [f"{'step':>7s}  event"]
        for event in self.events:
            lines.append(f"{event.step:7d}  {event.kind:12s} {event.detail}")
        return "\n".join(lines)
