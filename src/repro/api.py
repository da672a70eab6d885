"""The public API: :class:`Interpreter`, a single-session façade.

    >>> from repro import Interpreter
    >>> interp = Interpreter()
    >>> interp.eval("(+ 1 2)")
    3
    >>> interp.definitions("(define (twice f x) (f (f x)))")
    >>> interp.eval("(twice (lambda (n) (* n n)) 3)")
    81

An :class:`Interpreter` is a thin wrapper over one
:class:`repro.host.Session` — the same object the multi-session
:class:`repro.host.Host` schedules N at a time — so everything the host
runtime offers (per-request step budgets and wall-clock deadlines,
suspendable evaluation, cooperative cancellation) is available on the
single-interpreter surface too:

    >>> from repro.errors import StepBudgetExceeded
    >>> try:
    ...     interp.eval("(let loop ([n 0]) (loop (+ n 1)))", max_steps=1000)
    ... except StepBudgetExceeded as exc:
    ...     exc.steps
    1000

Paper programs load by name via :meth:`load_paper_example`.  The
canonical constructor surface — shared verbatim by ``Session`` and
documented once, here (``docs/API.md`` mirrors it) — accepts enums or
their string values interchangeably for ``engine`` and ``policy``:

    >>> from repro import Engine
    >>> Interpreter(engine=Engine.DICT, prelude=False).engine
    'dict'
    >>> Interpreter(engine="dict", prelude=False).engine
    'dict'
"""

from __future__ import annotations

from typing import Any

from repro.host.handle import EvalHandle
from repro.host.session import Session
from repro.machine.scheduler import Engine, SchedulerPolicy, normalize_engine
from repro.obs.recorder import Recorder

__all__ = ["Interpreter"]


class Interpreter:
    """A complete Scheme-with-process-continuations system.

    Parameters
    ----------
    policy:
        Scheduling policy for ``pcall`` branches:
        :class:`~repro.machine.scheduler.SchedulerPolicy` or its string
        value — ``"round-robin"`` (default, deterministic), ``"random"``
        (seeded by ``seed``) or ``"serial"``.
    seed:
        RNG seed for the random policy.
    quantum:
        Steps a task runs before the scheduler rotates (round-robin).
    max_steps:
        Optional *lifetime* step budget for the interpreter; exceeding
        it raises :class:`repro.errors.StepBudgetExceeded`.  Per-call
        budgets are the ``max_steps``/``deadline`` keywords on
        :meth:`eval` and :meth:`run`.
    prelude:
        Load the Scheme prelude (list utilities, tree helpers).  On by
        default; switch off for a bare machine.
    echo_output:
        Also print ``display`` output to real stdout.
    engine:
        Execution engine: :class:`~repro.machine.scheduler.Engine` or
        its string value — ``"dict"``, ``"compiled"`` or ``"codegen"``
        (see :data:`repro.machine.scheduler.ENGINES`).  Defaults to
        ``"compiled"``: the pipeline reader → expand → resolve →
        compile → machine.  ``"codegen"`` goes one stage further —
        resolved IR is emitted as straight-line Python source,
        ``compile()``d once and cached by ``ir-hash-v1`` digest
        (:mod:`repro.ir.codegen`, DESIGN.md S26).  ``"dict"`` is the
        original dict-chain interpreter (the reference engine).  All
        three agree on every program — ``benchmarks/run_all.py`` runs
        the engine A/B.  Every engine runs each scheduler quantum in
        one Python frame with the control registers held in locals
        (DESIGN.md S21).
    profile:
        Keep VM run-loop counters (quanta, spill causes, write-backs
        avoided) in ``machine.vm_stats``; surfaced through
        :attr:`stats` and the REPL's ``,stats``.
    record:
        Observability (see ``docs/OBSERVABILITY.md``): ``True`` attaches
        a fresh :class:`~repro.obs.Recorder` ring buffer, or pass an
        existing :class:`~repro.obs.Recorder` to share one across
        machines.  Control events (captures, reinstatements, forks,
        label pops, join fires) and per-quantum timings stream into it;
        export with ``interp.recorder.to_chrome_trace()`` or
        ``interp.recorder.render()``.  Default None: zero overhead.
    analysis:
        Run the capture/effect analysis phase
        (:mod:`repro.analysis.effects`, ``docs/ANALYSIS.md``) on every
        submit: lambdas are stamped with conservative facts
        (capture-free, spawn-free, controller-confined, known-total),
        requests are classified pure / capture-heavy / spawning, and
        forms proven single-task run with an enlarged scheduler
        quantum.  On by default; ``analysis=False`` (the REPL's
        ``--no-analysis``) is the ablation baseline and always ignored
        on the ``dict`` engine.  Semantics are identical either way —
        ``benchmarks/bench_analysis.py`` gates on it.
    max_pending:
        Bound on queued + in-flight :meth:`submit` evaluations (passed
        to the underlying :class:`~repro.host.session.Session`);
        beyond it submit raises :class:`~repro.errors.HostSaturated` —
        the same backpressure contract as every other frontend.
    """

    def __init__(
        self,
        policy: str | SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
        seed: int | None = None,
        quantum: int = 16,
        max_steps: int | None = None,
        prelude: bool = True,
        echo_output: bool = False,
        engine: str | Engine | None = None,
        profile: bool = False,
        record: "Recorder | bool | None" = None,
        analysis: bool = True,
        max_pending: int = 64,
    ):
        # The resolve= sentinel (deprecated since 1.1) is gone as of
        # 1.4.0: engine="dict" is the only spelling of the dict-chain
        # ablation.  Passing resolve= now raises TypeError like any
        # unknown keyword.
        if engine is None:
            engine = "compiled"
        engine = normalize_engine(engine)
        self.session = Session(
            policy=policy,
            seed=seed,
            quantum=quantum,
            max_steps=max_steps,
            prelude=prelude,
            echo_output=echo_output,
            engine=engine,
            profile=profile,
            record=record,
            analysis=analysis,
            max_pending=max_pending,
        )
        # The wiring is the session's; these are the historical
        # attribute surface (tests, the REPL and the tracer reach for
        # interp.machine and friends directly).
        self.engine = self.session.engine
        self.machine = self.session.machine
        self.globals = self.session.globals
        self.output = self.session.output
        self.expand_env = self.session.expand_env
        self.analysis = self.session.analysis

    @property
    def resolve(self) -> bool:
        """Whether the resolver pass runs (every engine but ``dict``)."""
        return self.engine != "dict"

    @property
    def recorder(self) -> Recorder | None:
        """The attached observability recorder (None unless the
        interpreter was built with ``record=``)."""
        return self.session.recorder

    # -- evaluation -----------------------------------------------------

    def run(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> list[Any]:
        """Read, expand, resolve and — on the compiled engine —
        closure-compile every form in ``source``, then evaluate.

        Returns the list of values (definitions yield the unspecified
        value).  ``max_steps`` bounds this call's machine steps
        (enforced exactly; raises
        :class:`~repro.errors.StepBudgetExceeded`); ``deadline`` is a
        wall-clock allowance in seconds (raises
        :class:`~repro.errors.DeadlineExceeded` within one machine
        quantum of expiry).  Both tighten, never loosen, the
        interpreter's lifetime ``max_steps``."""
        return self.session.drive(
            self.session.submit(source, max_steps=max_steps, deadline=deadline)
        )

    def eval(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> Any:
        """Evaluate ``source`` and return the value of its *last* form;
        budget keywords as for :meth:`run`."""
        results = self.run(source, max_steps=max_steps, deadline=deadline)
        if not results:
            return None
        return results[-1]

    def eval_to_string(self, source: str) -> str:
        """Evaluate and render the result with ``write`` syntax."""
        return self.session.eval_to_string(source)

    def submit(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> EvalHandle:
        """Queue ``source`` without running it; returns the handle
        (resolve it with ``handle.result()`` or by pumping
        :attr:`session`).  The keyword surface is the shared submit
        contract (``docs/API.md``).  This is the incremental path —
        see :class:`repro.host.Session`."""
        return self.session.submit(
            source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )

    # -- conveniences ----------------------------------------------------

    def definitions(self, source: str) -> None:
        """Alias of :meth:`run` for readability at call sites that load
        definitions only."""
        self.session.run(source)

    def load_paper_example(self, name: str) -> None:
        """Load one of the paper's programs (and its prerequisites) by
        name; see :data:`repro.lib.paper_examples.ALL` for names."""
        self.session.load_paper_example(name)

    def load_file(self, path: str) -> list[Any]:
        """Read and run a Scheme source file; returns the form values."""
        return self.session.load_file(path)

    def load_library(self, name: str) -> None:
        """Load a derived Scheme library: ``exceptions``,
        ``generators``, ``coroutines``, ``parallel`` or ``amb``
        (see :mod:`repro.lib.derived`)."""
        self.session.load_library(name)

    def output_text(self) -> str:
        """Everything ``display``/``write``/``newline`` produced so far."""
        return self.session.output_text()

    def clear_output(self) -> None:
        self.session.clear_output()

    @property
    def stats(self) -> dict[str, int]:
        """Machine counters (forks, captures, reinstatements, ...)
        plus the session's frontend (``resolver.*``, ``analysis.*``,
        ``compile.*`` or ``codegen.*``), ``vm.*`` (``profile=True``)
        and ``session.*`` counters; see :attr:`Session.stats`."""
        return self.session.stats
