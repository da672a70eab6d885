"""Seeded inputs for every workload, with answers computed in plain Python.

Nothing here imports the interpreter: each expected answer is worked
out by the generator itself, so a wrong answer from the system under
test can never agree with the oracle by construction.

Two families of inputs:

* the **serve mix** -- one-form requests over a few dozen Zipf-weighted
  sessions (fresh constants, ``let``, named-``let`` loops, per-session
  state, a ``call/cc`` escape and a ``spawn`` escape), plus a seeded
  share of requests to sessions never seen before;
* the **program sets** -- a compute set (fib, tak, tail mutual
  recursion, list operations) and a control set (deep ``call/cc``
  capture, ``spawn`` generators over trees, ``amb`` multi-shot search,
  ``pcall`` parallel search / parallel-or with subtree abort, and
  ``par-map`` forks).  Definitions load once per session; each program
  is then one request whose sizes come from fixed ranges by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Workload sessions: warmed up once (setup), then Zipf-weighted.
SESSIONS = tuple(f"s{i:02d}" for i in range(32))
ZIPF_S = 1.1
#: Share of requests that open a session the backend has never seen:
#: rare enough to stay out of the median, and exactly one in every
#: 1/COLD_SHARE requests so every run creates the same number.
COLD_SHARE = 0.003
#: What a ``define`` prints as through the gateway.
UNSPECIFIED = "#<unspecified>"
#: The per-session counter every warm-up request defines.
WARMUP_SOURCE = "(define ctr 0)"


@dataclass
class Request:
    """One serve request.  ``expect`` is the printed answer, or None
    for a read of ``ctr`` (resolved at answer time by
    :meth:`ServeMix.expected`, because a refused ``set!`` never ran)."""

    seq: int
    session: str
    source: str
    expect: str | None
    sets_to: int | None = None


class ServeMix:
    """The serve-request generator and its oracle.

    Requests of one session must reach the backend in generation order
    (the load generator keeps each session on one connection), so the
    oracle can follow per-session state.
    """

    def __init__(self, seed: int, *, sessions: tuple[str, ...] = SESSIONS,
                 cold_share: float = COLD_SHARE, cold_prefix: str = "c"):
        self.rng = random.Random(seed)
        self.sessions = sessions
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(sessions))]
        order = list(sessions)
        self.rng.shuffle(order)  # which session is hottest depends on the seed
        self._order = order
        self._weights = weights
        self._lanes: dict[int, dict[str, int]] = {}
        # Exactly one request in every ``1 / cold_share`` opens a new
        # session; the seed decides which one of the first stretch.
        self._cold_every = round(1 / cold_share)
        self._until_cold = self.rng.randrange(1, self._cold_every + 1)
        self.cold_prefix = cold_prefix
        self._cold = 0
        self._seq = 0
        # session -> [(seq, value)] for set! requests, and the set of
        # seqs the backend admitted.
        self._sets: dict[str, list[tuple[int, int]]] = {s: [] for s in sessions}
        self._admitted: set[int] = set()

    def lanes(self, n: int) -> dict[str, int]:
        """Workload sessions spread over ``n`` connections so each
        carries about the same share of the traffic, whichever session
        the seed made hottest (heaviest first, onto the lightest lane)."""
        if n not in self._lanes:
            load = [0.0] * n
            lanes = self._lanes[n] = {}
            for session, weight in zip(self._order, self._weights):
                lane = load.index(min(load))
                lanes[session] = lane
                load[lane] += weight
        return self._lanes[n]

    def warmup(self) -> list[Request]:
        """One request per workload session: creates it and defines ``ctr``."""
        return [self._make(s, WARMUP_SOURCE, UNSPECIFIED) for s in self.sessions]

    def _make(self, session: str, source: str, expect: str | None,
              sets_to: int | None = None) -> Request:
        self._seq += 1
        req = Request(self._seq, session, source, expect, sets_to)
        if sets_to is not None:
            self._sets[session].append((req.seq, sets_to))
        return req

    def take(self, n: int) -> list[Request]:
        return [self.next() for _ in range(n)]

    def next(self) -> Request:
        rng = self.rng
        self._until_cold -= 1
        if self._until_cold <= 0:
            self._until_cold = self._cold_every
            self._cold += 1
            a = rng.randrange(1_000_000)
            return self._make(f"{self.cold_prefix}{self._cold:05d}", f"(+ {a} 1)", str(a + 1))
        session = rng.choices(self._order, self._weights)[0]
        roll = rng.random()
        a = rng.randrange(1_000_000)
        b = rng.randrange(1, 1000)
        if roll < 0.30:
            return self._make(session, f"(+ {a} 1)", str(a + 1))
        if roll < 0.40:
            if rng.random() < 0.5:
                return self._make(session, f"(* {a} {b})", str(a * b))
            return self._make(session, f"(- {a} {b})", str(a - b))
        if roll < 0.55:
            return self._make(
                session, f"(let ((x {a}) (y {b})) (+ (* x y) x))", str(a * b + a)
            )
        if roll < 0.70:
            n = rng.randrange(5, 41)
            src = (
                f"(let loop ((i 0) (acc {a})) "
                f"(if (= i {n}) acc (loop (+ i 1) (+ acc i))))"
            )
            return self._make(session, src, str(a + n * (n - 1) // 2))
        if roll < 0.78:
            return self._make(session, f"(begin (set! ctr {a}) ctr)", str(a), sets_to=a)
        if roll < 0.85:
            return self._make(session, "ctr", None)
        if roll < 0.90:
            j = rng.randrange(8)
            return self._make(session, f"(begin (define v{j} {a}) v{j})", str(a))
        if roll < 0.95:
            return self._make(session, f"(call/cc (lambda (k) (+ 1 (k {a}))))", str(a))
        return self._make(session, f"(spawn (lambda (c) (+ 1 (c (lambda (k) {a})))))", str(a))

    def admitted(self, req: Request) -> None:
        """Record that the backend accepted ``req`` (it will run)."""
        self._admitted.add(req.seq)

    def expected(self, req: Request) -> str:
        """The printed answer for ``req``.  A ``ctr`` read sees the
        last *admitted* ``set!`` before it in its session (0 if none);
        call once every earlier request of the session has its
        admission outcome, which per-session FIFO order guarantees by
        the time the read answers."""
        if req.expect is not None:
            return req.expect
        value = 0
        for seq, v in self._sets.get(req.session, ()):
            if seq > req.seq:
                break
            if seq in self._admitted:
                value = v
        return str(value)


# -- the program sets ----------------------------------------------------

#: Loaded once per session that runs programs.  Only primitives and core
#: syntax are used, so the same text runs with or without the prelude.
PROGRAM_DEFS = r"""
(define (pb-fib n) (if (< n 2) n (+ (pb-fib (- n 1)) (pb-fib (- n 2)))))
(define (pb-tak x y z)
  (if (not (< y x)) z
      (pb-tak (pb-tak (- x 1) y z) (pb-tak (- y 1) z x) (pb-tak (- z 1) x y))))
(define (pb-even? n) (if (= n 0) #t (pb-odd? (- n 1))))
(define (pb-odd? n) (if (= n 0) #f (pb-even? (- n 1))))
(define (pb-map f ls) (if (null? ls) '() (cons (f (car ls)) (pb-map f (cdr ls)))))
(define (pb-for-each f ls) (if (null? ls) #t (begin (f (car ls)) (pb-for-each f (cdr ls)))))
(define (pb-filter p ls)
  (cond ((null? ls) '())
        ((p (car ls)) (cons (car ls) (pb-filter p (cdr ls))))
        (else (pb-filter p (cdr ls)))))
(define (pb-sum ls) (let loop ((ls ls) (acc 0)) (if (null? ls) acc (loop (cdr ls) (+ acc (car ls))))))
(define (pb-iota n) (let loop ((i n) (acc '())) (if (= i 0) acc (loop (- i 1) (cons i acc)))))
(define (pb-listops n m)
  (pb-sum (pb-filter odd? (pb-map (lambda (x) (remainder (* x m) 97)) (pb-iota n)))))

(define (pb-deep n thunk) (if (= n 0) (thunk) (+ 1 (pb-deep (- n 1) thunk))))
(define (pb-capture-at d) (call/cc (lambda (k) (pb-deep d (lambda () (k d))))))
(define (pb-e9 depths reps)
  (let loop ((r reps) (acc 0))
    (if (= r 0) acc (loop (- r 1) (+ acc (pb-sum (pb-map pb-capture-at depths)))))))

(define (pb-insert t v)
  (if (null? t) (vector v '() '())
      (if (< v (vector-ref t 0))
          (vector (vector-ref t 0) (pb-insert (vector-ref t 1) v) (vector-ref t 2))
          (vector (vector-ref t 0) (vector-ref t 1) (pb-insert (vector-ref t 2) v)))))
(define (pb-tree ls) (let loop ((ls ls) (t '())) (if (null? ls) t (loop (cdr ls) (pb-insert t (car ls))))))
(define (pb-make-generator producer)
  (define resume-point #f)
  (lambda ()
    (if resume-point
        (resume-point #f)
        (spawn (lambda (c)
                 (producer (lambda (v) (c (lambda (k) (set! resume-point k) v))))
                 (set! resume-point (lambda (ignored) 'done))
                 'done)))))
(define (pb-tree-gen tree)
  (pb-make-generator
    (lambda (emit)
      (let walk ((t tree))
        (unless (null? t)
          (walk (vector-ref t 1)) (emit (vector-ref t 0)) (walk (vector-ref t 2)))))))
(define (pb-gen-check keys)
  (let ((gen (pb-tree-gen (pb-tree keys))))
    (let loop ((v (gen)) (i 1) (acc 0))
      (if (eq? v 'done) acc (loop (gen) (+ i 1) (+ acc (* i v)))))))

(define (pb-amb-all choices-list pred?)
  (define (emit-search)
    (spawn (lambda (c)
             (define (try chosen rest)
               (if (null? rest)
                   (when (pred? (reverse chosen))
                     (c (lambda (k) (cons (reverse chosen) (lambda () (k #f))))))
                   (pb-for-each (lambda (choice) (try (cons choice chosen) (cdr rest)))
                                (car rest))))
             (try '() choices-list)
             #f)))
  (let loop ((r (emit-search)))
    (if (pair? r) (cons (car r) (loop ((cdr r)))) '())))
(define (pb-amb-check choices target)
  (let ((sols (pb-amb-all choices (lambda (s) (= (pb-sum s) target)))))
    (list (length sols)
          (pb-sum (pb-map (lambda (s) (+ (* 10000 (car s)) (* 100 (car (cdr s))) (car (cdr (cdr s))))) sols)))))

(define (pb-search tree pred?)
  (spawn
    (lambda (c)
      (define (search t)
        (unless (null? t)
          (pcall (lambda (x y z) #f)
                 (when (pred? (vector-ref t 0))
                   (c (lambda (k) (cons (vector-ref t 0) (lambda () (k #f))))))
                 (search (vector-ref t 1))
                 (search (vector-ref t 2)))))
      (search tree)
      #f)))
(define (pb-search-check keys d)
  (let loop ((r (pb-search (pb-tree keys) (lambda (v) (= 0 (remainder v d))))) (n 0) (acc 0))
    (if (pair? r) (loop ((cdr r)) (+ n 1) (+ acc (car r))) (list n acc))))

(define (pb-spawn/exit f) (spawn (lambda (c) (f (lambda (v) (c (lambda (k) v)))))))
(define (pb-first-true p1 p2)
  (pb-spawn/exit
    (lambda (exit)
      (pcall (let ((v (p1))) (when v (exit v)) (lambda (x) x))
             (let ((v (p2))) (when v (exit v)) #f)))))
(define (pb-member? t v)
  (cond ((null? t) #f)
        ((= v (vector-ref t 0)) v)
        ((< v (vector-ref t 0)) (pb-member? (vector-ref t 1) v))
        (else (pb-member? (vector-ref t 2) v))))
(define (pb-spin n) (let loop ((i n)) (if (= i 0) #f (loop (- i 1)))))
(define (pb-por-check keys probes spin)
  (let ((t (pb-tree keys)))
    (pb-sum (pb-map (lambda (x) (pb-first-true (lambda () (pb-member? t x)) (lambda () (pb-spin spin))))
                    probes))))

(define (pb-par-map f ls) (if (null? ls) '() (pcall cons (f (car ls)) (pb-par-map f (cdr ls)))))
(define (pb-par-map-check ls) (pb-sum (pb-par-map (lambda (x) (* x x)) ls)))
"""


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    expect: str


def _scheme_list(values: list[int]) -> str:
    return "'(" + " ".join(str(v) for v in values) + ")"


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _tak(x: int, y: int, z: int) -> int:
    memo: dict[tuple[int, int, int], int] = {}

    def tak(x: int, y: int, z: int) -> int:
        key = (x, y, z)
        if key not in memo:
            memo[key] = z if not y < x else tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
        return memo[key]

    return tak(x, y, z)


def _distinct(rng: random.Random, n: int, hi: int) -> list[int]:
    return rng.sample(range(1, hi), n)


def program_sets(seed: int) -> tuple[list[Program], list[Program]]:
    """The compute set and the control set for ``seed``.  Sizes are
    drawn from narrow fixed ranges so the work per set stays within a
    few percent across seeds; values vary freely."""
    rng = random.Random(seed * 7919 + 17)
    compute: list[Program] = []
    n = 19
    compute.append(Program("fib", f"(pb-fib {n})", str(_fib(n))))
    x, y, z = 12, 7, 2
    compute.append(Program("tak", f"(pb-tak {x} {y} {z})", str(_tak(x, y, z))))
    m = rng.randrange(19_500, 20_500)
    compute.append(Program("mutual", f"(pb-even? {m})", "#t" if m % 2 == 0 else "#f"))
    ln = rng.randrange(1_950, 2_050)
    mult = rng.randrange(3, 90)
    expect = sum(v for v in ((x * mult) % 97 for x in range(1, ln + 1)) if v % 2 == 1)
    compute.append(Program("list-ops", f"(pb-listops {ln} {mult})", str(expect)))

    control: list[Program] = []
    depths = [d + rng.randrange(-8, 9) for d in (64, 256, 1024)]
    reps = 8
    control.append(Program(
        "callcc-depth", f"(pb-e9 {_scheme_list(depths)} {reps})", str(reps * sum(depths))
    ))
    keys = _distinct(rng, rng.randrange(290, 310), 100_000)
    gen_expect = sum(i * k for i, k in enumerate(sorted(keys), start=1))
    control.append(Program("generators", f"(pb-gen-check {_scheme_list(keys)})", str(gen_expect)))
    choices = [sorted(rng.sample(range(1, 40), 9)) for _ in range(3)]
    target = rng.randrange(30, 80)
    sols = [(a, b, c) for a in choices[0] for b in choices[1] for c in choices[2] if a + b + c == target]
    checksum = sum(10000 * a + 100 * b + c for a, b, c in sols)
    control.append(Program(
        "amb-all",
        f"(pb-amb-check (list {' '.join(_scheme_list(c) for c in choices)}) {target})",
        f"({len(sols)} {checksum})",
    ))
    keys = _distinct(rng, rng.randrange(190, 210), 100_000)
    d = rng.randrange(5, 9)
    hits = [k for k in keys if k % d == 0]
    control.append(Program(
        "parallel-search", f"(pb-search-check {_scheme_list(keys)} {d})", f"({len(hits)} {sum(hits)})"
    ))
    probes = rng.sample(keys, 20)
    control.append(Program(
        "parallel-or",
        f"(pb-por-check {_scheme_list(keys)} {_scheme_list(probes)} 4000)",
        str(sum(probes)),
    ))
    values = [rng.randrange(1, 10_000) for _ in range(rng.randrange(190, 210))]
    control.append(Program(
        "par-map", f"(pb-par-map-check {_scheme_list(values)})", str(sum(v * v for v in values))
    ))
    return compute, control
