"""A supervised worker pool with liveness tracking, budgets and quarantine.

``multiprocessing.Pool`` hands chunks of work to workers and trusts them to
come back.  A worker killed mid-chunk — OOM killer, segfault in a native
kernel, stray SIGTERM — takes its whole chunk down with it and, depending on
timing, hangs the consuming iterator.  That is fine for throwaway scripts and
fatal for a batch prover whose contract is *one structured outcome per task,
always*.

:class:`SupervisedPool` replaces the chunked pool with per-task dispatch over
raw ``multiprocessing.Process`` workers and explicit duplex pipes:

* **Liveness** — the coordinator waits on every worker pipe at once
  (:func:`multiprocessing.connection.wait`); a dead worker surfaces as EOF the
  moment the kernel closes its end, not after a join timeout expires.
* **Retry** — a task whose worker died is re-dispatched to a respawned worker
  with capped exponential backoff.  A task that keeps killing workers is
  *quarantined* after ``retries`` re-dispatches and surfaced as a structured
  :class:`FailureInfo` instead of poisoning the pool forever.
* **Hard budgets** — an optional coordinator-side watchdog kills any worker
  that holds a task longer than ``task_timeout`` (the cooperative deadline
  times a grace factor, in the batch prover's use).  The kill is surfaced as
  a ``timeout`` failure; the worker is respawned.
* **Liveness acks** — workers ack every task (``("started", task_id)``)
  before running it and report ``("ready", pid)`` after initialising.  A
  dispatched task that is never acked within ``ack_timeout`` is retried on a
  respawned worker instead of burning its whole watchdog budget; a worker
  that never reports ready within ``init_timeout`` is respawned instead of
  silently shrinking the pool.  Both close the gap left by a worker that is
  alive but wedged — e.g. a child forked from a multi-threaded coordinator
  at an unlucky moment — which produces neither a result nor an EOF.
* **Warm workers** — workers survive across :meth:`run` calls, so per-worker
  initialisation (warming a prover's caches) is paid once per worker
  lifetime, exactly like the pool it replaces.

The pool knows nothing about proving.  ``initializer(*init_args)`` runs once
per worker process and returns a ``task_fn(payload, index, attempt) ->
(status, body)`` closure; ``status`` is ``"ok"`` (``body`` is the result) or
a cooperative failure ``"timeout"``/``"oom"`` (``body`` is a partial-progress
payload / detail).  Exceptions escaping ``task_fn`` — and replies that cannot
be pickled back — become retryable errors.  Cooperative timeouts and OOMs
are *not* retried: under the same budget the same instance exhausts it again.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import queue as _queue_module
import socket
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_on_connections
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["FailureInfo", "SupervisedPool"]

#: Statuses a worker's task function may return cooperatively.
_TASK_STATUSES = ("ok", "timeout", "oom")

#: Consecutive worker-initialisation failures after which the pool declares
#: itself broken instead of respawning forever (e.g. a memory limit so tight
#: the interpreter cannot even warm up).
_INIT_FAILURE_SLACK = 2


@dataclass(frozen=True)
class FailureInfo:
    """The structured outcome of a task that produced no result.

    Replaces the old ``None``-means-timeout contract of the batch layer:
    every undelivered verdict now says *why* it is missing, how many attempts
    were made, and how much wall-clock the attempts consumed.  Instances are
    falsy and never valid/invalid, so sloppy consumers fail safe.

    ``kind`` is one of:

    ``"crash"``
        The worker died (or the task raised) and the pool was configured
        with no retries — a single failure is final.
    ``"retries_exhausted"``
        The task failed ``retries + 1`` attempts in a row and was
        quarantined.
    ``"timeout"``
        The cooperative deadline fired inside the prover, or the hard
        watchdog killed a worker that sat on the task past its grace budget
        (``detail`` distinguishes the two).  ``statistics`` carries the
        partial :class:`~repro.core.result.ProverStatistics` when the
        cooperative path fired.
    ``"oom"``
        The task exceeded a space budget: ``ProverConfig.max_memory_mb``
        (``MemoryError`` under ``RLIMIT_AS``) or
        ``ProverConfig.max_saturation_clauses`` (``detail`` says which).
    """

    kind: str
    attempts: int = 1
    elapsed: float = 0.0
    detail: str = ""
    injected: bool = False
    statistics: Any = None

    # Mirror just enough of ProofResult's surface that a consumer asking the
    # usual questions gets the safe answer instead of an AttributeError.
    @property
    def is_valid(self) -> bool:
        return False

    @property
    def is_invalid(self) -> bool:
        return False

    @property
    def from_cache(self) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def summary(self) -> str:
        text = self.kind
        if self.attempts > 1:
            text += " after {} attempts".format(self.attempts)
        if self.detail:
            text += " ({})".format(self.detail)
        if self.injected:
            text += " [injected]"
        return text


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_loop(conn, initializer, init_args) -> None:
    """Body of one worker process.

    Protocol (worker's view): send ``("ready", pid)`` once initialised, then
    loop — receive ``(task_id, index, attempt, payload)`` or the ``None``
    shutdown sentinel, ack ``("started", task_id)``, run the task, reply
    ``("result", task_id, status, body)``.  Initialisation failure sends
    ``("init_error", detail)`` and exits, so the coordinator can tell a
    broken environment from a crash.
    """
    try:
        task_fn = initializer(*init_args)
    except BaseException as exc:
        try:
            conn.send(("init_error", "{}: {}".format(type(exc).__name__, exc)))
        except Exception:
            pass
        return
    try:
        conn.send(("ready", os.getpid()))
    except Exception:
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, index, attempt, payload = message
        # Ack before executing: the coordinator can now tell a worker that
        # is *running* a task (hard watchdog applies, no retry) from one that
        # never picked it up at all (dispatch lost to a sick worker — retry
        # on a respawn instead of burning the whole watchdog budget).
        try:
            conn.send(("started", task_id))
        except Exception:
            return
        try:
            status, body = task_fn(payload, index, attempt)
            if status not in _TASK_STATUSES:
                status, body = "error", "task returned unknown status {!r}".format(status)
        except MemoryError:
            body, status = "MemoryError while proving", "oom"
        except BaseException as exc:
            summary = traceback.format_exception_only(type(exc), exc)
            status, body = "error", "".join(summary).strip()
        try:
            conn.send(("result", task_id, status, body))
        except (EOFError, BrokenPipeError):
            return
        except Exception as exc:
            # The body would not pickle (or blew the pipe mid-serialise): the
            # result exists but cannot be delivered.  Report that instead of
            # silently dying, so the coordinator retries with full knowledge.
            try:
                conn.send(
                    (
                        "result",
                        task_id,
                        "error",
                        "undeliverable result: {}: {}".format(type(exc).__name__, exc),
                    )
                )
            except Exception:
                return


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _PriorityPending:
    """A deque-shaped view over a priority heap of ``(ticket, attempt)`` pairs.

    The solo :meth:`SupervisedPool.run` loop keeps its pending tasks in a
    plain FIFO deque; the shared serve-mode reactor needs the same structure
    ordered by *request priority* so that a one-task priority request does
    not queue behind a 200-task batch.  This adapter speaks just enough of
    the deque protocol (``append``/``appendleft``/``popleft``/``__len__``/
    ``__iter__``/``clear``) that the dispatch, retry, and broken-pool helpers
    work on either unchanged.  Priorities are remembered per ticket, so a
    crash-retried attempt keeps its original rank (FIFO among equals via a
    monotonic sequence).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, int]] = []  # (-prio, seq, ticket, attempt)
        self._seq = itertools.count()
        self._priorities: Dict[int, int] = {}

    def set_priority(self, ticket: int, priority: int) -> None:
        self._priorities[ticket] = int(priority)

    def forget(self, ticket: int) -> None:
        self._priorities.pop(ticket, None)

    def append(self, entry: Tuple[int, int]) -> None:
        ticket, attempt = entry
        priority = self._priorities.get(ticket, 0)
        heapq.heappush(self._heap, (-priority, next(self._seq), ticket, attempt))

    # A put-back after a failed dispatch re-ranks by priority, which is at
    # least as good as the deque's literal left-append.
    appendleft = append

    def popleft(self) -> Tuple[int, int]:
        _, _, ticket, attempt = heapq.heappop(self._heap)
        return ticket, attempt

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for _, _, ticket, attempt in self._heap:
            yield ticket, attempt

    def clear(self) -> None:
        self._heap.clear()


class _Worker:
    """Coordinator-side record of one worker process."""

    __slots__ = ("process", "conn", "ready", "assignment", "acked", "spawned_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.ready = False
        #: ``(task_id, index, attempt, started_at)`` while busy, else None.
        self.assignment: Optional[Tuple[int, int, int, float]] = None
        #: Did the worker ack (``("started", task_id)``) the current assignment?
        self.acked = False
        #: When this worker process was forked (init-watchdog reference point).
        self.spawned_at = time.monotonic()


class SupervisedPool:
    """Per-task dispatch over supervised worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.
    initializer / init_args:
        Run once in each worker; must return the task function (see module
        docstring).  Must be picklable (module-level callables).
    task_timeout:
        Hard per-attempt wall-clock budget.  A worker holding a task longer
        is killed and the task fails as ``timeout`` — no retry, since the
        budget is a property of the instance, not of the worker.
    retries:
        How many times a *crashed* attempt is re-dispatched before the task
        is quarantined.  ``0`` quarantines on the first crash.
    backoff_base / backoff_cap:
        Re-dispatch of attempt *n* waits ``min(cap, base * 2**(n-1))``
        seconds, so a task that kills workers does not burn respawns in a
        tight loop.
    mp_context:
        A multiprocessing context or start-method name; default prefers
        ``fork`` (cheap respawns, inherited env) and falls back to the
        platform default.
    ack_timeout:
        How long a dispatched task may sit un-acked before the worker is
        written off as never having picked it up (respawn + retry).
    init_timeout:
        How long a freshly spawned worker may take to report ready before
        it is killed and respawned; ``None`` disables the init watchdog.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable[..., Callable[[Any, int, int], Tuple[str, Any]]],
        init_args: Sequence[Any] = (),
        task_timeout: Optional[float] = None,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        mp_context: Any = None,
        drain_seconds: float = 5.0,
        ack_timeout: float = 5.0,
        init_timeout: Optional[float] = 60.0,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got {}".format(jobs))
        if retries < 0:
            raise ValueError("retries must be >= 0, got {}".format(retries))
        self.jobs = jobs
        self.initializer = initializer
        self.init_args = tuple(init_args)
        self.task_timeout = task_timeout
        #: A dispatched task must be acked (``("started", ...)``) within this
        #: budget; a worker that never picks the task up is respawned and the
        #: attempt retried, instead of the task burning its whole watchdog
        #: budget on a worker that was never going to run it.
        self.ack_timeout = ack_timeout
        #: A freshly forked worker must report ``("ready", ...)`` within this
        #: budget or it is killed and respawned (``None`` disables).  A child
        #: wedged during initialisation — e.g. poisoned by forking a
        #: multi-threaded parent at the wrong moment — otherwise sits there
        #: forever: never ready, never EOF, starving dispatch.
        self.init_timeout = init_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.drain_seconds = drain_seconds
        self._context = self._resolve_context(mp_context)
        self._workers: List[_Worker] = []
        self._task_ids = itertools.count(1)
        self._closed = False
        self._broken: Optional[str] = None
        self._init_failures = 0
        #: Workers killed-or-died and replaced over the pool's lifetime.
        self.respawned_workers = 0
        #: Attempts re-dispatched after a crash.
        self.retried = 0
        # Serve-mode (shared dispatch) state: a reactor thread owns the
        # worker pipes and multiplexes tasks submitted from any thread.
        self._serve_thread: Optional[threading.Thread] = None
        self._intake: "_queue_module.SimpleQueue" = _queue_module.SimpleQueue()
        self._wakeup_recv: Optional[socket.socket] = None
        self._wakeup_send: Optional[socket.socket] = None
        self._serve_tickets = itertools.count(1)

    @staticmethod
    def _resolve_context(mp_context: Any):
        if mp_context is None:
            try:
                return multiprocessing.get_context("fork")
            except ValueError:
                return multiprocessing.get_context()
        if isinstance(mp_context, str):
            return multiprocessing.get_context(mp_context)
        return mp_context

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_loop,
            args=(child_conn, self.initializer, self.init_args),
            daemon=True,
        )
        process.start()
        # The parent must drop its handle on the child end, or a dead worker
        # never reads as EOF (the parent itself keeps the pipe open).
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self) -> None:
        """Spawn the workers (idempotent).  May raise ``OSError``."""
        if self._closed:
            raise RuntimeError("pool is closed")
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn_worker())

    @staticmethod
    def _kill_worker(worker: _Worker) -> None:
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(0.5)
            if process.is_alive():
                process.kill()
                process.join(0.5)
        try:
            worker.conn.close()
        except Exception:
            pass

    def _respawn(self, worker: _Worker) -> None:
        self._kill_worker(worker)
        self.respawned_workers += 1
        if self._broken is not None:
            return
        try:
            replacement = self._spawn_worker()
        except OSError as exc:
            self._broken = "cannot respawn worker: {}".format(exc)
            return
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.ready = False
        worker.assignment = None
        worker.acked = False
        worker.spawned_at = replacement.spawned_at

    # -- shared serve mode --------------------------------------------------

    def serve(self) -> None:
        """Start the shared-dispatch reactor thread (idempotent, thread-safe).

        In serve mode the pool accepts tasks from *any* thread via
        :meth:`submit`; one reactor thread owns every worker pipe and
        multiplexes dispatch, liveness, retries, the hard watchdog and
        respawns across all submitters.  Pending tasks are ranked by the
        submitting request's priority (FIFO among equals), which is what
        lets a one-task priority request overtake a large batch that is
        still queued.  :meth:`run` must not be used while serving — the two
        modes share the worker pipes.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._serve_thread is not None and self._serve_thread.is_alive():
            return
        self.start()
        if self._wakeup_recv is None:
            recv_end, send_end = socket.socketpair()
            recv_end.setblocking(False)
            send_end.setblocking(False)
            self._wakeup_recv, self._wakeup_send = recv_end, send_end
        self._serve_thread = threading.Thread(
            target=self._serve_loop, name="slp-pool-reactor", daemon=True
        )
        self._serve_thread.start()

    @property
    def serving(self) -> bool:
        return self._serve_thread is not None and self._serve_thread.is_alive()

    def submit(
        self,
        payload: Any,
        deliver: Callable[[Any], None],
        priority: int = 0,
    ) -> int:
        """Enqueue one task for the serving reactor (thread-safe).

        ``deliver(outcome)`` is invoked exactly once, on the reactor thread,
        with the task function's body or a :class:`FailureInfo` — the same
        outcome contract as :meth:`run`.  Returns an opaque ticket.
        """
        if not self.serving:
            raise RuntimeError("pool is not serving (call serve() first)")
        ticket = next(self._serve_tickets)
        self._intake.put((ticket, payload, deliver, int(priority)))
        self._wake_reactor()
        return ticket

    def _wake_reactor(self) -> None:
        sender = self._wakeup_send
        if sender is None:
            return
        try:
            sender.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # the reactor has unread wake bytes already, or is gone

    def _serve_loop(self) -> None:
        tasks: Dict[int, Any] = {}
        deliver: Dict[int, Callable[[Any], None]] = {}
        pending = _PriorityPending()
        delayed: List[Tuple[float, int, int]] = []
        elapsed: Dict[int, float] = {}

        def finish(ticket: int, outcome: Any) -> None:
            tasks.pop(ticket, None)
            pending.forget(ticket)
            callback = deliver.pop(ticket, None)
            if callback is None:
                return
            try:
                callback(outcome)
            except Exception:  # a consumer bug must not kill the reactor
                pass

        while True:
            # Drain the intake: new submissions and the shutdown sentinel.
            while True:
                try:
                    item = self._intake.get_nowait()
                except _queue_module.Empty:
                    break
                if item is None:
                    detail = "pool closed with the task outstanding"
                    for ticket in list(deliver):
                        finish(ticket, FailureInfo(kind="crash", detail=detail))
                    return
                ticket, payload, callback, priority = item
                if self._broken is not None:
                    try:
                        callback(
                            FailureInfo(
                                kind="crash",
                                detail="worker pool broken: {}".format(self._broken),
                            )
                        )
                    except Exception:
                        pass
                    continue
                tasks[ticket] = payload
                deliver[ticket] = callback
                pending.set_priority(ticket, priority)
                pending.append((ticket, 1))
            if self._broken is not None:
                for ticket, attempt, info in self._drain_broken(pending, delayed):
                    finish(ticket, info)
                # Keep looping: future submissions fail fast at intake until
                # close() delivers the sentinel.
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, ticket, attempt = heapq.heappop(delayed)
                pending.append((ticket, attempt))
            wait_on: List[Any] = []
            if self._broken is None:
                self._dispatch_pending(pending, tasks)
                wait_on.extend(worker.conn for worker in self._workers)
            if self._wakeup_recv is not None:
                wait_on.append(self._wakeup_recv)
            ready = _wait_on_connections(wait_on, self._wait_timeout(delayed))
            if self._wakeup_recv in ready:
                try:
                    while self._wakeup_recv.recv(4096):
                        pass
                except (BlockingIOError, OSError):
                    pass
            for worker in list(self._workers):
                if worker.conn not in ready:
                    continue
                for ticket, outcome in self._consume(worker, pending, delayed, elapsed):
                    finish(ticket, outcome)
            for ticket, info in self._watchdog_sweep(pending, delayed, elapsed):
                finish(ticket, info)

    # -- the run loop -------------------------------------------------------

    def run(self, payloads: Iterable[Any]) -> Iterator[Tuple[int, Any]]:
        """Execute every payload; yield ``(index, outcome)`` as they finish.

        ``outcome`` is the task function's ``body`` on success, else a
        :class:`FailureInfo`.  Every index is yielded exactly once, in
        completion order.  Abandoning the iterator mid-run kills and
        respawns any workers still holding tasks (their results have no
        consumer), leaving the pool reusable.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self.serving:
            raise RuntimeError("pool is serving; use submit(), not run()")
        tasks = list(payloads)
        self.start()
        pending: deque = deque((index, 1) for index in range(len(tasks)))
        delayed: List[Tuple[float, int, int]] = []  # (not_before, index, attempt)
        elapsed: Dict[int, float] = {}
        outstanding = len(tasks)
        try:
            while outstanding > 0:
                if self._broken is not None:
                    for index, attempt, info in self._drain_broken(pending, delayed):
                        yield index, info
                        outstanding -= 1
                    break
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt = heapq.heappop(delayed)
                    pending.append((index, attempt))
                self._dispatch_pending(pending, tasks)
                ready_conns = _wait_on_connections(
                    [worker.conn for worker in self._workers],
                    self._wait_timeout(delayed),
                )
                for worker in list(self._workers):
                    if worker.conn not in ready_conns:
                        continue
                    for index, outcome in self._consume(worker, pending, delayed, elapsed):
                        yield index, outcome
                        outstanding -= 1
                for index, info in self._watchdog_sweep(pending, delayed, elapsed):
                    yield index, info
                    outstanding -= 1
        finally:
            # The consumer may abandon the iterator mid-run (a harness that
            # breaks on its own budget).  Workers still holding tasks would
            # eventually reply into the void — or hang forever; reclaim them.
            for worker in self._workers:
                if worker.assignment is not None:
                    self._respawn(worker)

    def _dispatch_pending(self, pending: deque, tasks: List[Any]) -> None:
        while pending:
            worker = next(
                (w for w in self._workers if w.ready and w.assignment is None), None
            )
            if worker is None:
                return
            index, attempt = pending.popleft()
            task_id = next(self._task_ids)
            try:
                worker.conn.send((task_id, index, attempt, tasks[index]))
            except Exception:
                # The worker died while idle; the attempt never started.
                pending.appendleft((index, attempt))
                self._respawn(worker)
                if self._broken is not None:
                    return
                continue
            worker.assignment = (task_id, index, attempt, time.monotonic())
            worker.acked = False

    def _wait_timeout(self, delayed: List[Tuple[float, int, int]]) -> Optional[float]:
        now = time.monotonic()
        horizons = []
        if delayed:
            horizons.append(delayed[0][0] - now)
        for worker in self._workers:
            assignment = worker.assignment
            if assignment is not None:
                if not worker.acked:
                    horizons.append(assignment[3] + self.ack_timeout - now)
                elif self.task_timeout is not None:
                    horizons.append(assignment[3] + self.task_timeout - now)
            elif self.init_timeout is not None and not worker.ready:
                horizons.append(worker.spawned_at + self.init_timeout - now)
        if not horizons:
            return None
        return max(0.01, min(horizons))

    def _consume(
        self,
        worker: _Worker,
        pending: deque,
        delayed: List[Tuple[float, int, int]],
        elapsed: Dict[int, float],
    ) -> List[Tuple[int, Any]]:
        """Read one event from a readable worker pipe; return finished tasks."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return self._on_worker_death(worker, pending, delayed, elapsed)
        tag = message[0]
        if tag == "ready":
            worker.ready = True
            self._init_failures = 0
            return []
        if tag == "started":
            assignment = worker.assignment
            if assignment is not None and assignment[0] == message[1]:
                worker.acked = True
            return []
        if tag == "init_error":
            self._init_failures += 1
            if self._init_failures > self.jobs + _INIT_FAILURE_SLACK:
                self._broken = "workers cannot initialise: {}".format(message[1])
            # The worker exits after reporting; the EOF that follows respawns
            # it (or the broken flag stops the loop).
            return []
        if tag == "result":
            _, task_id, status, body = message
            assignment = worker.assignment
            if assignment is None or assignment[0] != task_id:
                return []  # stale reply from a task whose attempt was written off
            _, index, attempt, started_at = assignment
            worker.assignment = None
            took = time.monotonic() - started_at
            total = elapsed.pop(index, 0.0) + took
            if status == "ok":
                return [(index, body)]
            if status == "timeout":
                return [
                    (
                        index,
                        FailureInfo(
                            kind="timeout",
                            attempts=attempt,
                            elapsed=total,
                            detail="cooperative deadline",
                            statistics=body,
                        ),
                    )
                ]
            if status == "oom":
                return [
                    (
                        index,
                        FailureInfo(
                            kind="oom", attempts=attempt, elapsed=total, detail=str(body)
                        ),
                    )
                ]
            # status == "error": the attempt failed but the worker survived.
            return self._retry_or_quarantine(
                index, attempt, total, str(body), pending, delayed, elapsed
            )
        return []

    def _on_worker_death(
        self,
        worker: _Worker,
        pending: deque,
        delayed: List[Tuple[float, int, int]],
        elapsed: Dict[int, float],
    ) -> List[Tuple[int, Any]]:
        assignment = worker.assignment
        was_ready = worker.ready
        exit_code = worker.process.exitcode
        worker.assignment = None
        if not was_ready and assignment is None:
            # Died during initialisation without even an init_error message.
            self._init_failures += 1
            if self._init_failures > self.jobs + _INIT_FAILURE_SLACK:
                self._broken = "workers die during initialisation (exit code {})".format(
                    exit_code
                )
        self._respawn(worker)
        if assignment is None:
            return []
        _, index, attempt, started_at = assignment
        total = elapsed.pop(index, 0.0) + (time.monotonic() - started_at)
        detail = "worker died (exit code {})".format(exit_code)
        return self._retry_or_quarantine(
            index, attempt, total, detail, pending, delayed, elapsed
        )

    def _retry_or_quarantine(
        self,
        index: int,
        attempt: int,
        total_elapsed: float,
        detail: str,
        pending: deque,
        delayed: List[Tuple[float, int, int]],
        elapsed: Dict[int, float],
    ) -> List[Tuple[int, Any]]:
        if attempt <= self.retries:
            self.retried += 1
            elapsed[index] = total_elapsed
            backoff = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
            if backoff <= 0.0:
                pending.append((index, attempt + 1))
            else:
                heapq.heappush(delayed, (time.monotonic() + backoff, index, attempt + 1))
            return []
        kind = "crash" if self.retries == 0 else "retries_exhausted"
        return [
            (
                index,
                FailureInfo(
                    kind=kind, attempts=attempt, elapsed=total_elapsed, detail=detail
                ),
            )
        ]

    def _watchdog_sweep(
        self,
        pending: deque,
        delayed: List[Tuple[float, int, int]],
        elapsed: Dict[int, float],
    ) -> List[Tuple[int, Any]]:
        now = time.monotonic()
        finished: List[Tuple[int, Any]] = []
        for worker in self._workers:
            assignment = worker.assignment
            if assignment is None:
                # No task in flight; check the init watchdog — a worker that
                # never reports ready would otherwise starve dispatch forever
                # (no EOF to react to, nothing for the task watchdog to see).
                if (
                    self.init_timeout is not None
                    and not worker.ready
                    and now - worker.spawned_at > self.init_timeout
                ):
                    self._init_failures += 1
                    if self._init_failures > self.jobs + _INIT_FAILURE_SLACK:
                        self._broken = (
                            "workers hang during initialisation "
                            "(no ready within {:.0f}s)".format(self.init_timeout)
                        )
                    self._respawn(worker)
                continue
            _, index, attempt, started_at = assignment
            overrun = now - started_at
            if not worker.acked:
                # The worker never even picked the task up.  A healthy worker
                # acks within microseconds, so past ack_timeout the dispatch
                # is written off as lost and the attempt retried on a fresh
                # worker — spending the whole task budget here would punish
                # the task for the worker's sickness.
                if overrun <= self.ack_timeout:
                    continue
                worker.assignment = None
                self._respawn(worker)
                total = elapsed.pop(index, 0.0) + overrun
                detail = "worker never started the task (no ack within {:.1f}s)".format(
                    self.ack_timeout
                )
                finished.extend(
                    self._retry_or_quarantine(
                        index, attempt, total, detail, pending, delayed, elapsed
                    )
                )
                continue
            if self.task_timeout is None or overrun <= self.task_timeout:
                continue
            worker.assignment = None
            self._respawn(worker)
            total = elapsed.pop(index, 0.0) + overrun
            finished.append(
                (
                    index,
                    FailureInfo(
                        kind="timeout",
                        attempts=attempt,
                        elapsed=total,
                        detail="hard watchdog kill after {:.2f}s".format(overrun),
                    ),
                )
            )
        return finished

    def _drain_broken(
        self, pending: deque, delayed: List[Tuple[float, int, int]]
    ) -> List[Tuple[int, int, FailureInfo]]:
        """Fail everything still queued or in flight on a broken pool."""
        leftovers: List[Tuple[int, int]] = []
        leftovers.extend(pending)
        pending.clear()
        leftovers.extend((index, attempt) for _, index, attempt in delayed)
        delayed.clear()
        for worker in self._workers:
            if worker.assignment is not None:
                _, index, attempt, _ = worker.assignment
                worker.assignment = None
                leftovers.append((index, attempt))
            self._kill_worker(worker)
        detail = "worker pool broken: {}".format(self._broken)
        return [
            (index, attempt, FailureInfo(kind="crash", attempts=attempt, detail=detail))
            for index, attempt in leftovers
        ]

    # -- teardown -----------------------------------------------------------

    def close(self, drain_seconds: Optional[float] = None) -> None:
        """Gracefully drain the pool; escalate to terminate/kill on deadline.

        Idempotent: safe to call any number of times, from ``__exit__``,
        ``__del__`` and explicit call sites alike.
        """
        if self._closed:
            return
        self._closed = True
        budget = self.drain_seconds if drain_seconds is None else drain_seconds
        reactor = self._serve_thread
        if reactor is not None and reactor.is_alive():
            # Stop the reactor before touching worker pipes: it fails any
            # outstanding submissions structurally, then exits.
            self._intake.put(None)
            self._wake_reactor()
            reactor.join(max(1.0, budget))
        self._serve_thread = None
        for sock in (self._wakeup_recv, self._wakeup_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._wakeup_recv = self._wakeup_send = None
        deadline = time.monotonic() + max(0.0, budget)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close(drain_seconds=0.1)
        except Exception:
            pass
