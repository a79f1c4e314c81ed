"""Per-layer tracing of the prover from outside: wrappers at import sites.

The benchmark never edits the program.  For a traced run it replaces the
names the program looks up at call time — module attributes such as
``repro.core.prover.unfold`` and class attributes such as
``SaturationEngine.saturate`` — with timing wrappers, before any worker
pool forks, so forked workers inherit them.  Each wrapper records, for its
layer, the number of calls and the *self* time: its own duration minus the
time of traced layers nested inside it (a cache lookup that reads the disk
store is charged the lookup minus the store read).

Counters live in one :class:`Tracer` per process.  A forked worker starts
from zero and writes its counters to ``<dump_dir>/worker-<pid>.json`` when
it exits normally (a traced server writes ``server-<pid>.json`` likewise);
:func:`collect` folds those files into the collecting tracer.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Optional

#: Every layer a wrapper can charge, in report order.
LAYERS = (
    "parse", "cnf", "canonical", "cache.lookup", "cache.rename", "store.get",
    "store.put", "store.open", "saturation", "model", "normalise",
    "wellformed", "unfold", "counterexample",
)


class Tracer:
    """Calls, self time and event counts per layer, for one process."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.dump_dir = dump_dir
        self.lock = threading.Lock()
        self.local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.busy: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
            self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
            self.events: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.events[name] = self.events.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self.lock:
            return {
                "busy": dict(self.busy),
                "calls": dict(self.calls),
                "events": dict(self.events),
            }

    def fold(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        with self.lock:
            for layer, seconds in snapshot["busy"].items():
                self.busy[layer] = self.busy.get(layer, 0.0) + seconds
            for layer, calls in snapshot["calls"].items():
                self.calls[layer] = self.calls.get(layer, 0) + calls
            for name, amount in snapshot["events"].items():
                self.events[name] = self.events.get(name, 0) + amount

    # -- spans ------------------------------------------------------------
    def span(self, layer: str, function: Callable, on_result=None, on_error=None):
        """``function`` wrapped to charge ``layer`` with its self time."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack: List[float] = getattr(self.local, "stack", None)
            if stack is None:
                stack = self.local.stack = []
            stack.append(0.0)  # time of nested traced spans
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                if on_error is not None:
                    on_error(self, error)
                raise
            finally:
                took = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += took
                with self.lock:
                    self.busy[layer] += took - nested
                    self.calls[layer] += 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- worker processes --------------------------------------------------
    def _after_fork(self) -> None:
        self.reset()
        self.local = threading.local()
        mp_util.Finalize(self, self.dump, args=("worker",), exitpriority=100)

    def dump(self, role: str) -> None:
        """Write this process's counters to ``<dump_dir>/<role>-<pid>.json``."""
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, "{}-{}.json".format(role, os.getpid()))
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)


def collect(tracer: Tracer) -> None:
    """Fold (and remove) every process dump in the tracer's directory."""
    if tracer.dump_dir is None:
        return
    for name in sorted(os.listdir(tracer.dump_dir)):
        if name.endswith(".json"):
            path = os.path.join(tracer.dump_dir, name)
            with open(path, encoding="utf-8") as handle:
                tracer.fold(json.load(handle))
            os.remove(path)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced name at its import site; return the undo function.

    A name that no longer exists raises ``AttributeError`` here, so a rename
    in the program breaks the traced run loudly instead of reading 0 ms.
    """
    originals = []

    def _patch(owner, name: str, wrapper) -> None:
        current = owner.__dict__[name]
        if getattr(current, "__wrapped_by_perfbench__", False):
            raise RuntimeError("{}.{} is already traced".format(owner.__name__, name))
        originals.append((owner, name, current))
        setattr(owner, name, wrapper)

    def uninstall() -> None:
        while originals:
            owner, name, current = originals.pop()
            setattr(owner, name, current)

    import repro.core.batch as batch
    import repro.core.cache as cache
    import repro.core.prover as prover
    import repro.core.store as store
    import repro.core.supervisor as supervisor
    import repro.logic.parser as parser
    import repro.server.http as http
    from repro.core.result import ProofResult
    from repro.logic.canonical import TooSymmetricError
    from repro.superposition.model import ModelGenerationError

    def too_symmetric(tracer, error):
        if isinstance(error, TooSymmetricError):
            tracer.count("canonical.too_symmetric")

    def model_retry(tracer, error):
        if isinstance(error, ModelGenerationError):
            tracer.count("model.retries")

    def emitted(tracer, args, result):
        tracer.count("wellformed.emitted", len(result))

    def unfolded(tracer, args, result):
        if result.success:
            tracer.count("unfold.successes")

    # Prover layers: looked up in repro.core.prover's namespace at call time.
    _patch(prover, "cnf", tracer.span("cnf", prover.cnf))
    _patch(prover.SaturationEngine, "saturate",
           tracer.span("saturation", prover.SaturationEngine.saturate))
    _patch(prover.IncrementalModelGenerator, "model_for_engine",
           tracer.span("model", prover.IncrementalModelGenerator.model_for_engine,
                       on_error=model_retry))
    _patch(prover, "generate_model",
           tracer.span("model", prover.generate_model, on_error=model_retry))
    _patch(prover, "normalize_clause_fast",
           tracer.span("normalise", prover.normalize_clause_fast))
    _patch(prover, "normalize_clause", tracer.span("normalise", prover.normalize_clause))
    _patch(prover, "well_formedness_consequences",
           tracer.span("wellformed", prover.well_formedness_consequences,
                       on_result=emitted))
    _patch(prover, "unfold", tracer.span("unfold", prover.unfold, on_result=unfolded))
    _patch(prover, "build_counterexample",
           tracer.span("counterexample", prover.build_counterexample))

    # Front and coordinator layers.
    _patch(parser, "parse_entailment", tracer.span("parse", parser.parse_entailment))
    _patch(http, "parse_entailment", tracer.span("parse", http.parse_entailment))
    _patch(cache, "canonicalize",
           tracer.span("canonical", cache.canonicalize, on_error=too_symmetric))
    _patch(cache.ProofCache, "lookup", tracer.span("cache.lookup", cache.ProofCache.lookup))
    for module in (cache, batch):
        _patch(module, "rename_proof", tracer.span("cache.rename", module.rename_proof))
        _patch(module, "rename_counterexample",
               tracer.span("cache.rename", module.rename_counterexample))
    _patch(store.ProofStore, "get", tracer.span("store.get", store.ProofStore.get))
    _patch(store.ProofStore, "put", tracer.span("store.put", store.ProofStore.put))
    _patch(store.ProofStore, "__init__", tracer.span("store.open", store.ProofStore.__init__))

    # Pool IPC: the coordinator sees a task from dispatch to result; the
    # worker reports how long the proof itself took.  The rest is IPC.
    consume = supervisor.SupervisedPool._consume

    @functools.wraps(consume)
    def traced_consume(pool, worker, *args, **kwargs):
        assignment = worker.assignment
        finished = consume(pool, worker, *args, **kwargs)
        if assignment is not None and finished:
            took = time.monotonic() - assignment[3]
            for _, outcome in finished:
                if isinstance(outcome, ProofResult):
                    tracer.count("pool.tasks")
                    tracer.count("pool.ipc_s", took - outcome.statistics.elapsed_seconds)
        return finished

    traced_consume.__wrapped_by_perfbench__ = True
    _patch(supervisor.SupervisedPool, "_consume", traced_consume)

    mp_util.register_after_fork(tracer, Tracer._after_fork)
    return uninstall
