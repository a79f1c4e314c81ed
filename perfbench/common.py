"""What the batch and serve halves of the benchmark share: paths, metric
names, percentiles, process memory, and the checks on a traced run."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space (stores, trace dumps, server logs), inside the checkout.
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

END_TO_END = (
    ("throughput_eps", "1/s"), ("restart_eps", "1/s"), ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"), ("decided_frac", "ratio"), ("ok_frac", "ratio"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

SERVER_LAYER_METRICS = (
    ("server.queue_wait_p50_ms", "ms"), ("server.queue_wait_tail_ms", "ms"),
    ("server.exec_p50_ms", "ms"), ("server.exec_tail_ms", "ms"),
    ("service.shed", "count"), ("service.expired_in_queue", "count"),
    ("http.overhead_ms", "ms"),
)

PER_LAYER = (
    ("saturation.busy_ms", "ms"), ("saturation.calls", "count"),
    ("saturation.generated_clauses", "count"),
    ("model.busy_ms", "ms"), ("model.calls", "count"), ("model.retries", "count"),
    ("wellformed.busy_ms", "ms"), ("wellformed.calls", "count"),
    ("wellformed.fresh_ratio", "ratio"),
    ("normalise.busy_ms", "ms"), ("normalise.steps", "count"),
    ("unfold.busy_ms", "ms"), ("unfold.calls", "count"), ("unfold.success_ratio", "ratio"),
    ("counterexample.busy_ms", "ms"), ("counterexample.calls", "count"),
    ("parse.busy_ms", "ms"), ("cnf.busy_ms", "ms"),
    ("canonical.busy_ms", "ms"), ("canonical.calls", "count"),
    ("canonical.too_symmetric", "count"),
    ("cache.lookup_ms", "ms"), ("cache.rename_ms", "ms"), ("cache.hit_ratio", "ratio"),
    ("cache.disk_hits", "count"), ("cache.uncacheable", "count"),
    ("store.get_ms", "ms"), ("store.put_ms", "ms"), ("store.open_ms", "ms"),
    ("store.cold.put_ms", "ms"), ("store.restart.get_ms", "ms"),
    ("store.appends", "count"), ("store.decode_errors", "count"),
    ("batch.dedup", "count"), ("pool.ipc_ms", "ms"), ("pool.retried", "count"),
    ("pool.respawned", "count"),
) + SERVER_LAYER_METRICS + (("trace.overhead_frac", "ratio"),)

#: Per-layer metrics that must be non-zero on the workload meant to stress
#: them: a wrapper that stops firing (a rename in the program) fails the run.
STRESSED = {
    "table1": ("saturation.busy_ms", "model.busy_ms", "normalise.busy_ms"),
    "table2": ("wellformed.busy_ms", "normalise.busy_ms", "unfold.busy_ms",
               "counterexample.busy_ms"),
    "vc_restart": ("canonical.busy_ms", "parse.busy_ms", "cache.lookup_ms", "store.get_ms",
                   "store.put_ms", "pool.ipc_ms"),
    "serve_mix": ("parse.busy_ms", "canonical.busy_ms", "cache.lookup_ms", "store.get_ms",
                  "store.put_ms", "server.queue_wait_p50_ms", "server.exec_p50_ms"),
}

#: The layer each workload was chosen to isolate; a traced run reports
#: whether it holds the largest busy time (a property of today's program,
#: so it is a note, not a failure).
ISOLATED = {"table1": "saturation", "table2": "wellformed", "vc_restart": "canonical"}

#: Ladder of reported tail percentiles; the highest with >= 10 samples beyond.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten of ``samples`` beyond it."""
    for q in TAIL_LADDER:
        if samples * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def tree_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Sum of peak resident sizes (VmHWM) of ``pid`` and its live descendants.

    The host-speed sampler (``hostspeed.py``), a child of the benchmark's own
    process, is not part of the program and is left out.
    """
    root = pid if pid is not None else os.getpid()
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    total_kb = 0
    pending = [root]
    while pending:
        current = pending.pop()
        try:
            with open("/proc/{}/cmdline".format(current), "rb") as handle:
                if b"hostspeed.py" in handle.read():
                    continue
        except OSError:
            pass
        pending.extend(children.get(current, ()))
        try:
            with open("/proc/{}/status".format(current)) as handle:
                for row in handle:
                    if row.startswith("VmHWM:"):
                        total_kb += int(row.split()[1])
        except OSError:
            continue
    if total_kb == 0:  # no procfs: this process's own peak
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def timing_metrics(host, throughput, restart, verdicts, setups, tail_q: float):
    """The end-to-end timings on the reference host, and the same figures as measured.

    ``throughput`` and ``restart`` hold ``(decided, start, end)`` per
    measured stretch (the rate is their median); ``verdicts`` and ``setups``
    hold ``(start, end)`` spans.  ``host`` is the run's
    :class:`~hostspeed.HostSpeed`, which scales each duration by the run's
    speed factor.
    """

    def figures(duration) -> Dict[str, tuple]:
        times = [duration(start, end) for start, end in verdicts]
        return {
            "throughput_eps": (statistics.median(
                n / duration(start, end) for n, start, end in throughput), "1/s"),
            "restart_eps": (statistics.median(
                n / duration(start, end) for n, start, end in restart), "1/s"),
            "verdict_p50_ms": (1000.0 * percentile(times, 50.0), "ms"),
            "verdict_tail_ms": (1000.0 * percentile(times, tail_q), "ms"),
            "setup_s": (statistics.median(duration(start, end) for start, end in setups), "s"),
        }

    return figures(host.duration), figures(lambda start, end: end - start)


def describe_unscaled(host, unscaled: Dict[str, tuple]) -> str:
    return "{}; as measured: {}".format(host.describe(), ", ".join(
        "{} {:.4g}".format(name, value) for name, (value, _) in unscaled.items()))


def remove_prefixed(path: str) -> None:
    """Remove ``path`` and every file next to it whose name extends it."""
    directory, base = os.path.split(path)
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith(base):
                os.remove(os.path.join(directory, name))


def check_layers(name: str, metrics: Dict[str, tuple], smoke: bool) -> List[str]:
    """Problems: a stressed layer that recorded nothing.  Also notes the top layer."""
    problems = [
        "traced layer metric {} is 0 on {}".format(key, name)
        for key in STRESSED[name]
        if metrics[key][0] <= 0.0
    ]
    isolated = ISOLATED.get(name)
    if isolated is not None and not smoke:
        busy = {key: value for key, (value, unit) in metrics.items()
                if key.endswith(".busy_ms") or key in ("cache.lookup_ms", "cache.rename_ms",
                                                       "store.get_ms", "store.put_ms")}
        top = max(busy, key=busy.get)
        total = sum(busy.values())
        print("perfbench: largest traced layer on {}: {} ({:.0%} of traced busy time){}".format(
            name, top, busy[top] / total if total else 0.0,
            "" if top == isolated + ".busy_ms" else ", not " + isolated), file=sys.stderr)
    return problems


def check_fingerprint(key: str, fingerprint: Dict[str, object]) -> None:
    """Warn when the work differs from the committed fingerprint.

    Identical inputs must give identical work on every pass of a run (a
    drift there fails the run).  Across commits the work may change on
    purpose, so a difference from the committed record is reported, for
    the reader to tell a work change from a speed change, and not failed.
    """
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        committed = json.load(handle)
    expected = committed.get(key)
    if expected is not None and "canonical_calls" not in fingerprint:
        # Untraced runs cannot count canonicalize calls.
        expected = {k: v for k, v in expected.items() if k != "canonical_calls"}
    if expected != fingerprint:
        print("perfbench: work fingerprint of {} differs from the committed one {}:"
              " a speed change here may be a work change".format(key, expected),
              file=sys.stderr)
