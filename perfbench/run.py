"""The heap prover's benchmark: verdict throughput and latency, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads (``workloads.json`` records their configs, sizes and reasons):

``table1``      Table 1 ``random_unsat`` lines, in process at ``--jobs 1``.
``table2``      Table 2 ``random_fold`` lines, in process at ``--jobs 1``.
``vc_restart``  Table 3 cloned VCs at ``--jobs 2 --store``: a cold phase on an
                empty store, then a fresh coordinator on alpha-renamed copies.
``serve_mix``   open-loop HTTP traffic against ``slp serve --jobs 2 --store``
                (``serve.py``).

The batch workloads make the calls ``slp FILE`` makes: ``parse_entailment``
on every line, then :class:`BatchProver` under the CLI's default
configuration (proof recording off, counterexample verification on).  A
run repeats whole passes over its inputs and reports medians.  Every verdict is checked against the pool's expected verdict and
every counterexample against the exact semantics, outside the timed region.

A run first makes a small warm-up pass, which it discards, then a fixed
number of measured passes over the whole pool: at least ``MIN_PASSES``,
more when ``--seconds`` covers them at the workload's nominal pass time.
The count depends on ``--seconds`` alone, never on how fast the host is
during the run, so every figure is a median over the same number of passes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run: after the warm-up, measured passes alternate traced and
untraced, and the difference is ``trace.overhead_frac``.  Readable
summaries go to standard error.  ``--smoke`` runs one small pass of each
kind (the self-test uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from common import (
    END_TO_END, HERE, PER_LAYER, ROOT, SERVER_LAYER_METRICS, SRC, WORK, check_fingerprint,
    check_layers, describe_unscaled, remove_prefixed, tail_percentile, timing_metrics,
    tree_peak_rss_mb,
)
from hostspeed import HostSpeed

#: Per-entailment budget (``--timeout``) of the batch workloads.  The slowest
#: pool line takes 0.62 s under this configuration on a 2-CPU x86-64 host
#: (``make_expected.py`` leaves out lines far beyond the rest), so the budget
#: is sixteen times the slowest line and the decided share repeats.
LIMIT_SECONDS = 10.0
#: Measured passes per run at the least (``pass_count``).
MIN_PASSES = 4
#: Set-up probes after each measured pass of an untraced run; ``setup_s`` is
#: their median.  Spreading them over the run samples the host at several
#: moments, as the passes do.
PROBES_PER_PASS = 2

WARMUP_LINE = "wu_a |-> wu_b * wu_b |-> nil |- lseg(wu_a, nil)"


def cli_config():
    """The configuration ``slp FILE --timeout LIMIT_SECONDS`` runs with."""
    from repro.core.config import ProverConfig

    return replace(ProverConfig(), record_proof=False).with_timeout(LIMIT_SECONDS)


def measure_setup(arguments: List[str]) -> Tuple[float, float]:
    """When ``probe.py`` was spawned and when it printed its ``ready`` line."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py")] + arguments,
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = process.stdout.readline()
        ready = time.perf_counter()
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError("set-up probe failed: {!r}".format(line))
    return started, ready


# ---------------------------------------------------------------------------
# One coordinator over one batch
# ---------------------------------------------------------------------------


@dataclass
class PhaseRecord:
    """What one coordinator did with one batch: timings, verdicts, work counts."""

    size: int
    started: float  # perf_counter at the start and end of the timed region
    ended: float
    verdict_spans: List[Tuple[float, float]]  # (from, verdict) per entailment
    peak_rss_mb: float
    decided: int = 0
    failures: int = 0
    wrong: int = 0
    fresh: int = 0  # well-formedness consequences new to the clause set
    normalise_steps: int = 0
    fingerprint: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)



def check_outcomes(record: PhaseRecord, instances, parsed, outcomes) -> None:
    """Count decided, failed and wrong outcomes, and the prover's own work."""
    from repro.core.result import ProofResult
    from repro.semantics.satisfaction import falsifies_entailment

    for instance, entailment, outcome in zip(instances, parsed, outcomes):
        if not isinstance(outcome, ProofResult):
            record.failures += 1
            continue
        record.decided += 1
        if outcome.verdict.value != instance.expected:
            record.wrong += 1
            print("wrong verdict {} on {}".format(outcome.verdict, instance.line), file=sys.stderr)
            continue
        if outcome.is_invalid:
            witness = outcome.counterexample
            if witness is None or not falsifies_entailment(witness.stack, witness.heap, entailment):
                record.wrong += 1
                print("bad counterexample on {}".format(instance.line), file=sys.stderr)
    proved = [o for o in outcomes if isinstance(o, ProofResult) and not o.from_cache]
    record.fresh = sum(o.statistics.wellformedness_consequences for o in proved)
    record.normalise_steps = sum(o.statistics.normalization_steps for o in proved)
    record.fingerprint["generated_clauses"] = sum(o.statistics.generated_clauses for o in proved)


def run_phase(instances, jobs: int, store_path: Optional[str] = None, tracer=None,
              phase: str = "") -> PhaseRecord:
    """``slp FILE --jobs N [--store PATH]`` over ``instances``, timed after set-up.

    With a pool, the coordinator first answers one warm-up line, which forks
    and warms the workers: that is set-up (the probes time it), not
    throughput.  At ``--jobs 1`` a verdict's time is the gap since the
    previous verdict line, which is the entailment's own processing time; a
    pool streams results in bursts, so there it is the time since the batch
    was submitted.
    """
    import repro.logic.parser as parser
    from repro.core.batch import BatchProver
    from repro.core.cache import PersistentProofCache

    cache = PersistentProofCache(store_path) if store_path is not None else True
    try:
        with BatchProver(cli_config(), jobs=jobs, cache=cache) as batch:
            if jobs > 1:
                batch.prove_all([parser.parse_entailment(WARMUP_LINE)])
            before = replace(batch.statistics)
            disk = cache.disk.statistics if store_path is not None else None
            appends_before = disk.appends if disk is not None else 0
            busy_before = tracer.snapshot()["busy"] if tracer is not None else None

            started = last = time.perf_counter()
            parsed = [parser.parse_entailment(instance.line) for instance in instances]
            outcomes: List[object] = [None] * len(parsed)
            spans: List[Tuple[float, float]] = []
            for index, outcome in batch.iter_ordered(parsed):
                now = time.perf_counter()
                spans.append((last, now))
                if jobs == 1:
                    last = now
                outcomes[index] = outcome
            ended = time.perf_counter()

            if tracer is not None:
                busy_after = tracer.snapshot()["busy"]
                for kind in ("get", "put"):
                    layer = "store." + kind
                    tracer.count("store.{}.{}_s".format(phase, kind),
                                 busy_after[layer] - busy_before[layer])
            peak = tree_peak_rss_mb()
            stats = batch.statistics
            uncacheable = batch.cache.uncacheable
    finally:
        if store_path is not None:
            cache.close()
    record = PhaseRecord(len(instances), started, ended, spans, peak)
    check_outcomes(record, instances, parsed, outcomes)
    appends = (disk.appends - appends_before) if disk is not None else 0
    delta = {name: getattr(stats, name) - getattr(before, name)
             for name in ("deduplicated", "disk_hits", "cache_hits", "cache_misses", "retried",
                          "respawned_workers")}
    record.fingerprint.update(
        too_symmetric=uncacheable, dedup=delta["deduplicated"], store_appends=appends,
        disk_hits=delta["disk_hits"],
    )
    record.counts = dict(delta, uncacheable=uncacheable, appends=appends,
                         decode_errors=disk.decode_errors if disk is not None else 0)
    return record


# ---------------------------------------------------------------------------
# Workloads and passes
# ---------------------------------------------------------------------------


class BatchWorkload:
    """A batch workload: its pool, its worker count, and how one pass runs."""

    def __init__(self, name: str, pool: str, jobs: int, smoke_size: int, pass_seconds: float):
        self.name = name
        self.pool = pool
        self.jobs = jobs
        self.smoke_size = smoke_size
        #: Nominal time of one whole-pool pass, measured on a 2-CPU x86-64 host.
        self.pass_seconds = pass_seconds

    def inputs(self, seed: int, small: bool, salt: str = ""):
        """The pass's lines and, for a restart, alpha-renamed copies of them."""
        from inputs import load_pool, seeded

        instances = load_pool(self.pool)
        if small:
            instances = instances[:: max(1, len(instances) // self.smoke_size)]
        name = self.name + salt
        return seeded(instances, seed, name), seeded(instances, seed, name + "/again")

    def pass_count(self, seconds: float, trace: bool, smoke: bool) -> int:
        """Measured passes: a fixed number for given ``seconds``, whatever the host's speed."""
        if smoke:
            return 2 if trace else 1
        return max(MIN_PASSES, round(seconds / self.pass_seconds))

    def one_pass(self, first, again, tracer) -> List[PhaseRecord]:
        """The phases of one pass; the last one is the restart."""
        if self.jobs == 1:
            # Without a store nothing survives a restart: a fresh coordinator
            # proves everything again, so the pass is its own restart.
            return [run_phase(first, 1)]
        # The store outlives the pass: the set-up probes after it open it.
        remove_prefixed(self.store_path)
        return [run_phase(first, self.jobs, self.store_path, tracer, "cold"),
                run_phase(again, self.jobs, self.store_path, tracer, "restart")]

    @property
    def store_path(self) -> str:
        return os.path.join(WORK, "{}-{}.slp".format(self.name, os.getpid()))

    def probe_arguments(self) -> List[str]:
        """``probe.py`` arguments: this workload's worker count, budget and store."""
        arguments = ["--jobs", str(self.jobs), "--timeout", str(LIMIT_SECONDS)]
        if self.jobs > 1:
            arguments += ["--store", self.store_path]
        return arguments


WORKLOADS = {
    "table1": BatchWorkload("table1", "table1", jobs=1, smoke_size=12, pass_seconds=5.5),
    "table2": BatchWorkload("table2", "table2", jobs=1, smoke_size=6, pass_seconds=4.4),
    "vc_restart": BatchWorkload("vc_restart", "vcs", jobs=2, smoke_size=12, pass_seconds=10.0),
}


@dataclass
class Pass:
    traced: bool
    phases: List[PhaseRecord]
    seconds: float
    layers: Optional[dict] = None  # the tracer's snapshot, for a traced pass

    def fingerprint(self) -> Dict[str, object]:
        prints: Dict[str, object] = {"phases": [phase.fingerprint for phase in self.phases]}
        if self.layers is not None:
            prints["canonical_calls"] = self.layers["calls"]["canonical"]
        return prints


def run_passes(workload: BatchWorkload, seed: int, first, again, seconds: float, trace: bool,
               smoke: bool, setups: List[Tuple[float, float]]) -> List[Pass]:
    """A discarded warm-up pass, then ``pass_count`` measured passes.

    Traced runs alternate traced and untraced passes, starting traced.
    Untraced runs time ``PROBES_PER_PASS`` set-up probes into ``setups``
    after each pass.
    """
    import tracing

    if not smoke:
        workload.one_pass(*workload.inputs(seed, small=True, salt="/warm-up"), tracer=None)
    tracer = None
    if trace:
        dump_dir = os.path.join(WORK, "trace-{}".format(os.getpid()))
        os.makedirs(dump_dir, exist_ok=True)
        tracer = tracing.Tracer(dump_dir)
    passes: List[Pass] = []
    try:
        for number in range(workload.pass_count(seconds, trace, smoke)):
            traced = trace and number % 2 == 0
            uninstall = None
            if traced:
                tracer.reset()
                uninstall = tracing.install(tracer)
            try:
                pass_started = time.perf_counter()
                phases = workload.one_pass(first, again, tracer if traced else None)
                done = Pass(traced, phases, time.perf_counter() - pass_started)
            finally:
                if uninstall is not None:
                    uninstall()
            if traced:
                tracing.collect(tracer)
                done.layers = tracer.snapshot()
            passes.append(done)
            if not trace:
                setups.extend(measure_setup(workload.probe_arguments() + ["--cells", str(5 + n)])
                              for n in range(PROBES_PER_PASS))
        return passes
    finally:
        if tracer is not None:
            shutil.rmtree(tracer.dump_dir, ignore_errors=True)


def batch_result(workload: BatchWorkload, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, object]:
    os.makedirs(WORK, exist_ok=True)
    first, again = workload.inputs(seed, small=smoke)
    setups: List[Tuple[float, float]] = []
    try:
        with HostSpeed() as host:
            passes = run_passes(workload, seed, first, again, seconds, trace, smoke, setups)
    finally:
        remove_prefixed(workload.store_path)
    phases = [phase for done in passes for phase in done.phases]
    attempted = sum(phase.size for phase in phases)
    failures = sum(phase.failures for phase in phases)
    wrong = sum(phase.wrong for phase in phases)
    problems = []
    if wrong:
        problems.append("{} wrong verdicts or counterexamples".format(wrong))
    for done in passes:
        if len(done.phases) == 2:
            # The fresh coordinator must answer every cacheable copy from the
            # cache, reading each proof the cold phase wrote from disk once.
            cold, restart = done.phases
            expected = (restart.size - restart.counts["uncacheable"], cold.counts["appends"])
            found = (restart.counts["cache_hits"], restart.counts["disk_hits"])
            if found != expected:
                problems.append("restart answered (cache hits, disk hits) = {}, expected {}"
                                .format(found, expected))
    # The same inputs must do the same work on every pass.
    for kind in (False, True):
        prints = [done.fingerprint() for done in passes if done.traced == kind]
        if any(other != prints[0] for other in prints[1:]):
            problems.append("work fingerprint drifted between passes: {}".format(prints))
    reported = next((done for done in passes if done.traced), passes[0]).fingerprint()
    check_fingerprint(workload.name + (":smoke" if smoke else ""), reported)

    summary: Dict[str, object] = {
        "attempted": attempted, "failed": failures + wrong, "problems": problems,
        "fingerprint": reported,
    }
    if trace:
        summary["metrics"] = layer_metrics(passes)
        problems.extend(check_layers(workload.name, summary["metrics"], smoke))
        return summary

    # Verdict times at the workload's stated size: the first phase of each pass.
    tail_q = tail_percentile(passes[0].phases[0].size)
    scaled, unscaled = timing_metrics(
        host,
        throughput=[(done.phases[0].decided, done.phases[0].started, done.phases[0].ended)
                    for done in passes],
        restart=[(done.phases[-1].decided, done.phases[-1].started, done.phases[-1].ended)
                 for done in passes],
        verdicts=[span for done in passes for span in done.phases[0].verdict_spans],
        setups=setups,
        tail_q=tail_q,
    )
    summary["metrics"] = dict(
        scaled,
        decided_frac=(sum(phase.decided for phase in phases) / attempted, "ratio"),
        ok_frac=(1.0 - failures / attempted, "ratio"),
        peak_rss_mb=(max(phase.peak_rss_mb for phase in phases), "MB"),
    )
    summary["notes"] = "\n".join([
        "tail = p{:g} over {} verdicts per pass; pass seconds {}".format(
            tail_q, passes[0].phases[0].size, ["%.2f" % done.seconds for done in passes]),
        describe_unscaled(host, unscaled),
    ])
    return summary


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(passes: List[Pass]) -> Dict[str, tuple]:
    """Medians over the traced passes (per pass), plus the tracing overhead."""
    traced = [done for done in passes if done.traced]
    untraced = [done for done in passes if not done.traced]

    def med(values) -> float:
        return statistics.median(list(values))

    def busy_ms(layer: str) -> tuple:
        return (med(1000.0 * done.layers["busy"][layer] for done in traced), "ms")

    def calls(layer: str) -> tuple:
        return (med(done.layers["calls"][layer] for done in traced), "count")

    def event(name: str, scale: float = 1.0) -> float:
        return med(scale * done.layers["events"].get(name, 0) for done in traced)

    def summed(value) -> float:
        return med(sum(value(phase) for phase in done.phases) for done in traced)

    def ratio(top, bottom) -> tuple:
        values = []
        for done in traced:
            numerator, denominator = top(done), bottom(done)
            values.append(numerator / denominator if denominator else 0.0)
        return (med(values), "ratio")

    def count(key: str) -> tuple:
        return (summed(lambda phase: phase.counts[key]), "count")

    def phase_sum(done: Pass, value) -> float:
        return sum(value(phase) for phase in done.phases)

    metrics = {
        "saturation.busy_ms": busy_ms("saturation"),
        "saturation.calls": calls("saturation"),
        "saturation.generated_clauses": (
            summed(lambda phase: phase.fingerprint["generated_clauses"]), "count"),
        "model.busy_ms": busy_ms("model"),
        "model.calls": calls("model"),
        "model.retries": (event("model.retries"), "count"),
        "wellformed.busy_ms": busy_ms("wellformed"),
        "wellformed.calls": calls("wellformed"),
        "wellformed.fresh_ratio": ratio(
            lambda done: phase_sum(done, lambda phase: phase.fresh),
            lambda done: done.layers["events"].get("wellformed.emitted", 0)),
        "normalise.busy_ms": busy_ms("normalise"),
        "normalise.steps": (summed(lambda phase: phase.normalise_steps), "count"),
        "unfold.busy_ms": busy_ms("unfold"),
        "unfold.calls": calls("unfold"),
        "unfold.success_ratio": ratio(
            lambda done: done.layers["events"].get("unfold.successes", 0),
            lambda done: done.layers["calls"]["unfold"]),
        "counterexample.busy_ms": busy_ms("counterexample"),
        "counterexample.calls": calls("counterexample"),
        "parse.busy_ms": busy_ms("parse"),
        "cnf.busy_ms": busy_ms("cnf"),
        "canonical.busy_ms": busy_ms("canonical"),
        "canonical.calls": calls("canonical"),
        "canonical.too_symmetric": (event("canonical.too_symmetric"), "count"),
        "cache.lookup_ms": busy_ms("cache.lookup"),
        "cache.rename_ms": busy_ms("cache.rename"),
        "cache.hit_ratio": ratio(
            lambda done: phase_sum(done, lambda phase: phase.counts["cache_hits"]),
            lambda done: phase_sum(done, lambda phase: phase.counts["cache_hits"]
                                   + phase.counts["cache_misses"]
                                   + phase.counts["uncacheable"])),
        "cache.disk_hits": count("disk_hits"),
        "cache.uncacheable": count("uncacheable"),
        "store.get_ms": busy_ms("store.get"),
        "store.put_ms": busy_ms("store.put"),
        "store.open_ms": busy_ms("store.open"),
        "store.cold.put_ms": (event("store.cold.put_s", 1000.0), "ms"),
        "store.restart.get_ms": (event("store.restart.get_s", 1000.0), "ms"),
        "store.appends": count("appends"),
        "store.decode_errors": count("decode_errors"),
        "batch.dedup": count("deduplicated"),
        "pool.ipc_ms": (event("pool.ipc_s", 1000.0), "ms"),
        "pool.retried": count("retried"),
        "pool.respawned": count("respawned_workers"),
    }
    # Server layers do not exist in a batch run.
    metrics.update({name: (0.0, unit) for name, unit in SERVER_LAYER_METRICS})
    metrics["trace.overhead_frac"] = (
        med(done.seconds for done in traced) / med(done.seconds for done in untraced) - 1.0,
        "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(list(WORKLOADS) + ["serve_mix"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass, for the self-test")
    arguments = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    trace = bool(arguments.trace)
    if arguments.workload == "serve_mix":
        from serve import serve_result

        summary = serve_result(arguments.seed, arguments.seconds, trace, arguments.smoke)
    else:
        summary = batch_result(WORKLOADS[arguments.workload], arguments.seed,
                               arguments.seconds, trace, arguments.smoke)

    declared = PER_LAYER if trace else END_TO_END
    if sorted((name, unit) for name, (_, unit) in summary["metrics"].items()) != sorted(declared):
        raise RuntimeError("the metrics differ from the declared ones")
    for problem in summary["problems"]:
        print("perfbench: {}".format(problem), file=sys.stderr)
    for name, unit in declared:
        print("{:<32} {:>14.4f} {}".format(name, summary["metrics"][name][0], unit),
              file=sys.stderr)
    if summary.get("notes"):
        print(summary["notes"], file=sys.stderr)
    print("fingerprint {}".format(json.dumps(summary["fingerprint"], sort_keys=True)),
          file=sys.stderr)
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name][0], "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
