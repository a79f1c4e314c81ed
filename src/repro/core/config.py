"""Configuration of the prover.

All knobs have safe defaults.  There are two implementations of the
calculus: the production path and the reference path, selected by
``use_int_kernel`` (:meth:`ProverConfig.reference` picks the reference).  The
other knobs are budgets and bookkeeping switches, e.g. switching off proof
recording when only timing matters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ProverConfig:
    """Tunable parameters of :class:`repro.core.prover.Prover`.

    Attributes
    ----------
    max_saturation_clauses:
        Budget on the number of pure clauses generated by superposition; the
        fragment guarantees termination, this guards against pathological
        inputs in benchmarks.  Exceeding it raises
        :class:`~repro.superposition.saturation.SaturationLimitError`; the
        batch layer reports that as a structured ``oom`` failure, like an
        exhausted ``max_memory_mb``.
    max_iterations:
        Budget on iterations of the outer loop of the Figure 3 algorithm.
    saturation_chunk:
        Number of given clauses processed per saturation round.  The prover
        asks for a candidate model after every chunk and only keeps saturating
        while the candidate fails its verification, which is usually long
        before the clause set is fully saturated.  The default was retuned
        from 100 to 800 alongside the integer kernel: with incremental model
        maintenance the per-round model cost is small but not free, and on
        the Table 1 rows the larger chunk is faster (see PERFORMANCE.md).
    verify_model:
        Verify that the candidate equality model satisfies every known pure
        clause and that every rewrite edge's generating clause has its
        leftover literals refuted (the properties the completeness argument
        needs).  Disabling this forces full saturation before every model
        generation (the textbook behaviour), which is slower.
    verify_counterexamples:
        Check returned counterexamples against the exact semantics before
        reporting them (cheap; guarantees an "invalid" verdict is never
        wrong).
    record_proof:
        Record every inference so that a full SI proof tree can be
        reconstructed for valid entailments.  Disable for benchmarking.
    use_int_kernel:
        Select the implementation of the calculus.  ``True`` (the default)
        is the production path: saturation on the dense integer clause
        kernel (``repro.superposition.kernel``) with its adaptive clause
        index, and candidate models maintained incrementally over the
        kernel's dense clauses.  ``False`` is the reference path kept as the
        correctness oracle (see :meth:`reference`): the symbolic
        given-clause loop with linear scans, and every candidate model
        generated from scratch.  Both derive byte-identical clauses in an
        identical order; the equivalence tests pin it.
    max_seconds:
        Per-``prove()`` wall-clock budget.  When exceeded the prover raises
        :class:`~repro.core.prover.ProverTimeout` instead of answering; the
        deadline is threaded into the saturation inner loop (checked before
        every given clause), so overruns are bounded by one inference, not
        one round.  ``None`` (the default) disables the budget.
    max_memory_mb:
        Address-space budget for batch *worker processes*, applied via
        ``resource.setrlimit(RLIMIT_AS)`` in the worker initialiser.  A task
        that exceeds it raises ``MemoryError``, which the supervised pool
        converts into a structured ``oom`` failure instead of letting the
        kernel's OOM killer take the worker down.  ``None`` (the default)
        sets no limit.  Ignored by in-process proving: the limit would apply
        to the coordinator — caches, queued results and all — not to one
        task.
    """

    max_saturation_clauses: int = 500000
    max_iterations: int = 100000
    saturation_chunk: int = 800
    verify_model: bool = True
    verify_counterexamples: bool = True
    record_proof: bool = True
    use_int_kernel: bool = True
    max_seconds: "float | None" = None
    max_memory_mb: "int | None" = None

    def with_timeout(self, max_seconds: "float | None") -> "ProverConfig":
        """A copy of the configuration with the per-call budget replaced."""
        return replace(self, max_seconds=max_seconds)

    def with_memory_limit(self, max_memory_mb: "int | None") -> "ProverConfig":
        """A copy with the worker address-space budget replaced."""
        return replace(self, max_memory_mb=max_memory_mb)

    def for_benchmarking(self) -> "ProverConfig":
        """A copy of the configuration with all optional bookkeeping disabled.

        The model verification stays enabled: it is not optional bookkeeping
        but the mechanism that lets the prover work with partially saturated
        clause sets (see ``ProverConfig.verify_model``).
        """
        return replace(
            self,
            verify_model=True,
            verify_counterexamples=False,
            record_proof=False,
        )

    def reference(self) -> "ProverConfig":
        """A copy running the reference implementation (the seed algorithm).

        Used as the correctness oracle by the equivalence tests and as the
        "before" configuration of the performance benchmarks.
        """
        return replace(self, use_int_kernel=False)
