"""Regenerate the instance pools and their expected verdicts (run once, by hand).

Each pool file ``data/<pool>.tsv`` holds one instance per line::

    <group>\t<expected verdict>\t<entailment in the textual syntax>

The instances come from the repository's own generators under a fixed
master seed: Table 1 ``random_unsat`` lines at n = 18, 19, 20, Table 2
``random_fold`` lines at n = 40, 60, 80, and the front-end suite's
verification conditions cloned k = 1, 2, 4 times (Table 3; every second
VC at k = 4).  Each expected
verdict is decided by the seed algorithm, ``ProverConfig.reference()``, and
cross-checked with the bounded enumeration oracle wherever that oracle
decides.  A disagreement aborts the script.

A line whose reference proof generates more than ``MAX_GENERATED`` clauses
is left out of its pool.  Under the master seed that is one Table 1 line
at n = 20: about 111k clauses and 6.9 s under the CLI's configuration,
eleven times the next slowest line and more than the other 239 lines
together, so every pass, and every throughput figure, would mostly time
that one line.

Usage (from the repository root)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.benchgen.cloning import clone_entailment  # noqa: E402
from repro.benchgen.random_fold import FoldParameters, random_fold_batch  # noqa: E402
from repro.benchgen.random_unsat import UnsatParameters, random_unsat_batch  # noqa: E402
from repro.core.config import ProverConfig  # noqa: E402
from repro.core.prover import Prover  # noqa: E402
from repro.frontend.examples_suite import generate_suite_vcs  # noqa: E402
from repro.fuzz.oracles import EnumerationOracle  # noqa: E402
from repro.logic.parser import parse_entailment  # noqa: E402
from repro.logic.printer import format_entailment  # noqa: E402

MASTER_SEED = 2011
TABLE1_SIZES = (18, 19, 20)
TABLE1_PER_SIZE = 80
TABLE2_SIZES = (40, 60, 80)
TABLE2_PER_SIZE = 24
CLONE_FACTORS = (1, 2, 4)
MAX_GENERATED = 50_000


def pools():
    """``{pool name: [(group, entailment), ...]}`` under the master seed."""
    table1 = []
    for n in TABLE1_SIZES:
        batch = random_unsat_batch(UnsatParameters.paper(n), TABLE1_PER_SIZE, MASTER_SEED + n)
        table1.extend(("n={}".format(n), entailment) for entailment in batch)
    table2 = []
    for n in TABLE2_SIZES:
        batch = random_fold_batch(FoldParameters.paper(n), TABLE2_PER_SIZE, MASTER_SEED + n)
        table2.extend(("n={}".format(n), entailment) for entailment in batch)
    suite = [condition.entailment for condition in generate_suite_vcs()]
    # Every VC at k = 1 and 2; every second one at k = 4, whose canonical
    # forms cost two orders of magnitude more than the proofs.
    vcs = [
        ("k={}".format(k), clone_entailment(entailment, k))
        for k in CLONE_FACTORS
        for entailment in (suite[::2] if k == 4 else suite)
    ]
    return {"table1": table1, "table2": table2, "vcs": vcs}


def main() -> int:
    reference = Prover(ProverConfig().reference())
    oracle = EnumerationOracle()
    for name, instances in pools().items():
        started = time.perf_counter()
        rows = []
        seen = set()
        cross_checked = 0
        left_out = 0
        for group, entailment in instances:
            line = format_entailment(entailment)
            if line in seen:
                continue  # the pool keeps distinct lines only
            seen.add(line)
            parsed = parse_entailment(line)
            result = reference.prove(parsed)
            if result.statistics.generated_clauses > MAX_GENERATED:
                left_out += 1
                continue
            verdict = result.verdict.value
            by_oracle = oracle.check(parsed)
            if by_oracle is not None:
                cross_checked += 1
                if by_oracle != (verdict == "valid"):
                    print("oracle disagrees on {}".format(line), file=sys.stderr)
                    return 1
            rows.append("{}\t{}\t{}\n".format(group, verdict, line))
        with open(os.path.join(HERE, "data", name + ".tsv"), "w", encoding="utf-8") as handle:
            handle.writelines(rows)
        print(
            "{}: {} instances, {} cross-checked by enumeration, {} left out, {:.1f}s".format(
                name, len(rows), cross_checked, left_out, time.perf_counter() - started
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
