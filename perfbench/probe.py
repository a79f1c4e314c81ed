"""Set-up probe: start the program the way ``slp FILE`` does, answer one input.

Imports the batch engine, opens the proof store when ``--store`` is given,
proves one warm-up entailment (which starts the worker pool when ``--jobs``
is above 1), then prints ``ready`` and shuts down.  ``--cells`` sets the
length of the warm-up's points-to chain: successive probes over one store
pass different lengths, so none is answered from an earlier probe's record
without starting the pool.  The caller times the
process from spawn to the ``ready`` line; that interval is ``setup_s``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", default=None)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--cells", type=int, default=2)
    arguments = parser.parse_args()

    from dataclasses import replace

    from repro.core.batch import BatchProver
    from repro.core.cache import PersistentProofCache
    from repro.core.config import ProverConfig
    from repro.logic.parser import parse_entailment

    config = replace(ProverConfig(), record_proof=False).with_timeout(arguments.timeout)
    cache = PersistentProofCache(arguments.store) if arguments.store else True
    try:
        with BatchProver(config, jobs=arguments.jobs, cache=cache) as batch:
            cells = ["p{} |-> p{}".format(i, i + 1) for i in range(arguments.cells - 1)]
            cells.append("p{} |-> nil".format(arguments.cells - 1))
            batch.prove_all([parse_entailment(" * ".join(cells) + " |- lseg(p0, nil)")])
            print("ready", flush=True)
    finally:
        if arguments.store:
            cache.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
