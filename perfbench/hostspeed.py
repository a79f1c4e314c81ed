"""Host speed, sampled beside a run, so that timings can be scaled to a reference host.

On a shared host the same pass can take half again as long from one minute
to the next, and the prover's CPU time moves with its wall time: the noise
is the host's speed, which medians over one run cannot remove.  So, for the
whole of a run, a side process times a fixed pure-Python kernel (about
2 ms of CPU) every 100 ms with ``time.thread_time``.  The run's *speed
factor* is the median kernel CPU time over ``KERNEL_REFERENCE_S``: above 1
on a slow host.  ``run.py`` divides every end-to-end duration by it (and so
multiplies every rate), so the reported figures are those of a host on
which the kernel takes ``KERNEL_REFERENCE_S``.  The unscaled figures and
the factor are printed on standard error beside the scaled ones.

The kernel does not use the program, but it shares the machine with it, so
a change to the program's memory traffic could in principle move the
factor and absorb part of a real speed change.  That was checked with two
mutations of the prover, each paired run by run with the unmutated
program on a 2-CPU x86-64 host: a fixed CPU cost per proof (``table2``,
three pairs) and a 64 MiB memory copy per proof (``table2`` and
``vc_restart``, three pairs each).  The factor's median moved by +6% (CPU
cost), +2% (memory copy, ``table2``) and -1% (memory copy,
``vc_restart``), inside its own run-to-run range over these runs (0.84 to
1.03), and the median mutant-over-unmutated throughput ratio was no nearer
1 scaled than unscaled: 0.72 against 0.76, 0.84 against 0.87, and 0.76
against 0.80.  (Factors taken over each measured interval instead of the
whole run tracked the host worse: they also follow the run's own load,
which changes from interval to interval.)
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from typing import List

KERNEL_REFERENCE_S = 0.002
PERIOD_S = 0.1


def kernel() -> int:
    """Fixed work in the prover's idiom: tuple keys, dict updates, sorting, sets."""
    table = {}
    for i in range(2000):
        key = (i % 97, i % 89, i & 7)
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return len({(value % 1013, key[0]) for key, value in ordered})


class HostSpeed:
    """Context manager: samples the kernel in a side process while the block runs."""

    def __enter__(self) -> "HostSpeed":
        self.samples: List[float] = []  # kernel CPU seconds
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.process.stdin.close()  # end of input tells the sampler to stop
        output = self.process.stdout.read()
        self.process.wait()
        self.samples = [float(row) for row in output.split()]

    @property
    def factor(self) -> float:
        """Median kernel CPU time over the reference (1.0 when nothing was sampled)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / KERNEL_REFERENCE_S

    def duration(self, start: float, end: float) -> float:
        """``end - start`` on the reference host."""
        return (end - start) / self.factor

    def describe(self) -> str:
        return "host speed factor {:.3f} ({} kernel samples)".format(
            self.factor, len(self.samples))


def main() -> int:
    """The sampler: one kernel CPU time per line until standard input closes."""
    while True:
        started = time.thread_time()
        kernel()
        print(repr(time.thread_time() - started), flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:
            return 0


if __name__ == "__main__":
    sys.exit(main())
