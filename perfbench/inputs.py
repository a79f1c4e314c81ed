"""Benchmark inputs: the committed instance pools, renamed and shuffled per seed.

A pool file ``data/<pool>.tsv`` holds ``group \\t expected verdict \\t line``
rows, written once by ``make_expected.py``.  A run never proves the pool
lines verbatim: the seed picks a constant prefix, and every line is
rewritten with that prefix in front of each non-``nil`` constant.
Prefixing keeps the constants' relative name order, which is the prover's
term order, so every seed asks the prover for exactly the same work — the
work fingerprint of a workload does not depend on the seed — while the
text the program parses, hashes and caches differs from seed to seed.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import List, Sequence

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Identifiers of the textual syntax (see repro.logic.parser); ``nil`` and the
# keywords ``next``/``lseg``/``cell``/``dlseg`` are not constants.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_RESERVED = {"nil", "null", "next", "lseg", "cell", "dlseg", "false", "true", "emp"}


@dataclass(frozen=True)
class Instance:
    """One pool row: where it came from, its expected verdict, its text."""

    group: str
    expected: str
    line: str


def load_pool(name: str) -> List[Instance]:
    """The committed pool ``name`` in file order."""
    path = os.path.join(DATA, name + ".tsv")
    instances = []
    with open(path, encoding="utf-8") as handle:
        for row in handle:
            group, expected, line = row.rstrip("\n").split("\t")
            instances.append(Instance(group, expected, line))
    return instances


def prefix_for(seed: int, salt: str) -> str:
    """A lower-case constant prefix drawn from ``seed`` (distinct per ``salt``)."""
    rng = random.Random("{}:{}".format(seed, salt))
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3)) + "_"


def rename(line: str, prefix: str) -> str:
    """``line`` with ``prefix`` in front of every constant (an alpha-renaming)."""

    def swap(match: "re.Match[str]") -> str:
        word = match.group(0)
        if word.lower() in _RESERVED:
            return word
        return prefix + word

    return _IDENT.sub(swap, line)


def seeded(instances: Sequence[Instance], seed: int, salt: str) -> List[Instance]:
    """The instances renamed with the seed's prefix, in a fixed mixed order.

    The order does not depend on the seed: with a garbage-collected heap of
    a few hundred megabytes, where the collector's pauses land depends on
    the order, and a seed that moved them would move the tail latency.
    """
    prefix = prefix_for(seed, salt)
    renamed = [Instance(i.group, i.expected, rename(i.line, prefix)) for i in instances]
    random.Random("order:{}".format(salt)).shuffle(renamed)
    return renamed
