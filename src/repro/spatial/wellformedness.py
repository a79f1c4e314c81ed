"""Well-formedness rules: unsatisfiable heap shapes become pure clauses.

A positive spatial clause ``Gamma -> Delta, Sigma`` asserts a heap shape; the
well-formedness rules detect shapes that cannot be realised by any heap and
turn them into *pure* clauses.  Which shapes those are is theory specific —
the rules belong to the :class:`~repro.spatial.theory.SpatialTheory` owning
the formula's predicates — but they all follow the same scheme: an allocated
address that is ``nil`` or claimed twice forces the involved segments to be
empty (their emptiness equations are added to ``Delta``) or, when no segment
can absorb the conflict, yields the plain clause ``Gamma -> Delta``.

For the builtin singly-linked theory these are the paper's rules W1–W5
(Figure 1):

* **W1** ``next(nil, y)`` occurs in ``Sigma``: no heap has a cell at ``nil``;
  derive ``Gamma -> Delta``.
* **W2** ``lseg(nil, y)`` occurs: the segment must be empty; derive
  ``Gamma -> y = nil, Delta``.
* **W3** two ``next`` atoms share an address: impossible; derive
  ``Gamma -> Delta``.
* **W4** ``next(x, y)`` and ``lseg(x, z)`` share the address ``x``: the
  segment must be empty; derive ``Gamma -> x = z, Delta``.
* **W5** ``lseg(x, y)`` and ``lseg(x, z)`` share the address ``x``: one of the
  two segments must be empty; derive ``Gamma -> x = y, x = z, Delta``.

The doubly-linked rules (W1–W5 analogues plus the back-anchor rules D1–D4)
live in :mod:`repro.spatial.dll`.

Like normalisation, computing these consequences involves no search.  The
per-atom rules (W1, W2 and their analogues) are one pass over the atoms of
``Sigma``.  The pairwise rules only fire on atoms that allocate a common
location, so :func:`colliding_pairs` buckets the atom indices by allocated
location in one pass and hands the theory just the pairs that share a bucket,
instead of every pair of atoms.  It returns them sorted, which is the order
an all-pairs scan over ``i < j`` visits them in, so the consequences come out
in the same order either way and the clauses reach saturation in the same
order.  The cost is linear in the atoms plus the collisions: a formula whose
atoms all share one address still has quadratically many consequences, but
then the output has that size too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.logic.atoms import SpatialAtom
from repro.logic.clauses import Clause
from repro.logic.terms import Const
from repro.spatial.theory import theory_of


@dataclass(frozen=True)
class WellFormednessConsequence:
    """A pure clause derived by one of the well-formedness rules."""

    rule: str
    conclusion: Clause
    premise: Clause
    offending: Tuple[SpatialAtom, ...]

    def __str__(self) -> str:
        return "[{}] {}".format(self.rule, self.conclusion)


def consequence_emitter(clause: Clause, consequences: List[WellFormednessConsequence]):
    """An ``emit(rule, extra_delta, offending)`` closure appending consequences.

    Shared by the theories' rule implementations: the conclusion is always the
    premise's pure part with the rule's extra equalities added to ``Delta``.
    """

    def emit(rule, extra_delta, offending) -> None:
        conclusion = Clause.pure(clause.gamma, clause.delta | frozenset(extra_delta))
        consequences.append(
            WellFormednessConsequence(
                rule=rule, conclusion=conclusion, premise=clause, offending=tuple(offending)
            )
        )

    return emit


def colliding_pairs(anchors: Sequence[Sequence[Const]]) -> List[Tuple[int, int]]:
    """The index pairs ``(i, j)``, ``i < j``, of atoms allocating a common location.

    ``anchors[i]`` lists the locations atom ``i`` allocates; ``nil`` is
    skipped, since the per-atom rules already handle a ``nil`` anchor.  Each
    pair is reported once, however many locations it shares, and the pairs
    come sorted lexicographically: the order of a nested ``i < j`` loop.
    """
    # ``first`` maps every location to the first atom allocating it; only a
    # location some later atom also allocates gets a bucket of its own, so a
    # formula without collisions costs one dictionary operation per anchor.
    first: Dict[Const, int] = {}
    buckets: Dict[Const, List[int]] = {}
    for index, locations in enumerate(anchors):
        for location in locations:
            owner = first.setdefault(location, index)
            if owner == index or location.is_nil:
                continue
            bucket = buckets.get(location)
            if bucket is None:
                buckets[location] = [owner, index]
            elif bucket[-1] != index:
                bucket.append(index)
    pairs: Set[Tuple[int, int]] = set()
    for bucket in buckets.values():
        for position, earlier in enumerate(bucket):
            for later in bucket[position + 1:]:
                pairs.add((earlier, later))
    return sorted(pairs)


def well_formedness_consequences(clause: Clause) -> List[WellFormednessConsequence]:
    """All pure clauses derivable from a positive spatial clause.

    The input must be a positive spatial clause; the consequences are pure
    clauses sharing the input's ``Gamma``/``Delta`` with the extra equalities
    mandated by each rule of the owning theory.
    """
    if not clause.is_positive_spatial:
        raise ValueError("well-formedness rules apply to positive spatial clauses only")
    return theory_of(clause).well_formedness_consequences(clause)
