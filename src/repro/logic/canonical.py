"""Canonical forms of entailments up to alpha-equivalence.

Two entailments that differ only in the names of their program variables (and
in the order of their pure or spatial conjuncts) are the *same* proving
problem: validity, proofs and counterexamples all transport along the
renaming.  The batch layer exploits this by memoising verdicts under a
canonical form, so it needs a fingerprint with two properties:

* **invariance** — renaming the variables (any bijection fixing ``nil``) or
  permuting conjuncts must not change the fingerprint;
* **completeness** — two entailments with the same fingerprint must actually
  be renamings of each other, otherwise a cache hit could return a wrong
  verdict.

Both are obtained by computing a canonical *labelling*: a deterministic total
order on the entailment's constants that depends only on the structure around
them, never on their names.  The entailment re-expressed in terms of the
positions in that order (:func:`CanonicalForm.key`) is then a complete
invariant — equal keys literally describe the same renamed entailment.

The labelling uses the standard colour-refinement / individualisation scheme
from graph canonicalisation:

1. view constants as nodes and atom occurrences as labelled (multi-)edges —
   ``x != y`` on the left-hand side links ``x`` and ``y`` with the label
   ``("pure", "lhs", "neq")``, ``lseg(x, y)`` on the right links them with
   ``("spatial", "rhs", "lseg")`` plus a source/target role, and so on;
2. start from the trivial colouring (``nil`` alone in its own class — it is
   never renamed) and refine: a constant's new colour is its old colour plus
   the multiset of (edge label, neighbour colour) pairs over its occurrences.
   Refinement is isomorphism-invariant, so renamings get the same colours;
3. if refinement leaves ties (a colour class with several constants), branch:
   individualise each member of the first tied class in turn, re-refine and
   recurse.  Every leaf of this search tree is a discrete colouring, hence an
   encoding, and the key is the lexicographically smallest encoding over
   *all* leaves — a choice independent of the input names;
4. prune the tree with the automorphisms it discovers (McKay & Piperno,
   *Practical graph isomorphism II*, 2014).  Two leaves with equal encodings
   yield an automorphism: map each constant to the constant at the same
   position in the other leaf.  It maps one leaf's path onto the other's, so
   it fixes their common prefix and carries the whole subtree we are in onto
   an already explored sibling subtree — the search abandons it and resumes
   at the node where the two paths part.  And at a node whose individualised
   path is ``P``, a tied candidate in the same orbit as an explored sibling
   (orbits of the automorphisms found so far that fix ``P`` pointwise) is
   skipped outright.  Either way the skipped subtree is the image of an
   explored one under an automorphism, so it holds exactly the same leaf
   encodings and the minimum — the key — is unchanged.

Entailments in this fragment are small (tens of constants).  Asymmetric ones
refine to a single leaf; symmetric ones such as the Table 3 clones (``k``
disjoint copies of one verification condition) cost a number of refinement
passes roughly quadratic in ``k`` instead of factorial (``n`` disjoint list
segments take ``n * (n + 1)`` passes).  A refinement budget still
bounds the worst case: inputs that exhaust it opt out of caching via
:class:`TooSymmetricError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.logic.formula import Entailment
from repro.logic.terms import Const, make_const

__all__ = [
    "CanonicalForm",
    "TooSymmetricError",
    "canonicalize",
    "fingerprint",
    "canonical_entailment",
]

#: Version tag embedded in every fingerprint so that persisted keys from an
#: older encoding can never alias keys of a newer one.
_KEY_VERSION = "slp-canon-1"

#: Prefix of the canonical variable names ``c1, c2, ...``.
_CANONICAL_PREFIX = "c"

#: Default ceiling on colour-refinement passes across all branches of the
#: individualisation search.  Generous: a non-degenerate entailment needs a
#: handful of passes in total.
_DEFAULT_BUDGET = 2000


class TooSymmetricError(RuntimeError):
    """The individualisation search exceeded its refinement budget.

    Only large, highly symmetric entailments trigger this (fifty disjoint
    list segments exceed the default budget); callers treat such inputs as
    uncacheable rather than spending unbounded time on them.
    """


#: An edge label: (group, side, kind, role).  All four components are strings
#: so that labels — and everything built from them — sort without mixed-type
#: comparisons.
_Label = Tuple[str, str, str, str]

#: One occurrence of a constant: the edge label plus the constant at the
#: other end of the atom (the constant itself for degenerate ``x = x`` /
#: ``lseg(x, x)`` atoms, which refinement handles naturally).
_Occurrence = Tuple[_Label, Const]


def _occurrence_table(entailment: Entailment) -> Dict[Const, List[_Occurrence]]:
    """Every constant's atom occurrences, as labelled edges to its neighbours."""
    table: Dict[Const, List[_Occurrence]] = {c: [] for c in entailment.constants()}
    for side, literals in (("lhs", entailment.lhs_pure), ("rhs", entailment.rhs_pure)):
        for literal in literals:
            kind = "eq" if literal.positive else "neq"
            left, right = literal.atom.left, literal.atom.right
            table[left].append((("pure", side, kind, "end"), right))
            table[right].append((("pure", side, kind, "end"), left))
    for side, sigma in (("lhs", entailment.lhs_spatial), ("rhs", entailment.rhs_spatial)):
        for atom in sigma:
            roles = atom.argument_roles()
            if len(roles) == 2:
                # Binary atoms keep the original single-neighbour labels so
                # that singly-linked fingerprints are unchanged.
                (role_a, const_a), (role_b, const_b) = roles
                table[const_a].append((("spatial", side, atom.kind, role_a), const_b))
                table[const_b].append((("spatial", side, atom.kind, role_b), const_a))
                continue
            # Wider atoms: connect every argument to every other argument,
            # labelling the edge with the ordered role pair so refinement sees
            # the full incidence structure of the atom.
            for i, (role_i, const_i) in enumerate(roles):
                for j, (role_j, const_j) in enumerate(roles):
                    if i != j:
                        table[const_i].append(
                            (
                                ("spatial", side, atom.kind, "{}>{}".format(role_i, role_j)),
                                const_j,
                            )
                        )
    return table


class _Refiner:
    """Colour refinement with a shared pass budget across the whole search."""

    def __init__(self, occurrences: Dict[Const, List[_Occurrence]], budget: int):
        self.occurrences = occurrences
        self.budget = budget

    def refine(self, colours: Dict[Const, int]) -> Dict[Const, int]:
        """Refine ``colours`` to a fixpoint, renumbering classes canonically."""
        while True:
            if self.budget <= 0:
                raise TooSymmetricError(
                    "canonicalisation exceeded its refinement budget; "
                    "the entailment is too symmetric to fingerprint cheaply"
                )
            self.budget -= 1
            signatures = {
                constant: (
                    colour,
                    tuple(
                        sorted(
                            (label, colours[other])
                            for label, other in self.occurrences[constant]
                        )
                    ),
                )
                for constant, colour in colours.items()
            }
            # Renumber by sorted signature: the ids depend only on structure,
            # so isomorphic inputs are renumbered identically.
            numbering = {
                signature: index
                for index, signature in enumerate(sorted(set(signatures.values())))
            }
            refined = {c: numbering[signatures[c]] for c in colours}
            if len(numbering) == len(set(colours.values())):
                return refined
            colours = refined


def _cells(colours: Dict[Const, int]) -> List[List[Const]]:
    """The colour classes, ordered by colour id (members in arbitrary order)."""
    grouped: Dict[int, List[Const]] = {}
    for constant, colour in colours.items():
        grouped.setdefault(colour, []).append(constant)
    return [grouped[colour] for colour in sorted(grouped)]


_Key = Tuple


def _encode(entailment: Entailment, index: Mapping[Const, int]) -> _Key:
    """The entailment re-expressed through constant positions, conjuncts sorted.

    This *is* the fingerprint: equal encodings mean the two entailments
    become literally identical once their constants are numbered by ``index``.
    """

    def pure(literals) -> Tuple:
        encoded = []
        for literal in literals:
            i, j = index[literal.atom.left], index[literal.atom.right]
            encoded.append((int(literal.positive), min(i, j), max(i, j)))
        return tuple(sorted(encoded))

    def spatial(sigma) -> Tuple:
        return tuple(
            sorted(
                (atom.kind,) + tuple(index[constant] for _, constant in atom.argument_roles())
                for atom in sigma
            )
        )

    return (
        _KEY_VERSION,
        len(index),
        pure(entailment.lhs_pure),
        spatial(entailment.lhs_spatial),
        pure(entailment.rhs_pure),
        spatial(entailment.rhs_spatial),
    )


#: A path through the search tree: the constants individualised so far.
_Path = Tuple[Const, ...]


def _find(parent: Dict[Const, Const], constant: Const) -> Const:
    """Union-find root of ``constant`` (absent constants are their own root)."""
    while constant in parent:
        constant = parent[constant]
    return constant


class _PrunedSearch:
    """Individualisation-refinement pruned by the automorphisms it discovers.

    ``automorphisms`` holds every non-trivial automorphism found so far, each
    stored sparsely as its moved points.  ``leaves`` remembers, per distinct
    leaf key, the first leaf that produced it.
    """

    def __init__(self, entailment: Entailment, refiner: _Refiner):
        self.entailment = entailment
        self.refiner = refiner
        self.best: Optional[Tuple[_Key, Dict[Const, int]]] = None
        self.leaves: Dict[_Key, Tuple[_Path, Dict[int, Const]]] = {}
        self.automorphisms: List[Dict[Const, Const]] = []

    def visit(self, colours: Dict[Const, int], path: _Path) -> Optional[int]:
        """Explore the subtree below ``path``.

        Returns ``None`` when the subtree is done, or the depth of the
        ancestor the search should resume at: every node deeper than that is
        abandoned because an automorphism maps it onto explored ground.
        """
        colours = self.refiner.refine(colours)
        tied = next((cell for cell in _cells(colours) if len(cell) > 1), None)
        if tied is None:
            return self._leaf(colours, path)
        fresh = len(colours)  # strictly above every existing colour id
        parent: Dict[Const, Const] = {}
        absorbed = 0
        explored: List[Const] = []
        for candidate in tied:
            # Union the orbits of every automorphism found since the last
            # candidate that fixes this node's path pointwise.
            for gamma in self.automorphisms[absorbed:]:
                if all(gamma.get(p, p) == p for p in path):
                    for moved, image in gamma.items():
                        root_a, root_b = _find(parent, moved), _find(parent, image)
                        if root_a != root_b:
                            parent[root_a] = root_b
            absorbed = len(self.automorphisms)
            root = _find(parent, candidate)
            if any(_find(parent, sibling) == root for sibling in explored):
                continue
            explored.append(candidate)
            branched = dict(colours)
            branched[candidate] = fresh
            resume = self.visit(branched, path + (candidate,))
            if resume is not None and resume < len(path):
                return resume
        return None

    def _leaf(self, colours: Dict[Const, int], path: _Path) -> Optional[int]:
        # Discrete colouring: the colours induce a total order.  nil is pinned
        # to position 0 — it can never be renamed, so the key must record
        # which node it is — and the variables take 1..n in colour order.
        ordered = sorted(colours, key=lambda c: (0 if c.is_nil else 1, colours[c]))
        index = {constant: position for position, constant in enumerate(ordered)}
        if not any(c.is_nil for c in colours):
            # No nil anywhere: shift positions up so 0 still unambiguously
            # means "nil" across the whole key space.
            index = {constant: position + 1 for constant, position in index.items()}
        key = _encode(self.entailment, index)
        earlier = self.leaves.get(key)
        if earlier is None:
            self.leaves[key] = (path, {position: c for c, position in index.items()})
            if self.best is None or key < self.best[0]:
                self.best = (key, index)
            return None
        # Equal keys: mapping each constant to the one at the same position
        # in the earlier leaf is an automorphism, and it maps this leaf's path
        # onto the earlier one's.  So it fixes their common prefix and maps
        # the child we are in onto an explored sibling: the rest of that
        # child's subtree repeats keys already seen.
        earlier_path, earlier_at = earlier
        gamma = {c: earlier_at[position] for c, position in index.items()}
        self.automorphisms.append({c: image for c, image in gamma.items() if c != image})
        return next(
            depth for depth, (a, b) in enumerate(zip(path, earlier_path)) if a != b
        )


def _search(
    entailment: Entailment,
    refiner: _Refiner,
    colours: Dict[Const, int],
) -> Tuple[_Key, Dict[Const, int]]:
    """Individualisation-refinement: the minimal encoding over all leaves."""
    search = _PrunedSearch(entailment, refiner)
    search.visit(colours, ())
    assert search.best is not None
    return search.best


@dataclass(frozen=True)
class CanonicalForm:
    """An entailment's canonical fingerprint plus the renaming that realises it.

    Attributes
    ----------
    key:
        The hashable fingerprint.  ``a.key == b.key`` holds exactly when the
        two entailments are alpha-equivalent (same problem up to renaming of
        non-``nil`` constants and reordering of conjuncts).
    renaming:
        Bijection from the entailment's constants to the canonical names
        ``c1, c2, ...`` (``nil`` maps to itself).  Applying it with
        :meth:`Entailment.rename` yields the canonical representative shared
        by the whole alpha-equivalence class.
    inverse:
        The inverse bijection, used to map cached proofs and counterexamples
        back into the entailment's own vocabulary.
    """

    key: _Key
    renaming: Mapping[Const, Const]
    inverse: Mapping[Const, Const]


def canonicalize(entailment: Entailment, budget: int = _DEFAULT_BUDGET) -> CanonicalForm:
    """Compute the canonical form of ``entailment``.

    Raises :class:`TooSymmetricError` for pathologically symmetric inputs
    (callers should treat those as uncacheable).
    """
    occurrences = _occurrence_table(entailment)
    # nil is pinned: it can never be renamed, so it starts in its own class.
    colours = {c: (0 if c.is_nil else 1) for c in occurrences}
    if not colours:
        return CanonicalForm(key=_encode(entailment, {}), renaming={}, inverse={})
    refiner = _Refiner(occurrences, budget)
    key, index = _search(entailment, refiner, colours)
    # Positions -> canonical names.  nil keeps its name; the remaining
    # constants are numbered c1..cn by their canonical position.
    ordered = sorted(
        (c for c in index if not c.is_nil), key=lambda constant: index[constant]
    )
    renaming: Dict[Const, Const] = {}
    inverse: Dict[Const, Const] = {}
    for position, constant in enumerate(ordered, start=1):
        canonical = make_const("{}{}".format(_CANONICAL_PREFIX, position))
        renaming[constant] = canonical
        inverse[canonical] = constant
    return CanonicalForm(key=key, renaming=renaming, inverse=inverse)


def fingerprint(entailment: Entailment, budget: int = _DEFAULT_BUDGET) -> _Key:
    """The alpha-invariant fingerprint alone (see :class:`CanonicalForm`)."""
    return canonicalize(entailment, budget=budget).key


def canonical_entailment(
    entailment: Entailment, budget: int = _DEFAULT_BUDGET
) -> Entailment:
    """The canonical representative of the entailment's alpha-equivalence class.

    Alpha-equivalent entailments map to *equal* representatives: the renaming
    is the canonical one and the pure conjuncts are sorted (spatial formulas
    are already kept in canonical order by :class:`SpatialFormula`).
    """
    renamed = entailment.rename(dict(canonicalize(entailment, budget=budget).renaming))

    def literal_key(literal):
        return (literal.positive, literal.atom.sort_key)

    return Entailment(
        tuple(sorted(renamed.lhs_pure, key=literal_key)),
        renamed.lhs_spatial,
        tuple(sorted(renamed.rhs_pure, key=literal_key)),
        renamed.rhs_spatial,
    )
