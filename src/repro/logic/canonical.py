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

Everything after parsing runs on small ints (:class:`_Graph`).  The
occurrence table is built once per entailment: constant ``p`` is node ``p``
(in the iteration order of :meth:`Entailment.constants`), each edge label
becomes its rank in sorted label order, and an occurrence is the single int
``rank * width + colour`` with ``width`` above every colour in use, which
sorts exactly like the ``(label, colour)`` pair it stands for.  A
refinement pass therefore sorts lists of ints instead of tuples of
four-string labels, and a constant alone in its colour class is not
re-signed at all: its signature leads with its own colour, which already
orders it against every other class.  The colourings, the number of passes,
the keys and the renamings are those of the string formulation
(``tests/test_canonical.py`` keeps it as the oracle), so fingerprints stored
by earlier versions stay valid under the same ``_KEY_VERSION``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.logic.formula import Entailment
from repro.logic.terms import NIL, Const, make_const

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
#: so that labels sort without mixed-type comparisons; only their order
#: matters, through each label's rank.
_Label = Tuple[str, str, str, str]


class _Graph:
    """An entailment as an integer-coded, edge-labelled multigraph.

    Built once per entailment; every later step works on small ints.

    ``constants`` fixes the node numbering: constant ``constants[p]`` is
    node ``p``, in the iteration order of :meth:`Entailment.constants`.
    ``occurrences[p]`` lists node ``p``'s atom occurrences as
    ``(base, other)`` pairs whose value under a colouring is the single int
    ``base + colour[other]``.  An edge with label rank ``r`` (the label's
    position in sorted label order) has ``base = r * width``, where
    ``width = n + 1`` exceeds every colour a colouring of ``n`` nodes uses
    (``0..n``), so these values sort exactly like ``(label, colour)`` pairs.
    Each list also holds the pair ``(-width, p)`` for the node's own colour,
    whose value is negative and so sorts first: a node's sorted values are
    then its whole refinement signature, its own colour followed by the
    multiset of (label, neighbour colour) pairs.

    The remaining fields are the atoms over node numbers, for the leaf
    encoding: pure literals as ``(polarity, left, right)``, spatial atoms as
    ``(kind, arguments)``.
    """

    __slots__ = (
        "constants",
        "nil",
        "occurrences",
        "lhs_pure",
        "lhs_spatial",
        "rhs_pure",
        "rhs_spatial",
    )

    def __init__(self, entailment: Entailment):
        constants: List[Const] = list(entailment.constants())
        # Keyed by name (constants compare by name): str hashes are cached.
        node = {constant.name: p for p, constant in enumerate(constants)}
        # label -> flat (at, other, at, other, ...) node pairs.
        edges: Dict[_Label, List[int]] = {}

        def pure(side: str, literals) -> List[Tuple[int, int, int]]:
            atoms = []
            for literal in literals:
                positive = literal.positive
                label = ("pure", side, "eq" if positive else "neq", "end")
                left, right = node[literal.atom.left.name], node[literal.atom.right.name]
                pairs = edges.get(label)
                if pairs is None:
                    pairs = edges[label] = []
                pairs += (left, right, right, left)
                atoms.append((int(positive), left, right))
            return atoms

        def spatial(side: str, sigma) -> List[Tuple[str, Tuple[int, ...]]]:
            atoms = []
            for atom in sigma:
                kind = atom.kind
                roles = atom.argument_roles()
                arguments = tuple([node[constant.name] for _, constant in roles])
                if len(roles) == 2:
                    # Binary atoms keep the original single-neighbour labels
                    # so that singly-linked fingerprints are unchanged.
                    a, b = arguments
                    labelled = [
                        (("spatial", side, kind, roles[0][0]), a, b),
                        (("spatial", side, kind, roles[1][0]), b, a),
                    ]
                else:
                    # Wider atoms: connect every argument to every other one,
                    # labelling the edge with the ordered role pair so that
                    # refinement sees the full incidence structure.
                    labelled = [
                        (("spatial", side, kind, "{}>{}".format(roles[i][0], roles[j][0])), a, b)
                        for i, a in enumerate(arguments)
                        for j, b in enumerate(arguments)
                        if i != j
                    ]
                for label, a, b in labelled:
                    pairs = edges.get(label)
                    if pairs is None:
                        pairs = edges[label] = []
                    pairs += (a, b)
                atoms.append((kind, arguments))
            return atoms

        self.constants = constants
        self.nil: Optional[int] = node.get(NIL.name)
        self.lhs_pure = pure("lhs", entailment.lhs_pure)
        self.rhs_pure = pure("rhs", entailment.rhs_pure)
        self.lhs_spatial = spatial("lhs", entailment.lhs_spatial)
        self.rhs_spatial = spatial("rhs", entailment.rhs_spatial)
        width = len(constants) + 1
        self.occurrences: List[List[Tuple[int, int]]] = [
            [(-width, p)] for p in range(len(constants))
        ]
        for rank, label in enumerate(sorted(edges)):
            base = rank * width
            pairs = edges[label]
            for i in range(0, len(pairs), 2):
                self.occurrences[pairs[i]].append((base, pairs[i + 1]))

    def initial_colours(self) -> List[int]:
        """nil is pinned (it can never be renamed), so it starts alone in class 0."""
        colours = [1] * len(self.constants)
        if self.nil is not None:
            colours[self.nil] = 0
        return colours


class _Refiner:
    """Colour refinement with a shared pass budget across the whole search."""

    def __init__(self, graph: _Graph, budget: int):
        self.occurrences = graph.occurrences
        self.width = len(graph.constants) + 1
        self.budget = budget

    def refine(self, colours: List[int]) -> List[int]:
        """Refine ``colours`` (node -> class in ``0..n``) to a fixpoint.

        Classes are renumbered canonically to ``0..k-1`` by sorted
        signature: the ids depend only on structure, so isomorphic inputs
        are renumbered identically.
        """
        occurrences = self.occurrences
        width = self.width
        while True:
            if self.budget <= 0:
                raise TooSymmetricError(
                    "canonicalisation exceeded its refinement budget; "
                    "the entailment is too symmetric to fingerprint cheaply"
                )
            self.budget -= 1
            sizes = Counter(colours)
            # Every signature leads with the node's own colour, so a node
            # alone in its class sorts by that colour alone: its neighbours
            # can only matter against a node of the same colour.
            signatures = [
                tuple(sorted([base + colours[other] for base, other in occurrence]))
                if sizes[colour] > 1
                else (colour - width,)
                for occurrence, colour in zip(occurrences, colours)
            ]
            ordered = sorted(set(signatures))
            numbering = dict(zip(ordered, range(len(ordered))))
            refined = list(map(numbering.__getitem__, signatures))
            if len(ordered) == len(sizes):
                return refined
            colours = refined


_Key = Tuple


def _encode(graph: _Graph, index: List[int]) -> _Key:
    """The entailment re-expressed through node positions, conjuncts sorted.

    This *is* the fingerprint: equal encodings mean the two entailments
    become literally identical once their constants are numbered by ``index``
    (node -> position).
    """

    def pure(literals) -> Tuple:
        encoded = []
        for polarity, left, right in literals:
            i, j = index[left], index[right]
            encoded.append((polarity, i, j) if i <= j else (polarity, j, i))
        encoded.sort()
        return tuple(encoded)

    def spatial(atoms) -> Tuple:
        encoded = [(kind, *[index[p] for p in arguments]) for kind, arguments in atoms]
        encoded.sort()
        return tuple(encoded)

    return (
        _KEY_VERSION,
        len(index),
        pure(graph.lhs_pure),
        spatial(graph.lhs_spatial),
        pure(graph.rhs_pure),
        spatial(graph.rhs_spatial),
    )


#: A path through the search tree: the nodes individualised so far.
_Path = Tuple[int, ...]


def _find(parent: Dict[int, int], node: int) -> int:
    """Union-find root of ``node`` (absent nodes are their own root)."""
    while node in parent:
        node = parent[node]
    return node


class _PrunedSearch:
    """Individualisation-refinement pruned by the automorphisms it discovers.

    ``automorphisms`` holds every non-trivial automorphism found so far, each
    stored sparsely as its moved nodes.  ``leaves`` remembers, per distinct
    leaf key, the first leaf that produced it: its path and its inverse
    index (position -> node).
    """

    def __init__(self, graph: _Graph, refiner: _Refiner):
        self.graph = graph
        self.refiner = refiner
        self.best: Optional[Tuple[_Key, List[int]]] = None
        self.leaves: Dict[_Key, Tuple[_Path, Dict[int, int]]] = {}
        self.automorphisms: List[Dict[int, int]] = []

    def visit(self, colours: List[int], path: _Path) -> Optional[int]:
        """Explore the subtree below ``path``.

        Returns ``None`` when the subtree is done, or the depth of the
        ancestor the search should resume at: every node deeper than that is
        abandoned because an automorphism maps it onto explored ground.
        """
        colours = self.refiner.refine(colours)
        fresh = len(colours)  # strictly above every existing colour id
        sizes = [0] * fresh
        for colour in colours:
            sizes[colour] += 1
        tied_colour = next((c for c, size in enumerate(sizes) if size > 1), None)
        if tied_colour is None:
            return self._leaf(colours, path)
        # The first tied cell, members in node order.
        tied = [p for p, colour in enumerate(colours) if colour == tied_colour]
        parent: Dict[int, int] = {}
        absorbed = 0
        explored: List[int] = []
        for candidate in tied:
            # Union the orbits of every automorphism found since the last
            # candidate that fixes this node's path pointwise (automorphisms
            # are stored as their moved nodes).
            for gamma in self.automorphisms[absorbed:]:
                if gamma.keys().isdisjoint(path):
                    for moved, image in gamma.items():
                        root_a, root_b = _find(parent, moved), _find(parent, image)
                        if root_a != root_b:
                            parent[root_a] = root_b
            absorbed = len(self.automorphisms)
            root = _find(parent, candidate)
            if any(_find(parent, sibling) == root for sibling in explored):
                continue
            explored.append(candidate)
            branched = list(colours)
            branched[candidate] = fresh
            resume = self.visit(branched, path + (candidate,))
            if resume is not None and resume < len(path):
                return resume
        return None

    def _leaf(self, colours: List[int], path: _Path) -> Optional[int]:
        # Discrete colouring: the colours 0..n-1 are a total order.  nil
        # keeps colour 0 throughout (it starts alone in the smallest class
        # and every signature leads with the old colour), so with nil present
        # a node's colour is its position: nil is pinned to 0 — it can never
        # be renamed, so the key must record which node it is — and the
        # variables take 1..n-1 in colour order.  Without nil, positions
        # shift up by one so that 0 still unambiguously means "nil" across
        # the whole key space.
        index = colours if self.graph.nil is not None else [c + 1 for c in colours]
        key = _encode(self.graph, index)
        earlier = self.leaves.get(key)
        if earlier is None:
            self.leaves[key] = (path, {position: p for p, position in enumerate(index)})
            if self.best is None or key < self.best[0]:
                self.best = (key, index)
            return None
        # Equal keys: mapping each node to the one at the same position in
        # the earlier leaf is an automorphism, and it maps this leaf's path
        # onto the earlier one's.  So it fixes their common prefix and maps
        # the child we are in onto an explored sibling: the rest of that
        # child's subtree repeats keys already seen.
        earlier_path, earlier_at = earlier
        moved: Dict[int, int] = {}
        for p, position in enumerate(index):
            image = earlier_at[position]
            if image != p:
                moved[p] = image
        self.automorphisms.append(moved)
        return next(
            depth for depth, (a, b) in enumerate(zip(path, earlier_path)) if a != b
        )


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
    graph = _Graph(entailment)
    if not graph.constants:
        return CanonicalForm(key=_encode(graph, []), renaming={}, inverse={})
    search = _PrunedSearch(graph, _Refiner(graph, budget))
    search.visit(graph.initial_colours(), ())
    assert search.best is not None
    key, index = search.best
    # Positions -> canonical names.  nil keeps its name; the remaining
    # constants are numbered c1..cn by their canonical position.
    ordered = sorted(
        (p for p in range(len(index)) if p != graph.nil), key=index.__getitem__
    )
    renaming: Dict[Const, Const] = {}
    inverse: Dict[Const, Const] = {}
    for position, p in enumerate(ordered, start=1):
        constant = graph.constants[p]
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
