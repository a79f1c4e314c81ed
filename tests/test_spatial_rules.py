"""Unit tests for the spatial inference rules (normalisation, well-formedness, unfolding)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.logic.atoms import DllCell, DllSegment, EqAtom, ListSegment, PointsTo, SpatialFormula
from repro.logic.clauses import Clause
from repro.logic.formula import dcell, dlseg, lseg, pts
from repro.logic.ordering import default_order
from repro.logic.terms import Const, NIL, make_const, make_consts
from repro.spatial.graph import GraphConflictError, graph_edges, spatial_graph
from repro.spatial.normalization import normalize_clause
from repro.spatial.unfolding import unfold
from repro.spatial.wellformedness import (
    colliding_pairs,
    consequence_emitter,
    well_formedness_consequences,
)
from repro.superposition.model import generate_model
from repro.superposition.saturation import SaturationEngine


def model_from_pure(clauses, constants="a b c d e"):
    order = default_order(make_consts(constants))
    engine = SaturationEngine(order)
    engine.add_clauses(clauses)
    result = engine.saturate()
    assert not result.refuted
    return generate_model(engine.known_pure_clauses(), order)


class TestGraph:
    def test_graph_of_well_formed_formula(self):
        sigma = SpatialFormula([pts("a", "b"), lseg("b", "c")])
        graph = spatial_graph(sigma)
        assert graph == {Const("a"): Const("b"), Const("b"): Const("c")}
        assert graph_edges(sigma) == ((Const("a"), Const("b")), (Const("b"), Const("c")))

    def test_trivial_atoms_contribute_nothing(self):
        sigma = SpatialFormula([lseg("a", "a"), pts("b", "c")])
        assert spatial_graph(sigma) == {Const("b"): Const("c")}

    def test_conflicts_raise_in_strict_mode(self):
        with pytest.raises(GraphConflictError):
            spatial_graph(SpatialFormula([pts("a", "b"), lseg("a", "c")]))
        with pytest.raises(GraphConflictError):
            spatial_graph(SpatialFormula([pts("nil", "b")]))
        # Non-strict mode keeps one edge per address instead.
        assert len(spatial_graph(SpatialFormula([pts("a", "b"), lseg("a", "c")]), strict=False)) == 1


class TestNormalization:
    def test_paper_normalisation_step(self):
        # With the model generated from { c != e, a=b \/ a=c }, the input heap
        # of the running example normalises by rewriting c to a and dropping
        # the trivial segment, leaving the reminder literal a = b behind.
        model = model_from_pure(
            [
                Clause.pure(gamma=[EqAtom("c", "e")]),
                Clause.pure(delta=[EqAtom("a", "b"), EqAtom("a", "c")]),
            ]
        )
        sigma = SpatialFormula([lseg("a", "b"), lseg("a", "c"), pts("c", "d"), lseg("d", "e")])
        clause = Clause.positive_spatial(sigma)
        normalized, steps = normalize_clause(clause, model)
        assert normalized.spatial == SpatialFormula([lseg("a", "b"), pts("a", "d"), lseg("d", "e")])
        assert EqAtom("a", "b") in normalized.delta
        rules = [step.rule for step in steps]
        assert "N1" in rules and "N2" in rules

    def test_negative_clause_uses_n3_n4(self):
        model = model_from_pure([Clause.pure(delta=[EqAtom("a", "b")])])
        clause = Clause.negative_spatial(SpatialFormula([lseg("b", "c"), lseg("c", "b")]))
        normalized, steps = normalize_clause(clause, model)
        assert normalized.spatial == SpatialFormula([lseg("a", "c"), lseg("c", "a")])
        assert all(step.rule in ("N3", "N4") for step in steps)

    def test_pure_clause_unchanged(self):
        model = model_from_pure([Clause.pure(delta=[EqAtom("a", "b")])])
        clause = Clause.pure(delta=[EqAtom("a", "b")])
        assert normalize_clause(clause, model) == (clause, [])

    def test_already_normal_formula_has_no_steps(self):
        model = model_from_pure([Clause.pure(gamma=[EqAtom("a", "b")])])
        clause = Clause.positive_spatial(SpatialFormula([pts("a", "b")]))
        normalized, steps = normalize_clause(clause, model)
        assert normalized == clause and steps == []


class TestWellFormedness:
    def check(self, atoms, expected_rules):
        clause = Clause.positive_spatial(SpatialFormula(atoms))
        consequences = well_formedness_consequences(clause)
        assert sorted(c.rule for c in consequences) == sorted(expected_rules)
        return consequences

    def test_w1_nil_cell(self):
        (consequence,) = self.check([pts("nil", "y")], ["W1"])
        assert consequence.conclusion == Clause.pure()

    def test_w2_nil_segment(self):
        (consequence,) = self.check([lseg("nil", "y")], ["W2"])
        assert EqAtom("y", NIL) in consequence.conclusion.delta

    def test_w3_two_cells(self):
        (consequence,) = self.check([pts("x", "y"), pts("x", "z")], ["W3"])
        assert consequence.conclusion == Clause.pure()

    def test_w4_cell_and_segment(self):
        (consequence,) = self.check([pts("x", "y"), lseg("x", "z")], ["W4"])
        assert EqAtom("x", "z") in consequence.conclusion.delta

    def test_w5_two_segments(self):
        (consequence,) = self.check([lseg("x", "y"), lseg("x", "z")], ["W5"])
        assert {EqAtom("x", "y"), EqAtom("x", "z")} <= consequence.conclusion.delta

    def test_well_formed_formula_has_no_consequences(self):
        self.check([pts("x", "y"), lseg("y", "z")], [])

    def test_gamma_delta_are_propagated(self):
        clause = Clause.positive_spatial(
            SpatialFormula([pts("x", "y"), lseg("x", "z")]),
            gamma=[EqAtom("u", "v")],
            delta=[EqAtom("p", "q")],
        )
        (consequence,) = well_formedness_consequences(clause)
        assert EqAtom("u", "v") in consequence.conclusion.gamma
        assert EqAtom("p", "q") in consequence.conclusion.delta

    def test_requires_positive_spatial_clause(self):
        with pytest.raises(ValueError):
            well_formedness_consequences(Clause.pure())


# ---------------------------------------------------------------------------
# All-pairs oracles: the quadratic W1-W5 / D1-D4 scans that visit every pair
# of atoms.  The theories visit only the pairs ``colliding_pairs`` reports,
# and must emit exactly what these scans emit, in the same order.
# ---------------------------------------------------------------------------


def all_pairs_sll(clause):
    consequences = []
    emit = consequence_emitter(clause, consequences)
    atoms = list(clause.spatial)
    for atom in atoms:
        if not atom.address.is_nil:
            continue
        if isinstance(atom, PointsTo):
            emit("W1", (), (atom,))
        elif isinstance(atom, ListSegment) and not atom.is_trivial:
            emit("W2", (EqAtom(atom.target, NIL),), (atom,))
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            first, second = atoms[i], atoms[j]
            if first.address != second.address or first.address.is_nil:
                continue
            first_is_next = isinstance(first, PointsTo)
            second_is_next = isinstance(second, PointsTo)
            if first_is_next and second_is_next:
                emit("W3", (), (first, second))
            elif first_is_next:
                emit("W4", (EqAtom(second.source, second.target),), (first, second))
            elif second_is_next:
                emit("W4", (EqAtom(first.source, first.target),), (second, first))
            else:
                emit(
                    "W5",
                    (EqAtom(first.source, first.target), EqAtom(second.source, second.target)),
                    (first, second),
                )
    return consequences


def all_pairs_dll(clause):
    consequences = []
    emit = consequence_emitter(clause, consequences)
    atoms = list(clause.spatial)
    for atom in atoms:
        if isinstance(atom, DllCell):
            if atom.address.is_nil:
                emit("W1", (), (atom,))
            continue
        if atom.is_trivial:
            continue
        if atom.source == atom.target:
            emit("D1", (EqAtom(atom.prev, atom.back),), (atom,))
            continue
        emptiness = EqAtom(atom.source, atom.target)
        if atom.address.is_nil:
            emit("W2", (emptiness,), (atom,))
        if atom.back.is_nil:
            emit("D2", (emptiness,), (atom,))
        if atom.back == atom.target:
            emit("D3", (emptiness,), (atom,))

    def anchors(atom):
        if isinstance(atom, DllCell):
            return [(atom.source, None, "head")]
        if atom.is_trivial or atom.source == atom.target:
            return []
        emptiness = EqAtom(atom.source, atom.target)
        result = [(atom.source, emptiness, "head")]
        if atom.back != atom.source:
            result.append((atom.back, emptiness, "back"))
        return result

    anchor_lists = [anchors(atom) for atom in atoms]
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            for loc_i, escape_i, role_i in anchor_lists[i]:
                for loc_j, escape_j, role_j in anchor_lists[j]:
                    if loc_i != loc_j or loc_i.is_nil:
                        continue
                    if role_i == "head" and role_j == "head":
                        if escape_i is None and escape_j is None:
                            rule = "W3"
                        elif escape_i is None or escape_j is None:
                            rule = "W4"
                        else:
                            rule = "W5"
                    else:
                        rule = "D4"
                    extra = tuple(
                        dict.fromkeys(e for e in (escape_i, escape_j) if e is not None)
                    )
                    emit(rule, extra, (atoms[i], atoms[j]))
    return consequences


# A small pool with nil makes shared addresses, nil anchors, trivial segments
# and colliding dll back anchors common.
POOL = st.sampled_from([NIL] + [make_const(name) for name in ("a", "b", "c", "d")])
sll_atoms = st.builds(
    lambda is_cell, source, target: (PointsTo if is_cell else ListSegment)(source, target),
    st.booleans(),
    POOL,
    POOL,
)
dll_atoms = st.one_of(
    st.builds(DllCell, POOL, POOL, POOL),
    st.builds(DllSegment, POOL, POOL, POOL, POOL),
)
ORACLE = settings(max_examples=300, deadline=None)


A, B = make_consts("a b")


class TestCollidingPairs:
    @ORACLE
    @given(st.lists(st.lists(POOL, max_size=3), max_size=8))
    # Buckets a = {0, 2, 3} and b = {1, 4}: (1, 4) sorts between them.
    @example([[A], [B], [A], [A], [B]])
    # One pair sharing two locations, and nil shared but never a collision.
    @example([[A, B], [B, A], [NIL], [NIL]])
    def test_matches_brute_force(self, anchors):
        expected = [
            (i, j)
            for i in range(len(anchors))
            for j in range(i + 1, len(anchors))
            if {loc for loc in anchors[i] if not loc.is_nil}
            & {loc for loc in anchors[j] if not loc.is_nil}
        ]
        assert colliding_pairs(anchors) == expected


class TestWellFormednessOracle:
    @ORACLE
    @given(st.lists(sll_atoms, min_size=1, max_size=8))
    def test_sll_matches_all_pairs_scan(self, atoms):
        clause = Clause.positive_spatial(SpatialFormula(atoms))
        assert well_formedness_consequences(clause) == all_pairs_sll(clause)

    @ORACLE
    @given(st.lists(dll_atoms, min_size=1, max_size=8))
    def test_dll_matches_all_pairs_scan(self, atoms):
        clause = Clause.positive_spatial(SpatialFormula(atoms))
        assert well_formedness_consequences(clause) == all_pairs_dll(clause)

    def test_three_sll_atoms_at_one_address(self):
        sigma = SpatialFormula([pts("x", "a"), lseg("x", "b"), lseg("x", "c")])
        consequences = well_formedness_consequences(Clause.positive_spatial(sigma))
        assert [(c.rule, c.offending) for c in consequences] == [
            ("W4", (pts("x", "a"), lseg("x", "b"))),
            ("W4", (pts("x", "a"), lseg("x", "c"))),
            ("W5", (lseg("x", "b"), lseg("x", "c"))),
        ]
        assert [c.conclusion.delta for c in consequences] == [
            frozenset({EqAtom("x", "b")}),
            frozenset({EqAtom("x", "c")}),
            frozenset({EqAtom("x", "b"), EqAtom("x", "c")}),
        ]

    def test_dll_segment_colliding_at_head_and_back(self):
        # The middle segment's head x is another segment's back and a cell's
        # address; its back q is the first segment's head.
        segment = dlseg("x", "p", "y", "q")
        sigma = SpatialFormula([segment, dcell("x", "a", "b"), dlseg("q", "r", "z", "x")])
        consequences = well_formedness_consequences(Clause.positive_spatial(sigma))
        assert [(c.rule, c.offending) for c in consequences] == [
            ("D4", (dlseg("q", "r", "z", "x"), dcell("x", "a", "b"))),
            ("D4", (dlseg("q", "r", "z", "x"), segment)),
            ("D4", (dlseg("q", "r", "z", "x"), segment)),
            ("W4", (dcell("x", "a", "b"), segment)),
        ]
        both = frozenset({EqAtom("q", "z"), EqAtom("x", "y")})
        assert [c.conclusion.delta for c in consequences] == [
            frozenset({EqAtom("q", "z")}),
            both,
            both,
            frozenset({EqAtom("x", "y")}),
        ]


class TestWellFormednessIsLinear:
    """The scan compares constants a bounded number of times per atom.

    A count of ``Const.__eq__`` calls, not a timing: the all-pairs scan made
    about n^2 / 2 of them on these chains.
    """

    N = 1000

    def count_equalities(self, monkeypatch, atoms):
        clause = Clause.positive_spatial(SpatialFormula(atoms))
        calls = [0]
        original = Const.__eq__

        def counting(self, other):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(Const, "__eq__", counting)
        consequences = well_formedness_consequences(clause)
        monkeypatch.undo()
        assert consequences == []
        return calls[0]

    def test_sll_chain(self, monkeypatch):
        names = ["v{}".format(k) for k in range(self.N + 1)]
        atoms = [pts(names[k], names[k + 1]) for k in range(self.N)]
        assert self.count_equalities(monkeypatch, atoms) <= 4 * self.N

    def test_dll_chain(self, monkeypatch):
        # Alternating cells and two-cell segments: every segment has a back
        # anchor distinct from its head.
        names = ["v{}".format(k) for k in range(3 * self.N // 2 + 2)]
        atoms = []
        position = 0
        while len(atoms) < self.N:
            if len(atoms) % 2:
                atoms.append(dcell(names[position], names[position + 1], names[position - 1]))
                position += 1
            else:
                prev = names[position - 1] if position else NIL
                atoms.append(
                    dlseg(names[position], prev, names[position + 2], names[position + 1])
                )
                position += 2
        assert self.count_equalities(monkeypatch, atoms) <= 8 * self.N


class TestUnfolding:
    def test_exact_match_resolves_immediately(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert outcome.derived_pure == Clause.pure()
        assert [step.rule for step in outcome.steps] == ["SR"]

    def test_u1_final_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "y")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U1" in [step.rule for step in outcome.steps]
        assert EqAtom("x", "y") in outcome.derived_pure.delta

    def test_u2_peels_a_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y"), lseg("y", "z")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U2" in [step.rule for step in outcome.steps]
        assert EqAtom("x", "z") in outcome.derived_pure.delta

    def test_u3_segment_to_nil(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), lseg("y", "nil")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "nil")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U3" in [step.rule for step in outcome.steps]
        # U3 adds no side condition, so the derived pure clause is empty.
        assert outcome.derived_pure == Clause.pure()

    def test_u4_anchor_is_a_cell(self):
        positive = Clause.positive_spatial(
            SpatialFormula([lseg("x", "y"), lseg("y", "z"), pts("z", "w")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), pts("z", "w")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U4" in [step.rule for step in outcome.steps]

    def test_u5_anchor_is_a_segment(self):
        positive = Clause.positive_spatial(
            SpatialFormula([lseg("x", "y"), lseg("y", "z"), lseg("z", "w")])
        )
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), lseg("z", "w")]))
        outcome = unfold(positive, negative)
        assert outcome.success
        assert "U5" in [step.rule for step in outcome.steps]
        assert EqAtom("z", "w") in outcome.derived_pure.delta

    def test_next_expects_cell_failure(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "next_expects_cell"
        assert outcome.failure_edge == (Const("x"), Const("y"))

    def test_dangling_segment_failure(self):
        # The demanded segment must stop at z, which the left-hand side never
        # allocates: the rewriting cannot use U3/U4/U5 and reports the
        # re-routable edge.
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), pts("y", "z")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "dangling_segment"
        assert outcome.failure_edge == (Const("x"), Const("y"))
        assert outcome.failure_target == Const("z")

    def test_mismatch_on_path_that_never_arrives(self):
        positive = Clause.positive_spatial(SpatialFormula([lseg("x", "y"), lseg("y", "w")]))
        negative = Clause.negative_spatial(SpatialFormula([lseg("x", "z"), lseg("z", "w")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_mismatch_on_uncovered_cells(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y"), pts("z", "w")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_mismatch_on_missing_cell(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("z", "w"), pts("x", "y")]))
        outcome = unfold(positive, negative)
        assert not outcome.success
        assert outcome.failure_kind == "mismatch"

    def test_pure_sides_are_combined_by_sr(self):
        positive = Clause.positive_spatial(
            SpatialFormula([pts("x", "y")]), gamma=[EqAtom("g", "h")], delta=[EqAtom("p", "q")]
        )
        negative = Clause.negative_spatial(
            SpatialFormula([pts("x", "y")]), gamma=[EqAtom("m", "n")], delta=[EqAtom("r", "s")]
        )
        outcome = unfold(positive, negative)
        assert outcome.success
        derived = outcome.derived_pure
        assert derived.gamma == frozenset({EqAtom("g", "h"), EqAtom("m", "n")})
        assert derived.delta == frozenset({EqAtom("p", "q"), EqAtom("r", "s")})

    def test_requires_correct_clause_shapes(self):
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        negative = Clause.negative_spatial(SpatialFormula([pts("x", "y")]))
        with pytest.raises(ValueError):
            unfold(negative, negative)
        with pytest.raises(ValueError):
            unfold(positive, positive)
