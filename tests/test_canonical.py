"""Properties of the entailment canonicaliser (alpha-equivalence fingerprints).

The proof cache is only sound if the fingerprint is a *complete* invariant of
alpha-equivalence: invariant under constant renaming and conjunct reordering
(so equivalent queries hit), and collision-free across genuinely different
problems (so a hit never returns a wrong verdict).  These tests pin both
directions, plus the bookkeeping (the kept renaming is a bijection realising
the canonical representative).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchgen.cloning import clone_entailment
from repro.frontend.examples_suite import generate_suite_vcs
from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.canonical import (
    _DEFAULT_BUDGET,
    TooSymmetricError,
    _cells,
    _encode,
    _occurrence_table,
    _Refiner,
    canonical_entailment,
    canonicalize,
    fingerprint,
)
from repro.logic.formula import Entailment, eq, lseg, neq, pts
from repro.logic.terms import NIL, Const, make_const
from tests.conftest import make_random_entailment

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _alpha_rename(entailment: Entailment, rng: random.Random, prefix: str = "ren"):
    """A random alpha-renaming: a bijection to fresh names, fixing nil."""
    constants = sorted(c for c in entailment.constants() if not c.is_nil)
    shuffled = list(constants)
    rng.shuffle(shuffled)
    return {
        original: make_const("{}_{}".format(prefix, fresh.name))
        for original, fresh in zip(constants, shuffled)
    }


def _shuffle_conjuncts(entailment: Entailment, rng: random.Random) -> Entailment:
    """Permute the pure conjunct tuples (spatial formulas sort themselves)."""
    lhs = list(entailment.lhs_pure)
    rhs = list(entailment.rhs_pure)
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    return Entailment(tuple(lhs), entailment.lhs_spatial, tuple(rhs), entailment.rhs_spatial)


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_fingerprint_invariant_under_renaming_and_reordering(seed):
    rng = random.Random(seed)
    entailment = make_random_entailment(rng, n_vars=5)
    twisted = _shuffle_conjuncts(entailment.rename(_alpha_rename(entailment, rng)), rng)
    assert fingerprint(entailment) == fingerprint(twisted)
    assert canonical_entailment(entailment) == canonical_entailment(twisted)


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_renaming_realises_the_canonical_representative(seed):
    rng = random.Random(seed)
    entailment = make_random_entailment(rng, n_vars=5)
    form = canonicalize(entailment)
    constants = {c for c in entailment.constants() if not c.is_nil}
    # The kept renaming is a bijection over exactly the entailment's variables.
    assert set(form.renaming) == constants
    assert len(set(form.renaming.values())) == len(constants)
    assert {form.inverse[v]: v for v in form.inverse} == dict(form.renaming)
    # Applying it yields the canonical representative (up to conjunct order).
    renamed = entailment.rename(dict(form.renaming))
    canonical = canonical_entailment(entailment)
    assert sorted(map(str, renamed.lhs_pure)) == sorted(map(str, canonical.lhs_pure))
    assert renamed.lhs_spatial == canonical.lhs_spatial
    assert sorted(map(str, renamed.rhs_pure)) == sorted(map(str, canonical.rhs_pure))
    assert renamed.rhs_spatial == canonical.rhs_spatial


@SLOW
@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=0, max_value=2 ** 30))
def test_fingerprint_equality_implies_alpha_equivalence(seed_a, seed_b):
    # Completeness: distinct problems must not collide.  Equal fingerprints
    # must mean equal canonical representatives, i.e. the entailments really
    # are renamings of each other.
    a = make_random_entailment(random.Random(seed_a), n_vars=4)
    b = make_random_entailment(random.Random(seed_b), n_vars=4)
    if fingerprint(a) == fingerprint(b):
        assert canonical_entailment(a) == canonical_entailment(b)
    else:
        assert canonical_entailment(a) != canonical_entailment(b)


def test_nil_is_never_identified_with_a_variable():
    # Regression: the fingerprint must record which node is nil, otherwise
    # `x != nil |- false` (valid? no — satisfiable lhs) and `x != y |- false`
    # would share a cache slot despite not being renamings of each other.
    with_nil = Entailment.build(lhs=[neq("x", "nil")])
    without_nil = Entailment.build(lhs=[neq("x", "y")])
    assert fingerprint(with_nil) != fingerprint(without_nil)


def test_distinguishes_structure_not_names():
    a = Entailment.build(lhs=[pts("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")])
    b = Entailment.build(lhs=[pts("q", "p"), lseg("p", "nil")], rhs=[lseg("q", "nil")])
    c = Entailment.build(lhs=[lseg("x", "y"), lseg("y", "nil")], rhs=[lseg("x", "nil")])
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)


def test_multiplicities_are_preserved():
    once = Entailment.build(lhs=[pts("x", "y")])
    twice = Entailment.build(lhs=[pts("x", "y"), pts("x", "y")])
    assert fingerprint(once) != fingerprint(twice)


def test_polarity_and_side_matter():
    assert fingerprint(Entailment.build(lhs=[eq("x", "y")])) != fingerprint(
        Entailment.build(lhs=[neq("x", "y")])
    )
    assert fingerprint(Entailment.build(lhs=[eq("x", "y")])) != fingerprint(
        Entailment.build(rhs=[eq("x", "y")])
    )


def test_empty_entailment_is_canonicalisable():
    empty = Entailment.build()
    assert fingerprint(empty) == fingerprint(empty)
    assert canonicalize(empty).renaming == {}


def _segments(count: int) -> Entailment:
    """``count`` disjoint, indistinguishable list segments."""
    return Entailment.build(
        lhs=[lseg("a{}".format(i), "b{}".format(i)) for i in range(count)]
    )


def test_pathologically_symmetric_inputs_opt_out():
    # Fifty disjoint, indistinguishable segments: even the automorphism-pruned
    # search needs 50 * 51 refinement passes, past the default budget, so the
    # canonicaliser must give up rather than stall the batch pipeline.
    with pytest.raises(TooSymmetricError):
        fingerprint(_segments(50))
    # Eight segments are cheap under pruning and keyed invariantly.
    eight = _segments(8)
    assert fingerprint(eight) == fingerprint(eight.rename(_alpha_rename(eight, random.Random(8))))
    # Small symmetric inputs stay within budget.
    small = Entailment.build(lhs=[lseg("a0", "b0"), lseg("a1", "b1")])
    rng = random.Random(5)
    renamed = small.rename(_alpha_rename(small, rng))
    assert fingerprint(small) == fingerprint(renamed)


# ---------------------------------------------------------------------------
# The automorphism-pruned search against the exhaustive one
# ---------------------------------------------------------------------------


def _exhaustive_search(
    entailment: Entailment,
    refiner: _Refiner,
    colours: Dict[Const, int],
) -> Tuple[tuple, Dict[Const, int]]:
    """The unpruned individualisation-refinement search, kept as an oracle."""
    colours = refiner.refine(colours)
    cells = _cells(colours)
    tied = next((cell for cell in cells if len(cell) > 1), None)
    if tied is None:
        ordered = sorted(colours, key=lambda c: (0 if c.is_nil else 1, colours[c]))
        index = {constant: position for position, constant in enumerate(ordered)}
        if not any(c.is_nil for c in colours):
            index = {constant: position + 1 for constant, position in index.items()}
        return _encode(entailment, index), index
    fresh = len(colours)
    best: Optional[Tuple[tuple, Dict[Const, int]]] = None
    for candidate in tied:
        branched = dict(colours)
        branched[candidate] = fresh
        outcome = _exhaustive_search(entailment, refiner, branched)
        if best is None or outcome[0] < best[0]:
            best = outcome
    assert best is not None
    return best


def _exhaustive_key(entailment: Entailment, budget: int = _DEFAULT_BUDGET) -> Optional[tuple]:
    """The exhaustive search's key, or ``None`` when it exceeds ``budget``."""
    occurrences = _occurrence_table(entailment)
    colours = {c: (0 if c.is_nil else 1) for c in occurrences}
    if not colours:
        return _encode(entailment, {})
    try:
        return _exhaustive_search(entailment, _Refiner(occurrences, budget), colours)[0]
    except TooSymmetricError:
        return None


def _assert_agrees_with_exhaustive(entailment: Entailment) -> bool:
    """Pruned key == exhaustive key whenever the oracle finishes; True if it did.

    Also checks that the returned renaming realises the key: renaming the
    entailment into ``c1..cn`` and encoding ``ci`` as position ``i`` (``nil``
    as 0) reproduces it.
    """
    form = canonicalize(entailment)
    positions = {canonical: int(canonical.name[1:]) for canonical in form.inverse}
    if any(c.is_nil for c in entailment.constants()):
        positions[NIL] = 0
    assert _encode(entailment.rename(dict(form.renaming)), positions) == form.key
    expected = _exhaustive_key(entailment)
    if expected is None:
        return False
    assert form.key == expected
    return True


@lru_cache(maxsize=None)
def _distinct_suite_vcs() -> Tuple[Entailment, ...]:
    """One suite verification condition per alpha-equivalence class."""
    seen: Dict[tuple, Entailment] = {}
    for condition in generate_suite_vcs():
        seen.setdefault(fingerprint(condition.entailment), condition.entailment)
    return tuple(seen.values())


def _near_symmetric_instances():
    profile = GeneratorProfile.only("near_symmetric")
    return EntailmentGenerator(seed=1, profile=profile).entailments(60)


@SLOW
@given(
    st.integers(min_value=0, max_value=2 ** 30),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_pruned_key_equals_exhaustive_key_on_random_entailments(seed, n_vars, copies):
    # Cloning a random entailment plants automorphisms for the pruning to
    # find; small variable pools add symmetric structure inside each copy.
    entailment = make_random_entailment(random.Random(seed), n_vars=n_vars)
    _assert_agrees_with_exhaustive(clone_entailment(entailment, copies))


@pytest.mark.parametrize("copies", [2, 3, 4])
def test_pruned_key_equals_exhaustive_key_on_cloned_suite_vcs(copies):
    compared = sum(
        _assert_agrees_with_exhaustive(clone_entailment(entailment, copies))
        for entailment in _distinct_suite_vcs()
    )
    # The oracle finishes on most clones; k=4 is where it starts to run out.
    assert compared >= len(_distinct_suite_vcs()) // 2


def test_pruned_key_equals_exhaustive_key_on_the_near_symmetric_family():
    compared = sum(
        _assert_agrees_with_exhaustive(entailment) for entailment in _near_symmetric_instances()
    )
    assert compared >= 30


def test_pruning_keeps_symmetric_inputs_within_a_small_budget():
    # A deterministic pass count, not a timing: the exhaustive search needed
    # more than 2000 passes on 16 of these clones; with pruning every one
    # fits in 400, so pruning cannot silently switch off.
    for condition in generate_suite_vcs():
        canonicalize(clone_entailment(condition.entailment, 4), budget=400)
    canonicalize(_segments(8), budget=400)
