"""Unit tests for conjunctions of literals (path labels and column headers)."""

import pytest

from repro.conditions import Condition, Conjunction, ContradictionError, Literal

C = Condition("C")
D = Condition("D")
K = Condition("K")


class TestConstruction:
    def test_true_is_empty(self):
        assert Conjunction.true().is_true()
        assert len(Conjunction.true()) == 0

    def test_duplicate_literals_collapse(self):
        conj = Conjunction([C.true(), C.true()])
        assert len(conj) == 1

    def test_contradiction_rejected(self):
        with pytest.raises(ContradictionError):
            Conjunction([C.true(), C.false()])

    def test_of_and_from_assignment_agree(self):
        assert Conjunction.of(C.true(), D.false()) == Conjunction.from_assignment(
            {C: True, D: False}
        )

    def test_str_is_sorted_and_readable(self):
        conj = Conjunction.of(D.true(), C.false())
        assert str(conj) == "!C & D"

    def test_str_of_true(self):
        assert str(Conjunction.true()) == "true"


class TestAlgebra:
    def test_conjoin_merges_literals(self):
        left = Conjunction.of(C.true())
        right = Conjunction.of(D.false())
        assert left.conjoin(right) == Conjunction.of(C.true(), D.false())

    def test_conjoin_contradiction_raises(self):
        with pytest.raises(ContradictionError):
            Conjunction.of(C.true()).conjoin(Conjunction.of(C.false()))

    def test_try_and_returns_none_on_contradiction(self):
        assert Conjunction.of(C.true()).try_and(Conjunction.of(C.false())) is None

    def test_and_literal(self):
        assert Conjunction.of(C.true()).and_literal(D.true()) == Conjunction.of(
            C.true(), D.true()
        )
        assert Conjunction.of(C.true()).and_literal(C.true()) == Conjunction.of(C.true())
        with pytest.raises(ContradictionError):
            Conjunction.of(C.true()).and_literal(C.false())

    def test_mutual_exclusion(self):
        a = Conjunction.of(C.true(), D.true())
        b = Conjunction.of(C.false(), D.true())
        assert a.is_mutually_exclusive_with(b)
        assert not a.is_mutually_exclusive_with(Conjunction.of(D.true()))

    def test_compatibility_is_symmetric(self):
        a = Conjunction.of(C.true())
        b = Conjunction.of(D.true())
        assert a.is_compatible_with(b) and b.is_compatible_with(a)

    def test_implies_subset_rule(self):
        specific = Conjunction.of(C.true(), D.true(), K.false())
        general = Conjunction.of(C.true(), D.true())
        assert specific.implies(general)
        assert not general.implies(specific)

    def test_everything_implies_true(self):
        assert Conjunction.of(C.true()).implies(Conjunction.true())

    def test_value_of(self):
        conj = Conjunction.of(C.true(), D.false())
        assert conj.value_of(C) is True
        assert conj.value_of(D) is False
        assert conj.value_of(K) is None

    def test_restricted_to_and_without(self):
        conj = Conjunction.of(C.true(), D.false(), K.true())
        assert conj.restricted_to([C, D]) == Conjunction.of(C.true(), D.false())
        assert conj.without([C]) == Conjunction.of(D.false(), K.true())


class TestEvaluation:
    """A conjunction holds under known values that imply it."""

    def test_evaluate_complete(self):
        conj = Conjunction.of(C.true(), D.false())
        assert Conjunction.from_assignment({C: True, D: False}).implies(conj)
        assert not Conjunction.from_assignment({C: True, D: True}).implies(conj)

    def test_satisfied_by_partial_requires_all_assigned(self):
        conj = Conjunction.of(C.true(), D.false())
        assert not Conjunction.from_assignment({C: True}).implies(conj)
        assert Conjunction.from_assignment({C: True, D: False}).implies(conj)

    def test_consistent_with_partial(self):
        conj = Conjunction.of(C.true(), D.false())
        assert conj.is_compatible_with(Conjunction.true())
        assert conj.is_compatible_with(Conjunction.from_assignment({C: True}))
        assert not conj.is_compatible_with(Conjunction.from_assignment({D: True}))

    def test_true_is_always_satisfied(self):
        assert Conjunction.true().implies(Conjunction.true())
        assert Conjunction.of(C.true()).implies(Conjunction.true())

    def test_as_assignment_round_trip(self):
        conj = Conjunction.of(C.true(), K.false())
        assert Conjunction.from_assignment(conj.as_assignment()) == conj


class TestContainerProtocol:
    def test_iteration_is_sorted(self):
        conj = Conjunction.of(K.true(), C.false())
        assert list(conj) == sorted([K.true(), C.false()])

    def test_contains(self):
        conj = Conjunction.of(C.true())
        assert C.true() in conj
        assert C.false() not in conj

    def test_hash_consistent_with_equality(self):
        a = Conjunction.of(C.true(), D.true())
        b = Conjunction.of(D.true(), C.true())
        assert a == b and hash(a) == hash(b)

    def test_conditions_property(self):
        assert Conjunction.of(C.true(), D.false()).conditions == frozenset({C, D})

    def test_literal_type_preserved(self):
        conj = Conjunction.of(Literal(C, True))
        assert next(iter(conj)) == Literal(C, True)
