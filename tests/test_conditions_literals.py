"""Unit tests for condition variables and literals."""

import pytest

from repro.conditions import Condition, Conjunction, Literal, conditions_of


class TestCondition:
    def test_name_is_kept(self):
        assert Condition("C").name == "C"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Condition("")

    def test_equality_is_by_name(self):
        assert Condition("C") == Condition("C")
        assert Condition("C") != Condition("D")

    def test_ordering_is_by_name(self):
        assert Condition("A") < Condition("B")

    def test_str(self):
        assert str(Condition("K")) == "K"

    def test_hashable(self):
        assert len({Condition("C"), Condition("C"), Condition("D")}) == 2

    def test_literal_helpers(self):
        c = Condition("C")
        assert c.true() == Literal(c, True)
        assert c.false() == Literal(c, False)
        assert c.literal(False) == c.false()


class TestLiteral:
    def test_str_positive_and_negative(self):
        c = Condition("C")
        assert str(c.true()) == "C"
        assert str(c.false()) == "!C"

    def test_negate(self):
        c = Condition("C")
        assert c.true().negate() == c.false()
        assert ~c.false() == c.true()

    def test_double_negation_is_identity(self):
        literal = Condition("D").true()
        assert ~~literal == literal

    def test_evaluate(self):
        """A literal holds under known values that contain it."""
        c = Condition("C")
        assert c.true() in Conjunction.from_assignment({c: True})
        assert c.true() not in Conjunction.from_assignment({c: False})
        assert c.false() in Conjunction.from_assignment({c: False})

    def test_evaluate_requires_assignment(self):
        c = Condition("C")
        assert c.true() not in Conjunction.true()
        assert c.false() not in Conjunction.true()

    def test_default_polarity_is_true(self):
        assert Literal(Condition("C")).value is True


def test_conditions_of_collects_distinct_variables():
    c, d = Condition("C"), Condition("D")
    assert conditions_of([c.true(), c.false(), d.true()]) == frozenset({c, d})


def test_conditions_of_empty():
    assert conditions_of([]) == frozenset()
