"""Unit tests for the textual surface syntax and the printer."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.generator import EntailmentGenerator, GeneratorProfile
from repro.logic.atoms import EqAtom, SpatialFormula
from repro.logic.clauses import Clause, EMPTY_CLAUSE
from repro.logic.formula import Entailment, dcell, dlseg, eq, lseg, neq, pts
from repro.logic.parser import ParseError, parse_entailment, parse_spatial_formula
from repro.logic.printer import (
    format_clause,
    format_entailment,
    format_rewrite_relation,
    format_substitution,
)
from repro.logic.terms import Const, NIL


class TestParser:
    def test_simple_entailment(self):
        entailment = parse_entailment("x != y /\\ lseg(x, y) |- next(x, z) * lseg(z, y)")
        assert entailment.lhs_pure == (neq("x", "y"),)
        assert len(entailment.lhs_spatial) == 1
        assert len(entailment.rhs_spatial) == 2

    def test_points_to_sugar(self):
        entailment = parse_entailment("x |-> y |- lseg(x, y)")
        assert entailment.lhs_spatial == SpatialFormula([pts("x", "y")])

    def test_alternative_tokens(self):
        one = parse_entailment("x == y && ls(x, z) ==> lseg(x, z)")
        two = parse_entailment("x = y /\\ lseg(x, z) |- lseg(x, z)")
        assert one == two

    def test_nil_spellings(self):
        entailment = parse_entailment("next(x, null) |- lseg(x, nil)")
        assert entailment.lhs_spatial == SpatialFormula([pts("x", NIL)])

    def test_emp_and_true(self):
        entailment = parse_entailment("true |- emp")
        assert entailment.lhs_spatial.is_emp and entailment.rhs_spatial.is_emp
        assert not entailment.lhs_pure and not entailment.rhs_pure

    def test_false_rhs(self):
        entailment = parse_entailment("x != y /\\ lseg(x, y) |- false")
        assert entailment.has_false_rhs

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "lseg(x, y)",  # no turnstile
            "false |- lseg(x, y)",  # false only allowed on the right
            "x | y |- emp",
            "next(x) |- emp",
            "x & |- emp",
            "lseg(x, y) |- next(x, y) extra",
            "x |- y",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_entailment(text)

    def test_parse_spatial_formula(self):
        formula = parse_spatial_formula("next(x, y) * lseg(y, nil)")
        assert formula == SpatialFormula([pts("x", "y"), lseg("y", "nil")])
        with pytest.raises(ParseError):
            parse_spatial_formula("x = y * next(x, y)")
        with pytest.raises(ParseError):
            parse_spatial_formula("false")

    def test_roundtrip_with_printer(self):
        texts = [
            "x != y /\\ lseg(x, y) |- next(x, z) * lseg(z, y)",
            "true |- emp",
            "x |-> y * y |-> nil |- lseg(x, nil)",
            "lseg(a, b) * lseg(b, nil) |- lseg(a, nil)",
        ]
        for text in texts:
            entailment = parse_entailment(text)
            assert parse_entailment(format_entailment(entailment)) == entailment


class TestDllSyntax:
    def test_cell_and_dlseg(self):
        entailment = parse_entailment(
            "cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)"
        )
        assert entailment.lhs_spatial == SpatialFormula(
            [dcell("x", "y", "nil"), dcell("y", "nil", "x")]
        )
        assert entailment.rhs_spatial == SpatialFormula([dlseg("x", "nil", "nil", "y")])

    def test_dll_alias(self):
        one = parse_entailment("emp |- dll(x, p, x, p)")
        two = parse_entailment("emp |- dlseg(x, p, x, p)")
        assert one == two

    def test_predicate_names_still_work_as_identifiers(self):
        entailment = parse_entailment("cell = x |- dlseg != nil")
        assert entailment.lhs_pure == (eq("cell", "x"),)
        assert entailment.rhs_pure == (neq("dlseg", NIL),)

    @pytest.mark.parametrize(
        "text",
        [
            "cell(x, y) |- emp",  # wrong arity
            "dlseg(x, p, y) |- emp",
            "dlseg(x, p, y, q, r) |- emp",
            "next(x, y, z) |- emp",
        ],
    )
    def test_arity_errors(self, text):
        with pytest.raises(ParseError):
            parse_entailment(text)

    def test_mixed_theories_rejected_with_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment("next(x, y) * cell(a, b, c) |- emp")
        error = excinfo.value
        assert error.token == "cell" and error.column == 14
        assert "mixed" in str(error)
        with pytest.raises(ParseError):
            parse_entailment("cell(a, b, c) |- x |-> y")  # |-> is sll sugar

    def test_dll_roundtrip_with_printer(self):
        entailment = parse_entailment(
            "p != q /\\ dlseg(a, p, b, q) * cell(b, nil, q) |- dlseg(a, p, nil, b)"
        )
        assert parse_entailment(format_entailment(entailment)) == entailment


class TestParserDiagnostics:
    """Syntax errors carry the line/column and the offending token."""

    def test_unexpected_character_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment("x = y /\\ ?")
        error = excinfo.value
        assert error.line == 1 and error.column == 10
        assert error.token == "?"
        assert "line 1, column 10" in str(error)

    def test_multiline_location(self):
        text = "x = y /\\\nlseg(x, )"
        with pytest.raises(ParseError) as excinfo:
            parse_entailment(text)
        error = excinfo.value
        assert error.line == 2
        assert error.column == 9
        assert error.token == ")"

    def test_offending_token_in_message(self):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment("lseg(x, y) |- next(x, y) extra")
        error = excinfo.value
        assert error.token == "extra"
        assert "extra" in str(error) and "column" in str(error)

    def test_end_of_input_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment("x = ")
        error = excinfo.value
        assert error.line == 1 and error.column == 5
        assert "end of input" in str(error)

    def test_missing_turnstile_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment("lseg(x, y)")
        assert "'|-'" in str(excinfo.value)

    def test_malformed_ent_input_reports_line(self, tmp_path):
        # The .ent corpus reader parses the first non-comment line; a broken
        # entailment there surfaces a located ParseError.
        from repro.fuzz.corpus import parse_entry

        with pytest.raises(ParseError) as excinfo:
            parse_entry("# expected: valid\nnext(x nil) |- lseg(x, nil)\n")
        error = excinfo.value
        assert error.column is not None and error.token == "nil"


#: Malformed inputs with the (line, column, token, reason) each reports.  The
#: values were recorded from the earlier tokenizer, which matched one token
#: at a time and raised at the first character no token rule accepts; the
#: one-scan tokenizer and the parser must keep every diagnostic.
_FALSE_LHS = "'false' can only appear as the whole right-hand side"
_AFTER = "expected '=', '!=' or '|->' after {!r} but found {!r}"


def _mixed(predicate, theory, used):
    return (
        "predicate {!r} belongs to the {!r} theory but the entailment already uses {!r} "
        "atoms; spatial theories cannot be mixed".format(predicate, theory, used)
    )


MALFORMED = [
    ('?x = y |- emp', 1, 1, '?', "unexpected character '?'"),
    ('x = y /\\ ? |- emp', 1, 10, '?', "unexpected character '?'"),
    ('x = y |- lseg(x, y) #', 1, 21, '#', "unexpected character '#'"),
    ('x = y |- emp\t$', 1, 14, '$', "unexpected character '$'"),
    ('x = y /\\\nlseg(x, )', 2, 9, ')', "expected an identifier but found ')'"),
    ('x != y /\\\n  lseg(x, y)\n|- next(x, 0)', 3, 12, '0', "unexpected character '0'"),
    ('lseg(x, y) *\n\nnext(y, z) |- w', 3, 16, None, "dangling identifier 'w' at end of input"),
    ('x = y |- z', 1, 11, None, "dangling identifier 'z' at end of input"),
    ('x', 1, 2, None, "dangling identifier 'x' at end of input"),
    ('lseg(x, y) * x |- emp', 1, 16, '|-', _AFTER.format("x", "|-")),
    ('next(x) |- emp', 1, 7, ')', 'next takes 2 arguments but got 1'),
    ('cell(x, y) |- emp', 1, 10, ')', 'cell takes 3 arguments but got 2'),
    ('dlseg(x, p, y, q, r) |- emp', 1, 20, ')', 'dlseg takes 4 arguments but got 5'),
    ('lseg(x, y, |- emp', 1, 12, '|-', "expected an identifier but found '|-'"),
    ('next(x, y) * cell(a, b, c) |- emp', 1, 14, 'cell', _mixed('cell', 'dll', 'sll')),
    ('cell(a, b, c) |- x |-> y', 1, 18, 'x', _mixed('x', 'sll', 'dll')),
    ('dll(x, p, y, q) |- lseg(x, y)', 1, 20, 'lseg', _mixed('lseg', 'sll', 'dll')),
    ('false |- lseg(x, y)', None, None, None, _FALSE_LHS),
    ('false |- false', None, None, None, _FALSE_LHS),
    ('x = y |- false * lseg(x, y)', 1, 16, '*', "unexpected trailing input '*'"),
    ('x = y * false |- emp', 1, 15, '|-', _AFTER.format("false", "|-")),
    ('', 1, 1, None, 'unexpected end of input at end of input'),
    ('x = ', 1, 5, None, 'expected an identifier at end of input'),
    ('lseg(x, y)', 1, 11, None, "expected '|-' at end of input"),
    ('lseg(x, y) |- next(x, y) extra', 1, 26, 'extra', "unexpected trailing input 'extra'"),
    ('x | y |- emp', 1, 3, '|', "unexpected character '|'"),
    ('x & |- emp', 1, 3, '&', _AFTER.format("x", "&")),
    ('lseg(x nil) |- emp', 1, 8, 'nil', 'lseg takes 2 arguments but got 1'),
]


class TestMalformedInputTable:
    @pytest.mark.parametrize("text, line, column, token, reason", MALFORMED)
    def test_reports_line_column_and_token(self, text, line, column, token, reason):
        with pytest.raises(ParseError) as excinfo:
            parse_entailment(text)
        error = excinfo.value
        assert (error.line, error.column, error.token, error.reason) == (
            line,
            column,
            token,
            reason,
        )
        if line is not None:
            assert str(error) == "line {}, column {}: {}".format(line, column, reason)


def _roundtrip_profile(name):
    return GeneratorProfile.only(name, min_variables=2, max_variables=5)


class TestPrinterRoundTripProperty:
    """Property pin: ``parse(print(f)) == f`` for generator-produced input."""

    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_mixed_sll(self, index):
        generator = EntailmentGenerator(seed=11, profile=_roundtrip_profile("mixed"))
        entailment = generator.case(index).entailment
        assert parse_entailment(format_entailment(entailment)) == entailment

    @given(st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_dll(self, index):
        generator = EntailmentGenerator(seed=11, profile=_roundtrip_profile("dll"))
        entailment = generator.case(index).entailment
        assert parse_entailment(format_entailment(entailment)) == entailment


def _respell(text):
    """``text`` with every alternative spelling the grammar accepts."""
    text = re.sub(r"\blseg\(", "ls(", text)
    text = re.sub(r"\bdlseg\(", "dll(", text)
    text = text.replace(" |- ", " ==> ").replace("/\\", "&&")
    text = text.replace(" != ", " <> ").replace(" = ", " == ")
    return re.sub(r"\bnext\((\w+), (\w+)\)", r"\1 |-> \2", text)


class TestPrintedGeneratorInputs:
    """``parse(print(f)) == f`` over every generator strategy, in every spelling."""

    @given(st.integers(min_value=0, max_value=10_000))
    def test_printed_form_and_its_respelling_parse_back(self, index):
        entailment = EntailmentGenerator(seed=5).case(index).entailment
        printed = format_entailment(entailment)
        assert parse_entailment(printed) == entailment
        respelled = _respell(printed)
        assert parse_entailment(respelled) == entailment

    def test_respelling_changes_every_spelling(self):
        printed = "x != y /\\ x = z /\\ next(x, y) * lseg(y, nil) |- lseg(x, nil)"
        assert _respell(printed) == "x <> y && x == z && x |-> y * ls(y, nil) ==> ls(x, nil)"
        dll = "cell(x, y, nil) |- dlseg(x, nil, y, x)"
        assert _respell(dll) == "cell(x, y, nil) ==> dll(x, nil, y, x)"


class TestPrinter:
    def test_format_clause_shapes(self):
        assert format_clause(EMPTY_CLAUSE) == "[]"
        pure = Clause.pure(gamma=[EqAtom("c", "e")])
        assert format_clause(pure) == "c = e -->"
        positive = Clause.positive_spatial(SpatialFormula([pts("x", "y")]))
        assert format_clause(positive) == "--> next(x, y)"
        negative = Clause.negative_spatial(
            SpatialFormula([lseg("x", "y")]), delta=[EqAtom("x", "y")]
        )
        assert "lseg(x, y) --> x = y" == format_clause(negative)

    def test_format_entailment_includes_emp_when_needed(self):
        entailment = Entailment.build(lhs=[], rhs=[pts("x", "y")])
        assert format_entailment(entailment) == "emp |- next(x, y)"

    def test_format_rewrite_relation_and_substitution(self):
        assert format_rewrite_relation({}) == "{}"
        rendered = format_rewrite_relation({Const("c"): Const("a"), Const("b"): Const("a")})
        assert rendered == "{b => a, c => a}"
        assert format_substitution({Const("x"): Const("y")}) == "[y/x]"
        assert format_substitution({}) == "[]"
