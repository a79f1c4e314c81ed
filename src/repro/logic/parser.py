"""A textual surface syntax for entailments.

The grammar is a small superset of the notation used in the paper and of
Smallfoot's assertion language:

.. code-block:: text

    entailment  ::=  side ('|-' | '==>') side
    side        ::=  'false' | conjunct (('/\\' | '&&' | '&' | '*') conjunct)*
    conjunct    ::=  'true' | 'emp' | pure | spatial
    pure        ::=  ident ('=' | '==') ident
                  |  ident ('!=' | '<>') ident
    spatial     ::=  pred '(' ident (',' ident)* ')'
                  |  ident '|->' ident
    ident       ::=  [A-Za-z_][A-Za-z0-9_']*  |  'nil' | 'null' | 'NULL'

The spatial predicate names come from the registered spatial theories
(:func:`repro.spatial.theory.predicate_table`): the singly-linked theory
contributes ``next(x, y)`` and ``lseg(x, y)`` (``ls`` is accepted as an
alias, ``x |-> y`` abbreviates ``next``), the doubly-linked theory
contributes ``cell(x, n, p)`` and ``dlseg(x, px, y, py)``.  Pure and spatial
conjuncts may be freely interleaved; the parser sorts them into the pure part
``Pi`` and the spatial part ``Sigma`` of each side.  The keyword ``false``
may be used as the complete right-hand side to express the ``F |- false``
entailments of the Table 1 benchmark.

Syntax errors raise :class:`ParseError` carrying the 1-based line and column
of the offending token (and the token itself), so multi-line ``.ent`` files
report exactly where they broke.

Examples::

    parse_entailment("c != e /\\ lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
                     "|- lseg(b, c) * lseg(c, e)")
    parse_entailment("x |-> y * y |-> nil |- lseg(x, nil)")
    parse_entailment("cell(x, y, nil) * cell(y, nil, x) |- dlseg(x, nil, nil, y)")
    parse_entailment("x != y /\\ lseg(x, y) |- false")
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.logic.atoms import EqAtom, PointsTo, SpatialAtom, SpatialFormula
from repro.logic.formula import Entailment, PureLiteral
from repro.logic.terms import Const, make_const


class ParseError(ValueError):
    """Raised when the input text is not a well-formed entailment.

    Attributes
    ----------
    reason:
        The bare problem description, without the location prefix.
    line, column:
        1-based position of the offending token (or of the end of input);
        ``None`` when the error is not tied to a position.
    token:
        The offending token's text, or ``None`` at end of input.
    """

    def __init__(
        self,
        reason: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        token: Optional[str] = None,
    ):
        self.reason = reason
        self.line = line
        self.column = column
        self.token = token
        if line is not None and column is not None:
            message = "line {}, column {}: {}".format(line, column, reason)
        else:
            message = reason
        super().__init__(message)


#: One token per match: leading whitespace is skipped, then punctuation
#: (longest spelling first where one spelling prefixes another), an
#: identifier, or — the trailing catch-all — any other single character,
#: which the tokenizer reports as unexpected.
_TOKEN_RE = re.compile(
    r"\s*("
    r"\|->|\|-|==>|/\\|&&|&|\*|!=|<>|==|=|\(|\)|,"
    r"|[A-Za-z_][A-Za-z0-9_']*"
    r"|\S)"
)

_TURNSTILES = frozenset(("|-", "==>"))
_SEPARATORS = frozenset(("/\\", "&&", "&", "*"))
_EQUALS = frozenset(("=", "=="))
_NOT_EQUALS = frozenset(("!=", "<>"))
_PUNCTUATION = _TURNSTILES | _SEPARATORS | _EQUALS | _NOT_EQUALS | {"|->", "(", ")", ","}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

#: Extra spellings accepted for registered predicate names.
_PREDICATE_ALIASES = {"ls": "lseg", "dll": "dlseg"}


def _line_and_column(text: str, position: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset into ``text``."""
    line = text.count("\n", 0, position) + 1
    start = text.rfind("\n", 0, position) + 1
    return line, position - start + 1


def _token_position(text: str, index: int) -> int:
    """Character offset of token ``index`` (``len(text)`` past the last one).

    Tokens are bare strings; their offsets are only needed to report an
    error, so they are recovered by rescanning rather than kept.
    """
    for count, match in enumerate(_TOKEN_RE.finditer(text)):
        if count == index:
            return match.start(1)
    return len(text)


def _tokenize(text: str) -> List[Optional[str]]:
    """The token texts of ``text``, followed by a ``None`` end marker."""
    found: List[str] = _TOKEN_RE.findall(text)
    # Only the catch-all yields a token that is neither punctuation nor an
    # identifier: a single unexpected character.
    unexpected = [
        token for token in set(found).difference(_PUNCTUATION) if token[0] not in _IDENT_START
    ]
    if unexpected:
        index = min(found.index(token) for token in unexpected)
        line, column = _line_and_column(text, _token_position(text, index))
        raise ParseError(
            "unexpected character {!r}".format(found[index]),
            line=line,
            column=column,
            token=found[index],
        )
    return found + [None]


class _Parser:
    """A tiny recursive-descent parser over the token texts."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        # Imported here: loading the registry loads the spatial package, which
        # imports this one.
        from repro.spatial.theory import predicate_table

        self._predicates = predicate_table()
        # Constants of this input by spelling, so that each name is coerced
        # once per parse.
        self._constants: Dict[Optional[str], Const] = {}
        # The theory of the first spatial atom seen; later atoms must match
        # (mixed-theory formulas have no heap model and would otherwise only
        # blow up deep inside the prover, without a source location).
        self._theory: Optional[str] = None

    def _check_theory(self, theory: str, index: int) -> None:
        if self._theory is None:
            self._theory = theory
        elif self._theory != theory:
            raise self._error(
                "predicate {!r} belongs to the {!r} theory but the entailment "
                "already uses {!r} atoms; spatial theories cannot be mixed".format(
                    self._tokens[index], theory, self._theory
                ),
                index,
            )

    def _error(self, reason: str, index: int) -> ParseError:
        """A located error at token ``index`` (the end marker: end of input)."""
        token = self._tokens[index]
        if token is None:
            line, column = _line_and_column(self._text, len(self._text))
            return ParseError(reason + " at end of input", line=line, column=column)
        line, column = _line_and_column(self._text, _token_position(self._text, index))
        return ParseError(reason, line=line, column=column, token=token)

    def _constant(self, index: int) -> Const:
        """The constant spelled by token ``index``, which must be an identifier."""
        name = self._tokens[index]
        constant = self._constants.get(name)
        if constant is None:
            # Not seen yet in this input: punctuation and the end marker
            # never are, so they are only checked for here.
            if name is None:
                raise self._error("expected an identifier", index)
            if name in _PUNCTUATION:
                raise self._error("expected an identifier but found {!r}".format(name), index)
            constant = self._constants[name] = make_const(name)
        return constant

    # -- grammar -------------------------------------------------------------
    def parse_entailment(self) -> Entailment:
        lhs = self.parse_side()
        token = self._tokens[self._index]
        if token is None:
            raise self._error("expected '|-'", self._index)
        if token not in _TURNSTILES:
            raise self._error("expected '|-' but found {!r}".format(token), self._index)
        self._index += 1
        rhs = self.parse_side()
        token = self._tokens[self._index]
        if token is not None:
            raise self._error("unexpected trailing input {!r}".format(token), self._index)
        if lhs is None:
            raise ParseError("'false' can only appear as the whole right-hand side")
        if rhs is None:
            return Entailment.with_false_rhs(lhs[0] + lhs[1])
        return Entailment(
            tuple(lhs[0]), SpatialFormula(lhs[1]), tuple(rhs[0]), SpatialFormula(rhs[1])
        )

    def parse_side(self) -> Optional[Tuple[List[PureLiteral], List[SpatialAtom]]]:
        """One side as its pure and spatial conjuncts, or ``None`` for ``false``."""
        tokens = self._tokens
        if tokens[self._index] == "false":
            self._index += 1
            return None
        pure: List[PureLiteral] = []
        spatial: List[SpatialAtom] = []
        while True:
            self.parse_conjunct(pure, spatial)
            if tokens[self._index] in _SEPARATORS:
                self._index += 1
                continue
            return pure, spatial

    def parse_conjunct(self, pure: List[PureLiteral], spatial: List[SpatialAtom]) -> None:
        """Parse one conjunct, appending it to ``pure`` or ``spatial``."""
        tokens = self._tokens
        index = self._index
        word = tokens[index]
        if word is None:
            raise self._error("unexpected end of input", index)
        if word in _PUNCTUATION:
            raise self._error("expected an atom but found {!r}".format(word), index)
        follower = tokens[index + 1]

        if word == "true" or word == "emp":
            self._index = index + 1
            return

        predicate = None
        if follower == "(":
            predicate = self._predicates.get(_PREDICATE_ALIASES.get(word, word))
        if predicate is not None:
            theory, signature = predicate
            self._check_theory(theory.name, index)
            arguments = [self._constant(index + 2)]
            index += 3
            while tokens[index] == ",":
                arguments.append(self._constant(index + 1))
                index += 2
            if len(arguments) != signature.arity:
                raise self._error(
                    "{} takes {} arguments but got {}".format(
                        word, signature.arity, len(arguments)
                    ),
                    # At the token after the arguments, or at '(' when the
                    # input ends there.
                    index if tokens[index] is not None else self._index + 1,
                )
            closing = tokens[index]
            if closing is None:
                raise self._error("expected ')'", index)
            if closing != ")":
                raise self._error("expected ')' but found {!r}".format(closing), index)
            self._index = index + 1
            spatial.append(signature.constructor(*arguments))
            return
        # Otherwise a predicate name is a plain identifier.

        if follower is None:
            raise self._error("dangling identifier {!r}".format(word), index + 1)
        if follower in _EQUALS or follower in _NOT_EQUALS:
            other = self._constant(index + 2)
            self._index = index + 3
            pure.append(
                PureLiteral(EqAtom(self._constant(index), other), positive=follower in _EQUALS)
            )
            return
        if follower == "|->":
            self._check_theory("sll", index)  # x |-> y abbreviates next(x, y)
            other = self._constant(index + 2)
            self._index = index + 3
            spatial.append(PointsTo(self._constant(index), other))
            return
        raise self._error(
            "expected '=', '!=' or '|->' after {!r} but found {!r}".format(word, follower),
            index + 1,
        )


def parse_entailment(text: str) -> Entailment:
    """Parse an entailment from its textual form."""
    return _Parser(text).parse_entailment()


def parse_spatial_formula(text: str) -> SpatialFormula:
    """Parse a spatial formula such as ``"next(x, y) * lseg(y, nil)"``.

    Pure conjuncts are not allowed here; use :func:`parse_entailment` for full
    entailments.
    """
    parser = _Parser(text)
    side = parser.parse_side()
    index = parser._index  # noqa: SLF001 - module-internal access
    token = parser._tokens[index]  # noqa: SLF001
    if token is not None:
        raise parser._error(  # noqa: SLF001
            "unexpected trailing input {!r}".format(token), index
        )
    if side is None:  # the "false" keyword
        raise ParseError("'false' is not a spatial formula")
    pure, spatial = side
    if pure:
        raise ParseError("pure literal {} not allowed in a spatial formula".format(pure[0]))
    return SpatialFormula(spatial)
