"""Parser for the subscription expression language.

The paper writes subscriptions as conjunctions of attribute comparisons::

    issue='IBM' & price < 120 & volume > 1000

Grammar (conjunctive only, matching the paper's predicate model)::

    expression := clause ( ('&' | 'and') clause )*
    clause     := NAME op literal | NAME '=' '*' | '(' expression ')'
    op         := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
    literal    := STRING | NUMBER | 'true' | 'false'

Strings may be single- or double-quoted with backslash escapes.  Numbers with
a ``.`` or exponent parse as floats, others as integers.  ``attr = *`` is an
explicit don't-care (equivalent to omitting the attribute).

The entry point is :func:`parse_predicate`, which validates names and types
against an :class:`~repro.matching.schema.EventSchema` and returns a
:class:`~repro.matching.predicates.Predicate`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.errors import ParseError
from repro.matching.predicates import (
    DONT_CARE,
    AttributeTest,
    EqualityTest,
    Predicate,
    RangeOp,
    RangeTest,
)
from repro.matching.schema import EventSchema


class TokenType(enum.Enum):
    NAME = "name"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    AND = "and"
    STAR = "star"
    LPAREN = "("
    RPAREN = ")"
    END = "end"


class Token(NamedTuple):
    type: TokenType
    value: Union[str, int, float, bool]
    position: int


_OPERATORS = ("<=", ">=", "!=", "==", "<", ">", "=")
_KEYWORDS = {"and": TokenType.AND, "true": True, "false": False}


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "&":
            # accept both '&' and '&&'
            j = i + 2 if text[i : i + 2] == "&&" else i + 1
            tokens.append(Token(TokenType.AND, "&", i))
            i = j
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
            continue
        matched_op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if matched_op is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch in "'\"":
            start = i
            value, i = _read_string(text, start)
            tokens.append(Token(TokenType.STRING, value, start))
            continue
        if ch.isdigit() or (
            ch in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")
        ):
            start = i
            value, i = _read_number(text, start)
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered == "and":
                tokens.append(Token(TokenType.AND, word, i))
            elif lowered in ("true", "false"):
                tokens.append(Token(TokenType.NUMBER, lowered == "true", i))
            else:
                tokens.append(Token(TokenType.NAME, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.END, "", n))
    return tokens


_HEX_ESCAPES = {"x": 2, "u": 4, "U": 8}


def _read_string(text: str, start: int) -> Tuple[str, int]:
    """Read a quoted string with Python-style escapes (so ``repr`` output —
    what :meth:`Predicate.describe` emits for string values — parses back)."""
    quote = text[start]
    i = start + 1
    out: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ParseError("dangling escape in string literal", position=i)
            escape = text[i + 1]
            if escape in _HEX_ESCAPES:
                digits = _HEX_ESCAPES[escape]
                hex_text = text[i + 2 : i + 2 + digits]
                if len(hex_text) < digits:
                    raise ParseError("truncated hex escape", position=i)
                try:
                    out.append(chr(int(hex_text, 16)))
                except (ValueError, OverflowError):
                    raise ParseError(f"bad hex escape \\{escape}{hex_text}", position=i) from None
                i += 2 + digits
                continue
            out.append(
                {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", quote: quote}.get(
                    escape, escape
                )
            )
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ParseError("unterminated string literal", position=start)


def _read_number(text: str, start: int) -> Tuple[Union[int, float], int]:
    i = start
    if text[i] in "+-":
        i += 1
    begin_digits = i
    is_float = False
    while i < len(text) and (text[i].isdigit() or text[i] in ".eE+-"):
        if text[i] in "+-" and text[i - 1] not in "eE":
            break
        if text[i] in ".eE":
            is_float = True
        i += 1
    literal = text[start:i]
    if i == begin_digits:
        raise ParseError(f"malformed number at {start}", position=start)
    try:
        return (float(literal) if is_float else int(literal)), i
    except ValueError:
        raise ParseError(f"malformed number {literal!r}", position=start) from None


class _Parser:
    """Recursive-descent parser producing per-attribute test lists."""

    def __init__(self, tokens: Sequence[Token], schema: EventSchema) -> None:
        self._tokens = tokens
        self._schema = schema
        self._position = 0
        self.clauses: Dict[str, List[AttributeTest]] = {}

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect(self, type: TokenType) -> Token:
        token = self._advance()
        if token.type is not type:
            raise ParseError(
                f"expected {type.value}, found {token.value!r}", position=token.position
            )
        return token

    def parse(self) -> Dict[str, List[AttributeTest]]:
        self._expression()
        end = self._peek()
        if end.type is not TokenType.END:
            raise ParseError(f"trailing input at {end.value!r}", position=end.position)
        return self.clauses

    def _expression(self) -> None:
        self._clause()
        while self._peek().type is TokenType.AND:
            self._advance()
            self._clause()

    def _clause(self) -> None:
        token = self._peek()
        if token.type is TokenType.LPAREN:
            self._advance()
            self._expression()
            self._expect(TokenType.RPAREN)
            return
        name_token = self._expect(TokenType.NAME)
        name = str(name_token.value)
        if name not in self._schema:
            raise ParseError(f"unknown attribute {name!r}", position=name_token.position)
        op_token = self._expect(TokenType.OPERATOR)
        symbol = str(op_token.value)
        value_token = self._advance()
        tests = self.clauses.setdefault(name, [])
        if value_token.type is TokenType.STAR:
            if symbol not in ("=", "=="):
                raise ParseError("'*' is only valid with '='", position=value_token.position)
            tests.append(DONT_CARE)
            return
        if value_token.type not in (TokenType.STRING, TokenType.NUMBER):
            raise ParseError(
                f"expected a literal, found {value_token.value!r}", position=value_token.position
            )
        value = value_token.value
        if symbol in ("=", "=="):
            tests.append(EqualityTest(value))
        else:
            tests.append(RangeTest(RangeOp.from_symbol(symbol), value))


def parse_predicate(schema: EventSchema, text: str) -> Predicate:
    """Parse ``text`` into a :class:`Predicate` over ``schema``.

    >>> schema = stock_trade_schema()
    >>> p = parse_predicate(schema, "issue='IBM' & price<120 & volume>1000")
    >>> p.describe()
    "issue='IBM' & price<120 & volume>1000"
    """
    stripped = text.strip()
    if not stripped or stripped == "*":
        return Predicate(schema, {})
    clauses = _Parser(tokenize(stripped), schema).parse()
    return Predicate(schema, clauses)
