"""Recursive-descent parser for the kernel DSL.

Grammar:  expr := name '(' args ')', args are comma-separated numbers,
numeric lists in square brackets, or nested expressions.  Whitespace is
insignificant.  The canonical printer is KernelExpr.to_dsl; parse(print(e))
reproduces e.

The text becomes one token list in one pass of `_TOKEN_RE`; an unexpected
character is reported at the end of the last good token.  One rule,
`_sequence`, reads both comma-separated sequences: the arguments up to ')'
and the numbers of a list up to ']'.  The parser descends at most
`MAX_DEPTH` levels, the nesting limit every kernel node enforces, and
refuses a deeper kernel at the name of its first node past the limit.

The node table `_NODES` is read off the node classes in `expr`, each of
which declares its DSL name and its (name, kind) arguments once
(`dsl_name`, `args`); only the sugar names `bergman_ball` and
`bergman_disc` are added here.  The constructors check the kinds; their
`ShapeError`s become `ParseError`s.
"""

from __future__ import annotations

import re

from .errors import ParseError, ShapeError
from .expr import MAX_DEPTH, KernelExpr, bergman_ball, bergman_disc

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<punct>[(),\[\]]))"
)


def _tokens(text: str) -> list:
    """The (kind, text, position) tokens of the text and the end-of-input
    token ("eof", "", len(text)), in reverse, so `pop` takes the next one."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:pos + 1]!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens[::-1]


def parse_kernel(text: str) -> KernelExpr:
    """Parse DSL text into a KernelExpr with shapes resolved."""
    tokens = _tokens(text)
    expr = _expr(tokens, tokens.pop(), 0)
    kind, val, pos = tokens[-1]
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return expr


def _expr(tokens: list, token, depth: int) -> KernelExpr:
    """The expression opened by `token`, a name at nesting `depth`."""
    kind, name, pos = token
    if kind != "name":
        raise ParseError(f"expected a kernel name, found {name or 'end of input'!r}", pos)
    if depth > MAX_DEPTH:
        raise ParseError(f"kernel nested deeper than {MAX_DEPTH} levels", pos)
    kind, val, p = tokens.pop()
    if val != "(":
        raise ParseError(f"expected '(', found {val or 'end of input'!r}", p)
    args = _sequence(tokens, ")", lambda tokens: _arg(tokens, depth + 1))
    try:
        return _build(name, args, pos)
    except ShapeError as exc:
        raise ParseError(str(exc), pos) from exc


def _sequence(tokens: list, close: str, item) -> list:
    """The items that `item` reads off the tokens, separated by commas, up
    to and including the `close` token."""
    items = []
    if tokens[-1][1] == close:
        tokens.pop()
        return items
    while True:
        items.append(item(tokens))
        kind, val, pos = tokens.pop()
        if val == close:
            return items
        if val != ",":
            raise ParseError(f"expected ',' or {close!r}, found {val!r}", pos)


def _arg(tokens: list, depth: int):
    kind, val, pos = token = tokens.pop()
    if kind == "name":
        return _expr(tokens, token, depth)
    if kind == "number":
        return float(val)
    if val == "[":
        return _sequence(tokens, "]", _number)
    raise ParseError(f"expected an argument, found {val or 'end of input'!r}", pos)


def _number(tokens: list) -> float:
    kind, val, pos = tokens.pop()
    if kind != "number":
        raise ParseError(f"expected a number in list, found {val!r}", pos)
    return float(val)


#: DSL name -> (constructor, kinds of its arguments, checked by the constructor)
_NODES = {cls.dsl_name: (cls, tuple(kind for _, kind in cls.args))
          for cls in KernelExpr.__subclasses__()}
_NODES.update(bergman_ball=(bergman_ball, ("int",)), bergman_disc=(bergman_disc, ()))


def _build(name: str, args, pos) -> KernelExpr:
    if name not in _NODES:
        raise ParseError(f"unknown kernel name {name!r}", pos)
    make, kinds = _NODES[name]
    if len(args) != len(kinds):
        raise ParseError(f"expected {len(kinds)} argument(s), got {len(args)}", pos)
    return make(*args)
