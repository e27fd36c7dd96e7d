"""Recursive-descent parser for the kernel DSL.

Grammar:  expr := name '(' args ')', args are comma-separated numbers,
numeric lists in square brackets, or nested expressions.  Whitespace is
insignificant.  The canonical printer is KernelExpr.to_dsl; parse(print(e))
reproduces e.

The node table `_NODES` is read off the node classes in `expr`, each of
which declares its DSL name and argument kinds once (`dsl_name`, `kinds`);
only the sugar names `bergman_ball` and `bergman_disc` are added here.
"""

from __future__ import annotations

import re

from .errors import ParseError, ShapeError
from .expr import KernelExpr, bergman_ball, bergman_disc

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<punct>[(),\[\]]))"
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                # skip pure whitespace tail
                if text[self.pos :].strip() == "":
                    break
                raise ParseError(
                    f"unexpected character {text[self.pos:self.pos+1]!r}", self.pos
                )
            for kind in ("name", "number", "punct"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            self.pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)


def parse_kernel(text: str) -> KernelExpr:
    """Parse DSL text into a KernelExpr with shapes resolved."""
    tz = _Tokenizer(text)
    expr = _parse_expr(tz)
    kind, val, pos = tz.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return expr


def _parse_expr(tz: _Tokenizer) -> KernelExpr:
    kind, name, pos = tz.next()
    if kind != "name":
        raise ParseError(f"expected a kernel name, found {name or 'end of input'!r}", pos)
    tz.expect("(")
    args = []
    if tz.peek()[1] != ")":
        while True:
            args.append(_parse_arg(tz))
            kind, val, p = tz.next()
            if val == ")":
                break
            if val != ",":
                raise ParseError(f"expected ',' or ')', found {val!r}", p)
    else:
        tz.next()
    try:
        return _build(name, args, pos)
    except ShapeError as exc:
        raise ParseError(str(exc), pos) from exc


def _parse_arg(tz: _Tokenizer):
    kind, val, pos = tz.peek()
    if kind == "number":
        tz.next()
        return float(val)
    if val == "[":
        tz.next()
        items = []
        if tz.peek()[1] != "]":
            while True:
                k, v, p = tz.next()
                if k != "number":
                    raise ParseError(f"expected a number in list, found {v!r}", p)
                items.append(float(v))
                k, v, p = tz.next()
                if v == "]":
                    break
                if v != ",":
                    raise ParseError(f"expected ',' or ']', found {v!r}", p)
        else:
            tz.next()
        return items
    if kind == "name":
        return _parse_expr(tz)
    raise ParseError(f"expected an argument, found {val or 'end of input'!r}", pos)


#: DSL name -> (constructor, kinds of its arguments as checked by _want)
_NODES = {cls.dsl_name: (cls, cls.kinds) for cls in KernelExpr.__subclasses__()}
_NODES.update(bergman_ball=(bergman_ball, ("int",)), bergman_disc=(bergman_disc, ()))


def _want(args, pos, kinds):
    """Check the parsed arguments against their kinds; "int" ones become ints."""
    if len(args) != len(kinds):
        raise ParseError(f"expected {len(kinds)} argument(s), got {len(args)}", pos)
    for a, t in zip(args, kinds):
        if t == "num" and not isinstance(a, float):
            raise ParseError("expected a numeric argument", pos)
        if t == "int" and not (isinstance(a, float) and a.is_integer()):
            raise ParseError("expected an integer argument", pos)
        if t in ("expr", "scalar") and not isinstance(a, KernelExpr):
            raise ParseError("expected a kernel expression argument", pos)
        if t == "list" and not isinstance(a, list):
            raise ParseError("expected a coefficient list argument", pos)
    return [int(a) if t == "int" else a for a, t in zip(args, kinds)]


def _build(name: str, args, pos) -> KernelExpr:
    if name not in _NODES:
        raise ParseError(f"unknown kernel name {name!r}", pos)
    make, kinds = _NODES[name]
    return make(*_want(args, pos, kinds))
