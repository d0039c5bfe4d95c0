"""Text form of path terms: a small expression grammar plus renderers.

Grammar (loosest to tightest):

    expr    := unary ("*" unary)*            left-associative composition
    unary   := "~" unary | postfix           inverse
    postfix := primary ("^" integer)*        integer power of a loop
    primary := "refl" | "refl(" point ")" | generator | "(" expr ")"

Bare `refl` is only accepted in single-point spaces. A builtin may print a
generator under a display name (the rp2 generator `alpha` prints as `α`);
the parser accepts both names.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ParseError
from .rewrite import Word
from .spaces import SpacePresentation, _builtin_record
from .terms import Gen, PathExpr, Refl, Symm, Trans, zpow

# The most nodes a parsed term may have, checked before anything is built,
# so a short text such as `a^100000000` is refused instead of allocated. A
# word of n letters is a term of 2n - 1 nodes or more.
MAX_TERM_NODES = 1_000_000

_SYMBOLS = {"*", "~", "^", "(", ")"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch))
            i += 1
            continue
        if ch.isdecimal() or (ch == "-" and text[i + 1 : i + 2].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character '{ch}'")
    return tokens


class _Parser:
    def __init__(self, space: "SpacePresentation", text: str):
        self.space = space
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.take()
        if tok[1] != value:
            raise ParseError(f"expected '{value}', found '{tok[1]}'")

    def check_size(self, nodes: int) -> None:
        if nodes > MAX_TERM_NODES:
            raise ParseError(
                f"term too large: {nodes:,} nodes, the limit is {MAX_TERM_NODES:,}"
            )

    def parse(self) -> PathExpr:
        """The whole text as one term, read by one loop at every nesting
        level: a run of `~` is counted, and an open parenthesis pushes the
        composition so far and the `~` count before it."""
        # per open parenthesis: the left operand before it and its `~` count
        pending: list[tuple[PathExpr | None, int]] = []
        left: PathExpr | None = None
        while True:
            tildes = 0
            while (tok := self.peek()) is not None and tok[1] == "~":
                self.take()
                tildes += 1
            if tok is not None and tok[1] == "(":
                self.take()
                pending.append((left, tildes))
                left = None
                continue
            term = self.primary()
            while True:
                term = self.postfix(term)
                for _ in range(tildes):
                    self.check_size(term._size + 1)
                    term = Symm(term)
                if left is not None:
                    self.check_size(left._size + term._size + 1)
                    term = Trans(left, term)
                tok = self.peek()
                if tok is not None and tok[1] == "*":
                    self.take()
                    left = term
                    break
                if not pending:
                    if tok is not None:
                        raise ParseError(f"unexpected token '{tok[1]}'")
                    return term
                # the parenthesised term is the primary of its outer level
                self.expect(")")
                left, tildes = pending.pop()

    def postfix(self, term: PathExpr) -> PathExpr:
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "^":
                return term
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise ParseError(f"expected an integer exponent, found '{value}'")
            k = int(value)
            # zpow writes |k| copies (each inverted when k < 0) joined by
            # |k| - 1 compositions
            self.check_size(abs(k) * (term._size + (k < 0) + 1) - 1 if k else 1)
            term = zpow(self.space, term, k)

    def primary(self) -> PathExpr:
        kind, value = self.take()
        if kind == "name" and value == "refl":
            tok = self.peek()
            if tok is not None and tok[1] == "(":
                self.take()
                pkind, point = self.take()
                if pkind != "name":
                    raise ParseError(f"expected a point name, found '{point}'")
                self.expect(")")
                if point not in self.space.point_set:
                    raise ParseError(
                        f"'{point}' is not a point of '{self.space.name}'"
                    )
                return Refl(point)
            if len(self.space.points) != 1:
                raise ParseError(
                    f"bare 'refl' is ambiguous in '{self.space.name}'; "
                    "write refl(<point>)"
                )
            return Refl(self.space.points[0])
        if kind == "name":
            name = self._resolve_generator(value)
            return Gen(name)
        raise ParseError(f"unexpected token '{value}'")

    def _resolve_generator(self, name: str) -> str:
        if name in self.space.generator_map:
            return name
        for gen, shown in _display(self.space).items():
            if shown == name:
                return gen
        raise ParseError(
            f"'{name}' is not a generator of '{self.space.name}'"
        )


def parse_path(space: "SpacePresentation", text: str) -> PathExpr:
    """Parse a path expression against a presentation."""
    if not text.strip():
        raise ParseError("empty path expression")
    return _Parser(space, text).parse()


def _display(space: "SpacePresentation") -> Mapping[str, str]:
    """Generator names whose output form differs from their input name."""
    rec = _builtin_record(space)
    return {} if rec is None else rec.display


def render_path(space: "SpacePresentation", p: PathExpr) -> str:
    """Grammar-conformant text for a term; parse_path round-trips it. The
    walk keeps its own stack of terms and text pieces still to write."""
    if not isinstance(p, (Refl, Gen, Symm, Trans)):
        raise TypeError(f"not a path term: {p!r}")
    display = _display(space)
    refl = "refl" if len(space.points) == 1 else None
    parts: list[str] = []
    todo: list = [p]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is str:
            parts.append(node)
        elif cls is Trans:
            if type(node.second) is Trans:
                todo += (")", node.second, " * (", node.first)
            else:
                todo += (node.second, " * ", node.first)
        elif cls is Symm:
            if type(node.inner) is Trans:
                todo += (")", node.inner, "~(")
            else:
                todo += (node.inner, "~")
        elif cls is Gen:
            parts.append(display.get(node.name, node.name))
        else:
            parts.append(refl or f"refl({node.point})")
    return "".join(parts)


def render_word(space: "SpacePresentation", word: "Word") -> str:
    """Text for a normal-form word; empty words render as constant paths."""
    if not word.letters:
        if len(space.points) == 1:
            return "refl"
        return f"refl({word.src})"
    display = _display(space)
    parts = []
    for name, sign in word.letters:
        shown = display.get(name, name)
        parts.append(shown if sign > 0 else f"~{shown}")
    return " * ".join(parts)
