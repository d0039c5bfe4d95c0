"""Text forms: path expressions, their renderers, and space files.

Grammar (loosest to tightest):

    expr    := unary ("*" unary)*            left-associative composition
    unary   := "~" unary | postfix           inverse
    postfix := primary ("^" integer)*        integer power of a loop
    primary := "refl" | "refl(" point ")" | generator | "(" expr ")"

Bare `refl` is only accepted in single-point spaces. A builtin may print a
generator under a display name (the rp2 generator `alpha` prints as `α`);
the parser accepts both names.

The tokens are the five symbols, names (a letter or `_`, then letters,
digits or `_`) and integers (decimal digits, after an optional `-`). The
parser reads the token list by index in one loop and gives all uses of a
generator one shared leaf; a long integer loses its leading zeros and is
then refused by its digit count if still too long for the node limit.

A space file declares points, generators and relations, one a line, and
`validate` holds each name to one name token, so that it reads back.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import ParseError
from .spaces import Generator, Relation, SpacePresentation, _builtin_record
from .terms import Gen, PathExpr, Refl, Symm, Trans, Word, endpoints, zpow

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

# The most nodes a parsed term may have, checked before anything is built,
# so a short text such as `a^100000000` is refused instead of allocated. A
# word of n letters is a term of 2n - 1 nodes or more.
MAX_TERM_NODES = 1_000_000

_SYMBOLS = {sym: ("sym", sym) for sym in "*~^()"}
# more significant digits than int() reads: far past the node limit, and
# far below the fewest digits (640) Python may limit int() to
_MAX_DIGITS = 100


def _scan(piece: str, tokens: list[tuple[str, str]]) -> None:
    """Append the names and integers a piece of text holds, character by
    character. This defines those tokens."""
    i, n = 0, len(piece)
    while i < n:
        ch = piece[i]
        if ch.isdecimal() or (ch == "-" and piece[i + 1 : i + 2].isdecimal()):
            kind, fits = "int", str.isdecimal
        elif ch.isalpha() or ch == "_":
            kind, fits = "name", lambda c: c.isalnum() or c == "_"
        else:
            raise ParseError(f"unexpected character '{ch}'")
        j = i + 1
        while j < n and fits(piece[j]):
            j += 1
        tokens.append((kind, piece[i:j]))
        i = j


def _tokenize(text: str) -> list[tuple[str, str]]:
    """The tokens of a text. With the symbols padded by spaces, no token
    spans two of the pieces between whitespace. A piece that is wholly a
    symbol, a name or an integer is that token; `_scan` reads any other."""
    for sym in _SYMBOLS:
        text = text.replace(sym, f" {sym} ")
    tokens: list[tuple[str, str]] = []
    for piece in text.split():
        tok = _SYMBOLS.get(piece)
        if tok is not None:
            tokens.append(tok)
        elif (piece[0].isalpha() or piece[0] == "_") and piece.replace("_", "a").isalnum():
            tokens.append(("name", piece))
        elif piece.isdecimal() or piece[0] == "-" and piece[1:].isdecimal():
            tokens.append(("int", piece))
        else:
            _scan(piece, tokens)
    return tokens


def _is_token(text: str, kind: str) -> bool:
    """Whether the grammar reads `text` as one token of `kind` ("name", "int")."""
    try:
        return _tokenize(text) == [(kind, text)]
    except ParseError:
        return False


def _int(text: str, what: str) -> int:
    """The value of an integer token; a long one loses its leading zeros and
    is refused if still too long, so int() never meets its digit limit."""
    if len(text) <= _MAX_DIGITS:
        return int(text)
    sign = text[:1] if text[:1] == "-" else ""
    digits = text[len(sign):]
    digits = digits[next((i for i, ch in enumerate(digits) if int(ch)), len(digits) - 1):]
    if len(digits) > _MAX_DIGITS:
        raise ParseError(
            f"{what} too large: a number of {len(digits):,} digits, the limit "
            f"is {MAX_TERM_NODES:,} nodes"
        )
    return int(sign + digits)


def _too_large(nodes: int) -> ParseError:
    return ParseError(
        f"term too large: {nodes:,} nodes, the limit is {MAX_TERM_NODES:,}"
    )


def _misfit(value: str | None, message: str) -> ParseError:
    """The error for a token that does not fit, or for the end of the text."""
    return ParseError("unexpected end of expression" if value is None else message)


def parse_path(space: "SpacePresentation", text: str) -> PathExpr:
    """Parse a path expression against a presentation. A run of `~` is
    counted, and an open parenthesis pushes the composition so far and the
    `~` count before it, so one loop reads every nesting level."""
    if not text.strip():
        raise ParseError("empty path expression")
    tokens = _tokenize(text)
    tokens.append((None, None))  # the end, so lookahead needs no bounds check
    leaves: dict[str, PathExpr] = {}
    # per open parenthesis: the left operand before it and its `~` count
    pending: list[tuple[PathExpr | None, int]] = []
    left: PathExpr | None = None
    i = 0
    while True:
        tildes = 0
        kind, value = tokens[i]
        while value == "~":
            tildes += 1
            i += 1
            kind, value = tokens[i]
        if value == "(":
            i += 1
            pending.append((left, tildes))
            left = None
            continue
        if kind != "name":
            raise _misfit(value, f"unexpected token '{value}'")
        i += 1
        if value == "refl" and tokens[i][1] == "(":
            kind, point = tokens[i + 1]
            if kind != "name":
                raise _misfit(point, f"expected a point name, found '{point}'")
            close = tokens[i + 2][1]
            if close != ")":
                raise _misfit(close, f"expected ')', found '{close}'")
            if point not in space.point_set:
                raise ParseError(f"'{point}' is not a point of '{space.name}'")
            term = Refl(point)
            i += 3
        elif value == "refl":
            if len(space.points) != 1:
                raise ParseError(
                    f"bare 'refl' is ambiguous in '{space.name}'; write refl(<point>)"
                )
            term = Refl(space.points[0])
        elif (term := leaves.get(value)) is None:
            by_display = {shown: gen for gen, shown in _display(space).items()}
            name = value if value in space.generator_map else by_display.get(value)
            if name is None:
                raise ParseError(f"'{value}' is not a generator of '{space.name}'")
            term = leaves[value] = Gen(name)
        value = tokens[i][1]
        while True:
            while value == "^":
                kind, value = tokens[i + 1]
                if kind != "int":
                    raise _misfit(value, f"expected an integer exponent, found '{value}'")
                i += 2
                k = _int(value, "term")
                # zpow writes |k| copies (each inverted when k < 0) joined by
                # |k| - 1 compositions
                nodes = abs(k) * (term._size + (k < 0) + 1) - 1 if k else 1
                if nodes > MAX_TERM_NODES:
                    raise _too_large(nodes)
                term = zpow(space, term, k)
                value = tokens[i][1]
            if term._size + tildes > MAX_TERM_NODES:
                raise _too_large(MAX_TERM_NODES + 1)  # at the first `~` past it
            for _ in range(tildes):
                term = Symm(term)
            if left is not None:
                nodes = left._size + term._size + 1
                if nodes > MAX_TERM_NODES:
                    raise _too_large(nodes)
                term = Trans(left, term)
            if value == "*":
                i += 1
                left = term
                break
            if not pending:
                if value is not None:
                    raise ParseError(f"unexpected token '{value}'")
                return term
            # the parenthesised term is the primary of its outer level
            if value != ")":
                raise _misfit(value, f"expected ')', found '{value}'")
            left, tildes = pending.pop()
            i += 1
            value = tokens[i][1]


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


def validate(space: SpacePresentation) -> list[str]:
    """All well-formedness violations of a presentation; empty means valid.

    Every point and generator name must be one name token of the expression
    grammar, and no generator may be called `refl`, so each can be written
    in an input and printed output parses back."""
    out: list[str] = []
    seen_points: set[str] = set()
    for pt in space.points:
        if not pt:
            out.append("UnknownPoint: empty point name")
        elif not _is_token(pt, "name"):
            out.append(f"BadName: point '{pt}' is not one name token")
        elif pt in seen_points:
            out.append(f"DuplicateName: point '{pt}' declared twice")
        seen_points.add(pt)
    seen_names = set(seen_points)
    for g in space.generators:
        if g.name == "refl":
            out.append("BadName: generator 'refl' would read as the constant path")
        elif not _is_token(g.name, "name"):
            out.append(f"BadName: generator '{g.name}' is not one name token")
        if g.name in seen_names:
            out.append(f"DuplicateName: '{g.name}' declared more than once")
        seen_names.add(g.name)
        if g.src not in space.point_set:
            out.append(
                f"UnknownPoint: generator '{g.name}' source '{g.src}' "
                "is not a declared point"
            )
        if g.tgt not in space.point_set:
            out.append(
                f"UnknownPoint: generator '{g.name}' target '{g.tgt}' "
                "is not a declared point"
            )
    if space.basepoint not in space.point_set:
        out.append(f"UnknownPoint: basepoint '{space.basepoint}' is not declared")
    rel_names: set[str] = set()
    for rel in space.relations:
        if rel.name in rel_names or rel.name in seen_names:
            out.append(f"DuplicateName: relation '{rel.name}' reuses a name")
        rel_names.add(rel.name)
        sides = []
        for label, side in (("lhs", rel.lhs), ("rhs", rel.rhs)):
            try:
                sides.append(endpoints(space, side))
            except Exception as exc:
                out.append(f"{type(exc).__name__}: relation '{rel.name}' {label}: {exc}")
        if len(sides) == 2 and sides[0] != sides[1]:
            out.append(
                f"EndpointMismatch: relation '{rel.name}' sides run "
                f"{sides[0][0]} -> {sides[0][1]} and {sides[1][0]} -> {sides[1][1]}"
            )
    return out


def parse_space_text(text: str, name: str = "user-space") -> SpacePresentation:
    """Parse the plain-text space format.

    Lines: `point <name>`, `gen <name> : <src> -> <tgt>`,
    `rel <name> : <expr> = <expr>`, `base <name>`. `#` starts a comment.
    Relations may reference any generator declared anywhere in the file.
    """
    points: list[str] = []
    gens: list[Generator] = []
    rel_lines: list[tuple[int, str, str, str]] = []
    basepoint: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "point":
            if not rest or " " in rest:
                raise ParseError(f"line {lineno}: expected 'point <name>'")
            points.append(rest)
        elif head == "gen":
            gname, sep, arrow = rest.partition(":")
            src, sep2, tgt = arrow.partition("->")
            if not sep or not sep2:
                raise ParseError(
                    f"line {lineno}: expected 'gen <name> : <src> -> <tgt>'"
                )
            gens.append(Generator(gname.strip(), src.strip(), tgt.strip()))
        elif head == "rel":
            rname, sep, eqn = rest.partition(":")
            lhs, sep2, rhs = eqn.partition("=")
            if not sep or not sep2:
                raise ParseError(
                    f"line {lineno}: expected 'rel <name> : <expr> = <expr>'"
                )
            rel_lines.append((lineno, rname.strip(), lhs.strip(), rhs.strip()))
        elif head == "base":
            if not rest or " " in rest:
                raise ParseError(f"line {lineno}: expected 'base <name>'")
            basepoint = rest
        else:
            raise ParseError(f"line {lineno}: unknown directive '{head}'")
    if not points:
        raise ParseError("space file declares no points")
    if basepoint is None:
        basepoint = points[0]
    skeleton = SpacePresentation(
        name=name,
        points=tuple(points),
        generators=tuple(gens),
        relations=(),
        basepoint=basepoint,
    )
    rels: list[Relation] = []
    for lineno, rname, lhs_text, rhs_text in rel_lines:
        try:
            lhs = parse_path(skeleton, lhs_text)
            rhs = parse_path(skeleton, rhs_text)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        rels.append(Relation(rname, lhs, rhs))
    space = SpacePresentation(
        name=name,
        points=tuple(points),
        generators=tuple(gens),
        relations=tuple(rels),
        basepoint=basepoint,
    )
    violations = validate(space)
    if violations:
        raise ParseError("invalid space: " + "; ".join(violations))
    return space


def parse_space_file(path: str | Path) -> SpacePresentation:
    from pathlib import Path

    p = Path(path)
    return parse_space_text(p.read_text(encoding="utf-8"), name=p.stem)
