"""Loop classes at the basepoint as elements of a concrete group.

All four builtin groups are pairs (m, n), and each group tag carries its
arity, modulus and twist. Encoding multiplies the images a builtin's
record in `spaces` gives the letters of a loop's free word, decoding
writes a^m b^n, and the group arithmetic is one formula for every tag, so
the translation can be checked to be a homomorphism. A record's images
come from its presentation, and are checked to respect its relations.
"""

from __future__ import annotations

from .errors import (
    GroupTagMismatchError,
    NotABasepointLoopError,
    ParseError,
)
from .groupoid import PathClass
from .rewrite import NormalForm
from .spaces import GroupTag, SpacePresentation, _Builtin, _builtin_record
from .syntax import MAX_TERM_NODES, _int, _is_token
from .terms import PathExpr, Trans, Word, _Record, free_normalize


class GroupValue(_Record):
    """An element of a tagged group. FreeZ and Z2 use `m` alone; the
    two-generator tags use the pair (m, n), first generator's exponent
    first."""

    __slots__ = _fields = ("tag", "m", "n")

    def __init__(self, tag: GroupTag, m: int = 0, n: int = 0) -> None:
        if tag.arity == 1 and n != 0:
            raise ValueError(f"{tag.value} values have a single component")
        if tag.modulus is not None and not 0 <= m < tag.modulus:
            residues = " or ".join(str(r) for r in range(tag.modulus))
            raise ValueError(f"{tag.value} values are {residues}")
        self._fill(tag, m, n)


def _group_record(space: SpacePresentation, op: str) -> _Builtin:
    """The builtin record `op` computes with; a space without one has no
    group to compute in."""
    rec = _builtin_record(space)
    if rec is None:
        why = ("carries no group tag" if space.group_tag is None
               else "is not a builtin presentation")
        raise GroupTagMismatchError(f"space '{space.name}' {why}; {op} is undefined")
    return rec


def encode(space: SpacePresentation, p: PathExpr) -> GroupValue:
    """The group element of a basepoint loop: its free word folded through
    the generator images."""
    rec = _group_record(space, "encode")
    word = free_normalize(space, p)
    if word.src != space.basepoint or word.tgt != space.basepoint:
        raise NotABasepointLoopError(
            f"encode needs a loop at '{space.basepoint}', got {word.src} -> {word.tgt}"
        )
    return GroupValue(space.group_tag, *rec.fold(word.letters))


def decode(space: SpacePresentation, value: GroupValue) -> PathClass:
    """The loop class of a^m b^n, its own normal form. Inverse to encode."""
    rec = _group_record(space, "decode")
    if value.tag is not space.group_tag:
        raise GroupTagMismatchError(
            f"value tagged {value.tag.value} does not fit space '{space.name}' "
            f"(expected {space.group_tag.value})"
        )
    base = space.basepoint
    word = Word(rec.write(value.m, value.n), base, base)
    return PathClass(space, space.name, NormalForm(word), base, base)


def _product(tag: GroupTag, m1: int, n1: int, m2: int, n2: int) -> GroupValue:
    # appending (m2, n2) twists n1 once per unit of m2; a modulus reduces m
    m = m1 + m2 if tag.modulus is None else (m1 + m2) % tag.modulus
    return GroupValue(tag, m, tag.flip(m2) * n1 + n2)


def group_identity(tag: GroupTag) -> GroupValue:
    return GroupValue(tag)


def group_mul(v1: GroupValue, v2: GroupValue) -> GroupValue:
    if v1.tag is not v2.tag:
        raise GroupTagMismatchError(
            f"cannot combine {v1.tag.value} with {v2.tag.value}"
        )
    return _product(v1.tag, v1.m, v1.n, v2.m, v2.n)


def group_inv(v: GroupValue) -> GroupValue:
    # (m, n)^-1 = (0, -n) * (-m, 0)
    return _product(v.tag, 0, -v.n, -v.m, 0)


def homomorphism_check(
    space: SpacePresentation, p: PathExpr, q: PathExpr
) -> bool:
    """encode sends composition to group multiplication on these loops."""
    lhs = encode(space, Trans(p, q))
    rhs = group_mul(encode(space, p), encode(space, q))
    return lhs == rhs


def render_group_value(value: GroupValue) -> str:
    if value.tag.arity == 2:
        return f"({value.m}, {value.n})"
    return str(value.m)


def parse_group_value(tag: GroupTag, text: str) -> GroupValue:
    """Parse a group element in the shape render_group_value emits, each
    component one integer token, read as an exponent is."""
    stripped = text.strip()
    if tag.arity == 2:
        parts = [part.strip() for part in stripped[1:-1].split(",")]
        if stripped[:1] != "(" or stripped[-1:] != ")" or len(parts) != 2:
            raise ParseError(
                f"{tag.value} values look like (m, n); got {text!r}"
            )
        bad = f"bad integer in {text!r}"
    else:
        parts, bad = [stripped], f"{tag.value} values are integers; got {text!r}"
    coords = []
    for part in parts:
        if not _is_token(part, "int"):
            raise ParseError(bad)
        coords.append(_int(part, "value"))
    try:
        value = GroupValue(tag, *coords)
    except ValueError as exc:
        raise ParseError(f"{exc}; got {text!r}") from None
    # decode writes a^m b^n: a node per letter, one more per inverse letter,
    # and a composition between letters
    letters = sum(abs(c) for c in coords)
    nodes = max(2 * letters - 1, 1) + sum(-c for c in coords if c < 0)
    if nodes > MAX_TERM_NODES:
        raise ParseError(
            f"value too large: its loop has {nodes:,} nodes, the limit is "
            f"{MAX_TERM_NODES:,}"
        )
    return value
