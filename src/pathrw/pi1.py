"""Loop classes at the basepoint as elements of a concrete group.

All four builtin groups are pairs (m, n); the builtin table in `spaces`
gives each group tag its arity, modulus and twist, and each builtin space
its loop generators. Encoding folds a loop's free word into (m, n),
decoding writes a^m b^n, and the group arithmetic is one formula for
every tag, so the translation can be checked to be a homomorphism.

The two spaces whose basepoint sits on a circle factor (cylinder, mobius
band) encode through an explicit retraction onto the circle, each letter
replaced by its generator image, rather than by counting letters, keeping
the computation honest to why the answer is an integer.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    GroupTagMismatchError,
    NotABasepointLoopError,
    ParseError,
)
from .groupoid import PathClass
from .rewrite import NormalForm, Word, _substitute, free_normalize
from .spaces import _SHAPES, GroupTag, SpacePresentation, _Builtin, _builtin_record, builtin
from .syntax import MAX_TERM_NODES, _int
from .terms import PathExpr, SpaceMap, Trans, _Record


class GroupValue(_Record):
    """An element of a tagged group. FreeZ and Z2 use `m` alone; the
    two-generator tags use the pair (m, n), first generator's exponent
    first."""

    __slots__ = _fields = ("tag", "m", "n")

    def __init__(self, tag: GroupTag, m: int = 0, n: int = 0) -> None:
        shape = _SHAPES[tag]
        if shape.arity == 1 and n != 0:
            raise ValueError(f"{tag.value} values have a single component")
        if shape.modulus is not None and not 0 <= m < shape.modulus:
            residues = " or ".join(str(r) for r in range(shape.modulus))
            raise ValueError(f"{tag.value} values are {residues}")
        self._fill(tag, m, n)


@lru_cache(maxsize=None)
def _retraction(name: str) -> SpaceMap:
    """The retraction onto the circle that a builtin's record gives."""
    source = builtin(name)
    circle = builtin("circle")
    return SpaceMap(
        source=source,
        target=circle,
        point_map={pt: circle.basepoint for pt in source.points},
        gen_map=dict(_builtin_record(source).retraction),
    )


@lru_cache(maxsize=None)
def _retraction_images(name: str) -> dict:
    """The checked retraction's generator images, as circle letters."""
    m = _retraction(name)
    return {g: free_normalize(m.target, t).letters for g, t in m.gen_map.items()}


def _group_record(space: SpacePresentation, op: str) -> _Builtin:
    """The builtin record `op` computes with; a space without one has no
    group to compute in."""
    rec = _builtin_record(space)
    if rec is None:
        why = ("carries no group tag" if space.group_tag is None
               else "is not a builtin presentation")
        raise GroupTagMismatchError(f"space '{space.name}' {why}; {op} is undefined")
    return rec


def _require_basepoint_loop(space: SpacePresentation, src: str, tgt: str) -> None:
    if src != space.basepoint or tgt != space.basepoint:
        raise NotABasepointLoopError(
            f"encode needs a loop at '{space.basepoint}', got {src} -> {tgt}"
        )


def encode(space: SpacePresentation, p: PathExpr) -> GroupValue:
    """The group element of a basepoint loop: folded from its free word."""
    rec = _group_record(space, "encode")
    word = free_normalize(space, p)
    _require_basepoint_loop(space, word.src, word.tgt)
    letters = word.letters
    if rec.retraction is not None:
        rec = _builtin_record(_retraction(space.name).target)
        letters = _substitute(letters, _retraction_images(space.name))
    m, n = rec.fold(letters)
    return GroupValue(space.group_tag, m, n)


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


def _reduced(tag: GroupTag, m: int, n: int) -> GroupValue:
    modulus = _SHAPES[tag].modulus
    return GroupValue(tag, m if modulus is None else m % modulus, n)


def group_identity(tag: GroupTag) -> GroupValue:
    return GroupValue(tag)


def group_mul(v1: GroupValue, v2: GroupValue) -> GroupValue:
    if v1.tag is not v2.tag:
        raise GroupTagMismatchError(
            f"cannot combine {v1.tag.value} with {v2.tag.value}"
        )
    # Appending v2 twists v1's second coordinate once per unit of v2's
    # first coordinate.
    flip = _SHAPES[v1.tag].flip(v2.m)
    return _reduced(v1.tag, v1.m + v2.m, flip * v1.n + v2.n)


def group_inv(v: GroupValue) -> GroupValue:
    flip = _SHAPES[v.tag].flip(v.m)
    return _reduced(v.tag, -v.m, -flip * v.n)


def homomorphism_check(
    space: SpacePresentation, p: PathExpr, q: PathExpr
) -> bool:
    """encode sends composition to group multiplication on these loops."""
    lhs = encode(space, Trans(p, q))
    rhs = group_mul(encode(space, p), encode(space, q))
    return lhs == rhs


def render_group_value(value: GroupValue) -> str:
    if _SHAPES[value.tag].arity == 2:
        return f"({value.m}, {value.n})"
    return str(value.m)


def parse_group_value(tag: GroupTag, text: str) -> GroupValue:
    """Parse a group element in the shape render_group_value emits."""
    stripped = text.strip()
    if _SHAPES[tag].arity == 2:
        parts = stripped[1:-1].split(",")
        if stripped[:1] != "(" or stripped[-1:] != ")" or len(parts) != 2:
            raise ParseError(
                f"{tag.value} values look like (m, n); got {text!r}"
            )
        try:
            coords = [_int(part.strip(), "value") for part in parts]
        except ValueError:
            raise ParseError(f"bad integer in {text!r}") from None
    else:
        try:
            coords = [_int(stripped, "value")]
        except ValueError:
            raise ParseError(
                f"{tag.value} values are integers; got {text!r}"
            ) from None
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
