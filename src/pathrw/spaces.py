"""Finitely presented spaces: points, generator paths, relations.

Six builtin presentations ship with the library (circle, cylinder, mobius,
torus, klein, rp2). Each carries a group tag naming its fundamental group;
presentations loaded from files (`syntax` reads them) carry no tag and
normalize by free reduction only.

This module owns the builtin table, the one place each builtin is handled:
each group tag carries its arithmetic, and each record in `_BUILTINS`
derives its spanning tree and generator images from its presentation.
Normal forms, traces, encode/decode, group arithmetic and rendering read
these records instead of testing which space or tag they have.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from .errors import UnknownSpaceError
from .terms import Gen, PathExpr, Refl, Symm, Trans, _Record, free_normalize


class GroupTag(enum.Enum):
    """Which group a builtin space's basepoint loops form, written as pairs
    (m, n) multiplied by

        (m1, n1) * (m2, n2) = (m1 + m2, flip(m2) * n1 + n2)

    where flip(m) is -1 for odd m in a twisted group and 1 otherwise. Arity
    1 keeps n at 0; a modulus reduces m."""

    FREE_Z = ("FreeZ", 1)
    ZXZ = ("ZxZ", 2)
    Z_SEMIDIRECT_Z = ("ZSemidirectZ", 2, None, True)
    Z2 = ("Z2", 1, 2)

    def __new__(cls, value: str, arity: int, modulus: int | None = None,
                twisted: bool = False) -> GroupTag:
        tag = object.__new__(cls)
        tag._value_ = value
        tag.arity, tag.modulus, tag.twisted = arity, modulus, twisted
        return tag

    def flip(self, m: int) -> int:
        return -1 if self.twisted and m % 2 else 1


class Generator(_Record):
    """A named generator path from src to tgt."""

    __slots__ = _fields = ("name", "src", "tgt")

    def __init__(self, name: str, src: str, tgt: str) -> None:
        self._fill(name, src, tgt)


class Relation(_Record):
    """A named two-sided identification of path terms.

    Stored directed: rewriting lhs -> rhs is the direction the normalizer
    prefers, but the engine may apply either direction.
    """

    __slots__ = _fields = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: PathExpr, rhs: PathExpr) -> None:
        self._fill(name, lhs, rhs)


class SpacePresentation(_Record):
    """Points, generators, relations and a basepoint. The point set, the
    generators by name and the hash are derived once, and stay out of
    equality and the repr."""

    _fields = ("name", "points", "generators", "relations", "basepoint", "group_tag")
    __slots__ = (*_fields, "point_set", "generator_map", "_hash")

    def __init__(
        self, name: str, points: tuple[str, ...], generators: tuple[Generator, ...],
        relations: tuple[Relation, ...], basepoint: str, group_tag: GroupTag | None = None,
    ) -> None:
        values = (name, points, generators, relations, basepoint, group_tag)
        gens = {g.name: g for g in generators}
        # Spaces key the memoized tables of the rewrite engine and the
        # enumerators, so the structural hash is computed once, here.
        self._fill(*values, frozenset(points), gens, hash(values))

    def __hash__(self) -> int:
        return self._hash


_Letters = tuple[tuple[str, int], ...]


class _Builtin(_Record):
    """A builtin presentation and how to compute in it.

    `loops` are the generators a, b of the canonical loops a^m b^n, and
    `display` renames generators on output. Derived once, and out of
    equality and the repr: `tree`, each point's word along a breadth-first
    spanning tree from the basepoint, and `images`, each generator's (m, n).

    `spine_rules` are the tiers of relation rules `trace` applies after free
    cancellation. A tier maps a pattern of one letter or two adjacent
    letters (`"b ~a"`: b, then the inverse of a) to the steps that rewrite
    it, one line each in the text `rewrite.format_step` prints, at
    positions inside the pattern's node. `rewrite` compiles them once per
    space."""

    _fields = ("space", "loops", "spine_rules", "display")
    __slots__ = (*_fields, "tree", "images")

    def __init__(
        self, space: SpacePresentation, loops: tuple[str, ...],
        spine_rules: tuple[Mapping[str, tuple[str, ...]], ...] = (),
        display: Mapping[str, str] | None = None,
    ) -> None:
        tree: dict[str, _Letters] = {space.basepoint: ()}
        images = dict(zip(loops, ((1, 0), (0, 1))))
        todo = [space.basepoint]
        for at in todo:  # a queue: each point is appended as it is reached
            for g in space.generators:
                for start, end, sign in ((g.src, g.tgt, 1), (g.tgt, g.src, -1)):
                    if start == at and end not in tree:
                        tree[end] = (*tree[at], (g.name, sign))
                        images[g.name] = (0, 0)  # the identity on the tree
                        todo.append(end)
        self._fill(space, loops, spine_rules, display or {}, tree, images)
        # Tietze elimination in declaration order: a relator u g^s v in which
        # g is the one letter without an image makes g^-s = v u
        for rel in space.relations:
            letters = free_normalize(space, Trans(rel.lhs, Symm(rel.rhs))).letters
            free = [i for i, (name, _) in enumerate(letters) if name not in images]
            if len(free) == 1:
                (i,) = free
                name, sign = letters[i]
                rest = letters[i + 1:] + letters[:i]
                images[name] = self.fold(rest if sign < 0 else
                                         [(g, -s) for g, s in reversed(rest)])
        missing = [g.name for g in space.generators if g.name not in images]
        if missing:
            raise ValueError(f"{space.name}'s generator '{missing[0]}' has no image")
        # each relation's sides must fold to one element, or encode is undefined
        for rel in space.relations:
            lhs, rhs = (self.fold(free_normalize(space, side).letters)
                        for side in (rel.lhs, rel.rhs))
            if lhs != rhs:
                raise ValueError(f"the images of {space.name}'s generators "
                                 f"send relation '{rel.name}' to {lhs} and {rhs}")

    def fold(self, letters: _Letters) -> tuple[int, int]:
        """The group element (m, n) of a word: the product of its letters'
        images, an inverse letter's inverted."""
        tag = self.space.group_tag
        twisted, images = tag.twisted, self.images
        m = n = 0
        for name, sign in letters:
            # right-multiply by the image (dm, dn) or its inverse
            # (-dm, -flip(dm) * dn); a flip makes both n -> dn - n
            dm, dn = images[name]
            m += sign * dm
            if twisted and dm % 2:
                n = dn - n
            else:
                n += sign * dn
        if tag.modulus is not None:
            m %= tag.modulus
        return m, n

    def write(self, m: int, n: int) -> _Letters:
        """The canonical word a^m b^n of a group element."""
        out: list[tuple[str, int]] = []
        for name, e in zip(self.loops, (m, n)):
            out.extend([(name, 1 if e > 0 else -1)] * abs(e))
        return tuple(out)

    def canonical(self, letters: _Letters, src: str, tgt: str) -> _Letters:
        """The normal form of a freely reduced word w: x -> y, the basepoint
        loop tree[x] w ~tree[y] written a^m b^n and led back to x and y."""
        head, tail = self.tree[src], self.tree[tgt]
        loop = self.write(*self.fold(letters))
        while not loop and head and tail and head[0] == tail[0]:
            head, tail = head[1:], tail[1:]  # the tree words' shared prefix cancels
        return tuple([(g, -s) for g, s in reversed(head)]) + loop + tail


def _one_point(
    name: str, tag: GroupTag, gens: tuple[str, ...], *relations: Relation
) -> SpacePresentation:
    return SpacePresentation(
        name=name,
        points=("pt",),
        generators=tuple(Generator(g, "pt", "pt") for g in gens),
        relations=relations,
        basepoint="pt",
        group_tag=tag,
    )


_BUILTINS = {
    "circle": _Builtin(_one_point("circle", GroupTag.FREE_Z, ("a",)), loops=("a",)),
    "cylinder": _Builtin(
        SpacePresentation(
            name="cylinder",
            points=("b0", "b1"),
            generators=(
                Generator("s", "b0", "b1"),
                Generator("l0", "b0", "b0"),
                Generator("l1", "b1", "b1"),
            ),
            relations=(
                Relation(
                    "cylSquare", Trans(Gen("s"), Gen("l1")), Trans(Gen("l0"), Gen("s"))
                ),
            ),
            basepoint="b0",
            group_tag=GroupTag.FREE_Z,
        ),
        loops=("l0",),
        # eliminate the far loop through the square relation: l1 -> ~s l0 s
        spine_rules=({
            "l1": ("trans_refl_left_intro @ root",
                   "symm_trans_cancel_intro @ 0 [s]",
                   "assoc_left @ root",
                   "relation_fwd(cylSquare) @ 1"),
            "~l1": ("trans_refl_left_intro @ 0",
                    "symm_trans_cancel_intro @ 0.0 [s]",
                    "assoc_left @ 0",
                    "relation_fwd(cylSquare) @ 0.1",
                    "symm_trans_congr @ root",
                    "symm_trans_congr @ 0",
                    "symm_symm @ 1",
                    "assoc_left @ root"),
        },),
    ),
    "mobius": _Builtin(_one_point("mobius", GroupTag.FREE_Z, ("a",)), loops=("a",)),
    "torus": _Builtin(
        _one_point(
            "torus",
            GroupTag.ZXZ,
            ("a", "b"),
            Relation(
                "torusComm", Trans(Gen("a"), Gen("b")), Trans(Gen("b"), Gen("a"))
            ),
        ),
        loops=("a", "b"),
        # move each a left past each b through the commutation relation
        spine_rules=({
            "b a": ("relation_bwd(torusComm) @ root",),
            "b ~a": ("trans_refl_left_intro @ root",
                     "symm_trans_cancel_intro @ 0 [a]",
                     "assoc_left @ root",
                     "assoc_right @ 1",
                     "relation_fwd(torusComm) @ 1.0",
                     "assoc_left @ 1",
                     "trans_symm_cancel @ 1.1",
                     "trans_refl_right @ 1"),
            "~b a": ("trans_refl_right_intro @ root",
                     "trans_symm_cancel_intro @ 1 [b]",
                     "assoc_left @ root",
                     "assoc_right @ 1",
                     "relation_fwd(torusComm) @ 1.0",
                     "assoc_left @ 1",
                     "assoc_right @ root",
                     "symm_trans_cancel @ 0",
                     "trans_refl_left @ root"),
            "~b ~a": ("symm_trans_congr_intro @ root",
                      "relation_fwd(torusComm) @ 0",
                      "symm_trans_congr @ root"),
        },),
    ),
    "klein": _Builtin(
        _one_point(
            "klein",
            GroupTag.Z_SEMIDIRECT_Z,
            ("a", "b"),
            Relation(
                "kleinSurf",
                Trans(Trans(Gen("a"), Gen("b")), Symm(Gen("a"))),
                Symm(Gen("b")),
            ),
        ),
        loops=("a", "b"),
        # move each a left past each b, flipping the b, through the surface
        # relation
        spine_rules=({
            "b a": ("symm_symm_intro @ 0",
                    "relation_bwd(kleinSurf) @ 0.0",
                    "symm_trans_congr @ 0",
                    "symm_symm @ 0.0",
                    "symm_trans_congr @ 0.1",
                    "assoc_left @ root",
                    "assoc_left @ 1",
                    "symm_trans_cancel @ 1.1",
                    "trans_refl_right @ 1"),
            "b ~a": ("trans_refl_left_intro @ root",
                     "symm_trans_cancel_intro @ 0 [a]",
                     "assoc_left @ root",
                     "assoc_right @ 1",
                     "relation_fwd(kleinSurf) @ 1"),
            "~b a": ("relation_bwd(kleinSurf) @ 0",
                     "assoc_left @ root",
                     "symm_trans_cancel @ 1",
                     "trans_refl_right @ root"),
            "~b ~a": ("symm_trans_congr_intro @ root",
                      "trans_refl_right_intro @ 0",
                      "trans_symm_cancel_intro @ 0.1 [~a]",
                      "assoc_right @ 0",
                      "relation_fwd(kleinSurf) @ 0.0",
                      "symm_trans_congr @ root",
                      "symm_symm @ 0",
                      "symm_symm @ 1"),
        },),
    ),
    "rp2": _Builtin(
        _one_point(
            "rp2",
            GroupTag.Z2,
            ("alpha",),
            Relation("loopSquare", Trans(Gen("alpha"), Gen("alpha")), Refl("pt")),
        ),
        loops=("alpha",),
        # flip every ~alpha to alpha through the squaring relation, then drop
        # adjacent pairs, leaving the empty or one-letter word
        spine_rules=(
            {"~alpha": ("trans_refl_left_intro @ root",
                        "relation_bwd(loopSquare) @ 0",
                        "assoc_left @ root",
                        "trans_symm_cancel @ 1",
                        "trans_refl_right @ root")},
            {"alpha alpha": ("relation_fwd(loopSquare) @ root",)},
        ),
        display={"alpha": "α"},
    ),
}

BUILTIN_NAMES = tuple(_BUILTINS)
# the records by presentation: a space that merely shares a builtin's name
# or group tag has none
_RECORDS = {rec.space: rec for rec in _BUILTINS.values()}


def builtin(name: str) -> SpacePresentation:
    """One of the six builtin presentations, by name. Deterministic."""
    rec = _BUILTINS.get(name)
    if rec is None:
        raise UnknownSpaceError(
            f"no builtin space named '{name}' (choose from {', '.join(BUILTIN_NAMES)})"
        )
    return rec.space


def _builtin_record(space: SpacePresentation) -> _Builtin | None:
    """The table record of a builtin presentation; None for any other
    space, such as one loaded from a file."""
    return _RECORDS.get(space)
