"""Symbolic path terms over a presented space.

A term is one of four immutable tree shapes: the constant path at a point,
a named generator path, the inverse of a term, or the composition of two
terms. Equality and hashing are structural, which is what the rewrite
engine's visited sets and cancellation checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .errors import (
    EndpointMismatchError,
    NotALoopError,
    SpaceMapError,
    UnknownGeneratorError,
    UnknownPointError,
)

if TYPE_CHECKING:
    from .spaces import SpacePresentation

# The search oracle keeps millions of terms in hash sets; recomputing a
# structural hash on every lookup dominates its runtime. Each node stores
# its hash (and node count) once at construction, built from the children's
# cached values, so hashing stays O(1) and equality keeps short-circuiting
# on the hash mismatch fast path inside set buckets. Equality also
# short-circuits on identity, so subtrees shared between two terms (or a
# search's hash-consed terms, which share every equal subtree) compare in
# O(1).


@dataclass(frozen=True, eq=False)
class Refl:
    """Constant path at a named point."""

    point: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((0, self.point)))
        object.__setattr__(self, "_size", 1)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Refl) and self.point == other.point


@dataclass(frozen=True, eq=False)
class Gen:
    """A generator path, referenced by name."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((1, self.name)))
        object.__setattr__(self, "_size", 1)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Gen) and self.name == other.name


@dataclass(frozen=True, eq=False)
class Symm:
    """Inverse of a path term."""

    inner: "PathExpr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((2, self.inner._hash)))
        object.__setattr__(self, "_size", 1 + self.inner._size)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Symm)
            and self._hash == other._hash
            and self.inner == other.inner
        )


@dataclass(frozen=True, eq=False)
class Trans:
    """Composition: first, then second. Requires tgt(first) == src(second)."""

    first: "PathExpr"
    second: "PathExpr"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((3, self.first._hash, self.second._hash))
        )
        object.__setattr__(self, "_size", 1 + self.first._size + self.second._size)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Trans)
            and self._hash == other._hash
            and self.first == other.first
            and self.second == other.second
        )


PathExpr = Refl | Gen | Symm | Trans


# markers on the work stack of `endpoints`
_FLIP = object()
_JOIN = object()


def endpoints(space: "SpacePresentation", p: PathExpr) -> tuple[str, str]:
    """Source and target of a term; raises if the term is ill-formed.

    The walk keeps its own stack, so a deep term needs no recursion. It
    visits nodes in post-order, left leg first, so the error raised is the
    first one met in that order."""
    ends: list[tuple[str, str]] = []
    todo: list = [p]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Trans:
            todo += (_JOIN, node.second, node.first)
        elif cls is Gen:
            gen = space.generator_map.get(node.name)
            if gen is None:
                raise UnknownGeneratorError(
                    f"'{node.name}' is not a generator of '{space.name}'"
                )
            ends.append((gen.src, gen.tgt))
        elif cls is Symm:
            todo += (_FLIP, node.inner)
        elif node is _JOIN:
            src2, tgt2 = ends.pop()
            src1, tgt1 = ends.pop()
            if tgt1 != src2:
                raise EndpointMismatchError(
                    f"cannot compose: first ends at '{tgt1}', second starts at '{src2}'"
                )
            ends.append((src1, tgt2))
        elif node is _FLIP:
            src, tgt = ends.pop()
            ends.append((tgt, src))
        elif cls is Refl:
            if node.point not in space.point_set:
                raise UnknownPointError(
                    f"'{node.point}' is not a point of '{space.name}'"
                )
            ends.append((node.point, node.point))
        else:
            raise TypeError(f"not a path term: {node!r}")
    return ends[0]


def size(p: PathExpr) -> int:
    """Node count of the term tree."""
    if isinstance(p, (Refl, Gen, Symm, Trans)):
        return p._size
    raise TypeError(f"not a path term: {p!r}")


def zpow(space: "SpacePresentation", loop: PathExpr, n: int) -> PathExpr:
    """Integer power of a loop.

    n == 0 gives the constant path at the loop's point, n > 0 a left-nested
    composition of n copies, n < 0 the matching power of the inverse.
    """
    src, tgt = endpoints(space, loop)
    if src != tgt:
        raise NotALoopError(
            f"cannot raise a path from '{src}' to '{tgt}' to a power"
        )
    if n == 0:
        return Refl(src)
    if n < 0:
        return zpow(space, Symm(loop), -n)
    acc: PathExpr = loop
    for _ in range(n - 1):
        acc = Trans(acc, loop)
    return acc


@dataclass(frozen=True)
class SpaceMap:
    """A map of presentations: points to points, generators to target terms.

    Construction eagerly checks that generator images connect the mapped
    endpoints and that both sides of every source relation stay equal in the
    target, so an ill-defined map never escapes into map_path.
    """

    source: "SpacePresentation"
    target: "SpacePresentation"
    point_map: Mapping[str, str]
    gen_map: Mapping[str, PathExpr]

    def __post_init__(self) -> None:
        for pt in self.source.points:
            if pt not in self.point_map:
                raise SpaceMapError(f"point '{pt}' has no image")
            img = self.point_map[pt]
            if img not in self.target.point_set:
                raise SpaceMapError(
                    f"point image '{img}' is not a point of '{self.target.name}'"
                )
        for gen in self.source.generators:
            if gen.name not in self.gen_map:
                raise SpaceMapError(f"generator '{gen.name}' has no image")
            img_term = self.gen_map[gen.name]
            src, tgt = endpoints(self.target, img_term)
            want = (self.point_map[gen.src], self.point_map[gen.tgt])
            if (src, tgt) != want:
                raise SpaceMapError(
                    f"image of generator '{gen.name}' runs {src} -> {tgt}, "
                    f"expected {want[0]} -> {want[1]}"
                )
        # Relation preservation needs the rewrite engine; import here to keep
        # the module graph acyclic.
        from .rewrite import rw_eq

        for rel in self.source.relations:
            lhs = map_path(self, rel.lhs)
            rhs = map_path(self, rel.rhs)
            if not rw_eq(self.target, lhs, rhs):
                raise SpaceMapError(
                    f"relation '{rel.name}' is not preserved by the map"
                )


def map_path(m: SpaceMap, p: PathExpr) -> PathExpr:
    """Push a term through a space map by structural replacement."""
    if isinstance(p, Refl):
        if p.point not in m.point_map:
            raise UnknownPointError(f"'{p.point}' has no image under the map")
        return Refl(m.point_map[p.point])
    if isinstance(p, Gen):
        if p.name not in m.gen_map:
            raise UnknownGeneratorError(f"'{p.name}' has no image under the map")
        return m.gen_map[p.name]
    if isinstance(p, Symm):
        return Symm(map_path(m, p.inner))
    if isinstance(p, Trans):
        return Trans(map_path(m, p.first), map_path(m, p.second))
    raise TypeError(f"not a path term: {p!r}")
