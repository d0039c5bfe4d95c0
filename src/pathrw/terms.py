"""Symbolic path terms over a presented space.

A term is one of four immutable tree shapes: the constant path at a point,
a named generator path, the inverse of a term, or the composition of two
terms. Equality and hashing are structural, which is what the rewrite
engine's visited sets and cancellation checks rely on. `map_path` pushes a
term through a `SpaceMap`, which lives in `oracle`, as checking that a map
preserves the relations may need a search.
"""

from __future__ import annotations

from functools import reduce

from .errors import (
    EndpointMismatchError,
    NotALoopError,
    UnknownGeneratorError,
    UnknownPointError,
)

# this module imports only `errors`: the rest of the package builds on it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .oracle import SpaceMap
    from .spaces import SpacePresentation

# Records and terms are plain slotted classes: no per-instance `__dict__`,
# and nothing generated at import. Each class writes its own `__init__`,
# which sets the slots through the slot descriptors' setters, the one way
# past `__setattr__`. Terms are built by the million (the oracle's hash
# sets, `apply_step`'s rebuilt ancestors) and rewrite steps by the thousand,
# so those call their setters one by one; the other records `_fill` theirs.


class _Record:
    """A frozen value: equality against the same class and a hash, both over
    the compared fields `_fields` in order, a repr naming them, and no
    assignment or deletion."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the setters of the class's own slots, in `__slots__` order
        cls._setters = [vars(cls)[f].__set__ for f in cls.__slots__]

    def _fill(self, *values: object) -> None:
        for setter, value in zip(self._setters, values, strict=True):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


# A term node stores its node count at construction, and a leaf its hash.
# An inverse or a composition leaves its hash unset, as replay and `trace`
# build millions of nodes whose hash nothing reads; `hash()` fills in every
# missing hash below the node, children first, so each subterm of a hashed
# node has one. Equality is written once, in `_Term`. It answers at once on
# identity (shared or hash-consed subtrees compare in O(1)), on a class
# mismatch or on a hash mismatch where both nodes have one, and otherwise
# walks both trees with an explicit stack.


class _Term(_Record):
    """What the four term classes share: the hash (a composite's is filled
    in on first use), the node count and structural equality."""

    __slots__ = ("_hash", "_size")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # list the nodes without a hash in preorder
            todo, order = [self], []
        while todo:
            node = todo.pop()
            order.append(node)
            kids = (node.inner,) if type(node) is Symm else (node.first, node.second)
            for child in kids:
                if not hasattr(child, "_hash"):
                    todo.append(child)
        for node in reversed(order):  # children before their parents
            _set_hash(node, hash((2, node.inner._hash)) if type(node) is Symm
                      else hash((3, node.first._hash, node.second._hash)))
        return self._hash

    def __eq__(self, other: object) -> bool:
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            cls = type(a)
            if type(b) is not cls:
                return False
            try:
                if a._hash != b._hash:
                    return False
            except AttributeError:  # one of them has no hash yet
                pass
            if cls is Trans:
                todo += ((a.second, b.second), (a.first, b.first))
            elif cls is Symm:
                todo.append((a.inner, b.inner))
            elif cls is Gen:
                if a.name != b.name:
                    return False
            elif a.point != b.point:
                return False
        return True


class Refl(_Term):
    """Constant path at a named point."""

    __slots__ = _fields = ("point",)

    def __init__(self, point: str) -> None:
        _set_point(self, point)
        _set_hash(self, hash((0, point)))
        _set_size(self, 1)


class Gen(_Term):
    """A generator path, referenced by name."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((1, name)))
        _set_size(self, 1)


class Symm(_Term):
    """Inverse of a path term."""

    __slots__ = _fields = ("inner",)

    def __init__(self, inner: "PathExpr") -> None:
        _set_inner(self, inner)
        _set_size(self, 1 + inner._size)


class Trans(_Term):
    """Composition: first, then second. Requires tgt(first) == src(second)."""

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: "PathExpr", second: "PathExpr") -> None:
        _set_first(self, first)
        _set_second(self, second)
        _set_size(self, 1 + first._size + second._size)


_set_hash, _set_size = _Term._setters[:2]
(_set_point,), (_set_name,), (_set_inner,) = Refl._setters, Gen._setters, Symm._setters
_set_first, _set_second = Trans._setters

PathExpr = Refl | Gen | Symm | Trans


# words live here, not in `rewrite`, as `spaces` folds them at import
class Word(_Record):
    """A freely reduced signed-letter sequence with explicit endpoints,
    so empty words at different points stay distinct."""

    __slots__ = _fields = ("letters", "src", "tgt")

    def __init__(self, letters: tuple[tuple[str, int], ...], src: str, tgt: str) -> None:
        self._fill(letters, src, tgt)


# markers on the work stacks of `endpoints` and `map_path`
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


def free_normalize(space: "SpacePresentation", p: PathExpr) -> Word:
    """The freely reduced word of a term: flatten, push inverses to the
    letters, drop constant paths, cancel adjacent inverse pairs.

    One walk from the root does it all. It carries the sign, as an inverse
    reverses its leg, and the point reached: a term is well formed exactly
    when each atom of its flattening (a letter or a constant path) starts
    where the one before it ends."""
    gens = space.generator_map
    letters: list[tuple[str, int]] = []
    src = at = None
    todo: list[tuple[PathExpr, int]] = [(p, 1)]
    while todo:
        node, sign = todo.pop()
        while True:  # down to the next atom, stacking the legs after it
            cls = type(node)
            if cls is Trans:
                if sign > 0:
                    todo.append((node.second, 1))
                    node = node.first
                else:
                    todo.append((node.first, -1))
                    node = node.second
            elif cls is Symm:
                node, sign = node.inner, -sign
            else:
                break
        if cls is Gen and node.name in gens:
            gen = gens[node.name]
            start, end = (gen.src, gen.tgt) if sign > 0 else (gen.tgt, gen.src)
            if letters and letters[-1] == (node.name, -sign):
                letters.pop()
            else:
                letters.append((node.name, sign))
        elif cls is Refl and node.point in space.point_set:
            start = end = node.point
        else:
            break
        if start != at:
            if at is not None:
                break
            src = start
        at = end
    else:
        return Word(tuple(letters), src, at)
    # ill-formed: raise the first fault in the order `endpoints` meets them
    endpoints(space, p)
    raise AssertionError("endpoints accepted an ill-formed term")


def size(p: PathExpr) -> int:
    """Node count of the term tree."""
    if isinstance(p, _Term):
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
        loop, n = Symm(loop), -n
    return reduce(Trans, [loop] * n)


def map_path(m: SpaceMap, p: PathExpr) -> PathExpr:
    """Push a term through a space map by structural replacement.

    Like `endpoints`, the walk keeps its own stack and meets the nodes left
    to right, so the error raised is the first one in that order."""
    images: list[PathExpr] = []
    todo: list = [p]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Trans:
            todo += (_JOIN, node.second, node.first)
        elif cls is Gen:
            if node.name not in m.gen_map:
                raise UnknownGeneratorError(f"'{node.name}' has no image under the map")
            images.append(m.gen_map[node.name])
        elif cls is Symm:
            todo += (_FLIP, node.inner)
        elif node is _JOIN:
            second = images.pop()
            images[-1] = Trans(images[-1], second)
        elif node is _FLIP:
            images[-1] = Symm(images[-1])
        elif cls is Refl:
            if node.point not in m.point_map:
                raise UnknownPointError(f"'{node.point}' has no image under the map")
            images.append(Refl(m.point_map[node.point]))
        else:
            raise TypeError(f"not a path term: {node!r}")
    return images[0]
