"""Rewrite-equivalence classes of paths and the groupoid operations on them.

A PathClass is the quotient view of a path term: two terms land in the same
class exactly when normalization agrees. Operations work on canonical
representatives (the normal-form word read back as a term), so composing,
inverting, and powering classes always stays canonical. On a file space
with relations, PathClass equality is equality of free normal forms: two
classes may differ while the relations equate their paths.
"""

from __future__ import annotations

from .errors import EndpointMismatchError, SpaceMismatchError, UnknownPointError
from .rewrite import NormalForm, normalize, term_of_word
from .spaces import SpacePresentation
from .terms import PathExpr, Refl, Symm, Trans, _Record, zpow


class PathClass(_Record):
    """An equivalence class of paths, identified by space name and normal
    form. The presentation rides along for further operations but stays out
    of equality, hashing and the repr."""

    _fields = ("space_name", "nf", "src", "tgt")
    __slots__ = ("space", *_fields)

    def __init__(
        self, space: SpacePresentation, space_name: str, nf: NormalForm, src: str, tgt: str
    ) -> None:
        self._fill(space, space_name, nf, src, tgt)

    def representative(self) -> PathExpr:
        return term_of_word(self.nf.word)


def class_of(space: SpacePresentation, p: PathExpr) -> PathClass:
    nf = normalize(space, p)
    return PathClass(space, space.name, nf, nf.word.src, nf.word.tgt)


def identity(space: SpacePresentation, point: str) -> PathClass:
    if point not in space.point_set:
        raise UnknownPointError(f"unknown point '{point}' in '{space.name}'")
    return class_of(space, Refl(point))


def _same_space(c1: PathClass, c2: PathClass) -> None:
    if c1.space_name != c2.space_name:
        raise SpaceMismatchError(
            f"cannot combine classes from '{c1.space_name}' and '{c2.space_name}'"
        )


def comp(c1: PathClass, c2: PathClass) -> PathClass:
    """Compose classes end to start; endpoints must meet."""
    _same_space(c1, c2)
    if c1.tgt != c2.src:
        raise EndpointMismatchError(
            f"cannot compose: first ends at '{c1.tgt}', second starts at '{c2.src}'"
        )
    return class_of(c1.space, Trans(c1.representative(), c2.representative()))


def inv(c: PathClass) -> PathClass:
    return class_of(c.space, Symm(c.representative()))


def zpow_class(c: PathClass, n: int) -> PathClass:
    """Integer power of a loop class; negative exponents invert."""
    return class_of(c.space, zpow(c.space, c.representative(), n))
