"""Independent cross-checks for the normalizer.

The oracle decides path equality by breadth-first search over single rule
applications, never by comparing normal forms, so it shares no code path
with `normalize`. Search states are terms; edges are reduction steps plus
the size-bounded introduction steps, which makes the step graph symmetric:
within a size cap, the set reachable from a term is its whole equivalence
class, and exhausting it without meeting the target is a genuine "not equal
at this size" answer rather than a timeout, provided the cap admits both
inputs.

Each state is expanded in one pass over its nodes. A term's one-step
rewrites are the steps at its root followed by each child's rewrites
plugged back into it, so positions come in preorder; a subterm's rewrites
are computed once per search, memoized by room and subterm id. A state
yields its reductions as one list and, only if none met the other side,
its introductions as a second. The search restates each rule of the table
in `rewrite` over its own node ids, and its tests hold the two statements
to the same neighbour lists. Neighbour order is part of the contract, as
it fixes the search order and so every explored count: reductions first
in `redexes` order, then the introductions at each position in preorder,
in table order, with cancellation-pair payloads in `enumerate_terms`
order. A search numbers its terms as it builds them, a form of
hash-consing (Filliatre and Conchon, "Type-safe modular hash-consing",
2006): a node is an int id into columns of kind, children, size,
endpoints and search mark, filed under the exact ids of its children, so
equal terms get one id, no structural hash is trusted, and a visited-set
probe is one read of the mark column. Interning an input checks it as
`endpoints` does. The columns die with the search, which hands back plain
terms only through `_Search.term`. `bfs_rw_eq` and `explore_class` share
one search loop, `_bfs`, and one size-cap rule. A search stops, undecided,
when its state budget runs out or once it has made MAX_NEIGHBORS neighbours.

Also here: a deterministic random term generator (a fixed 64-bit linear
congruential generator, so seeds mean the same thing everywhere), exhaustive
loop and term enumerators, a one-step confluence probe, and maps of
presentations (`SpaceMap`), whose check that a relation is preserved may
search where normal forms do not decide.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from functools import lru_cache

from .errors import EndpointMismatchError, SpaceMapError, UnreachableEndpointsError
from .rewrite import (
    _plain_relations,
    apply_step,
    normal_forms_decide,
    normalize,
    redexes,
    rw_eq,
    term_of_word,
)
from .spaces import SpacePresentation
from .terms import (Gen, PathExpr, Refl, Symm, Trans, Word, _Record, endpoints,
                    map_path, size)

DEFAULT_MAX_STATES = 200_000
DEFAULT_SIZE_MARGIN = 6
# The most neighbours one search may generate. Memory grows with the terms
# generated, not the states expanded, and one state can have thousands of
# neighbours; this is about 8x the most any acceptance-gate search needs.
MAX_NEIGHBORS = 1_000_000

# the kinds of a search node
_REFL, _GEN, _SYMM, _TRANS = range(4)

EQUAL = "EQUAL"
NOT_EQUAL_WITHIN_BUDGET = "NOT_EQUAL_WITHIN_BUDGET"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


class Budget(_Record):
    """Search limits. When max_term_size is None, bfs_rw_eq allows the
    larger input plus a fixed margin. Whatever the budget, a search also
    stops once it has generated MAX_NEIGHBORS neighbours."""

    __slots__ = _fields = ("max_states", "max_term_size")

    def __init__(
        self, max_states: int = DEFAULT_MAX_STATES, max_term_size: int | None = None
    ) -> None:
        if max_states < 0:
            raise ValueError(f"max_states must be at least 0, got {max_states}")
        if max_term_size is not None and max_term_size < 1:
            raise ValueError(f"max_term_size must be at least 1, got {max_term_size}")
        self._fill(max_states, max_term_size)


class OracleVerdict(_Record):
    __slots__ = _fields = ("kind", "explored")

    def __init__(self, kind: str, explored: int) -> None:
        self._fill(kind, explored)

    @property
    def is_equal(self) -> bool:
        return self.kind == EQUAL

    @property
    def is_decided(self) -> bool:
        return self.kind != BUDGET_EXHAUSTED


# ---------------------------------------------------------------------------
# seeded randomness

LCG_MUL = 6364136223846793005
LCG_INC = 1442695040888963407
SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator with fixed constants, so a seed
    names the same sample sequence on every platform."""

    def __init__(self, seed: int):
        self.state = (seed ^ SEED_MIX) & _MASK64

    def next_raw(self) -> int:
        self.state = (self.state * LCG_MUL + LCG_INC) & _MASK64
        return self.state >> 33

    def randint(self, bound: int) -> int:
        """Uniform-enough draw from range(bound); bound stays tiny here, so
        the modulo bias is far below anything a test could see."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_raw() % bound

    def choice(self, seq):
        return seq[self.randint(len(seq))]


# ---------------------------------------------------------------------------
# enumeration

def _leaf_options(space: SpacePresentation, src: str, tgt: str) -> tuple[PathExpr, ...]:
    opts: list[PathExpr] = []
    if src == tgt:
        opts.append(Refl(src))
    for g in space.generators:
        if g.src == src and g.tgt == tgt:
            opts.append(Gen(g.name))
    return tuple(opts)


_FEASIBLE: dict[SpacePresentation, list[frozenset[tuple[str, str]]]] = {}


def _feasible_sizes(
    space: SpacePresentation, n: int
) -> list[frozenset[tuple[str, str]]]:
    """For each size from 0 to at least n, the (src, tgt) pairs that some
    term of exactly that many nodes joins, filled in size by size, so a
    deep size needs no recursion. Once two sizes in a row give the same
    pairs, holding every smaller size's and closed under inverse and
    composition, every later size gives them too (`~~t` lifts a size's
    pairs two sizes up, and no term joins a pair outside them), so later
    rows repeat that one unbuilt."""
    table = _FEASIBLE.setdefault(space, [frozenset()])
    points = space.points
    pairs = [(s, t) for s in points for t in points]
    while len(table) <= n:
        m = len(table)
        last = table[-1]
        if m > 2 and last is table[-2]:
            table.append(last)
            continue
        if m == 1:
            row = [(s, t) for s, t in pairs if _leaf_options(space, s, t)]
        else:
            row = [
                (s, t)
                for s, t in pairs
                if (t, s) in table[m - 1]
                or any(
                    (s, mid) in table[k] and (mid, t) in table[m - 1 - k]
                    for k in range(1, m - 1)
                    for mid in points
                )
            ]
        row = frozenset(row)
        if (
            row == last
            and all(r <= row for r in table)
            and all((t, s) in row for s, t in row)
            and all((s, u) in row for s, a in row for b, u in row if a == b)
        ):
            row = last
        table.append(row)
    return table


def _feasible(space: SpacePresentation, n: int, src: str, tgt: str) -> bool:
    return n > 0 and (src, tgt) in _feasible_sizes(space, n)[n]


@lru_cache(maxsize=None)
def enumerate_terms(
    space: SpacePresentation, n: int, src: str, tgt: str
) -> tuple[PathExpr, ...]:
    """Every term of exactly n nodes running src -> tgt. Memoized; keep n
    small."""
    if n <= 0:
        return ()
    if n == 1:
        return _leaf_options(space, src, tgt)
    out: list[PathExpr] = [Symm(q) for q in enumerate_terms(space, n - 1, tgt, src)]
    for k in range(1, n - 1):
        for mid in space.points:
            for left in enumerate_terms(space, k, src, mid):
                for right in enumerate_terms(space, n - 1 - k, mid, tgt):
                    out.append(Trans(left, right))
    return tuple(out)


def enumerate_loops(space: SpacePresentation, max_len: int):
    """All basepoint loop terms whose letter sequences have length at most
    max_len and no adjacent inverse pair, shortest first. Letters are tried
    in generator declaration order, forward before backward, so the stream
    is deterministic."""
    base = space.basepoint
    yield Refl(base)
    for length in range(1, max_len + 1):
        for letters in _loops_of_length(space, base, length):
            yield term_of_word(Word(letters, base, base))


def _loops_of_length(space: SpacePresentation, base: str, length: int):
    def go(point: str, letters: list[tuple[str, int]]):
        if len(letters) == length:
            if point == base:
                yield tuple(letters)
            return
        for g in space.generators:
            if g.src == point and letters[-1:] != [(g.name, -1)]:
                letters.append((g.name, 1))
                yield from go(g.tgt, letters)
                letters.pop()
        for g in space.generators:
            if g.tgt == point and letters[-1:] != [(g.name, 1)]:
                letters.append((g.name, -1))
                yield from go(g.src, letters)
                letters.pop()

    yield from go(base, [])


def random_term(
    space: SpacePresentation,
    n: int,
    rng: Lcg | int,
    src: str | None = None,
    tgt: str | None = None,
) -> PathExpr:
    """A pseudorandom term of exactly n nodes. Pass a seed or a generator;
    pin endpoints to constrain them, else they are drawn. Raises
    UnreachableEndpointsError when no term of that size fits."""
    if isinstance(rng, int):
        rng = Lcg(rng)
    if src is None or tgt is None:
        pairs = [
            (s, t)
            for s in space.points
            for t in space.points
            if (src is None or s == src)
            and (tgt is None or t == tgt)
            and _feasible(space, n, s, t)
        ]
        if not pairs:
            raise UnreachableEndpointsError(
                f"no term of size {n} with the requested endpoints in "
                f"'{space.name}'"
            )
        src, tgt = rng.choice(pairs)
    if not _feasible(space, n, src, tgt):
        raise UnreachableEndpointsError(
            f"no term of size {n} from '{src}' to '{tgt}' in '{space.name}'"
        )
    return _random_term(space, rng, n, src, tgt)


def _random_term(
    space: SpacePresentation, rng: Lcg, n: int, src: str, tgt: str
) -> PathExpr:
    """Draw a node's shape, then its left subterm in full, then its right,
    with an explicit stack of sizes still to draw and constructors still to
    apply, so the size is not bounded by the recursion limit."""
    table = _feasible_sizes(space, n)
    todo: list = [(n, src, tgt)]
    built: list[PathExpr] = []
    while todo:
        job = todo.pop()
        if job is Trans:
            right = built.pop()
            built.append(Trans(built.pop(), right))
            continue
        if job is Symm:
            built.append(Symm(built.pop()))
            continue
        n, src, tgt = job
        if n == 1:
            built.append(rng.choice(_leaf_options(space, src, tgt)))
            continue
        splits = [
            (k, mid)
            for k in range(1, n - 1)
            for mid in space.points
            if (src, mid) in table[k] and (mid, tgt) in table[n - 1 - k]
        ]
        can_symm = (tgt, src) in table[n - 1]
        # Lean toward composition so generated terms branch instead of
        # stacking inverse wrappers.
        if splits and (not can_symm or rng.randint(4) != 0):
            k, mid = rng.choice(splits)
            todo += [Trans, (n - 1 - k, mid, tgt), (k, src, mid)]
        else:
            todo += [Symm, (n - 1, tgt, src)]
    return built[0]


# ---------------------------------------------------------------------------
# the search oracle


class _Search:
    """The nodes of one search, plus what the search reuses.

    Ids start at 1, so a table probe can read `get(key) or build(...)`. A
    composition is filed under its two child ids packed into one int, exact
    while ids stay below 2**32 (memory runs out long before), and an
    inverse under its child's id."""

    def __init__(self, space: SpacePresentation, cap: int | None):
        self.space = space
        self.cap = cap
        self.generated = 0  # neighbours generated so far
        # columns indexed by id, node 0 a placeholder; a mark is 0 until a
        # side of the search reaches the node, then that side's number
        self.kind, self.mark, self.size = bytearray(1), bytearray(1), [0]
        self.first, self.second = [None], [None]  # child ids, or a leaf's name
        self.src, self.tgt = [None], [None]
        self._refls = {pt: self._add(_REFL, pt, None, 1, pt, pt) for pt in space.points}
        self._gens = {
            g.name: self._add(_GEN, g.name, None, 1, g.src, g.tgt)
            for g in space.generators
        }
        self._symms: dict[int, int] = {}  # inner id -> id
        self._transes: dict[int, int] = {}  # first id << 32 | second id -> id
        # (constant path, payload size cap) -> every cancellation pair
        # introducible there, in enumeration order
        self._pairs: dict[tuple[int, int], list[int]] = {}
        # (size, src, tgt) -> the ids of `enumerate_terms`' terms
        self._payloads: dict[tuple[int, str, str], list[int]] = {}
        # room << 32 | subterm -> its reductions, or its introductions
        self._reductions_of: dict[int, list[int]] = {}
        self._introductions_of: dict[int, list[int]] = {}
        self.relations = {
            self.intern(side): [self.intern(new) for _, new in rows]
            for side, rows in _plain_relations(space).items()
        }

    def _add(self, kind: int, first, second, n: int, src: str, tgt: str) -> int:
        self.kind.append(kind)
        self.first.append(first)
        self.second.append(second)
        self.size.append(n)
        self.src.append(src)
        self.tgt.append(tgt)
        self.mark.append(0)
        return len(self.mark) - 1

    def symm(self, inner: int) -> int:
        i = self._symms.get(inner)
        if i is None:
            i = self._symms[inner] = self._add(
                _SYMM, inner, None, self.size[inner] + 1, self.tgt[inner], self.src[inner]
            )
        return i

    def trans(self, first: int, second: int) -> int:
        key = first << 32 | second
        return self._transes.get(key) or self._new_trans(key, first, second)

    def _new_trans(self, key: int, first: int, second: int) -> int:
        i = self._transes[key] = self._add(
            _TRANS, first, second, self.size[first] + self.size[second] + 1,
            self.src[first], self.tgt[second],
        )
        return i

    def intern(self, t: PathExpr) -> int:
        """The id of a plain term, its nodes numbered in post-order, left leg
        first, without recursion: a node's class waits under its children.
        At a fault it defers to `endpoints`, which walks in the same order."""
        root, ids, todo = t, [], [t]
        while todo:
            t = todo.pop()
            cls = type(t)
            if cls is Trans:
                todo += (Trans, t.second, t.first)
            elif t is Trans:
                second = ids.pop()
                if self.tgt[ids[-1]] != self.src[second]:
                    endpoints(self.space, root)
                ids[-1] = self.trans(ids[-1], second)
            elif cls is Symm:
                todo += (Symm, t.inner)
            elif t is Symm:
                ids[-1] = self.symm(ids[-1])
            else:  # a leaf; `endpoints` raises on one the space lacks
                i = (self._gens.get(t.name) if cls is Gen
                     else self._refls.get(t.point) if cls is Refl else None)
                ids.append(endpoints(self.space, t) if i is None else i)
        return ids[0]

    def term(self, i: int) -> PathExpr:
        """The plain term of an id; a node's complement waits under its children."""
        kind, first, second, built, todo = self.kind, self.first, self.second, [], [i]
        while todo:
            i = todo.pop()
            if i < 0:
                last = built.pop()
                built.append(Symm(last) if kind[~i] == _SYMM else Trans(built.pop(), last))
            elif kind[i] < _SYMM:
                built.append(Refl(first[i]) if kind[i] == _REFL else Gen(first[i]))
            else:
                todo += (~i, first[i]) if kind[i] == _SYMM else (~i, second[i], first[i])
        return built[0]

    def neighbors(self, t: int) -> Iterator[list[int]]:
        """Every term one step from t within the size cap, in a fixed order
        that decides the search order: a list of the reductions in `redexes`
        order, then, once that is used, one of the introductions in preorder."""
        for here, memo in ((self.reductions_here, self._reductions_of),
                           (self.introductions_here, self._introductions_of)):
            out = self.rewrites(here, memo, t, self.cap)
            self.generated += len(out)
            yield out

    # A term's one-step rewrites are built from its children's: the steps at
    # its root, then each child's rewrites plugged back into it, which is
    # positions in preorder. `room` is the most nodes the rewritten term may
    # have, so a child's room is its parent's less the parent's other nodes.
    # A subterm recurs across many states, so its rewrites are kept for the
    # rest of the search in a flat memo keyed room << 32 | subterm (exact for
    # a negative room too); a state's own list is used once and is not. A
    # child's list and each plugged node take one inline probe, and a node
    # is built only when new. Plugging is a plain loop, as a comprehension
    # on Python 3.11 makes a function and closure cells on every call.

    def rewrites(self, here, memo: dict, t: int, room: int) -> list[int]:
        """Every term one `here` step from t, at any position, with at most
        `room` nodes."""
        out = here(t, room)
        kind = self.kind[t]
        if kind == _TRANS:
            first, second, size = self.first[t], self.second[t], self.size
            get, new, high = self._transes.get, self._new_trans, first << 32
            sub = room - 1 - size[second]
            if (inside := memo.get(key := sub << 32 | first)) is None:
                inside = memo[key] = self.rewrites(here, memo, first, sub)
            for x in inside:
                k = x << 32 | second
                out.append(get(k) or new(k, x, second))
            sub = room - 1 - size[first]
            if (inside := memo.get(key := sub << 32 | second)) is None:
                inside = memo[key] = self.rewrites(here, memo, second, sub)
            for x in inside:
                k = high | x
                out.append(get(k) or new(k, first, x))
        elif kind == _SYMM:
            inner, sub = self.first[t], room - 1
            if (inside := memo.get(key := sub << 32 | inner)) is None:
                inside = memo[key] = self.rewrites(here, memo, inner, sub)
            get, symm = self._symms.get, self.symm
            for x in inside:
                out.append(get(x) or symm(x))
        return out

    # The rules below restate the rows of `rewrite`'s rule table over ids,
    # in table order; `TestNeighborOrder` holds them equal to `apply_step`.

    def reductions_here(self, t: int, room: int) -> list[int]:
        """The reductions at t's root, in `redexes` order."""
        kind, first, second, trans = self.kind, self.first, self.second, self.trans
        out = []
        if kind[t] == _TRANS:
            a, b = first[t], second[t]
            if kind[a] == _REFL:  # trans_refl_left
                out.append(b)
            if kind[b] == _REFL:  # trans_refl_right
                out.append(a)
            # symm_trans_cancel and trans_symm_cancel, which never both fit
            if kind[a] == _SYMM and first[a] == b or kind[b] == _SYMM and first[b] == a:
                out.append(self._refls[self.src[t]])
            if kind[a] == _TRANS:  # assoc_left
                out.append(trans(first[a], trans(second[a], b)))
            if kind[b] == _TRANS:  # assoc_right
                out.append(trans(trans(a, first[b]), second[b]))
        elif kind[t] == _SYMM:
            a = first[t]
            if kind[a] == _REFL:  # symm_refl
                out.append(a)
            elif kind[a] == _SYMM:  # symm_symm
                out.append(first[a])
            elif kind[a] == _TRANS:  # symm_trans_congr
                out.append(trans(self.symm(second[a]), self.symm(first[a])))
        out += self.relations.get(t, ())
        size = self.size
        return [new for new in out if size[new] <= room]

    def introductions_here(self, t: int, room: int) -> list[int]:
        """The introductions at t's root, in table order; at a constant path
        the cancellation pairs come last."""
        kind, first, trans, symm = self.kind, self.first, self.trans, self.symm
        grow = room - self.size[t]
        out = []
        if grow >= 2:  # trans_refl_left, trans_refl_right, symm_symm
            out += [
                trans(self._refls[self.src[t]], t),
                trans(t, self._refls[self.tgt[t]]),
                symm(symm(t)),
            ]
        if kind[t] == _TRANS and grow >= -1:  # symm_trans_congr
            a, b = first[t], self.second[t]
            if kind[a] == _SYMM and kind[b] == _SYMM:
                out.append(symm(trans(first[b], first[a])))
        elif kind[t] == _REFL:
            if grow >= 1:  # symm_refl
                out.append(symm(t))
            out += self.cancel_pairs(t, (room - 2) // 2)
        return out

    def cancel_pairs(self, refl: int, max_payload: int) -> list[int]:
        """Every cancellation pair with a payload of at most `max_payload`
        nodes that can stand for the constant path `refl`: per payload size,
        then per point, the ~q.q pairs before the q.~q ones."""
        key = (refl, max_payload)
        pairs = self._pairs.get(key)
        if pairs is None:
            point, trans, symm = self.first[refl], self.trans, self.symm
            pairs = self._pairs[key] = []
            for qn in range(1, max_payload + 1):
                for other in self.space.points:
                    pairs += [trans(symm(q), q) for q in self.payloads(qn, other, point)]
                    pairs += [trans(q, symm(q)) for q in self.payloads(qn, point, other)]
        return pairs

    def payloads(self, n: int, src: str, tgt: str) -> list[int]:
        """The ids of every term of n nodes from src to tgt, in
        `enumerate_terms` order, built from the ids of smaller sizes."""
        key = (n, src, tgt)
        out = self._payloads.get(key)
        if out is None:
            ids = self.payloads
            out = self._payloads[key] = (
                [self.intern(q) for q in _leaf_options(self.space, src, tgt)] if n == 1
                else [self.symm(q) for q in ids(n - 1, tgt, src)]
            ) + [
                self.trans(left, right)
                for k in range(1, n - 1) for mid in self.space.points
                for left in ids(k, src, mid) for right in ids(n - 1 - k, mid, tgt)
            ]
        return out


def _size_cap(budget: Budget, *terms: PathExpr) -> int:
    """The budget's size cap, or else the largest term plus the margin."""
    cap = budget.max_term_size
    return max(map(size, terms)) + DEFAULT_SIZE_MARGIN if cap is None else cap


def _bfs(
    space: SpacePresentation, starts: tuple[PathExpr, ...], budget: Budget
) -> tuple[_Search, int, bool | None]:
    """Search from one start, or from two until their sides meet, always
    expanding the thinner frontier (side 1 on a tie; a lone start's frontier
    is both). Returns the search, the states explored and whether the sides
    met, None when the state budget or MAX_NEIGHBORS ran out first."""
    search = _Search(space, None)  # the cap waits until the starts intern
    fronts = [deque([search.intern(t)]) for t in starts]
    front_p, front_q = fronts[0], fronts[-1]
    p, q = front_p[0], front_q[0]
    if search.src[p] != search.src[q] or search.tgt[p] != search.tgt[q]:
        raise EndpointMismatchError("the oracle compares paths with identical endpoints")
    if p == q and front_p is not front_q:  # equal starts meet at once
        return search, 0, True
    search.cap = _size_cap(budget, *starts)
    mark = search.mark
    mark[q], mark[p] = 2, 1  # a lone start, both p and q, is side 1
    explored = 0
    while front_p and front_q:
        if explored >= budget.max_states or search.generated >= MAX_NEIGHBORS:
            return search, explored, None
        if len(front_p) <= len(front_q):
            frontier, side = front_p, 1
        else:
            frontier, side = front_q, 2
        t = frontier.popleft()
        explored += 1
        for out in search.neighbors(t):
            for nb in out:
                seen = mark[nb]
                if seen != side:
                    if seen:
                        return search, explored, True
                    mark[nb] = side
                    frontier.append(nb)
    return search, explored, False


def bfs_rw_eq(
    space: SpacePresentation, p: PathExpr, q: PathExpr, budget: Budget | None = None
) -> OracleVerdict:
    """Search for a rewrite derivation between p and q. EQUAL is definitive;
    NOT_EQUAL_WITHIN_BUDGET means one side's entire size-capped class was
    enumerated without meeting the other. BUDGET_EXHAUSTED decides nothing:
    the state budget or MAX_NEIGHBORS ran out, or a class ran out under a
    cap below an input's size, which can cut that input off from its class.

    The search runs from both ends at once. Every step has an inverse step,
    so a meeting point witnesses a full derivation."""
    search, explored, met = _bfs(space, (p, q), budget or Budget())
    if met:
        return OracleVerdict(EQUAL, explored)
    if met is None or search.cap < max(size(p), size(q)):
        return OracleVerdict(BUDGET_EXHAUSTED, explored)
    return OracleVerdict(NOT_EQUAL_WITHIN_BUDGET, explored)


def explore_class(
    space: SpacePresentation, p: PathExpr, budget: Budget | None = None
) -> tuple[set[PathExpr], bool]:
    """All terms reachable from p within the budget, plus whether the
    enumeration finished. A finished set is the entire equivalence class of
    p among terms within the size cap; a p larger than the cap never
    finishes, and neither does a search that generates MAX_NEIGHBORS
    neighbours."""
    search, _, met = _bfs(space, (p,), budget or Budget())
    finished = met is not None and size(p) <= search.cap
    return {search.term(i) for i, seen in enumerate(search.mark) if seen}, finished


# states the search oracle may spend proving one relation preserved, where
# `rw_eq` is undecided
PRESERVATION_STATES = 2_000


class SpaceMap(_Record):
    """A map of presentations: points to points, generators to target terms.

    Construction eagerly checks that generator images connect the mapped
    endpoints and that both sides of every source relation stay equal in the
    target, so an ill-defined map never escapes into map_path. Where
    `rw_eq` leaves a relation undecided, the search oracle must join its
    sides within PRESERVATION_STATES states, or the map is undecided,
    which raises too.
    """

    __slots__ = _fields = ("source", "target", "point_map", "gen_map")

    def __init__(
        self, source: SpacePresentation, target: SpacePresentation,
        point_map: Mapping[str, str], gen_map: Mapping[str, PathExpr],
    ) -> None:
        self._fill(source, target, point_map, gen_map)
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
        for rel in self.source.relations:
            lhs = map_path(self, rel.lhs)
            rhs = map_path(self, rel.rhs)
            preserved = rw_eq(self.target, lhs, rhs)
            if preserved:
                continue
            if preserved is False:
                raise SpaceMapError(
                    f"relation '{rel.name}' is not preserved by the map"
                )
            # undecided: a short search's derivation proves preservation
            budget = Budget(max_states=PRESERVATION_STATES)
            if not bfs_rw_eq(self.target, lhs, rhs, budget).is_equal:
                raise SpaceMapError(
                    f"preservation of relation '{rel.name}' is undecided: "
                    f"no derivation in the target within {PRESERVATION_STATES} "
                    "search states"
                )


def local_confluence_probe(space: SpacePresentation, p: PathExpr) -> bool:
    """Every single reduction step out of p lands on a term with p's normal
    form. A False is a confluence counterexample. Where normal forms ignore
    the space's relations, relation steps are not checked."""
    target = normalize(space, p)
    relations_too = normal_forms_decide(space)
    for step in redexes(space, p):
        if relations_too or step.rule.relation is None:
            if normalize(space, apply_step(space, p, step)) != target:
                return False
    return True
