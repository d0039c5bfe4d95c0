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
and endpoints are computed once per search and reused by every state that
contains it. Every step's local effect, reduction or introduction, comes
from the rule table in `rewrite`, built with the search's constructors.
Neighbour order is part of the contract, since it fixes the search order
and so every explored count: reductions first in `redexes` order, then the
introductions at each position in preorder, in table order, with
cancellation-pair payloads in `enumerate_terms` order. A search builds its
terms through its own hash-consing table (Filliatre and Conchon, "Type-safe
modular hash-consing", 2006), so equal terms are one object and visited-set
hits are identity hits. As there, the table needs no key objects: a node is
filed under a hash that it or its child already stores, and a hit is
confirmed by the identity of its children. The table is dropped when the
search returns, and term equality stays structural, so no answer depends
on it. A search stops, undecided, when its state budget runs out or once
it has generated MAX_NEIGHBORS neighbours, which is what bounds its memory.

Also here: a deterministic random term generator (a fixed 64-bit linear
congruential generator, so seeds mean the same thing everywhere), exhaustive
loop and term enumerators, and a one-step confluence probe.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import EndpointMismatchError, UnreachableEndpointsError
from .rewrite import (
    SYMM_TRANS_CANCEL_INTRO,
    TRANS_SYMM_CANCEL_INTRO,
    Word,
    _INTRODUCTIONS_AT,
    _RULES,
    _reduce_at,
    _relation_table,
    _shape,
    apply_step,
    normal_forms_decide,
    normalize,
    redexes,
    term_of_word,
)
from .spaces import SpacePresentation
from .terms import Gen, PathExpr, Refl, Symm, Trans, endpoints, size

DEFAULT_MAX_STATES = 200_000
DEFAULT_SIZE_MARGIN = 6
# The most neighbours one search may generate. Memory grows with the terms
# generated, not the states expanded, and one state can have thousands of
# neighbours; this is about 8x the most any acceptance-gate search needs.
MAX_NEIGHBORS = 1_000_000

# the two cancellation-pair introductions' effects, which wrap a payload
_CANCEL_LEFT = _RULES[(Refl,), SYMM_TRANS_CANCEL_INTRO.kind][1]
_CANCEL_RIGHT = _RULES[(Refl,), TRANS_SYMM_CANCEL_INTRO.kind][1]

EQUAL = "EQUAL"
NOT_EQUAL_WITHIN_BUDGET = "NOT_EQUAL_WITHIN_BUDGET"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


@dataclass(frozen=True)
class Budget:
    """Search limits. When max_term_size is None, bfs_rw_eq allows the
    larger input plus a fixed margin. Whatever the budget, a search also
    stops once it has generated MAX_NEIGHBORS neighbours."""

    max_states: int = DEFAULT_MAX_STATES
    max_term_size: int | None = None

    def __post_init__(self) -> None:
        if self.max_states < 0:
            raise ValueError(f"max_states must be at least 0, got {self.max_states}")
        if self.max_term_size is not None and self.max_term_size < 1:
            raise ValueError(
                f"max_term_size must be at least 1, got {self.max_term_size}"
            )


@dataclass(frozen=True)
class OracleVerdict:
    kind: str
    explored: int

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
    out: list[PathExpr] = [
        Symm(q) for q in enumerate_terms(space, n - 1, tgt, src)
    ]
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
    """The hash-consing table of one search, plus what the search reuses.

    No table makes key objects of its own. A composition built through it
    is filed under the int its `_hash` slot holds, an inverse under the one
    its inner term's slot holds, and a hit is confirmed by the identity of
    the children; the rare term whose key another term already holds is
    filed under itself. So equal terms built during one search are one
    object and the search's set lookups hit on identity. Endpoints and
    rewrite lists are keyed by the term itself, and endpoint pairs are
    shared. The table lives only as long as the search that made it.
    Equality and hashing stay structural, so a term built outside the table
    still matches."""

    def __init__(self, space: SpacePresentation, cap: int):
        self.space = space
        self.cap = cap
        self.generated = 0  # neighbours generated so far
        self._refls: dict[str, Refl] = {}
        self._gens: dict[str, Gen] = {}
        # inner's hash -> Symm, own hash -> Trans; clashing nodes key themselves
        self._symms: dict[int | Symm, Symm] = {}
        self._transes: dict[int | Trans, Trans] = {}
        # (point, payload size cap) -> every cancellation pair introducible
        # at a constant path there, in enumeration order
        self._pairs: dict[tuple[str, int], list[PathExpr]] = {}
        # (size, src, tgt) -> the table's copies of `enumerate_terms`' terms
        self._payloads: dict[tuple[int, str, str], list[PathExpr]] = {}
        self._ends: dict[PathExpr, tuple[str, str]] = {}
        self._end_pairs: dict[tuple[str, str], tuple[str, str]] = {}
        # room -> subterm -> its reductions, or its introductions
        self._reductions_of: dict[int, dict] = {}
        self._introductions_of: dict[int, dict] = {}
        self.relations = _relation_table(space, self.intern)

    def refl(self, point: str) -> Refl:
        t = self._refls.get(point)
        if t is None:
            t = self._refls[point] = Refl(point)
        return t

    def symm(self, inner: PathExpr) -> Symm:
        t = self._symms.get(inner._hash)
        if t is None:
            t = self._symms[inner._hash] = Symm(inner)
        elif t.inner is not inner:
            new = Symm(inner)
            t = self._symms.setdefault(new, new)
        return t

    def trans(self, first: PathExpr, second: PathExpr) -> Trans:
        # probe with the hash the node will hold, computed as `terms` does
        t = self._transes.get(hash((3, first._hash, second._hash)))
        if t is None:
            t = Trans(first, second)
            self._transes[t._hash] = t
        elif t.first is not first or t.second is not second:
            new = Trans(first, second)
            t = self._transes.setdefault(new, new)
        return t

    def intern(self, t: PathExpr) -> PathExpr:
        """The table's copy of a term built elsewhere."""
        if isinstance(t, Trans):
            return self.trans(self.intern(t.first), self.intern(t.second))
        if isinstance(t, Symm):
            return self.symm(self.intern(t.inner))
        if isinstance(t, Refl):
            return self.refl(t.point)
        g = self._gens.get(t.name)
        if g is None:
            g = self._gens[t.name] = Gen(t.name)
        return g

    def ends(self, t: PathExpr) -> tuple[str, str]:
        e = self._ends.get(t)
        if e is None:
            cls = type(t)
            if cls is Trans:
                e = (self.ends(t.first)[0], self.ends(t.second)[1])
            elif cls is Symm:
                tgt, src = self.ends(t.inner)
                e = (src, tgt)
            elif cls is Refl:
                e = (t.point, t.point)
            else:
                g = self.space.generator_map[t.name]
                e = (g.src, g.tgt)
            self._ends[t] = e = self._end_pairs.setdefault(e, e)
        return e

    def neighbors(self, t: PathExpr) -> Iterator[PathExpr]:
        """Every term one step from t within the size cap, in a fixed order
        that decides the search order: reductions in `redexes` order, then
        the introductions at each position in preorder."""
        cap = self.cap
        out = self.rewrites(self.reductions_here, self._reductions_of, t, cap)
        self.generated += len(out)
        yield from out
        out = self.rewrites(self.introductions_here, self._introductions_of, t, cap)
        self.generated += len(out)
        yield from out

    # A term's one-step rewrites are built from its children's: the steps at
    # its root, then each child's rewrites plugged back into it, which is
    # positions in preorder. `room` is the most nodes the rewritten term may
    # have, so a child's room is its parent's less the parent's other nodes.
    # A subterm recurs across many states, so its rewrites are kept for the
    # rest of the search; a state's own list is used once and is not.

    def rewrites(self, here, memo: dict, t: PathExpr, room: int) -> list[PathExpr]:
        """Every term one `here` step from t, at any position, with at most
        `room` nodes."""
        out = here(t, room)
        cls = type(t)
        if cls is Trans:
            first, second, n, trans = t.first, t.second, t._size, self.trans
            inside = self._inside(here, memo, first, room - n + first._size)
            out += [trans(x, second) for x in inside]
            inside = self._inside(here, memo, second, room - n + second._size)
            out += [trans(first, x) for x in inside]
        elif cls is Symm:
            symm = self.symm
            out += [symm(x) for x in self._inside(here, memo, t.inner, room - 1)]
        return out

    def _inside(self, here, memo: dict, t: PathExpr, room: int) -> list[PathExpr]:
        at_room = memo.get(room)
        if at_room is None:
            at_room = memo[room] = {}
        out = at_room.get(t)
        if out is None:
            out = at_room[t] = self.rewrites(here, memo, t, room)
        return out

    def reductions_here(self, t: PathExpr, room: int) -> list[PathExpr]:
        """The reductions at t's root, in `redexes` order."""
        return [
            new for _, new in _reduce_at(t, self.ends(t), self.relations, self)
            if new._size <= room
        ]

    def introductions_here(self, t: PathExpr, room: int) -> list[PathExpr]:
        """The introductions at t's root, in the order of the table in
        `rewrite`; at a constant path the cancellation pairs come last."""
        ends = self.ends(t)
        grow = room - t._size
        out = [
            effect(t, ends, self)
            for adds, effect in _INTRODUCTIONS_AT[_shape(t)]
            if adds <= grow
        ]
        if type(t) is Refl:
            out += self.cancel_pairs(t, (room - 2) // 2)
        return out

    def cancel_pairs(self, refl: Refl, max_payload: int) -> list[PathExpr]:
        """Every cancellation pair with a payload of at most `max_payload`
        nodes that can stand for the constant path `refl`: per payload size,
        then per point, the ~q.q pairs before the q.~q ones."""
        point = refl.point
        key = (point, max_payload)
        pairs = self._pairs.get(key)
        if pairs is None:
            pairs = self._pairs[key] = []
            for qn in range(1, max_payload + 1):
                for other in self.space.points:
                    for q in self.payloads(qn, other, point):
                        pairs.append(_CANCEL_LEFT(refl, q, self))
                    for q in self.payloads(qn, point, other):
                        pairs.append(_CANCEL_RIGHT(refl, q, self))
        return pairs

    def payloads(self, n: int, src: str, tgt: str) -> list[PathExpr]:
        """Every term of n nodes from src to tgt, interned once per search."""
        key = (n, src, tgt)
        out = self._payloads.get(key)
        if out is None:
            terms = enumerate_terms(self.space, n, src, tgt)
            out = self._payloads[key] = [self.intern(q) for q in terms]
        return out


def bfs_rw_eq(
    space: SpacePresentation,
    p: PathExpr,
    q: PathExpr,
    budget: Budget | None = None,
) -> OracleVerdict:
    """Search for a rewrite derivation between p and q. EQUAL is definitive;
    NOT_EQUAL_WITHIN_BUDGET means one side's entire size-capped class was
    enumerated without meeting the other; BUDGET_EXHAUSTED decides nothing.
    A cap below either input's size can cut that input off from its class,
    so running out then is BUDGET_EXHAUSTED too, as is generating
    MAX_NEIGHBORS neighbours before the state budget runs out.

    The search runs from both ends at once. Every step has an inverse step,
    so an edge usable in one direction is usable in the other and a meeting
    point witnesses a full derivation."""
    if endpoints(space, p) != endpoints(space, q):
        raise EndpointMismatchError(
            "the oracle compares paths with identical endpoints"
        )
    if budget is None:
        budget = Budget()
    largest = max(size(p), size(q))
    cap = budget.max_term_size
    if cap is None:
        cap = largest + DEFAULT_SIZE_MARGIN
    if p == q:
        return OracleVerdict(EQUAL, 0)
    search = _Search(space, cap)
    p, q = search.intern(p), search.intern(q)
    seen_p: set[PathExpr] = {p}
    seen_q: set[PathExpr] = {q}
    front_p: deque[PathExpr] = deque([p])
    front_q: deque[PathExpr] = deque([q])
    explored = 0
    while front_p and front_q:
        if explored >= budget.max_states or search.generated >= MAX_NEIGHBORS:
            return OracleVerdict(BUDGET_EXHAUSTED, explored)
        # expand the thinner side
        if len(front_p) <= len(front_q):
            frontier, seen, other = front_p, seen_p, seen_q
        else:
            frontier, seen, other = front_q, seen_q, seen_p
        t = frontier.popleft()
        explored += 1
        for nb in search.neighbors(t):
            if nb in other:
                return OracleVerdict(EQUAL, explored)
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    if cap < largest:
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
    endpoints(space, p)
    if budget is None:
        budget = Budget()
    cap = budget.max_term_size
    if cap is None:
        cap = size(p) + DEFAULT_SIZE_MARGIN
    search = _Search(space, cap)
    p = search.intern(p)
    seen = {p}
    frontier: deque[PathExpr] = deque([p])
    explored = 0
    while frontier:
        if explored >= budget.max_states or search.generated >= MAX_NEIGHBORS:
            return seen, False
        t = frontier.popleft()
        explored += 1
        for nb in search.neighbors(t):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen, size(p) <= cap


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
