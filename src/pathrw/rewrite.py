"""Rewrite rules on path terms, normal forms, and replayable certificates.

The reduction rules, in the order `redexes` tries them at each position:

    trans_refl_left    refl . p          ->  p
    trans_refl_right   p . refl          ->  p
    symm_trans_cancel  ~p . p            ->  refl
    trans_symm_cancel  p . ~p            ->  refl
    symm_refl          ~refl             ->  refl
    symm_symm          ~~p               ->  p
    symm_trans_congr   ~(p . q)          ->  ~q . ~p
    assoc_left         (p . q) . r       ->  p . (q . r)
    assoc_right        p . (q . r)       ->  (p . q) . r
    relation_fwd(R)    lhs of R          ->  rhs of R     (exact match)
    relation_bwd(R)    rhs of R          ->  lhs of R     (exact match)

Cancellation fires only on structurally equal operands. Positions address
subterms by child index: 0 under an inverse node or the first leg of a
composition, 1 the second leg.

Every rule above that is not its own inverse also has an `*_intro`
counterpart running right to left (unit introduction, cancellation-pair
introduction with an explicit payload term, inverse-of-inverse introduction,
congruence folding). Intro rules never appear in `redexes`; they exist so
that any derivation in the symmetric closure of the rules, including the
relation-driven rewriting in the builtins' spine rules, can be written as
a plain forward step list and replayed with `apply_step`.

`normalize` computes words directly: leaf fold, stack cancellation, then
the canonical-word rule of the space's record in the builtin table (see
`spaces`). Most builtins fold the letters into their group element (m, n)
and write a^m b^n; the cylinder substitutes its far loop and reduces again;
a space without a record keeps its freely reduced word. `trace` performs
the same normalization as an explicit rule-by-rule derivation and records
it: it flattens the term into a right-nested spine of letters, then
rewrites the spine by tiers of spine rules. A tier maps a pattern of one
letter or two adjacent letters to a step template; free cancellation is
the first tier, and the relation tiers the record names follow. The two
routes are independent and the tests hold them equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import EndpointMismatchError, StepNotEnabledError
from .spaces import _builtin_record
from .terms import Gen, PathExpr, Refl, Symm, Trans, endpoints

if TYPE_CHECKING:
    from .spaces import Relation, SpacePresentation

Position = tuple[int, ...]


@dataclass(frozen=True)
class RuleId:
    """A rewrite rule identifier; relation rules carry the relation name."""

    kind: str
    relation: str | None = None

    def __str__(self) -> str:
        if self.relation is None:
            return self.kind
        return f"{self.kind}({self.relation})"


TRANS_REFL_LEFT = RuleId("trans_refl_left")
TRANS_REFL_RIGHT = RuleId("trans_refl_right")
SYMM_TRANS_CANCEL = RuleId("symm_trans_cancel")
TRANS_SYMM_CANCEL = RuleId("trans_symm_cancel")
SYMM_REFL = RuleId("symm_refl")
SYMM_SYMM = RuleId("symm_symm")
SYMM_TRANS_CONGR = RuleId("symm_trans_congr")
ASSOC_LEFT = RuleId("assoc_left")
ASSOC_RIGHT = RuleId("assoc_right")

TRANS_REFL_LEFT_INTRO = RuleId("trans_refl_left_intro")
TRANS_REFL_RIGHT_INTRO = RuleId("trans_refl_right_intro")
SYMM_TRANS_CANCEL_INTRO = RuleId("symm_trans_cancel_intro")
TRANS_SYMM_CANCEL_INTRO = RuleId("trans_symm_cancel_intro")
SYMM_REFL_INTRO = RuleId("symm_refl_intro")
SYMM_SYMM_INTRO = RuleId("symm_symm_intro")
SYMM_TRANS_CONGR_INTRO = RuleId("symm_trans_congr_intro")

GROUPOID_REDUCTION_RULES = (
    TRANS_REFL_LEFT,
    TRANS_REFL_RIGHT,
    SYMM_TRANS_CANCEL,
    TRANS_SYMM_CANCEL,
    SYMM_REFL,
    SYMM_SYMM,
    SYMM_TRANS_CONGR,
    ASSOC_LEFT,
    ASSOC_RIGHT,
)


def relation_fwd(name: str) -> RuleId:
    return RuleId("relation_fwd", name)


def relation_bwd(name: str) -> RuleId:
    return RuleId("relation_bwd", name)


@dataclass(frozen=True)
class RewriteStep:
    """One rule application at one position, with a payload where the rule
    needs an instantiating term (cancellation introduction only)."""

    rule: RuleId
    at: Position = ()
    payload: PathExpr | None = None


@dataclass(frozen=True)
class Word:
    """A freely reduced signed-letter sequence with explicit endpoints,
    so empty words at different points stay distinct."""

    letters: tuple[tuple[str, int], ...]
    src: str
    tgt: str


@dataclass(frozen=True)
class NormalForm:
    """A word in the canonical shape the space's strategy produces."""

    word: Word


def format_position(pos: Position) -> str:
    if not pos:
        return "root"
    return ".".join(str(i) for i in pos)


def format_step(step: RewriteStep, space: "SpacePresentation | None" = None) -> str:
    base = f"{step.rule} @ {format_position(step.at)}"
    if step.payload is None:
        return base
    if space is not None:
        from .syntax import render_path

        return f"{base} [{render_path(space, step.payload)}]"
    return f"{base} [payload]"


# ---------------------------------------------------------------------------
# positions and local rewriting


def subterm_at(p: PathExpr, pos: Position) -> PathExpr:
    cur = p
    for idx in pos:
        if isinstance(cur, Symm) and idx == 0:
            cur = cur.inner
        elif isinstance(cur, Trans) and idx == 0:
            cur = cur.first
        elif isinstance(cur, Trans) and idx == 1:
            cur = cur.second
        else:
            raise StepNotEnabledError(
                f"no subterm at position {format_position(pos)}"
            )
    return cur


def _replace_at(p: PathExpr, pos: Position, new: PathExpr) -> PathExpr:
    if not pos:
        return new
    idx = pos[0]
    rest = pos[1:]
    if isinstance(p, Symm) and idx == 0:
        return Symm(_replace_at(p.inner, rest, new))
    if isinstance(p, Trans) and idx == 0:
        return Trans(_replace_at(p.first, rest, new), p.second)
    if isinstance(p, Trans) and idx == 1:
        return Trans(p.first, _replace_at(p.second, rest, new))
    raise StepNotEnabledError(f"no subterm at position {format_position(pos)}")


def _preorder(p: PathExpr, pos: Position = ()) -> Iterator[tuple[Position, PathExpr]]:
    yield pos, p
    if isinstance(p, Symm):
        yield from _preorder(p.inner, pos + (0,))
    elif isinstance(p, Trans):
        yield from _preorder(p.first, pos + (0,))
        yield from _preorder(p.second, pos + (1,))


@lru_cache(maxsize=128)
def _relation_map(space: "SpacePresentation") -> dict:
    return {rel.name: rel for rel in space.relations}


def _local_result(
    space: "SpacePresentation",
    sub: PathExpr,
    rule: RuleId,
    payload: PathExpr | None,
) -> PathExpr | None:
    """Result of rewriting `sub` in place by `rule`, or None if not enabled."""
    k = rule.kind
    if k == "trans_refl_left":
        if isinstance(sub, Trans) and isinstance(sub.first, Refl):
            return sub.second
    elif k == "trans_refl_right":
        if isinstance(sub, Trans) and isinstance(sub.second, Refl):
            return sub.first
    elif k == "symm_trans_cancel":
        if (
            isinstance(sub, Trans)
            and isinstance(sub.first, Symm)
            and sub.first.inner == sub.second
        ):
            return Refl(endpoints(space, sub.second)[1])
    elif k == "trans_symm_cancel":
        if (
            isinstance(sub, Trans)
            and isinstance(sub.second, Symm)
            and sub.second.inner == sub.first
        ):
            return Refl(endpoints(space, sub.first)[0])
    elif k == "symm_refl":
        if isinstance(sub, Symm) and isinstance(sub.inner, Refl):
            return sub.inner
    elif k == "symm_symm":
        if isinstance(sub, Symm) and isinstance(sub.inner, Symm):
            return sub.inner.inner
    elif k == "symm_trans_congr":
        if isinstance(sub, Symm) and isinstance(sub.inner, Trans):
            return Trans(Symm(sub.inner.second), Symm(sub.inner.first))
    elif k == "assoc_left":
        if isinstance(sub, Trans) and isinstance(sub.first, Trans):
            return Trans(sub.first.first, Trans(sub.first.second, sub.second))
    elif k == "assoc_right":
        if isinstance(sub, Trans) and isinstance(sub.second, Trans):
            return Trans(Trans(sub.first, sub.second.first), sub.second.second)
    elif k == "relation_fwd":
        rel = _relation_map(space).get(rule.relation)
        if rel is not None and sub == rel.lhs:
            return rel.rhs
    elif k == "relation_bwd":
        rel = _relation_map(space).get(rule.relation)
        if rel is not None and sub == rel.rhs:
            return rel.lhs
    elif k == "trans_refl_left_intro":
        return Trans(Refl(endpoints(space, sub)[0]), sub)
    elif k == "trans_refl_right_intro":
        return Trans(sub, Refl(endpoints(space, sub)[1]))
    elif k == "symm_refl_intro":
        if isinstance(sub, Refl):
            return Symm(sub)
    elif k == "symm_symm_intro":
        return Symm(Symm(sub))
    elif k == "symm_trans_congr_intro":
        if (
            isinstance(sub, Trans)
            and isinstance(sub.first, Symm)
            and isinstance(sub.second, Symm)
        ):
            return Symm(Trans(sub.second.inner, sub.first.inner))
    elif k == "symm_trans_cancel_intro":
        if isinstance(sub, Refl) and payload is not None:
            if endpoints(space, payload)[1] == sub.point:
                return Trans(Symm(payload), payload)
    elif k == "trans_symm_cancel_intro":
        if isinstance(sub, Refl) and payload is not None:
            if endpoints(space, payload)[0] == sub.point:
                return Trans(payload, Symm(payload))
    else:
        raise StepNotEnabledError(f"unknown rule '{rule}'")
    return None


@lru_cache(maxsize=128)
def reduction_rules(space: "SpacePresentation") -> tuple[RuleId, ...]:
    """The rules `redexes` enumerates, in their fixed order."""
    rules = list(GROUPOID_REDUCTION_RULES)
    for rel in space.relations:
        rules.append(relation_fwd(rel.name))
    for rel in space.relations:
        rules.append(relation_bwd(rel.name))
    return tuple(rules)


def redexes(space: "SpacePresentation", p: PathExpr) -> list[RewriteStep]:
    """All enabled reduction steps, outermost-leftmost position first and
    rules in their declaration order at each position."""
    rules = reduction_rules(space)
    out: list[RewriteStep] = []
    for pos, sub in _preorder(p):
        for rule in rules:
            if _local_result(space, sub, rule, None) is not None:
                out.append(RewriteStep(rule, pos))
    return out


def apply_step(space: "SpacePresentation", p: PathExpr, step: RewriteStep) -> PathExpr:
    """Apply one step; raises StepNotEnabledError if the pattern is absent."""
    sub = subterm_at(p, step.at)
    new = _local_result(space, sub, step.rule, step.payload)
    if new is None:
        raise StepNotEnabledError(
            f"rule {step.rule} is not enabled at {format_position(step.at)}"
        )
    return _replace_at(p, step.at, new)


# ---------------------------------------------------------------------------
# words and direct normalization


def _letters_of(
    space: "SpacePresentation", p: PathExpr
) -> tuple[list[tuple[str, int]], str, str]:
    if isinstance(p, Refl):
        src, tgt = endpoints(space, p)
        return [], src, tgt
    if isinstance(p, Gen):
        src, tgt = endpoints(space, p)
        return [(p.name, 1)], src, tgt
    if isinstance(p, Symm):
        letters, src, tgt = _letters_of(space, p.inner)
        return [(name, -sign) for name, sign in reversed(letters)], tgt, src
    if isinstance(p, Trans):
        left, src1, tgt1 = _letters_of(space, p.first)
        right, src2, tgt2 = _letters_of(space, p.second)
        if tgt1 != src2:
            raise EndpointMismatchError(
                f"cannot compose: first ends at '{tgt1}', second starts at '{src2}'"
            )
        return left + right, src1, tgt2
    raise TypeError(f"not a path term: {p!r}")


def _reduce_letters(letters: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[tuple[str, int]] = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


def free_normalize(space: "SpacePresentation", p: PathExpr) -> Word:
    """The freely reduced word of a term: flatten, push inverses to the
    letters, drop constant paths, cancel adjacent inverse pairs."""
    letters, src, tgt = _letters_of(space, p)
    return Word(_reduce_letters(letters), src, tgt)


def _canonical_word(space: "SpacePresentation", w: Word) -> Word:
    rec = _builtin_record(space)
    if rec is None:
        return w
    if rec.substitution is None:
        return Word(rec.write(*rec.fold(w.letters)), w.src, w.tgt)
    letters: list[tuple[str, int]] = []
    for name, sign in w.letters:
        image = rec.substitution.get(name)
        if image is None:
            letters.append((name, sign))
        elif sign > 0:
            letters.extend(image)
        else:
            letters.extend((n, -s) for n, s in reversed(image))
    return Word(_reduce_letters(letters), w.src, w.tgt)


def normalize(space: "SpacePresentation", p: PathExpr) -> NormalForm:
    """Canonical word of a term under the space's strategy. Idempotent."""
    return NormalForm(_canonical_word(space, free_normalize(space, p)))


def rw_eq(space: "SpacePresentation", p: PathExpr, q: PathExpr) -> bool:
    """Decide equality in the rewrite quotient by comparing normal forms.

    Complete for the builtin spaces. A space without a group tag normalizes
    freely, so relations it declares are not consulted here; use the search
    oracle when those matter."""
    if endpoints(space, p) != endpoints(space, q):
        raise EndpointMismatchError(
            "rw_eq compares paths with identical endpoints"
        )
    return normalize(space, p) == normalize(space, q)


def term_of_word(word: Word) -> PathExpr:
    """Read a word back as a term: a left-nested composition of letters."""
    if not word.letters:
        return Refl(word.src)
    lits: list[PathExpr] = [
        Gen(name) if sign > 0 else Symm(Gen(name)) for name, sign in word.letters
    ]
    acc = lits[0]
    for lit in lits[1:]:
        acc = Trans(acc, lit)
    return acc


# ---------------------------------------------------------------------------
# traced normalization: the same normal form, derived step by step


def _letter(lit: PathExpr) -> tuple[str, int] | None:
    if isinstance(lit, Gen):
        return (lit.name, 1)
    if isinstance(lit, Symm) and isinstance(lit.inner, Gen):
        return (lit.inner.name, -1)
    return None


_Template = list[tuple[RuleId, Position, PathExpr | None]]
# A tier of spine rules: a pattern of one letter or two adjacent letters,
# each a (generator name, sign) pair, mapped to the steps that rewrite it.
_Tier = dict[tuple[tuple[str, int], ...], _Template]


class _Normalizer:
    """Applies the normalization strategy while recording every step."""

    def __init__(self, space: "SpacePresentation", p: PathExpr):
        self.space = space
        self.term = p
        self.steps: list[RewriteStep] = []

    def apply(self, rule: RuleId, pos: Position, payload: PathExpr | None = None) -> None:
        step = RewriteStep(rule, tuple(pos), payload)
        self.steps.append(step)
        self.term = apply_step(self.space, self.term, step)

    def run_rules(self, rules: tuple[RuleId, ...]) -> None:
        while True:
            hit = None
            for pos, sub in _preorder(self.term):
                for rule in rules:
                    if _local_result(self.space, sub, rule, None) is not None:
                        hit = (rule, pos)
                        break
                if hit:
                    break
            if hit is None:
                return
            self.apply(hit[0], hit[1])

    def literals(self) -> list[tuple[PathExpr, Position]]:
        out: list[tuple[PathExpr, Position]] = []
        cur = self.term
        pos: Position = ()
        while isinstance(cur, Trans):
            out.append((cur.first, pos + (0,)))
            pos = pos + (1,)
            cur = cur.second
        out.append((cur, pos))
        return out

    def rewrite_first(self, tier: _Tier) -> bool:
        """Rewrite the leftmost spine match of a tier; False if none.

        A one-letter rule rewrites the literal in place and re-flattens. A
        two-letter rule brackets the pair into one node (unless it is the
        spine's last pair), rewrites that node, then drops it if it became
        constant or unbrackets it otherwise."""
        lits = self.literals()
        letters = [_letter(lit) for lit, _ in lits]
        k = len(lits)
        for i, le in enumerate(letters):
            template = tier.get((le,))
            if template is not None:
                for rule, rel, payload in template:
                    self.apply(rule, lits[i][1] + rel, payload)
                self.run_rules((ASSOC_LEFT,))
                return True
            template = tier.get((le, letters[i + 1])) if i < k - 1 else None
            if template is None:
                continue
            base: Position = (1,) * i
            last = i == k - 2
            node = base if last else base + (0,)
            if not last:
                self.apply(ASSOC_RIGHT, base)
            for rule, rel, payload in template:
                self.apply(rule, node + rel, payload)
            if isinstance(subterm_at(self.term, node), Refl):
                if not last:
                    self.apply(TRANS_REFL_LEFT, base)
                elif k > 2:
                    self.apply(TRANS_REFL_RIGHT, base[:-1])
            elif not last:
                self.apply(ASSOC_LEFT, base)
            return True
        return False

    def rewrite_spine(self, tiers: list[_Tier]) -> None:
        """Exhaust each tier in order, and repeat the passes until one adds
        no step. The rewrite count is budgeted; exceeding it is a bug."""
        budget = (len(self.literals()) + 2) ** 2 + 16
        rewrites = 0
        while True:
            before = rewrites
            for tier in tiers:
                while self.rewrite_first(tier):
                    rewrites += 1
                    if rewrites > budget:
                        raise RuntimeError(
                            "spine rewriting exceeded its budget; this is a bug"
                        )
            if rewrites == before:
                return

    def word(self) -> Word:
        src, tgt = endpoints(self.space, self.term)
        letters: list[tuple[str, int]] = []
        for lit, _ in self.literals():
            le = _letter(lit)
            if le is not None:
                letters.append(le)
            elif not isinstance(lit, Refl):
                raise AssertionError("normalizer left a non-literal in the spine")
        return Word(tuple(letters), src, tgt)


def _cancel_tier(space: "SpacePresentation") -> _Tier:
    """Free cancellation: ~g g and g ~g collapse to a constant path."""
    tier: _Tier = {}
    for g in space.generators:
        tier[((g.name, -1), (g.name, 1))] = [(SYMM_TRANS_CANCEL, (), None)]
        tier[((g.name, 1), (g.name, -1))] = [(TRANS_SYMM_CANCEL, (), None)]
    return tier


def _torus_tiers(space: "SpacePresentation") -> list[_Tier]:
    """Move each a left past each b through the commutation relation."""
    a, b = (g.name for g in space.generators[:2])
    fwd = relation_fwd(space.relations[0].name)
    bwd = relation_bwd(space.relations[0].name)
    return [{
        ((b, 1), (a, 1)): [(bwd, (), None)],
        ((b, 1), (a, -1)): [
            (TRANS_REFL_LEFT_INTRO, (), None),
            (SYMM_TRANS_CANCEL_INTRO, (0,), Gen(a)),
            (ASSOC_LEFT, (), None),
            (ASSOC_RIGHT, (1,), None),
            (fwd, (1, 0), None),
            (ASSOC_LEFT, (1,), None),
            (TRANS_SYMM_CANCEL, (1, 1), None),
            (TRANS_REFL_RIGHT, (1,), None),
        ],
        ((b, -1), (a, 1)): [
            (TRANS_REFL_RIGHT_INTRO, (), None),
            (TRANS_SYMM_CANCEL_INTRO, (1,), Gen(b)),
            (ASSOC_LEFT, (), None),
            (ASSOC_RIGHT, (1,), None),
            (fwd, (1, 0), None),
            (ASSOC_LEFT, (1,), None),
            (ASSOC_RIGHT, (), None),
            (SYMM_TRANS_CANCEL, (0,), None),
            (TRANS_REFL_LEFT, (), None),
        ],
        ((b, -1), (a, -1)): [
            (SYMM_TRANS_CONGR_INTRO, (), None),
            (fwd, (0,), None),
            (SYMM_TRANS_CONGR, (), None),
        ],
    }]


def _klein_tiers(space: "SpacePresentation") -> list[_Tier]:
    """Move each a left past each b, flipping the b, through the surface
    relation."""
    a, b = (g.name for g in space.generators[:2])
    fwd = relation_fwd(space.relations[0].name)
    bwd = relation_bwd(space.relations[0].name)
    return [{
        ((b, 1), (a, 1)): [
            (SYMM_SYMM_INTRO, (0,), None),
            (bwd, (0, 0), None),
            (SYMM_TRANS_CONGR, (0,), None),
            (SYMM_SYMM, (0, 0), None),
            (SYMM_TRANS_CONGR, (0, 1), None),
            (ASSOC_LEFT, (), None),
            (ASSOC_LEFT, (1,), None),
            (SYMM_TRANS_CANCEL, (1, 1), None),
            (TRANS_REFL_RIGHT, (1,), None),
        ],
        ((b, 1), (a, -1)): [
            (TRANS_REFL_LEFT_INTRO, (), None),
            (SYMM_TRANS_CANCEL_INTRO, (0,), Gen(a)),
            (ASSOC_LEFT, (), None),
            (ASSOC_RIGHT, (1,), None),
            (fwd, (1,), None),
        ],
        ((b, -1), (a, 1)): [
            (bwd, (0,), None),
            (ASSOC_LEFT, (), None),
            (SYMM_TRANS_CANCEL, (1,), None),
            (TRANS_REFL_RIGHT, (), None),
        ],
        ((b, -1), (a, -1)): [
            (SYMM_TRANS_CONGR_INTRO, (), None),
            (TRANS_REFL_RIGHT_INTRO, (0,), None),
            (TRANS_SYMM_CANCEL_INTRO, (0, 1), Symm(Gen(a))),
            (ASSOC_RIGHT, (0,), None),
            (fwd, (0, 0), None),
            (SYMM_TRANS_CONGR, (), None),
            (SYMM_SYMM, (0,), None),
            (SYMM_SYMM, (1,), None),
        ],
    }]


def _cylinder_tiers(space: "SpacePresentation") -> list[_Tier]:
    """Eliminate the far loop through the square relation: l1 -> ~s l0 s."""
    seg = Gen(space.generators[0].name)
    l1 = space.generators[2].name
    fwd = relation_fwd(space.relations[0].name)
    return [{
        ((l1, 1),): [
            (TRANS_REFL_LEFT_INTRO, (), None),
            (SYMM_TRANS_CANCEL_INTRO, (0,), seg),
            (ASSOC_LEFT, (), None),
            (fwd, (1,), None),
        ],
        ((l1, -1),): [
            (TRANS_REFL_LEFT_INTRO, (0,), None),
            (SYMM_TRANS_CANCEL_INTRO, (0, 0), seg),
            (ASSOC_LEFT, (0,), None),
            (fwd, (0, 1), None),
            (SYMM_TRANS_CONGR, (), None),
            (SYMM_TRANS_CONGR, (0,), None),
            (SYMM_SYMM, (1,), None),
            (ASSOC_LEFT, (), None),
        ],
    }]


def _parity_tiers(space: "SpacePresentation") -> list[_Tier]:
    """Flip every ~alpha to alpha through the squaring relation, then drop
    adjacent pairs; leaves the empty or one-letter word."""
    alpha = space.generators[0].name
    fwd = relation_fwd(space.relations[0].name)
    bwd = relation_bwd(space.relations[0].name)
    return [
        {((alpha, -1),): [
            (TRANS_REFL_LEFT_INTRO, (), None),
            (bwd, (0,), None),
            (ASSOC_LEFT, (), None),
            (TRANS_SYMM_CANCEL, (1,), None),
            (TRANS_REFL_RIGHT, (), None),
        ]},
        {((alpha, 1), (alpha, 1)): [(fwd, (), None)]},
    ]


# The relation tiers a builtin's record can name; `trace` runs them after
# free cancellation.
_TRACE_PHASES: dict[str, Callable[["SpacePresentation"], list[_Tier]]] = {
    "cylinder": _cylinder_tiers,
    "torus": _torus_tiers,
    "klein": _klein_tiers,
    "parity": _parity_tiers,
}


def trace(
    space: "SpacePresentation", p: PathExpr
) -> tuple[NormalForm, tuple[RewriteStep, ...]]:
    """Normalize by explicit rule application, returning the normal form and
    the ordered step list. Replaying the steps from p with apply_step lands
    on a term whose letters read off the normal form word."""
    endpoints(space, p)
    nz = _Normalizer(space, p)
    nz.run_rules((SYMM_REFL, SYMM_SYMM, SYMM_TRANS_CONGR))
    nz.run_rules((ASSOC_LEFT,))
    nz.run_rules((TRANS_REFL_LEFT, TRANS_REFL_RIGHT))
    tiers = [_cancel_tier(space)]
    rec = _builtin_record(space)
    if rec is not None and rec.trace_phase is not None:
        tiers += _TRACE_PHASES[rec.trace_phase](space)
    nz.rewrite_spine(tiers)
    return NormalForm(nz.word()), tuple(nz.steps)
