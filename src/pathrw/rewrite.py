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

Every groupoid rule, reduction or introduction, is one row of one table: the
node shape it fits (the node's class and its children's classes), what it
reads (the node's endpoints, a payload or nothing) and its local effect.
`redexes`, `apply_step` and `trace` read those rows; relation rules are
looked up by the side they rewrite. The search oracle restates the rows
over its own node ids, and its tests hold the two statements equal.

`normalize` computes words directly: one walk yields the reduced letters
and endpoints, then the space's record (see `spaces`) folds the letters
into their group element (m, n) and writes a^m b^n, entered and left along
its spanning tree; a space without a record keeps its freely reduced word.
`trace` performs the same normalization as an explicit rule-by-rule
derivation and records it: it flattens the term into a right-nested spine
of letters, then rewrites the spine by tiers of spine rules. A tier maps a
pattern of one letter or two adjacent letters to the steps that rewrite
it; free cancellation is the first tier, and the relation tiers of the
space's record follow. The two routes are independent and the tests hold
them equal.

`trace` never rebuilds the whole term. Its flattening phases rewrite by a
preorder scan that resumes at the parent of each rewritten node; the scan
maps a node's shape to its first fitting rule with one lookup (a table per
phase). The spine is then kept as its letters alone. A space's spine rules
are compiled once, for each place a match can sit, into the rule's steps
with the bracketing steps around them, at positions below an anchor, and
the letters that replace the match; a match records those steps below its
anchor in the whole term, which is never built, and splices in the letters.

The scan, `apply_step` and `replay` move one zipper (see `_climb`); `replay`
keeps it open across a step list and climbs only as far as consecutive
positions differ, so it costs the zipper's moves, not the steps' depths.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .errors import EndpointMismatchError, StepNotEnabledError
from .spaces import SpacePresentation, _builtin_record
from .syntax import parse_path, render_path
from .terms import (
    Gen, PathExpr, Refl, Symm, Trans, Word, _Record, endpoints, free_normalize,
)

Position = tuple[int, ...]


class RuleId(_Record):
    """A rewrite rule identifier; relation rules carry the relation name.
    The text a step line shows is derived once and stays out of equality."""

    _fields = ("kind", "relation")
    __slots__ = (*_fields, "_text")

    def __init__(self, kind: str, relation: str | None = None) -> None:
        self._fill(kind, relation, kind if relation is None else f"{kind}({relation})")

    def __str__(self) -> str:
        return self._text


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

def relation_fwd(name: str) -> RuleId:
    return RuleId("relation_fwd", name)


def relation_bwd(name: str) -> RuleId:
    return RuleId("relation_bwd", name)


class RewriteStep(_Record):
    """One rule application at one position, with a payload where the rule
    needs an instantiating term (cancellation introduction only)."""

    __slots__ = _fields = ("rule", "at", "payload")

    def __init__(
        self, rule: RuleId, at: Position = (), payload: PathExpr | None = None
    ) -> None:
        _step_rule(self, rule)
        _step_at(self, at)
        _step_payload(self, payload)


class NormalForm(_Record):
    """A word in the canonical shape the space's strategy produces."""

    __slots__ = _fields = ("word",)

    def __init__(self, word: Word) -> None:
        self._fill(word)


_step_rule, _step_at, _step_payload = RewriteStep._setters


# a trace's steps sit at a few hundred positions, most met again by the next
@lru_cache(maxsize=1024)
def format_position(pos: Position) -> str:
    if not pos:
        return "root"
    return ".".join(map(str, pos))


def format_step(step: RewriteStep, space: "SpacePresentation | None" = None) -> str:
    base = f"{step.rule._text} @ {format_position(step.at)}"
    if step.payload is None:
        return base
    if space is not None:
        return f"{base} [{render_path(space, step.payload)}]"
    return f"{base} [payload]"


# ---------------------------------------------------------------------------
# positions and local rewriting: `redexes` walks the whole term once in
# preorder, carrying each node's position; `apply_step` and `replay` move a
# zipper down to each step's position and back up. All read the rows below.


# Every groupoid rule is one row: the shape of node it rewrites (the node's
# class, then its children's classes, None for any; None alone fits every
# node), what its effect reads, and the effect. An effect gets the node and
# what it reads, and returns the rewritten node, or None when the rule's
# equality side condition fails. A rule reads the node's endpoints (_ENDS),
# the step's payload (_PAYLOAD) or nothing (None).
_ENDS = "ends"
_PAYLOAD = "payload"

# The reductions, in `redexes` order.
_REDUCTIONS = (
    (TRANS_REFL_LEFT, (Trans, Refl, None), None, lambda t, _: t.second),
    (TRANS_REFL_RIGHT, (Trans, None, Refl), None, lambda t, _: t.first),
    (
        SYMM_TRANS_CANCEL, (Trans, Symm, None), _ENDS,
        lambda t, e: Refl(e[0]) if t.first.inner == t.second else None,
    ),
    (
        TRANS_SYMM_CANCEL, (Trans, None, Symm), _ENDS,
        lambda t, e: Refl(e[0]) if t.second.inner == t.first else None,
    ),
    (SYMM_REFL, (Symm, Refl), None, lambda t, _: t.inner),
    (SYMM_SYMM, (Symm, Symm), None, lambda t, _: t.inner.inner),
    (
        SYMM_TRANS_CONGR, (Symm, Trans), None,
        lambda t, _: Trans(Symm(t.inner.second), Symm(t.inner.first)),
    ),
    (
        ASSOC_LEFT, (Trans, Trans, None), None,
        lambda t, _: Trans(t.first.first, Trans(t.first.second, t.second)),
    ),
    (
        ASSOC_RIGHT, (Trans, None, Trans), None,
        lambda t, _: Trans(Trans(t.first, t.second.first), t.second.second),
    ),
)

# The introductions, in the order the search tries them at a node.
_INTRODUCTIONS = (
    (TRANS_REFL_LEFT_INTRO, None, _ENDS, lambda t, e: Trans(Refl(e[0]), t)),
    (TRANS_REFL_RIGHT_INTRO, None, _ENDS, lambda t, e: Trans(t, Refl(e[1]))),
    (SYMM_SYMM_INTRO, None, None, lambda t, _: Symm(Symm(t))),
    (
        SYMM_TRANS_CONGR_INTRO, (Trans, Symm, Symm), None,
        lambda t, _: Symm(Trans(t.second.inner, t.first.inner)),
    ),
    (SYMM_REFL_INTRO, (Refl,), None, lambda t, _: Symm(t)),
    (SYMM_TRANS_CANCEL_INTRO, (Refl,), _PAYLOAD, lambda t, q: Trans(Symm(q), q)),
    (TRANS_SYMM_CANCEL_INTRO, (Refl,), _PAYLOAD, lambda t, q: Trans(q, Symm(q))),
)


def _shape(t: PathExpr) -> tuple:
    """A node's class and its children's classes."""
    cls = type(t)
    if cls is Trans:
        return (Trans, type(t.first), type(t.second))
    if cls is Symm:
        return (Symm, type(t.inner))
    return (cls,)


_CLASSES = (Refl, Gen, Symm, Trans)
_SHAPES = (
    [(Refl,), (Gen,)]
    + [(Symm, a) for a in _CLASSES]
    + [(Trans, a, b) for a in _CLASSES for b in _CLASSES]
)

# (node shape, rule kind) -> (what the effect reads, effect), for every
# groupoid rule that fits each shape
_RULES = {
    (shape, rule.kind): (reads, effect)
    for shape in _SHAPES
    for rule, need, reads, effect in _REDUCTIONS + _INTRODUCTIONS
    if need is None
    or len(need) == len(shape) and all(n in (None, k) for n, k in zip(need, shape))
}
# every rule kind a step may name; `apply_step` rejects any other as unknown
_KINDS = frozenset([kind for _, kind in _RULES] + ["relation_fwd", "relation_bwd"])

# node shape -> (rule, effect) for the reductions that fit it, in `redexes`
# order
_REDUCTIONS_AT = {
    shape: [(r, fx) for r, _, _, fx in _REDUCTIONS if (shape, r.kind) in _RULES]
    for shape in _SHAPES
}


def _table(rules: tuple[RuleId, ...]) -> dict:
    """node shape -> (rule, effect) of the first of `rules` that fits it"""
    return {  # an earlier rule overwrites a later one
        shape: (rule, _RULES[shape, rule.kind][1])
        for rule in reversed(rules) for shape in _SHAPES if (shape, rule.kind) in _RULES
    }


# the rules of `trace`'s three phases, and their tables
_PHASE_RULES = (
    (SYMM_REFL, SYMM_SYMM, SYMM_TRANS_CONGR),
    (ASSOC_LEFT,),
    (TRANS_REFL_LEFT, TRANS_REFL_RIGHT),
)
_PHASES = [_table(rules) for rules in _PHASE_RULES]


# Relation rules keyed by the side they rewrite: for each term, the forward
# rules whose lhs it is, then the backward rules whose rhs it is, each with
# the term it rewrites to, in declaration order.
@lru_cache(maxsize=128)
def _plain_relations(space: "SpacePresentation") -> dict:
    table: dict = {}
    for rel in space.relations:
        table.setdefault(rel.lhs, []).append((relation_fwd(rel.name), rel.rhs))
    for rel in space.relations:
        table.setdefault(rel.rhs, []).append((relation_bwd(rel.name), rel.lhs))
    return table


def redexes(space: "SpacePresentation", p: PathExpr) -> list[RewriteStep]:
    """All enabled reduction steps, outermost-leftmost position first and
    rules in their declaration order at each position. The term is checked
    once with `endpoints`, so an ill-formed term raises exactly what that
    raises; one preorder walk with its own stack then reads each node's
    rows: groupoid rules, then relation rules."""
    ends = endpoints(space, p)
    relations = _plain_relations(space)
    out: list[RewriteStep] = []
    stack: list[tuple[PathExpr, Position]] = [(p, ())]
    while stack:
        sub, at = stack.pop()
        # whether a rule fires never depends on the endpoints, so the root's serve
        for rule, effect in _REDUCTIONS_AT[_shape(sub)]:
            if effect(sub, ends) is not None:
                out.append(RewriteStep(rule, at))
        if relations:
            out.extend(RewriteStep(rule, at) for rule, _ in relations.get(sub, ()))
        if type(sub) is Trans:
            stack.append((sub.second, at + (1,)))
            stack.append((sub.first, at + (0,)))
        elif type(sub) is Symm:
            stack.append((sub.inner, at + (0,)))
    return out


def apply_step(space: "SpacePresentation", p: PathExpr, step: RewriteStep) -> PathExpr:
    """Apply one step; raises StepNotEnabledError if the pattern is absent."""
    return replay(space, p, (step,))


def replay(space: "SpacePresentation", p: PathExpr, steps) -> PathExpr:
    """The term `apply_step` reaches from `p` by `steps` in turn, refusing a
    bad list at the same step with the same error. The zipper stays open:
    a step climbs only to the prefix its position shares with the last."""
    parents: list[PathExpr] = []
    node, last = p, ()
    for step in steps:
        at = step.at
        if parents:
            k = min(len(last), len(at))
            if at[:k] != last[:k]:  # `trace`'s positions mostly extend the last
                k = next((i for i, (x, y) in enumerate(zip(at, last)) if x != y), k)
            node = _climb(parents, last, node, k)
        for idx in at[len(parents):]:
            parents.append(node)
            if type(node) is Trans and idx in (0, 1):
                node = node.second if idx else node.first
            elif type(node) is Symm and idx == 0:
                node = node.inner
            else:
                raise StepNotEnabledError(f"no subterm at position {format_position(at)}")
        rule = step.rule
        fit = _RULES.get((_shape(node), rule.kind))
        if fit is not None:
            reads, effect = fit
            if reads is _ENDS:
                new = effect(node, endpoints(space, node))
            elif reads is _PAYLOAD:
                # the pair around the payload must run from the point to itself
                new = None if step.payload is None else effect(node, step.payload)
                if new is not None and endpoints(space, new) != (node.point, node.point):
                    new = None
            else:
                new = effect(node, None)
        elif rule.kind in _KINDS:
            enabled = _plain_relations(space).get(node, ())
            new = next((new for r, new in enabled if r._text == rule._text), None)
        else:
            raise StepNotEnabledError(f"unknown rule '{rule}'")
        if new is None:
            raise StepNotEnabledError(f"rule {rule} is not enabled at {format_position(at)}")
        node, last = new, at
    return _climb(parents, last, node, 0)


def _climb(parents: list[PathExpr], path, node: PathExpr, depth: int) -> PathExpr:
    """Climb a zipper (Huet, "The Zipper", JFP 1997), the focus `node` under
    `parents` (root first) at position `path`, to `depth` levels below the
    root; `parents` is cut to match, and a parent is rebuilt only if its
    child changed. Return the focus reached."""
    i = len(parents)
    while i > depth:
        i -= 1
        parent = parents[i]
        if path[i]:  # only a composition has a child 1
            node = parent if node is parent.second else Trans(parent.first, node)
        elif type(parent) is Symm:
            node = parent if node is parent.inner else Symm(node)
        else:
            node = parent if node is parent.first else Trans(node, parent.second)
    del parents[depth:]
    return node


# ---------------------------------------------------------------------------
# words and direct normalization


def normalize(space: "SpacePresentation", p: PathExpr) -> NormalForm:
    """Canonical word of a term under the space's strategy. Idempotent."""
    w = free_normalize(space, p)
    rec = _builtin_record(space)
    if rec is None:
        return NormalForm(w)
    return NormalForm(Word(rec.canonical(w.letters, w.src, w.tgt), w.src, w.tgt))


def normal_forms_decide(space: "SpacePresentation") -> bool:
    """Whether distinct normal forms mean distinct paths: true for the
    builtins and for spaces without relations. Other spaces normalize
    freely, ignoring their relations."""
    return _builtin_record(space) is not None or not space.relations


def rw_eq(space: "SpacePresentation", p: PathExpr, q: PathExpr) -> bool:
    """Decide equality in the rewrite quotient by comparing normal forms.

    A True is always right; a False is right where `normal_forms_decide`
    holds. Use the search oracle when the relations matter."""
    nf_p, nf_q = normalize(space, p), normalize(space, q)
    if (nf_p.word.src, nf_p.word.tgt) != (nf_q.word.src, nf_q.word.tgt):
        raise EndpointMismatchError("rw_eq compares paths with identical endpoints")
    return nf_p == nf_q


def term_of_word(word: Word) -> PathExpr:
    """Read a word back as a term: a left-nested composition of letters."""
    if not word.letters:
        return Refl(word.src)
    lits = [Gen(name) if sign > 0 else Symm(Gen(name)) for name, sign in word.letters]
    return reduce(Trans, lits)


# ---------------------------------------------------------------------------
# traced normalization: the same normal form, derived step by step


def _letter(lit: PathExpr) -> tuple[str, int] | None:
    if isinstance(lit, Gen):
        return (lit.name, 1)
    if isinstance(lit, Symm) and isinstance(lit.inner, Gen):
        return (lit.inner.name, -1)
    return None


# A compiled tier maps a pattern of one or two adjacent (generator name,
# sign) letters to a context per place a match can sit (letters after it,
# the spine's end after others, the whole spine): how many levels its anchor
# sits above the match, the steps below the anchor and the new letters.
_Context = tuple[int, tuple[RewriteStep, ...], tuple]
_Tier = dict[tuple[tuple[str, int], ...], tuple[_Context, _Context, _Context]]


def _read_step(space: "SpacePresentation", line: str) -> RewriteStep:
    """The step a line in `format_step`'s text with `space` names."""
    text, _, rest = line.partition(" @ ")
    pos, _, payload = rest.partition(" [")
    kind, _, relation = text.partition("(")
    return RewriteStep(
        RuleId(kind, relation[:-1] or None),
        () if pos == "root" else tuple(map(int, pos.split("."))),
        parse_path(space, payload[:-1]) if payload else None,
    )


@lru_cache(maxsize=128)
def _spine_rules(space: "SpacePresentation") -> tuple[_Tier, ...]:
    """The tiers `trace` rewrites a spine by: free cancellation (~g g and
    g ~g collapse to a constant path), then the tiers of the space's record.
    Each rule's steps are applied to its pattern's node here, once, which
    checks every step, and compiled for each context."""
    cancel: dict = {}
    for g in space.generators:
        cancel[(g.name, -1), (g.name, 1)] = ("symm_trans_cancel @ root",)
        cancel[(g.name, 1), (g.name, -1)] = ("trans_symm_cancel @ root",)
    rec = _builtin_record(space)
    tiers = []
    for rules in (cancel, *(rec.spine_rules if rec is not None else ())):
        tier: _Tier = {}
        for letters, lines in rules.items():
            if type(letters) is str:  # a record's pattern, such as "b ~a"
                letters = tuple(
                    (w[1:], -1) if w[0] == "~" else (w, 1) for w in letters.split()
                )
            steps = tuple(_read_step(space, line) for line in lines)
            # a pattern is never empty, so its word's endpoints go unread
            new = replay(space, term_of_word(Word(letters, "", "")), steps)
            tier[letters] = tuple(
                (back, tuple(compiled), tuple(_spine_letters(legs)))
                for back, compiled, legs in _contexts(steps, new, len(letters))
            )
        tiers.append(tier)
    return tuple(tiers)


# A leaf standing for the rest of the spine while a one-letter rewrite is
# compiled; no rule `trace` runs matches it or reads it.
_REST = Gen("")


def _under(idx: int, steps) -> list[RewriteStep]:
    """`steps` moved under child `idx` of the node they rewrite."""
    return [RewriteStep(s.rule, (idx,) + s.at, s.payload) for s in steps]


def _contexts(steps: tuple[RewriteStep, ...], new: PathExpr, width: int) -> list:
    """A spine rule's (anchor offset, steps, legs) in each context, given its
    steps on its pattern's node and `new`, the node they leave. The spine is
    right-nested, so a match's node sits at its anchor's child 0 when
    letters follow it, and at the anchor itself when it ends the spine."""
    nz = _Normalizer()
    if width == 1:  # rewrite the letter, then re-flatten the new node alone
        nz.steps = _under(0, steps)
        mid = (0, nz.steps, _legs(nz.run_rules(_PHASES[1], Trans(new, _REST)))[:-1])
        nz.steps = list(steps)
        end = (0, nz.steps, _legs(nz.run_rules(_PHASES[1], new)))
        return [mid, end, end]
    # a pair is bracketed into one node, rewritten, then dropped if it
    # became constant or unbracketed otherwise; the spine's last pair needs
    # no brackets, and after other letters its anchor is its parent
    mid = [RewriteStep(ASSOC_RIGHT), *_under(0, steps)]
    end = _under(1, steps)
    if type(new) is Refl:
        mid.append(RewriteStep(TRANS_REFL_LEFT))
        end.append(RewriteStep(TRANS_REFL_RIGHT))
        return [(0, mid, []), (1, end, []), (0, steps, [new])]
    mid.append(RewriteStep(ASSOC_LEFT))
    legs = _legs(new)
    return [(0, mid, [new.first, new.second]), (1, end, legs), (0, steps, legs)]


def _legs(t: PathExpr) -> list[PathExpr]:
    """The legs of a right-nested composition, left to right."""
    out: list[PathExpr] = []
    while type(t) is Trans:
        out.append(t.first)
        t = t.second
    out.append(t)
    return out


def _spine_letters(legs: list[PathExpr]) -> list:
    """The letters of spine legs; a constant path's letter is None."""
    letters = [_letter(lit) for lit in legs]
    if any(le is None and type(lit) is not Refl for lit, le in zip(legs, letters)):
        raise AssertionError("normalizer left a non-literal in the spine")
    return letters


class _Normalizer:
    """Applies the normalization strategy while recording every step; the
    whole term is never rebuilt (see the module docstring)."""

    def __init__(self) -> None:
        self.steps: list[RewriteStep] = []

    def run_rules(self, table: dict, term: PathExpr) -> PathExpr:
        """Rewrite `term` by its outermost-leftmost enabled step of the rules
        in `table` (see `_table`) until none is enabled; each step is
        recorded at its position in `term`.

        After a rewrite the preorder scan resumes at the rewritten node's
        parent, not at the root. That needs every rule in `table` to be
        decided by the shape of a node alone (its class and its children's
        classes), as every groupoid reduction rule but the two cancellations
        is: nodes before the parent in preorder are then untouched and were
        found not to match, and the ancestors above the parent keep their
        shape."""
        parents: list[PathExpr] = []
        path: list[int] = []
        node = term
        resume = 0  # the child to enter when `node` does not match
        while True:
            fit = table.get(_shape(node))
            if fit is not None:
                self.steps.append(RewriteStep(fit[0], tuple(path)))
                node = fit[1](node, None)
                resume = 0
                if path:  # rescan from the parent, but not the left sibling: it did not match
                    node = _climb(parents, path, node, len(path) - 1)
                    resume = path.pop()
                continue
            cls = type(node)
            if cls is Trans or cls is Symm:
                parents.append(node)
                path.append(resume)
                node = (node.inner if cls is Symm
                        else node.second if resume else node.first)
                resume = 0
                continue
            # a leaf: climb to the nearest second leg not yet scanned
            i = len(path)
            while i and (path[i - 1] or type(parents[i - 1]) is not Trans):
                i -= 1
            if not i:
                return _climb(parents, path, node, 0)
            if i < len(path):  # climb to that leg's parent
                parents.append(_climb(parents, path, node, i - 1))
                del path[i:]
            path[-1] = 1
            node = parents[-1].second

    def rewrite_first(self, tier: _Tier, start: int = 0) -> int | None:
        """Rewrite the leftmost spine match of a tier at or after `start`;
        return where the next search for the tier may start, or None if
        nothing matched. The i-th letter sits at position 1.1...1.0 (i ones),
        the last one at i ones; a match records its context's steps below
        its anchor, i ones less the context's offset."""
        letters = self.letters
        k = len(letters)
        for i in range(start, k):
            le = letters[i]
            rule = tier.get((le,))
            j = i + 1
            if rule is None:
                if j == k:
                    break
                rule = tier.get((le, letters[j]))
                if rule is None:
                    continue
                j += 1
            back, steps, new = rule[0 if j < k else 2 if i == 0 else 1]
            anchor = (1,) * (i - back)
            self.steps += [RewriteStep(s.rule, anchor + s.at, s.payload) for s in steps]
            letters[i:j] = new
            return max(i - 1, 0)
        return None

    def rewrite_spine(self, term: PathExpr, tiers: tuple[_Tier, ...]) -> None:
        """Hold a flattened term as its spine's letters, exhaust each tier in
        order, and repeat the passes until one adds no step. The rewrite
        count is budgeted; exceeding it is a bug."""
        self.letters = _spine_letters(_legs(term))
        budget = (len(self.letters) + 2) ** 2 + 16
        rewrites = 0
        while True:
            before = rewrites
            for tier in tiers:
                start: int | None = 0
                while (start := self.rewrite_first(tier, start)) is not None:
                    rewrites += 1
                    if rewrites > budget:
                        raise RuntimeError(
                            "spine rewriting exceeded its budget; this is a bug"
                        )
            if rewrites == before:
                return


def trace(
    space: "SpacePresentation", p: PathExpr
) -> tuple[NormalForm, tuple[RewriteStep, ...]]:
    """Normalize by explicit rule application, returning the normal form and
    the ordered step list. Replaying the steps from p with apply_step lands
    on a term whose letters read off the normal form word."""
    src, tgt = endpoints(space, p)
    nz = _Normalizer()
    for table in _PHASES:
        p = nz.run_rules(table, p)
    nz.rewrite_spine(p, _spine_rules(space))
    # filter drops a constant path's None; a letter pair is never false
    return NormalForm(Word(tuple(filter(None, nz.letters)), src, tgt)), tuple(nz.steps)
