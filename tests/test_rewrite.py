import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pathrw import (
    EndpointMismatchError,
    ParseError,
    UnknownGeneratorError,
    Gen,
    Lcg,
    NormalForm,
    Refl,
    RewriteStep,
    StepNotEnabledError,
    Symm,
    Trans,
    Word,
    apply_step,
    builtin,
    class_of,
    encode,
    endpoints,
    format_step,
    free_normalize,
    normalize,
    parse_path,
    random_term,
    redexes,
    relation_bwd,
    relation_fwd,
    rw_eq,
    size,
    term_of_word,
    trace,
)
from pathrw.rewrite import (
    ASSOC_LEFT,
    ASSOC_RIGHT,
    RuleId,
    SYMM_REFL,
    SYMM_REFL_INTRO,
    SYMM_SYMM,
    SYMM_SYMM_INTRO,
    SYMM_TRANS_CANCEL,
    SYMM_TRANS_CANCEL_INTRO,
    SYMM_TRANS_CONGR,
    SYMM_TRANS_CONGR_INTRO,
    TRANS_REFL_LEFT,
    TRANS_REFL_LEFT_INTRO,
    TRANS_REFL_RIGHT,
    TRANS_REFL_RIGHT_INTRO,
    TRANS_SYMM_CANCEL,
    TRANS_SYMM_CANCEL_INTRO,
)
from pathrw.checks import run_checks
from pathrw.oracle import EQUAL, bfs_rw_eq, enumerate_terms
from pathrw.pi1 import GroupValue, decode
from pathrw.rewrite import (
    _PHASE_RULES, _PHASES, _RULES, _SHAPES, _Normalizer, _legs, _letter, _read_step,
    _spine_rules,
    normal_forms_decide,
    replay,
)
from pathrw.spaces import Generator, GroupTag, SpacePresentation, _Builtin, _builtin_record
from pathrw.syntax import parse_space_text, render_path

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
TORUS = builtin("torus")
KLEIN = builtin("klein")
RP2 = builtin("rp2")

A = Gen("a")
B = Gen("b")

ALL_SPACES = [builtin(n) for n in ("circle", "cylinder", "mobius", "torus", "klein", "rp2")]

TORUS_FILE = "point pt\ngen a : pt -> pt\ngen b : pt -> pt\nrel comm : a * b = b * a\n"
SMALL_TERM_SPACES = ALL_SPACES + [parse_space_text(TORUS_FILE, "torusfile")]


def _small_terms(space):
    """Every term of at most 6 nodes (5 on the cylinder) at every endpoint
    pair, then 40 seeded random terms of 7 to 16 nodes, where one position
    can hold both associativity redexes."""
    top = 5 if space.name == "cylinder" else 6
    for src in space.points:
        for tgt in space.points:
            for n in range(1, top + 1):
                yield from enumerate_terms(space, n, src, tgt)
    rng = Lcg(11)
    for _ in range(40):
        yield random_term(space, 7 + rng.randint(10), rng)


def step(rule, at=(), payload=None):
    return RewriteStep(rule, at, payload)


# each intro rule with the reduction that undoes it
_UNDOES = {
    TRANS_REFL_LEFT_INTRO: TRANS_REFL_LEFT,
    TRANS_REFL_RIGHT_INTRO: TRANS_REFL_RIGHT,
    SYMM_TRANS_CANCEL_INTRO: SYMM_TRANS_CANCEL,
    TRANS_SYMM_CANCEL_INTRO: TRANS_SYMM_CANCEL,
    SYMM_REFL_INTRO: SYMM_REFL,
    SYMM_SYMM_INTRO: SYMM_SYMM,
    SYMM_TRANS_CONGR_INTRO: SYMM_TRANS_CONGR,
}
_PAYLOAD_INTROS = (SYMM_TRANS_CANCEL_INTRO, TRANS_SYMM_CANCEL_INTRO)


def _positions(t):
    """Every position of t, in preorder."""
    out, todo = [], [((), t)]
    while todo:
        pos, sub = todo.pop()
        out.append(pos)
        if isinstance(sub, Trans):
            todo += [(pos + (1,), sub.second), (pos + (0,), sub.first)]
        elif isinstance(sub, Symm):
            todo.append((pos + (0,), sub.inner))
    return out


def _intro_steps(space, t):
    """Every intro rule at every position of t; the cancellation-pair
    intros once per payload of at most 2 nodes at each endpoint pair."""
    payloads = [
        q
        for src in space.points
        for tgt in space.points
        for n in (1, 2)
        for q in enumerate_terms(space, n, src, tgt)
    ]
    for pos in _positions(t):
        for rule in _UNDOES:
            for q in payloads if rule in _PAYLOAD_INTROS else [None]:
                yield RewriteStep(rule, pos, q)


# `apply_step`'s refusals: a step, the term it is applied to, and the message
_REFUSALS = [
    # no subterm: an index a node does not have, or any index under a leaf
    (TORUS, Trans(A, B), step(ASSOC_LEFT, (2,)), "no subterm at position 2"),
    (TORUS, Trans(Symm(A), B), step(SYMM_SYMM, (0, 1)), "no subterm at position 0.1"),
    (TORUS, Trans(A, B), step(SYMM_SYMM, (1, 0)), "no subterm at position 1.0"),
    (CIRCLE, A, step(SYMM_SYMM, (0, 1)), "no subterm at position 0.1"),
    (CIRCLE, Refl("pt"), step(SYMM_REFL, (1,)), "no subterm at position 1"),
    # the position is checked before the rule, then an unknown rule
    (TORUS, A, step(RuleId("nope"), (0,)), "no subterm at position 0"),
    (TORUS, Trans(A, B), step(RuleId("nope"), (1,)), "unknown rule 'nope'"),
    # a rule whose shape does not fit
    (CIRCLE, Trans(A, A), step(TRANS_REFL_LEFT), "rule trans_refl_left is not enabled at root"),
    (TORUS, Trans(B, Symm(A)), step(SYMM_TRANS_CONGR, (1,)),
     "rule symm_trans_congr is not enabled at 1"),
    (TORUS, Trans(Symm(B), A), step(SYMM_TRANS_CONGR_INTRO),
     "rule symm_trans_congr_intro is not enabled at root"),
    # a cancellation of unequal operands
    (TORUS, Trans(Symm(A), B), step(SYMM_TRANS_CANCEL),
     "rule symm_trans_cancel is not enabled at root"),
    (TORUS, Trans(B, Trans(A, Symm(B))), step(TRANS_SYMM_CANCEL, (1,)),
     "rule trans_symm_cancel is not enabled at 1"),
    # a cancellation intro without a payload, or whose pair does not
    # close at the point
    (CIRCLE, Refl("pt"), step(SYMM_TRANS_CANCEL_INTRO),
     "rule symm_trans_cancel_intro is not enabled at root"),
    (CYL, Refl("b0"), step(SYMM_TRANS_CANCEL_INTRO, (), Gen("s")),
     "rule symm_trans_cancel_intro is not enabled at root"),
    (CYL, Trans(Gen("s"), Refl("b1")), step(TRANS_SYMM_CANCEL_INTRO, (1,), Gen("s")),
     "rule trans_symm_cancel_intro is not enabled at 1"),
    # a relation rule absent at the node, or naming no relation
    (TORUS, Trans(B, A), step(relation_fwd("torusComm")),
     "rule relation_fwd(torusComm) is not enabled at root"),
    (TORUS, Symm(Trans(A, B)), step(relation_bwd("torusComm"), (0,)),
     "rule relation_bwd(torusComm) is not enabled at 0"),
    (TORUS, Trans(A, B), step(relation_fwd("nope")),
     "rule relation_fwd(nope) is not enabled at root"),
]


class TestSingleRules:
    def test_trans_refl_left(self):
        t = Trans(Refl("pt"), A)
        assert apply_step(CIRCLE, t, step(TRANS_REFL_LEFT)) == A

    def test_trans_refl_right(self):
        t = Trans(A, Refl("pt"))
        assert apply_step(CIRCLE, t, step(TRANS_REFL_RIGHT)) == A

    def test_symm_trans_cancel(self):
        t = Trans(Symm(A), A)
        assert apply_step(CIRCLE, t, step(SYMM_TRANS_CANCEL)) == Refl("pt")

    def test_symm_trans_cancel_needs_exact_match(self):
        t = Trans(Symm(A), Trans(Refl("pt"), A))
        with pytest.raises(StepNotEnabledError):
            apply_step(CIRCLE, t, step(SYMM_TRANS_CANCEL))

    def test_trans_symm_cancel(self):
        s = Gen("s")
        t = Trans(s, Symm(s))
        assert apply_step(CYL, t, step(TRANS_SYMM_CANCEL)) == Refl("b0")

    def test_cancel_produces_correct_endpoint(self):
        s = Gen("s")
        t = Trans(Symm(s), s)
        assert apply_step(CYL, t, step(SYMM_TRANS_CANCEL)) == Refl("b1")

    def test_symm_refl(self):
        t = Symm(Refl("pt"))
        assert apply_step(CIRCLE, t, step(SYMM_REFL)) == Refl("pt")

    def test_symm_symm(self):
        t = Symm(Symm(A))
        assert apply_step(CIRCLE, t, step(SYMM_SYMM)) == A

    def test_symm_trans_congr(self):
        t = Symm(Trans(A, B))
        assert apply_step(TORUS, t, step(SYMM_TRANS_CONGR)) == Trans(Symm(B), Symm(A))

    def test_assoc_left(self):
        t = Trans(Trans(A, B), A)
        assert apply_step(TORUS, t, step(ASSOC_LEFT)) == Trans(A, Trans(B, A))

    def test_assoc_right(self):
        t = Trans(A, Trans(B, A))
        assert apply_step(TORUS, t, step(ASSOC_RIGHT)) == Trans(Trans(A, B), A)

    def test_relation_fwd(self):
        t = Trans(A, B)
        got = apply_step(TORUS, t, step(relation_fwd("torusComm")))
        assert got == Trans(B, A)

    def test_relation_bwd(self):
        t = Trans(B, A)
        got = apply_step(TORUS, t, step(relation_bwd("torusComm")))
        assert got == Trans(A, B)

    def test_relation_requires_exact_instance(self):
        t = Trans(A, Trans(B, Refl("pt")))
        with pytest.raises(StepNotEnabledError):
            apply_step(TORUS, t, step(relation_fwd("torusComm")))

    def test_unknown_relation_name(self):
        with pytest.raises(StepNotEnabledError):
            apply_step(TORUS, Trans(A, B), step(relation_fwd("nope")))

    def test_relation_steps_pick_their_relation_by_name(self):
        # `ab` is the lhs of both relations, so its rows name two rules of
        # one kind, and `c` is the rhs of one
        space = parse_space_text(
            "point pt\ngen a : pt -> pt\ngen b : pt -> pt\ngen c : pt -> pt\n"
            "rel r1 : a * b = c\nrel r2 : a * b = b * a\n", "shared"
        )
        ab, ba, c = Trans(A, B), Trans(B, A), Gen("c")
        assert apply_step(space, ab, step(relation_fwd("r1"))) == c
        assert apply_step(space, ab, step(relation_fwd("r2"))) == ba
        assert apply_step(space, c, step(relation_bwd("r1"))) == ab
        assert apply_step(space, ba, step(relation_bwd("r2"))) == ab
        refused = [
            (ab, relation_bwd("r1"), "rule relation_bwd(r1) is not enabled at root"),
            (c, relation_bwd("r2"), "rule relation_bwd(r2) is not enabled at root"),
            (ab, relation_fwd("nope"), "rule relation_fwd(nope) is not enabled at root"),
        ]
        for term, rule, message in refused:
            with pytest.raises(StepNotEnabledError) as info:
                apply_step(space, term, step(rule))
            assert str(info.value) == message

    def test_position_addressing(self):
        t = Trans(Symm(Trans(A, B)), A)
        got = apply_step(TORUS, t, step(SYMM_TRANS_CONGR, (0,)))
        assert got == Trans(Trans(Symm(B), Symm(A)), A)

    def test_position_out_of_range(self):
        with pytest.raises(StepNotEnabledError):
            apply_step(CIRCLE, A, step(SYMM_SYMM, (0, 1)))

    def test_rule_not_enabled_at_position(self):
        t = Trans(A, A)
        with pytest.raises(StepNotEnabledError):
            apply_step(CIRCLE, t, step(TRANS_REFL_LEFT))

    @pytest.mark.parametrize("space, term, s, message", _REFUSALS)
    def test_refusals_are_pinned(self, space, term, s, message):
        with pytest.raises(StepNotEnabledError) as info:
            apply_step(space, term, s)
        assert type(info.value) is StepNotEnabledError
        assert str(info.value) == message


class TestIntroRules:
    def test_unit_intros_then_elims_round_trip(self):
        t = Trans(A, Symm(A))
        for intro, elim in [
            (TRANS_REFL_LEFT_INTRO, TRANS_REFL_LEFT),
            (TRANS_REFL_RIGHT_INTRO, TRANS_REFL_RIGHT),
            (SYMM_SYMM_INTRO, SYMM_SYMM),
        ]:
            grown = apply_step(CIRCLE, t, step(intro))
            assert apply_step(CIRCLE, grown, step(elim)) == t
        # every intro that applies, at any position of a small term, is
        # undone by its reduction at the same position
        applied = 0
        for space in SMALL_TERM_SPACES:
            for t in _small_terms(space):
                for s in _intro_steps(space, t):
                    try:
                        grown = apply_step(space, t, s)
                    except StepNotEnabledError:
                        continue
                    applied += 1
                    back = apply_step(space, grown, step(_UNDOES[s.rule], s.at))
                    assert back == t, (space.name, render_path(space, t), s)
        assert applied == 79511

    def test_unit_intro_uses_correct_endpoint(self):
        s = Gen("s")
        grown = apply_step(CYL, s, step(TRANS_REFL_LEFT_INTRO))
        assert grown == Trans(Refl("b0"), s)
        grown = apply_step(CYL, s, step(TRANS_REFL_RIGHT_INTRO))
        assert grown == Trans(s, Refl("b1"))

    def test_cancel_intro_with_payload(self):
        t = Refl("b1")
        s = Gen("s")
        grown = apply_step(CYL, t, step(SYMM_TRANS_CANCEL_INTRO, (), s))
        assert grown == Trans(Symm(s), s)
        back = apply_step(CYL, grown, step(SYMM_TRANS_CANCEL))
        assert back == t

    def test_cancel_intro_payload_endpoint_checked(self):
        s = Gen("s")
        with pytest.raises(StepNotEnabledError):
            apply_step(CYL, Refl("b0"), step(SYMM_TRANS_CANCEL_INTRO, (), s))
        with pytest.raises(StepNotEnabledError):
            apply_step(CYL, Refl("b1"), step(TRANS_SYMM_CANCEL_INTRO, (), s))

    def test_cancel_intro_requires_payload(self):
        with pytest.raises(StepNotEnabledError):
            apply_step(CIRCLE, Refl("pt"), step(SYMM_TRANS_CANCEL_INTRO))

    def test_trans_symm_cancel_intro(self):
        s = Gen("s")
        grown = apply_step(CYL, Refl("b0"), step(TRANS_SYMM_CANCEL_INTRO, (), s))
        assert grown == Trans(s, Symm(s))

    def test_congr_intro_folds(self):
        t = Trans(Symm(B), Symm(A))
        folded = apply_step(TORUS, t, step(SYMM_TRANS_CONGR_INTRO))
        assert folded == Symm(Trans(A, B))
        assert apply_step(TORUS, folded, step(SYMM_TRANS_CONGR)) == t

    def test_congr_intro_needs_two_inverses(self):
        with pytest.raises(StepNotEnabledError):
            apply_step(TORUS, Trans(Symm(B), A), step(SYMM_TRANS_CONGR_INTRO))

    def test_intros_of_small_terms_are_pinned(self):
        # digest of every intro step over every small term, one line per
        # step with the term it gives, as written while each intro's effect
        # was spelled out in `apply_step` and again in the search
        digest = hashlib.sha256()
        count = 0
        for space in SMALL_TERM_SPACES:
            for t in _small_terms(space):
                term = render_path(space, t)
                for s in _intro_steps(space, t):
                    try:
                        got = render_path(space, apply_step(space, t, s))
                    except StepNotEnabledError:
                        got = "not enabled"
                    line = f"{space.name}|{term}|{format_step(s, space)}|{got}\n"
                    digest.update(line.encode())
                    count += 1
        assert count == 262241
        assert digest.hexdigest() == (
            "59c17e6fc33aa7e8f1189d8701b4d48f30818e1153603743fc322e5914711dc2"
        )


class TestRedexes:
    def test_no_redexes_on_normal_term(self):
        assert redexes(CIRCLE, A) == []
        assert redexes(TORUS, Trans(A, B)) != []  # the relation itself fires

    def test_intro_rules_never_enumerated(self):
        for sp in ALL_SPACES:
            rng = Lcg(3)
            for _ in range(30):
                t = random_term(sp, 1 + rng.randint(10), rng)
                for s in redexes(sp, t):
                    assert not s.rule.kind.endswith("_intro")

    def test_order_is_preorder_then_declaration(self):
        t = Trans(Trans(Refl("pt"), A), Symm(Refl("pt")))
        got = [(s.rule.kind, s.at) for s in redexes(CIRCLE, t)]
        assert got == [
            ("assoc_left", ()),
            ("trans_refl_left", (0,)),
            ("symm_refl", (1,)),
        ]

    def test_every_redex_applies(self):
        for sp in ALL_SPACES:
            rng = Lcg(5)
            for _ in range(40):
                t = random_term(sp, 1 + rng.randint(12), rng)
                for s in redexes(sp, t):
                    apply_step(sp, t, s)  # must not raise

    def test_redex_application_preserves_endpoints(self):
        for sp in ALL_SPACES:
            rng = Lcg(9)
            for _ in range(30):
                t = random_term(sp, 1 + rng.randint(12), rng)
                ends = endpoints(sp, t)
                for s in redexes(sp, t):
                    assert endpoints(sp, apply_step(sp, t, s)) == ends

    def test_ill_formed_term_rejected(self):
        with pytest.raises(UnknownGeneratorError):
            redexes(CIRCLE, Trans(A, Gen("zz")))
        with pytest.raises(EndpointMismatchError):
            redexes(CYL, Trans(Gen("s"), Gen("s")))
        # with two faults, the one `endpoints` meets first, class and message
        s, l0, l1 = Gen("s"), Gen("l0"), Gen("l1")
        for space, t in [
            (CIRCLE, Trans(Gen("zz"), Refl("nowhere"))),
            (CYL, Trans(Gen("qq"), Trans(s, s))),
            (CYL, Trans(Trans(s, s), Trans(l0, l1))),
        ]:
            want = _error(lambda: endpoints(space, t))
            assert want is not None
            assert _error(lambda: redexes(space, t)) == want

    def test_deep_term(self):
        # a^3000 nests 2,999 compositions to the left; the walk has no
        # recursion, and each composition but the innermost is an
        # assoc_left redex, outermost first
        got = redexes(CIRCLE, parse_path(CIRCLE, "a^3000"))
        assert [(s.rule, s.at) for s in got] == [
            (ASSOC_LEFT, (0,) * k) for k in range(2998)
        ]

    def test_redexes_of_small_terms_are_pinned(self):
        # digest of every small term's redex list, one line per term, as
        # written before the reducer was indexed by node shape
        digest = hashlib.sha256()
        count = 0
        for space in SMALL_TERM_SPACES:
            for t in _small_terms(space):
                steps = ";".join(format_step(s) for s in redexes(space, t))
                line = f"{space.name}|{render_path(space, t)}|{steps}\n"
                digest.update(line.encode())
                count += 1
        assert count == 2615
        assert digest.hexdigest() == (
            "c3cc9b4cba4af3e72ae6a45466d344c6e75f13a24694c85a1db59596cff0b977"
        )

    def test_traces_of_larger_terms_are_pinned(self):
        # digest of the normal form and every step line `trace` writes for
        # seeded random terms of 10 to 70 nodes and long torus and klein
        # words, as written while `trace` rebuilt the whole term per step
        rng = Lcg(23)
        cases = [
            (space, random_term(space, 10 + rng.randint(61), rng))
            for space in SMALL_TERM_SPACES
            for _ in range(30)
        ]
        for space, n in ((TORUS, 100), (TORUS, 200), (KLEIN, 100), (KLEIN, 150)):
            letters = tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(n))
            cases.append((space, term_of_word(Word(letters, "pt", "pt"))))
        digest = hashlib.sha256()
        for space, t in cases:
            nf, steps = trace(space, t)
            digest.update(f"{space.name}|{nf.word}\n".encode())
            for s in steps:
                digest.update(f"{format_step(s, space)}\n".encode())
        assert len(cases) == 214
        assert digest.hexdigest() == (
            "1a5a3fe61def229fc54252d85a1fbb37846cf125f7a0731ad5e856be15ab40a3"
        )


class TestWireFormat:
    def test_root_position(self):
        assert format_step(step(TRANS_REFL_LEFT)) == "trans_refl_left @ root"

    def test_nested_position(self):
        assert (
            format_step(step(SYMM_SYMM, (1, 0, 1)))
            == "symm_symm @ 1.0.1"
        )

    def test_relation_rule_name(self):
        assert (
            format_step(step(relation_fwd("torusComm"), (0,)))
            == "relation_fwd(torusComm) @ 0"
        )
        assert (
            format_step(step(relation_bwd("kleinSurf")))
            == "relation_bwd(kleinSurf) @ root"
        )

    def test_payload_rendering(self):
        s = step(SYMM_TRANS_CANCEL_INTRO, (1,), Symm(Gen("a")))
        assert format_step(s, CIRCLE) == "symm_trans_cancel_intro @ 1 [~a]"


class TestFreeNormalize:
    def test_flattening_and_signs(self):
        t = Symm(Trans(A, Symm(B)))
        w = free_normalize(TORUS, t)
        assert w == Word((("b", 1), ("a", -1)), "pt", "pt")

    def test_adjacent_cancellation(self):
        t = Trans(A, Trans(Symm(A), B))
        assert free_normalize(TORUS, t).letters == (("b", 1),)

    def test_chained_cancellation(self):
        # the collapse has to cascade through the middle
        t = Trans(Trans(A, B), Trans(Symm(B), Symm(A)))
        assert free_normalize(TORUS, t).letters == ()

    def test_refl_vanishes(self):
        t = Trans(Refl("pt"), Trans(A, Refl("pt")))
        assert free_normalize(CIRCLE, t).letters == (("a", 1),)

    def test_endpoints_kept_for_empty_words(self):
        w = free_normalize(CYL, Trans(Gen("s"), Symm(Gen("s"))))
        assert (w.letters, w.src, w.tgt) == ((), "b0", "b0")

    def test_word_term_round_trip(self):
        rng = Lcg(13)
        for sp in ALL_SPACES:
            for _ in range(25):
                t = random_term(sp, 1 + rng.randint(12), rng)
                w = free_normalize(sp, t)
                assert free_normalize(sp, term_of_word(w)) == w


class TestNormalizeAnchors:
    def test_circle_winding(self):
        t = Trans(Trans(A, A), Symm(A))
        assert normalize(CIRCLE, t).word.letters == (("a", 1),)

    def test_torus_sorts_first_generator_first(self):
        t = Trans(B, Trans(A, Trans(B, Symm(A))))
        assert normalize(TORUS, t).word.letters == (("b", 1), ("b", 1))
        t2 = Trans(B, A)
        assert normalize(TORUS, t2).word.letters == (("a", 1), ("b", 1))

    def test_klein_swap_table(self):
        sa, sb = Symm(A), Symm(B)
        table = [
            (Trans(B, A), (("a", 1), ("b", -1))),
            (Trans(B, sa), (("a", -1), ("b", -1))),
            (Trans(sb, A), (("a", 1), ("b", 1))),
            (Trans(sb, sa), (("a", -1), ("b", 1))),
        ]
        for term, want in table:
            assert normalize(KLEIN, term).word.letters == want

    def test_klein_exponent_law(self):
        # moving one a across flips the sign of every following b
        t = Trans(B, Trans(B, A))
        assert normalize(KLEIN, t).word.letters == (
            ("a", 1),
            ("b", -1),
            ("b", -1),
        )

    def test_rp2_parity(self):
        alpha = Gen("alpha")
        assert normalize(RP2, Trans(alpha, alpha)).word.letters == ()
        assert normalize(RP2, Trans(alpha, Trans(alpha, alpha))).word.letters == (
            ("alpha", 1),
        )
        assert normalize(RP2, Symm(alpha)).word.letters == (("alpha", 1),)

    def test_cylinder_far_loop_eliminated(self):
        s, l0, l1 = Gen("s"), Gen("l0"), Gen("l1")
        got = normalize(CYL, Trans(s, Trans(l1, Symm(s))))
        assert got.word.letters == (("l0", 1),)
        lone = normalize(CYL, l1)
        assert lone.word.letters == (("s", -1), ("l0", 1), ("s", 1))
        inv = normalize(CYL, Symm(l1))
        assert inv.word.letters == (("s", -1), ("l0", -1), ("s", 1))

    def test_normalize_is_idempotent_on_words(self):
        rng = Lcg(17)
        for sp in ALL_SPACES:
            for _ in range(30):
                t = random_term(sp, 1 + rng.randint(14), rng)
                nf = normalize(sp, t)
                assert normalize(sp, term_of_word(nf.word)) == nf


# the cylinder's former canonical-word rule: its far loop substituted
FAR_LOOP = {"l1": (("s", -1), ("l0", 1), ("s", 1))}


def _former_normalize(space, p):
    """normalize as it was before records derived a spanning tree: the
    cylinder substituted l1 -> ~s l0 s and reduced freely, and every other
    builtin wrote the fold of its letters."""
    w = free_normalize(space, p)
    rec = _builtin_record(space)
    if space is not CYL:
        return NormalForm(Word(rec.write(*rec.fold(w.letters)), w.src, w.tgt))
    out = []
    for name, sign in w.letters:
        image = FAR_LOOP.get(name, ((name, 1),))
        for g, s in image if sign > 0 else reversed(image):
            if out and out[-1] == (g, -s * sign):
                out.pop()
            else:
                out.append((g, s * sign))
    return NormalForm(Word(tuple(out), w.src, w.tgt))


class TestFormerNormalizeParity:
    """normalize, the one tree-and-fold route of every builtin, gives the
    normal forms of the former routes, kept in `_former_normalize`."""

    def test_enumerated_terms(self):
        checked = 0
        for space in ALL_SPACES:
            for src in space.points:
                for tgt in space.points:
                    for n in range(1, 8):
                        for t in enumerate_terms(space, n, src, tgt)[:400]:
                            assert normalize(space, t) == _former_normalize(space, t)
                            checked += 1
        assert checked == 5576

    def test_random_terms(self):
        rng = Lcg(101)
        for space in ALL_SPACES:
            for src in space.points:
                for tgt in space.points:
                    for _ in range(300):
                        t = random_term(space, 8 + rng.randint(193), rng, src, tgt)
                        assert normalize(space, t) == _former_normalize(space, t)


# b0 -e-> x -f-> y with a loop a at b0: a tree two letters deep, which no
# builtin has
THREE_POINTS = SpacePresentation(
    "threePoints", ("b0", "x", "y"),
    (Generator("e", "b0", "x"), Generator("f", "x", "y"), Generator("a", "b0", "b0")),
    (), "b0", GroupTag.FREE_Z,
)


class TestSpanningTree:
    def test_tree_words_and_images(self):
        rec = _Builtin(THREE_POINTS, ("a",))
        assert rec.tree == {"b0": (), "x": (("e", 1),), "y": (("e", 1), ("f", 1))}
        assert rec.images == {"a": (1, 0), "e": (0, 0), "f": (0, 0)}

    def test_canonical_drops_the_shared_prefix_of_the_tree_words(self):
        rec = _Builtin(THREE_POINTS, ("a",))
        assert rec.canonical((("f", 1),), "x", "y") == (("f", 1),)
        assert rec.canonical((("f", -1),), "y", "x") == (("f", -1),)
        assert rec.canonical((), "y", "y") == ()
        assert rec.canonical((("f", -1), ("e", -1)), "y", "b0") == (
            ("f", -1), ("e", -1))

    def test_canonical_keeps_the_tree_words_around_a_loop(self):
        rec = _Builtin(THREE_POINTS, ("a",))
        word = (("f", -1), ("e", -1), ("a", 1), ("a", 1), ("e", 1))
        assert rec.canonical(word, "y", "x") == word
        assert rec.canonical((("e", -1), ("a", -1), ("e", 1)), "x", "x") == (
            ("e", -1), ("a", -1), ("e", 1))


class TestRwEq:
    def test_equal_after_relation(self):
        assert rw_eq(TORUS, Trans(A, B), Trans(B, A))

    def test_unequal_distinct_words(self):
        assert not rw_eq(TORUS, A, B)

    def test_endpoint_mismatch_raises(self):
        with pytest.raises(EndpointMismatchError):
            rw_eq(CYL, Gen("s"), Gen("l0"))

    # a builtin's normal forms decide; a file space's decide only without
    # relations, and elsewhere differing free normal forms answer None
    @pytest.mark.parametrize("space, p, q, answer", [
        ("circle", "a * a", "a^2", True),
        ("circle", "a", "~a", False),
        ("cylinder", "l0", "s * l1 * ~s", True),
        ("cylinder", "s", "l0 * s", False),
        ("mobius", "a^2", "a * a", True),
        ("mobius", "a", "~a", False),
        ("torus", "a * b", "b * a", True),
        ("torus", "a", "b", False),
        ("klein", "a * b", "~b * a", True),
        ("klein", "a * b", "b * a", False),
        ("rp2", "alpha", "~alpha", True),
        ("rp2", "alpha", "refl", False),
        ("free", "a * ~a * b", "b", True),
        ("free", "a * b", "b * a", False),
        ("torusfile", "a * b * ~b", "a", True),
        ("torusfile", "a * b", "b * a", None),
        ("torusfile", "a", "b", None),
        ("kleinfile", "b * a * ~a", "b", True),
        ("kleinfile", "a * b", "~b * a", None),
    ])
    def test_true_false_or_undecided(self, space, p, q, answer):
        files = {
            "free": "point pt\ngen a : pt -> pt\ngen b : pt -> pt\n",
            "torusfile": TORUS_FILE,
            "kleinfile": "point pt\ngen a : pt -> pt\ngen b : pt -> pt\n"
                         "rel surf : a * b = ~b * a\n",
        }
        sp = parse_space_text(files[space], space) if space in files else builtin(space)
        # `is`: a decided answer is the bool object itself
        assert rw_eq(sp, parse_path(sp, p), parse_path(sp, q)) is answer

    def test_single_step_soundness(self):
        for sp in ALL_SPACES:
            rng = Lcg(23)
            for _ in range(40):
                t = random_term(sp, 1 + rng.randint(12), rng)
                base = normalize(sp, t)
                for s in redexes(sp, t):
                    assert normalize(sp, apply_step(sp, t, s)) == base


@st.composite
def space_and_term(draw):
    name = draw(st.sampled_from(
        ["circle", "cylinder", "mobius", "torus", "klein", "rp2"]
    ))
    space = builtin(name)
    seed = draw(st.integers(0, 10**9))
    n = draw(st.integers(1, 20))
    return space, random_term(space, n, Lcg(seed))


class TestTrace:
    @settings(max_examples=120, deadline=None)
    @given(space_and_term())
    def test_trace_agrees_with_normalize(self, st_pair):
        space, t = st_pair
        nf, _ = trace(space, t)
        assert nf == normalize(space, t)

    @settings(max_examples=120, deadline=None)
    @given(space_and_term())
    def test_trace_steps_replay(self, st_pair):
        space, t = st_pair
        nf, steps = trace(space, t)
        cur = t
        for s in steps:
            cur = apply_step(space, cur, s)  # raises if a step is stale
        assert free_normalize(space, cur).letters == nf.word.letters
        assert endpoints(space, cur) == (nf.word.src, nf.word.tgt)

    def test_replay_matches_a_constructor_rebuild(self):
        # every step of the traces `test_traces_of_larger_terms_are_pinned`
        # digests: apply_step's result must equal, hash and count like the
        # rewritten subterm put back with the public constructors
        rng = Lcg(23)
        cases = [
            (space, random_term(space, 10 + rng.randint(61), rng))
            for space in SMALL_TERM_SPACES
            for _ in range(30)
        ]
        for space, n in ((TORUS, 100), (TORUS, 200), (KLEIN, 100), (KLEIN, 150)):
            letters = tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(n))
            cases.append((space, term_of_word(Word(letters, "pt", "pt"))))
        count = 0
        for space, t in cases:
            cur = t
            for s in trace(space, t)[1]:
                subs = [cur]
                for idx in s.at:
                    node = subs[-1]
                    subs.append(node.inner if isinstance(node, Symm) else
                                node.second if idx else node.first)
                want = apply_step(space, subs.pop(), RewriteStep(s.rule, (), s.payload))
                for node, idx in zip(reversed(subs), reversed(s.at)):
                    if isinstance(node, Symm):
                        want = Symm(want)
                    else:
                        want = Trans(node.first, want) if idx else Trans(want, node.second)
                cur = apply_step(space, cur, s)
                assert cur == want
                assert hash(cur) == hash(want)
                assert size(cur) == size(want)
                count += 1
        assert count == 28154

    def test_trace_on_normal_term_is_empty(self):
        nf, steps = trace(CIRCLE, A)
        assert steps == ()
        assert nf.word.letters == (("a", 1),)

    def test_trace_of_constant(self):
        nf, steps = trace(CIRCLE, Refl("pt"))
        assert steps == ()
        assert nf == NormalForm(Word((), "pt", "pt"))

    def test_dispatch_tables_pick_the_first_fitting_rule(self, monkeypatch):
        # the tables `trace` scans by, gathered from traces that use every
        # phase, the one-letter spine rules of the cylinder included
        seen = []
        run_rules = _Normalizer.run_rules

        def spy(nz, table, term):
            seen.append(table)
            return run_rules(nz, table, term)

        monkeypatch.setattr(_Normalizer, "run_rules", spy)
        for space, text in ((KLEIN, "~(b * ~~a) * (refl * a)"), (CYL, "s * l1")):
            trace(space, parse_path(space, text))
        assert {id(t) for t in seen} == {id(t) for t in _PHASES}
        assert _PHASE_RULES == (
            (SYMM_REFL, SYMM_SYMM, SYMM_TRANS_CONGR),
            (ASSOC_LEFT,),
            (TRANS_REFL_LEFT, TRANS_REFL_RIGHT),
        )
        for rules, table in zip(_PHASE_RULES, _PHASES):
            for shape in _SHAPES:
                fits = [r for r in rules if (shape, r.kind) in _RULES]
                if fits:
                    assert table[shape] == (fits[0], _RULES[shape, fits[0].kind][1])
                else:
                    assert shape not in table
            assert set(table) <= set(_SHAPES)

    def test_trace_serializes(self):
        t = Trans(B, Trans(A, Symm(Trans(A, B))))
        _, steps = trace(KLEIN, t)
        lines = [format_step(s, KLEIN) for s in steps]
        assert all(" @ " in line for line in lines)


class TestDeepTerms:
    # words of 10^4 letters nest 10^4 deep, ten times the recursion limit

    def test_normalize_of_a_long_word(self):
        t = parse_path(TORUS, " * ".join(["b", "~a"] * 5000))
        want = (("a", -1),) * 5000 + (("b", 1),) * 5000
        assert normalize(TORUS, t).word.letters == want

    def test_trace_of_a_long_word_replays(self):
        letters = [("b", 1), ("a", 1)] + [("a", 1), ("a", -1)] * 2500 + [("b", 1)] * 4998
        t = term_of_word(Word(tuple(letters), "pt", "pt"))
        nf, steps = trace(TORUS, t)
        assert nf.word.letters == (("a", 1),) + (("b", 1),) * 4999
        want = B
        for leg in [B] * 4998 + [A]:
            want = Trans(leg, want)
        assert replay(TORUS, t, steps) == want


def _loop_outcome(space, t, steps):
    """What `apply_step`, one step at a time, makes of a step list: the term
    it reaches, or the index of the step refused with its error's class and
    message."""
    for i, s in enumerate(steps):
        try:
            t = apply_step(space, t, s)
        except Exception as e:
            return i, type(e), str(e)
    return t


def _replay_outcome(space, t, steps):
    """The same from `replay`, fed the steps one at a time, so that a
    refusal shows how many it took."""
    fed = []

    def feed():
        for s in steps:
            fed.append(s)
            yield s

    try:
        return replay(space, t, feed())
    except Exception as e:
        return len(fed) - 1, type(e), str(e)


def _jumping_steps(space, t, rng, n):
    """n steps from t, each drawn against the term the ones before it leave:
    a random redex, or an intro row that applies at a random position."""
    payloads = [
        q for src in space.points for tgt in space.points
        for q in enumerate_terms(space, 1, src, tgt)
    ]
    steps = []
    while len(steps) < n:
        found = redexes(space, t)
        if found and rng.randint(2):
            s = rng.choice(found)
        else:
            rule = rng.choice(tuple(_UNDOES))
            payload = rng.choice(payloads) if rule in _PAYLOAD_INTROS else None
            s = RewriteStep(rule, rng.choice(_positions(t)), payload)
        try:
            t = apply_step(space, t, s)
        except StepNotEnabledError:
            continue
        steps.append(s)
    return steps


class TestReplay:
    """`replay` keeps one zipper open across a step list; it must reach what
    the `apply_step` loop reaches, and refuse where it refuses."""

    def test_pinned_traces(self):
        cases = _pinned_trace_cases()
        for space, t in cases:
            steps = trace(space, t)[1]
            want = _loop_outcome(space, t, steps)
            assert not isinstance(want, tuple)
            assert _replay_outcome(space, t, steps) == want
        assert len(cases) == 214

    @pytest.mark.parametrize("space, term, s, message", _REFUSALS)
    def test_refusals_among_valid_steps(self, space, term, s, message):
        # valid steps that leave the term as it was: at the deepest position
        # on the way to the refused one, then at the root and back, and a
        # valid step after the refusal that is never reached
        deep = max((p for p in _positions(term) if s.at[:len(p)] == p), key=len)
        steps = [
            step(SYMM_SYMM_INTRO, deep), step(TRANS_REFL_RIGHT_INTRO),
            step(TRANS_REFL_RIGHT), step(SYMM_SYMM, deep), s, step(SYMM_SYMM_INTRO),
        ]
        want = (4, StepNotEnabledError, message)
        assert _loop_outcome(space, term, steps) == want
        assert _replay_outcome(space, term, steps) == want

    def test_random_step_lists_jump_between_branches(self):
        rng = Lcg(29)
        jumps = 0
        for space in SMALL_TERM_SPACES:
            for _ in range(8):
                t = random_term(space, 5 + rng.randint(20), rng)
                steps = _jumping_steps(space, t, rng, 30)
                want = _loop_outcome(space, t, steps)
                assert not isinstance(want, tuple)
                assert _replay_outcome(space, t, steps) == want
                for a, b in zip(steps, steps[1:]):
                    k = min(len(a.at), len(b.at))
                    jumps += a.at[:k] != b.at[:k]
        # a jump leaves the last step's branch: neither position extends
        # the other, so the zipper climbs above both
        assert jumps > 500


# The exact step lists `trace` writes. The first twelve cases apply each
# relation template once; the last six exercise the bracketing around a
# rewrite: a pair before, at and as the whole spine, and a one-letter
# rewrite inside a longer spine.
TRACE_GOLDEN = [
    ("torus", "b * a", [
        "relation_bwd(torusComm) @ root",
    ]),
    ("torus", "b * ~a", [
        "trans_refl_left_intro @ root",
        "symm_trans_cancel_intro @ 0 [a]",
        "assoc_left @ root",
        "assoc_right @ 1",
        "relation_fwd(torusComm) @ 1.0",
        "assoc_left @ 1",
        "trans_symm_cancel @ 1.1",
        "trans_refl_right @ 1",
    ]),
    ("torus", "~b * a", [
        "trans_refl_right_intro @ root",
        "trans_symm_cancel_intro @ 1 [b]",
        "assoc_left @ root",
        "assoc_right @ 1",
        "relation_fwd(torusComm) @ 1.0",
        "assoc_left @ 1",
        "assoc_right @ root",
        "symm_trans_cancel @ 0",
        "trans_refl_left @ root",
    ]),
    ("torus", "~b * ~a", [
        "symm_trans_congr_intro @ root",
        "relation_fwd(torusComm) @ 0",
        "symm_trans_congr @ root",
    ]),
    ("klein", "b * a", [
        "symm_symm_intro @ 0",
        "relation_bwd(kleinSurf) @ 0.0",
        "symm_trans_congr @ 0",
        "symm_symm @ 0.0",
        "symm_trans_congr @ 0.1",
        "assoc_left @ root",
        "assoc_left @ 1",
        "symm_trans_cancel @ 1.1",
        "trans_refl_right @ 1",
    ]),
    ("klein", "b * ~a", [
        "trans_refl_left_intro @ root",
        "symm_trans_cancel_intro @ 0 [a]",
        "assoc_left @ root",
        "assoc_right @ 1",
        "relation_fwd(kleinSurf) @ 1",
    ]),
    ("klein", "~b * a", [
        "relation_bwd(kleinSurf) @ 0",
        "assoc_left @ root",
        "symm_trans_cancel @ 1",
        "trans_refl_right @ root",
    ]),
    ("klein", "~b * ~a", [
        "symm_trans_congr_intro @ root",
        "trans_refl_right_intro @ 0",
        "trans_symm_cancel_intro @ 0.1 [~a]",
        "assoc_right @ 0",
        "relation_fwd(kleinSurf) @ 0.0",
        "symm_trans_congr @ root",
        "symm_symm @ 0",
        "symm_symm @ 1",
    ]),
    ("cylinder", "l1", [
        "trans_refl_left_intro @ root",
        "symm_trans_cancel_intro @ 0 [s]",
        "assoc_left @ root",
        "relation_fwd(cylSquare) @ 1",
    ]),
    ("cylinder", "~l1", [
        "trans_refl_left_intro @ 0",
        "symm_trans_cancel_intro @ 0.0 [s]",
        "assoc_left @ 0",
        "relation_fwd(cylSquare) @ 0.1",
        "symm_trans_congr @ root",
        "symm_trans_congr @ 0",
        "symm_symm @ 1",
        "assoc_left @ root",
    ]),
    ("rp2", "~alpha", [
        "trans_refl_left_intro @ root",
        "relation_bwd(loopSquare) @ 0",
        "assoc_left @ root",
        "trans_symm_cancel @ 1",
        "trans_refl_right @ root",
    ]),
    ("rp2", "alpha * alpha", [
        "relation_fwd(loopSquare) @ root",
    ]),
    ("torus", "b * a * a", [
        "assoc_left @ root",
        "assoc_right @ root",
        "relation_bwd(torusComm) @ 0",
        "assoc_left @ root",
        "relation_bwd(torusComm) @ 1",
    ]),
    ("circle", "a * ~a * a", [
        "assoc_left @ root",
        "assoc_right @ root",
        "trans_symm_cancel @ 0",
        "trans_refl_left @ root",
    ]),
    ("circle", "a * a * ~a", [
        "assoc_left @ root",
        "trans_symm_cancel @ 1",
        "trans_refl_right @ root",
    ]),
    ("cylinder", "s * l1 * ~s", [
        "assoc_left @ root",
        "trans_refl_left_intro @ 1.0",
        "symm_trans_cancel_intro @ 1.0.0 [s]",
        "assoc_left @ 1.0",
        "relation_fwd(cylSquare) @ 1.0.1",
        "assoc_left @ 1",
        "assoc_left @ 1.1",
        "assoc_right @ root",
        "trans_symm_cancel @ 0",
        "trans_refl_left @ root",
        "trans_symm_cancel @ 1",
        "trans_refl_right @ root",
    ]),
    ("rp2", "~alpha * ~alpha * ~alpha", [
        "assoc_left @ root",
        "trans_refl_left_intro @ 0",
        "relation_bwd(loopSquare) @ 0.0",
        "assoc_left @ 0",
        "trans_symm_cancel @ 0.1",
        "trans_refl_right @ 0",
        "trans_refl_left_intro @ 1.0",
        "relation_bwd(loopSquare) @ 1.0.0",
        "assoc_left @ 1.0",
        "trans_symm_cancel @ 1.0.1",
        "trans_refl_right @ 1.0",
        "trans_refl_left_intro @ 1.1",
        "relation_bwd(loopSquare) @ 1.1.0",
        "assoc_left @ 1.1",
        "trans_symm_cancel @ 1.1.1",
        "trans_refl_right @ 1.1",
        "assoc_right @ root",
        "relation_fwd(loopSquare) @ 0",
        "trans_refl_left @ root",
    ]),
    ("klein", "a * b * ~a * b", [
        "assoc_left @ root",
        "assoc_left @ root",
        "assoc_right @ 1",
        "trans_refl_left_intro @ 1.0",
        "symm_trans_cancel_intro @ 1.0.0 [a]",
        "assoc_left @ 1.0",
        "assoc_right @ 1.0.1",
        "relation_fwd(kleinSurf) @ 1.0.1",
        "assoc_left @ 1",
        "assoc_right @ root",
        "trans_symm_cancel @ 0",
        "trans_refl_left @ root",
        "symm_trans_cancel @ root",
    ]),
]


@pytest.mark.parametrize(
    "name, text, want", TRACE_GOLDEN, ids=[f"{n}:{t}" for n, t, _ in TRACE_GOLDEN]
)
def test_trace_step_lines(name, text, want):
    space = builtin(name)
    _, steps = trace(space, parse_path(space, text))
    assert [format_step(s, space) for s in steps] == want


FILE_SPACE = parse_space_text(
    "point p\npoint q\ngen f : p -> q\ngen g : q -> p\ngen h : p -> p\n", "pq"
)
S, L0, L1 = Gen("s"), Gen("l0"), Gen("l1")
ZZ, YY = Gen("zz"), Gen("yy")
# 3,000 letters nested left, then right, on the circle and the cylinder
LEFT_CHAIN = term_of_word(Word((("a", 1),) * 3000, "pt", "pt"))
RIGHT_CHAIN = Refl("b0")
for _ in range(3000):
    RIGHT_CHAIN = Trans(L0, RIGHT_CHAIN)

# (space, ill-formed term, the error every entry point raises). Where a
# term holds several faults, the error is the first one `endpoints` meets
# in its post-order, left leg first; under an inverse the letters run in
# the other order, so a walk in letter order meets another fault first.
ILL_FORMED = [
    (CIRCLE, Trans(A, ZZ), "UnknownGeneratorError: 'zz' is not a generator of 'circle'"),
    (CIRCLE, Trans(Refl("q"), A), "UnknownPointError: 'q' is not a point of 'circle'"),
    (
        CYL, Trans(S, S),
        "EndpointMismatchError: cannot compose: first ends at 'b1', second starts at 'b0'",
    ),
    (TORUS, Trans(YY, ZZ), "UnknownGeneratorError: 'yy' is not a generator of 'torus'"),
    (
        KLEIN, Symm(Trans(YY, ZZ)),
        "UnknownGeneratorError: 'yy' is not a generator of 'klein'",
    ),
    (
        CYL, Symm(Trans(Trans(S, S), ZZ)),
        "EndpointMismatchError: cannot compose: first ends at 'b1', second starts at 'b0'",
    ),
    (
        CYL, Symm(Trans(ZZ, Trans(S, S))),
        "UnknownGeneratorError: 'zz' is not a generator of 'cylinder'",
    ),
    (
        CYL, Symm(Trans(Trans(L0, L1), S)),
        "EndpointMismatchError: cannot compose: first ends at 'b0', second starts at 'b1'",
    ),
    (
        CYL, Trans(Symm(Trans(L0, Refl("b9"))), S),
        "UnknownPointError: 'b9' is not a point of 'cylinder'",
    ),
    (
        CYL, Trans(Symm(Trans(S, Refl("b9"))), Trans(L1, L1)),
        "UnknownPointError: 'b9' is not a point of 'cylinder'",
    ),
    (
        CYL, Trans(Trans(S, Symm(S)), Trans(S, Symm(L0))),
        "EndpointMismatchError: cannot compose: first ends at 'b1', second starts at 'b0'",
    ),
    (
        RP2, Symm(Symm(Trans(Gen("α"), Gen("alpha")))),
        "UnknownGeneratorError: 'α' is not a generator of 'rp2'",
    ),
    (
        FILE_SPACE, Trans(Gen("f"), Gen("f")),
        "EndpointMismatchError: cannot compose: first ends at 'q', second starts at 'p'",
    ),
    (
        FILE_SPACE, Symm(Trans(Trans(Gen("h"), Gen("g")), Refl("r"))),
        "EndpointMismatchError: cannot compose: first ends at 'p', second starts at 'q'",
    ),
    (
        CIRCLE, Trans(LEFT_CHAIN, ZZ),
        "UnknownGeneratorError: 'zz' is not a generator of 'circle'",
    ),
    (
        CIRCLE, Symm(Trans(Refl("q"), Trans(LEFT_CHAIN, ZZ))),
        "UnknownPointError: 'q' is not a point of 'circle'",
    ),
    (
        CYL, Trans(RIGHT_CHAIN, Trans(S, S)),
        "EndpointMismatchError: cannot compose: first ends at 'b1', second starts at 'b0'",
    ),
    (
        CYL, Symm(Trans(Trans(L0, L1), RIGHT_CHAIN)),
        "EndpointMismatchError: cannot compose: first ends at 'b0', second starts at 'b1'",
    ),
    (
        CYL, Trans(L0, Trans(RIGHT_CHAIN, Trans(Refl("b1"), ZZ))),
        "UnknownGeneratorError: 'zz' is not a generator of 'cylinder'",
    ),
    (CIRCLE, "a", "TypeError: not a path term: 'a'"),
]


def _error(call):
    try:
        call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class TestIllFormedTerms:
    """The error each entry point raises on an ill-formed term, pinned while
    each of them walked the term with `endpoints` before normalizing."""

    @pytest.mark.parametrize("case", range(len(ILL_FORMED)))
    def test_every_entry_point_raises_the_endpoints_error(self, case):
        space, p, want = ILL_FORMED[case]
        good = Refl(space.basepoint)
        calls = {
            "endpoints": lambda: endpoints(space, p),
            "free_normalize": lambda: free_normalize(space, p),
            "normalize": lambda: normalize(space, p),
            "rw_eq": lambda: rw_eq(space, p, good),
            "rw_eq swapped": lambda: rw_eq(space, good, p),
            "class_of": lambda: class_of(space, p),
            "redexes": lambda: redexes(space, p),
        }
        if space.group_tag is not None:
            calls["encode"] = lambda: encode(space, p)
        assert {name: _error(call) for name, call in calls.items()} == {
            name: want for name in calls
        }

    @pytest.mark.parametrize("case", range(len(ILL_FORMED)))
    def test_replay_raises_what_the_step_loop_raises(self, case):
        # a unit introduction at the root reads the term's endpoints, so after
        # two valid steps it raises what `endpoints` raises
        space, p, want = ILL_FORMED[case]
        steps = [step(SYMM_SYMM_INTRO), step(SYMM_SYMM), step(TRANS_REFL_LEFT_INTRO)]
        got = _loop_outcome(space, p, steps)
        assert _replay_outcome(space, p, steps) == got
        if isinstance(p, str):  # a value that is no term fits no rule
            assert got[:2] == (0, StepNotEnabledError)
        else:
            assert (got[0], f"{got[1].__name__}: {got[2]}") == (2, want)

    def test_chains_are_long(self):
        assert (LEFT_CHAIN._size, RIGHT_CHAIN._size) == (5999, 6001)

    def test_well_formed_terms_with_other_endpoints(self):
        assert _error(lambda: rw_eq(CYL, S, L0)) == (
            "EndpointMismatchError: cannot compare paths with different endpoints: "
            "got b0 -> b1 and b0 -> b0"
        )
        assert _error(lambda: rw_eq(CYL, Trans(RIGHT_CHAIN, S), L1)) == (
            "EndpointMismatchError: cannot compare paths with different endpoints: "
            "got b0 -> b1 and b1 -> b1"
        )
        assert _error(lambda: encode(CYL, S)) == (
            "NotABasepointLoopError: encode needs a loop at 'b0', got b0 -> b1"
        )
        assert _error(lambda: encode(CYL, Trans(Symm(S), RIGHT_CHAIN))) == (
            "NotABasepointLoopError: encode needs a loop at 'b0', got b1 -> b0"
        )
        assert _error(lambda: encode(FILE_SPACE, Trans(Gen("f"), Gen("f")))) == (
            "GroupTagMismatchError: space 'pq' carries no group tag; encode is undefined"
        )


def _reference_word(space, p):
    """free_normalize written plainly: `endpoints`, then the letters by a
    walk that pushes each inverse down to the leaves, then cancellation of
    adjacent inverse pairs."""
    src, tgt = endpoints(space, p)
    letters = []
    todo = [(p, 1)]
    while todo:
        node, sign = todo.pop()
        if isinstance(node, Gen):
            letters.append((node.name, sign))
        elif isinstance(node, Symm):
            todo.append((node.inner, -sign))
        elif isinstance(node, Trans):
            legs = [node.first, node.second] if sign < 0 else [node.second, node.first]
            todo += [(leg, sign) for leg in legs]
    reduced = []
    for letter in letters:
        if reduced and reduced[-1] == (letter[0], -letter[1]):
            reduced.pop()
        else:
            reduced.append(letter)
    return Word(tuple(reduced), src, tgt)


class TestFreeNormalizeReference:
    def test_matches_a_plain_reference_on_random_terms(self):
        checked = 0
        for space in ALL_SPACES + [FILE_SPACE]:
            rng = Lcg(31)
            for n in range(1, 61):
                for _ in range(4):
                    p = random_term(space, n, rng)
                    assert free_normalize(space, p) == _reference_word(space, p)
                    checked += 1
        assert checked == 7 * 60 * 4


def _pinned_trace_cases():
    """The 214 terms whose traces `test_traces_of_larger_terms_are_pinned`
    digests, built the same way."""
    rng = Lcg(23)
    cases = [
        (space, random_term(space, 10 + rng.randint(61), rng))
        for space in SMALL_TERM_SPACES
        for _ in range(30)
    ]
    for space, n in ((TORUS, 100), (TORUS, 200), (KLEIN, 100), (KLEIN, 150)):
        letters = tuple((rng.choice("ab"), rng.choice((1, -1))) for _ in range(n))
        cases.append((space, term_of_word(Word(letters, "pt", "pt"))))
    return cases


class TestSpineRules:
    """The spine rules the builtin records write as step lines, and the
    compiled tiers `trace` reads."""

    def test_record_lines_read_back_to_themselves(self):
        lines = [
            (space, line)
            for space in ALL_SPACES
            for tier in _builtin_record(space).spine_rules
            for steps in tier.values()
            for line in steps
        ]
        assert len(lines) == 65
        for space, line in lines:
            assert format_step(_read_step(space, line), space) == line

    def test_compiled_rules_keep_the_normal_form(self):
        def lit(name, sign):
            return Gen(name) if sign > 0 else Symm(Gen(name))

        compiled = 0
        for space in SMALL_TERM_SPACES + [FILE_SPACE]:
            for tier in _spine_rules(space):
                for letters, contexts in tier.items():
                    # a letter before the match ends where it starts, and
                    # one after it starts where it ends: the inverses of
                    # its first and last letters
                    (first, s1), (last, s2) = letters[0], letters[-1]
                    before, after = [(first, -s1)], [(last, -s2)]
                    # letters on both sides, ending the spine, the whole spine
                    places = [(before, after), (before, []), ([], [])]
                    for (back, steps, new), (left, right) in zip(contexts, places):
                        spine = [lit(*le) for le in left + list(letters) + right]
                        term = spine.pop()
                        while spine:
                            term = Trans(spine.pop(), term)
                        anchor = (1,) * (len(left) - back)
                        replayed = term
                        for s in steps:
                            replayed = apply_step(
                                space, replayed, RewriteStep(s.rule, anchor + s.at, s.payload)
                            )
                        assert normalize(space, replayed) == normalize(space, term)
                        got = [_letter(leg) for leg in _legs(replayed)]
                        assert got == left + list(new) + right
                    compiled += 1
        # two cancellations per generator, then each record's patterns
        assert compiled == 2 * 15 + 2 + 4 + 4 + 2

    def test_compiled_once_per_space(self):
        assert _spine_rules(KLEIN) is _spine_rules(builtin("klein"))

    def test_patterns_are_read_by_the_grammar(self, monkeypatch):
        # a misspelt generator in a record's pattern is refused when the
        # record's rules are compiled, not left to never match
        record = _Builtin(TORUS, ("a", "b"), ({"b ~c": ("symm_symm_intro @ root",)},))
        monkeypatch.setattr("pathrw.rewrite._builtin_record", lambda space: record)
        with pytest.raises(ParseError, match="'c' is not a generator of 'torus'"):
            _spine_rules.__wrapped__(TORUS)

    def test_reader_round_trips_the_pinned_traces(self):
        cases = _pinned_trace_cases()
        assert len(cases) == 214
        read = payloads = 0
        for space, t in cases:
            _, steps = trace(space, t)
            for s in steps:
                assert _read_step(space, format_step(s, space)) == s
                read += 1
                payloads += s.payload is not None
        assert read > 10_000 and payloads > 100


# A tagged presentation that shares a builtin's name but not its
# generators, and an exact copy of the torus under another name: neither is
# a builtin, so neither has a builtin's record.
XY_TORUS = SpacePresentation(
    "torus", ("pt",), (Generator("x", "pt", "pt"), Generator("y", "pt", "pt")),
    (), "pt", GroupTag.ZXZ,
)
MY_TORUS = SpacePresentation("mytorus", *TORUS._values()[1:])


class TestRecordLookup:
    def test_a_builtin_name_does_not_make_a_builtin(self):
        x, y = Gen("x"), Gen("y")
        assert _builtin_record(XY_TORUS) is None
        assert normalize(XY_TORUS, Trans(y, x)).word.letters == (("y", 1), ("x", 1))
        assert rw_eq(XY_TORUS, x, y) is False
        assert normal_forms_decide(XY_TORUS)
        assert trace(XY_TORUS, Trans(y, x)) == (normalize(XY_TORUS, Trans(y, x)), ())
        assert _error(lambda: encode(XY_TORUS, x)) == (
            "GroupTagMismatchError: space 'torus' is not a builtin presentation; "
            "encode is undefined"
        )

    def test_a_renamed_builtin_decides_nothing_its_relations_settle(self):
        ab, ba = Trans(A, B), Trans(B, A)
        assert _builtin_record(MY_TORUS) is None
        assert rw_eq(MY_TORUS, ab, ba) is None
        assert not normal_forms_decide(MY_TORUS)
        assert bfs_rw_eq(MY_TORUS, ab, ba).kind == EQUAL
        for call in (lambda: encode(MY_TORUS, ab),
                     lambda: decode(MY_TORUS, GroupValue(GroupTag.ZXZ, 1))):
            assert "space 'mytorus' is not a builtin presentation" in _error(call)
        results = run_checks(MY_TORUS, samples=4, max_size=6)
        names = {r.name for r in results}
        assert names.isdisjoint({"group-round-trip", "homomorphism"})
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_every_builtin_finds_its_own_record(self):
        for space in ALL_SPACES:
            assert _builtin_record(space).space is space
