"""Tests for the search oracle, the enumerators, and the seeded RNG."""

import functools
import gc
import hashlib
import tracemalloc
import weakref

import pytest

from pathrw import oracle, terms
from pathrw.errors import (
    EndpointMismatchError,
    UnknownGeneratorError,
    UnreachableEndpointsError,
)
from pathrw.oracle import (
    BUDGET_EXHAUSTED,
    EQUAL,
    NOT_EQUAL_WITHIN_BUDGET,
    Budget,
    Lcg,
    OracleVerdict,
    bfs_rw_eq,
    enumerate_loops,
    enumerate_terms,
    explore_class,
    local_confluence_probe,
    random_term,
)
from pathrw.rewrite import (
    SYMM_REFL_INTRO,
    SYMM_SYMM_INTRO,
    SYMM_TRANS_CANCEL_INTRO,
    SYMM_TRANS_CONGR_INTRO,
    TRANS_REFL_LEFT_INTRO,
    TRANS_REFL_RIGHT_INTRO,
    TRANS_SYMM_CANCEL_INTRO,
    RewriteStep,
    apply_step,
    normalize,
    redexes,
)
from pathrw.spaces import BUILTIN_NAMES, builtin
from pathrw.syntax import parse_path, parse_space_text, render_path
from pathrw.terms import Gen, Refl, Symm, Trans, endpoints, size

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
TORUS = builtin("torus")
KLEIN = builtin("klein")
RP2 = builtin("rp2")

ALL_SPACES = tuple(builtin(n) for n in BUILTIN_NAMES)


class TestLcg:
    def test_fixed_constants_give_fixed_streams(self):
        # Frozen outputs; a change here breaks seed reproducibility for
        # every downstream consumer.
        assert [Lcg(0).next_raw() for _ in range(1)] == [376796944]
        g = Lcg(0)
        assert [g.next_raw() for _ in range(4)] == [
            376796944,
            1430272678,
            1508001829,
            1580525473,
        ]
        g = Lcg(12345)
        assert [g.next_raw() for _ in range(4)] == [
            1598009323,
            255616456,
            1857150537,
            1789376287,
        ]

    def test_same_seed_same_stream(self):
        a, b = Lcg(99), Lcg(99)
        assert [a.next_raw() for _ in range(20)] == [b.next_raw() for _ in range(20)]

    def test_different_seeds_diverge(self):
        a, b = Lcg(1), Lcg(2)
        assert [a.next_raw() for _ in range(8)] != [b.next_raw() for _ in range(8)]

    def test_randint_stays_in_range(self):
        g = Lcg(7)
        draws = [g.randint(13) for _ in range(500)]
        assert all(0 <= d < 13 for d in draws)
        assert len(set(draws)) > 1

    def test_randint_bound_one(self):
        g = Lcg(3)
        assert all(g.randint(1) == 0 for _ in range(10))

    def test_randint_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            Lcg(0).randint(0)

    def test_choice_is_seeded(self):
        items = ["w", "x", "y", "z"]
        picks = [Lcg(11).choice(items) for _ in range(3)]
        assert picks[0] == picks[1] == picks[2]
        assert picks[0] in items


class TestEnumerateTerms:
    def test_size_one_is_leaves(self):
        assert enumerate_terms(CIRCLE, 1, "pt", "pt") == (Refl("pt"), Gen("a"))
        assert enumerate_terms(CYL, 1, "b0", "b1") == (Gen("s"),)
        assert enumerate_terms(CYL, 1, "b0", "b0") == (Refl("b0"), Gen("l0"))

    def test_size_two_reversed_leg(self):
        # Only inverses fit in two nodes.
        assert enumerate_terms(CYL, 2, "b1", "b0") == (Symm(Gen("s")),)

    def test_counts_small_circle(self):
        counts = [len(enumerate_terms(CIRCLE, n, "pt", "pt")) for n in range(1, 8)]
        assert counts == [2, 2, 6, 14, 42, 122, 382]

    def test_counts_small_torus(self):
        counts = [len(enumerate_terms(TORUS, n, "pt", "pt")) for n in range(1, 5)]
        assert counts == [3, 3, 12, 30]

    def test_every_term_has_requested_shape(self):
        for space in (CIRCLE, CYL, TORUS):
            for src in space.points:
                for tgt in space.points:
                    for n in range(1, 6):
                        for t in enumerate_terms(space, n, src, tgt):
                            assert size(t) == n
                            assert endpoints(space, t) == (src, tgt)

    def test_no_duplicates(self):
        terms = enumerate_terms(KLEIN, 5, "pt", "pt")
        assert len(terms) == len(set(terms))

    def test_nonpositive_size_is_empty(self):
        assert enumerate_terms(CIRCLE, 0, "pt", "pt") == ()
        assert enumerate_terms(CIRCLE, -3, "pt", "pt") == ()

    def test_memoized(self):
        first = enumerate_terms(TORUS, 4, "pt", "pt")
        assert enumerate_terms(TORUS, 4, "pt", "pt") is first


class TestEnumerateLoops:
    def test_circle_stream_prefix(self):
        got = [render_path(CIRCLE, t) for t in enumerate_loops(CIRCLE, 2)]
        assert got == ["refl", "a", "~a", "a * a", "~a * ~a"]

    def test_torus_single_letters_in_declaration_order(self):
        got = [render_path(TORUS, t) for t in enumerate_loops(TORUS, 1)]
        assert got == ["refl", "a", "b", "~a", "~b"]

    def test_cylinder_loops_avoid_leaving_base(self):
        # s * ~s would be an immediate inverse pair, so nothing of length two
        # passes through b1.
        got = [render_path(CYL, t) for t in enumerate_loops(CYL, 2)]
        assert got == ["refl(b0)", "l0", "~l0", "l0 * l0", "~l0 * ~l0"]

    def test_loops_are_loops(self):
        base = KLEIN.basepoint
        for t in enumerate_loops(KLEIN, 3):
            assert endpoints(KLEIN, t) == (base, base)

    def test_shortest_first(self):
        # Letter counts never decrease along the stream.
        def letter_count(t):
            if isinstance(t, Refl):
                return 0
            if isinstance(t, (Gen, Symm)):
                return 1
            return letter_count(t.first) + letter_count(t.second)

        counts = [letter_count(t) for t in enumerate_loops(TORUS, 3)]
        assert counts == sorted(counts)

    def test_stream_is_deterministic(self):
        a = list(enumerate_loops(RP2, 4))
        b = list(enumerate_loops(RP2, 4))
        assert a == b


class TestRandomTerm:
    def test_forced_choices(self):
        assert random_term(CYL, 1, Lcg(0), "b0", "b1") == Gen("s")
        assert random_term(CYL, 2, Lcg(0), "b1", "b0") == Symm(Gen("s"))

    def test_unreachable_endpoints(self):
        with pytest.raises(UnreachableEndpointsError):
            random_term(CYL, 1, Lcg(0), "b1", "b0")

    def test_size_and_endpoints_hold(self):
        rng = Lcg(17)
        for space in ALL_SPACES:
            for n in range(1, 13):
                t = random_term(space, n, rng)
                assert size(t) == n
                src, tgt = endpoints(space, t)
                assert src in space.point_set and tgt in space.point_set

    def test_pinned_endpoints_hold(self):
        rng = Lcg(19)
        for n in (4, 7, 10):
            t = random_term(CYL, n, rng, "b0", "b1")
            assert endpoints(CYL, t) == ("b0", "b1")

    def test_seed_determinism(self):
        for space in (CIRCLE, KLEIN):
            a = random_term(space, 9, 31)
            b = random_term(space, 9, 31)
            assert a == b

    def test_int_seed_matches_fresh_generator(self):
        assert random_term(TORUS, 8, 5) == random_term(TORUS, 8, Lcg(5))

    def test_stream_continues_rather_than_repeating(self):
        rng = Lcg(23)
        draws = {random_term(CIRCLE, 7, rng) for _ in range(12)}
        assert len(draws) > 1

    def test_feasibility_matches_its_recursive_definition(self):
        @functools.lru_cache(maxsize=None)
        def feasible(space, n, src, tgt):
            if n == 1:
                return src == tgt or any(
                    g.src == src and g.tgt == tgt for g in space.generators
                )
            return feasible(space, n - 1, tgt, src) or any(
                feasible(space, k, src, mid) and feasible(space, n - 1 - k, mid, tgt)
                for k in range(1, n - 1)
                for mid in space.points
            )

        apart = parse_space_text("point p\npoint q\npoint r\ngen a : p -> p\n")
        chain = parse_space_text(
            "point p\npoint q\npoint r\ngen a : p -> q\ngen b : r -> q\n"
        )
        for space in (*ALL_SPACES, apart, chain):
            for n in range(1, 60):
                for src in space.points:
                    for tgt in space.points:
                        assert oracle._feasible(space, n, src, tgt) == feasible(
                            space, n, src, tgt
                        ), (space.name, n, src, tgt)
        # sizes far past the recursion limit answer at once
        assert size(random_term(apart, 20_000, Lcg(1), "q", "q")) == 20_000
        with pytest.raises(UnreachableEndpointsError):
            random_term(apart, 20_000, Lcg(1), "p", "q")

    def test_draws_are_pinned(self):
        # digest of every draw over every builtin, sizes 1-40, four seeds and
        # every way of pinning endpoints, one line per draw; it fixes both
        # the draw order and which sizes fit which endpoints
        digest = hashlib.sha256()
        for space in ALL_SPACES:
            pts = space.points
            ends = [(None, None), *((p, None) for p in pts), *((None, p) for p in pts)]
            ends += [(s, t) for s in pts for t in pts]
            for n in range(1, 41):
                for seed in (0, 1, 7, 42):
                    for src, tgt in ends:
                        try:
                            t = random_term(space, n, Lcg(seed), src, tgt)
                            got = render_path(space, t)
                        except UnreachableEndpointsError:
                            got = "unreachable"
                        line = f"{space.name}|{n}|{seed}|{src}|{tgt}|{got}\n"
                        digest.update(line.encode())
        assert digest.hexdigest() == (
            "2b2cac0cced26407050af3c7839551ed97b5d10b00b63400d1e9edabdde0f026"
        )


class TestBfsVerdicts:
    def test_identical_terms_cost_nothing(self):
        t = parse_path(TORUS, "a * b")
        v = bfs_rw_eq(TORUS, t, t)
        assert v.kind == EQUAL and v.explored == 0

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(EndpointMismatchError):
            bfs_rw_eq(CYL, Gen("s"), Gen("l0"))

    def test_cancellation_found(self):
        v = bfs_rw_eq(CIRCLE, parse_path(CIRCLE, "a * ~a"), Refl("pt"))
        assert v.is_equal

    def test_distinct_windings_separated(self):
        v = bfs_rw_eq(CIRCLE, Gen("a"), parse_path(CIRCLE, "a * a"))
        assert v.kind == NOT_EQUAL_WITHIN_BUDGET
        assert v.is_decided and not v.is_equal

    def test_generator_is_not_the_identity(self):
        v = bfs_rw_eq(CIRCLE, Gen("a"), Refl("pt"))
        assert v.kind == NOT_EQUAL_WITHIN_BUDGET

    def test_torus_letters_commute(self):
        v = bfs_rw_eq(TORUS, parse_path(TORUS, "a * b"), parse_path(TORUS, "b * a"))
        assert v.is_equal

    @pytest.mark.parametrize(
        "left,right",
        [
            ("b * a", "a * ~b"),
            ("b * ~a", "~a * ~b"),
            ("~b * a", "a * b"),
            ("~b * ~a", "~a * b"),
        ],
    )
    def test_klein_exchange_pairs(self, left, right):
        v = bfs_rw_eq(KLEIN, parse_path(KLEIN, left), parse_path(KLEIN, right))
        assert v.is_equal

    def test_klein_letters_do_not_commute(self):
        v = bfs_rw_eq(KLEIN, parse_path(KLEIN, "b * a"), parse_path(KLEIN, "a * b"))
        assert v.kind == NOT_EQUAL_WITHIN_BUDGET

    def test_projective_double_loop_bounds(self):
        v = bfs_rw_eq(RP2, parse_path(RP2, "alpha * alpha"), Refl("pt"))
        assert v.is_equal
        w = bfs_rw_eq(RP2, Gen("alpha"), Refl("pt"))
        assert w.kind == NOT_EQUAL_WITHIN_BUDGET

    def test_budget_exhaustion_is_undecided(self):
        v = bfs_rw_eq(
            KLEIN,
            parse_path(KLEIN, "b * a"),
            parse_path(KLEIN, "a * ~b"),
            Budget(max_states=3),
        )
        assert v.kind == BUDGET_EXHAUSTED
        assert not v.is_decided
        assert v.explored <= 3

    def test_cap_below_an_input_is_undecided(self):
        a_b, b_a = parse_path(TORUS, "a * b"), parse_path(TORUS, "b * a")
        v = bfs_rw_eq(TORUS, a_b, b_a, Budget(max_term_size=2))
        assert v.kind == BUDGET_EXHAUSTED
        # a reduction into the cap can still meet the other side
        w = bfs_rw_eq(
            CIRCLE, parse_path(CIRCLE, "a * ~a"), Refl("pt"), Budget(max_term_size=1)
        )
        assert w.kind == EQUAL

    def test_out_of_range_budget_rejected(self):
        with pytest.raises(ValueError, match="got -1"):
            Budget(max_states=-1)
        with pytest.raises(ValueError, match="got 0"):
            Budget(max_term_size=0)

    def test_single_steps_are_sound(self):
        rng = Lcg(37)
        for space in ALL_SPACES:
            for _ in range(6):
                t = random_term(space, 1 + rng.randint(5), rng)
                steps = redexes(space, t)
                if not steps:
                    continue
                stepped = apply_step(space, t, rng.choice(steps))
                assert bfs_rw_eq(space, t, stepped).is_equal

    def test_agrees_with_normalizer_on_small_pairs(self):
        rng = Lcg(43)
        for space in ALL_SPACES:
            base = space.basepoint
            for _ in range(4):
                p = random_term(space, 1 + rng.randint(3), rng, base, base)
                q = random_term(space, 1 + rng.randint(3), rng, base, base)
                verdict = bfs_rw_eq(space, p, q)
                if not verdict.is_decided:
                    continue
                assert verdict.is_equal == (normalize(space, p) == normalize(space, q))


class TestExploreClass:
    def test_identity_class_under_tight_cap(self):
        seen, complete = explore_class(
            CIRCLE, Refl("pt"), Budget(max_states=100_000, max_term_size=3)
        )
        assert complete
        assert {render_path(CIRCLE, t) for t in seen} == {
            "refl",
            "refl * refl",
            "~refl",
            "~~refl",
        }

    def test_identity_class_grows_with_cap(self):
        seen, complete = explore_class(
            CIRCLE, Refl("pt"), Budget(max_states=100_000, max_term_size=5)
        )
        assert complete
        assert len(seen) == 21

    def test_members_stay_under_cap_and_in_class(self):
        start = parse_path(TORUS, "a * b")
        seen, complete = explore_class(
            TORUS, start, Budget(max_states=100_000, max_term_size=6)
        )
        assert complete
        nf = normalize(TORUS, start)
        for t in seen:
            assert size(t) <= 6
            assert normalize(TORUS, t) == nf
        assert parse_path(TORUS, "b * a") in seen

    def test_start_above_cap_reports_incomplete(self):
        _, complete = explore_class(
            TORUS, parse_path(TORUS, "a * b"), Budget(max_term_size=2)
        )
        assert not complete

    def test_ill_formed_start_rejected(self):
        with pytest.raises(UnknownGeneratorError):
            explore_class(CIRCLE, Trans(Gen("a"), Gen("zz")))
        with pytest.raises(EndpointMismatchError):
            explore_class(CYL, Trans(Gen("s"), Gen("s")))

    def test_starved_budget_reports_incomplete(self):
        seen, complete = explore_class(
            KLEIN, parse_path(KLEIN, "a * b * a"), Budget(max_states=2)
        )
        assert not complete
        assert len(seen) >= 1

    def test_deep_start_comes_back_without_recursion(self):
        # three times the recursion limit deep; the class is handed back
        # through `_Search.term`
        p = parse_path(CIRCLE, "a^3000")
        assert explore_class(CIRCLE, p, Budget(max_states=0)) == ({p}, False)


class _NotATerm:
    """Enough of a term to be built into one, and nothing more."""

    _size = 1


# ill-formed inputs, each named by the fault it holds; the last two hold two
# faults, and the one met first in post-order, left leg first, must win
ILL_FORMED = (
    ("unknown generator", CIRCLE, Trans(Gen("a"), Gen("zz"))),
    ("unknown point", CYL, Trans(Refl("b9"), Gen("l0"))),
    ("mismatch under a left leg", CYL, Trans(Trans(Gen("s"), Gen("s")), Gen("l1"))),
    ("mismatch under a right leg", CYL, Trans(Gen("l0"), Trans(Gen("s"), Gen("s")))),
    ("non-term leaf", CIRCLE, Trans(Gen("a"), Symm(_NotATerm()))),
    ("non-term input", CIRCLE, "a"),
    ("mismatch before an unknown generator", CYL,
     Trans(Trans(Gen("s"), Gen("s")), Symm(Gen("zz")))),
    ("unknown point before a mismatch", CYL,
     Trans(Trans(Refl("b9"), Gen("s")), Trans(Gen("s"), Gen("s")))),
)


class TestInputCheck:
    @pytest.mark.parametrize("name, space, bad", ILL_FORMED, ids=[c[0] for c in ILL_FORMED])
    def test_entry_points_raise_what_endpoints_raises(self, name, space, bad):
        with pytest.raises(Exception) as expected:
            endpoints(space, bad)
        good = Refl(space.basepoint)
        calls = (
            lambda: bfs_rw_eq(space, bad, good),
            lambda: bfs_rw_eq(space, good, bad),
            lambda: explore_class(space, bad),
        )
        for call in calls:
            with pytest.raises(Exception) as got:
                call()
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    def test_first_input_fault_wins(self):
        # as when each input was walked by `endpoints` in turn
        p, q = Trans(Gen("a"), Gen("zz")), "a"
        with pytest.raises(UnknownGeneratorError):
            bfs_rw_eq(CIRCLE, p, q)


# (space, p, q, max_states, verdict kind, states explored), captured from the
# search as it stood before its inner loop was rewritten. The explored count
# depends on the exact order in which neighbours are generated, so these pin
# the search order, not only the verdicts.
PINNED_SEARCHES = (
    # proofs
    ("circle", "a * ~a * a", "a", 30_000, EQUAL, 2),
    ("circle", "~(a * ~a) * a", "a * refl", 30_000, EQUAL, 5),
    ("rp2", "alpha * alpha", "refl", 30_000, EQUAL, 1),
    ("rp2", "~alpha", "alpha", 30_000, EQUAL, 13),
    ("torus", "a * b", "b * a", 30_000, EQUAL, 1),
    ("torus", "a * b * ~a", "b", 30_000, EQUAL, 9),
    ("klein", "~b * ~a", "~a * b", 30_000, EQUAL, 1192),
    ("mobius", "a * (~a * a)", "a", 30_000, EQUAL, 2),
    ("cylinder", "s * l1 * ~s", "l0", 30_000, EQUAL, 8),
    ("cylinder", "l0 * s", "s * l1", 30_000, EQUAL, 1),
    ("cylinder", "~s * l0 * s", "l1", 30_000, EQUAL, 27),
    ("cylinder", "~s * (s * ~s)", "~s", 30_000, EQUAL, 2),
    # refutations
    ("circle", "a", "a * a", 20_000, NOT_EQUAL_WITHIN_BUDGET, 1032),
    ("circle", "~a", "refl", 20_000, NOT_EQUAL_WITHIN_BUDGET, 388),
    ("rp2", "alpha", "refl", 20_000, NOT_EQUAL_WITHIN_BUDGET, 305),
    ("torus", "a", "b", 20_000, NOT_EQUAL_WITHIN_BUDGET, 195),
    ("torus", "a * b", "~b", 20_000, NOT_EQUAL_WITHIN_BUDGET, 1758),
    ("klein", "b * a", "a * b", 20_000, NOT_EQUAL_WITHIN_BUDGET, 1008),
    ("mobius", "a", "~a", 20_000, NOT_EQUAL_WITHIN_BUDGET, 378),
    ("cylinder", "l0", "refl(b0)", 20_000, NOT_EQUAL_WITHIN_BUDGET, 194),
    ("cylinder", "s", "l0 * s", 20_000, NOT_EQUAL_WITHIN_BUDGET, 1868),
    ("cylinder", "l1", "refl(b1)", 20_000, NOT_EQUAL_WITHIN_BUDGET, 194),
    ("cylinder", "~s", "~s * l0", 20_000, NOT_EQUAL_WITHIN_BUDGET, 3704),
    # bounded searches
    ("circle", "a * a", "~a * a", 4_000, NOT_EQUAL_WITHIN_BUDGET, 2935),
    ("rp2", "alpha * ~alpha", "alpha", 4_000, BUDGET_EXHAUSTED, 4000),
    ("torus", "a * b", "b * b", 4_000, NOT_EQUAL_WITHIN_BUDGET, 1012),
    ("torus", "a * ~b", "~b * a", 4_000, EQUAL, 1439),
    ("klein", "b * a * ~b", "a", 4_000, BUDGET_EXHAUSTED, 4000),
    ("cylinder", "s * ~s", "l0", 4_000, BUDGET_EXHAUSTED, 4000),
    ("cylinder", "l0 * s", "s", 4_000, NOT_EQUAL_WITHIN_BUDGET, 1868),
    ("cylinder", "~s * s", "l1 * l1", 4_000, NOT_EQUAL_WITHIN_BUDGET, 3726),
    ("cylinder", "~s * l0", "l1 * ~s", 4_000, EQUAL, 1404),
)

# (space, start, size cap, class size), from the same search
PINNED_CLASSES = (
    ("circle", "refl", 6, 64),
    ("torus", "a * b", 7, 178),
    ("rp2", "alpha", 6, 94),
    ("cylinder", "s", 6, 57),
    ("klein", "~b", 6, 41),
    ("mobius", "a", 6, 49),
)


class TestSearchOrder:
    def test_verdicts_and_explored_counts_are_pinned(self):
        got = []
        for name, p, q, states, _, _ in PINNED_SEARCHES:
            space = builtin(name)
            v = bfs_rw_eq(
                space, parse_path(space, p), parse_path(space, q), Budget(states)
            )
            got.append((name, p, q, states, v.kind, v.explored))
        assert got == list(PINNED_SEARCHES)

    def test_class_sizes_are_pinned(self):
        got = []
        for name, start, cap, _ in PINNED_CLASSES:
            space = builtin(name)
            seen, complete = explore_class(
                space, parse_path(space, start), Budget(100_000, cap)
            )
            assert complete
            got.append((name, start, cap, len(seen)))
        assert got == list(PINNED_CLASSES)


def _preorder_positions(t, pos=()):
    yield pos, t
    if isinstance(t, Symm):
        yield from _preorder_positions(t.inner, pos + (0,))
    elif isinstance(t, Trans):
        yield from _preorder_positions(t.first, pos + (0,))
        yield from _preorder_positions(t.second, pos + (1,))


def _reference_neighbors(space, t, cap):
    """The search's neighbour list, spelled out with apply_step."""
    out = [apply_step(space, t, s) for s in redexes(space, t)]
    n = size(t)

    def intro(rule, pos, payload=None):
        out.append(apply_step(space, t, RewriteStep(rule, pos, payload)))

    for pos, sub in _preorder_positions(t):
        if n + 2 <= cap:
            for rule in (TRANS_REFL_LEFT_INTRO, TRANS_REFL_RIGHT_INTRO, SYMM_SYMM_INTRO):
                intro(rule, pos)
        if (
            isinstance(sub, Trans)
            and isinstance(sub.first, Symm)
            and isinstance(sub.second, Symm)
        ):
            intro(SYMM_TRANS_CONGR_INTRO, pos)
        if isinstance(sub, Refl):
            if n + 1 <= cap:
                intro(SYMM_REFL_INTRO, pos)
            for qn in range(1, (cap - n - 1) // 2 + 1):
                for other in space.points:
                    for q in enumerate_terms(space, qn, other, sub.point):
                        intro(SYMM_TRANS_CANCEL_INTRO, pos, q)
                    for q in enumerate_terms(space, qn, sub.point, other):
                        intro(TRANS_SYMM_CANCEL_INTRO, pos, q)
    return [nb for nb in out if size(nb) <= cap]


class TestNeighborOrder:
    def test_neighbors_match_the_reference_order(self):
        # one search per space and cap, so subterm rewrites are reused
        # across the terms as they are in a real search. Random terms run at
        # fixed caps; every term of up to 6 nodes runs at its own size and 2
        # and 4 above it, so each rule the search states over its node ids
        # meets every node shape, with and without room to grow.
        rng = Lcg(53)
        for space in ALL_SPACES:
            terms = [random_term(space, 1 + rng.randint(9), rng) for _ in range(25)]
            cases = [(t, cap) for cap in (6, 9, 12) for t in terms]
            small = [
                t
                for n in range(1, 7)
                for src in space.points
                for tgt in space.points
                for t in enumerate_terms(space, n, src, tgt)
            ]
            cases += [(t, size(t) + extra) for extra in (0, 2, 4) for t in small]
            searches = {}
            for t, cap in cases:
                if cap not in searches:
                    searches[cap] = oracle._Search(space, cap)
                search = searches[cap]
                lists = search.neighbors(search.intern(t))
                got = [search.term(i) for out in lists for i in out]
                assert got == _reference_neighbors(space, t, cap), (
                    space.name, render_path(space, t), cap
                )


class TestSearchTable:
    def test_a_search_dies_when_the_call_returns(self, monkeypatch):
        searches = []
        neighbors = oracle._Search.neighbors

        def spy(search, t):
            searches.append(weakref.ref(search))
            return neighbors(search, t)

        monkeypatch.setattr(oracle._Search, "neighbors", spy)
        p, q = parse_path(TORUS, "a * b"), parse_path(TORUS, "b * b")
        assert bfs_rw_eq(TORUS, p, q, Budget(max_states=50)).kind == BUDGET_EXHAUSTED
        assert searches
        gc.collect()
        assert [r for r in searches if r() is not None] == []

    def test_equal_terms_built_in_one_search_get_one_id(self):
        search = oracle._Search(TORUS, 9)
        t = search.intern(parse_path(TORUS, "a * b * ~a"))
        assert search.intern(parse_path(TORUS, "a * b * ~a")) == t
        assert search.trans(search.first[t], search.symm(search.intern(Gen("a")))) == t
        assert search.term(t) == parse_path(TORUS, "a * b * ~a")

    def test_terms_built_outside_match_structurally(self):
        p = parse_path(TORUS, "a * b")
        same = parse_path(TORUS, "a * b")
        assert same is not p
        assert bfs_rw_eq(TORUS, p, same) == OracleVerdict(EQUAL, 0)
        v = bfs_rw_eq(TORUS, p, Trans(Gen("b"), Gen("a")))
        assert v == OracleVerdict(EQUAL, 1)
        seen, complete = explore_class(TORUS, p, Budget(max_term_size=5))
        assert complete
        assert same in seen and Trans(Gen("b"), Gen("a")) in seen


class TestPayloads:
    def test_payloads_are_the_enumerated_terms_in_order(self):
        for space in ALL_SPACES:
            search = oracle._Search(space, 9)
            for n in range(1, 6):
                for src in space.points:
                    for tgt in space.points:
                        assert search.payloads(n, src, tgt) == [
                            search.intern(q) for q in enumerate_terms(space, n, src, tgt)
                        ], (space.name, n, src, tgt)


class TestSearchKeys:
    def test_tables_key_nodes_by_their_exact_child_ids(self):
        search = oracle._Search(CIRCLE, 9)
        a = search.intern(Gen("a"))
        aa, inv_a = search.trans(a, a), search.symm(a)
        assert search.trans(a, a) == aa and search.symm(a) == inv_a
        # a composition is filed under the pair of its child ids packed in
        # one int, an inverse under its child's id; no hash is involved
        assert search._transes == {a << 32 | a: aa}
        assert search._symms == {a: inv_a}

    def test_nodes_whose_hashes_clash_are_all_interned(self, monkeypatch):
        search = oracle._Search(TORUS, 9)
        ab = search.intern(parse_path(TORUS, "a * b"))
        inv_a = search.intern(parse_path(TORUS, "~a"))
        hashes = {2: hash(parse_path(TORUS, "~a")), 3: hash(parse_path(TORUS, "a * b"))}

        def clash(parts):
            return hashes.get(parts[0], hash(parts))

        # from here on every Symm built has the hash of ~a and every Trans
        # that of a * b, as if the hash function collided; the search keys
        # nodes by child ids, so it must still tell all seven apart
        monkeypatch.setattr(terms, "hash", clash, raising=False)
        monkeypatch.setattr(oracle, "hash", clash, raising=False)
        texts = ("a * b", "b * a", "a * a", "~a", "~(a * b)", "~(b * a)", "~(a * a)")
        ids = [search.intern(parse_path(TORUS, text)) for text in texts]
        assert [search.term(i) for i in ids] == [
            parse_path(TORUS, text) for text in texts
        ]
        assert len(set(ids)) == len(texts)
        assert ids[0] == ab and ids[3] == inv_a
        for text, i in zip(texts, ids):
            assert search.intern(parse_path(TORUS, text)) == i
        b, a = search.intern(Gen("b")), search.intern(Gen("a"))
        assert search.trans(b, a) == ids[1] and search.symm(ids[1]) == ids[5]


    def test_interning_numbers_nodes_in_post_order_at_any_depth(self):
        # children before their parent, the left leg's before the right's
        search = oracle._Search(CIRCLE, 9)
        first = len(search.mark)
        t = search.intern(parse_path(CIRCLE, "(a * ~a) * ~(a * a)"))
        assert t == first + 4
        assert [search.term(i) for i in range(first, t + 1)] == [
            parse_path(CIRCLE, text)
            for text in ("~a", "a * ~a", "a * a", "~(a * a)", "(a * ~a) * ~(a * a)")
        ]
        # three times the recursion limit deep, on both legs
        deep = parse_path(CIRCLE, "a^3000")
        deep = Trans(deep, Symm(Trans(Gen("a"), deep)))
        i = search.intern(deep)
        assert search.intern(deep) == i
        assert search.size[i] == size(deep)
        assert len(search.mark) == i + 1


class TestWorkBound:
    def test_neighbour_bound_stops_searches_early(self, monkeypatch):
        # unbounded, these are pinned above: NOT_EQUAL_WITHIN_BUDGET after
        # 2935 states, and a finished class of 64 terms
        monkeypatch.setattr(oracle, "MAX_NEIGHBORS", 100)
        p, q = parse_path(CIRCLE, "a * a"), parse_path(CIRCLE, "~a * a")
        v = bfs_rw_eq(CIRCLE, p, q, Budget(4_000))
        assert v.kind == BUDGET_EXHAUSTED and 0 < v.explored < 2935
        seen, finished = explore_class(CIRCLE, Refl("pt"), Budget(100_000, 6))
        assert not finished and 0 < len(seen) < 64

    def test_bounded_search_peak_memory(self):
        # 12.6 MB measured; the bound leaves about 20 % headroom
        p = parse_path(CIRCLE, "a * (a * ~refl * a)")
        q = parse_path(CIRCLE, "~(a * (a * refl))")
        tracemalloc.start()
        try:
            v = bfs_rw_eq(CIRCLE, p, q, Budget(max_states=4_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v == OracleVerdict(BUDGET_EXHAUSTED, 4_000)
        assert peak < 15_000_000


class TestLocalConfluence:
    def test_normal_forms_pass_trivially(self):
        assert local_confluence_probe(CIRCLE, Gen("a"))
        assert local_confluence_probe(TORUS, Refl("pt"))

    def test_random_terms_pass(self):
        rng = Lcg(47)
        for space in ALL_SPACES:
            for _ in range(30):
                t = random_term(space, 1 + rng.randint(9), rng)
                assert local_confluence_probe(space, t)

    def test_relation_steps_skipped_where_normal_forms_ignore_them(self):
        # a * b -> b * a by the file torus's relation; free normal forms
        # tell the two apart, which is no confluence counterexample
        torus = parse_space_text(
            "point pt\ngen a : pt -> pt\ngen b : pt -> pt\n"
            "rel comm : a * b = b * a\n",
            name="torus",
        )
        assert local_confluence_probe(torus, parse_path(torus, "a * b"))
