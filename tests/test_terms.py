import tracemalloc
from itertools import product

import pytest

from pathrw import (
    EndpointMismatchError,
    Gen,
    Lcg,
    NotALoopError,
    Refl,
    RewriteStep,
    SpaceMap,
    SpaceMapError,
    Symm,
    Trans,
    UnknownGeneratorError,
    UnknownPointError,
    apply_step,
    builtin,
    endpoints,
    explore_class,
    map_path,
    parse_path,
    parse_space_text,
    random_term,
    relation_fwd,
    size,
    trace,
    zpow,
)
from pathrw.oracle import Budget
from pathrw.rewrite import ASSOC_RIGHT, TRANS_REFL_LEFT
from pathrw.spaces import BUILTIN_NAMES

BUILTINS = [builtin(n) for n in BUILTIN_NAMES]
FILE_SPACE = parse_space_text(
    "point p\npoint q\ngen f : p -> q\ngen g : q -> p\ngen h : p -> p\n"
    "rel loop : f * g = h\n",
    "pq",
)


class TestStructure:
    def test_structural_equality(self):
        assert Trans(Gen("a"), Symm(Gen("b"))) == Trans(Gen("a"), Symm(Gen("b")))
        assert Gen("a") != Gen("b")
        assert Refl("pt") != Gen("a")
        assert Symm(Gen("a")) != Gen("a")

    def test_hashing_matches_equality(self):
        seen = {Trans(Gen("a"), Gen("b")), Symm(Refl("pt"))}
        assert Trans(Gen("a"), Gen("b")) in seen
        assert Symm(Refl("pt")) in seen
        assert Trans(Gen("b"), Gen("a")) not in seen

    def test_terms_are_immutable(self):
        with pytest.raises(AttributeError):
            Gen("a").name = "b"

    @pytest.mark.parametrize("term", [
        Refl("pt"), Gen("a"), Symm(Gen("a")), Trans(Gen("a"), Gen("a")),
    ])
    def test_no_field_can_be_assigned_or_deleted(self, term):
        for field in (*type(term).__slots__, "_hash", "_size", "other"):
            with pytest.raises(AttributeError):
                setattr(term, field, Gen("b"))
            with pytest.raises(AttributeError):
                delattr(term, field)
        assert not hasattr(term, "__dict__")

    def test_repr_names_the_fields(self):
        assert repr(Trans(Symm(Gen("a")), Refl("pt"))) == (
            "Trans(first=Symm(inner=Gen(name='a')), second=Refl(point='pt'))"
        )

    def test_deep_terms_compare_without_recursion(self):
        def left_nested(first_leaf, last_leaf):
            t = first_leaf
            for _ in range(50_000 - 1):
                t = Trans(t, Gen("a"))
            return Trans(t, last_leaf)

        # 10^5 nodes each, built separately so no subtree is shared
        assert left_nested(Gen("a"), Gen("a")) == left_nested(Gen("a"), Gen("a"))
        assert left_nested(Gen("a"), Gen("a")) != left_nested(Gen("a"), Gen("b"))
        # hash(-1) == hash(-2) in CPython, so terms differing only in -1
        # against -2 agree on every hash and only the walk tells them apart
        assert hash(Refl(-1)) == hash(Refl(-2))
        assert left_nested(Refl(-1), Gen("a")) != left_nested(Refl(-2), Gen("a"))
        for x, y in ((Refl(-1), Refl(-2)), (Gen(-1), Gen(-2))):
            assert x != y and Symm(x) != Symm(y)
            assert Trans(x, Gen("a")) != Trans(y, Gen("a"))
            assert Trans(Gen("a"), x) != Trans(Gen("a"), y)

    def test_size_counts_nodes(self):
        assert size(Refl("pt")) == 1
        assert size(Gen("a")) == 1
        assert size(Symm(Gen("a"))) == 2
        assert size(Trans(Symm(Gen("a")), Trans(Gen("a"), Refl("pt")))) == 6


class TestEndpoints:
    def test_refl_and_gen(self):
        cyl = builtin("cylinder")
        assert endpoints(cyl, Refl("b1")) == ("b1", "b1")
        assert endpoints(cyl, Gen("s")) == ("b0", "b1")

    def test_symm_flips(self):
        cyl = builtin("cylinder")
        assert endpoints(cyl, Symm(Gen("s"))) == ("b1", "b0")

    def test_trans_chains(self):
        cyl = builtin("cylinder")
        p = Trans(Gen("s"), Trans(Gen("l1"), Symm(Gen("s"))))
        assert endpoints(cyl, p) == ("b0", "b0")

    def test_unknown_point(self):
        with pytest.raises(UnknownPointError):
            endpoints(builtin("circle"), Refl("nowhere"))

    def test_unknown_generator(self):
        with pytest.raises(UnknownGeneratorError):
            endpoints(builtin("circle"), Gen("z"))

    def test_broken_composition(self):
        cyl = builtin("cylinder")
        with pytest.raises(EndpointMismatchError):
            endpoints(cyl, Trans(Gen("s"), Gen("s")))

    def test_ill_formed_deep_inside(self):
        cyl = builtin("cylinder")
        bad = Symm(Trans(Refl("b0"), Gen("l1")))
        with pytest.raises(EndpointMismatchError):
            endpoints(cyl, bad)


class TestZpow:
    def test_zero_is_constant(self):
        circle = builtin("circle")
        assert zpow(circle, Gen("a"), 0) == Refl("pt")

    def test_positive_left_nested(self):
        circle = builtin("circle")
        a = Gen("a")
        assert zpow(circle, a, 1) == a
        assert zpow(circle, a, 3) == Trans(Trans(a, a), a)

    def test_negative_powers_invert(self):
        circle = builtin("circle")
        a = Gen("a")
        sa = Symm(a)
        assert zpow(circle, a, -1) == sa
        assert zpow(circle, a, -2) == Trans(sa, sa)

    def test_non_loop_rejected(self):
        cyl = builtin("cylinder")
        with pytest.raises(NotALoopError):
            zpow(cyl, Gen("s"), 2)

    def test_size_grows_linearly(self):
        circle = builtin("circle")
        assert size(zpow(circle, Gen("a"), 10)) == 19


class TestSpaceMap:
    def test_valid_retraction(self):
        m = SpaceMap(
            source=builtin("cylinder"),
            target=builtin("circle"),
            point_map={"b0": "pt", "b1": "pt"},
            gen_map={"s": Refl("pt"), "l0": Gen("a"), "l1": Gen("a")},
        )
        image = map_path(m, Trans(Gen("s"), Trans(Gen("l1"), Symm(Gen("s")))))
        assert image == Trans(Refl("pt"), Trans(Gen("a"), Symm(Refl("pt"))))

    def test_missing_point_image(self):
        with pytest.raises(SpaceMapError):
            SpaceMap(
                source=builtin("cylinder"),
                target=builtin("circle"),
                point_map={"b0": "pt"},
                gen_map={"s": Refl("pt"), "l0": Gen("a"), "l1": Gen("a")},
            )

    def test_generator_image_endpoints_checked(self):
        cyl = builtin("cylinder")
        with pytest.raises(SpaceMapError):
            SpaceMap(
                source=cyl,
                target=cyl,
                point_map={"b0": "b0", "b1": "b1"},
                gen_map={"s": Gen("l0"), "l0": Gen("l0"), "l1": Gen("l1")},
            )

    def test_relation_preservation_checked(self):
        # send l1 to a^2 and l0 to a: the square relation fails in the circle
        with pytest.raises(SpaceMapError):
            SpaceMap(
                source=builtin("cylinder"),
                target=builtin("circle"),
                point_map={"b0": "pt", "b1": "pt"},
                gen_map={
                    "s": Refl("pt"),
                    "l0": Gen("a"),
                    "l1": Trans(Gen("a"), Gen("a")),
                },
            )

    def test_relation_preserving_twist_accepted(self):
        # collapsing the torus onto the circle by killing b preserves
        # commutation
        m = SpaceMap(
            source=builtin("torus"),
            target=builtin("circle"),
            point_map={"pt": "pt"},
            gen_map={"a": Gen("a"), "b": Refl("pt")},
        )
        assert map_path(m, Gen("b")) == Refl("pt")

    def _file_torus(self, relation):
        return parse_space_text(
            f"point pt\ngen a : pt -> pt\ngen b : pt -> pt\nrel r : {relation}\n",
            name="filetorus",
        )

    def test_relation_kept_by_a_derivation_in_a_file_space(self):
        # free normal forms tell a * b from b * a, but the target's own
        # relation joins them in one search step
        torus = builtin("torus")
        m = SpaceMap(
            source=torus,
            target=self._file_torus("a * b = b * a"),
            point_map={"pt": "pt"},
            gen_map={"a": Gen("a"), "b": Gen("b")},
        )
        assert map_path(m, torus.relations[0].lhs) == Trans(Gen("a"), Gen("b"))

    def test_unjoined_relation_in_a_file_space_is_undecided(self):
        # a and b do not commute in <a, b | a^3>, so no search can join
        # the two sides; the map is neither accepted nor called wrong
        with pytest.raises(SpaceMapError, match="'torusComm' is undecided"):
            SpaceMap(
                source=builtin("torus"),
                target=self._file_torus("a * a * a = refl(pt)"),
                point_map={"pt": "pt"},
                gen_map={"a": Gen("a"), "b": Gen("b")},
            )

    def _cylinder_retraction(self):
        return SpaceMap(
            source=builtin("cylinder"),
            target=builtin("circle"),
            point_map={"b0": "pt", "b1": "pt"},
            gen_map={"s": Refl("pt"), "l0": Gen("a"), "l1": Gen("a")},
        )

    def test_deep_terms_map_without_recursion(self):
        m = self._cylinder_retraction()
        circle = builtin("circle")
        long = zpow(builtin("cylinder"), Gen("l0"), 50_000)
        assert map_path(m, long) == zpow(circle, Gen("a"), 50_000)
        nested, want = Gen("l1"), Gen("a")
        for _ in range(20_000):
            nested, want = Symm(nested), Symm(want)
        assert map_path(m, nested) == want

    def test_first_error_from_the_left(self):
        m = self._cylinder_retraction()
        with pytest.raises(UnknownGeneratorError, match="'zz' has no image"):
            map_path(m, Trans(Symm(Gen("zz")), Refl("q")))
        with pytest.raises(UnknownPointError, match="'q' has no image"):
            map_path(m, Trans(Gen("l0"), Trans(Refl("q"), Gen("zz"))))
        with pytest.raises(TypeError, match="not a path term"):
            map_path(m, "l0")


def _reference_hash(t):
    """The hash a term's constructors stored eagerly before hashes were
    made lazy: a leaf hashes its tag and field, an inverse (2, its child's
    hash), a composition (3, its children's hashes). Computed here from
    the fields alone, with an explicit stack."""
    done: dict[int, int] = {}
    todo = [t]
    while todo:
        node = todo[-1]
        if id(node) in done:
            todo.pop()
            continue
        cls = type(node)
        if cls is Refl:
            done[id(node)] = hash((0, node.point))
        elif cls is Gen:
            done[id(node)] = hash((1, node.name))
        else:
            kids = (node.inner,) if cls is Symm else (node.first, node.second)
            missing = [k for k in kids if id(k) not in done]
            if missing:
                todo += missing
                continue
            done[id(node)] = hash((2 if cls is Symm else 3, *[done[id(k)] for k in kids]))
        todo.pop()
    return done[id(t)]


def _subterms(t):
    todo, out = [t], []
    while todo:
        node = todo.pop()
        out.append(node)
        if type(node) is Trans:
            todo += (node.second, node.first)
        elif type(node) is Symm:
            todo.append(node.inner)
    return out


class TestHashReference:
    # compared in one process: leaves hash strings, whose hashes change
    # from one process to the next, so no digest of hash values is pinned

    def test_random_terms(self):
        checked = 0
        for space in BUILTINS + [FILE_SPACE]:
            rng = Lcg(53)
            for n in range(1, 61):
                for _ in range(2):
                    t = random_term(space, n, rng)
                    assert hash(t) == _reference_hash(t)
                    # every subterm holds the hash it would have had alone
                    for sub in _subterms(t):
                        assert hash(sub) == _reference_hash(sub)
                    checked += 1
        assert checked == (len(BUILTINS) + 1) * 60 * 2

    def test_replayed_terms(self):
        # hash some intermediate terms and not others, so later steps
        # rebuild over a mix of hashed and unhashed subterms
        rng = Lcg(59)
        replayed = 0
        for space in BUILTINS + [FILE_SPACE]:
            for _ in range(20):
                cur = random_term(space, 8 + rng.randint(53), rng)
                for i, step in enumerate(trace(space, cur)[1]):
                    cur = apply_step(space, cur, step)
                    if i % 3 == 0:
                        assert hash(cur) == _reference_hash(cur)
                    replayed += 1
                assert hash(cur) == _reference_hash(cur)
                for sub in _subterms(cur):
                    assert hash(sub) == _reference_hash(sub)
        assert replayed > 5_000, replayed

    def test_explore_class_members(self):
        checked = 0
        for space, text in (
            (builtin("circle"), "a * (~a * refl)"),
            (builtin("torus"), "a * b"),
            (builtin("cylinder"), "s * ~s"),
            (FILE_SPACE, "f * g"),
        ):
            members, _ = explore_class(space, parse_path(space, text), Budget(300, 6))
            for t in members:
                assert hash(t) == _reference_hash(t)
                checked += 1
        assert checked > 100, checked


def _left_chain(n, last=Gen("a")):
    t = Gen("a")
    for _ in range(n - 2):
        t = Trans(t, Gen("a"))
    return Trans(t, last)


def _symm_chain(n, leaf=Gen("a")):
    t = leaf
    for _ in range(n):
        t = Symm(t)
    return t


class TestDeepAndMixedHashes:
    def test_deep_terms_hash_without_recursion(self):
        chain = _left_chain(100_000)
        assert size(chain) == 2 * 100_000 - 1
        assert hash(chain) == _reference_hash(chain) == hash(_left_chain(100_000))
        deep = _symm_chain(100_000)
        assert hash(deep) == _reference_hash(deep) == hash(_symm_chain(100_000))
        assert deep == _symm_chain(100_000)
        assert deep != _symm_chain(100_000, Gen("b"))
        assert deep != _symm_chain(99_999)

    def test_equal_terms_agree_whether_or_not_hashed(self):
        makers = (
            lambda: _left_chain(2_000),
            lambda: _symm_chain(2_000),
            lambda: Trans(Symm(_left_chain(50)), Trans(Refl("pt"), Symm(Gen("b")))),
        )
        for make in makers:
            for hash_a, hash_b, hash_part in product((False, True), repeat=3):
                a, b = make(), make()
                if hash_part:  # only a subterm of b has a hash
                    subs = _subterms(b)
                    hash(subs[len(subs) // 2])
                if hash_a:
                    hash(a)
                if hash_b:
                    hash(b)
                assert a == b and b == a
                assert not (a != b) and not (b != a)
                assert hash(a) == hash(b)

    def test_unequal_terms_with_a_long_shared_prefix(self):
        pairs = (
            lambda: (_left_chain(20_000), _left_chain(20_000, Gen("b"))),
            lambda: (_symm_chain(20_000), _symm_chain(20_000, Refl("pt"))),
            # the difference deep inside the first leg, not at the root
            lambda: (
                Trans(_left_chain(20_000), Gen("a")),
                Trans(_left_chain(20_000, Symm(Gen("a"))), Gen("a")),
            ),
        )
        for make in pairs:
            for hash_a, hash_b in product((False, True), repeat=2):
                a, b = make()
                if hash_a:
                    hash(a)
                if hash_b:
                    hash(b)
                assert a != b and b != a
                assert not (a == b) and not (b == a)

    def test_rebuilt_terms_find_constructor_built_keys(self):
        a, b, c = Gen("a"), Gen("b"), Gen("c")
        table = {Trans(a, b): "ab", Trans(Trans(a, b), c): "ab.c"}
        # rebuilt at the root by the rule's effect
        t = apply_step(builtin("circle"), Trans(a, Trans(b, c)), RewriteStep(ASSOC_RIGHT, ()))
        assert table[t] == "ab.c" and table[t.first] == "ab"
        # the root rebuilt around a rewritten leg
        torus = builtin("torus")
        t = Trans(Trans(Refl("pt"), a), b)
        t = apply_step(torus, t, RewriteStep(TRANS_REFL_LEFT, (0,)))
        assert table[t] == "ab"
        # a relation step looks its subterm up in a dict keyed by the
        # relation's constructor-built side
        t = apply_step(torus, t, RewriteStep(relation_fwd("torusComm"), ()))
        assert t == Trans(b, a)
        t = Trans(Refl("p"), Trans(Trans(Refl("p"), Gen("f")), Gen("g")))
        t = apply_step(FILE_SPACE, t, RewriteStep(TRANS_REFL_LEFT, (1, 0)))
        t = apply_step(FILE_SPACE, t, RewriteStep(relation_fwd("loop"), (1,)))
        assert t == Trans(Refl("p"), Gen("h"))


class TestTermMemory:
    def test_parsed_word_memory(self):
        # 12.5 MB measured; 13.7 MB while every node had a `__weakref__`
        # slot, and 19.1 MB when every composite also stored its hash at
        # construction. The bound is the one set at 13.7 MB
        text = " * ".join(["a", "~a"] * 50_000)
        tracemalloc.start()
        try:
            t = parse_path(builtin("circle"), text)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size(t) == 249_999
        assert held < 16_500_000
