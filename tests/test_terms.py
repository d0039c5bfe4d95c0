import pytest

from pathrw import (
    EndpointMismatchError,
    Gen,
    NotALoopError,
    Refl,
    SpaceMap,
    SpaceMapError,
    Symm,
    Trans,
    UnknownGeneratorError,
    UnknownPointError,
    builtin,
    endpoints,
    map_path,
    parse_space_text,
    size,
    zpow,
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
