import pytest
from hypothesis import given, settings, strategies as st

from pathrw import (
    EndpointMismatchError,
    Gen,
    GroupTag,
    GroupTagMismatchError,
    GroupValue,
    Lcg,
    NotABasepointLoopError,
    ParseError,
    Refl,
    SpaceMap,
    Symm,
    Trans,
    UnknownGeneratorError,
    UnknownPointError,
    Word,
    builtin,
    class_of,
    decode,
    encode,
    endpoints,
    enumerate_loops,
    group_identity,
    group_inv,
    group_mul,
    homomorphism_check,
    map_path,
    normalize,
    parse_group_value,
    parse_space_text,
    random_term,
    render_group_value,
    term_of_word,
    zpow,
)
from pathrw.pi1 import _group_record
from pathrw.spaces import Generator, Relation, SpacePresentation, _Builtin, _builtin_record

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
MOBIUS = builtin("mobius")
TORUS = builtin("torus")
KLEIN = builtin("klein")
RP2 = builtin("rp2")

ALL = (CIRCLE, CYL, MOBIUS, TORUS, KLEIN, RP2)

A = Gen("a")
B = Gen("b")

# the retractions onto the circle that the cylinder and the Möbius band
# were once encoded through, as checked space maps
RETRACTIONS = {
    CYL: SpaceMap(
        CYL, CIRCLE, {"b0": "pt", "b1": "pt"}, {"s": Refl("pt"), "l0": A, "l1": A}
    ),
    MOBIUS: SpaceMap(MOBIUS, CIRCLE, {"pt": "pt"}, {"a": A}),
}


def _former_encode(space, p):
    """encode as it was computed through terms: normalize the loop, or on the
    cylinder and the Möbius band push it through the retraction with
    `map_path` and normalize the image in the circle."""
    rec = _group_record(space, "encode")
    retraction = RETRACTIONS.get(space)
    if retraction is None:
        word = normalize(space, p).word
        src, tgt = word.src, word.tgt
    else:
        src, tgt = endpoints(space, p)
    if (src, tgt) != (space.basepoint, space.basepoint):
        raise NotABasepointLoopError(
            f"encode needs a loop at '{space.basepoint}', got {src} -> {tgt}"
        )
    if retraction is None:
        m, n = rec.fold(word.letters)
    else:
        image = normalize(CIRCLE, map_path(retraction, p))
        m, n = _builtin_record(CIRCLE).fold(image.word.letters)
    return GroupValue(space.group_tag, m, n)


def _random_loop(space, length, rng):
    """A basepoint loop of `length` random letters, plus one step home if
    the walk ends elsewhere."""
    steps = {pt: [] for pt in space.points}
    for g in space.generators:
        steps[g.src].append((g.name, 1, g.tgt))
        steps[g.tgt].append((g.name, -1, g.src))
    at, letters = space.basepoint, []
    while len(letters) < length or at != space.basepoint:
        name, sign, at = rng.choice(steps[at])
        letters.append((name, sign))
    base = space.basepoint
    return term_of_word(Word(tuple(letters), base, base))


class TestEncodeAnchors:
    def test_circle_winding_counts(self):
        assert encode(CIRCLE, Refl("pt")) == GroupValue(GroupTag.FREE_Z, 0)
        assert encode(CIRCLE, A) == GroupValue(GroupTag.FREE_Z, 1)
        assert encode(CIRCLE, zpow(CIRCLE, A, 7)) == GroupValue(GroupTag.FREE_Z, 7)
        assert encode(CIRCLE, zpow(CIRCLE, A, -4)) == GroupValue(GroupTag.FREE_Z, -4)

    def test_circle_cancellation(self):
        t = Trans(A, Trans(Symm(A), A))
        assert encode(CIRCLE, t).m == 1

    def test_cylinder_conjugated_far_loop(self):
        s, l0, l1 = Gen("s"), Gen("l0"), Gen("l1")
        t = Trans(s, Trans(l1, Symm(s)))
        assert encode(CYL, t) == GroupValue(GroupTag.FREE_Z, 1)
        assert encode(CYL, l0) == GroupValue(GroupTag.FREE_Z, 1)

    def test_mobius_winding(self):
        assert encode(MOBIUS, zpow(MOBIUS, A, 5)).m == 5

    def test_torus_pairs(self):
        t = Trans(A, Trans(B, Trans(Symm(A), B)))
        assert encode(TORUS, t) == GroupValue(GroupTag.ZXZ, 0, 2)
        t2 = Trans(zpow(TORUS, A, 3), zpow(TORUS, B, -2))
        assert encode(TORUS, t2) == GroupValue(GroupTag.ZXZ, 3, -2)

    def test_klein_twisting(self):
        # a b a^-1 lands on b^-1
        t = Trans(A, Trans(B, Symm(A)))
        assert encode(KLEIN, t) == GroupValue(GroupTag.Z_SEMIDIRECT_Z, 0, -1)
        # b a = a b^-1
        assert encode(KLEIN, Trans(B, A)) == GroupValue(GroupTag.Z_SEMIDIRECT_Z, 1, -1)

    def test_rp2_parity(self):
        alpha = Gen("alpha")
        assert encode(RP2, Refl("pt")) == GroupValue(GroupTag.Z2, 0)
        assert encode(RP2, alpha) == GroupValue(GroupTag.Z2, 1)
        assert encode(RP2, zpow(RP2, alpha, 2)) == GroupValue(GroupTag.Z2, 0)
        assert encode(RP2, zpow(RP2, alpha, -3)) == GroupValue(GroupTag.Z2, 1)

    def test_encode_requires_basepoint_loop(self):
        with pytest.raises(NotABasepointLoopError):
            encode(CYL, Gen("s"))
        with pytest.raises(NotABasepointLoopError):
            encode(CYL, Gen("l1"))

    def test_encode_refused_without_tag(self):
        sp = parse_space_text("point p\ngen u : p -> p\nbase p\n")
        with pytest.raises(GroupTagMismatchError):
            encode(sp, Gen("u"))


class TestEncodeParity:
    """encode folds free words; the former route through terms, written out
    in `_former_encode`, gives every value and every error it gives."""

    def test_enumerated_loops(self):
        for space in ALL:
            for p in enumerate_loops(space, 6):
                assert encode(space, p) == _former_encode(space, p)

    def test_random_loops(self):
        rng = Lcg(83)
        for space in ALL:
            base = space.basepoint
            for _ in range(60):
                p = random_term(space, 1 + rng.randint(40), rng, base, base)
                assert encode(space, p) == _former_encode(space, p)
                assert encode(space, Symm(p)) == _former_encode(space, Symm(p))

    def test_long_loops(self):
        rng = Lcg(89)
        for space in ALL:
            p = _random_loop(space, 2000, rng)
            for q in (p, Symm(p), Trans(p, Symm(p))):
                assert encode(space, q) == _former_encode(space, q)

    @pytest.mark.parametrize("space, p, error", [
        (CIRCLE, Trans(A, Gen("nope")), UnknownGeneratorError),
        (CYL, Trans(Gen("l0"), Gen("a")), UnknownGeneratorError),
        (MOBIUS, Symm(Trans(Gen("b"), A)), UnknownGeneratorError),
        (CYL, Trans(Gen("s"), Gen("l0")), EndpointMismatchError),
        (CYL, Trans(Gen("l0"), Symm(Gen("s"))), EndpointMismatchError),
        (TORUS, Trans(A, Refl("b0")), UnknownPointError),
        (CYL, Gen("s"), NotABasepointLoopError),
        (CYL, Gen("l1"), NotABasepointLoopError),
        (CYL, Trans(Symm(Gen("s")), Trans(Gen("l0"), Gen("s"))), NotABasepointLoopError),
        (parse_space_text("point p\ngen u : p -> p\nbase p\n"), Gen("u"),
         GroupTagMismatchError),
        (parse_space_text("point pt\ngen a : pt -> pt\nbase pt\n"), A,
         GroupTagMismatchError),
    ])
    def test_errors(self, space, p, error):
        with pytest.raises(error) as new:
            encode(space, p)
        with pytest.raises(error) as old:
            _former_encode(space, p)
        assert type(new.value) is type(old.value)
        assert str(new.value) == str(old.value)


class TestRetractions:
    """The cylinder's and the Möbius band's generator images, derived from
    their presentations, are the winding numbers of their retractions'
    images in the circle."""

    def test_cylinder_retraction_images(self):
        images = {"s": (0, 0), "l0": (1, 0), "l1": (1, 0)}
        assert _builtin_record(CYL).images == images
        for g, t in RETRACTIONS[CYL].gen_map.items():
            assert encode(CIRCLE, t).m == images[g][0]

    def test_mobius_retraction_is_degree_one(self):
        assert _builtin_record(MOBIUS).images == {"a": (1, 0)}
        assert encode(CIRCLE, RETRACTIONS[MOBIUS].gen_map["a"]).m == 1


def _one_point_space(name, tag, gens, *relations):
    return SpacePresentation(name, ("pt",), tuple(Generator(g, "pt", "pt") for g in gens),
                             relations, "pt", tag)


class TestImageCheck:
    """A record checks its images against every relation at construction,
    once they are derived; a record whose images break a relation, or that
    leaves a generator with none, is refused, naming it."""

    @pytest.mark.parametrize("space, loops, message", [
        (KLEIN, ("b", "a"),
         "the images of klein's generators send relation 'kleinSurf' to "
         "(1, -2) and (-1, 0)"),
        (_one_point_space("circle", GroupTag.FREE_Z, "a", Relation("r", Trans(A, A), A)),
         ("a",),
         "the images of circle's generators send relation 'r' to (2, 0) and (1, 0)"),
    ], ids=["klein-loops-swapped", "circle-a-a-is-a"])
    def test_images_that_break_a_relation_are_refused(self, space, loops, message):
        with pytest.raises(ValueError) as err:
            _Builtin(space, loops)
        assert str(err.value) == message

    @pytest.mark.parametrize("space, loops, message", [
        # b occurs twice in the torus's one relator, so it defines nothing
        (TORUS, ("a",), "torus's generator 'b' has no image"),
        (_one_point_space("circle", GroupTag.FREE_Z, "ac"), ("a",),
         "circle's generator 'c' has no image"),
    ], ids=["torus-without-b", "circle-with-a-spare-loop"])
    def test_a_generator_left_without_an_image_is_refused(self, space, loops, message):
        with pytest.raises(ValueError) as err:
            _Builtin(space, loops)
        assert str(err.value) == message


class TestDerivedImages:
    """A relator u g^s v in which g is the one letter without an image
    defines g by g^-s = v u."""

    @pytest.mark.parametrize("lhs, rhs, image", [
        # c = a b, and c = b a through a ~c b = refl: in the twisted group
        # the order of the letters shows
        (Gen("c"), Trans(A, B), (1, 1)),
        (Trans(A, Trans(Symm(Gen("c")), B)), Refl("pt"), (1, -1)),
    ], ids=["c-is-a-b", "c-is-b-a"])
    def test_a_relation_defines_its_one_letter_without_an_image(self, lhs, rhs, image):
        space = _one_point_space("kleinC", GroupTag.Z_SEMIDIRECT_Z, "abc",
                                 Relation("r", lhs, rhs))
        assert _Builtin(space, ("a", "b")).images == {"a": (1, 0), "b": (0, 1), "c": image}

    def test_relations_are_read_once_in_declaration_order(self):
        # read first, d = c c holds two letters without images and defines
        # nothing, so d is left without one; read after c = a b, it defines d
        space = _one_point_space(
            "torusCD", GroupTag.ZXZ, "abcd",
            Relation("r1", Gen("d"), Trans(Gen("c"), Gen("c"))),
            Relation("r2", Gen("c"), Trans(A, B)),
        )
        with pytest.raises(ValueError, match="^torusCD's generator 'd' has no image$"):
            _Builtin(space, ("a", "b"))
        space = _one_point_space(
            "torusCD", GroupTag.ZXZ, "abcd",
            Relation("r2", Gen("c"), Trans(A, B)),
            Relation("r1", Gen("d"), Trans(Gen("c"), Gen("c"))),
        )
        assert _Builtin(space, ("a", "b")).images["d"] == (2, 2)


class TestDecode:
    def test_decode_reaches_every_small_value(self):
        for n in range(-6, 7):
            c = decode(CIRCLE, GroupValue(GroupTag.FREE_Z, n))
            assert encode(CIRCLE, c.representative()).m == n

    def test_decode_cylinder_uses_near_loop(self):
        c = decode(CYL, GroupValue(GroupTag.FREE_Z, 2))
        assert (c.src, c.tgt) == ("b0", "b0")
        assert c == class_of(CYL, zpow(CYL, Gen("l0"), 2))

    def test_decode_torus(self):
        v = GroupValue(GroupTag.ZXZ, 2, -1)
        c = decode(TORUS, v)
        assert encode(TORUS, c.representative()) == v

    def test_decode_klein(self):
        v = GroupValue(GroupTag.Z_SEMIDIRECT_Z, -2, 3)
        c = decode(KLEIN, v)
        assert encode(KLEIN, c.representative()) == v

    def test_decode_rp2(self):
        assert decode(RP2, GroupValue(GroupTag.Z2, 0)) == class_of(RP2, Refl("pt"))
        assert decode(RP2, GroupValue(GroupTag.Z2, 1)) == class_of(RP2, Gen("alpha"))

    def test_decode_tag_mismatch(self):
        with pytest.raises(GroupTagMismatchError):
            decode(TORUS, GroupValue(GroupTag.FREE_Z, 1))

    def test_round_trip_on_classes(self):
        rng = Lcg(41)
        for space in (CIRCLE, CYL, MOBIUS, TORUS, KLEIN, RP2):
            base = space.basepoint
            for _ in range(30):
                t = random_term(space, 1 + rng.randint(12), rng, base, base)
                c = class_of(space, t)
                assert decode(space, encode(space, t)) == c


    def test_decode_is_the_class_of_its_word(self):
        for space in ALL:
            rec = _builtin_record(space)
            for v in _small_values(space.group_tag):
                c = decode(space, v)
                assert c == class_of(space, c.representative())
                assert c.nf.word.letters == rec.write(v.m, v.n)
                assert (c.src, c.tgt) == (space.basepoint, space.basepoint)


def _small_values(tag):
    """Every element of `tag` with |m|, |n| <= 20: both residues of Z2."""
    out = []
    for m in range(-20, 21):
        for n in range(-20, 21):
            try:
                out.append(GroupValue(tag, m, n))
            except ValueError:
                pass
    return out


class TestGroupArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(
        m1=st.integers(-30, 30), n1=st.integers(-30, 30),
        m2=st.integers(-30, 30), n2=st.integers(-30, 30),
        m3=st.integers(-30, 30), n3=st.integers(-30, 30),
        tag=st.sampled_from(
            [GroupTag.FREE_Z, GroupTag.ZXZ, GroupTag.Z_SEMIDIRECT_Z, GroupTag.Z2]
        ),
    )
    def test_group_axioms(self, m1, n1, m2, n2, m3, n3, tag):
        if tag is GroupTag.Z2:
            m1, m2, m3 = m1 % 2, m2 % 2, m3 % 2
        if tag in (GroupTag.Z2, GroupTag.FREE_Z):
            n1 = n2 = n3 = 0
        v1, v2, v3 = (
            GroupValue(tag, m, n)
            for m, n in ((m1, n1), (m2, n2), (m3, n3))
        )
        e = group_identity(tag)
        assert group_mul(group_mul(v1, v2), v3) == group_mul(v1, group_mul(v2, v3))
        assert group_mul(e, v1) == v1
        assert group_mul(v1, e) == v1
        assert group_mul(v1, group_inv(v1)) == e
        assert group_mul(group_inv(v1), v1) == e

    def test_klein_multiplication_twists(self):
        a = GroupValue(GroupTag.Z_SEMIDIRECT_Z, 1, 0)
        b = GroupValue(GroupTag.Z_SEMIDIRECT_Z, 0, 1)
        ba = group_mul(b, a)
        assert ba == GroupValue(GroupTag.Z_SEMIDIRECT_Z, 1, -1)
        ab = group_mul(a, b)
        assert ab == GroupValue(GroupTag.Z_SEMIDIRECT_Z, 1, 1)
        assert ab != ba

    def test_mixed_tags_rejected(self):
        with pytest.raises(GroupTagMismatchError):
            group_mul(GroupValue(GroupTag.FREE_Z, 1), GroupValue(GroupTag.Z2, 1))

    def test_single_component_tags_reject_second_coordinate(self):
        with pytest.raises(ValueError):
            GroupValue(GroupTag.FREE_Z, 2, 1)
        with pytest.raises(ValueError):
            GroupValue(GroupTag.Z2, 1, 1)
        with pytest.raises(ValueError):
            GroupValue(GroupTag.Z2, 3)


class TestHomomorphism:
    def test_random_pairs_all_spaces(self):
        rng = Lcg(53)
        for space in (CIRCLE, CYL, MOBIUS, TORUS, KLEIN, RP2):
            base = space.basepoint
            for _ in range(40):
                p = random_term(space, 1 + rng.randint(10), rng, base, base)
                q = random_term(space, 1 + rng.randint(10), rng, base, base)
                assert homomorphism_check(space, p, q)

    def test_fold_multiplies_the_images(self):
        # images with both coordinates set, which no builtin uses: fold is
        # the product of the letters' images under group_mul
        rng = Lcg(61)
        for space in (TORUS, KLEIN):
            tag = space.group_tag
            rec = _Builtin(space, ("a", "b"))
            set_images = _Builtin._setters[_Builtin.__slots__.index("images")]
            set_images(rec, {"a": (3, -2), "b": (-1, 5)})
            image = {g: GroupValue(tag, *v) for g, v in rec.images.items()}
            for _ in range(40):
                letters = [(rng.choice("ab"), rng.choice((1, -1))) for _ in range(12)]
                want = group_identity(tag)
                for g, sign in letters:
                    want = group_mul(want, image[g] if sign > 0 else group_inv(image[g]))
                assert GroupValue(tag, *rec.fold(tuple(letters))) == want

    def test_inverse_maps_to_group_inverse(self):
        rng = Lcg(59)
        for space in (CIRCLE, CYL, MOBIUS, TORUS, KLEIN, RP2):
            base = space.basepoint
            for _ in range(25):
                p = random_term(space, 1 + rng.randint(10), rng, base, base)
                assert encode(space, Symm(p)) == group_inv(encode(space, p))


class TestValueText:
    def test_render_single_component(self):
        assert render_group_value(GroupValue(GroupTag.FREE_Z, -3)) == "-3"
        assert render_group_value(GroupValue(GroupTag.Z2, 1)) == "1"

    def test_render_pairs(self):
        assert render_group_value(GroupValue(GroupTag.ZXZ, 2, -1)) == "(2, -1)"

    def test_parse_round_trip(self):
        cases = [
            GroupValue(GroupTag.FREE_Z, 12),
            GroupValue(GroupTag.ZXZ, -3, 5),
            GroupValue(GroupTag.Z_SEMIDIRECT_Z, 0, -7),
            GroupValue(GroupTag.Z2, 1),
        ]
        for v in cases:
            assert parse_group_value(v.tag, render_group_value(v)) == v

    def test_parse_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_group_value(GroupTag.ZXZ, "3")
        with pytest.raises(ParseError):
            parse_group_value(GroupTag.FREE_Z, "(1, 2)")
        with pytest.raises(ParseError):
            parse_group_value(GroupTag.Z2, "5")
        with pytest.raises(ParseError):
            parse_group_value(GroupTag.ZXZ, "(1, )")

    def test_values_checked_against_the_node_limit(self):
        # the loop a^m b^n has 2(|m| + |n|) - 1 nodes plus one per inverse
        assert parse_group_value(GroupTag.FREE_Z, "500000").m == 500000
        assert parse_group_value(GroupTag.FREE_Z, "-333333").m == -333333
        assert parse_group_value(GroupTag.ZXZ, "(250000, -166666)").n == -166666
        for tag, text in [
            (GroupTag.FREE_Z, "500001"),
            (GroupTag.FREE_Z, "-333334"),
            (GroupTag.ZXZ, "(250001, 250000)"),
        ]:
            with pytest.raises(ParseError, match="the limit is 1,000,000"):
                parse_group_value(tag, text)

    def test_long_digit_runs_are_read_by_their_length(self):
        # past the 4,300 digits int() converts by default: leading zeros
        # are dropped first, and a number still that long is refused
        zeros = "0" * 4999
        assert parse_group_value(GroupTag.FREE_Z, zeros + "3").m == 3
        assert parse_group_value(GroupTag.FREE_Z, f" -{zeros}3 ").m == -3
        value = parse_group_value(GroupTag.ZXZ, f"({zeros}2, -{zeros}1)")
        assert (value.m, value.n) == (2, -1)
        for tag, text in [
            (GroupTag.FREE_Z, "9" * 5000),
            (GroupTag.FREE_Z, "-" + "9" * 5000),
            (GroupTag.ZXZ, f"(1, {'9' * 5000})"),
            (GroupTag.Z2, "1" * 101),
        ]:
            with pytest.raises(
                ParseError, match=r"value too large: a number of [\d,]+ digits"
            ):
                parse_group_value(tag, text)
        # a component is one integer token, as an exponent is: no `+`, no `_`
        for text in ("+" + zeros, "1_000", "+5", "+-3"):
            with pytest.raises(ParseError) as refused:
                parse_group_value(GroupTag.FREE_Z, text)
            assert str(refused.value) == f"FreeZ values are integers; got {text!r}"
        with pytest.raises(ParseError) as refused:
            parse_group_value(GroupTag.ZXZ, "(+1, 0_1)")
        assert str(refused.value) == "bad integer in '(+1, 0_1)'"

    def test_spaces_signs_and_zeros_are_read(self):
        assert parse_group_value(GroupTag.FREE_Z, " 007 ").m == 7
        assert parse_group_value(GroupTag.FREE_Z, "-0").m == 0
        value = parse_group_value(GroupTag.ZXZ, "( 2 , -1 )")
        assert (value.m, value.n) == (2, -1)
