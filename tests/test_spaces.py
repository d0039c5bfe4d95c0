import pytest

from pathrw import (
    BUILTIN_NAMES,
    Gen,
    Generator,
    GroupTag,
    ParseError,
    Refl,
    Relation,
    SpacePresentation,
    Symm,
    Trans,
    builtin,
    parse_space_file,
    parse_space_text,
    validate,
)


class TestBuiltins:
    def test_roster(self):
        assert BUILTIN_NAMES == ("circle", "cylinder", "mobius", "torus", "klein", "rp2")

    def test_circle(self):
        sp = builtin("circle")
        assert sp.points == ("pt",)
        assert [(g.name, g.src, g.tgt) for g in sp.generators] == [("a", "pt", "pt")]
        assert sp.relations == ()
        assert sp.basepoint == "pt"
        assert sp.group_tag is GroupTag.FREE_Z

    def test_cylinder(self):
        sp = builtin("cylinder")
        assert sp.points == ("b0", "b1")
        assert [(g.name, g.src, g.tgt) for g in sp.generators] == [
            ("s", "b0", "b1"),
            ("l0", "b0", "b0"),
            ("l1", "b1", "b1"),
        ]
        rel = sp.relations[0]
        assert rel.name == "cylSquare"
        assert rel.lhs == Trans(Gen("s"), Gen("l1"))
        assert rel.rhs == Trans(Gen("l0"), Gen("s"))
        assert sp.basepoint == "b0"
        assert sp.group_tag is GroupTag.FREE_Z

    def test_mobius(self):
        sp = builtin("mobius")
        assert sp.points == ("pt",)
        assert [g.name for g in sp.generators] == ["a"]
        assert sp.relations == ()
        assert sp.group_tag is GroupTag.FREE_Z

    def test_torus(self):
        sp = builtin("torus")
        assert [g.name for g in sp.generators] == ["a", "b"]
        rel = sp.relations[0]
        assert rel.name == "torusComm"
        assert rel.lhs == Trans(Gen("a"), Gen("b"))
        assert rel.rhs == Trans(Gen("b"), Gen("a"))
        assert sp.group_tag is GroupTag.ZXZ

    def test_klein(self):
        sp = builtin("klein")
        assert [g.name for g in sp.generators] == ["a", "b"]
        rel = sp.relations[0]
        assert rel.name == "kleinSurf"
        assert rel.lhs == Trans(Trans(Gen("a"), Gen("b")), Symm(Gen("a")))
        assert rel.rhs == Symm(Gen("b"))
        assert sp.group_tag is GroupTag.Z_SEMIDIRECT_Z

    def test_rp2(self):
        sp = builtin("rp2")
        assert [g.name for g in sp.generators] == ["alpha"]
        rel = sp.relations[0]
        assert rel.name == "loopSquare"
        assert rel.lhs == Trans(Gen("alpha"), Gen("alpha"))
        assert rel.rhs == Refl("pt")
        assert sp.group_tag is GroupTag.Z2

    def test_group_tag_wire_values(self):
        assert GroupTag.FREE_Z.value == "FreeZ"
        assert GroupTag.ZXZ.value == "ZxZ"
        assert GroupTag.Z_SEMIDIRECT_Z.value == "ZSemidirectZ"
        assert GroupTag.Z2.value == "Z2"

    def test_builtin_is_cached(self):
        assert builtin("torus") is builtin("torus")


class TestValidate:
    def test_builtins_validate_clean(self):
        for name in BUILTIN_NAMES:
            assert validate(builtin(name)) == []

    def test_unknown_generator_endpoint(self):
        sp = SpacePresentation(
            name="bad",
            points=("x",),
            generators=(Generator("g", "x", "y"),),
            relations=(),
            basepoint="x",
        )
        problems = validate(sp)
        assert any("y" in p for p in problems)

    def test_duplicate_names_flagged(self):
        sp = SpacePresentation(
            name="bad",
            points=("x",),
            generators=(Generator("g", "x", "x"), Generator("g", "x", "x")),
            relations=(),
            basepoint="x",
        )
        problems = validate(sp)
        assert problems and any("g" in p for p in problems)

    def test_relation_sides_must_share_endpoints(self):
        sp = SpacePresentation(
            name="bad",
            points=("x", "y"),
            generators=(Generator("g", "x", "y"), Generator("h", "x", "x")),
            relations=(Relation("r", Gen("g"), Gen("h")),),
            basepoint="x",
        )
        assert validate(sp)

    def test_unknown_basepoint(self):
        sp = SpacePresentation(
            name="bad",
            points=("x",),
            generators=(),
            relations=(),
            basepoint="z",
        )
        assert validate(sp)


class TestNamesTheGrammarCanSpell:
    # names the expression grammar cannot read back: such a generator could
    # appear in no relation and no input, and printed output would not parse
    @pytest.mark.parametrize("text, problem", [
        ("point pt\ngen : pt -> pt\n", "generator '' is not one name token"),
        ("point pt\ngen refl : pt -> pt\n",
         "generator 'refl' would read as the constant path"),
        ("point pt\ngen a*b : pt -> pt\n", "generator 'a*b' is not one name token"),
        ("point p-t\ngen a : p-t -> p-t\n", "point 'p-t' is not one name token"),
    ])
    def test_file_is_refused(self, text, problem):
        with pytest.raises(ParseError, match="invalid space") as info:
            parse_space_text(text)
        assert f"BadName: {problem}" in str(info.value)

    def test_every_name_is_reported(self):
        sp = SpacePresentation(
            "bad", ("p t", "ok", "9"), (Generator("a b", "ok", "ok"),), (), "ok"
        )
        assert validate(sp) == [
            "BadName: point 'p t' is not one name token",
            "BadName: point '9' is not one name token",
            "BadName: generator 'a b' is not one name token",
        ]

    def test_grammar_names_still_load(self):
        sp = parse_space_text("point refl\npoint _q1\ngen α : refl -> _q1\n")
        assert validate(sp) == []
        assert [g.name for g in sp.generators] == ["α"]
        for name in BUILTIN_NAMES:
            assert validate(builtin(name)) == []


PRESENTATION = """\
# a wedge of two loops
point p
gen u : p -> p
gen v : p -> p
base p
"""

PRESENTATION_WITH_REL = """\
point x
point y
gen f : x -> y
gen g : x -> y
rel same : f = g
base x
"""


class TestParsing:
    def test_parse_points_gens_base(self):
        sp = parse_space_text(PRESENTATION, name="wedge")
        assert sp.name == "wedge"
        assert sp.points == ("p",)
        assert [(g.name, g.src, g.tgt) for g in sp.generators] == [
            ("u", "p", "p"),
            ("v", "p", "p"),
        ]
        assert sp.basepoint == "p"
        assert sp.group_tag is None

    def test_parse_relation(self):
        sp = parse_space_text(PRESENTATION_WITH_REL)
        rel = sp.relations[0]
        assert rel.name == "same"
        assert rel.lhs == Gen("f")
        assert rel.rhs == Gen("g")

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError):
            parse_space_text("point p\nwat p -> p\nbase p\n")

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ParseError):
            parse_space_text("point p\ngen u : p -> q\nbase p\n")

    def test_missing_basepoint_defaults_to_first_point(self):
        sp = parse_space_text("point p\npoint q\ngen u : p -> q\n")
        assert sp.basepoint == "p"

    def test_relation_endpoint_mismatch_rejected(self):
        text = (
            "point x\npoint y\n"
            "gen f : x -> y\ngen h : x -> x\n"
            "rel bad : f = h\nbase x\n"
        )
        with pytest.raises(ParseError):
            parse_space_text(text)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "wedge.space"
        path.write_text(PRESENTATION)
        sp = parse_space_file(path)
        assert sp.name == "wedge"
        assert [g.name for g in sp.generators] == ["u", "v"]
