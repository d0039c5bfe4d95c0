"""The frozen value records, pinned class by class: construction by position,
by keyword and with defaults, every constructor check, equality and hashing
over the compared fields only, the repr text, and refusal of assignment and
deletion."""

import pytest

from pathrw import (
    Budget,
    Gen,
    Generator,
    GroupTag,
    GroupValue,
    NormalForm,
    OracleVerdict,
    PathClass,
    Refl,
    Relation,
    RewriteStep,
    RuleId,
    SpaceMap,
    SpaceMapError,
    SpacePresentation,
    Symm,
    Trans,
    Word,
    builtin,
    class_of,
    parse_space_text,
)
from pathrw.checks import CheckResult
from pathrw.oracle import BUDGET_EXHAUSTED, DEFAULT_MAX_STATES, EQUAL
from pathrw.spaces import _BUILTINS, _Builtin

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
TORUS = builtin("torus")
KLEIN = builtin("klein")
# one tier of spine rules for a `_Builtin`
SPINE = ({"a a": ("relation_fwd(r) @ root",)},)

CIRCLE_REPR = (
    "SpacePresentation(name='circle', points=('pt',), "
    "generators=(Generator(name='a', src='pt', tgt='pt'),), relations=(), "
    "basepoint='pt', group_tag=<GroupTag.FREE_Z: 'FreeZ'>)"
)
CYL_REPR = (
    "SpacePresentation(name='cylinder', points=('b0', 'b1'), "
    "generators=(Generator(name='s', src='b0', tgt='b1'), "
    "Generator(name='l0', src='b0', tgt='b0'), "
    "Generator(name='l1', src='b1', tgt='b1')), "
    "relations=(Relation(name='cylSquare', "
    "lhs=Trans(first=Gen(name='s'), second=Gen(name='l1')), "
    "rhs=Trans(first=Gen(name='l0'), second=Gen(name='s'))),), "
    "basepoint='b0', group_tag=<GroupTag.FREE_Z: 'FreeZ'>)"
)
TORUS_REPR = (
    "SpacePresentation(name='torus', points=('pt',), "
    "generators=(Generator(name='a', src='pt', tgt='pt'), "
    "Generator(name='b', src='pt', tgt='pt')), "
    "relations=(Relation(name='torusComm', "
    "lhs=Trans(first=Gen(name='a'), second=Gen(name='b')), "
    "rhs=Trans(first=Gen(name='b'), second=Gen(name='a'))),), "
    "basepoint='pt', group_tag=<GroupTag.ZXZ: 'ZxZ'>)"
)
RETRACTION = {"s": Refl("pt"), "l0": Gen("a"), "l1": Gen("a")}


def _retraction(gen_map=RETRACTION):
    return SpaceMap(CYL, CIRCLE, {"b0": "pt", "b1": "pt"}, dict(gen_map))


def _word(*letters, src="pt", tgt="pt"):
    return Word(tuple(letters), src, tgt)


def _circle_copy(**change):
    fields = dict(
        name="circle", points=("pt",), generators=(Generator("a", "pt", "pt"),),
        relations=(), basepoint="pt", group_tag=GroupTag.FREE_Z,
    )
    return SpacePresentation(**{**fields, **change})


# Per record class: a factory of one sample, the sample's repr, its compared
# fields in order, and samples that differ from it in one compared field
# each. Factories build fresh objects, so equality is never identity.
RECORDS = {
    "Generator": (
        lambda: Generator("a", "pt", "q"),
        "Generator(name='a', src='pt', tgt='q')",
        ("name", "src", "tgt"),
        [Generator("b", "pt", "q"), Generator("a", "q", "q"), Generator("a", "pt", "pt")],
    ),
    "Relation": (
        lambda: Relation("r", Trans(Gen("a"), Gen("a")), Refl("pt")),
        "Relation(name='r', lhs=Trans(first=Gen(name='a'), second=Gen(name='a')), "
        "rhs=Refl(point='pt'))",
        ("name", "lhs", "rhs"),
        [
            Relation("s", Trans(Gen("a"), Gen("a")), Refl("pt")),
            Relation("r", Gen("a"), Refl("pt")),
            Relation("r", Trans(Gen("a"), Gen("a")), Refl("q")),
        ],
    ),
    "SpacePresentation": (
        _circle_copy,
        CIRCLE_REPR,
        ("name", "points", "generators", "relations", "basepoint", "group_tag"),
        [
            _circle_copy(name="loop"),
            _circle_copy(points=("pt", "q")),
            _circle_copy(generators=()),
            _circle_copy(relations=(Relation("r", Gen("a"), Gen("a")),)),
            _circle_copy(basepoint="q"),
            _circle_copy(group_tag=None),
        ],
    ),
    "_Builtin": (
        lambda: _Builtin(TORUS, ("a", "b"), SPINE, {"a": "A"}),
        f"_Builtin(space={TORUS_REPR}, loops=('a', 'b'), "
        "spine_rules=({'a a': ('relation_fwd(r) @ root',)},), display={'a': 'A'})",
        ("space", "loops", "spine_rules", "display"),
        [
            _Builtin(KLEIN, ("a", "b"), SPINE, {"a": "A"}),
            _Builtin(TORUS, ("b", "a"), SPINE, {"a": "A"}),
            _Builtin(TORUS, ("a", "b"), (), {"a": "A"}),
            _Builtin(TORUS, ("a", "b"), SPINE),
        ],
    ),
    "GroupValue": (
        lambda: GroupValue(GroupTag.ZXZ, 1, -2),
        "GroupValue(tag=<GroupTag.ZXZ: 'ZxZ'>, m=1, n=-2)",
        ("tag", "m", "n"),
        [
            GroupValue(GroupTag.Z_SEMIDIRECT_Z, 1, -2),
            GroupValue(GroupTag.ZXZ, 0, -2),
            GroupValue(GroupTag.ZXZ, 1, 2),
        ],
    ),
    "PathClass": (
        lambda: PathClass(TORUS, "torus", NormalForm(_word(("a", 1))), "pt", "pt"),
        "PathClass(space_name='torus', nf=NormalForm(word=Word(letters=(('a', 1),), "
        "src='pt', tgt='pt')), src='pt', tgt='pt')",
        ("space_name", "nf", "src", "tgt"),
        [
            PathClass(TORUS, "klein", NormalForm(_word(("a", 1))), "pt", "pt"),
            PathClass(TORUS, "torus", NormalForm(_word(("b", 1))), "pt", "pt"),
            PathClass(TORUS, "torus", NormalForm(_word(("a", 1))), "q", "pt"),
            PathClass(TORUS, "torus", NormalForm(_word(("a", 1))), "pt", "q"),
        ],
    ),
    "Budget": (
        lambda: Budget(5, 3),
        "Budget(max_states=5, max_term_size=3)",
        ("max_states", "max_term_size"),
        [Budget(6, 3), Budget(5, None)],
    ),
    "OracleVerdict": (
        lambda: OracleVerdict(EQUAL, 3),
        "OracleVerdict(kind='EQUAL', explored=3)",
        ("kind", "explored"),
        [OracleVerdict(BUDGET_EXHAUSTED, 3), OracleVerdict(EQUAL, 4)],
    ),
    "SpaceMap": (
        _retraction,
        f"SpaceMap(source={CYL_REPR}, target={CIRCLE_REPR}, "
        "point_map={'b0': 'pt', 'b1': 'pt'}, "
        "gen_map={'s': Refl(point='pt'), 'l0': Gen(name='a'), 'l1': Gen(name='a')})",
        ("source", "target", "point_map", "gen_map"),
        [
            _retraction({"s": Refl("pt"), "l0": Symm(Gen("a")), "l1": Symm(Gen("a"))}),
            SpaceMap(CIRCLE, CIRCLE, {"pt": "pt"}, {"a": Gen("a")}),
        ],
    ),
    "RuleId": (
        lambda: RuleId("relation_fwd", "r"),
        "RuleId(kind='relation_fwd', relation='r')",
        ("kind", "relation"),
        [RuleId("relation_bwd", "r"), RuleId("relation_fwd")],
    ),
    "RewriteStep": (
        lambda: RewriteStep(RuleId("x"), (0, 1), Gen("a")),
        "RewriteStep(rule=RuleId(kind='x', relation=None), at=(0, 1), "
        "payload=Gen(name='a'))",
        ("rule", "at", "payload"),
        [
            RewriteStep(RuleId("y"), (0, 1), Gen("a")),
            RewriteStep(RuleId("x"), (0,), Gen("a")),
            RewriteStep(RuleId("x"), (0, 1)),
        ],
    ),
    "Word": (
        lambda: _word(("a", 1), ("b", -1), tgt="q"),
        "Word(letters=(('a', 1), ('b', -1)), src='pt', tgt='q')",
        ("letters", "src", "tgt"),
        [
            _word(("a", 1), tgt="q"),
            _word(("a", 1), ("b", -1), src="q", tgt="q"),
            _word(("a", 1), ("b", -1)),
        ],
    ),
    "NormalForm": (
        lambda: NormalForm(_word()),
        "NormalForm(word=Word(letters=(), src='pt', tgt='pt'))",
        ("word",),
        [NormalForm(_word(src="q", tgt="q"))],
    ),
    "CheckResult": (
        lambda: CheckResult("n", True, "d"),
        "CheckResult(name='n', passed=True, detail='d')",
        ("name", "passed", "detail"),
        [CheckResult("m", True, "d"), CheckResult("n", False, "d"), CheckResult("n", True, "e")],
    ),
}
UNHASHABLE = {"_Builtin", "SpaceMap"}
NAMES = sorted(RECORDS)


def test_every_record_class_is_pinned():
    assert len(RECORDS) == 14


@pytest.mark.parametrize("name", NAMES)
class TestEveryRecord:
    def test_repr(self, name):
        make, text, _, _ = RECORDS[name]
        assert repr(make()) == text

    def test_equal_over_the_compared_fields(self, name):
        make, _, fields, others = RECORDS[name]
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        assert len(others) == len(fields) or name == "SpaceMap"
        for other in others:
            assert x != other and other != x and not x == other

    def test_equal_only_to_the_same_class(self, name):
        make, _, fields, _ = RECORDS[name]
        x = make()
        values = tuple(getattr(x, f) for f in fields)
        assert x.__eq__(values) is NotImplemented
        assert x != values and x != object() and x is not None

    def test_hash_over_the_compared_fields(self, name):
        make, _, fields, _ = RECORDS[name]
        x, y = make(), make()
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(x)
            return
        assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in fields))
        assert {x: 1}[y] == 1

    def test_fields_refuse_assignment_and_deletion(self, name):
        make, _, fields, _ = RECORDS[name]
        x = make()
        for field in (*fields, "other"):
            before = getattr(x, field, None)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(x, field, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(x, field)
            assert getattr(x, field, None) is before

    def test_keywords_name_the_fields_in_order(self, name):
        make, _, fields, _ = RECORDS[name]
        x = make()
        values = [getattr(x, f) for f in fields]
        if name == "PathClass":
            fields, values = ("space", *fields), [x.space, *values]
        cls = type(x)
        assert cls(*values) == x
        assert cls(**dict(zip(fields, values))) == x
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(**dict(zip(fields, values)), other=None)


class TestDefaults:
    def test_defaults(self):
        assert _circle_copy().group_tag is GroupTag.FREE_Z
        assert SpacePresentation("s", ("p",), (), (), "p").group_tag is None
        assert GroupValue(GroupTag.FREE_Z) == GroupValue(GroupTag.FREE_Z, 0, 0)
        assert GroupValue(GroupTag.ZXZ, n=4) == GroupValue(GroupTag.ZXZ, 0, 4)
        assert Budget() == Budget(DEFAULT_MAX_STATES, None)
        assert Budget(max_term_size=9) == Budget(DEFAULT_MAX_STATES, 9)
        assert RuleId("symm_symm").relation is None
        assert RewriteStep(RuleId("x")) == RewriteStep(RuleId("x"), (), None)
        assert RewriteStep(RuleId("x"), payload=Gen("a")).at == ()

    def test_builtin_record_defaults(self):
        a, b = _Builtin(CIRCLE, ("a",)), _Builtin(CIRCLE, ("a",))
        assert (a.tree, a.images, a.spine_rules) == ({"pt": ()}, {"a": (1, 0)}, ())
        # the loops' images are the generators of the group
        assert _Builtin(TORUS, ("a", "b")).images == {"a": (1, 0), "b": (0, 1)}
        # the cylinder's tree reaches its far point along s
        assert _BUILTINS["cylinder"].tree == {"b0": (), "b1": (("s", 1),)}
        # each record gets its own empty display table
        assert a.display == {} and a.display is not b.display
        assert a == b

    def test_required_fields_have_no_default(self):
        for make in (
            lambda: Generator("a", "pt"),
            lambda: Relation("r", Gen("a")),
            lambda: SpacePresentation("s", ("p",), (), ()),
            lambda: _Builtin(CIRCLE),
            lambda: GroupValue(),
            lambda: PathClass(TORUS, "torus", NormalForm(_word()), "pt"),
            lambda: OracleVerdict(EQUAL),
            lambda: SpaceMap(CIRCLE, CIRCLE, {"pt": "pt"}),
            lambda: RuleId(),
            lambda: RewriteStep(),
            lambda: Word((), "pt"),
            lambda: NormalForm(),
            lambda: CheckResult("n", True),
        ):
            with pytest.raises(TypeError, match="missing 1 required"):
                make()


class TestDerivedFields:
    def test_space_presentation_derives_its_lookups_and_hash(self):
        sp = CYL
        assert sp.point_set == frozenset(("b0", "b1"))
        assert sp.generator_map == {g.name: g for g in sp.generators}
        assert sp._hash == hash(
            (sp.name, sp.points, sp.generators, sp.relations, sp.basepoint, sp.group_tag)
        )
        for field in ("point_set", "generator_map", "_hash"):
            with pytest.raises(AttributeError):
                setattr(sp, field, None)

    def test_derived_fields_stay_out_of_equality_and_hash(self):
        x, y = _circle_copy(), _circle_copy()
        object.__setattr__(y, "point_set", frozenset())
        object.__setattr__(y, "generator_map", {})
        assert x == y and hash(x) == hash(y)
        object.__setattr__(y, "_hash", 7)
        assert x == y and hash(y) == 7

    def test_builtin_tree_and_images_stay_out_of_equality_and_repr(self):
        x, y = _Builtin(TORUS, ("a", "b")), _Builtin(TORUS, ("a", "b"))
        assert x.tree == {"pt": ()} and x.images == {"a": (1, 0), "b": (0, 1)}
        set_tree, set_images = _Builtin._setters[-2:]
        set_tree(y, {})
        set_images(y, {"a": (3, 0)})
        assert x == y and repr(x) == repr(y)
        for field in ("tree", "images"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(x, field, None)

    def test_path_class_space_stays_out_of_equality_hash_and_repr(self):
        nf = NormalForm(_word(("a", 1)))
        x = PathClass(TORUS, "torus", nf, "pt", "pt")
        y = PathClass(CIRCLE, "torus", nf, "pt", "pt")
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert x.space is TORUS and y.space is CIRCLE
        assert x.representative() == Gen("a")
        assert class_of(TORUS, Gen("a")) == x

    def test_group_tags_carry_their_arithmetic(self):
        # a tag's value is the name reprs and messages print, and finds it
        assert GroupTag("FreeZ") is GroupTag.FREE_Z
        assert GroupTag("ZSemidirectZ") is GroupTag.Z_SEMIDIRECT_Z
        assert {tag.value: (tag.arity, tag.modulus, tag.twisted) for tag in GroupTag} == {
            "FreeZ": (1, None, False),
            "ZxZ": (2, None, False),
            "ZSemidirectZ": (2, None, True),
            "Z2": (1, 2, False),
        }

    def test_methods_and_properties(self):
        assert str(RuleId("relation_fwd", "r")) == "relation_fwd(r)"
        assert str(RuleId("symm_symm")) == "symm_symm"
        assert OracleVerdict(EQUAL, 0).is_equal
        assert OracleVerdict(EQUAL, 0).is_decided
        assert not OracleVerdict(BUDGET_EXHAUSTED, 0).is_decided
        twisted = GroupTag.Z_SEMIDIRECT_Z
        assert (twisted.flip(1), twisted.flip(2), GroupTag.ZXZ.flip(1)) == (-1, 1, 1)
        assert (twisted.flip(-3), GroupTag.Z2.flip(1)) == (-1, 1)
        assert _BUILTINS["klein"].fold((("b", 1), ("a", 1))) == (1, -1)
        assert _BUILTINS["torus"].write(1, -1) == (("a", 1), ("b", -1))


class TestValidation:
    def test_budget(self):
        with pytest.raises(ValueError, match=r"^max_states must be at least 0, got -1$"):
            Budget(-1)
        with pytest.raises(ValueError, match=r"^max_term_size must be at least 1, got 0$"):
            Budget(max_term_size=0)
        assert Budget(0, 1) == Budget(max_states=0, max_term_size=1)

    def test_group_value(self):
        with pytest.raises(ValueError, match=r"^FreeZ values have a single component$"):
            GroupValue(GroupTag.FREE_Z, 1, 1)
        with pytest.raises(ValueError, match=r"^Z2 values have a single component$"):
            GroupValue(GroupTag.Z2, 5, 1)
        for m in (-1, 2):
            with pytest.raises(ValueError, match=r"^Z2 values are 0 or 1$"):
                GroupValue(GroupTag.Z2, m)
        assert GroupValue(GroupTag.Z_SEMIDIRECT_Z, -7, 9).n == 9

    def test_space_map_points(self):
        with pytest.raises(SpaceMapError, match=r"^point 'b1' has no image$"):
            SpaceMap(CYL, CIRCLE, {"b0": "pt"}, dict(RETRACTION))
        with pytest.raises(
            SpaceMapError, match=r"^point image 'q' is not a point of 'circle'$"
        ):
            SpaceMap(CYL, CIRCLE, {"b0": "pt", "b1": "q"}, dict(RETRACTION))

    def test_space_map_generators(self):
        with pytest.raises(SpaceMapError, match=r"^generator 'l1' has no image$"):
            _retraction({"s": Refl("pt"), "l0": Gen("a")})
        with pytest.raises(
            SpaceMapError,
            match=r"^image of generator 's' runs b0 -> b0, expected b0 -> b1$",
        ):
            SpaceMap(CYL, CYL, {"b0": "b0", "b1": "b1"},
                     {"s": Gen("l0"), "l0": Gen("l0"), "l1": Gen("l1")})

    def test_space_map_relations(self):
        with pytest.raises(
            SpaceMapError, match=r"^relation 'cylSquare' is not preserved by the map$"
        ):
            _retraction({"s": Refl("pt"), "l0": Gen("a"), "l1": Trans(Gen("a"), Gen("a"))})
        target = parse_space_text(
            "point pt\ngen a : pt -> pt\ngen b : pt -> pt\nrel r : a * a * a = refl(pt)\n"
        )
        with pytest.raises(
            SpaceMapError,
            match=r"^preservation of relation 'torusComm' is undecided: no derivation "
            r"in the target within 2000 search states$",
        ):
            SpaceMap(TORUS, target, {"pt": "pt"}, {"a": Gen("a"), "b": Gen("b")})


@pytest.mark.parametrize("name", NAMES)
def test_records_are_slotted(name):
    # no per-instance dict: a record holds its fields in slots alone
    assert not hasattr(RECORDS[name][0](), "__dict__")
