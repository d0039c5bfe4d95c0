import pytest
from hypothesis import given, settings, strategies as st

from pathrw import (
    Gen,
    Lcg,
    ParseError,
    Refl,
    Symm,
    Trans,
    builtin,
    free_normalize,
    parse_path,
    parse_space_text,
    random_term,
    render_path,
    render_word,
    zpow,
)

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
TORUS = builtin("torus")
RP2 = builtin("rp2")


class TestParsing:
    def test_generator(self):
        assert parse_path(CIRCLE, "a") == Gen("a")

    def test_composition_is_left_associative(self):
        assert parse_path(TORUS, "a * b * a") == Trans(
            Trans(Gen("a"), Gen("b")), Gen("a")
        )

    def test_inverse_binds_tighter_than_composition(self):
        assert parse_path(TORUS, "~a * b") == Trans(Symm(Gen("a")), Gen("b"))

    def test_nested_inverse(self):
        assert parse_path(CIRCLE, "~~a") == Symm(Symm(Gen("a")))

    def test_inverse_of_group(self):
        assert parse_path(TORUS, "~(a * b)") == Symm(Trans(Gen("a"), Gen("b")))

    def test_parens_override(self):
        assert parse_path(TORUS, "a * (b * a)") == Trans(
            Gen("a"), Trans(Gen("b"), Gen("a"))
        )

    def test_bare_refl_single_point(self):
        assert parse_path(CIRCLE, "refl") == Refl("pt")

    def test_bare_refl_rejected_with_two_points(self):
        with pytest.raises(ParseError):
            parse_path(CYL, "refl")

    def test_refl_with_point(self):
        assert parse_path(CYL, "refl(b1)") == Refl("b1")

    def test_refl_unknown_point(self):
        with pytest.raises(ParseError):
            parse_path(CYL, "refl(zz)")

    def test_power_positive(self):
        assert parse_path(CIRCLE, "a^3") == zpow(CIRCLE, Gen("a"), 3)

    def test_power_negative(self):
        assert parse_path(CIRCLE, "a^-2") == Trans(Symm(Gen("a")), Symm(Gen("a")))

    def test_power_zero(self):
        assert parse_path(CIRCLE, "a^0") == Refl("pt")

    def test_power_of_parenthesized(self):
        got = parse_path(TORUS, "(a * b)^2")
        ab = Trans(Gen("a"), Gen("b"))
        assert got == Trans(ab, ab)

    def test_power_of_inverse_binds_to_atom(self):
        # ~a^2 parses as ~(a^2) per the unary-over-postfix layering
        assert parse_path(CIRCLE, "~a^2") == Symm(Trans(Gen("a"), Gen("a")))

    def test_rp2_ascii_and_greek_agree(self):
        assert parse_path(RP2, "alpha") == Gen("alpha")
        assert parse_path(RP2, "α") == Gen("alpha")

    def test_display_names_belong_to_the_builtin(self):
        # a loaded space's alpha has no display name, so α is not one of
        # its generators
        space = parse_space_text("point pt\ngen alpha : pt -> pt\n")
        assert parse_path(space, "alpha") == Gen("alpha")
        with pytest.raises(ParseError):
            parse_path(space, "α")

    def test_unknown_generator(self):
        with pytest.raises(ParseError):
            parse_path(CIRCLE, "zz")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_path(CIRCLE, "a a")

    def test_superscript_digits_are_not_integers(self):
        # str.isdigit accepts '²', which int() then rejects
        for text in ("a^²", "a^1²", "a^²1"):
            with pytest.raises(ParseError, match="unexpected character '²'"):
                parse_path(CIRCLE, text)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_path(CIRCLE, "(a * a")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_path(CIRCLE, "  ")

    def test_power_checked_against_the_node_limit(self):
        # each would be 1,000,001 nodes or more; none is built
        for text in ("a^500001", "(~a)^333334", "a^-333334", "(a * a)^333334"):
            with pytest.raises(ParseError, match="the limit is 1,000,000"):
                parse_path(CIRCLE, text)

    def test_whitespace_insensitive(self):
        assert parse_path(TORUS, "a*b") == parse_path(TORUS, "  a  *  b  ")


class TestDeepNesting:
    # ten times the default recursion limit; each level is one loop turn
    DEPTH = 10_000

    def test_nested_inverses(self):
        want = Gen("a")
        for _ in range(self.DEPTH):
            want = Symm(want)
        assert parse_path(CIRCLE, "~" * self.DEPTH + "a") == want

    def test_nested_parentheses(self):
        n = self.DEPTH
        assert parse_path(CIRCLE, "(" * n + "a" + ")" * n) == Gen("a")
        # every level holds a left operand and a `~` until its `)`
        want = Gen("a")
        for _ in range(n):
            want = Trans(Gen("a"), Symm(want))
        assert parse_path(CIRCLE, "a * ~(" * n + "a" + ")" * n) == want

    def test_deep_render_parse_round_trip(self):
        # nested on both legs and under inverses, so the text nests
        # parentheses as deep as the term
        term = Gen("a")
        i = 0
        while term._size < 100_000:
            if i % 3 == 0:
                term = Trans(Gen("b"), term)
            elif i % 3 == 1:
                term = Symm(term)
            else:
                term = Trans(term, Gen("a"))
            i += 1
        text = render_path(TORUS, term)
        assert text.count("(") > 30_000
        assert parse_path(TORUS, text) == term


class TestRendering:
    def test_simple_forms(self):
        assert render_path(CIRCLE, Gen("a")) == "a"
        assert render_path(CIRCLE, Symm(Gen("a"))) == "~a"
        assert render_path(CIRCLE, Refl("pt")) == "refl"
        assert render_path(CYL, Refl("b1")) == "refl(b1)"

    def test_inverse_of_composition_parenthesized(self):
        p = Symm(Trans(Gen("a"), Gen("b")))
        assert render_path(TORUS, p) == "~(a * b)"

    def test_right_nested_composition_parenthesized(self):
        p = Trans(Gen("a"), Trans(Gen("b"), Gen("a")))
        assert render_path(TORUS, p) == "a * (b * a)"

    def test_rp2_renders_greek(self):
        assert render_path(RP2, Gen("alpha")) == "α"

    def test_word_rendering(self):
        from pathrw import Word

        w = Word((("a", 1), ("b", -1)), "pt", "pt")
        assert render_word(TORUS, w) == "a * ~b"
        assert render_word(TORUS, Word((), "pt", "pt")) == "refl"
        assert render_word(CYL, Word((), "b1", "b1")) == "refl(b1)"

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["circle", "cylinder", "mobius", "torus", "klein", "rp2"]),
        seed=st.integers(0, 10**6),
        n=st.integers(1, 15),
    )
    def test_render_parse_round_trip(self, name, seed, n):
        space = builtin(name)
        term = random_term(space, n, Lcg(seed))
        assert parse_path(space, render_path(space, term)) == term

    def test_rendered_word_reparses_to_same_word(self):
        rng = Lcg(11)
        for _ in range(40):
            term = random_term(TORUS, 1 + rng.randint(12), rng)
            w = free_normalize(TORUS, term)
            back = parse_path(TORUS, render_word(TORUS, w))
            assert free_normalize(TORUS, back) == w
