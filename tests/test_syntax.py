import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from pathrw import (
    BUILTIN_NAMES,
    Generator,
    Gen,
    Lcg,
    ParseError,
    Refl,
    SpacePresentation,
    Symm,
    Trans,
    builtin,
    free_normalize,
    parse_path,
    parse_space_text,
    random_term,
    render_path,
    render_word,
    size,
    validate,
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

    def test_long_exponents_are_read_by_their_length(self):
        # past the 4,300 digits int() converts by default: leading zeros
        # are dropped first, and an exponent still that long is refused
        assert parse_path(CIRCLE, "a^" + "0" * 4999 + "3") == zpow(CIRCLE, Gen("a"), 3)
        assert parse_path(CIRCLE, "a^-" + "0" * 4999 + "2") == parse_path(CIRCLE, "a^-2")
        assert parse_path(CIRCLE, "a^" + "0" * 5000) == Refl("pt")
        # any decimal zero leads, as int() reads any decimal digit
        assert parse_path(CIRCLE, "a^" + "٠" * 4999 + "٣") == zpow(CIRCLE, Gen("a"), 3)
        for text in ("a^" + "9" * 5000, "a^-" + "9" * 5000, "a^" + "1" * 101):
            with pytest.raises(
                ParseError, match=r"term too large: a number of [\d,]+ digits"
            ):
                parse_path(CIRCLE, text)
        # up to 100 digits the exact node count is named
        nodes = 2 * int("1" * 100) - 1
        with pytest.raises(ParseError, match=f"term too large: {nodes:,} nodes"):
            parse_path(CIRCLE, "a^" + "1" * 100)

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


# A space loaded from text, with two points and names holding digits and
# underscores, next to the six builtins.
_FILE_SPACE = parse_space_text(
    "point p\npoint q_1\ngen f : p -> q_1\ngen g2 : q_1 -> p\ngen h_ : p -> p\n"
    "rel r : f * g2 = h_\n",
    "filespace",
)
_CORPUS_SPACES = [builtin(name) for name in BUILTIN_NAMES] + [_FILE_SPACE]

_NAMES = [
    "a", "b", "s", "l0", "l1", "alpha", "α", "f", "g2", "h_", "q_1", "p",
    "pt", "b0", "b1", "_", "x9", "zz", "refl", "aα", "a²", "A",
]
_MISC = [
    "~", "*", "^", "(", ")", "-", " ", "  ", "\t", "\u3000", "", "²", "!",
    "refl(pt)", "refl(b0)", "refl(b1)", "refl(p)", "refl(zz)", "refl (q_1)",
]
_EXPONENTS = ["0", "1", "2", "3", "-1", "-2", "-3", "007", "-04", "12", "٣"]
# powers at or just past the node limit for a word of one or two letters;
# drawn rarely, as a power within the limit builds up to a million nodes
_NEAR_LIMIT = [
    "500000", "500001", "333334", "-333334", "250001", "999999", "1000000",
    "1000001",
]
# the leaves of derived texts: each text draws from one space's names, or
# from a mix of all of them
_LEAF_POOLS = [
    ["a", "a", "b", "alpha", "α", "refl", "refl(pt)"],
    ["s", "l0", "l1", "refl(b0)", "refl(b1)"],
    ["f", "g2", "h_", "refl(p)", "refl(q_1)"],
    ["a", "b", "alpha", "s", "l0", "f", "h_", "zz", "refl", "refl(b0)", "refl(p)"],
]
_GAPS = ["", " ", " ", "\t", "\u3000"]


def _exponent(rng):
    if rng.randint(400) == 0:
        return rng.choice(_NEAR_LIMIT)
    return rng.choice(_EXPONENTS)


def _soup(rng):
    """A text of up to 12 pieces drawn from every piece list."""
    pieces = []
    for _ in range(1 + rng.randint(12)):
        pool = rng.randint(4)
        if pool == 0:
            pieces.append(rng.choice(_NAMES))
        elif pool == 1:
            pieces.append(_exponent(rng))
        else:
            pieces.append(rng.choice(_MISC))
    return "".join(pieces)


def _expr(rng, leaves, depth=0):
    """A text the grammar derives from the given leaves."""
    roll = rng.randint(10)
    gap = rng.choice(_GAPS)
    if depth > 3 or roll < 4:
        return rng.choice(leaves)
    if roll < 6:
        first, second = _expr(rng, leaves, depth + 1), _expr(rng, leaves, depth + 1)
        return first + gap + "*" + gap + second
    if roll < 8:
        return "~" + gap + _expr(rng, leaves, depth + 1)
    if roll < 9:
        return "(" + _expr(rng, leaves, depth + 1) + ")"
    return _expr(rng, leaves, depth + 1) + "^" + gap + _exponent(rng)


def _mutate(rng, text):
    """Drop a character, insert a piece, or swap two neighbours."""
    if not text:
        return text
    i = rng.randint(len(text))
    roll = rng.randint(3)
    if roll == 0:
        return text[:i] + text[i + 1 :]
    if roll == 1:
        return text[:i] + rng.choice(_MISC + _NAMES) + text[i:]
    j = min(i + 1, len(text) - 1)
    return text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]


def _corpus(n):
    rng = Lcg(1729)
    texts = []
    for i in range(n):
        if i % 2:
            texts.append(_soup(rng))
        else:
            text = _expr(rng, rng.choice(_LEAF_POOLS))
            for _ in range(rng.randint(3)):
                text = _mutate(rng, text)
            texts.append(text)
    return texts


def _outcome(space, text):
    """Whether the text parses, and the line that pins the outcome."""
    try:
        term = parse_path(space, text)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return True, f"{render_path(space, term)}|{size(term)}"


class TestPinnedParses:
    """The parser's outcome on a seeded corpus: the rendered term and its
    size, or the error class and message. Written against the
    method-per-rule parser, so a rewrite of the parser must keep every
    outcome."""

    CORPUS = 50_000

    def test_outcomes_are_pinned(self):
        digest = hashlib.sha256()
        accepted = 0
        for text in _corpus(self.CORPUS):
            for space in _CORPUS_SPACES:
                ok, got = _outcome(space, text)
                accepted += ok
                digest.update(f"{space.name}|{text!r}|{got}\n".encode())
        assert accepted == 15877
        assert digest.hexdigest() == (
            "9c9152c8d323af5ce4e4fe5941d355a3a7dd38855859b89c734daf4bf5684c8a"
        )

    def test_validate_decisions_are_pinned(self):
        # validate reads a name through the tokenizer: whether each text and
        # each of its pieces is one name token of the grammar
        names = set()
        for text in _corpus(self.CORPUS):
            names.add(text)
            names.update(text.split())
        digest = hashlib.sha256()
        bad = 0
        for name in sorted(names):
            space = SpacePresentation(
                "v", ("pt",), (Generator(name, "pt", "pt"),), (), "pt"
            )
            found = [v for v in validate(space) if v.startswith("BadName")]
            bad += bool(found)
            digest.update(f"{name!r}|{';'.join(found)}\n".encode())
        assert (len(names), bad) == (57814, 55783)
        assert digest.hexdigest() == (
            "497af98adc548a64378cf230923bf8ba4d29938afa46570ba1feef309a64e463"
        )
