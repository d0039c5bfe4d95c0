"""The benchmark's own model of the six builtin spaces, independent of pathrw.

Everything here is plain Python with no pathrw import: the space tables,
a group evaluator that gives the expected answer of every equality and
encode question, a small term model with its own reduction rules (for the
oracle's proof pairs), and the seeded generators of words, expression texts
and terms. pathrw only ever sees what these generators produce.

Expected answers come from the group each space presents:

    circle, mobius   winding sum of a
    cylinder         endpoints plus the retraction s -> 0, l0 -> 1, l1 -> 1
    torus            exponent pair (sum of a, sum of b)
    klein            twisted pair: a^m b^n with b^n a = a b^-n
    rp2              parity of the letter count
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Letter = tuple[str, int]


@dataclass(frozen=True)
class Space:
    name: str
    points: tuple[str, ...]
    gens: dict  # name -> (src, tgt)
    base: str
    group: str  # "Z", "ZxZ", "ZsdZ" or "Z2"
    # letter sequences equal in the space, used by the equal-pair edits;
    # each pair is applied in both directions
    swaps: tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...] = ()
    # relations as (lhs, rhs) terms, for the term model's relation steps
    relations: tuple = ()
    moves: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        moves: dict = {p: [] for p in self.points}
        for name, (src, tgt) in self.gens.items():
            moves[src].append((name, 1, tgt))
            moves[tgt].append((name, -1, src))
        object.__setattr__(self, "moves", moves)

    def is_loop_gen(self, name: str) -> bool:
        src, tgt = self.gens[name]
        return src == tgt


def _g(name):
    return ("g", name)


def _s(t):
    return ("s", t)


def _t(a, b):
    return ("t", a, b)


SPACES = {
    "circle": Space("circle", ("pt",), {"a": ("pt", "pt")}, "pt", "Z"),
    "cylinder": Space(
        "cylinder",
        ("b0", "b1"),
        {"s": ("b0", "b1"), "l0": ("b0", "b0"), "l1": ("b1", "b1")},
        "b0",
        "Z",
        swaps=(
            ((("s", 1), ("l1", 1)), (("l0", 1), ("s", 1))),
            ((("s", 1), ("l1", -1)), (("l0", -1), ("s", 1))),
            ((("l1", 1), ("s", -1)), (("s", -1), ("l0", 1))),
            ((("l1", -1), ("s", -1)), (("s", -1), ("l0", -1))),
        ),
        relations=((_t(_g("s"), _g("l1")), _t(_g("l0"), _g("s"))),),
    ),
    "mobius": Space("mobius", ("pt",), {"a": ("pt", "pt")}, "pt", "Z"),
    "torus": Space(
        "torus",
        ("pt",),
        {"a": ("pt", "pt"), "b": ("pt", "pt")},
        "pt",
        "ZxZ",
        swaps=tuple(
            ((("a", i), ("b", j)), (("b", j), ("a", i)))
            for i in (1, -1)
            for j in (1, -1)
        ),
        relations=((_t(_g("a"), _g("b")), _t(_g("b"), _g("a"))),),
    ),
    "klein": Space(
        "klein",
        ("pt",),
        {"a": ("pt", "pt"), "b": ("pt", "pt")},
        "pt",
        "ZsdZ",
        swaps=(
            ((("a", 1), ("b", 1), ("a", -1)), (("b", -1),)),
            ((("a", 1), ("b", -1), ("a", -1)), (("b", 1),)),
        ),
        relations=((_t(_t(_g("a"), _g("b")), _s(_g("a"))), _s(_g("b"))),),
    ),
    "rp2": Space(
        "rp2",
        ("pt",),
        {"alpha": ("pt", "pt")},
        "pt",
        "Z2",
        swaps=(
            ((("alpha", 1), ("alpha", 1)), ()),
            ((("alpha", -1), ("alpha", -1)), ()),
            ((("alpha", 1),), (("alpha", -1),)),
        ),
        relations=((_t(_g("alpha"), _g("alpha")), ("r", "pt")),),
    ),
}

ORDER = ("circle", "cylinder", "mobius", "torus", "klein", "rp2")

# the retraction the cylinder's answers are computed through
_WEIGHTS = {"a": 1, "s": 0, "l0": 1, "l1": 1}


# ---------------------------------------------------------------------------
# the group evaluator


def group_value(space: Space, letters) -> tuple[int, int]:
    """The group element of a letter sequence, as the pair (m, n) that
    pathrw's GroupValue reports (n is 0 for the one-component groups)."""
    if space.group == "Z":
        return (sum(_WEIGHTS[name] * sign for name, sign in letters), 0)
    if space.group == "ZxZ":
        m = sum(sign for name, sign in letters if name == "a")
        n = sum(sign for name, sign in letters if name == "b")
        return (m, n)
    if space.group == "ZsdZ":
        # right-multiply by each letter: (m, n)(m2, n2) = (m + m2, (-1)^m2 n + n2)
        m = n = 0
        for name, sign in letters:
            if name == "a":
                m, n = m + sign, -n
            else:
                n += sign
        return (m, n)
    return (len(letters) % 2, 0)


def walk(space: Space, letters, src: str) -> str:
    """The end point of a letter sequence started at src."""
    cur = src
    for name, sign in letters:
        a, b = space.gens[name]
        if sign < 0:
            a, b = b, a
        if cur != a:
            raise ValueError(f"letter {name}^{sign} does not start at {cur}")
        cur = b
    return cur


def path_value(space: Space, letters, src: str) -> tuple:
    """What decides equality of paths: endpoints and group value."""
    return (src, walk(space, letters, src), group_value(space, letters))


# ---------------------------------------------------------------------------
# words and their text


GOLDEN = (math.sqrt(5) - 1) / 2


def log_uniform(state: dict, rng, k: int, lo: int, hi: int) -> int:
    """The k-th size of a stream, log-uniform on [lo, hi].

    The quantiles follow a golden-ratio sequence from a seeded offset, so
    every stretch of a run covers the range evenly and two seeds differ in
    their words, not in how many long ones they drew."""
    offset = state.setdefault("size_offset", rng.random())
    u = (offset + k * GOLDEN) % 1.0
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def random_word(space: Space, rng, n: int, src: str) -> list[Letter]:
    letters = []
    cur = src
    for _ in range(n):
        name, sign, cur = rng.choice(space.moves[cur])
        letters.append((name, sign))
    return letters


def points_along(space: Space, letters, src: str) -> list[str]:
    pts = [src]
    for letter in letters:
        pts.append(walk(space, (letter,), pts[-1]))
    return pts


def insert_cancel_pair(space: Space, rng, letters, src: str) -> list[Letter]:
    i = rng.randrange(len(letters) + 1)
    point = points_along(space, letters, src)[i]
    name, sign, _ = rng.choice(space.moves[point])
    return letters[:i] + [(name, sign), (name, -sign)] + letters[i:]


def swap_relation_side(space: Space, rng, letters, src: str) -> list[Letter]:
    """Replace one occurrence of a relation side by the other side; where no
    side occurs, insert a cancelling pair instead."""
    sites = []
    for left, right in space.swaps:
        for old, new in ((left, right), (right, left)):
            k = len(old)
            if k == 0:
                continue
            for i in range(len(letters) - k + 1):
                if tuple(letters[i : i + k]) == old:
                    sites.append((i, k, new))
    empty_sides = [
        new for left, right in space.swaps
        for old, new in ((left, right), (right, left)) if not old
    ]
    if empty_sides and (not sites or rng.random() < 0.25):
        i = rng.randrange(len(letters) + 1)
        return letters[:i] + list(rng.choice(empty_sides)) + letters[i:]
    if not sites:
        return insert_cancel_pair(space, rng, letters, src)
    i, k, new = rng.choice(sites)
    return letters[:i] + list(new) + letters[i + k :]


def insert_nontrivial_loop(space: Space, rng, letters, src: str) -> list[Letter]:
    i = rng.randrange(len(letters) + 1)
    point = points_along(space, letters, src)[i]
    while True:
        loop = random_word(space, rng, 1 + rng.randrange(4), point)
        if walk(space, loop, point) == point and group_value(space, loop) != (0, 0):
            return letters[:i] + loop + letters[i:]


def equal_edit(space: Space, rng, letters, src: str) -> list[Letter]:
    """One to three edits the space's relations allow."""
    for _ in range(1 + rng.randrange(3)):
        if rng.random() < 0.5:
            letters = insert_cancel_pair(space, rng, letters, src)
        else:
            letters = swap_relation_side(space, rng, letters, src)
    return letters


def _lit(name: str, sign: int) -> str:
    return name if sign > 0 else "~" + name


def render_letters(space: Space, letters, rng) -> str:
    """A flat product written with ~, small powers and parenthesised inverse
    groups; the grouping is drawn from rng, so one word has many texts."""
    if not letters:
        # only rp2's swaps shorten a word, and rp2 has a single point
        return "refl"
    chunks = []
    i = 0
    n = len(letters)
    while i < n:
        if i + 1 < n and rng.random() < 0.12:
            k = min(n - i, 2 + rng.randrange(5))
            inner = [_lit(name, -sign) for name, sign in reversed(letters[i : i + k])]
            chunks.append("~(" + " * ".join(inner) + ")")
            i += k
            continue
        name, sign = letters[i]
        run = 1
        while i + run < n and run < 5 and letters[i + run] == (name, sign):
            run += 1
        if run >= 2 and space.is_loop_gen(name) and rng.random() < 0.7:
            k = 2 + rng.randrange(run - 1)
            chunks.append(f"{name}^{k}" if sign > 0 else f"{name}^-{k}")
            i += k
            continue
        chunks.append(_lit(name, sign))
        i += 1
    return " * ".join(chunks)


def random_start(space: Space, rng) -> str:
    return space.points[rng.randrange(len(space.points))]


def base_loop(space: Space, rng, n: int) -> list[Letter]:
    """A loop at the basepoint of about n letters."""
    letters = random_word(space, rng, n, space.base)
    end = walk(space, letters, space.base)
    if end != space.base:
        # only the cylinder has a second point; step back along s
        letters.append(("s", -1))
    return letters


# ---------------------------------------------------------------------------
# the term model: ("r", point) | ("g", name) | ("s", t) | ("t", a, b)


def term_size(t) -> int:
    if t[0] == "s":
        return 1 + term_size(t[1])
    if t[0] == "t":
        return 1 + term_size(t[1]) + term_size(t[2])
    return 1


def term_endpoints(space: Space, t) -> tuple[str, str]:
    k = t[0]
    if k == "r":
        return (t[1], t[1])
    if k == "g":
        return space.gens[t[1]]
    if k == "s":
        src, tgt = term_endpoints(space, t[1])
        return (tgt, src)
    return (term_endpoints(space, t[1])[0], term_endpoints(space, t[2])[1])


def term_letters(t) -> list[Letter]:
    out = []
    stack = [(t, False)]
    while stack:
        t, flip = stack.pop()
        k = t[0]
        if k == "g":
            out.append((t[1], -1 if flip else 1))
        elif k == "s":
            stack.append((t[1], not flip))
        elif k == "t":
            if flip:
                stack.append((t[1], True))
                stack.append((t[2], True))
            else:
                stack.append((t[2], False))
                stack.append((t[1], False))
    return out


def term_value(space: Space, t) -> tuple:
    src, tgt = term_endpoints(space, t)
    return (src, tgt, group_value(space, term_letters(t)))


def render_term(space: Space, t) -> str:
    k = t[0]
    if k == "r":
        return "refl" if len(space.points) == 1 else f"refl({t[1]})"
    if k == "g":
        return t[1]
    if k == "s":
        inner = render_term(space, t[1])
        return f"~({inner})" if t[1][0] == "t" else "~" + inner
    right = render_term(space, t[2])
    if t[2][0] == "t":
        right = f"({right})"
    return f"{render_term(space, t[1])} * {right}"


def _local_reducts(space: Space, t) -> list:
    """Results of the reduction rules at the root of t (the groupoid rules
    and both directions of each relation, matched exactly)."""
    out = []
    k = t[0]
    if k == "t":
        a, b = t[1], t[2]
        if a[0] == "r":
            out.append(b)
        if b[0] == "r":
            out.append(a)
        if a[0] == "s" and a[1] == b:
            out.append(("r", term_endpoints(space, b)[1]))
        if b[0] == "s" and b[1] == a:
            out.append(("r", term_endpoints(space, a)[0]))
        if a[0] == "t":
            out.append(("t", a[1], ("t", a[2], b)))
        if b[0] == "t":
            out.append(("t", ("t", a, b[1]), b[2]))
    elif k == "s":
        inner = t[1]
        if inner[0] == "r":
            out.append(inner)
        elif inner[0] == "s":
            out.append(inner[1])
        elif inner[0] == "t":
            out.append(("t", ("s", inner[2]), ("s", inner[1])))
    for lhs, rhs in space.relations:
        if t == lhs:
            out.append(rhs)
        if t == rhs:
            out.append(lhs)
    return out


def reducts(space: Space, t) -> list:
    """Every term one reduction step away from t, at any position."""
    out = list(_local_reducts(space, t))
    if t[0] == "s":
        out.extend(("s", x) for x in reducts(space, t[1]))
    elif t[0] == "t":
        out.extend(("t", x, t[2]) for x in reducts(space, t[1]))
        out.extend(("t", t[1], x) for x in reducts(space, t[2]))
    return out


class TermSampler:
    """Uniform draws of terms of a given size and endpoints, by counting."""

    def __init__(self, space: Space):
        self.space = space
        self._counts: dict = {}

    def leaves(self, src: str, tgt: str) -> list:
        out = [("r", src)] if src == tgt else []
        for name, ends in self.space.gens.items():
            if ends == (src, tgt):
                out.append(("g", name))
        return out

    def count(self, n: int, src: str, tgt: str) -> int:
        key = (n, src, tgt)
        c = self._counts.get(key)
        if c is None:
            if n <= 0:
                c = 0
            elif n == 1:
                c = len(self.leaves(src, tgt))
            else:
                c = self.count(n - 1, tgt, src)
                for k in range(1, n - 1):
                    for mid in self.space.points:
                        c += self.count(k, src, mid) * self.count(n - 1 - k, mid, tgt)
            self._counts[key] = c
        return c

    def draw(self, rng, n: int, src: str, tgt: str):
        return self._nth(rng.randrange(self.count(n, src, tgt)), n, src, tgt)

    def _nth(self, r: int, n: int, src: str, tgt: str):
        if n == 1:
            return self.leaves(src, tgt)[r]
        c = self.count(n - 1, tgt, src)
        if r < c:
            return ("s", self._nth(r, n - 1, tgt, src))
        r -= c
        for k in range(1, n - 1):
            for mid in self.space.points:
                right = self.count(n - 1 - k, mid, tgt)
                c = self.count(k, src, mid) * right
                if r < c:
                    return (
                        "t",
                        self._nth(r // right, k, src, mid),
                        self._nth(r % right, n - 1 - k, mid, tgt),
                    )
                r -= c
        raise IndexError(r)

    def draw_up_to(self, rng, depth: int, src: str, tgt: str):
        """Uniform over every term of 1..depth nodes: the gate's term pool."""
        total = sum(self.count(n, src, tgt) for n in range(1, depth + 1))
        r = rng.randrange(total)
        for n in range(1, depth + 1):
            c = self.count(n, src, tgt)
            if r < c:
                return self._nth(r, n, src, tgt)
            r -= c
        raise IndexError(r)

    def feasible_size(self, n: int, src: str, tgt: str, limit: int) -> int | None:
        """n, or the next size up to limit that has a term; None if none."""
        for m in range(n, limit + 1):
            if self.count(m, src, tgt):
                return m
        return None
