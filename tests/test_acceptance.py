"""Acceptance gate: the end-to-end guarantees this package ships under.

Every test here prints exactly one summary line, PASS or FAIL, with the
work done and the elapsed time against that guarantee's runtime budget.
Run with -s to watch the lines stream; budgets are asserted, so an
overrun fails the gate even when the math checks out.
"""

import time

from pathrw.checks import _pinned_term
from pathrw.groupoid import class_of, comp, identity, inv
from pathrw.oracle import (
    Budget,
    Lcg,
    bfs_rw_eq,
    enumerate_loops,
    enumerate_terms,
)
from pathrw.pi1 import GroupValue, decode, encode, group_mul
from pathrw.rewrite import (
    apply_step,
    free_normalize,
    normalize,
    redexes,
    replay,
    rw_eq,
    trace,
)
from pathrw.spaces import BUILTIN_NAMES, GroupTag, builtin
from pathrw.syntax import parse_path
from pathrw.terms import Gen, Symm, Trans, endpoints, size, zpow

CIRCLE = builtin("circle")
CYL = builtin("cylinder")
MOBIUS = builtin("mobius")
TORUS = builtin("torus")
KLEIN = builtin("klein")
RP2 = builtin("rp2")
ALL_SPACES = tuple(builtin(n) for n in BUILTIN_NAMES)


def _finish(label: str, budget_s: float, t0: float, failures: list, detail: str):
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget_s
    print(
        f"{label}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s of {budget_s:.0f}s)"
    )
    assert not failures, f"{label}: {failures[:5]}"
    assert elapsed < budget_s, f"{label}: overran the {budget_s:.0f}s budget"


def _int_round_trips(space, failures):
    tag = space.group_tag
    for n in range(-50, 51):
        cls = decode(space, GroupValue(tag, n))
        back = encode(space, cls.representative())
        if back != GroupValue(tag, n):
            failures.append(f"{space.name}: decode({n}) re-encoded as {back}")


def _loop_round_trips(space, rng, count, max_size, failures):
    base = space.basepoint
    for i in range(count):
        x = _pinned_term(space, 1 + rng.randint(max_size), rng, base, base)
        if decode(space, encode(space, x)) != class_of(space, x):
            failures.append(f"{space.name}: loop sample {i} moved class")
            return


def test_circle_winding_isomorphism():
    t0 = time.monotonic()
    failures: list = []
    _int_round_trips(CIRCLE, failures)
    _loop_round_trips(CIRCLE, Lcg(101), 1000, 30, failures)
    _finish(
        "circle winding isomorphism", 10.0, t0, failures,
        "101 integers, 1000 loops of size <= 30",
    )


def test_cylinder_and_mobius_winding_isomorphism():
    t0 = time.monotonic()
    failures: list = []
    for space in (CYL, MOBIUS):
        _int_round_trips(space, failures)
        _loop_round_trips(space, Lcg(103), 1000, 30, failures)
    conj = Trans(Trans(Gen("s"), Gen("l1")), Symm(Gen("s")))
    one = GroupValue(GroupTag.FREE_Z, 1)
    if encode(CYL, conj) != one:
        failures.append("s * l1 * ~s does not wind once")
    if encode(CYL, Gen("l0")) != one:
        failures.append("l0 does not wind once")
    _finish(
        "cylinder and mobius winding isomorphism", 10.0, t0, failures,
        "2 spaces x (101 integers, 1000 loops); crossing conjugation winds once",
    )


def test_torus_pair_isomorphism():
    t0 = time.monotonic()
    failures: list = []
    tag = GroupTag.ZXZ
    for m in range(-20, 21):
        for n in range(-20, 21):
            v = GroupValue(tag, m, n)
            cls = decode(TORUS, v)
            if encode(TORUS, cls.representative()) != v:
                failures.append(f"grid ({m}, {n})")
    _loop_round_trips(TORUS, Lcg(107), 1000, 24, failures)
    rng = Lcg(109)
    a, b = Gen("a"), Gen("b")
    for i in range(200):
        x = _pinned_term(TORUS, 1 + rng.randint(16), rng, "pt", "pt")
        v = encode(TORUS, x)
        steps = [
            (a, GroupValue(tag, v.m + 1, v.n)),
            (b, GroupValue(tag, v.m, v.n + 1)),
            (Symm(a), GroupValue(tag, v.m - 1, v.n)),
            (Symm(b), GroupValue(tag, v.m, v.n - 1)),
        ]
        for step_term, expect in steps:
            if encode(TORUS, Trans(x, step_term)) != expect:
                failures.append(f"step law at sample {i}")
                break
    _finish(
        "torus pair isomorphism", 20.0, t0, failures,
        "41x41 grid, 1000 loops, 4 step laws x 200 samples",
    )


def test_klein_twisted_pair_isomorphism():
    t0 = time.monotonic()
    failures: list = []
    tag = GroupTag.Z_SEMIDIRECT_Z
    a, b = Gen("a"), Gen("b")
    for m in range(-10, 11):
        for n in range(-10, 11):
            lhs = class_of(KLEIN, Trans(zpow(KLEIN, b, n), zpow(KLEIN, a, m)))
            flipped = n if m % 2 == 0 else -n
            rhs = class_of(KLEIN, Trans(zpow(KLEIN, a, m), zpow(KLEIN, b, flipped)))
            if lhs != rhs:
                failures.append(f"exchange ({n}, {m})")
    rng = Lcg(113)
    for i in range(1000):
        x = _pinned_term(KLEIN, 1 + rng.randint(12), rng, "pt", "pt")
        y = _pinned_term(KLEIN, 1 + rng.randint(12), rng, "pt", "pt")
        if encode(KLEIN, Trans(x, y)) != group_mul(encode(KLEIN, x), encode(KLEIN, y)):
            failures.append(f"homomorphism pair {i}")
            break
    for m in range(-20, 21):
        for n in range(-20, 21):
            v = GroupValue(tag, m, n)
            if encode(KLEIN, decode(KLEIN, v).representative()) != v:
                failures.append(f"grid ({m}, {n})")
    _finish(
        "klein twisted-pair isomorphism", 30.0, t0, failures,
        "21x21 exchange grid, 1000 products, 41x41 round trips",
    )


def test_projective_plane_parity_isomorphism():
    t0 = time.monotonic()
    failures: list = []
    tag = GroupTag.Z2
    alpha = Gen("alpha")
    count = 0
    for loop in enumerate_loops(RP2, 10):
        count += 1
        letters = normalize(RP2, loop).word.letters
        if letters not in ((), (("alpha", 1),)):
            failures.append(f"loop {count} normalized to {letters}")
    for parity in (0, 1):
        v = GroupValue(tag, parity)
        if encode(RP2, decode(RP2, v).representative()) != v:
            failures.append(f"parity {parity} round trip")
    rng = Lcg(127)
    _loop_round_trips(RP2, rng, 200, 20, failures)
    if encode(RP2, Trans(alpha, alpha)) != GroupValue(tag, 0):
        failures.append("double loop is not trivial")
    _finish(
        "projective plane parity isomorphism", 10.0, t0, failures,
        f"{count} loop words exhausted to length 10, both parities",
    )


def test_strict_groupoid_laws():
    t0 = time.monotonic()
    failures: list = []
    for space in ALL_SPACES:
        rng = Lcg(131)
        points = tuple(space.points)
        for i in range(1000):
            x = rng.choice(points)
            t1 = _pinned_term(space, 1 + rng.randint(8), rng, src=x)
            y = endpoints(space, t1)[1]
            t2 = _pinned_term(space, 1 + rng.randint(8), rng, src=y)
            z = endpoints(space, t2)[1]
            t3 = _pinned_term(space, 1 + rng.randint(8), rng, src=z)
            c1, c2, c3 = (class_of(space, t) for t in (t1, t2, t3))
            if comp(comp(c1, c2), c3) != comp(c1, comp(c2, c3)):
                failures.append(f"{space.name} associativity at {i}")
                break
            if comp(identity(space, x), c1) != c1 or comp(c1, identity(space, y)) != c1:
                failures.append(f"{space.name} units at {i}")
                break
            if (
                comp(c1, inv(c1)) != identity(space, x)
                or comp(inv(c1), c1) != identity(space, y)
            ):
                failures.append(f"{space.name} inverses at {i}")
                break
    _finish(
        "strict groupoid laws", 20.0, t0, failures,
        "6 spaces x 1000 composable triples",
    )


def _term_pool(space, max_n, src, tgt):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_terms(space, n, src, tgt))
    return out


_ORACLE_SPACES = (
    # space name, enumeration depth, endpoint pairs to draw from
    ("circle", 8, (("pt", "pt"),)),
    ("rp2", 8, (("pt", "pt"),)),
    ("torus", 6, (("pt", "pt"),)),
    ("klein", 6, (("pt", "pt"),)),
    ("cylinder", 6, (("b0", "b0"), ("b0", "b1"), ("b1", "b1"), ("b1", "b0"))),
)

_CURATED_ORACLE_PAIRS = (
    ("circle", "a * ~a", "refl", True),
    ("circle", "a", "a * a", False),
    ("torus", "a * b", "b * a", True),
    ("torus", "a", "b", False),
    ("klein", "b * a", "a * ~b", True),
    ("klein", "b * ~a", "~a * ~b", True),
    ("klein", "~b * a", "a * b", True),
    ("klein", "~b * ~a", "~a * b", True),
    ("klein", "b * a", "a * b", False),
    ("rp2", "alpha * alpha", "refl", True),
    ("rp2", "alpha", "refl", False),
    ("cylinder", "s * l1 * ~s", "l0", True),
)


def test_normalizer_agrees_with_search_oracle():
    t0 = time.monotonic()
    failures: list = []
    pairs = decided = 0

    def judge(space, p, q, budget):
        nonlocal pairs, decided
        pairs += 1
        verdict = bfs_rw_eq(space, p, q, budget)
        if not verdict.is_decided:
            return None
        decided += 1
        fast = rw_eq(space, p, q)
        if verdict.is_equal != fast:
            failures.append(
                f"{space.name}: search said {verdict.kind}, "
                f"normal forms said {fast}"
            )
        return verdict.is_equal

    for name, depth, endpoint_pairs in _ORACLE_SPACES:
        space = builtin(name)
        # every unordered pair of tiny terms, settled outright
        wide = Budget(max_states=30_000)
        for src, tgt in endpoint_pairs:
            tiny = _term_pool(space, 3, src, tgt)
            for i in range(len(tiny)):
                for j in range(i, len(tiny)):
                    judge(space, tiny[i], tiny[j], wide)
        # derivation neighbors inside the stated enumeration depth
        rng = Lcg(137)
        made = 0
        while made < 60:
            p = _pinned_term(space, 1 + rng.randint(depth), rng)
            q = p
            for _ in range(1 + rng.randint(3)):
                steps = redexes(space, q)
                if not steps:
                    break
                q = apply_step(space, q, rng.choice(steps))
            if q == p or size(q) > depth:
                continue
            made += 1
            judge(space, p, q, wide)
        # independent draws at the sizes the search settles outright
        for _ in range(20):
            p = _pinned_term(space, 1 + rng.randint(4), rng)
            src, tgt = endpoints(space, p)
            q = _pinned_term(space, 1 + rng.randint(4), rng, src, tgt)
            judge(space, p, q, Budget(max_states=20_000))
        # full-depth draws; whatever the capped search settles must agree
        tight = Budget(max_states=4_000)
        pools = {st: _term_pool(space, depth, *st) for st in endpoint_pairs}
        for _ in range(10):
            st = endpoint_pairs[rng.randint(len(endpoint_pairs))]
            pool = pools[st]
            judge(space, pool[rng.randint(len(pool))], pool[rng.randint(len(pool))], tight)

    for name, left, right, expect_equal in _CURATED_ORACLE_PAIRS:
        space = builtin(name)
        got = judge(
            space, parse_path(space, left), parse_path(space, right),
            Budget(max_states=30_000),
        )
        if got is None or got != expect_equal:
            failures.append(f"{name}: {left} vs {right} gave {got}")

    if decided < 900:
        failures.append(f"only {decided} pairs decided; the run proves too little")
    _finish(
        "normalizer vs search oracle", 300.0, t0, failures,
        f"{pairs} pairs, {decided} decided, 0 disagreements" if not failures
        else f"{pairs} pairs, {decided} decided",
    )


def test_local_confluence_probe():
    t0 = time.monotonic()
    failures: list = []
    for space in ALL_SPACES:
        rng = Lcg(139)
        for i in range(2000):
            p = _pinned_term(space, 1 + rng.randint(12), rng)
            target = normalize(space, p)
            for step in redexes(space, p):
                if normalize(space, apply_step(space, p, step)) != target:
                    failures.append(f"{space.name} sample {i}: {step.rule}")
                    break
            if failures:
                break
    _finish(
        "local confluence probe", 120.0, t0, failures,
        "6 spaces x 2000 terms, every one-step reduct rejoins",
    )


def test_trace_replay():
    t0 = time.monotonic()
    failures: list = []
    for space in ALL_SPACES:
        rng = Lcg(149)
        for i in range(500):
            p = _pinned_term(space, 1 + rng.randint(14), rng)
            nf, steps = trace(space, p)
            if nf != normalize(space, p):
                failures.append(f"{space.name} sample {i}: trace went elsewhere")
                break
            if free_normalize(space, replay(space, p, steps)) != nf.word:
                failures.append(f"{space.name} sample {i}: replay missed")
                break
    _finish(
        "trace replay", 120.0, t0, failures,
        "6 spaces x 500 terms, step lists replayed to the normal form",
    )
