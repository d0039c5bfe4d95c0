"""Self-check suites over a space: normalization, algebra, oracle agreement.

These are the same kinds of properties the test suite pins down, packaged
so they can run from the command line against any space, including ones
loaded from files, with adjustable effort.

A suite draws one sample from the generator it is given and returns the
sample's terms with what broke, or None. One driver runs every suite: it
owns the generator and the loop, and a failure names the seed, the sample
index, what broke and each sample term in the grammar's text form.
"""

from __future__ import annotations

from functools import partial

from .errors import UnreachableEndpointsError
from .groupoid import class_of, comp, identity, inv, zpow_class
from .oracle import Budget, Lcg, bfs_rw_eq, local_confluence_probe, random_term
from .pi1 import decode, encode, group_mul, homomorphism_check
from .rewrite import (
    free_normalize, normal_forms_decide, normalize, replay, rw_eq, term_of_word, trace,
)
from .spaces import SpacePresentation, _builtin_record
from .syntax import render_path
from .terms import Symm, Trans, _Record, endpoints


class CheckResult(_Record):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self._fill(name, passed, detail)


def _sizes(rng: Lcg, max_size: int) -> int:
    return 1 + rng.randint(max_size)


def _pinned_term(space, n, rng, src=None, tgt=None):
    """random_term with optionally pinned endpoints, nudging the size up
    past the few small values no term of those endpoints can have."""
    for bump in range(4):
        try:
            return random_term(space, n + bump, rng, src, tgt)
        except UnreachableEndpointsError:
            continue
    raise UnreachableEndpointsError(f"no term near size {n} from {src} to {tgt}")


def _normalize_idempotent(space, rng, max_size):
    t = random_term(space, _sizes(rng, max_size), rng)
    nf = normalize(space, t)
    if normalize(space, term_of_word(nf.word)) != nf:
        return (t,), "re-normalized differently"
    return (t,), None


def _inverse_involution(space, rng, max_size):
    t = random_term(space, _sizes(rng, max_size), rng)
    if normalize(space, Symm(Symm(t))) != normalize(space, t):
        return (t,), "~~t normalized differently"
    return (t,), None


def _trace_replay(space, rng, max_size):
    t = random_term(space, _sizes(rng, max_size), rng)
    nf, steps = trace(space, t)
    if nf != normalize(space, t):
        return (t,), "trace and normalize disagree"
    if free_normalize(space, replay(space, t, steps)).letters != nf.word.letters:
        return (t,), "replay missed the normal form"
    return (t,), None


def _group_round_trip(space, rng, max_size):
    base = space.basepoint
    t = random_term(space, _sizes(rng, max_size), rng, base, base)
    value = encode(space, t)
    back = decode(space, value)
    if back != class_of(space, t):
        return (t,), "decode(encode) moved the class"
    if encode(space, back.representative()) != value:
        return (t,), "encode(decode) moved the value"
    return (t,), None


def _homomorphism(space, rng, max_size):
    base = space.basepoint
    p = random_term(space, _sizes(rng, max_size), rng, base, base)
    q = random_term(space, _sizes(rng, max_size), rng, base, base)
    if not homomorphism_check(space, p, q):
        return (p, q), "composition broke multiplication"
    via_classes = encode(
        space, Trans(class_of(space, p).representative(),
                     class_of(space, q).representative())
    )
    if via_classes != group_mul(encode(space, p), encode(space, q)):
        return (p, q), "class composition disagreed"
    return (p, q), None


def _groupoid_laws(space, rng, max_size):
    x = rng.choice(tuple(space.points))
    t1 = random_term(space, _sizes(rng, max_size), rng, src=x)
    y = endpoints(space, t1)[1]
    t2 = random_term(space, _sizes(rng, max_size), rng, src=y)
    z = endpoints(space, t2)[1]
    t3 = random_term(space, _sizes(rng, max_size), rng, src=z)
    terms = (t1, t2, t3)
    c1, c2, c3 = (class_of(space, t) for t in terms)
    if comp(comp(c1, c2), c3) != comp(c1, comp(c2, c3)):
        return terms, "associativity"
    if comp(identity(space, x), c1) != c1 or comp(c1, identity(space, y)) != c1:
        return terms, "identity"
    if comp(c1, inv(c1)) != identity(space, x):
        return terms, "right inverse"
    if comp(inv(c1), c1) != identity(space, y):
        return terms, "left inverse"
    if x == y:
        if zpow_class(c1, 3) != comp(c1, comp(c1, c1)):
            return terms, "power law"
        if zpow_class(c1, -1) != inv(c1):
            return terms, "negative power"
    return terms, None


def _local_confluence(space, rng, max_size):
    t = random_term(space, _sizes(rng, max_size), rng)
    if not local_confluence_probe(space, t):
        return (t,), "diverging one-step reducts"
    return (t,), None


def _oracle_agreement(space, rng, max_size, budget):
    small = max(3, min(max_size, 6))
    p = random_term(space, _sizes(rng, small), rng)
    src, tgt = endpoints(space, p)
    q = _pinned_term(space, 1 + rng.randint(small), rng, src, tgt)
    fast = rw_eq(space, p, q)
    verdict = bfs_rw_eq(space, p, q, budget)
    if not verdict.is_decided:
        return (p, q), "undecided"
    # Where normal forms ignore the space's relations, the search may prove
    # equal pairs the fast path cannot; only the fast path's positive
    # answers are binding there.
    if verdict.is_equal != fast and (fast or normal_forms_decide(space)):
        return (p, q), f"normalize said {fast}, search said {verdict.kind}"
    return (p, q), None


def _drive(space, seed, offset, name, suite, samples, max_size) -> CheckResult:
    """Run one suite on a generator seeded with seed + offset; the first
    broken sample fails it. The oracle suite may leave samples undecided and
    reports how many it decided."""
    rng = Lcg(seed + offset)
    decided = 0
    for i in range(samples):
        terms, broke = suite(space, rng, max_size)
        if broke == "undecided":
            continue
        decided += 1
        if broke is not None:
            shown = " | ".join(render_path(space, t) for t in terms)
            return CheckResult(
                name, False, f"--seed {seed}, sample {i}: {broke}: {shown}"
            )
    if decided == 0:
        return CheckResult(name, False, f"0/{samples} decided")
    if name == "oracle-agreement":
        return CheckResult(name, True, f"{decided}/{samples} decided, all agree")
    return CheckResult(name, True, f"{samples} samples")


# name, seed offset and suite, in report order
_SUITES = (
    ("normalize-idempotent", 1, _normalize_idempotent),
    ("inverse-involution", 2, _inverse_involution),
    ("trace-replay", 3, _trace_replay),
    ("group-round-trip", 7, _group_round_trip),
    ("homomorphism", 8, _homomorphism),
    ("groupoid-laws", 4, _groupoid_laws),
    ("local-confluence", 5, _local_confluence),
)
# encode and decode need a builtin record
_GROUP_SUITES = {"group-round-trip", "homomorphism"}


def run_checks(
    space: SpacePresentation,
    seed: int = 0,
    samples: int = 50,
    max_size: int = 12,
    budget: Budget | None = None,
) -> list[CheckResult]:
    """Run every suite that applies to the space. Deterministic in seed."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    if budget is None:
        budget = Budget(max_states=20_000)
    results = [
        _drive(space, seed, offset, name, suite, samples, max_size)
        for name, offset, suite in _SUITES
        if _builtin_record(space) is not None or name not in _GROUP_SUITES
    ]
    results.append(
        _drive(space, seed, 6, "oracle-agreement",
               partial(_oracle_agreement, budget=budget),
               max(10, samples // 5), max_size)
    )
    return results
