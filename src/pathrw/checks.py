"""Self-check suites over a space: normalization, algebra, oracle agreement.

These are the same kinds of properties the test suite pins down, packaged
so they can run from the command line against any space, including ones
loaded from files, with adjustable effort.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnreachableEndpointsError
from .groupoid import class_of, comp, identity, inv, zpow_class
from .oracle import (
    Budget,
    Lcg,
    bfs_rw_eq,
    local_confluence_probe,
    random_term,
)
from .pi1 import decode, encode, group_mul, homomorphism_check
from .rewrite import apply_step, free_normalize, normalize, rw_eq, term_of_word, trace
from .spaces import SpacePresentation
from .terms import Symm, Trans, endpoints


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def _check_normalize_idempotent(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    rng = Lcg(seed)
    for i in range(samples):
        t = random_term(space, _sizes(rng, max_size), rng)
        nf = normalize(space, t)
        again = normalize(space, term_of_word(nf.word))
        if again != nf:
            return CheckResult(
                "normalize-idempotent", False, f"sample {i} re-normalized differently"
            )
    return CheckResult("normalize-idempotent", True, f"{samples} samples")


def _check_trace_replay(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    rng = Lcg(seed)
    for i in range(samples):
        t = random_term(space, _sizes(rng, max_size), rng)
        nf, steps = trace(space, t)
        if nf != normalize(space, t):
            return CheckResult(
                "trace-replay", False, f"sample {i}: trace and normalize disagree"
            )
        cur = t
        for step in steps:
            cur = apply_step(space, cur, step)
        if free_normalize(space, cur).letters != nf.word.letters:
            return CheckResult(
                "trace-replay", False, f"sample {i}: replay missed the normal form"
            )
    return CheckResult("trace-replay", True, f"{samples} samples")


def _check_group_round_trip(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    base = space.basepoint
    rng = Lcg(seed)
    for i in range(samples):
        t = random_term(space, _sizes(rng, max_size), rng, base, base)
        value = encode(space, t)
        back = decode(space, value)
        if back != class_of(space, t):
            return CheckResult(
                "group-round-trip", False, f"sample {i}: decode(encode) moved the class"
            )
        if encode(space, back.representative()) != value:
            return CheckResult(
                "group-round-trip", False, f"sample {i}: encode(decode) moved the value"
            )
    return CheckResult("group-round-trip", True, f"{samples} samples")


def _check_homomorphism(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    base = space.basepoint
    rng = Lcg(seed)
    for i in range(samples):
        p = random_term(space, _sizes(rng, max_size), rng, base, base)
        q = random_term(space, _sizes(rng, max_size), rng, base, base)
        if not homomorphism_check(space, p, q):
            return CheckResult(
                "homomorphism", False, f"sample {i}: composition broke multiplication"
            )
        vp, vq = encode(space, p), encode(space, q)
        via_classes = encode(
            space, Trans(class_of(space, p).representative(),
                         class_of(space, q).representative())
        )
        if via_classes != group_mul(vp, vq):
            return CheckResult(
                "homomorphism", False, f"sample {i}: class composition disagreed"
            )
    return CheckResult("homomorphism", True, f"{samples} samples")


def _check_groupoid_laws(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    rng = Lcg(seed)
    points = tuple(space.points)
    for i in range(samples):
        x = rng.choice(points)
        t1 = random_term(space, _sizes(rng, max_size), rng, src=x)
        y = endpoints(space, t1)[1]
        t2 = random_term(space, _sizes(rng, max_size), rng, src=y)
        z = endpoints(space, t2)[1]
        t3 = random_term(space, _sizes(rng, max_size), rng, src=z)
        c1, c2, c3 = (class_of(space, t) for t in (t1, t2, t3))
        if comp(comp(c1, c2), c3) != comp(c1, comp(c2, c3)):
            return CheckResult("groupoid-laws", False, f"sample {i}: associativity")
        if comp(identity(space, x), c1) != c1 or comp(c1, identity(space, y)) != c1:
            return CheckResult("groupoid-laws", False, f"sample {i}: identity")
        if comp(c1, inv(c1)) != identity(space, x):
            return CheckResult("groupoid-laws", False, f"sample {i}: right inverse")
        if comp(inv(c1), c1) != identity(space, y):
            return CheckResult("groupoid-laws", False, f"sample {i}: left inverse")
        if x == y:
            if zpow_class(c1, 3) != comp(c1, comp(c1, c1)):
                return CheckResult("groupoid-laws", False, f"sample {i}: power law")
            if zpow_class(c1, -1) != inv(c1):
                return CheckResult("groupoid-laws", False, f"sample {i}: negative power")
    return CheckResult("groupoid-laws", True, f"{samples} samples")


def _check_oracle_agreement(
    space: SpacePresentation,
    seed: int,
    samples: int,
    max_size: int,
    budget: Budget,
) -> CheckResult:
    rng = Lcg(seed)
    # Normal forms in a file-loaded space ignore its relations, so there the
    # search may prove equal pairs the fast path cannot; only the fast path's
    # positive answers are binding.
    complete = space.group_tag is not None or not space.relations
    small = max(3, min(max_size, 6))
    decided = 0
    for i in range(samples):
        n = _sizes(rng, small)
        p = random_term(space, n, rng)
        src, tgt = endpoints(space, p)
        q = _pinned_term(space, 1 + rng.randint(small), rng, src, tgt)
        fast = rw_eq(space, p, q)
        verdict = bfs_rw_eq(space, p, q, budget)
        if not verdict.is_decided:
            continue
        decided += 1
        disagrees = (verdict.is_equal != fast) if complete else (fast and not verdict.is_equal)
        if disagrees:
            return CheckResult(
                "oracle-agreement",
                False,
                f"sample {i}: normalize said {fast}, search said {verdict.kind}",
            )
    if decided == 0:
        return CheckResult("oracle-agreement", False, f"0/{samples} decided")
    return CheckResult("oracle-agreement", True, f"{decided}/{samples} decided, all agree")


def _check_local_confluence(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    rng = Lcg(seed)
    for i in range(samples):
        t = random_term(space, _sizes(rng, max_size), rng)
        if not local_confluence_probe(space, t):
            return CheckResult(
                "local-confluence", False, f"sample {i}: diverging one-step reducts"
            )
    return CheckResult("local-confluence", True, f"{samples} samples")


def _check_inverse_involution(
    space: SpacePresentation, seed: int, samples: int, max_size: int
) -> CheckResult:
    rng = Lcg(seed)
    for i in range(samples):
        t = random_term(space, _sizes(rng, max_size), rng)
        if normalize(space, Symm(Symm(t))) != normalize(space, t):
            return CheckResult("inverse-involution", False, f"sample {i}")
    return CheckResult("inverse-involution", True, f"{samples} samples")


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
        _check_normalize_idempotent(space, seed + 1, samples, max_size),
        _check_inverse_involution(space, seed + 2, samples, max_size),
        _check_trace_replay(space, seed + 3, samples, max_size),
        _check_groupoid_laws(space, seed + 4, samples, max_size),
        _check_local_confluence(space, seed + 5, samples, max_size),
        _check_oracle_agreement(space, seed + 6, max(10, samples // 5), max_size, budget),
    ]
    if space.group_tag is not None:
        results.insert(
            3, _check_group_round_trip(space, seed + 7, samples, max_size)
        )
        results.insert(4, _check_homomorphism(space, seed + 8, samples, max_size))
    return results
