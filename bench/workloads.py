"""The four workloads: their seeded inputs, the timed calls into pathrw, and
the checks of every answer.

A workload turns a seed into an endless stream of operations with no
repeated input, runs one operation through a table of pathrw entry points
(`layers()`, traced or not), and checks the result against the benchmark's
own reference model without timing the check. In the traced phase it also
counts the work each layer did.

pathrw is imported only when import_pathrw() is called, so the set-up child
can time the import itself.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"


def import_pathrw():
    """pathrw from this checkout's src/, never from anywhere else."""
    if not (SRC / "pathrw" / "__init__.py").is_file():
        raise SystemExit(f"error: no pathrw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathrw

    if Path(pathrw.__file__).resolve().parent != SRC / "pathrw":
        raise SystemExit(f"error: imported pathrw from {pathrw.__file__}")
    return pathrw


# the pathrw entry points the benchmark calls, by span name
LAYER_CALLS = (
    ("parse_path", "syntax", "parse_path"),
    ("rw_eq", "rewrite", "rw_eq"),
    ("normalize", "rewrite", "normalize"),
    ("free_normalize", "rewrite", "free_normalize"),
    ("trace", "rewrite", "trace"),
    ("apply_step", "rewrite", "apply_step"),
    ("format_step", "rewrite", "format_step"),
    ("encode", "pi1", "encode"),
    ("decode", "pi1", "decode"),
    ("bfs_rw_eq", "oracle", "bfs_rw_eq"),
    ("cli.run", "cli", "run"),
)


def layers(pathrw, tracer=None) -> SimpleNamespace:
    """The entry points as attributes (cli.run as cli_run), each wrapped in a
    span when a tracer is given."""
    table = {}
    for span, module, attr in LAYER_CALLS:
        fn = getattr(importlib.import_module(f"pathrw.{module}"), attr)
        table[span.replace(".", "_")] = fn if tracer is None else tracer.wrap(span, fn)
    return SimpleNamespace(**table)


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pathrw_letters(pathrw, term) -> list:
    """The letters of a pathrw term, read by the benchmark itself."""
    out = []
    stack = [(term, False)]
    while stack:
        t, flip = stack.pop()
        if isinstance(t, pathrw.Gen):
            out.append((t.name, -1 if flip else 1))
        elif isinstance(t, pathrw.Symm):
            stack.append((t.inner, not flip))
        elif isinstance(t, pathrw.Trans):
            first = (t.first, flip)
            second = (t.second, flip)
            stack.extend((first, second) if flip else (second, first))
    return out


class Workload:
    name = ""
    space_names: tuple[str, ...] = ref.ORDER
    warmup_ops = 0
    # operations per second on the reference machine; sizes the fixed-length
    # traced phases
    nominal_ops_per_s = 1.0
    # the length of the workload's cycle of operation classes
    block = len(ref.ORDER)

    def __init__(self, pathrw):
        self.pathrw = pathrw
        self.spaces: dict = {}

    def build_spaces(self) -> None:
        self.spaces = {n: self.pathrw.builtin(n) for n in self.space_names}

    def stream(self, seed: int):
        """Endless operations drawn from seed; no key repeats."""
        rng = random.Random(seed)
        seen: set = set()
        state: dict = {}
        i = 0
        while True:
            op = self.make(rng, i, state)
            key = self.key(op)
            if key is not None:
                if key in seen:
                    continue
                seen.add(key)
            yield op
            i += 1

    def setup_ops(self) -> list:
        """One operation of each class (here, of each space), the same on
        every run."""
        ops = self.stream(0x5E7)
        return [next(ops) for _ in range(len(ref.ORDER))]

    def key(self, op):
        return None

    def decided(self, op, result) -> bool:
        return True

    def new_counts(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# decide


@dataclass
class DecideOp:
    space: str
    text1: str
    text2: str
    equal: bool
    value: tuple | None  # expected group value when text1 is a basepoint loop
    letters: int


def make_pair(space: ref.Space, rng, n: int, equal: bool):
    src = ref.random_start(space, rng)
    w1 = ref.random_word(space, rng, n, src)
    if equal:
        w2 = ref.equal_edit(space, rng, w1, src)
    else:
        w2 = ref.insert_nontrivial_loop(space, rng, w1, src)
    same = ref.path_value(space, w1, src) == ref.path_value(space, w2, src)
    if same != equal:
        raise RuntimeError(f"benchmark edit broke the pair in {space.name}")
    return src, w1, w2


class Decide(Workload):
    name = "decide"
    block = 2 * len(ref.ORDER)
    warmup_ops = 120
    nominal_ops_per_s = 340.0
    MIN_LETTERS, MAX_LETTERS = 8, 512

    def make(self, rng, i, state):
        space = ref.SPACES[ref.ORDER[i % 6]]
        equal = (i // 6) % 2 == 0
        n = ref.log_uniform(state, rng, i // 6, self.MIN_LETTERS, self.MAX_LETTERS)
        src, w1, w2 = make_pair(space, rng, n, equal)
        value = None
        if src == space.base and ref.walk(space, w1, src) == space.base:
            value = ref.group_value(space, w1)
        return DecideOp(
            space.name,
            ref.render_letters(space, w1, rng),
            ref.render_letters(space, w2, rng),
            equal,
            value,
            len(w1) + len(w2),
        )

    def key(self, op):
        return (op.space, op.text1, op.text2)

    def run(self, L, op):
        sp = self.spaces[op.space]
        p = L.parse_path(sp, op.text1)
        q = L.parse_path(sp, op.text2)
        eq = L.rw_eq(sp, p, q)
        v = cls = None
        if op.value is not None:
            v = L.encode(sp, p)
            cls = L.decode(sp, v)
        return p, q, eq, v, cls

    def check(self, op, result):
        p, q, eq, v, cls = result
        if eq is not op.equal:
            return f"rw_eq said {eq}, expected {op.equal}"
        if op.value is not None:
            space = ref.SPACES[op.space]
            if (v.m, v.n) != op.value:
                return f"encode gave ({v.m}, {v.n}), expected {op.value}"
            back = ref.group_value(space, cls.nf.word.letters)
            if back != op.value or (cls.src, cls.tgt) != (space.base, space.base):
                return f"decode gave a class of value {back}, expected {op.value}"
        return None

    def new_counts(self):
        return {"letters": 0, "nodes": 0, "nf_letters": 0}

    def count(self, op, result, acc, spans):
        p, q = result[0], result[1]
        sp = self.spaces[op.space]
        acc["letters"] += op.letters
        acc["nodes"] += self.pathrw.size(p) + self.pathrw.size(q)
        for t in (p, q):
            acc["nf_letters"] += len(self.pathrw.normalize(sp, t).word.letters)

    def layer_metrics(self, acc, self_s):
        parse = self_s.get("parse_path", 0.0)
        rw = self_s.get("rw_eq", 0.0)
        return {
            "syntax.parse_s": parse,
            "syntax.letters_per_s": _ratio(acc["letters"], parse),
            "terms.nodes": acc["nodes"],
            "rewrite.rw_eq_s": rw,
            "rewrite.rw_eq_letters_per_s": _ratio(acc["letters"], rw),
            "rewrite.nf_letters": acc["nf_letters"],
            "pi1.encode_s": self_s.get("encode", 0.0),
            "pi1.decode_s": self_s.get("decode", 0.0),
        }


# ---------------------------------------------------------------------------
# certify


@dataclass
class CertifyOp:
    space: str
    text: str
    value: tuple  # (src, tgt, group value)
    letters: int


class Certify(Workload):
    name = "certify"
    warmup_ops = 60
    nominal_ops_per_s = 115.0

    def make(self, rng, i, state):
        space = ref.SPACES[ref.ORDER[i % 6]]
        n = ref.log_uniform(state, rng, i // 6, 4, 64)
        src = ref.random_start(space, rng)
        w = ref.random_word(space, rng, n, src)
        return CertifyOp(
            space.name,
            ref.render_letters(space, w, rng),
            ref.path_value(space, w, src),
            n,
        )

    def key(self, op):
        return (op.space, op.text)

    def run(self, L, op):
        sp = self.spaces[op.space]
        p = L.parse_path(sp, op.text)
        nf, steps = L.trace(sp, p)
        cur = p
        for step in steps:
            cur = L.apply_step(sp, cur, step)
        lines = [L.format_step(step, sp) for step in steps]
        replayed = L.free_normalize(sp, cur)
        direct = L.normalize(sp, p)
        return nf, steps, lines, replayed, direct

    def check(self, op, result):
        nf, steps, lines, replayed, direct = result
        if replayed != nf.word:
            return "replaying the trace does not reach its normal form"
        if direct != nf:
            return "trace and normalize disagree"
        if len(lines) != len(steps) or not all(isinstance(s, str) and s for s in lines):
            return "format_step did not render every step"
        space = ref.SPACES[op.space]
        got = ref.path_value(space, nf.word.letters, nf.word.src)
        if got != op.value:
            return f"normal form has value {got}, expected {op.value}"
        return None

    def new_counts(self):
        return {"letters": 0, "steps": 0}

    def count(self, op, result, acc, spans):
        acc["letters"] += op.letters
        acc["steps"] += len(result[1])

    def layer_metrics(self, acc, self_s):
        trace_s = self_s.get("trace", 0.0)
        replay_s = self_s.get("apply_step", 0.0)
        return {
            "syntax.parse_s": self_s.get("parse_path", 0.0),
            "syntax.letters_per_s": _ratio(acc["letters"], self_s.get("parse_path", 0.0)),
            "rewrite.trace_s": trace_s,
            "rewrite.trace_steps_per_s": _ratio(acc["steps"], trace_s),
            "rewrite.replay_s": replay_s,
            "rewrite.replay_steps_per_s": _ratio(acc["steps"], replay_s),
            "rewrite.format_s": self_s.get("format_step", 0.0),
            "rewrite.trace_steps": acc["steps"],
            "rewrite.steps_per_letter": _ratio(acc["steps"], acc["letters"]),
        }


# ---------------------------------------------------------------------------
# search

# the acceptance gate's oracle spaces: name, enumeration depth, endpoint pairs
SEARCH_SPACES = (
    ("circle", 8, (("pt", "pt"),)),
    ("rp2", 8, (("pt", "pt"),)),
    ("torus", 6, (("pt", "pt"),)),
    ("klein", 6, (("pt", "pt"),)),
    ("cylinder", 6, (("b0", "b0"), ("b0", "b1"), ("b1", "b1"), ("b1", "b0"))),
)
# the gate's state budgets for each class
MAX_STATES = {"proof": 30_000, "refute": 20_000, "bounded": 4_000}
# each block of ten operations holds eight proofs, one refutation and one
# bounded search, in shuffled order
BLOCK = ("proof",) * 8 + ("refute", "bounded")


@dataclass
class SearchOp:
    space: str
    cls: str
    p_text: str
    q_text: str
    p: object
    q: object
    budget: object
    equal: bool


class Search(Workload):
    """Each class walks its own fixed cycle of spaces, endpoint pairs and term
    sizes, the same for every seed; the seed draws the terms. Refutation and
    bounded pairs are drawn until their values differ, so every one of them
    runs the search out instead of sometimes stopping early on a meeting.
    A 20 s run holds only about ten searches of each slow class. Without
    the stratification, which ones a seed drew gave ops_per_s a spread of
    13 % and tail_ms one of 29 % over five seeds."""

    name = "search"
    block = len(BLOCK)
    space_names = tuple(name for name, _, _ in SEARCH_SPACES)
    warmup_ops = 10
    nominal_ops_per_s = 5.2

    def __init__(self, pathrw):
        super().__init__(pathrw)
        self.samplers = {n: ref.TermSampler(ref.SPACES[n]) for n in self.space_names}

    def setup_ops(self):
        # one proof per space: it fills every lazily built table the oracle
        # uses, while a refutation or bounded search would add about a
        # second of pure search and swamp the set-up time
        ops = self.stream(0x5E7)
        found: dict = {}
        while len(found) < len(SEARCH_SPACES):
            op = next(ops)
            if op.cls == "proof":
                found.setdefault(op.space, op)
        return list(found.values())

    def make(self, rng, i, state):
        schedule = state.setdefault("schedule", [])
        if not schedule:
            schedule.extend(BLOCK)
            rng.shuffle(schedule)
        cls = schedule.pop()
        turns = state.setdefault("turns", dict.fromkeys(MAX_STATES, 0))
        turn = turns[cls]
        turns[cls] += 1
        name, depth, pairs = SEARCH_SPACES[turn % len(SEARCH_SPACES)]
        src, tgt = pairs[(turn // len(SEARCH_SPACES)) % len(pairs)]
        space = ref.SPACES[name]
        draw = getattr(self, "_" + cls)
        seen = state.setdefault("seen", set())
        # a pair already used, or a draw that fits no pair, is drawn again;
        # every twenty misses move the size on, so the loop always ends
        for attempt in itertools.count():
            pair = draw(space, self.samplers[name], rng, turn, attempt // 20, depth, src, tgt)
            if pair is not None:
                key = (name, ref.render_term(space, pair[0]), ref.render_term(space, pair[1]))
                if key not in seen:
                    break
        seen.add(key)
        p, q = pair
        return SearchOp(
            name, cls, key[1], key[2], self._to_pathrw(p), self._to_pathrw(q),
            self.pathrw.Budget(max_states=MAX_STATES[cls]),
            ref.term_value(space, p) == ref.term_value(space, q),
        )

    @staticmethod
    def _proof(space, sampler, rng, turn, bump, depth, src, tgt):
        """A term of 2..depth nodes and its image one to three reduction
        steps away, no larger than depth."""
        lap = turn // len(SEARCH_SPACES)
        size = sampler.feasible_size(2 + (lap + bump) % (depth - 1), src, tgt, depth)
        if size is None:
            return None
        p = q = sampler.draw(rng, size, src, tgt)
        for _ in range(1 + rng.randrange(3)):
            steps = ref.reducts(space, q)
            if not steps:
                break
            q = rng.choice(steps)
        if q == p or ref.term_size(q) > depth:
            return None
        return p, q

    @staticmethod
    def _refute(space, sampler, rng, turn, bump, depth, src, tgt):
        """Independent draws of at most five nodes, of different values;
        the sizes walk every pair of 1..4 in turn."""
        sizes = []
        for n in (1 + (turn + bump) % 4, 1 + (turn // 4 + bump // 4) % 4):
            size = sampler.feasible_size(n, src, tgt, 5)
            if size is None:
                return None
            sizes.append(size)
        p = sampler.draw(rng, sizes[0], src, tgt)
        q = sampler.draw(rng, sizes[1], src, tgt)
        return (p, q) if ref.term_value(space, p) != ref.term_value(space, q) else None

    @staticmethod
    def _bounded(space, sampler, rng, turn, bump, depth, src, tgt):
        """Full-depth draws from the gate's term pool, of different values."""
        p = sampler.draw_up_to(rng, depth, src, tgt)
        q = sampler.draw_up_to(rng, depth, src, tgt)
        return (p, q) if ref.term_value(space, p) != ref.term_value(space, q) else None

    def _to_pathrw(self, t):
        P = self.pathrw
        k = t[0]
        if k == "r":
            return P.Refl(t[1])
        if k == "g":
            return P.Gen(t[1])
        if k == "s":
            return P.Symm(self._to_pathrw(t[1]))
        return P.Trans(self._to_pathrw(t[1]), self._to_pathrw(t[2]))

    def key(self, op):
        return (op.space, op.p_text, op.q_text)

    def run(self, L, op):
        return L.bfs_rw_eq(self.spaces[op.space], op.p, op.q, op.budget)

    def check(self, op, v):
        if v.explored > op.budget.max_states:
            return f"explored {v.explored} states over a budget of {op.budget.max_states}"
        if op.cls == "proof" and v.kind != "EQUAL":
            return f"proof pair gave {v.kind}"
        if v.kind == "EQUAL" and not op.equal:
            return "EQUAL for paths of different value"
        if v.kind == "NOT_EQUAL_WITHIN_BUDGET" and op.equal:
            return "NOT_EQUAL for paths of the same value"
        if v.kind not in ("EQUAL", "NOT_EQUAL_WITHIN_BUDGET", "BUDGET_EXHAUSTED"):
            return f"unknown verdict {v.kind}"
        return None

    def decided(self, op, v):
        return v.kind != "BUDGET_EXHAUSTED"

    def new_counts(self):
        acc = {f"{cls}_{k}": 0 for cls in MAX_STATES for k in ("explored", "s")}
        acc.update(kinds={}, proof_times=[], digest=hashlib.sha256())
        return acc

    def count(self, op, v, acc, spans):
        took = sum(d for name, d in spans if name == "bfs_rw_eq")
        acc[f"{op.cls}_explored"] += v.explored
        acc[f"{op.cls}_s"] += took
        acc["kinds"][v.kind] = acc["kinds"].get(v.kind, 0) + 1
        if op.cls == "proof":
            acc["proof_times"].append(took)
        line = f"{op.space}|{op.cls}|{op.p_text}|{op.q_text}|{v.kind}|{v.explored}\n"
        acc["digest"].update(line.encode())

    def digest(self, acc) -> str:
        return acc["digest"].hexdigest()

    def layer_metrics(self, acc, self_s):
        bfs = self_s.get("bfs_rw_eq", 0.0)
        explored = sum(acc[f"{cls}_explored"] for cls in MAX_STATES)
        kinds = acc["kinds"]
        return {
            "oracle.bfs_s": bfs,
            "oracle.states_per_s": _ratio(explored, bfs),
            "oracle.refute_states_per_s": _ratio(acc["refute_explored"], acc["refute_s"]),
            "oracle.bounded_states_per_s": _ratio(acc["bounded_explored"], acc["bounded_s"]),
            "oracle.proof_ms": _median_ms(acc["proof_times"]),
            "oracle.explored": explored,
            "oracle.proof_explored": acc["proof_explored"],
            "oracle.refute_explored": acc["refute_explored"],
            "oracle.bounded_explored": acc["bounded_explored"],
            "oracle.equal": kinds.get("EQUAL", 0),
            "oracle.not_equal": kinds.get("NOT_EQUAL_WITHIN_BUDGET", 0),
            "oracle.exhausted": kinds.get("BUDGET_EXHAUSTED", 0),
        }


# ---------------------------------------------------------------------------
# cli

CLI_KINDS = ("normalize", "trace", "equal", "encode", "decode", "spaces")
JSON_KEYS = {"cmd", "space", "input", "result", "trace"}
# malformed inputs: each makes pathrw reject the text with exit code 2
BAD_EXPRESSIONS = ("{w} * zz", "{w} *", "({w}", "{w} # {w}", "{w}^x", "* {w}")


@dataclass
class CliOp:
    kind: str
    argv: list
    space: str | None
    expect: object  # kind-specific expected answer


class Cli(Workload):
    name = "cli"
    block = 30
    warmup_ops = 120
    nominal_ops_per_s = 500.0

    def setup_ops(self):
        # operations 0-5 are one of each subcommand; operation 9 is malformed
        ops = self.stream(0x5E7)
        first = [next(ops) for _ in range(10)]
        return first[: len(CLI_KINDS)] + first[9:]

    def make(self, rng, i, state):
        space = ref.SPACES[ref.ORDER[(i // len(CLI_KINDS)) % 6]]
        as_json = (i // (6 * len(CLI_KINDS))) % 2 == 1
        n = ref.log_uniform(state, rng, i, 8, 32)
        if i % 10 == 9:
            return self._malformed(space, rng, n, as_json)
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        args = ["--space", space.name]
        if kind in ("normalize", "trace"):
            src = ref.random_start(space, rng)
            w = ref.random_word(space, rng, n, src)
            argv = ["normalize", *args, ref.render_letters(space, w, rng)]
            if kind == "trace":
                argv.append("--emit-trace")
            expect = None
        elif kind == "equal":
            equal = rng.random() < 0.5
            src, w1, w2 = make_pair(space, rng, n, equal)
            argv = ["equal", *args, ref.render_letters(space, w1, rng),
                    ref.render_letters(space, w2, rng)]
            expect = equal
        elif kind == "encode":
            w = ref.base_loop(space, rng, n)
            argv = ["encode", *args, ref.render_letters(space, w, rng)]
            expect = ref.group_value(space, w)
        elif kind == "decode":
            expect = self._group_element(space, rng, n)
            shown = f"({expect[0]}, {expect[1]})" if space.group in ("ZxZ", "ZsdZ") \
                else str(expect[0])
            argv = ["decode", *args, shown]
        else:
            argv, space, expect = ["spaces"], None, None
        if as_json:
            argv.append("--json")
        return CliOp(kind, argv, space.name if space else None, expect)

    @staticmethod
    def _group_element(space, rng, n):
        """An element whose loop has about n letters."""
        if space.group == "Z2":
            return (rng.randrange(2), 0)
        m = n if space.group == "Z" else rng.randrange(n + 1)
        return (rng.choice((1, -1)) * m, rng.choice((1, -1)) * (n - m))

    def _malformed(self, space, rng, n, as_json):
        w = ref.render_letters(space, ref.random_word(space, rng, n, space.base), rng)
        text = rng.choice(BAD_EXPRESSIONS).format(w=w)
        sub = rng.choice(("normalize", "encode", "equal"))
        argv = [sub, "--space", space.name, text] + ([w] if sub == "equal" else [])
        if as_json:
            argv.append("--json")
        return CliOp("error", argv, space.name, None)

    def key(self, op):
        if op.kind in ("decode", "spaces"):
            # these take a group element or nothing; their few inputs repeat
            return None
        return tuple(op.argv)

    def run(self, L, op):
        return L.cli_run(op.argv)

    def check(self, op, result):
        code, out = result
        as_json = "--json" in op.argv
        if op.kind == "error":
            if code != 2 or not out.startswith("error:"):
                return f"malformed input gave exit {code}"
            return None
        want_code = 1 if op.kind == "equal" and not op.expect else 0
        if code != want_code:
            return f"exit {code}, expected {want_code}: {out[:80]}"
        if as_json:
            doc = json.loads(out)
            if set(doc) != JSON_KEYS:
                return f"JSON keys {sorted(doc)}"
            if doc["cmd"] != op.argv[0]:
                return f"JSON cmd {doc['cmd']}"
        else:
            doc = None
        return getattr(self, "_check_" + op.kind)(op, out, doc)

    def _check_normalize(self, op, out, doc):
        P, sp = self.pathrw, self.spaces[op.space]
        nf = P.normalize(sp, P.parse_path(sp, op.argv[3]))
        if doc is not None:
            if doc["result"]["letters"] != [[n, s] for n, s in nf.word.letters]:
                return "normal form differs from the library's"
        elif out.splitlines()[-1] != P.render_word(sp, nf.word):
            return "normal form differs from the library's"
        return None

    def _check_trace(self, op, out, doc):
        P, sp = self.pathrw, self.spaces[op.space]
        nf, steps = P.trace(sp, P.parse_path(sp, op.argv[3]))
        lines = [P.format_step(s, sp) for s in steps]
        got = doc["trace"] if doc is not None else out.splitlines()[:-1]
        if got != lines:
            return "trace differs from the library's"
        return self._check_normalize(op, out, doc)

    def _check_equal(self, op, out, doc):
        want = "equal" if op.expect else "not-equal"
        got = doc["result"] if doc is not None else out
        return None if got == want else f"said {got}, expected {want}"

    def _check_encode(self, op, out, doc):
        shown = doc["result"]["value"] if doc is not None else out
        nums = tuple(int(x) for x in shown.strip("()").split(","))
        got = nums if len(nums) == 2 else (nums[0], 0)
        return None if got == op.expect else f"encoded {shown}, expected {op.expect}"

    def _check_decode(self, op, out, doc):
        P, sp = self.pathrw, self.spaces[op.space]
        shown = doc["result"]["path"] if doc is not None else out
        got = ref.group_value(ref.SPACES[op.space], pathrw_letters(P, P.parse_path(sp, shown)))
        if got != op.expect:
            return f"decoded to {shown}, of value {got}, expected {op.expect}"
        if doc is not None and (doc["result"]["src"], doc["result"]["tgt"]) != (sp.basepoint,) * 2:
            return "decoded loop is not at the basepoint"
        return None

    def _check_spaces(self, op, out, doc):
        names = (
            [row["name"] for row in doc["result"]]
            if doc is not None
            else [line.split()[0] for line in out.splitlines()]
        )
        return None if tuple(names) == ref.ORDER else f"listed {names}"

    def new_counts(self):
        return {"times": {}, "exit": {0: 0, 1: 0, 2: 0}}

    def count(self, op, result, acc, spans):
        took = sum(d for name, d in spans if name == "cli.run")
        acc["times"].setdefault(op.kind, []).append(took)
        acc["exit"][result[0]] = acc["exit"].get(result[0], 0) + 1

    def layer_metrics(self, acc, self_s):
        out = {
            f"cli.{kind}_ms": _median_ms(acc["times"].get(kind, ()))
            for kind in CLI_KINDS + ("error",)
        }
        for code in (0, 1, 2):
            out[f"cli.exit{code}"] = acc["exit"].get(code, 0)
        return out


WORKLOADS = {w.name: w for w in (Decide, Certify, Search, Cli)}
