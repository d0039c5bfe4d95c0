"""pathrw benchmark: run one workload, check every answer, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    decide   parse two words, rw_eq, and encode -> decode a basepoint loop
    certify  parse one word, trace it, replay and render every step
    search   one bfs_rw_eq over the acceptance gate's oracle classes
    cli      one in-process pathrw.cli.run call

Load is a closed loop in one process and one thread: the next operation
starts only after the previous one returned. Inputs come from --seed alone;
a warm-up on a different seed runs before anything is timed.

--trace 0 prints the end-to-end metrics. It times set-up in fresh child
interpreters, then runs operations for --seconds, scaling each one's time by
the drift clock in kernel.py. --trace 1 prints the per-layer metrics: two
fixed-length phases, the first untraced and the second with a span around
every call into pathrw, plus the untimed deep-input probe. Spans are written
to bench/out/. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 7
FAILURES_SHOWN = 5
TAIL_BEYOND = 10
TAIL_CAP = 99.0
PROBE_LIMIT = 100_000
# sub-seeds keep the warm-up and each phase on inputs of their own
PHASES = {"timed": 0, "warmup": 1, "untraced": 2, "traced": 3}

# name -> unit; every workload prints every metric of its mode
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "answered_share": "share",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "syntax.parse_s": "s",
    "syntax.letters_per_s": "1/s",
    "syntax.max_flat_letters": "count",
    "syntax.decide_top_letters": "count",
    "terms.nodes": "count",
    "rewrite.rw_eq_s": "s",
    "rewrite.rw_eq_letters_per_s": "1/s",
    "rewrite.nf_letters": "count",
    "rewrite.trace_s": "s",
    "rewrite.trace_steps_per_s": "1/s",
    "rewrite.replay_s": "s",
    "rewrite.replay_steps_per_s": "1/s",
    "rewrite.format_s": "s",
    "rewrite.trace_steps": "count",
    "rewrite.steps_per_letter": "ratio",
    "pi1.encode_s": "s",
    "pi1.decode_s": "s",
    "oracle.bfs_s": "s",
    "oracle.states_per_s": "1/s",
    "oracle.refute_states_per_s": "1/s",
    "oracle.bounded_states_per_s": "1/s",
    "oracle.proof_ms": "ms",
    "oracle.explored": "count",
    "oracle.proof_explored": "count",
    "oracle.refute_explored": "count",
    "oracle.bounded_explored": "count",
    "oracle.equal": "count",
    "oracle.not_equal": "count",
    "oracle.exhausted": "count",
    "cli.normalize_ms": "ms",
    "cli.trace_ms": "ms",
    "cli.equal_ms": "ms",
    "cli.encode_ms": "ms",
    "cli.decode_ms": "ms",
    "cli.spaces_ms": "ms",
    "cli.error_ms": "ms",
    "cli.exit0": "count",
    "cli.exit1": "count",
    "cli.exit2": "count",
    "bench.drift_factor": "ratio",
    "bench.trace_overhead": "ratio",
}


def sub_seed(seed: int, phase: str) -> int:
    return seed * 16 + PHASES[phase]


class Tracer:
    """Spans around calls into pathrw, kept in memory as parallel arrays:
    name, start, end, parent index and op id. Each operation gets a root
    span named "op"."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._root = self._open("op")

    def end_op(self) -> list:
        """Close the op span; return (name, self seconds) of its layer spans."""
        root = self._root
        self._close(root)
        own = {i: self.ends[i] - self.starts[i] for i in range(root, len(self.names))}
        for i in range(root + 1, len(self.names)):
            own[self.parents[i]] -= self.ends[i] - self.starts[i]
        return [(self.names[i], own[i]) for i in range(root + 1, len(self.names))]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{name},{self.starts[i]:.7f},{self.ends[i]:.7f},"
                    f"{self.parents[i]},{self.ops[i]}\n"
                )


class Phase:
    """One closed-loop pass: per-op raw and drift-corrected times, and the
    outcome of every check."""

    def __init__(self, label, w, L, ops, *, deadline=None, count=None, tracer=None,
                 on_spans=None):
        """With a tracer, on_spans(op, result, spans) receives each returning
        operation's (name, self seconds) spans, scaled by the reading before
        it. Nothing else of an operation outlives it: retained results
        would slow every later collection of the cyclic garbage collector."""
        self.raw: list[float] = []
        self.failures: list = []
        self.answered = self.decided = 0
        clock = kernel.DriftClock()
        marks = []
        perf = time.perf_counter
        gc.collect()
        start = perf()
        n = 0
        # a timed phase ends on a whole block, so every run holds the same mix
        while (count is None or n < count) and (
            deadline is None or perf() < deadline or n % w.block
        ):
            marks.append(clock.mark())
            op = next(ops)
            if tracer is not None:
                tracer.begin_op(n)
            t0 = perf()
            try:
                result, err = w.run(L, op), None
            except Exception as exc:  # an exception is a wrong answer
                result, err = None, f"{type(exc).__name__}: {exc}"
            t1 = perf()
            spans = tracer.end_op() if tracer is not None else None
            self.raw.append(t1 - t0)
            if err is None:
                try:
                    err = w.check(op, result)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                self.answered += 1
                self.decided += w.decided(op, result)
            else:
                self.failures.append((label, n, err))
            if on_spans is not None and result is not None:
                f = kernel.NOMINAL_READING_S / clock.readings[-1]
                on_spans(op, result, [(name, t * f) for name, t in spans])
            n += 1
        clock.finish()
        self.wall_s = perf() - start
        self.factors = clock.factors(marks)
        self.corrected = [r * f for r, f in zip(self.raw, self.factors)]

    @property
    def ops(self) -> int:
        return len(self.raw)

    def drift_factor(self) -> float:
        return sum(self.corrected) / sum(self.raw)


def rate(times) -> float:
    return len(times) / sum(times)


def tail(times) -> tuple[float, float]:
    """The latency at the highest percentile, up to p99, that has at least
    TAIL_BEYOND ops beyond it, and that percentile.

    With thousands of ops the cap keeps the tail at p99, where a handful of
    operations stalled by the machine cannot move it; with a few hundred,
    exactly TAIL_BEYOND ops lie beyond it."""
    s = sorted(times)
    n = len(s)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_CAP) / 100.0))
    k = max(0, n - beyond - 1)
    return s[k], 100.0 * (k + 1) / n


def max_flat_letters(pathrw) -> int:
    """The longest flat product `a * a * ...` that parse_path plus normalize
    answer correctly, tried up to PROBE_LIMIT letters."""
    circle = pathrw.builtin("circle")

    def answers(n: int) -> bool:
        try:
            nf = pathrw.normalize(circle, pathrw.parse_path(circle, " * ".join("a" * n)))
        except RecursionError:
            return False
        return nf.word.letters == (("a", 1),) * n

    lo, n = 0, 8
    while True:
        n = min(n, PROBE_LIMIT)
        if not answers(n):
            break
        lo = n
        if n == PROBE_LIMIT:
            return lo
        n *= 2
    hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if answers(mid) else (lo, mid)
    return lo


def measure_setup(workload: str) -> tuple[float, float]:
    """Median corrected and raw set-up seconds over fresh child interpreters,
    run one after another."""
    corrected, raw = [], []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, "-S", str(HERE / "setup_child.py"), workload],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        corrected.append(out["raw_s"] * out["factor"])
        raw.append(out["raw_s"])
    return statistics.median(corrected), statistics.median(raw)


def metric(value, unit):
    return {"value": value, "unit": unit}


def warm_up(w, L, seed: int) -> Phase:
    """Run the warm-up, then freeze every object alive so far out of the
    cyclic collector. Without the freeze each full collection spends about
    6 ms walking the interpreter's and the benchmark's own objects, and the
    few operations it lands on decide tail_ms. After it, a collection costs
    what pathrw allocated since."""
    warm = Phase("warmup", w, L, w.stream(sub_seed(seed, "warmup")), count=w.warmup_ops)
    gc.collect()
    gc.freeze()
    return warm


def run_untraced(w, L, args, pathrw):
    setup_s, setup_raw = measure_setup(w.name)
    warm = warm_up(w, L, args.seed)
    deadline = time.perf_counter() + args.seconds
    ph = Phase("timed", w, L, w.stream(sub_seed(args.seed, "timed")), deadline=deadline)
    tail_ms, pct = tail(ph.corrected)
    raw_tail, _ = tail(ph.raw)
    detail = {
        "workload": w.name, "seed": args.seed, "ops": ph.ops,
        "tail_percentile": round(pct, 3),
        "raw": {
            "ops_per_s": rate(ph.raw),
            "p50_ms": statistics.median(ph.raw) * 1e3,
            "tail_ms": raw_tail * 1e3,
            "setup_s": setup_raw,
            "wall_s": ph.wall_s,
        },
        "bench.drift_factor": ph.drift_factor(),
    }
    print(json.dumps(detail))
    values = {
        "setup_s": setup_s,
        "ops_per_s": rate(ph.corrected),
        "p50_ms": statistics.median(ph.corrected) * 1e3,
        "tail_ms": tail_ms * 1e3,
        "answered_share": ph.answered / ph.ops,
        "decided_share": ph.decided / ph.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [warm, ph], {k: metric(v, END_TO_END[k]) for k, v in values.items()}


def run_traced(w, L, args, pathrw):
    warm = warm_up(w, L, args.seed)
    count = max(1, round(args.seconds / 2 * w.nominal_ops_per_s))
    plain = Phase("untraced", w, L, w.stream(sub_seed(args.seed, "untraced")), count=count)
    acc = w.new_counts()
    self_s: dict = {}

    def on_spans(op, result, spans):
        for name, t in spans:
            self_s[name] = self_s.get(name, 0.0) + t
        w.count(op, result, acc, spans)

    tracer = Tracer()
    traced = Phase("traced", w, workloads.layers(pathrw, tracer),
                   w.stream(sub_seed(args.seed, "traced")), count=count, tracer=tracer,
                   on_spans=on_spans)
    values = dict.fromkeys(PER_LAYER, 0)
    values.update(w.layer_metrics(acc, self_s))
    values["syntax.max_flat_letters"] = max_flat_letters(pathrw)
    values["syntax.decide_top_letters"] = workloads.Decide.MAX_LETTERS
    values["bench.drift_factor"] = traced.drift_factor()
    values["bench.trace_overhead"] = rate(plain.corrected) / rate(traced.corrected)
    out = HERE / "out" / f"spans-{w.name}-seed{args.seed}.csv"
    tracer.write(out)
    detail = {
        "workload": w.name, "seed": args.seed, "ops": count,
        "spans": str(out.relative_to(HERE.parent)),
    }
    if hasattr(w, "digest"):
        detail["digest"] = w.digest(acc)
    print(json.dumps(detail))
    return [warm, plain, traced], {k: metric(v, PER_LAYER[k]) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pathrw = workloads.import_pathrw()
    w = workloads.WORKLOADS[args.workload](pathrw)
    w.build_spaces()
    L = workloads.layers(pathrw)
    run = run_traced if args.trace else run_untraced
    phases, metrics = run(w, L, args, pathrw)
    failures = [f for ph in phases for f in ph.failures]
    for label, n, err in failures[:FAILURES_SHOWN]:
        print(f"FAIL seed={args.seed} phase={label} op={n}: {err}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(ph.ops for ph in phases),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
