"""The benchmark's own tests: the reference evaluator, seeded inputs, and
repeatable counts. Run with `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

def word(*letters):
    return [(name.lstrip("~"), -1 if name.startswith("~") else 1) for name in letters]


@pytest.mark.parametrize(
    "space, left, right, src",
    [
        ("torus", word("b", "a", "b", "~a"), word("b", "b"), "pt"),
        ("klein", word("b", "a"), word("a", "~b"), "pt"),
        ("rp2", word("alpha", "alpha"), word(), "pt"),
        ("cylinder", word("s", "l1", "~s"), word("l0"), "b0"),
    ],
)
def test_evaluator_on_readme_examples(space, left, right, src):
    sp = ref.SPACES[space]
    assert ref.path_value(sp, left, src) == ref.path_value(sp, right, src)


@pytest.mark.parametrize(
    "space, left, right, src",
    [
        ("klein", word("b", "a"), word("a", "b"), "pt"),
        ("torus", word("a"), word("b"), "pt"),
        ("rp2", word("alpha"), word(), "pt"),
        ("circle", word("a"), word("a", "a"), "pt"),
        ("cylinder", word("s", "l1"), word("s"), "b0"),
    ],
)
def test_evaluator_separates_different_paths(space, left, right, src):
    sp = ref.SPACES[space]
    assert ref.path_value(sp, left, src) != ref.path_value(sp, right, src)


def test_relation_swaps_preserve_value():
    for sp in ref.SPACES.values():
        for left, right in sp.swaps:
            src = sp.gens[left[0][0]][0 if left[0][1] > 0 else 1] if left else sp.base
            assert ref.path_value(sp, list(left), src) == ref.path_value(sp, list(right), src)


def test_term_model_reductions_keep_value():
    for name in ref.ORDER:
        sp = ref.SPACES[name]
        sampler = ref.TermSampler(sp)
        rng = random.Random(5)
        for src, tgt in itertools.product(sp.points, repeat=2):
            for _ in range(20):
                t = sampler.draw_up_to(rng, 6, src, tgt)
                for r in ref.reducts(sp, t):
                    assert ref.term_value(sp, r) == ref.term_value(sp, t)


@pytest.fixture(scope="module")
def pathrw():
    return workloads.import_pathrw()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_repeat_per_seed_and_never_repeat_a_key(pathrw, name):
    w = workloads.WORKLOADS[name](pathrw)
    first = [w.key(op) or repr(op) for op in itertools.islice(w.stream(7), 60)]
    again = [w.key(op) or repr(op) for op in itertools.islice(w.stream(7), 60)]
    assert first == again
    keys = [k for k in (w.key(op) for op in itertools.islice(w.stream(7), 60)) if k]
    assert len(keys) == len(set(keys))


def traced_run(name: str, seconds: float) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", name, "--seed", "3", "--seconds", str(seconds), "--trace", "1"])
    lines = out.getvalue().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


TINY = {"decide": 0.1, "certify": 0.1, "search": 0.6, "cli": 0.05}


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_and_digest_repeat(name):
    detail1, result1 = traced_run(name, TINY[name])
    detail2, result2 = traced_run(name, TINY[name])
    assert result1["correct"] and result2["correct"]
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count"]
    for key in counts:
        assert result1["metrics"][key] == result2["metrics"][key], key
    assert detail1.get("digest") == detail2.get("digest")
    assert set(result1["metrics"]) == set(run.PER_LAYER)


def test_drift_factors_use_the_readings_on_either_side():
    clock = kernel.DriftClock()
    clock.readings = [kernel.NOMINAL_READING_S, kernel.NOMINAL_READING_S * 3]
    assert clock.factors([0, 1]) == pytest.approx([0.5, 1 / 3])


def test_tail_leaves_ten_ops_beyond_up_to_p99():
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == pytest.approx(90.0)
    value, pct = run.tail(list(range(5000)))
    assert value == 4949 and pct == pytest.approx(99.0)


def test_benchmark_file_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
