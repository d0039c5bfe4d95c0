"""End-to-end tests for the command line interface, via cli.run."""

import argparse
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pathrw.cli import _COMMANDS, _build_parser, main, run
from pathrw.rewrite import normalize, term_of_word
from pathrw.spaces import builtin
from pathrw.syntax import parse_path

# rule name, optional (relation), @ position, optional [payload]
WIRE_LINE = re.compile(
    r"^[a-z_]+(\(\w+\))? @ (root|\d+(\.\d+)*)( \[.+\])?$"
)

STRIP_FILE = """\
# two circles joined by a crossing path
point p
point q
gen c : p -> q
gen u : p -> p
rel uu : u * u = refl(p)
base p
"""


TORUS_FILE = """\
point pt
gen a : pt -> pt
gen b : pt -> pt
rel comm : a * b = b * a
"""


@pytest.fixture
def strip_path(tmp_path):
    f = tmp_path / "strip.space"
    f.write_text(STRIP_FILE)
    return str(f)


@pytest.fixture
def torus_path(tmp_path):
    f = tmp_path / "torus.space"
    f.write_text(TORUS_FILE)
    return str(f)


def _failing_detail(text, name):
    """The detail of the named suite's FAIL line."""
    prefix = f"FAIL {name}: "
    (line,) = [ln for ln in text.splitlines() if ln.startswith(prefix)]
    return line[len(prefix):]


class TestNormalize:
    def test_plain_output_is_the_normal_form(self):
        assert run(["normalize", "--space", "torus", "b * a * b * ~a"]) == (0, "b * b")
        assert run(["normalize", "--space", "circle", "a * ~a"]) == (0, "refl")

    def test_trace_lines_then_normal_form(self):
        code, text = run(["normalize", "--space", "klein", "--emit-trace", "b * a"])
        assert code == 0
        lines = text.splitlines()
        assert lines[-1] == "a * ~b"
        steps = lines[:-1]
        assert steps, "a rewrite this long must take steps"
        for line in steps:
            assert WIRE_LINE.match(line), line

    def test_trace_mentions_relations_by_name(self):
        _, text = run(["normalize", "--space", "torus", "--emit-trace", "b * a"])
        assert "relation_bwd(torusComm) @ root" in text.splitlines()

    def test_json_shape(self):
        code, text = run(["normalize", "--space", "torus", "--json", "b * a"])
        assert code == 0
        obj = json.loads(text)
        assert set(obj) == {"cmd", "space", "input", "result", "trace"}
        assert obj["cmd"] == "normalize"
        assert obj["space"] == "torus"
        assert obj["input"] == "b * a"
        assert obj["result"]["normal_form"] == "a * b"
        assert obj["result"]["letters"] == [["a", 1], ["b", 1]]
        assert obj["result"]["src"] == "pt" and obj["result"]["tgt"] == "pt"
        assert obj["trace"] is None

    def test_json_trace_is_a_list_when_asked(self):
        _, text = run(
            ["normalize", "--space", "torus", "--json", "--emit-trace", "b * a"]
        )
        obj = json.loads(text)
        assert obj["trace"] == ["relation_bwd(torusComm) @ root"]


class TestEqual:
    def test_equal_pair_exits_zero(self):
        assert run(["equal", "--space", "klein", "b * a", "a * ~b"]) == (0, "equal")

    def test_unequal_pair_exits_one(self):
        assert run(["equal", "--space", "klein", "b * a", "a * b"]) == (1, "not-equal")

    def test_oracle_reports_search_effort(self):
        code, text = run(
            ["equal", "--space", "circle", "--oracle", "a * ~a", "refl"]
        )
        assert code == 0
        assert text.startswith("equal (searched ")

    def test_oracle_not_equal(self):
        code, text = run(["equal", "--space", "circle", "--oracle", "a", "a * a"])
        assert code == 1
        assert text.startswith("not-equal")

    def test_oracle_not_equal_names_its_size_cap(self, tmp_path):
        # the Klein bottle as a file: normal forms ignore its relation, and
        # the oracle's not-equal holds only among terms within the cap, by
        # default the larger input plus the margin
        f = tmp_path / "klein.space"
        f.write_text("point pt\ngen a : pt -> pt\ngen b : pt -> pt\n"
                     "rel surf : a * b * ~a = ~b\n")
        argv = ["equal", "--oracle", "--space-file", str(f), "a * b", "b * a"]
        assert run(argv) == (1, "not-equal within size cap 9 (searched 1498 states)")
        code, text = run(argv + ["--max-term-size", "12"])
        assert code == 1 and text.startswith("not-equal within size cap 12 (")
        code, text = run(argv + ["--json"])
        assert code == 1 and json.loads(text)["result"] == "not-equal"

    def test_oracle_undecided_exits_one(self):
        code, text = run(
            [
                "equal", "--space", "klein", "--oracle",
                "--max-states", "3", "b * a", "a * ~b",
            ]
        )
        assert code == 1
        assert text.startswith("undecided")

    def test_zero_state_budget_searches_nothing(self):
        code, text = run(
            [
                "equal", "--space", "circle", "--oracle",
                "--max-states", "0", "a", "a * a",
            ]
        )
        assert code == 1
        assert text == "undecided (searched 0 states)"

    def test_cap_below_an_input_is_undecided(self):
        # both sides have 3 nodes, so a cap of 2 hides every derivation
        code, text = run(
            [
                "equal", "--space", "torus", "--oracle",
                "--max-term-size", "2", "a * b", "b * a",
            ]
        )
        assert code == 1
        assert text.startswith("undecided")

    def test_negative_state_budget_is_bad_input(self):
        code, text = run(
            [
                "equal", "--space", "circle", "--oracle",
                "--max-states", "-1", "a", "a * a",
            ]
        )
        assert code == 2
        assert "-1" in text

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-states", "-1", "--max-term-size", "0"],
            ["--max-states", "-1"],
            ["--max-term-size", "0"],
        ],
    )
    def test_out_of_range_budget_is_bad_input_without_oracle(self, flags):
        code, text = run(["equal", "--space", "torus", *flags, "a", "b"])
        assert code == 2
        assert text.startswith("error:")

    def test_json_result_is_a_plain_verdict(self):
        code, text = run(
            ["equal", "--space", "torus", "--json", "a * b", "b * a"]
        )
        assert code == 0
        obj = json.loads(text)
        assert set(obj) == {"cmd", "space", "input", "result", "trace"}
        assert obj["result"] == "equal"
        assert obj["input"] == ["a * b", "b * a"]


class TestEncodeDecode:
    def test_winding_numbers(self):
        assert run(["encode", "--space", "circle", "a * a * a"]) == (0, "3")
        assert run(["encode", "--space", "circle", "~a * ~a"]) == (0, "-2")

    def test_pair_values(self):
        assert run(["encode", "--space", "torus", "b * a * b"]) == (0, "(1, 2)")
        assert run(["encode", "--space", "klein", "b * a"]) == (0, "(1, -1)")

    def test_decode_round_trips_through_text(self):
        assert run(["decode", "--space", "torus", "(2, -1)"]) == (0, "a * a * ~b")
        assert run(["decode", "--space", "circle", "-2"]) == (0, "~a * ~a")
        assert run(["decode", "--space", "rp2", "1"]) == (0, "α")
        assert run(["decode", "--space", "rp2", "0"]) == (0, "refl")

    def test_decoded_text_reparses_to_the_same_value(self):
        for space_name, value in (
            ("circle", "4"),
            ("torus", "(-3, 2)"),
            ("klein", "(2, -2)"),
            ("rp2", "1"),
        ):
            _, path_text = run(["decode", "--space", space_name, value])
            code, round_tripped = run(["encode", "--space", space_name, path_text])
            assert code == 0
            assert round_tripped == value

    def test_encode_json_carries_the_tag(self):
        _, text = run(["encode", "--space", "klein", "--json", "b * a"])
        obj = json.loads(text)
        assert obj["result"] == {"tag": "ZSemidirectZ", "value": "(1, -1)"}


class TestCheck:
    def test_builtin_space_passes(self):
        code, text = run(
            [
                "check", "--space", "circle", "--seed", "1",
                "--samples", "5", "--size", "6", "--max-states", "4000",
            ]
        )
        assert code == 0, text
        lines = text.splitlines()
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_tagged_space_runs_group_suites(self):
        _, text = run(
            [
                "check", "--space", "rp2", "--json", "--seed", "2",
                "--samples", "4", "--size", "5",
            ]
        )
        obj = json.loads(text)
        names = [c["name"] for c in obj["result"]["checks"]]
        assert "group-round-trip" in names
        assert "homomorphism" in names
        assert obj["result"]["passed"] is True
        assert len(names) == 8

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-states", "-1"), ("--samples", "-5"), ("--size", "0")],
    )
    def test_out_of_range_counts_are_bad_input(self, flag, value):
        code, text = run(["check", "--space", "torus", flag, value])
        assert code == 2
        assert text.startswith("error: ") and value in text

    def test_nothing_decided_fails_oracle_agreement(self):
        code, text = run(
            [
                "check", "--space", "torus", "--samples", "3", "--size", "4",
                "--max-states", "0",
            ]
        )
        assert code == 1
        assert "FAIL oracle-agreement: 0/10 decided" in text.splitlines()


    def test_only_a_decided_fast_answer_binds(self, monkeypatch):
        argv = ["check", "--space", "circle", "--samples", "5", "--size", "4"]
        monkeypatch.setattr("pathrw.checks.rw_eq", lambda space, p, q: None)
        code, text = run(argv)
        assert code == 0, text
        assert "PASS oracle-agreement: 10/10 decided, all agree" in text.splitlines()
        monkeypatch.setattr("pathrw.checks.rw_eq", lambda space, p, q: False)
        code, text = run(argv)
        assert code == 1
        assert _failing_detail(text, "oracle-agreement") == (
            "--seed 0, sample 0: normalize said False, search said EQUAL: "
            "~refl * a | refl * a"
        )

    def test_failure_names_seed_sample_and_term(self, monkeypatch):
        seen = []

        def probe(space, t):
            seen.append(t)
            return len(seen) != 3

        monkeypatch.setattr("pathrw.checks.local_confluence_probe", probe)
        code, text = run(
            ["check", "--space", "torus", "--seed", "7", "--samples", "5", "--size", "6"]
        )
        assert code == 1
        detail = _failing_detail(text, "local-confluence")
        head, shown = detail.rsplit(": ", 1)
        assert head == "--seed 7, sample 2: diverging one-step reducts"
        assert parse_path(builtin("torus"), shown) == seen[2]

    def test_failure_renders_every_sample_term(self, monkeypatch):
        seen = []

        def check(space, p, q):
            seen.append((p, q))
            return len(seen) != 2

        monkeypatch.setattr("pathrw.checks.homomorphism_check", check)
        code, text = run(
            [
                "check", "--space", "klein", "--json", "--seed", "3",
                "--samples", "4", "--size", "5",
            ]
        )
        assert code == 1
        (failed,) = [c for c in json.loads(text)["result"]["checks"] if not c["passed"]]
        assert failed["name"] == "homomorphism"
        head, shown = failed["detail"].rsplit(": ", 1)
        assert head == "--seed 3, sample 1: composition broke multiplication"
        klein = builtin("klein")
        assert tuple(parse_path(klein, t) for t in shown.split(" | ")) == seen[1]


class TestSpaces:
    def test_lists_every_builtin(self):
        code, text = run(["spaces"])
        assert code == 0
        for name in ("circle", "cylinder", "mobius", "torus", "klein", "rp2"):
            assert name in text

    def test_json_rows(self):
        _, text = run(["spaces", "--json"])
        obj = json.loads(text)
        assert set(obj) == {"cmd", "space", "input", "result", "trace"}
        rows = obj["result"]
        assert [r["name"] for r in rows] == [
            "circle", "cylinder", "mobius", "torus", "klein", "rp2",
        ]
        torus_row = rows[3]
        assert torus_row["relations"] == ["torusComm"]
        assert torus_row["group"] == "ZxZ"
        cyl_row = rows[1]
        assert cyl_row["points"] == ["b0", "b1"]
        assert cyl_row["basepoint"] == "b0"


class TestSpaceFiles:
    def test_normalize_in_a_loaded_space(self, strip_path):
        assert run(
            ["normalize", "--space-file", strip_path, "c * ~c * u"]
        ) == (0, "u")

    def test_relations_reach_the_oracle_but_not_normal_forms(self, strip_path):
        # Free normal forms ignore the uu relation; the search applies it.
        code, _ = run(["equal", "--space-file", strip_path, "u * u", "refl(p)"])
        assert code == 1
        code, text = run(
            ["equal", "--space-file", strip_path, "--oracle", "u * u", "refl(p)"]
        )
        assert code == 0, text

    def test_check_suites_run_without_a_tag(self, strip_path):
        code, text = run(
            [
                "check", "--space-file", strip_path, "--json",
                "--samples", "4", "--size", "5",
            ]
        )
        assert code == 0, text
        obj = json.loads(text)
        names = [c["name"] for c in obj["result"]["checks"]]
        assert "group-round-trip" not in names
        assert len(names) == 6

    def test_check_passes_on_a_loaded_torus(self, torus_path):
        # the relation step a * b -> b * a changes the free normal form,
        # which is no confluence counterexample
        code, text = run(["check", "--space-file", torus_path])
        assert code == 0, text

    def test_differing_normal_forms_are_undecided_with_relations(self, torus_path):
        assert run(["equal", "--space-file", torus_path, "a * b", "b * a"]) == (
            1, "undecided",
        )
        code, text = run(
            ["equal", "--space-file", torus_path, "--json", "a * b", "b * a"]
        )
        assert code == 1
        assert json.loads(text)["result"] == "undecided"
        code, text = run(
            ["equal", "--space-file", torus_path, "--oracle", "a * b", "b * a"]
        )
        assert (code, text) == (0, "equal (searched 1 states)")
        # equal normal forms still decide
        assert run(
            ["equal", "--space-file", torus_path, "a * ~a * b", "b"]
        ) == (0, "equal")

    def test_without_relations_normal_forms_decide(self, tmp_path):
        f = tmp_path / "free.space"
        f.write_text("point pt\ngen a : pt -> pt\ngen b : pt -> pt\n")
        assert run(["equal", "--space-file", str(f), "a * b", "b * a"]) == (
            1, "not-equal",
        )

    @pytest.mark.parametrize("text", [
        "point pt\ngen : pt -> pt\n",
        "point pt\ngen refl : pt -> pt\n",
        "point pt\ngen a*b : pt -> pt\n",
        "point p-t\ngen a : p-t -> p-t\n",
    ])
    def test_names_the_grammar_cannot_spell_exit_two(self, tmp_path, text):
        f = tmp_path / "bad.space"
        f.write_text(text)
        code, out = run(["normalize", "--space-file", str(f), "refl"])
        assert code == 2
        assert "BadName" in out

    def test_encode_refuses_untagged_spaces(self, strip_path):
        code, text = run(["encode", "--space-file", strip_path, "u"])
        assert code == 2
        assert "error:" in text

    def test_decode_refuses_untagged_spaces(self, strip_path):
        code, text = run(["decode", "--space-file", strip_path, "1"])
        assert code == 2


class TestErrorExits:
    def test_unknown_space(self):
        code, text = run(["normalize", "--space", "pretzel", "a"])
        assert code == 2
        assert "pretzel" in text

    def test_space_required(self):
        code, _ = run(["normalize", "a"])
        assert code == 2

    def test_both_space_flags_rejected(self, strip_path):
        code, _ = run(
            ["normalize", "--space", "circle", "--space-file", strip_path, "a"]
        )
        assert code == 2

    def test_parse_error_in_expression(self):
        code, text = run(["normalize", "--space", "circle", "a * * a"])
        assert code == 2
        assert "error:" in text

    def test_unknown_generator(self):
        code, _ = run(["normalize", "--space", "circle", "z"])
        assert code == 2

    def test_missing_space_file(self):
        code, _ = run(["normalize", "--space-file", "/nonexistent/x.space", "a"])
        assert code == 2

    def test_malformed_group_value(self):
        code, _ = run(["decode", "--space", "torus", "whatever"])
        assert code == 2
        code, _ = run(["decode", "--space", "rp2", "7"])
        assert code == 2

    def test_argparse_failures_exit_two(self):
        code, _ = run([])
        assert code == 2
        code, _ = run(["normalize"])
        assert code == 2
        code, _ = run(["no-such-command"])
        assert code == 2

    def test_long_digit_runs_are_bad_input(self):
        code, text = run(["decode", "--space", "circle", "9" * 5000])
        assert (code, text) == (
            2, "error: value too large: a number of 5,000 digits, the limit is "
            "1,000,000 nodes",
        )
        code, text = run(["normalize", "--space", "circle", "a^" + "9" * 5000])
        assert (code, text) == (
            2, "error: term too large: a number of 5,000 digits, the limit is "
            "1,000,000 nodes",
        )
        assert run(["decode", "--space", "circle", "0" * 4999 + "3"]) == (0, "a * a * a")

    @pytest.mark.parametrize("space, value, message", [
        ("circle", "1_000", "FreeZ values are integers; got '1_000'"),
        ("circle", "+5", "FreeZ values are integers; got '+5'"),
        ("torus", "(+1, 0_1)", "bad integer in '(+1, 0_1)'"),
    ])
    def test_decode_reads_integers_as_exponents_do(self, space, value, message):
        # `normalize --space circle "a^1_000"` is refused, so `decode` is too
        assert run(["decode", "--space", space, value]) == (2, f"error: {message}")

    def test_endpoint_mismatch_is_reported(self):
        code, text = run(["equal", "--space", "cylinder", "s", "l0"])
        assert code == 2
        assert "error:" in text

    @pytest.mark.parametrize("argv", [
        ["decode", "--space", "circle", "100000000"],
        ["normalize", "--space", "circle", "a^100000000"],
    ])
    def test_oversized_input_is_refused_before_building(self, argv):
        # a fresh interpreter with a time limit and a 1 GiB address space,
        # so a missing size check fails the test instead of exhausting memory
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "pathrw", *argv],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=limit_memory,
        )
        assert done.returncode == 2
        assert "the limit is 1,000,000" in done.stderr


# run in a fresh interpreter: it limits its own address space, runs the
# command and prints [exit code, output, peak RSS in KiB] as JSON
_LIMITED_CHILD = """\
import json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from pathrw.cli import run
code, text = run(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, text, peak]))
"""


def run_limited(argv, max_bytes, timeout=120):
    """`run(argv)` in a child process whose address space is capped at
    `max_bytes`, so a runaway command fails alone instead of exhausting the
    machine. Returns the exit code, the output text and the child's peak
    resident set size in bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(max_bytes), *argv],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    code, text, peak_kib = json.loads(done.stdout)
    return code, text, peak_kib * 1024


class TestSearchMemory:
    def test_long_powers_answer_undecided_within_the_work_bound(self):
        # with the state budget alone this search ran 200,000 states and
        # peaked at 2.5 GB before answering; the neighbour bound stops it
        # long before that
        limit = 500 << 20
        code, text, peak = run_limited(
            ["equal", "--oracle", "--space", "circle", "a^12", "a^13"], limit
        )
        assert code == 1 and text.startswith("undecided (searched ")
        assert peak < limit


class TestDeepInputs:
    # each of these once died with a RecursionError (exit 1)
    def test_oracle_compares_deep_inputs(self):
        assert run(
            ["equal", "--oracle", "--space", "circle", "a^3000", "a^3000"]
        ) == (0, "equal (searched 0 states)")

    def test_a_deep_relation_side_reaches_the_oracle(self, tmp_path):
        # every search interns the relation sides, here 3,000 levels deep;
        # b is a^3000, so the not-equal holds only within the cap
        f = tmp_path / "big.space"
        f.write_text("point pt\ngen a : pt -> pt\ngen b : pt -> pt\n"
                     "rel big : a^3000 = b\n")
        code, text = run(["check", "--space-file", str(f), "--samples", "3"])
        assert code == 0 and text.endswith("all checks passed")
        code, text = run(["equal", "--oracle", "--space-file", str(f), "a * b", "b * a"])
        assert code == 1 and text.startswith("not-equal within size cap 9 (")

    def test_decode_renders_a_deep_loop(self):
        code, text = run(["decode", "--space", "circle", "5000"])
        assert code == 0
        assert text == " * ".join(["a"] * 5000)

    @pytest.mark.parametrize("expr", [
        "~" * 1500 + "a",
        "(" * 3000 + "a" + ")" * 3000,
    ])
    def test_normalize_reads_deep_nesting(self, expr):
        assert run(["normalize", "--space", "circle", expr]) == (0, "a")

    @pytest.mark.parametrize("space, expr", [
        ("cylinder", "l0^3000"),
        ("mobius", "a^3000"),
    ])
    def test_encode_retracts_a_deep_loop(self, space, expr):
        assert run(["encode", "--space", space, expr]) == (0, "3000")

    def test_check_draws_deep_terms(self):
        # drawing and sizing a term of 2,000 nodes once recursed per node
        code, text = run(
            ["check", "--space", "circle", "--samples", "1", "--size", "2000"]
        )
        assert code == 0 and text.endswith("all checks passed")


_SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = tuple(
    sorted(f"pathrw.{p.stem}" for p in (_SRC / "pathrw").glob("[!_]*.py"))
)


class TestColdStart:
    def _loaded(self, imports, modules, call=""):
        """Which of `modules` a fresh interpreter holds after `imports` and
        then `call`."""
        # -S keeps site-packages' start-up hooks, which may import typing,
        # out of the fresh interpreter
        probe = (
            f"import sys, {imports}\n{call}\n"
            f"print(*[m for m in {modules!r} if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(_SRC)),
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_import_loads_only_what_a_call_uses(self):
        modules = (
            "typing", "argparse", "json", "pathrw.checks", "dataclasses", "inspect", "re",
        )
        assert self._loaded("pathrw, pathrw.cli", modules) == []

    def test_check_suites_load_no_dataclasses(self):
        assert self._loaded("pathrw.checks", ("dataclasses", "inspect")) == []

    def test_import_loads_no_submodule(self):
        assert "pathrw.oracle" in SUBMODULES
        assert self._loaded("pathrw", SUBMODULES) == []

    def test_normalize_loads_neither_the_oracle_nor_the_groups(self):
        modules = ("pathrw.oracle", "pathrw.pi1", "pathrw.groupoid", "pathrw.checks")
        call = 'assert pathrw.cli.run(["normalize", "--space", "torus", "b * a"])[0] == 0'
        assert self._loaded("pathrw.cli", modules, call) == []

    def test_encode_loads_the_groups_but_not_the_oracle(self):
        modules = ("pathrw.oracle", "pathrw.pi1")
        call = 'assert pathrw.cli.run(["encode", "--space", "torus", "b * a"])[0] == 0'
        assert self._loaded("pathrw.cli", modules, call) == ["pathrw.pi1"]

    def test_equal_loads_the_oracle_only_for_a_search_or_a_budget(self):
        call = 'assert pathrw.cli.run(["equal", "--space", "torus", "a", "a"])[0] == 0'
        assert self._loaded("pathrw.cli", ("pathrw.oracle",), call) == []
        call = (
            'assert pathrw.cli.run(["equal", "--space", "torus", '
            '"--max-states", "5", "a", "a"])[0] == 0'
        )
        assert self._loaded("pathrw.cli", ("pathrw.oracle",), call) == ["pathrw.oracle"]


class TestCLocale:
    """The console script under the C locale, with neither UTF-8 mode nor
    locale coercion: space files are read and text is written as UTF-8."""

    def _pathrw(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(_SRC), LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        done = subprocess.run(
            [sys.executable, "-m", "pathrw", *argv],
            capture_output=True, timeout=60, env=env,
        )
        return done.returncode, done.stdout, done.stderr

    def test_display_names_print_as_utf8(self):
        assert self._pathrw("normalize", "--space", "rp2", "alpha") == (
            0, "α\n".encode(), b""
        )

    def test_space_files_are_read_as_utf8(self, tmp_path):
        f = tmp_path / "beta.space"
        f.write_bytes("point pt\ngen a : pt -> pt\ngen β : pt -> pt\n".encode())
        assert self._pathrw("normalize", "--space-file", str(f), "a * ~a") == (
            0, b"refl\n", b""
        )

    def test_main_writes_to_any_text_stream(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pathrw", "normalize", "--space", "rp2", "alpha"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main() == 0
        assert out.getvalue() == "α\n"

    def test_an_argument_that_is_not_utf8_is_bad_input(self):
        code, out, err = self._pathrw("normalize", "--space", "circle", b"\xff")
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: unexpected character ")

    def test_arguments_are_read_as_utf8(self):
        assert self._pathrw("normalize", "--space", "rp2", "α".encode()) == (
            0, "α\n".encode(), b""
        )

    def test_a_file_generator_is_named_in_utf8(self, tmp_path):
        f = tmp_path / "beta.space"
        f.write_bytes("point pt\ngen a : pt -> pt\ngen β : pt -> pt\n".encode())
        expr = "β * a * ~a".encode()
        assert self._pathrw("normalize", "--space-file", str(f), expr) == (
            0, "β\n".encode(), b""
        )


_SPACE_OPTIONS = """\
  -h, --help            show this help message and exit
  --space SPACE         builtin space name
  --space-file SPACE_FILE
                        path to a presentation file
  --json                emit one JSON object
"""
_TOP_USAGE = "usage: pathrw [-h] {normalize,equal,encode,decode,check,spaces} ...\n"
_NORMALIZE_USAGE = """\
usage: pathrw normalize [-h] [--space SPACE] [--space-file SPACE_FILE]
                        [--json] [--emit-trace]
                        expr
"""

# what `pathrw --help` and each subcommand's --help print, at 80 columns
HELP_TEXT = {
    (): _TOP_USAGE + """
normalize, compare, and count paths in presented spaces

positional arguments:
  {normalize,equal,encode,decode,check,spaces}
    normalize           rewrite a path to normal form
    equal               decide equality of two paths
    encode              group element of a basepoint loop
    decode              canonical loop of a group element
    check               run self-check suites
    spaces              list builtin spaces

options:
  -h, --help            show this help message and exit
""",
    ("normalize",): _NORMALIZE_USAGE + """
positional arguments:
  expr                  path expression

options:
""" + _SPACE_OPTIONS + """\
  --emit-trace          also print every rewrite step taken
""",
    ("equal",): """\
usage: pathrw equal [-h] [--space SPACE] [--space-file SPACE_FILE] [--json]
                    [--oracle] [--max-states MAX_STATES]
                    [--max-term-size MAX_TERM_SIZE]
                    expr1 expr2

positional arguments:
  expr1
  expr2

options:
""" + _SPACE_OPTIONS + """\
  --oracle              decide by exhaustive search instead of normal forms
  --max-states MAX_STATES
  --max-term-size MAX_TERM_SIZE
""",
    ("encode",): """\
usage: pathrw encode [-h] [--space SPACE] [--space-file SPACE_FILE] [--json]
                     expr

positional arguments:
  expr

options:
""" + _SPACE_OPTIONS,
    ("decode",): """\
usage: pathrw decode [-h] [--space SPACE] [--space-file SPACE_FILE] [--json]
                     value

positional arguments:
  value                 group element, e.g. 3 or (2, -1)

options:
""" + _SPACE_OPTIONS,
    ("check",): """\
usage: pathrw check [-h] [--space SPACE] [--space-file SPACE_FILE] [--json]
                    [--seed SEED] [--samples SAMPLES] [--size SIZE]
                    [--max-states MAX_STATES] [--max-term-size MAX_TERM_SIZE]

options:
""" + _SPACE_OPTIONS + """\
  --seed SEED
  --samples SAMPLES
  --size SIZE           largest sampled term
  --max-states MAX_STATES
  --max-term-size MAX_TERM_SIZE
""",
    ("spaces",): """\
usage: pathrw spaces [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json
""",
}

# what a malformed command line prints to stderr, after which it exits 2
USAGE_ERRORS = {
    (): _TOP_USAGE + "pathrw: error: the following arguments are required: cmd\n",
    ("frobnicate",): _TOP_USAGE + (
        "pathrw: error: argument cmd: invalid choice: 'frobnicate' (choose from "
        "'normalize', 'equal', 'encode', 'decode', 'check', 'spaces')\n"
    ),
    ("normalize", "--space", "circle"): _NORMALIZE_USAGE + (
        "pathrw normalize: error: the following arguments are required: expr\n"
    ),
}


# argparse words and wraps its help differently across Python versions
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="text pinned on 3.11")
class TestHelpText:
    """The help and usage text, byte for byte, as the console script prints
    it at 80 columns."""

    def _main(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["pathrw", *argv])
        code = main()
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("cmd", list(HELP_TEXT))
    def test_help(self, monkeypatch, capsys, cmd):
        assert self._main(monkeypatch, capsys, [*cmd, "--help"]) == (
            0, HELP_TEXT[cmd], ""
        )

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS))
    def test_usage_error(self, monkeypatch, capsys, argv):
        assert self._main(monkeypatch, capsys, list(argv)) == (
            2, "", USAGE_ERRORS[argv]
        )


# argv tokens for the parser alone: the subcommand names and a prefix of
# one, every option and some abbreviations of them, `--`, and values
_ARGV_TOKENS = list(dict.fromkeys([
    *_COMMANDS, "norm",
    *(arg for _, args in _COMMANDS.values() for arg, _, _ in args if arg[0] == "-"),
    "-h", "--help", "--he", "--sp", "--space-f", "--max", "--max-s", "--em",
    "--", "circle", "a * b", "3", "x",
]))


class TestParserArguments:
    """The parser builds a subparser, with its arguments and help option,
    only for the subcommands argv names; the others stay choices with a help
    line, and argparse fetches no other subparser."""

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_only_the_named_subcommand_gets_arguments(self, monkeypatch, name):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def recording(parser, *args, **kwargs):
            added.append((parser.prog, args[0]))
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
        _build_parser([name])
        rows = [arg for arg, _, _ in _COMMANDS[name][1]]
        prog = f"pathrw {name}"
        assert added == [("pathrw", "-h"), (prog, "-h"), *((prog, a) for a in rows)]

    @pytest.mark.parametrize("argv, named", [
        *(([name], [name]) for name in _COMMANDS),
        (["normalize", "--space", "circle", "equal"], ["normalize", "equal"]),
    ])
    def test_only_the_named_subparsers_are_built(self, monkeypatch, argv, named):
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(parser, *args, **kwargs):
            built.append(kwargs["prog"])
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        parser = _build_parser(argv)
        assert built == ["pathrw", *(f"pathrw {name}" for name in named)]
        (sub,) = parser._get_positional_actions()
        assert list(sub.choices) == list(_COMMANDS)

    # no handler runs, so a named `check` costs only its parser
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(argv=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=8))
    def test_any_argv_parses_to_a_named_command_or_exits_0_or_2(self, argv):
        # a placeholder for an unbuilt subparser would raise AttributeError
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                args = _build_parser(argv).parse_args(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2), argv
            else:
                assert args.cmd in argv


# command lines and what `main` printed for each at 80 columns, captured
# while all six subparsers were still built, each with its help option and
# most with all their arguments: help before and after each subcommand and
# through abbreviations, unknown options, missing positionals, bad integers,
# abbreviations, `--`, subcommand names as arguments, paths with different
# endpoints, and plain runs
CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="text pinned on 3.11")
class TestArgvCorpus:
    @pytest.mark.parametrize(
        "case", CORPUS, ids=[" ".join(c["argv"]) or "(empty)" for c in CORPUS]
    )
    def test_main(self, monkeypatch, capsys, case):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["pathrw", *case["argv"]])
        code = main()
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])

# the grammar's own alphabet, as tokens, so drawn texts get past the
# tokenizer into the parser and the commands behind it
_TOKENS = ["a", "b", "~", "*", "^", "(", ")", "-", " ", "refl", *"0123456789"]
_TEXTS = st.lists(st.sampled_from(_TOKENS), max_size=40).map(
    lambda tokens: "".join(tokens)[:40]
)


class TestNoTraceback:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        space=st.sampled_from(["circle", "torus", "mobius"]),
        left=_TEXTS,
        right=_TEXTS,
    )
    def test_any_text_exits_0_1_or_2(self, space, left, right):
        for argv in (
            ["normalize", "--space", space, left],
            ["equal", "--space", space, left, right],
            ["encode", "--space", space, left],
            ["decode", "--space", space, left],
        ):
            code, _ = run(argv)
            assert code in (0, 1, 2), argv


class TestOutputsReplay:
    def test_normal_form_text_reparses_to_the_same_class(self):
        # The printed normal form is itself a valid input naming the same path.
        for space_name, expr in (
            ("torus", "b * a * ~b * a"),
            ("klein", "a * b * a"),
            ("cylinder", "s * l1 * ~s * l0"),
        ):
            space = builtin(space_name)
            code, text = run(["normalize", "--space", space_name, expr])
            assert code == 0
            original = normalize(space, parse_path(space, expr))
            reparsed = normalize(space, parse_path(space, text))
            assert reparsed == original
