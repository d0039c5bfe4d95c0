"""Command line front end.

Subcommands:

    normalize   put a path expression in normal form (optionally with the
                full step trace)
    equal       decide whether two path expressions name the same path
    encode      turn a basepoint loop into a group element
    decode      turn a group element back into a canonical loop
    check       run the self-check suites against a space
    spaces      list the builtin spaces

Every subcommand accepts --space NAME (builtin) or --space-file PATH (a
presentation file; such spaces carry no group structure, so encode and
decode refuse them). --json swaps the text output for a single JSON object
with exactly the keys cmd, space, input, result, trace.

Exit codes: 0 success; 1 a negative decision (paths differ, a check
failed, the search was undecided); 2 bad input (parse errors, unknown
names, malformed values).
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_checks
from .errors import PathError
from .oracle import DEFAULT_MAX_STATES, Budget, bfs_rw_eq
from .pi1 import encode, decode, parse_group_value, render_group_value
from .rewrite import format_step, normalize, rw_eq, trace
from .spaces import BUILTIN_NAMES, SpacePresentation, builtin, parse_space_file
from .syntax import parse_path, render_path, render_word


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathrw",
        description="normalize, compare, and count paths in presented spaces",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_space_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--space", help="builtin space name")
        p.add_argument("--space-file", help="path to a presentation file")
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p_norm = sub.add_parser("normalize", help="rewrite a path to normal form")
    add_space_args(p_norm)
    p_norm.add_argument("expr", help="path expression")
    p_norm.add_argument(
        "--emit-trace",
        action="store_true",
        help="also print every rewrite step taken",
    )

    p_eq = sub.add_parser("equal", help="decide equality of two paths")
    add_space_args(p_eq)
    p_eq.add_argument("expr1")
    p_eq.add_argument("expr2")
    p_eq.add_argument(
        "--oracle",
        action="store_true",
        help="decide by exhaustive search instead of normal forms",
    )
    p_eq.add_argument("--max-states", type=int, default=None)
    p_eq.add_argument("--max-term-size", type=int, default=None)

    p_enc = sub.add_parser("encode", help="group element of a basepoint loop")
    add_space_args(p_enc)
    p_enc.add_argument("expr")

    p_dec = sub.add_parser("decode", help="canonical loop of a group element")
    add_space_args(p_dec)
    p_dec.add_argument("value", help="group element, e.g. 3 or (2, -1)")

    p_chk = sub.add_parser("check", help="run self-check suites")
    add_space_args(p_chk)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--samples", type=int, default=50)
    p_chk.add_argument("--size", type=int, default=12, help="largest sampled term")
    p_chk.add_argument("--max-states", type=int, default=20_000)
    p_chk.add_argument("--max-term-size", type=int, default=None)

    p_sp = sub.add_parser("spaces", help="list builtin spaces")
    p_sp.add_argument("--json", action="store_true")

    return parser


def _load_space(args: argparse.Namespace) -> SpacePresentation:
    name = getattr(args, "space", None)
    path = getattr(args, "space_file", None)
    if name and path:
        raise PathError("give --space or --space-file, not both")
    if path:
        return parse_space_file(path)
    if not name:
        raise PathError("a space is required: --space NAME or --space-file PATH")
    if name not in BUILTIN_NAMES:
        raise PathError(
            f"unknown space '{name}'; builtins are {', '.join(BUILTIN_NAMES)}"
        )
    return builtin(name)


def _emit(args, cmd: str, space_name: str | None, input_, result, trace_):
    if getattr(args, "json", False):
        payload = {
            "cmd": cmd,
            "space": space_name,
            "input": input_,
            "result": result,
            "trace": trace_,
        }
        return json.dumps(payload, indent=2)
    return None


def _run_normalize(args) -> tuple[int, str]:
    space = _load_space(args)
    p = parse_path(space, args.expr)
    if args.emit_trace:
        nf, steps = trace(space, p)
        lines = [format_step(s, space) for s in steps]
    else:
        nf = normalize(space, p)
        steps = None
        lines = []
    rendered = render_word(space, nf.word)
    out = _emit(
        args,
        "normalize",
        space.name,
        args.expr,
        {
            "normal_form": rendered,
            "letters": [[n, s] for n, s in nf.word.letters],
            "src": nf.word.src,
            "tgt": nf.word.tgt,
        },
        lines if steps is not None else None,
    )
    if out is not None:
        return 0, out
    text_lines = list(lines)
    text_lines.append(rendered)
    return 0, "\n".join(text_lines)


def _run_equal(args) -> tuple[int, str]:
    space = _load_space(args)
    p = parse_path(space, args.expr1)
    q = parse_path(space, args.expr2)
    trace_ = None
    # the search budget is checked with or without --oracle, so out-of-range
    # values are bad input either way
    budget = Budget(
        max_states=(
            DEFAULT_MAX_STATES if args.max_states is None else args.max_states
        ),
        max_term_size=args.max_term_size,
    )
    if args.oracle:
        verdict = bfs_rw_eq(space, p, q, budget)
        if verdict.kind == "EQUAL":
            result, code = "equal", 0
        elif verdict.kind == "NOT_EQUAL_WITHIN_BUDGET":
            result, code = "not-equal", 1
        else:
            result, code = "undecided", 1
        detail = f"{result} (searched {verdict.explored} states)"
    else:
        same = rw_eq(space, p, q)
        result = "equal" if same else "not-equal"
        code = 0 if same else 1
        detail = result
    out = _emit(args, "equal", space.name, [args.expr1, args.expr2], result, trace_)
    if out is not None:
        return code, out
    return code, detail


def _run_encode(args) -> tuple[int, str]:
    space = _load_space(args)
    p = parse_path(space, args.expr)
    value = encode(space, p)
    rendered = render_group_value(value)
    out = _emit(
        args,
        "encode",
        space.name,
        args.expr,
        {"tag": value.tag.value, "value": rendered},
        None,
    )
    if out is not None:
        return 0, out
    return 0, rendered


def _run_decode(args) -> tuple[int, str]:
    space = _load_space(args)
    if space.group_tag is None:
        raise PathError(
            f"space '{space.name}' carries no group tag; decode is undefined"
        )
    value = parse_group_value(space.group_tag, args.value)
    cls = decode(space, value)
    rendered = render_path(space, cls.representative())
    out = _emit(
        args,
        "decode",
        space.name,
        args.value,
        {"path": rendered, "src": cls.src, "tgt": cls.tgt},
        None,
    )
    if out is not None:
        return 0, out
    return 0, rendered


def _run_check(args) -> tuple[int, str]:
    space = _load_space(args)
    budget = Budget(
        max_states=args.max_states, max_term_size=args.max_term_size
    )
    results = run_checks(
        space,
        seed=args.seed,
        samples=args.samples,
        max_size=args.size,
        budget=budget,
    )
    ok = all(r.passed for r in results)
    out = _emit(
        args,
        "check",
        space.name,
        {"seed": args.seed, "samples": args.samples, "size": args.size},
        {
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
        None,
    )
    if out is not None:
        return (0 if ok else 1), out
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return (0 if ok else 1), "\n".join(lines)


def _run_spaces(args) -> tuple[int, str]:
    rows = []
    for name in BUILTIN_NAMES:
        sp = builtin(name)
        rows.append(
            {
                "name": name,
                "points": list(sp.points),
                "generators": [
                    {"name": g.name, "src": g.src, "tgt": g.tgt}
                    for g in sp.generators
                ],
                "relations": [r.name for r in sp.relations],
                "basepoint": sp.basepoint,
                "group": sp.group_tag.value if sp.group_tag else None,
            }
        )
    out = _emit(args, "spaces", None, None, rows, None)
    if out is not None:
        return 0, out
    lines = []
    for row in rows:
        gens = ", ".join(
            f"{g['name']}: {g['src']}->{g['tgt']}" for g in row["generators"]
        )
        rels = ", ".join(row["relations"]) or "none"
        lines.append(
            f"{row['name']:9s} points: {', '.join(row['points'])}; "
            f"generators: {gens}; relations: {rels}; group: {row['group']}"
        )
    return 0, "\n".join(lines)


_HANDLERS = {
    "normalize": _run_normalize,
    "equal": _run_equal,
    "encode": _run_encode,
    "decode": _run_decode,
    "check": _run_check,
    "spaces": _run_spaces,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return (2 if exc.code else 0), ""
    try:
        return _HANDLERS[args.cmd](args)
    except PathError as exc:
        return 2, f"error: {exc}"
    except (OSError, ValueError) as exc:
        return 2, f"error: {exc}"


def main() -> int:
    code, text = run(sys.argv[1:])
    if text:
        print(text, file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
