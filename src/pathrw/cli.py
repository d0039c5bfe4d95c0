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
decode refuse them, and where they declare relations, `rw_eq`, so `equal`
without --oracle, answers undecided for differing free normal forms).
--json swaps the text output for a single JSON object with exactly the keys
cmd, space, input, result, trace; `run` writes it, from what each handler
returns, in one place.

Exit codes: 0 success; 1 a negative or undecided answer (paths differ, a
check failed, equality undecided); 2 bad input (parse errors, unknown
names, malformed values).

Sources may be compiled at every start, so no module of the package
imports `typing`, the records are plain slotted classes that load nothing
such as `inspect`, `ast`, `dis` or `tokenize`, and this one loads argparse,
json, the search oracle, the loop groups (`pi1`) and the check suites only
when a command uses them. Each call builds all six subparsers but adds
arguments only to those whose name is one of its argv strings: argparse runs
no other, so every help, usage and error text reads as if all had them.
"""

from __future__ import annotations

import os
import sys

from .errors import PathError
from .rewrite import format_step, normalize, rw_eq, trace
from .spaces import BUILTIN_NAMES, SpacePresentation, builtin
from .syntax import parse_path, parse_space_file, render_path, render_word

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse


_FLAG, _INT = {"action": "store_true"}, {"type": int}
_SPACE_ARGS = (
    ("--space", "builtin space name", {}),
    ("--space-file", "path to a presentation file", {}),
    ("--json", "emit one JSON object", _FLAG),
)
_BUDGET_ARGS = (("--max-states", None, _INT), ("--max-term-size", None, _INT))

# each subcommand's help line and its arguments, as (name, help, options)
_COMMANDS = {
    "normalize": ("rewrite a path to normal form", (
        *_SPACE_ARGS,
        ("expr", "path expression", {}),
        ("--emit-trace", "also print every rewrite step taken", _FLAG),
    )),
    "equal": ("decide equality of two paths", (
        *_SPACE_ARGS, ("expr1", None, {}), ("expr2", None, {}),
        ("--oracle", "decide by exhaustive search instead of normal forms", _FLAG),
        *_BUDGET_ARGS,
    )),
    "encode": ("group element of a basepoint loop", (*_SPACE_ARGS, ("expr", None, {}))),
    "decode": ("canonical loop of a group element", (
        *_SPACE_ARGS, ("value", "group element, e.g. 3 or (2, -1)", {}),
    )),
    "check": ("run self-check suites", (
        *_SPACE_ARGS,
        ("--seed", None, {"type": int, "default": 0}),
        ("--samples", None, {"type": int, "default": 50}),
        ("--size", "largest sampled term", {"type": int, "default": 12}),
        *_BUDGET_ARGS,
    )),
    "spaces": ("list builtin spaces", (("--json", None, _FLAG),)),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="pathrw",
        description="normalize, compare, and count paths in presented spaces",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        # argparse runs only the subparser whose name is one of the argv
        # strings, so the others need no arguments
        if name in argv:
            for arg, arg_help, options in arguments:
                p.add_argument(arg, help=arg_help, **options)
    return parser


def _load_space(args: argparse.Namespace) -> SpacePresentation:
    name, path = args.space, args.space_file
    if name and path:
        raise PathError("give --space or --space-file, not both")
    if path:
        return parse_space_file(path)
    if not name:
        raise PathError("a space is required: --space NAME or --space-file PATH")
    return builtin(name)


# Each handler returns (exit code, input, result, trace, text): the first
# four fill the --json object, the text is the plain output.


def _run_normalize(args, space):
    p = parse_path(space, args.expr)
    if args.emit_trace:
        nf, steps = trace(space, p)
        lines = [format_step(s, space) for s in steps]
    else:
        nf, lines = normalize(space, p), None
    rendered = render_word(space, nf.word)
    result = {
        "normal_form": rendered,
        "letters": [[n, s] for n, s in nf.word.letters],
        "src": nf.word.src,
        "tgt": nf.word.tgt,
    }
    return 0, args.expr, result, lines, "\n".join([*(lines or ()), rendered])


_VERDICTS = {True: "equal", False: "not-equal", None: "undecided"}


def _run_equal(args, space):
    p = parse_path(space, args.expr1)
    q = parse_path(space, args.expr2)
    # a given search budget is checked with or without --oracle, so
    # out-of-range values are bad input either way; the defaults are valid,
    # so a plain `equal` loads no oracle
    if args.oracle or args.max_states is not None or args.max_term_size is not None:
        from .oracle import DEFAULT_MAX_STATES, Budget, _size_cap, bfs_rw_eq

        max_states = DEFAULT_MAX_STATES if args.max_states is None else args.max_states
        budget = Budget(max_states=max_states, max_term_size=args.max_term_size)
    if args.oracle:
        verdict = bfs_rw_eq(space, p, q, budget)
        result = _VERDICTS[verdict.is_equal if verdict.is_decided else None]
        cap = _size_cap(budget, p, q)  # a not-equal holds within it only
        within = f" within size cap {cap}" if result == "not-equal" else ""
        detail = f"{result}{within} (searched {verdict.explored} states)"
    else:
        detail = result = _VERDICTS[rw_eq(space, p, q)]
    code = 0 if result == "equal" else 1
    return code, [args.expr1, args.expr2], result, None, detail


def _run_encode(args, space):
    from .pi1 import encode, render_group_value

    value = encode(space, parse_path(space, args.expr))
    rendered = render_group_value(value)
    return 0, args.expr, {"tag": value.tag.value, "value": rendered}, None, rendered


def _run_decode(args, space):
    from .pi1 import _group_record, decode, parse_group_value

    _group_record(space, "decode")  # a value parses only against a group tag
    cls = decode(space, parse_group_value(space.group_tag, args.value))
    rendered = render_path(space, cls.representative())
    result = {"path": rendered, "src": cls.src, "tgt": cls.tgt}
    return 0, args.value, result, None, rendered


def _run_check(args, space):
    from .checks import CHECK_MAX_STATES, run_checks
    from .oracle import Budget

    max_states = CHECK_MAX_STATES if args.max_states is None else args.max_states
    budget = Budget(max_states=max_states, max_term_size=args.max_term_size)
    results = run_checks(
        space,
        seed=args.seed,
        samples=args.samples,
        max_size=args.size,
        budget=budget,
    )
    ok = all(r.passed for r in results)
    result = {
        "passed": ok,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    lines.append("all checks passed" if ok else "CHECKS FAILED")
    input_ = {"seed": args.seed, "samples": args.samples, "size": args.size}
    return (0 if ok else 1), input_, result, None, "\n".join(lines)


def _run_spaces(args, space):
    rows = []
    lines = []
    for name in BUILTIN_NAMES:
        sp = builtin(name)
        gens = [{"name": g.name, "src": g.src, "tgt": g.tgt} for g in sp.generators]
        rels = [r.name for r in sp.relations]
        group = sp.group_tag.value if sp.group_tag else None
        rows.append(
            {
                "name": name,
                "points": list(sp.points),
                "generators": gens,
                "relations": rels,
                "basepoint": sp.basepoint,
                "group": group,
            }
        )
        shown = ", ".join(f"{g['name']}: {g['src']}->{g['tgt']}" for g in gens)
        lines.append(
            f"{name:9s} points: {', '.join(sp.points)}; generators: {shown}; "
            f"relations: {', '.join(rels) or 'none'}; group: {group}"
        )
    return 0, None, rows, None, "\n".join(lines)


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
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return (2 if exc.code else 0), ""
    try:
        space = None if args.cmd == "spaces" else _load_space(args)
        code, input_, result, trace_, text = _HANDLERS[args.cmd](args, space)
    except (PathError, OSError, ValueError) as exc:
        return 2, f"error: {exc}"
    if args.json:
        import json

        payload = {
            "cmd": args.cmd,
            "space": None if space is None else space.name,
            "input": input_,
            "result": result,
            "trace": trace_,
        }
        text = json.dumps(payload, indent=2)
    return code, text


def main() -> int:
    # arguments are UTF-8 under any locale: undo the file-system decoding;
    # bytes that are not UTF-8 stay lone surrogates, which the parser refuses
    argv = [os.fsencode(a).decode("utf-8", "surrogateescape") for a in sys.argv[1:]]
    code, text = run(argv)
    if text:
        out = sys.stderr if code == 2 else sys.stdout
        if hasattr(out, "reconfigure"):  # a StringIO has no encoding to set
            # UTF-8 under any locale; stderr keeps its handler, which never raises
            out.reconfigure(encoding="utf-8", errors=out.errors)
        print(text, file=out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
