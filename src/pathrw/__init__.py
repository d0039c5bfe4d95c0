"""Paths in finitely presented spaces: terms, rewriting, loop groups.

The package models a space as points, named generator paths, and named
relations between composite paths. Path terms are compared by a rewriting
engine with per-space canonical forms; basepoint loops translate to and
from concrete group elements; an exhaustive search oracle double-checks
the engine from the outside.

`_EXPORTS` names each public name's module once. A module is imported the
first time one of its names is read (PEP 562), so `import pathrw` loads no
submodule, and an error raised while importing one surfaces there.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    "BUILTIN_NAMES": "spaces",
    "Budget": "oracle",
    "EndpointMismatchError": "errors",
    "Gen": "terms",
    "Generator": "spaces",
    "GroupTag": "spaces",
    "GroupTagMismatchError": "errors",
    "GroupValue": "pi1",
    "Lcg": "oracle",
    "NormalForm": "rewrite",
    "NotABasepointLoopError": "errors",
    "NotALoopError": "errors",
    "OracleVerdict": "oracle",
    "ParseError": "errors",
    "PathClass": "groupoid",
    "PathError": "errors",
    "PathExpr": "terms",
    "Refl": "terms",
    "Relation": "spaces",
    "RewriteStep": "rewrite",
    "RuleId": "rewrite",
    "SpaceMap": "oracle",
    "SpaceMapError": "errors",
    "SpaceMismatchError": "errors",
    "SpacePresentation": "spaces",
    "StepNotEnabledError": "errors",
    "Symm": "terms",
    "Trans": "terms",
    "UnknownGeneratorError": "errors",
    "UnknownPointError": "errors",
    "UnknownSpaceError": "errors",
    "UnreachableEndpointsError": "errors",
    "Word": "terms",
    "apply_step": "rewrite",
    "bfs_rw_eq": "oracle",
    "builtin": "spaces",
    "class_of": "groupoid",
    "comp": "groupoid",
    "decode": "pi1",
    "encode": "pi1",
    "endpoints": "terms",
    "enumerate_loops": "oracle",
    "enumerate_terms": "oracle",
    "explore_class": "oracle",
    "format_step": "rewrite",
    "free_normalize": "terms",
    "group_identity": "pi1",
    "group_inv": "pi1",
    "group_mul": "pi1",
    "homomorphism_check": "pi1",
    "identity": "groupoid",
    "inv": "groupoid",
    "local_confluence_probe": "oracle",
    "map_path": "terms",
    "normalize": "rewrite",
    "parse_group_value": "pi1",
    "parse_path": "syntax",
    "parse_space_file": "syntax",
    "parse_space_text": "syntax",
    "random_term": "oracle",
    "redexes": "rewrite",
    "relation_bwd": "rewrite",
    "relation_fwd": "rewrite",
    "render_group_value": "pi1",
    "render_path": "syntax",
    "render_word": "syntax",
    "rw_eq": "rewrite",
    "size": "terms",
    "term_of_word": "rewrite",
    "trace": "rewrite",
    "validate": "syntax",
    "zpow": "terms",
    "zpow_class": "groupoid",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a non-empty fromlist makes __import__ return the submodule itself
    module = __import__(_EXPORTS[name], globals(), None, (name,), 1)
    # bound here, so that later reads of the name are plain lookups
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return list({*globals(), *__all__})
