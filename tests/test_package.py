"""The package's public surface: its names, their order and their modules."""

import importlib

import pytest

import pathrw

# the public names in `__all__` order, each with the module that defines it
PUBLIC = [
    ("BUILTIN_NAMES", "spaces"),
    ("Budget", "oracle"),
    ("EndpointMismatchError", "errors"),
    ("Gen", "terms"),
    ("Generator", "spaces"),
    ("GroupTag", "spaces"),
    ("GroupTagMismatchError", "errors"),
    ("GroupValue", "pi1"),
    ("Lcg", "oracle"),
    ("NormalForm", "rewrite"),
    ("NotABasepointLoopError", "errors"),
    ("NotALoopError", "errors"),
    ("OracleVerdict", "oracle"),
    ("ParseError", "errors"),
    ("PathClass", "groupoid"),
    ("PathError", "errors"),
    ("PathExpr", "terms"),
    ("Refl", "terms"),
    ("Relation", "spaces"),
    ("RewriteStep", "rewrite"),
    ("RuleId", "rewrite"),
    ("SpaceMap", "oracle"),
    ("SpaceMapError", "errors"),
    ("SpaceMismatchError", "errors"),
    ("SpacePresentation", "spaces"),
    ("StepNotEnabledError", "errors"),
    ("Symm", "terms"),
    ("Trans", "terms"),
    ("UnknownGeneratorError", "errors"),
    ("UnknownPointError", "errors"),
    ("UnknownSpaceError", "errors"),
    ("UnreachableEndpointsError", "errors"),
    ("Word", "terms"),
    ("apply_step", "rewrite"),
    ("bfs_rw_eq", "oracle"),
    ("builtin", "spaces"),
    ("class_of", "groupoid"),
    ("comp", "groupoid"),
    ("decode", "pi1"),
    ("encode", "pi1"),
    ("endpoints", "terms"),
    ("enumerate_loops", "oracle"),
    ("enumerate_terms", "oracle"),
    ("explore_class", "oracle"),
    ("format_step", "rewrite"),
    ("free_normalize", "terms"),
    ("group_identity", "pi1"),
    ("group_inv", "pi1"),
    ("group_mul", "pi1"),
    ("homomorphism_check", "pi1"),
    ("identity", "groupoid"),
    ("inv", "groupoid"),
    ("local_confluence_probe", "oracle"),
    ("map_path", "terms"),
    ("normalize", "rewrite"),
    ("parse_group_value", "pi1"),
    ("parse_path", "syntax"),
    ("parse_space_file", "syntax"),
    ("parse_space_text", "syntax"),
    ("random_term", "oracle"),
    ("redexes", "rewrite"),
    ("relation_bwd", "rewrite"),
    ("relation_fwd", "rewrite"),
    ("render_group_value", "pi1"),
    ("render_path", "syntax"),
    ("render_word", "syntax"),
    ("rw_eq", "rewrite"),
    ("size", "terms"),
    ("term_of_word", "rewrite"),
    ("trace", "rewrite"),
    ("validate", "syntax"),
    ("zpow", "terms"),
    ("zpow_class", "groupoid"),
]


def test_all_lists_the_public_names_in_order():
    assert len(PUBLIC) == 73
    assert pathrw.__all__ == [name for name, _ in PUBLIC]


@pytest.mark.parametrize("name, module", PUBLIC)
def test_each_name_is_its_modules_object(name, module):
    value = getattr(importlib.import_module(f"pathrw.{module}"), name)
    assert getattr(pathrw, name) is value
    assert vars(pathrw)[name] is value  # later reads skip __getattr__
    if hasattr(value, "__qualname__"):  # a class or a function
        assert value.__module__ == f"pathrw.{module}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pathrw import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pathrw.__all__)
    assert all(namespace[name] is getattr(pathrw, name) for name in namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pathrw.no_such_name  # noqa: B018
    assert not hasattr(pathrw, "no_such_name")


def test_dir_lists_the_public_names():
    names = dir(pathrw)
    assert set(pathrw.__all__) <= set(names)
    assert len(set(names)) == len(names)
    assert "__version__" in names
