"""Every public name, every public method and property of a public class, and
every module-level function or class of the package, private ones included,
is used by the package itself, a demo or the benchmark, so the package holds
nothing that only tests call. Every dataclass field of a public class is read
there too, so no public class stores state that nothing reads. No public
function names a private type in its signature."""

import ast
import dataclasses
import functools
import inspect
import types
from pathlib import Path

import pytest

import lchs

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def source_nodes() -> tuple[ast.AST, ...]:
    """Every AST node of src/lchs (except __init__.py), demos/ and
    benchmarks/."""
    files = [f for f in (ROOT / "src" / "lchs").glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    return tuple(
        node for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    )


@functools.cache
def referenced_names() -> frozenset[str]:
    """Identifiers read as an ast.Name or ast.Attribute anywhere in the
    source_nodes. A def or class statement and an import bind a name without
    producing either node, so a name's own definition or re-export does not
    count as a use."""
    names = set()
    for node in source_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return frozenset(names)


@functools.cache
def attributes_read() -> frozenset[str]:
    """Names read as an attribute (an ast.Attribute in Load context) in the
    source_nodes. Storing a field, or passing it as a keyword argument, does
    not read it."""
    return frozenset(
        node.attr for node in source_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def public_members() -> list[str]:
    """Class.member for each method, static or class method and property
    that a class in lchs.__all__ defines itself under a name without a
    leading underscore. Dataclass fields are data and are not listed."""
    members = []
    for name in lchs.__all__:
        cls = getattr(lchs, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and isinstance(
                value, (property, staticmethod, classmethod, types.FunctionType)
            ):
                members.append(f"{name}.{attr}")
    return sorted(members)


def dataclass_fields() -> list[str]:
    """Class.field for each dataclass field of a class in lchs.__all__."""
    return sorted(
        f"{name}.{f.name}"
        for name in lchs.__all__
        if dataclasses.is_dataclass(cls := getattr(lchs, name)) and inspect.isclass(cls)
        for f in dataclasses.fields(cls)
    )


def public_functions() -> list[str]:
    """Each function in lchs.__all__."""
    return sorted(name for name in lchs.__all__ if inspect.isfunction(getattr(lchs, name)))


def annotation_names(fn) -> set[str]:
    """Every identifier in the annotations of fn's signature, read by parsing
    each annotation string (a type object is parsed as its qualified name)."""
    names = set()
    for annotation in inspect.get_annotations(fn).values():
        if not isinstance(annotation, str):
            annotation = inspect.formatannotation(annotation)
        for node in ast.walk(ast.parse(annotation, mode="eval")):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def module_level_definitions() -> list[str]:
    """module.name for each function and class defined at the top level of a
    module in src/lchs."""
    return sorted(
        f"{path.stem}.{node.name}"
        for path in (ROOT / "src" / "lchs").glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )


@pytest.mark.parametrize("name", sorted(set(lchs.__all__) - {"__version__"}))
def test_public_name_is_used_outside_tests(name):
    assert name in referenced_names(), f"{name} is public but only tests use it"


@pytest.mark.parametrize("member", public_members())
def test_public_member_is_used_outside_tests(member):
    attr = member.split(".")[1]
    assert attr in referenced_names(), f"{member} is public but only tests use it"


@pytest.mark.parametrize("definition", module_level_definitions())
def test_module_level_definition_is_used_outside_tests(definition):
    name = definition.split(".")[1]
    assert name in referenced_names(), f"{definition} is defined but only tests use it"


@pytest.mark.parametrize("field", dataclass_fields())
def test_dataclass_field_is_read_outside_tests(field):
    attr = field.split(".")[1]
    assert attr in attributes_read(), f"{field} is stored but nothing outside tests reads it"


@pytest.mark.parametrize("name", public_functions())
def test_public_signature_names_no_private_type(name):
    private = sorted(n for n in annotation_names(getattr(lchs, name)) if n.startswith("_"))
    assert not private, f"{name} names the private {private} in its signature"
