"""Tooling test: every public name of the package is used by the package
itself, so public API that nothing in it calls gets deleted rather than
kept."""

import ast
from pathlib import Path

import unimodal_bandits

PACKAGE = Path(unimodal_bandits.__file__).parent


def used_names(path):
    """Names a module reads, as bare names or as attributes; definitions
    and imports do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_public_names():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path)
    return sorted(set(unimodal_bandits.__all__) - used)


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []
