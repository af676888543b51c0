"""Tooling test: every public name of the package is used by the package
itself, and so are every module-level private name and every public
method of its classes, so code that nothing in it calls gets deleted
rather than kept."""

import ast
from pathlib import Path

import unimodal_bandits

PACKAGE = Path(unimodal_bandits.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def used_names(path):
    """Names a module reads, as bare names or as attributes; definitions,
    assignments and imports do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def private_definitions(path):
    """Private functions, classes and constants a module defines at its top
    level; dunders such as __all__ are read by Python, not the package."""
    out = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in out if name.startswith("_") and not name.endswith("__")}


def public_methods(path):
    """(class, method) of every public method the classes of a module
    define; dunders are called by Python, not the package."""
    return {
        (node.name, item.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def unused_public_names():
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            used |= used_names(path)
    return sorted(set(unimodal_bandits.__all__) - used)


def unused_private_names():
    used = set().union(*map(used_names, MODULES))
    return sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for name in private_definitions(path) - used
    )


def unused_public_methods():
    used = set().union(*map(used_names, MODULES))
    return sorted(
        f"{path.stem}.{cls}.{name}"
        for path in MODULES
        for cls, name in public_methods(path)
        if name not in used
    )


def test_every_public_name_is_used_in_the_package():
    assert unused_public_names() == []


def test_every_private_module_level_name_is_used_in_the_package():
    assert unused_private_names() == []


def test_every_public_method_is_used_in_the_package():
    assert unused_public_methods() == []


# the checks and the bulk audit that decide whether a pull log is clean
AUDIT_NAMES = {"check_step", "check_log", "transport_kl", "TOLERANCE", "_cleared"}


def test_only_invariants_reads_the_audit():
    # the rest of the package reaches the audit through invariants.audit;
    # __init__'s re-exports are imports, which used_names does not count
    readers = {
        f"{path.stem}.{name}"
        for path in MODULES
        if path.stem != "invariants"
        for name in used_names(path) & AUDIT_NAMES
    }
    assert readers == set()


def test_only_runner_draws_rewards():
    # simulate_policy_run serves every reward of a run, so no other module
    # of the package draws from a family's sampler
    assert {path.stem for path in MODULES if "sample_many" in used_names(path)} == {"runner"}
