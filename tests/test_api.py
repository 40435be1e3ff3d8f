"""Package surface: every exported name resolves, once."""

import ast
import dataclasses
import inspect
from pathlib import Path

import rieszlab


def test_all_names_resolve():
    missing = [name for name in rieszlab.__all__
               if not hasattr(rieszlab, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(rieszlab.__all__) == len(set(rieszlab.__all__))


def test_deleted_names_are_gone():
    from rieszlab import errors, exponents, riesz, solver

    gone = {rieszlab: ("apply_with_tail", "integrability_thresholds",
                       "slow_exponents", "AssemblyError",
                       "TruncationWarning", "CollapseError"),
            errors: ("AssemblyError", "CollapseError"),
            riesz: ("apply_with_tail", "_pair_cell_quadrature",
                    "_ADAPTIVE_BUDGET", "TAIL_RANGE_CAP",
                    "_terminating_kernel"),
            exponents: ("integrability_thresholds",),
            solver: ("slow_exponents", "CollapseError", "COLLAPSE_FLOOR",
                     "_origin_gap")}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in rieszlab.__all__
    assert not hasattr(riesz.RadialField, "with_values")
    assert "tail_moments" not in {
        f.name for f in dataclasses.fields(riesz.KernelOperator)}
    for func in (riesz.tail_response, riesz.apply_extended):
        assert "tail_log_power" not in inspect.signature(func).parameters


def test_no_unused_imports():
    # every name a module imports is read somewhere in it; the package
    # root's re-exports are read through __all__
    unused = []
    for path in sorted(Path(rieszlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read.update(rieszlab.__all__)
        unused += ["%s: %s" % (path.name, name)
                   for name in sorted(imported - read)]
    assert unused == []


def test_no_orphaned_private_helpers():
    # every module-level private function or class is named somewhere
    # in the package outside its own definition: by a name, an
    # attribute or an import
    statements = []
    for path in sorted(Path(rieszlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            statements.append((path.name, stmt, names))
    orphans = [
        "%s: %s" % (module, stmt.name) for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names
                    for _, other, names in statements if other is not stmt)]
    assert orphans == []
