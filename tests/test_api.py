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
    from rieszlab import (acceptance, analysis, cli, errors, exponents, grid,
                          riesz, runio, shooting, solver)

    gone = {rieszlab: ("apply_with_tail", "integrability_thresholds",
                       "slow_exponents", "AssemblyError",
                       "TruncationWarning", "CollapseError", "RunManifest"),
            errors: ("AssemblyError", "CollapseError"),
            riesz: ("apply_with_tail", "_pair_cell_quadrature",
                    "_ADAPTIVE_BUDGET", "TAIL_RANGE_CAP",
                    "_terminating_kernel", "TAIL_REMAINDER",
                    "_touching_breaks", "_end_cusp_rule", "_pair_cells",
                    "_tail_tables", "_end_response", "_head_response",
                    "_END_NODES", "_END_WEIGHTS", "_TAIL_BUILD_ROWS",
                    "_far_pairs", "_graded_breaks"),
            acceptance: ("format_row",),
            exponents: ("integrability_thresholds",),
            solver: ("slow_exponents", "CollapseError", "COLLAPSE_FLOOR",
                     "_origin_gap", "PRESENTATION_CYCLES", "optimize",
                     "itertools"),
            analysis: ("v_limit_pure", "v_limit_log_corrected",
                       "v_limit_weakened", "_V_BRANCHES", "_require_case"),
            runio: ("RunManifest",),
            cli: ("_params_dict", "_field_csv_writer",
                  "_trajectory_csv_writer"),
            shooting: ("_u_zero", "_v_zero", "solve_ivp", "optimize")}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in rieszlab.__all__
    assert not hasattr(riesz.RadialField, "with_values")
    assert not hasattr(riesz.KernelOperator, "matrix")
    assert not hasattr(grid.RadialGrid, "scaled")
    assert not {"tail_moments", "boundary", "tail_end", "tail_kernel"} & {
        f.name for f in dataclasses.fields(riesz.KernelOperator)}
    assert [f.name for f in dataclasses.fields(riesz.RadialField)] == [
        "grid", "values", "tail_exponent"]
    for func in (riesz.tail_response, riesz.apply_extended):
        assert "tail_log_power" not in inspect.signature(func).parameters
    for func, name in ((analysis.fit_tail, "min_points"),
                       (analysis.run_recursion, "max_steps"),
                       (analysis.envelope_bands, "slack"),
                       (analysis.envelope_check, "slack"),
                       (shooting.shoot, "source_strength"),
                       (acceptance.run_one, "seed"),
                       (solver.solve_picard, "init")):
        assert name not in inspect.signature(func).parameters
    # no default a valid caller could take: every tail needs its
    # exponent, every bisection its shots
    for cls, name in ((riesz.RadialField, "tail_exponent"),
                      (shooting.BisectionResult, "shots")):
        field, = (f for f in dataclasses.fields(cls) if f.name == name)
        assert field.default is dataclasses.MISSING, (cls, name)
    assert not hasattr(shooting.ShotConfig, "with_xi")
    # one way to build a shot: its outcome, radius, count and sampler
    assert [f.name for f in dataclasses.fields(shooting.Trajectory)] == [
        "outcome", "crossing_radius", "rhs_evals", "sampler"]
    # assemble sets every operator table; none has a default to miss
    assert all(f.default is dataclasses.MISSING
               for f in dataclasses.fields(riesz.KernelOperator))


def test_run_directory_has_one_writer():
    # inside cli only _write_report makes the --out directory, and only
    # it and _emit_run write JSON into it
    path = Path(rieszlab.__file__).parent / "cli.py"
    callers = {}
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    callers.setdefault(ast.unparse(node.func),
                                       set()).add(func.name)
    assert set().union(*(names for call, names in callers.items()
                         if call.endswith(".mkdir"))) == {"_write_report"}
    assert callers["runio.write_json"] == {"_write_report", "_emit_run"}


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


def test_every_default_is_passed_somewhere():
    # a defaulted parameter of an exported function is passed by some
    # call in the package or the benchmark, by keyword, by position or
    # through * or **; one that only tests pass is surface to delete
    allowed = {
        # the seam tests/test_shooting.py fakes shots through; the
        # benchmark's tracer swaps the default in place instead
        ("bisect_ground_state", "shooter"),
    }
    bench = Path(__file__).resolve().parents[1] / "bench"
    paths = (sorted(Path(rieszlab.__file__).parent.glob("*.py"))
             + sorted(bench.glob("*.py")))
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    untaken = []
    for name in rieszlab.__all__:
        func = getattr(rieszlab, name)
        if not inspect.isfunction(func):
            continue
        params = inspect.signature(func).parameters.values()
        positional = [p.name for p in params
                      if p.kind in (p.POSITIONAL_ONLY,
                                    p.POSITIONAL_OR_KEYWORD)]
        passed = set()
        for call in calls.get(name, ()):
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg is None for kw in call.keywords)):
                passed.update(p.name for p in params)
            passed.update(positional[:len(call.args)])
            passed.update(kw.arg for kw in call.keywords)
        untaken += [(name, p.name) for p in params
                    if p.default is not p.empty and p.name not in passed
                    and (name, p.name) not in allowed]
    assert untaken == []
