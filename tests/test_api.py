"""Package surface: every exported name resolves, once."""

import dataclasses
import inspect

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
                       "TruncationWarning"),
            errors: ("AssemblyError",),
            riesz: ("apply_with_tail", "_pair_cell_quadrature",
                    "_ADAPTIVE_BUDGET", "TAIL_RANGE_CAP",
                    "_terminating_kernel"),
            exponents: ("integrability_thresholds",),
            solver: ("slow_exponents",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in rieszlab.__all__
    assert not hasattr(riesz.RadialField, "with_values")
    assert "tail_moments" not in {
        f.name for f in dataclasses.fields(riesz.KernelOperator)}
    for func in (riesz.tail_response, riesz.apply_extended):
        assert "tail_log_power" not in inspect.signature(func).parameters
