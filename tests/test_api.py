"""Package surface: every exported name resolves, once."""

import rieszlab


def test_all_names_resolve():
    missing = [name for name in rieszlab.__all__
               if not hasattr(rieszlab, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(rieszlab.__all__) == len(set(rieszlab.__all__))


def test_deleted_names_are_gone():
    from rieszlab import exponents, riesz, solver

    gone = {rieszlab: ("apply_with_tail", "integrability_thresholds",
                       "slow_exponents"),
            riesz: ("apply_with_tail",),
            exponents: ("integrability_thresholds",),
            solver: ("slow_exponents",)}
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in rieszlab.__all__
    assert not hasattr(riesz.RadialField, "with_values")
