"""Acceptance gate: every shipped verification criterion must pass.

Each test runs one criterion of the ``verify-all`` battery through the
same code path the CLI uses (shared workspace, stated tolerances, time
budgets included).
"""

import pytest

from rieszlab.acceptance import CRITERIA, Workspace, run_one


@pytest.fixture(scope="module")
def workspace():
    return Workspace(seed=0)


def _check(key, workspace):
    result = run_one(key, workspace)
    assert result.passed, (
        f"{key}: measured {result.measured} vs tolerance {result.tolerance}")
    return result


def test_criteria_registry_complete():
    assert set(CRITERIA) == {
        "exponent-algebra", "power-law-apply", "singular-amplitude",
        "fast-limits", "slow-decay-shooting", "envelope-positivity",
        "blowup-recursion", "self-convergence"}


def test_exponent_algebra(workspace):
    _check("exponent-algebra", workspace)


def test_power_law_apply(workspace):
    _check("power-law-apply", workspace)


def test_singular_amplitude(workspace):
    _check("singular-amplitude", workspace)


def test_fast_limits(workspace):
    _check("fast-limits", workspace)


def test_slow_decay_shooting(workspace):
    _check("slow-decay-shooting", workspace)


def test_envelope_positivity(workspace):
    _check("envelope-positivity", workspace)


def test_blowup_recursion(workspace):
    _check("blowup-recursion", workspace)


def test_self_convergence(workspace):
    _check("self-convergence", workspace)
