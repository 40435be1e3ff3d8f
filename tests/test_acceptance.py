"""Acceptance gate: every shipped verification criterion must pass.

Each test runs one criterion of the ``verify-all`` battery through the
same code path the CLI uses (shared workspace, stated tolerances, time
budgets included).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from rieszlab import acceptance
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


#: Log-spaced radii of a stand-in shot, as many as a shot samples.
SHOT_RADII = np.geomspace(1e-6, 1e5, 2048)


@pytest.mark.parametrize("profile, slope, ratio, passed", [
    (SHOT_RADII ** -1.0, 1.0, 1.0, True),
    (SHOT_RADII ** -3.0, 3.0, 1.01e-10, False),
    (SHOT_RADII ** -1.0 * np.maximum(1e3 / SHOT_RADII, 1.0) ** 2, 1.0,
     2.36e-9, False)], ids=["slow", "fast", "slow-on-the-fit-window"])
def test_slow_decay_reads_the_shot(monkeypatch, profile, slope, ratio,
                                   passed):
    # "slow pair not integrable" is the mass of u^r0 and v^s0 per
    # decade, (1e3, 1e4) over (1e2, 1e3), on the shot itself: 1 at the
    # slow rate r^-1, 1e-10 at the fast rate r^-3, and below the floor
    # 10^(-5 * 5%) for a shot whose fit window decays at the slow rate
    # but whose decade below decays at the fast one
    workspace = Workspace(seed=0)
    monkeypatch.setattr(workspace, "ground_state", lambda: SimpleNamespace(
        trajectory=SimpleNamespace(radii=SHOT_RADII, u=profile, v=profile)))
    result = run_one("slow-decay-shooting", workspace)
    assert result.passed is passed
    assert result.measured.startswith("slopes (%.4f, %.4f)" % (slope, slope))
    got = acceptance._decade_mass_ratio(SHOT_RADII, profile, 5.0, 5)
    assert got == pytest.approx(ratio, rel=5e-3, abs=0.0)


def test_envelope_positivity(workspace):
    _check("envelope-positivity", workspace)


def test_blowup_recursion(workspace):
    _check("blowup-recursion", workspace)


def test_self_convergence(workspace):
    _check("self-convergence", workspace)
