"""Deterministic serialization: 17-digit floats, hashes, CSV round trips."""

import json
import math
import platform

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszlab
from rieszlab.errors import ValidationError
from rieszlab.runio import (canonical_json, config_hash, dumps_json,
                            format_float, grid_spec_of, make_manifest,
                            read_field_csv, read_manifest,
                            read_trajectory_csv, write_field_csv,
                            write_json, write_trajectory_csv)
from rieszlab.grid import make_grid


class TestFloatFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_seventeen_digits_round_trip(self, x):
        assert float(format_float(x)) == x

    def test_json_floats_round_trip(self):
        values = [1.0 / 3.0, math.pi, 1e-300, 6.02e23, -0.1]
        text = dumps_json({"values": values})
        assert json.loads(text)["values"] == values

    def test_canonical_json_sorted_compact(self):
        a = canonical_json({"b": 2.0, "a": [1.5, {"z": 1, "y": 2}]})
        b = canonical_json({"a": [1.5, {"y": 2, "z": 1}], "b": 2.0})
        assert a == b
        assert " " not in a
        assert a.index('"a"') < a.index('"b"')

    def test_non_finite_supported(self):
        text = dumps_json({"x": float("nan"), "y": float("inf")})
        parsed = json.loads(text)
        assert math.isnan(parsed["x"])
        assert parsed["y"] == float("inf")


class TestConfigHash:
    def test_order_invariant(self):
        assert config_hash({"a": 1, "b": 2.5}) == config_hash(
            {"b": 2.5, "a": 1})

    def test_value_sensitive(self):
        base = config_hash({"a": 1.0})
        assert config_hash({"a": 1.0 + 1e-15}) != base

    def test_manifest_hash_ignores_timestamp(self):
        params = {"n": 5, "alpha": 2.0, "p": 3.0, "q": 3.0}
        m1 = make_manifest("solve", params, settings={"tol": 1e-6})
        m2 = make_manifest("solve", params, settings={"tol": 1e-6})
        assert m1.config_hash == m2.config_hash
        assert m1.timestamp != "" and m2.timestamp != ""
        m3 = make_manifest("solve", params, settings={"tol": 1e-5})
        assert m3.config_hash != m1.config_hash

    def test_manifest_dict_keys(self):
        m = make_manifest("exponents", {"n": 5}, outputs=("report.json",))
        d = m.to_dict()
        assert set(d) == {"command", "params", "gridSpec", "settings",
                          "outputs", "configHash", "timestamp", "versions"}
        assert d["outputs"] == ["report.json"]

    def test_manifest_records_versions_outside_the_hash(self):
        params = {"n": 4, "alpha": 2.0}
        m = make_manifest("solve", params, settings={"tol": 1e-6})
        assert m.to_dict()["versions"] == {
            "rieszlab": rieszlab.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
        assert m.config_hash == config_hash(
            {"command": "solve", "params": params, "gridSpec": None,
             "settings": {"tol": 1e-6}})


class TestManifestFiles:
    def test_write_and_read(self, tmp_path):
        m = make_manifest("solve", {"n": 4},
                          grid_spec=grid_spec_of(make_grid(1e-2, 1e2, 32, 4)))
        m.write(tmp_path)
        data = read_manifest(tmp_path)
        assert data["command"] == "solve"
        assert data["gridSpec"]["count"] == 32
        assert data["configHash"] == m.config_hash

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError):
            read_manifest(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ValidationError):
            read_manifest(tmp_path)


class TestCsv:
    def test_field_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        radii = np.geomspace(1e-3, 1e3, 40)
        u = rng.uniform(0.1, 2.0, 40)
        v = rng.uniform(0.1, 2.0, 40)
        path = tmp_path / "solution.csv"
        write_field_csv(path, radii, u, v)
        r2, u2, v2 = read_field_csv(path)
        assert np.array_equal(r2, radii)
        assert np.array_equal(u2, u)
        assert np.array_equal(v2, v)

    def test_field_header_enforced(self, tmp_path):
        path = tmp_path / "solution.csv"
        path.write_text("x,y,z\n1.0,2.0,3.0\n")
        with pytest.raises(ValidationError):
            read_field_csv(path)

    def test_field_malformed_row(self, tmp_path):
        path = tmp_path / "solution.csv"
        path.write_text("r,u,v\n1.0,2.0\n")
        with pytest.raises(ValidationError):
            read_field_csv(path)

    def test_trajectory_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-1.0, 1.0, (25, 5))
        samples[:, 0] = np.geomspace(1e-6, 1e2, 25)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, samples)
        back = read_trajectory_csv(path)
        assert np.array_equal(back, samples)

    def test_write_json_output(self, tmp_path):
        path = write_json(tmp_path / "report.json", {"value": 1.0 / 3.0})
        text = path.read_text()
        assert "0.33333333333333331" in text
