"""Initial data: presets, conserved class, scaling, scenario descriptors."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hsgeo.data import (
    InitialData,
    PRESETS,
    SolutionClass,
    casimir,
    classify,
    normalize,
    preset,
    scenario_from_dict,
    scenario_from_file,
)
from hsgeo.engine import blowup_time
from hsgeo.grid import Grid, GridFunction
from conftest import GRID, mean_zero_trig, trig_with_const


def _data(u0x_vals, rho0_vals, kappa=-1):
    return InitialData.from_gradient(
        GRID.function(np.asarray(u0x_vals, dtype=float)),
        GRID.function(np.asarray(rho0_vals, dtype=float)),
        kappa,
    )


def test_fig1_presets_share_the_unit_timelike_class():
    for name in ("fig1a", "fig1b", "fig1c"):
        d = preset(name)
        assert abs(casimir(d) + 1.0) < 1e-14
        assert classify(d).label is SolutionClass.TIMELIKE


def test_fig1a_matches_its_closed_form_class():
    x = GRID.x
    d = _data(np.cos(2 * np.pi * x), 3 * np.cos(2 * np.pi * x))
    assert abs(casimir(d) - 0.25 * (0.5 - 4.5)) < 1e-15


def test_fig1b_constant_density_class():
    x = GRID.x
    d = _data(np.cos(2 * np.pi * x), np.full(GRID.n, 3 / math.sqrt(2)))
    assert abs(casimir(d) + 1.0) < 1e-15


def test_zero_data_is_lightlike():
    d = _data(np.zeros(GRID.n), np.zeros(GRID.n))
    assert casimir(d) == 0.0
    assert classify(d).label is SolutionClass.LIGHTLIKE


def test_equal_slopes_are_lightlike():
    x = GRID.x
    d = _data(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x))
    assert classify(d).label is SolutionClass.LIGHTLIKE
    assert abs(casimir(d)) < 1e-16


def test_positive_kappa_flips_the_sign_convention():
    x = GRID.x
    d = _data(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x) + 2.0, kappa=1)
    assert casimir(d) > 0
    assert classify(d).label is SolutionClass.SPACELIKE


def test_normalize_scales_quadratically():
    x = GRID.x
    d = _data(2 * np.cos(2 * np.pi * x), 6 * np.cos(2 * np.pi * x))
    assert abs(casimir(d) + 4.0) < 1e-14
    scaled, cls = normalize(d)
    assert abs(casimir(scaled) + 1.0) < 1e-14
    assert abs(cls.scale - 0.5) < 1e-14


def test_normalize_fixes_unit_class_data():
    d = preset("fig1c")
    scaled, cls = normalize(d)
    assert cls.scale == 1.0
    assert (scaled.u0x - d.u0x).sup_norm() == 0.0


# nearly lightlike (c = -2.5e-11): scaled to c = -1, the Casimir keeps
# the rounding of terms 4e10 times larger
@example(GRID.function(np.cos(2 * np.pi * GRID.x)),
         GRID.function(np.cos(2 * np.pi * GRID.x) + 1e-5), -1)
@given(mean_zero_trig(), trig_with_const(), st.sampled_from([-1, 1]))
def test_normalize_lands_on_the_unit_class(u0x, rho0, kappa):
    d = InitialData.from_gradient(u0x, rho0, kappa)
    scaled, cls = normalize(d)
    c = casimir(scaled)
    ux, r0 = scaled.u0x.values, scaled.rho0.values
    rounding = 8 * GRID.n * np.finfo(float).eps * 0.25 * np.mean(ux * ux + r0 * r0)
    assert abs(c - cls.normalized_c) < max(1e-10, rounding)
    assert cls.normalized_c in (-1, 0, 1)


def test_nearly_lightlike_data_reaches_the_engine():
    x = GRID.x
    scaled, cls = normalize(_data(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x) + 1e-5))
    assert cls.label is SolutionClass.TIMELIKE
    # the unscaled datum breaks at about t = 1, like its lightlike neighbour
    assert abs(cls.scale * blowup_time(scaled) - 1.0) < 1e-3


def test_presets_cover_all_three_classes():
    labels = {classify(preset(name)).label for name in PRESETS}
    assert labels == set(SolutionClass)


def test_spacelike_preset_is_normalized():
    d = preset("spacelike")
    assert abs(casimir(d) - 1.0) < 1e-14
    assert d.rho0.sup_norm() == 0.0


def test_preset_grid_size_parameter():
    assert preset("fig1a", 128).grid.n == 128


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("fig1z")


def test_u0_must_vanish_at_origin():
    with pytest.raises(ValueError):
        InitialData(GRID.constant(1.0), GRID.constant(1.0), -1)


def test_gradient_must_have_zero_mean():
    with pytest.raises(ValueError):
        InitialData.from_gradient(GRID.constant(1.0), GRID.zero(), -1)


def test_kappa_validated():
    with pytest.raises(ValueError):
        InitialData(GRID.zero(), GRID.zero(), 2)


def test_grids_must_agree():
    with pytest.raises(ValueError):
        InitialData(GRID.zero(), Grid(32).zero(), -1)


def test_u0x_round_trips_the_gradient():
    x = GRID.x
    vals = np.cos(2 * np.pi * x) + 0.25 * np.sin(4 * np.pi * x)
    d = _data(vals, np.zeros(GRID.n))
    assert (d.u0x - GRID.function(vals)).sup_norm() < 1e-12


def _scenario_doc(**extra):
    doc = {
        "schema": 1,
        "name": "demo",
        "u0x": {"cos": {"1": 1.0}},
        "rho0": {"const": 2.0, "cos": {"1": 1.0}},
        "kappa": -1,
        "n": 64,
    }
    doc.update(extra)
    return doc


def test_scenario_from_dict_builds_the_series():
    d, meta = scenario_from_dict(_scenario_doc())
    ref = preset("fig1c", 64)
    assert (d.u0x - ref.u0x).sup_norm() < 1e-14
    assert (d.rho0 - ref.rho0).sup_norm() < 1e-14
    assert meta["name"] == "demo"


def test_scenario_accepts_preset_reference():
    d, _ = scenario_from_dict({"schema": 1, "name": "p", "preset": "fig1a", "n": 64})
    ref = preset("fig1a", 64)
    assert (d.rho0 - ref.rho0).sup_norm() == 0.0


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ValueError):
        scenario_from_dict(_scenario_doc(extra_field=1))


def test_scenario_rejects_unknown_schema():
    with pytest.raises(ValueError):
        scenario_from_dict(_scenario_doc(schema=2))


def test_scenario_rejects_constant_velocity_slope():
    doc = _scenario_doc()
    doc["u0x"] = {"const": 1.0}
    with pytest.raises(ValueError):
        scenario_from_dict(doc)


def test_scenario_rejects_unresolvable_mode():
    doc = _scenario_doc()
    doc["u0x"] = {"cos": {"40": 1.0}}
    with pytest.raises(ValueError):
        scenario_from_dict(doc)


def test_scenario_from_file(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_scenario_doc()))
    d, meta = scenario_from_file(path)
    assert d.grid.n == 64
    assert meta["name"] == "demo"
