"""INI run configuration: parsing, validation, builders, presets.

Parsing is fail-closed (unknown sections and keys are errors) and
serialize_config always emits the full canonical document, so
parse(serialize(c)) == c exactly and serialize(parse(text)) is a fixed
point for canonical text.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from pilotwave import (
    AnalyticSource,
    ConfigError,
    FrozenSource,
    NumericSource,
    RunConfig,
    load_config,
    load_preset,
    parse_config_text,
    serialize_config,
)
from pilotwave.config import _SCHEMA, PRESETS


# ---------------------------------------------------------------------------
# round trips


def test_defaults_validate_and_chain():
    cfg = RunConfig()
    assert cfg.validate() is cfg


def test_parse_serialize_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_parse_serialize_round_trip_modified():
    cfg = replace(
        RunConfig(),
        xi=3.3,
        theta=2.0,
        tau_max=123.5,
        rel_tol=2.5e-9,
        nu_override_per_second=None,
        tau_targets=(100.0, 250.5),
        formats=("json",),
        directory="elsewhere",
        seed=7,
    )
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    # Serializing the parsed config reproduces the text: idempotence.
    assert serialize_config(parse_config_text(text)) == text


def test_round_trip_moves_every_schema_key():
    # Every key off its default, so each kind's reader and writer is
    # exercised: optional floats both none and a number, awkward reprs,
    # a multi-entry float list and a reordered string list.
    cfg = replace(
        RunConfig(),
        E0_volts_per_meter=1.25e8,
        detuning_per_second=0.0,
        omega0_per_second=None,
        nu_override_per_second=3.3e12,
        xi=2.7,
        theta=2.9,
        phi=-0.3,
        mode="numeric",
        c1_re=0.1,
        c1_im=-0.2,
        c2_re=1.0 / 3.0,
        c2_im=1e-300,
        tau_max=1234.5,
        rel_tol=3e-7,
        abs_tol=1e-12,
        max_step=0.25,
        output_stride=0.1,
        count=17,
        seed=0,
        tau_targets=(0.0, 1e3, 0.1),
        bins=7,
        directory="runs/a b",
        formats=("json", "csv"),
    )
    keys = [key for section in _SCHEMA.values() for key in section]
    assert len(keys) == 23
    moved = [key for key in keys if getattr(cfg, key) != getattr(RunConfig(), key)]
    assert moved == keys
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    assert serialize_config(parse_config_text(text)) == text


def test_default_canonical_document():
    assert serialize_config(RunConfig()) == (
        "[drive]\n"
        "E0_volts_per_meter = 88000000.0\n"
        "detuning_per_second = 1550000000000.0\n"
        "omega0_per_second = 1.549e+16\n"
        "nu_override_per_second = -5100000000000.0\n"
        "\n"
        "[initial]\n"
        "xi = 4.0\n"
        "theta = 1.0\n"
        "phi = 0.0\n"
        "\n"
        "[coefficients]\n"
        "mode = analytic\n"
        "c1_re = 1.0\n"
        "c1_im = 0.0\n"
        "c2_re = 0.0\n"
        "c2_im = 0.0\n"
        "\n"
        "[integrate]\n"
        "tau_max = 10000.0\n"
        "rel_tol = 1e-08\n"
        "abs_tol = 1e-10\n"
        "max_step = 1.0\n"
        "output_stride = 1.0\n"
        "\n"
        "[ensemble]\n"
        "count = 10000\n"
        "seed = 20260819\n"
        "tau_targets = 2000.0\n"
        "bins = 20\n"
        "\n"
        "[output]\n"
        "directory = out\n"
        "formats = csv, json\n"
    )


def test_partial_document_overrides_only_named_keys():
    cfg = parse_config_text("[initial]\nxi = 2.5\n")
    assert cfg.xi == 2.5
    assert cfg == replace(RunConfig(), xi=2.5)


# ---------------------------------------------------------------------------
# fail-closed parsing


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[driv]\nE0_volts_per_meter = 1e8\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key drive.E0"):
        parse_config_text("[drive]\nE0 = 1e8\n")


def test_malformed_document_rejected():
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config_text("no section header here\nkey = value\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError, match="expects a number"):
        parse_config_text("[initial]\nxi = four\n")
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config_text("[ensemble]\ncount = 3.5\n")


def test_none_literal_for_optional_frequencies():
    cfg = parse_config_text(
        "[drive]\nomega0_per_second = none\nnu_override_per_second = None\n"
    )
    assert cfg.omega0_per_second is None
    assert cfg.nu_override_per_second is None
    drive = cfg.drive()
    assert drive.nu_override_ps is None


def test_tau_targets_accept_commas_and_spaces():
    cfg = parse_config_text("[ensemble]\ntau_targets = 100, 200 300\n")
    assert cfg.tau_targets == (100.0, 200.0, 300.0)
    with pytest.raises(ConfigError, match="at least one value"):
        parse_config_text("[ensemble]\ntau_targets =\n")


# ---------------------------------------------------------------------------
# validation


def test_axis_exclusion_names_the_constraint():
    for theta in (0.0, 0.0005, math.pi - 0.0005, 3.5):
        with pytest.raises(ConfigError, match="axis exclusion"):
            replace(RunConfig(), theta=theta).validate()


def test_frozen_mode_requires_unit_norm():
    r = math.sqrt(0.5)
    ok = replace(RunConfig(), mode="frozen", c1_re=r, c2_im=r)
    assert ok.validate() is ok
    with pytest.raises(ConfigError, match="frozen"):
        replace(RunConfig(), mode="frozen", c1_re=0.9).validate()


def test_field_bounds():
    cases = [
        ({"E0_volts_per_meter": 0.0}, "E0_volts_per_meter"),
        ({"detuning_per_second": -1.0}, "detuning_per_second"),
        ({"omega0_per_second": 0.0}, "omega0_per_second"),
        ({"nu_override_per_second": math.inf}, "nu_override_per_second"),
        ({"xi": -2.0}, "initial.xi"),
        ({"mode": "closed"}, "coefficients.mode"),
        ({"tau_max": 0.0}, "tau_max"),
        ({"rel_tol": 1.5}, "rel_tol"),
        ({"abs_tol": 0.0}, "abs_tol"),
        ({"max_step": -1.0}, "max_step"),
        ({"output_stride": 0.0}, "output_stride"),
        ({"count": 0}, "ensemble.count"),
        ({"seed": -1}, "ensemble.seed"),
        ({"tau_targets": ()}, "tau_targets"),
        ({"tau_targets": (-5.0,)}, "tau_targets"),
        ({"bins": 1}, "ensemble.bins"),
        ({"directory": ""}, "output.directory"),
        ({"formats": ()}, "output.formats"),
        ({"formats": ("csv", "yaml")}, "output.formats"),
        ({"E0_volts_per_meter": math.inf}, "drive.E0_volts_per_meter"),
        ({"detuning_per_second": math.inf}, "drive.detuning_per_second"),
        ({"omega0_per_second": math.nan}, "drive.omega0_per_second"),
        ({"xi": math.inf}, "initial.xi"),
        ({"phi": -math.inf}, "initial.phi"),
        ({"mode": "frozen", "c1_re": math.nan}, "coefficients.c1_re"),
        ({"c1_im": math.inf}, "coefficients.c1_im"),
        ({"c2_re": -math.inf}, "coefficients.c2_re"),
        ({"c2_im": math.nan}, "coefficients.c2_im"),
        ({"tau_max": math.inf}, "integrate.tau_max"),
        ({"abs_tol": math.inf}, "integrate.abs_tol"),
        ({"max_step": math.inf}, "integrate.max_step"),
        ({"output_stride": math.nan}, "integrate.output_stride"),
    ]
    for fields, fragment in cases:
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            replace(RunConfig(), **fields).validate()


# ---------------------------------------------------------------------------
# builders


def test_drive_builder_applies_overrides():
    drive = RunConfig().drive()
    assert drive.E0_Vpm == 8.8e7
    assert drive.nu_override_ps == -5.1e12
    assert drive.omega0_ps == 1.549e16


def test_source_builder_selects_mode():
    assert isinstance(RunConfig().source(), AnalyticSource)
    r = math.sqrt(0.5)
    frozen = replace(RunConfig(), mode="frozen", c1_re=r, c2_im=r).source()
    assert isinstance(frozen, FrozenSource)
    numeric = replace(RunConfig(), mode="numeric", tau_max=50.0).source()
    assert isinstance(numeric, NumericSource)


def test_initial_and_integrator_builders():
    cfg = replace(RunConfig(), xi=2.5, theta=1.5, phi=0.25, rel_tol=1e-7)
    point = cfg.initial()
    assert (point.xi, point.theta, point.phi) == (2.5, 1.5, 0.25)
    integ = cfg.integrator()
    assert integ.rel_tol == 1e-7
    assert integ.abs_tol == cfg.abs_tol
    assert integ.output_stride == cfg.output_stride


# ---------------------------------------------------------------------------
# presets and files


def test_bundled_presets_load():
    assert PRESETS == ("fig1", "fig2")
    fig1 = load_preset("fig1")
    assert fig1 == RunConfig()
    fig2 = load_preset("fig2")
    assert (fig2.xi, fig2.theta) == (3.2, 2.0)
    assert fig2 == replace(RunConfig(), xi=3.2, theta=2.0)


def test_unknown_preset_lists_choices():
    with pytest.raises(ConfigError, match="fig1, fig2"):
        load_preset("fig3")


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_config_file_round_trip(tmp_path):
    cfg = replace(RunConfig(), xi=1.25, count=500)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert load_config(str(path)) == cfg
