"""Key=value experiment configs: parsing, validation, sweep grid."""

import dataclasses
import math
import re

import pytest

from dce import cli
from dce.config import (
    COMMANDS,
    KEYS,
    MAX_ANTENNAS,
    MAX_POWER_DB,
    MAX_TRAINING_SLOTS,
    ExperimentConfig,
    parse_float_list,
    read_config,
    read_config_file,
)
from dce.errors import ConfigError
from dce.params import NON_RECIPROCAL, RECIPROCAL


def _validated(text):
    return ExperimentConfig(**read_config(text)).validate()


def _effective(tmp_path, text, *flags, command="alloc"):
    """The config ``dce <command> --config <text> <flags>`` runs with."""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    args = cli.build_parser().parse_args([command, "--config", str(path), *flags])
    return cli.effective_config(args)[0]


def test_every_field_has_exactly_one_key():
    """KEYS declares each ExperimentConfig field once, read by at least one
    known command."""
    names = sorted(key.name for key in KEYS)
    assert names == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
    for key in KEYS:
        assert key.commands and set(key.commands) <= set(COMMANDS), key.name


def test_only_training_lengths_narrow_the_scheme():
    """Every key is read under both schemes but two: tau_f and tau_r, only
    under the reciprocal one."""
    narrowed = {key.name: key.schemes for key in KEYS
                if set(key.schemes) != {RECIPROCAL, NON_RECIPROCAL}}
    assert narrowed == {"tau_f": (RECIPROCAL,), "tau_r": (RECIPROCAL,)}


def test_validate_rejects_an_empty_sweep():
    """A code caller's empty sweep is a configuration error, as an empty
    list in a config file is."""
    for name in ("gamma", "pave_db"):
        with pytest.raises(ConfigError, match=f"{name} needs at least one value"):
            ExperimentConfig(**{name: ()}).validate()


def test_defaults_validate():
    cfg = ExperimentConfig().validate()
    assert cfg.scheme == RECIPROCAL
    assert cfg.gamma == (0.1,)
    assert cfg.pave_db == (20.0,)
    assert cfg.format == "csv"


def test_scalar_values_coerce_to_sweeps():
    cfg = ExperimentConfig(gamma=0.05, pave_db=15)
    assert cfg.gamma == (0.05,)
    assert cfg.pave_db == (15.0,)


def test_load_config_full_round_trip():
    """Every key type (sweep lists, floats, ints, strings) parses to the
    config built directly from the same values; tau_f parses to a list, as
    its flag does."""
    cfg = _validated("scheme=non-reciprocal\ngamma=0.1,0.03\npave_db=10,20.0,30\n"
                     "pbar_t_db=27.5\npbar_l_db=18\nn_t=4\nn_l=2\nn_u=3\n"
                     "trials=750\nseed=11\nmodulation=16\nformat=json\n"
                     "out=results.csv\n")
    assert cfg == ExperimentConfig(
        scheme=NON_RECIPROCAL, gamma=(0.1, 0.03), pave_db=(10.0, 20.0, 30.0),
        pbar_t_db=27.5, pbar_l_db=18.0, n_t=4, n_l=2, n_u=3, trials=750,
        seed=11, modulation=16, format="json", out="results.csv")
    assert read_config("tau_r=3\ntau_f=8\n") == {"tau_r": 3, "tau_f": (8,)}
    assert read_config("tau_f = 4, 8\n") == {"tau_f": (4, 8)}


def test_load_config_comments_and_blanks():
    cfg = _validated("""
# full experiment
scheme=reciprocal   # the two-way variant
gamma=0.1,0.03

pave_db = 10, 20 , 30
trials=500
""")
    assert cfg.gamma == (0.1, 0.03)
    assert cfg.pave_db == (10.0, 20.0, 30.0)
    assert cfg.trials == 500


def test_load_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        read_config("gama=0.1\n")
    for retired in ("full_scale=true", "jensen_variant=printed"):
        with pytest.raises(ConfigError, match="unknown key"):
            read_config(retired + "\n")


def test_load_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        read_config("gamma=0.1\ngamma=0.2\n")


def test_load_config_rejects_bare_line():
    with pytest.raises(ConfigError, match="key=value"):
        read_config("just-some-words\n")


def test_typed_value_errors():
    with pytest.raises(ConfigError, match="bad value"):
        read_config("trials=many\n")
    with pytest.raises(ConfigError, match="bad value"):
        read_config("pbar_t_db=loud\n")
    with pytest.raises(ConfigError, match="bad value"):
        read_config("tau_f=8.5\n")
    with pytest.raises(ConfigError, match="bad value"):
        read_config("gamma=0.1,zero\n")


def test_validate_rejections():
    cases = [
        dict(scheme="fdd"),
        dict(gamma=(0.1, -0.2)),
        dict(format="yaml"),
        dict(modulation=32),
        dict(n_t=0),
        dict(trials=0),
        dict(tau_f=-4),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides).validate()


# a value that is neither a number, text nor iterable
_OPAQUE = object()


@pytest.mark.parametrize("overrides,message", [
    (dict(n_t=None), "n_t must be an integer, got None"),
    (dict(seed="3"), "seed must be an integer, got '3'"),
    (dict(n_l=True), "n_l must be an integer, got True"),
    (dict(gamma=(0.1, "0.2")), "gamma must be a number, got '0.2'"),
    (dict(pave_db=(10.0, False)), "pave_db must be a number, got False"),
    (dict(tau_f=(4, 8.5)), "tau_f must be an integer, got 8.5"),
    (dict(scheme=None), "scheme must be text, got None"),
    (dict(gamma="0.1"), "gamma must be a number, got '0.1'"),
    (dict(gamma=_OPAQUE), f"gamma must be a number, got {_OPAQUE!r}"),
], ids=["n_t-None", "seed-str", "n_l-bool", "gamma-item-str", "pave_db-item-bool",
        "tau_f-item-float", "scheme-None", "gamma-str", "gamma-object"])
def test_validate_names_a_wrong_type(overrides, message):
    """A code caller's value of the wrong type, or a sweep item of one, is a
    configuration error naming the key: a bool is not a number, text or an
    object that is neither a number nor iterable is no sweep, and every
    item of a sweep is checked."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**overrides).validate()


def test_validate_rejects_negative_seed():
    """numpy's seed sequence takes only nonnegative entropy."""
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=-1).validate()
    with pytest.raises(ConfigError, match="seed"):
        _validated("seed=-1\n")
    assert ExperimentConfig(seed=0).validate().seed == 0


def test_points_walk_gamma_outer():
    cfg = ExperimentConfig(gamma=(0.1, 0.03), pave_db=(10.0, 20.0), tau_f=8)
    points = list(cfg.points())
    assert [(g, pave) for g, pave, _ in points] == [
        (0.1, 10.0), (0.1, 20.0), (0.03, 10.0), (0.03, 20.0)]
    for _, pave, params in points:
        assert params == cfg.to_params(pave)
        assert params.tau_f == 8
    assert points[0][2].p_ave == pytest.approx(10.0)


def test_validate_rejects_forward_length_under_echo_scheme(tmp_path):
    """The echo scheme's forward phase is pinned to n_t slots and its uplink
    phase to n_l, so a tau_f or tau_r would be ignored; the scope rule that
    effective_config applies rejects one from a config key like the flag."""
    with pytest.raises(ConfigError, match="non-reciprocal scheme does not read tau_f"):
        _effective(tmp_path, "scheme=non-reciprocal\n", "--tau-f", "4")
    with pytest.raises(ConfigError, match="does not read tau_r"):
        _effective(tmp_path, "scheme=non-reciprocal\ntau_r=8\n")
    assert _effective(tmp_path, "scheme=reciprocal\ntau_r=4\n").tau_r == 4


def test_validate_caps_training_lengths():
    """Explicit lengths and antenna counts are capped; the largest geometry
    admitted keeps its default training lengths, and the echo scheme's n_t-
    and n_l-slot phases, within MAX_TRAINING_SLOTS."""
    for name in ("tau_r", "tau_f"):
        ExperimentConfig(**{name: MAX_TRAINING_SLOTS}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be at most"):
            ExperimentConfig(**{name: MAX_TRAINING_SLOTS + 1}).validate()
    for name in ("n_t", "n_l", "n_u"):
        with pytest.raises(ConfigError, match=f"{name} must be at most"):
            ExperimentConfig(**{name: MAX_ANTENNAS + 1}).validate()
    for scheme in (RECIPROCAL, NON_RECIPROCAL):
        cfg = ExperimentConfig(scheme=scheme, n_t=MAX_ANTENNAS,
                               n_l=MAX_ANTENNAS - 1, n_u=MAX_ANTENNAS).validate()
        p = cfg.to_params(20.0)
        assert max(p.tau_f, p.tau_r, p.n_t, p.n_l) <= MAX_TRAINING_SLOTS


def test_validate_caps_powers(capsys):
    """Each power key takes MAX_POWER_DB and refuses the next float above
    it, as a value or in a sweep; the CLI exits 2 with one line."""
    above = math.nextafter(MAX_POWER_DB, math.inf)
    for name in ("pave_db", "pbar_t_db", "pbar_l_db"):
        ExperimentConfig(**{name: MAX_POWER_DB}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be at most"):
            ExperimentConfig(**{name: above}).validate()
    with pytest.raises(ConfigError, match="pave_db must be at most"):
        _validated(f"pave_db=20,{above!r}\n")
    assert cli.main(["ser", "--pbar-l-db", repr(above)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_to_params_wraps_geometry_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_t=2, n_l=4).to_params(10.0)


def test_parse_float_list():
    assert parse_float_list("gamma", "0.1,0.03") == (0.1, 0.03)
    assert parse_float_list("gamma", " 0.1 , 0.03 ") == (0.1, 0.03)
    with pytest.raises(ConfigError):
        parse_float_list("gamma", "a,b")
    with pytest.raises(ConfigError):
        parse_float_list("gamma", "")
    assert parse_float_list("tau_f", "4, 8", int) == (4, 8)
    with pytest.raises(ConfigError, match="bad value for tau_f"):
        parse_float_list("tau_f", "4,8.5", int)


def test_load_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_file(str(tmp_path / "nope.cfg"))
    path = tmp_path / "ok.cfg"
    path.write_text("gamma=0.2\n")
    assert read_config_file(str(path)) == {"gamma": (0.2,)}
