"""Command-line surface: exit codes, sweep semantics, output determinism."""

import argparse
import csv
import json

import pytest

import dce
import dce.cli as cli
from dce.config import KEYS
from dce.params import nonreciprocal_allocation
from helpers import (GOLDEN_DIR, GOLDENS, changed_cells, moved, produce,
                     strip_footer)

EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_GEOMETRY = 0, 2, 3, 4
EXIT_DEGENERATE = 6


def _read_csv(path):
    rows = list(csv.reader(strip_footer(path.read_text()).splitlines()))
    return rows[0], rows[1:]


def _run(tmp_path, *argv):
    out = tmp_path / "table.csv"
    code = cli.main([*argv, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_alloc_sweep_grid(tmp_path):
    code, out = _run(tmp_path, "alloc", "--gamma", "0.1,0.03",
                     "--pave-db", "10,15,20,25,30")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["p_ave_db", "gamma", "er_db", "ef_db", "an_db",
                      "nmse_l", "nmse_u"]
    assert len(rows) == 10
    # gamma is the outer loop
    assert [float(r[1]) for r in rows] == [0.1] * 5 + [0.03] * 5
    assert [float(r[0]) for r in rows[:5]] == [10.0, 15.0, 20.0, 25.0, 30.0]
    # every row keeps the floor honored
    for r in rows:
        assert float(r[6]) >= float(r[1]) - 1e-9


def test_alloc_starved_point_prints_minus_inf(tmp_path):
    """10 dB cannot reach the 0.03 floor: reverse energy and AN are exactly
    zero, which the dB columns must render as -inf."""
    code, out = _run(tmp_path, "alloc", "--gamma", "0.03", "--pave-db", "10")
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    assert rows[0][2] == "-inf"  # er_db
    assert rows[0][4] == "-inf"  # an_db


def test_nonreciprocal_alloc_schema(tmp_path):
    code, out = _run(tmp_path, "alloc", "--scheme", "non-reciprocal",
                     "--gamma", "0.1", "--pave-db", "20")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["p_ave_db", "gamma", "e0_db", "e1_db", "e2_db",
                      "e3_db", "an_db", "nmse_l", "nmse_u"]
    assert len(rows) == 1


def test_json_output(tmp_path):
    out = tmp_path / "table.json"
    code = cli.main(["alloc", "--gamma", "0.1", "--pave-db", "20",
                     "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(strip_footer(out.read_text()))
    assert payload["columns"][0] == "p_ave_db"
    assert len(payload["rows"]) == 1


def test_same_invocation_same_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["nmse", "--gamma", "0.1", "--pave-db", "20", "--trials", "200"]
    assert cli.main([*argv, "--out", str(out_a)]) == EXIT_OK
    assert cli.main([*argv, "--out", str(out_b)]) == EXIT_OK
    assert strip_footer(out_a.read_text()) == strip_footer(out_b.read_text())


def test_nmse_lower_bound_decreases_with_power(tmp_path):
    code, out = _run(tmp_path, "nmse", "--gamma", "0.1",
                     "--pave-db", "5,10,15,20", "--trials", "100")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    col = header.index("nmse_lower_bound")
    bounds = [float(r[col]) for r in rows]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_forward_length_sweep_monotone(tmp_path):
    """Fixed energy budgets: stretching the forward phase dilutes per-slot
    power, so the analytic LR error can only stay or grow."""
    code, out = _run(tmp_path, "nmse", "--gamma", "0.1", "--pave-db", "20",
                     "--tau-f", "4,6,8,12,16", "--trials", "100")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert [r[header.index("tau_f")] for r in rows] == ["4", "6", "8", "12", "16"]
    col = header.index("nmse_l_analytic")
    vals = [float(r[col]) for r in rows]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_forward_length_sweep_row_does_not_depend_on_the_list(tmp_path):
    """A --tau-f list keeps the energy budgets of the default length n_t, so
    its row 8 is the same bytes in any list; a single --tau-f 8 keeps the
    power caps instead and prints another row."""
    rows = {}
    for sweep in ("4,8", "8,16", "8"):
        code, out = _run(tmp_path, "nmse", "--tau-f", sweep, "--trials", "100")
        assert code == EXIT_OK
        rows[sweep] = [r for r in out.read_bytes().splitlines(keepends=True)
                       if r.startswith(b"reciprocal,") and b",20,8," in r]
    assert len(rows["4,8"]) == 1
    assert rows["4,8"] == rows["8,16"] != rows["8"]


@pytest.mark.parametrize("golden, argv", [
    (g.file, g.argv) for g in GOLDENS.values() if g.argv and g.argv[0] == "alloc"])
def test_alloc_golden_rows_match_single_point_runs(tmp_path, golden, argv):
    """A sweep row does not depend on its sweep: each golden row is the row
    printed when its (gamma, p_ave) point is solved alone."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    rows = (GOLDEN_DIR / golden).read_bytes().splitlines(keepends=True)
    points = [(gamma, pave) for gamma in opts["--gamma"].split(",")
              for pave in opts["--pave-db"].split(",")]
    assert len(rows) == 1 + len(points)
    for row, (gamma, pave) in zip(rows[1:], points):
        code, out = _run(tmp_path, "alloc", "--scheme", opts["--scheme"],
                         "--pave-db", pave, "--gamma", gamma)
        assert code == EXIT_OK
        assert out.read_bytes().splitlines(keepends=True)[1] == row


@pytest.mark.parametrize("name", GOLDENS)
def test_monte_carlo_table_matches_golden(tmp_path, name):
    """Each golden of ``helpers.GOLDENS`` holds against a fresh run: a
    deterministic one byte for byte, a Monte-Carlo table within rounding
    (``helpers.moved``).  ``tests/golden/repin.py --write`` re-pins."""
    golden = GOLDENS[name]
    pinned = (GOLDEN_DIR / golden.file).read_bytes().decode()
    assert moved(golden, pinned, produce(name, tmp_path)) == []


def test_changed_cells_forgive_only_rounding():
    """A float cell may move by 1e-12 relative; an integer or text cell, a
    larger move, a dropped, added or reordered column or a changed row
    count is marked moved."""
    golden = "scheme,nmse,trials\nreciprocal,0.5,100\n"
    assert changed_cells(golden, "scheme,nmse,trials\nreciprocal,0.50000000000001,100\n") == [
        (1, "nmse", "0.5", "0.50000000000001", False)]
    assert changed_cells(golden, "scheme,nmse,trials\nreciprocal,0.5000000001,101\n") == [
        (1, "nmse", "0.5", "0.5000000001", True), (1, "trials", "100", "101", True)]
    assert changed_cells(golden, "scheme,nmse,trials\necho,0.5,100\n") == [
        (1, "scheme", "reciprocal", "echo", True)]
    assert changed_cells(golden, golden + "echo,0.5,100\n")[0][0] is None
    # a changed header still compares every shared cell, by column name
    assert changed_cells(golden, "nmse,scheme,hw95\n0.5,echo,0.01\n") == [
        (None, "trials", "column", "dropped", True),
        (None, "hw95", "column", "added", True),
        (None, "order", "scheme nmse", "nmse scheme", True),
        (1, "scheme", "reciprocal", "echo", True)]
    assert changed_cells(golden, "scheme,nmse\nreciprocal,0.50000000000001\n") == [
        (None, "trials", "column", "dropped", True),
        (1, "nmse", "0.5", "0.50000000000001", False)]


def test_nmse_sweep_rows_match_single_point_runs(tmp_path):
    """Every point draws from the same seed, so a sweep row is the row the
    point prints alone."""
    argv = ["nmse", "--trials", "200", "--seed", "7"]
    code, out = _run(tmp_path, *argv, "--gamma", "0.1,0.03",
                     "--pave-db", "15,20")
    assert code == EXIT_OK
    rows = [r for r in out.read_bytes().splitlines(keepends=True)[1:]
            if not r.startswith(b"#")]
    assert len(rows) == 4
    points = [("0.1", "15"), ("0.1", "20"), ("0.03", "15"), ("0.03", "20")]
    for row, (gamma, pave) in zip(rows, points):
        code, single = _run(tmp_path, *argv, "--gamma", gamma,
                            "--pave-db", pave)
        assert code == EXIT_OK
        assert single.read_bytes().splitlines(keepends=True)[1] == row


def test_condensation_optimizes_the_sigma_squared_surrogate(tmp_path):
    """At the golden grid's gamma = 0.5 points, condensation's objective is
    the sigma-squared Jensen surrogate of its own allocation (to 1e-8), not
    the printed one (1e-3 away), and --jensen-variant changes only the
    reported nmse_l column, never the allocation."""
    argv = ["alloc", "--scheme", "non-reciprocal", "--pave-db", "10,15,20,25,30",
            "--gamma", "0.5"]
    tables = {}
    for variant in ("printed", "sigma-squared"):
        code, out = _run(tmp_path, *argv, "--jensen-variant", variant)
        assert code == EXIT_OK
        tables[variant] = _read_csv(out)
    header, printed = tables["printed"]
    _, sigma = tables["sigma-squared"]
    col = header.index("nmse_l")
    assert len(printed) == 5
    for row_p, row_s in zip(printed, sigma):
        assert row_p[:col] + row_p[col + 1:] == row_s[:col] + row_s[col + 1:]
        params = dce.default_params(p_ave_db=float(row_p[0]))
        objective = dce.condense(params, 0.5).objective
        assert abs(float(row_s[col]) / objective - 1.0) <= 1e-8
        assert abs(float(row_p[col]) / objective - 1.0) >= 1e-3


def test_single_tau_flag_is_plain_override(tmp_path):
    code, out = _run(tmp_path, "alloc", "--gamma", "0.1", "--pave-db", "20",
                     "--tau-f", "8")
    assert code == EXIT_OK


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("gamma=0.2\npave_db=10\npbar_t_db=30\n")
    code, out = _run(tmp_path, "alloc", "--config", str(cfg),
                     "--gamma", "0.1")
    assert code == EXIT_OK
    _, rows = _read_csv(out)
    assert [float(r[1]) for r in rows] == [0.1]   # flag wins
    assert [float(r[0]) for r in rows] == [10.0]  # file survives where not overridden


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_exit_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gama=0.1\n")
    assert cli.main(["alloc", "--config", str(bad)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert cli.main(["nmse", "--trials", "0"]) == EXIT_CONFIG
    assert cli.main(["alloc", "--gamma", ","]) == EXIT_CONFIG
    assert cli.main(["nmse", "--tau-f", "four"]) == EXIT_CONFIG
    capsys.readouterr()
    for text in ("full_scale=true\n", "scheme=non-reciprocal\ntau_r=8\n"):
        bad.write_text(text)
        assert cli.main(["alloc", "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("configuration error") == 2


@pytest.mark.parametrize("target", ["directory", "missing-parent", "empty"])
def test_exit_config_unwritable_out(tmp_path, capsys, monkeypatch, target):
    """An --out that cannot be written is one configuration error line and
    exit 2, not a traceback from the write, and it is found before the
    sweep: a ser sweep never calls the solver."""
    def solver_called(*args, **kwargs):
        raise AssertionError("a point was computed")

    monkeypatch.setattr(cli, "run_ser_experiment", solver_called)
    monkeypatch.setattr(cli, "solve_allocation", solver_called)
    out = {"directory": tmp_path, "missing-parent": tmp_path / "no" / "x.csv",
           "empty": ""}[target]
    for command in (["alloc", "--gamma", "0.1", "--pave-db", "20"],
                    ["ser", "--trials", "20000", "--scheme", "non-reciprocal",
                     "--pave-db", "10,20,30"]):
        assert cli.main([*command, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {out}:")
        assert captured.err.count("\n") == 1


def test_out_check_neither_creates_nor_truncates(tmp_path, monkeypatch):
    """Checking a writable --out leaves it alone: a sweep that fails after
    the check creates no new file and keeps an existing one's bytes."""
    def not_converged(*args, **kwargs):
        raise dce.NotConverged("stopped")

    monkeypatch.setattr(cli, "solve_allocation", not_converged)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"old bytes\n")
    for out in (fresh, kept):
        assert cli.main(["alloc", "--out", str(out)]) == 1
    assert not fresh.exists()
    assert kept.read_bytes() == b"old bytes\n"


def test_exit_config_file_not_utf8(tmp_path, capsys):
    """A config file that does not decode as UTF-8 is a configuration error,
    like one that cannot be opened."""
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"gamma=0.1\n\xff\xfe\x80\n")
    assert cli.main(["alloc", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config {cfg}:")
    assert err.count("\n") == 1


def test_exit_config_non_finite_input(capsys):
    assert cli.main(["alloc", "--pave-db", "nan"]) == EXIT_CONFIG
    assert "pave_db must be finite" in capsys.readouterr().err
    assert cli.main(["alloc", "--gamma", "0.1,nan"]) == EXIT_CONFIG
    assert cli.main(["alloc", "--pbar-t-db", "inf"]) == EXIT_CONFIG
    assert cli.main(["alloc", "--pbar-l-db=-inf"]) == EXIT_CONFIG


def test_exit_config_negative_seed(tmp_path, capsys):
    """A negative seed is a configuration error before anything runs, not
    a traceback from the RNG."""
    for command in ("nmse", "ser"):
        assert cli.main([command, "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-1\n")
    assert cli.main(["nmse", "--config", str(cfg)]) == EXIT_CONFIG


def test_exit_config_too_few_nmse_trials(capsys):
    assert cli.main(["nmse", "--trials", "50"]) == EXIT_CONFIG
    assert "at least 100 trials" in capsys.readouterr().err


def test_exit_config_tau_sweep_wrong_command():
    assert cli.main(["alloc", "--gamma", "0.1", "--tau-f", "4,8"]) == EXIT_CONFIG
    assert cli.main(["ser", "--gamma", "0.1", "--tau-f", "4,8"]) == EXIT_CONFIG
    assert cli.main(["nmse", "--scheme", "non-reciprocal",
                     "--tau-f", "4,8"]) == EXIT_CONFIG


@pytest.mark.parametrize("sweep", ["4,2", "0,4", "4,100000000000"])
def test_exit_config_tau_sweep_value_invalid(sweep, capsys):
    """Every --tau-f sweep value gets a single value's checks: tau_f below
    n_t (rank-deficient forward pilot), zero or past the length cap is a
    configuration error, not a traceback (or numpy's memory error) from the
    sweep."""
    assert cli.main(["nmse", "--tau-f", sweep, "--trials", "100"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["alloc", "--scheme", "non-reciprocal", "--tau-f", "8"],
    ["nmse", "--scheme", "non-reciprocal", "--tau-f", "8", "--trials", "100"],
    ["ser", "--scheme", "non-reciprocal", "--tau-f", "8", "--trials", "100"],
    ["ser", "--tau-f", "4,8", "--trials", "100"],
])
def test_exit_config_tau_f_outside_its_scope(argv, capsys):
    """The echo scheme pins its forward phase to n_t slots, and only nmse
    sweeps the forward length: a --tau-f under the echo scheme, or a
    --tau-f list for another command, is a configuration error, never a
    table computed without the value."""
    assert cli.main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("key, argv", [
    ("tau_f", ["nmse", "--scheme", "non-reciprocal", "--tau-f", "4,8"]),
    ("gamma", ["nmse", "--gamma", "0"]),
    ("modulation", ["ser", "--modulation", "32"]),
])
def test_rejection_is_one_line_naming_its_key(capsys, key, argv):
    """A value a key does not admit, or a key the scheme does not read (a
    --tau-f list too, which leaves the config before it is built), exits 2
    with one configuration error line that names the key; a zero gamma is
    such a value, not an infeasible floor (exit 3)."""
    assert cli.main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1 and key in captured.err


@pytest.mark.parametrize("argv", [
    ["alloc", "--trials", "5"],
    ["alloc", "--seed", "7"],
    ["nmse", "--full-scale"],
    ["ser", "--full-scale"],
    ["alloc", "--modulation", "16"],
    ["nmse", "--modulation", "16"],
    ["ser", "--tau-r", "8"],
    ["nmse", "--n-u", "3"],
])
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    """Each subcommand declares only the flags it reads; any other is a
    usage error (exit 2) before anything runs or prints."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_retired_verify_command_is_a_usage_error(capsys):
    """The three subcommands are alloc, nmse and ser: ``dce verify`` is an
    argparse usage error (exit 2) that prints nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'verify'" in captured.err


# the flags of each subcommand, as the README's flag table lists them
README_FLAGS = {
    "alloc": {"--scheme", "--tau-f", "--jensen-variant"},
    "nmse": {"--scheme", "--tau-f", "--jensen-variant", "--trials", "--seed"},
    "ser": {"--scheme", "--tau-f", "--jensen-variant", "--trials", "--seed",
            "--modulation"},
}
COMMON_FLAGS = {"--config", "--gamma", "--pave-db", "--pbar-t-db",
                "--pbar-l-db", "--out", "--format"}


@pytest.mark.parametrize("command", sorted(README_FLAGS))
def test_parser_declares_exactly_the_table_flags(command):
    """Each subcommand's parser exposes --config plus the flag of every key
    KEYS says it reads (keys without a help have no flag), which is the
    README's flag table."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {s for action in sub.choices[command]._actions
             for s in action.option_strings} - {"-h", "--help"}
    assert flags == {"--config"} | {
        "--" + key.name.replace("_", "-") for key in KEYS
        if key.help is not None and command in key.commands}
    assert flags == COMMON_FLAGS | README_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["nmse", "--trials", "abc"],
    ["nmse", "--seed", "1.5"],
    ["ser", "--modulation", "32"],
    ["alloc", "--scheme", "foo"],
    ["alloc", "--format", "xml"],
    ["alloc", "--pbar-t-db", "loud"],
    ["alloc", "--scheme", "non-reciprocal", "--jensen-variant", "exact"],
])
def test_bad_flag_value_is_one_configuration_error(argv, capsys):
    """A flag's value goes through the parser and the checks of its config
    key, so a bad one exits 2 with the one line a config file gets, not a
    usage block."""
    assert cli.main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1


def test_config_tau_f_list_means_what_the_flag_means(tmp_path, capsys):
    """One parser per key: a tau_f list in a config file sweeps the forward
    length like the same --tau-f list, with the same scope rules."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gamma=0.1\npave_db=20\ntau_f=4,8\ntrials=100\n")
    from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert cli.main(["nmse", "--config", str(cfg), "--out", str(from_file)]) == EXIT_OK
    assert cli.main(["nmse", "--gamma", "0.1", "--pave-db", "20", "--tau-f", "4,8",
                     "--trials", "100", "--out", str(from_flag)]) == EXIT_OK
    table = strip_footer(from_file.read_text())
    assert len(table.splitlines()) == 3 and table == strip_footer(from_flag.read_text())
    capsys.readouterr()
    for text, message in (("tau_f=4,8\n", "a tau_f list sweeps"),
                          ("scheme=non-reciprocal\ntau_f=8\n", "does not read tau_f")):
        cfg.write_text(text)
        assert cli.main(["alloc", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err


def test_exit_config_db_overflow(tmp_path, capsys):
    """A dB value too large for a float is a configuration error before
    anything runs, from a flag or from a config key."""
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("pbar_l_db=4000\n")
    for argv in (["alloc", "--pave-db", "4000"], ["alloc", "--pbar-t-db", "4000"],
                 ["alloc", "--config", str(cfg)], ["nmse", "--pave-db", "0,4000"]):
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["n_t=100000", "n_t=3000", "n_u=1000000000"])
def test_exit_config_antenna_count_past_the_cap(tmp_path, capsys, text):
    """An antenna count past MAX_ANTENNAS is one configuration error line,
    not numpy's memory error from building the pilot or drawing the
    channels."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text + "\n")
    assert cli.main(["nmse", "--config", str(cfg), "--trials", "100"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, text", [
    ("alloc", "trials=5\n"),
    ("alloc", "seed=9\n"),
    ("alloc", "n_u=3\n"),
    ("nmse", "modulation=16\n"),
])
def test_exit_config_key_the_command_does_not_read(tmp_path, capsys, command, text):
    """A config-file key the subcommand never reads is a configuration
    error, the way its flag is a usage error, not a table computed
    without it."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("gamma=0.1\n" + text)
    assert cli.main([command, "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert text.split("=")[0] in captured.err


def test_exit_config_jensen_variant_under_reciprocal_scheme(tmp_path, capsys):
    """Only the echo scheme's closed forms read the Jensen variant: naming
    one, even the default, under the reciprocal scheme is a configuration
    error; under the echo scheme it is accepted."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("jensen_variant=printed\n")
    for argv in (["alloc", "--jensen-variant", "sigma-squared"],
                 ["nmse", "--jensen-variant", "printed", "--trials", "100"],
                 ["alloc", "--config", str(cfg)]):
        assert cli.main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "jensen_variant" in err
    code, _ = _run(tmp_path, "alloc", "--config", str(cfg),
                   "--scheme", "non-reciprocal")
    assert code == EXIT_OK


def test_exit_solver_failure_unconverged_condensation(tmp_path, capsys):
    """At 21.9 dB with a floor near gamma_min, condensation is still
    improving when it reaches CONDENSE_MAX_ROUNDS: the point exits 1
    (solver breakdown) with no table, never a clean-looking row."""
    code, out = _run(tmp_path, "alloc", "--scheme", "non-reciprocal",
                     "--pave-db", "21.85171805635131",
                     "--gamma", "0.002135938778585504")
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("solver failure:")


def test_exit_infeasible(capsys):
    assert cli.main(["alloc", "--scheme", "non-reciprocal",
                     "--gamma", "1e-9"]) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err
    assert cli.main(["alloc", "--gamma", "1.5"]) == EXIT_INFEASIBLE


@pytest.mark.parametrize("command", ["alloc", "nmse", "ser"])
def test_exit_infeasible_echo_floor_at_prior(command, capsys):
    """gamma = var_g leaves the echo scheme's floor constraint dividing by
    zero: one infeasible line and exit 3, not a traceback."""
    argv = [command, "--scheme", "non-reciprocal", "--gamma", "1"]
    assert cli.main(argv + (["--trials", "100"] if command != "alloc" else [])) \
        == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible:") and captured.err.count("\n") == 1


def test_reciprocal_floor_at_prior_row(tmp_path):
    """The reciprocal scheme still solves gamma = var_g: no forward pilots,
    no AN."""
    code, out = _run(tmp_path, "alloc", "--gamma", "1")
    assert code == EXIT_OK
    assert out.read_bytes().splitlines()[1] == b"20,1,-inf,-inf,-inf,1,1"


@pytest.mark.parametrize("argv", [["--gamma", "1"],
                                  ["--pbar-l-db=-200", "--gamma", "0.5"]])
def test_no_an_where_it_buys_nothing(argv, tmp_path):
    """At e_r == mu (e_r = 0 at unit variances) AN leaves the objective
    unchanged but costs energy: the solver spends none, and the Monte-Carlo
    run at that allocation draws no degenerate trial (which would exit 6)."""
    code, out = _run(tmp_path, "alloc", *argv)
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert rows[0][header.index("an_db")] == "-inf"
    code, _ = _run(tmp_path, "nmse", *argv, "--trials", "100")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [["--gamma", "1"],
                                  ["--pbar-t-db=-200", "--gamma", "0.5"]])
def test_exit_infeasible_ser_without_forward_pilots(argv, capsys):
    """A floor met with no forward pilots leaves neither receiver a channel
    estimate: one infeasible line and exit 3, not a geometry error."""
    assert cli.main(["ser", *argv, "--trials", "10"]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible:") and captured.err.count("\n") == 1


def test_exit_geometry(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("n_t=6\nn_l=2\ntrials=200\n")
    assert cli.main(["ser", "--config", str(cfg)]) == EXIT_GEOMETRY
    assert "unsupported geometry" in capsys.readouterr().err


def test_exit_degenerate_draw(monkeypatch, capsys):
    """Echo energies of 1e200 overflow the AN basis's Householder norms:
    the first block's outcomes are NaN, and the run stops there with exit 6
    and one stderr line naming the trial and its block."""
    huge = nonreciprocal_allocation(1e200, 1e200, 1e200, 10.0, 1.0)
    monkeypatch.setattr(cli, "solve_allocation",
                        lambda params, gamma, scheme, variant: (huge, 0.5, 0.5))
    with pytest.warns(RuntimeWarning) as warned:
        code = cli.main(["nmse", "--scheme", "non-reciprocal", "--gamma", "0.1",
                         "--pave-db", "20", "--trials", "100"])
    assert code == EXIT_DEGENERATE
    assert any("overflow" in str(w.message) for w in warned)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("non-finite outcome: trial 0 (block 0) ")
    assert captured.err.count("\n") == 1


def test_ser_table_header(tmp_path):
    code, out = _run(tmp_path, "ser", "--gamma", "0.1", "--pave-db", "20",
                     "--modulation", "16", "--trials", "200")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["p_ave_db", "gamma", "ser_lr", "ser_ur", "trials"]
    assert [r[header.index("trials")] for r in rows] == ["200"]


@pytest.mark.parametrize("command,trials", [("nmse", "2000"), ("ser", "1000")])
def test_echo_scheme_at_extreme_power(tmp_path, command, trials):
    """At 140 and 200 dB no draw is degenerate (which would exit 6), and the
    analytic LR NMSE stays within accept-07's 15% of Monte Carlo."""
    code, out = _run(tmp_path, command, "--trials", trials,
                     "--scheme", "non-reciprocal", "--gamma", "0.5",
                     "--pave-db", "140,200", "--pbar-l-db", "200",
                     "--pbar-t-db", "210")
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert len(rows) == 2
    if command == "nmse":
        for r in rows:
            analytic = float(r[header.index("nmse_l_analytic")])
            empirical = float(r[header.index("nmse_l_empirical")])
            assert abs(empirical / analytic - 1.0) <= 0.15
