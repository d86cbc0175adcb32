r"""Command-line interface.

Subcommands:

* ``alloc``  — solve the configured power-allocation problem, print one row.
* ``nmse``   — analytic + empirical NMSE for the solved allocation; with a
  comma-separated ``--tau-f`` list, sweep the forward training length at
  fixed total energy budgets (reciprocal scheme only; ``alloc`` and
  ``ser`` reject a list).
* ``ser``    — data-phase symbol error rates with estimated channels.
* ``verify`` — at one (gamma, p_ave) point, solves the echo scheme's
  allocation, computes its exact spectral factor (it and its miss must
  be positive, or the factor 0 without a round trip; no sampling) and
  reports which closed-form surrogate it favours.  The other self-checks
  live in the test suite.

Each subcommand declares only the flags it reads: ``--config`` and the
flag of each ``config.KEYS`` entry that names the command and has a help.

Exit codes: 0 success, 1 solver breakdown, 2 configuration problem,
3 infeasible problem (also a verify point outside the echo scheme's floor
interval, or a ser point whose floor is met with no forward pilots),
4 unsupported geometry (a transmit antenna count the block code cannot
drive), 5 a failed verify check, 6 a degenerate Monte-Carlo draw (a trial
whose transmitter estimate lost rank, so AN has no null space).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

from .config import KEY_BY_NAME, KEYS, ExperimentConfig, read_config_file
from .errors import (ConfigError, Infeasible, InfeasibleGamma, NotConverged,
                     RankDeficient, Stalled, UnsupportedGeometry)
from .montecarlo import (DESK_NMSE_TRIALS, DESK_SER_TRIALS, MIN_NMSE_TRIALS,
                         run_nmse_experiment, run_ser_experiment,
                         solve_allocation)
from .nmse import (JENSEN_VARIANTS, jensen_factor, jensen_miss,
                   nmse_lower_bound, spectral_factor)
from .params import (NON_RECIPROCAL, RECIPROCAL, PowerAllocation, linear_to_db,
                     with_fixed_energy_budgets)
from .tables import ResultTable, check_writable, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GEOMETRY = 4
EXIT_VERIFY = 5
EXIT_DEGENERATE = 6


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Flag values stay raw text: effective_config parses them by KEYS."""
    parser = argparse.ArgumentParser(
        prog="dce",
        description="Discriminatory channel estimation: training simulation, "
                    "power allocation, and verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("alloc", cmd_alloc, "solve the power allocation"),
            ("nmse", cmd_nmse, "analytic vs empirical estimation error"),
            ("ser", cmd_ser, "data-phase symbol error rates"),
            ("verify", cmd_verify,
             "check the echo scheme's spectral factor at one point")):
        sp = sub.add_parser(name, help=extra)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key in KEYS:
            if key.help is not None and name in key.commands:
                sp.add_argument("--" + key.name.replace("_", "-"), dest=key.name,
                                default=argparse.SUPPRESS, help=key.help)
        sp.set_defaults(fn=fn)
    return parser


def effective_config(args: argparse.Namespace):
    """The --config file's values overlaid by the flags', validated; a file
    key the command does not read, or an --out that cannot be written, is a
    configuration error.  Returns the config and the --tau-f sweep (None
    unless tau_f lists several values)."""
    values = read_config_file(args.config) if args.config else {}
    unread = sorted(k for k in values if args.command not in KEY_BY_NAME[k].commands)
    if unread:
        raise ConfigError(f"{args.command} does not read the config key(s) "
                          f"{', '.join(unread)}")
    for key, raw in vars(args).items():
        if key in KEY_BY_NAME:
            values[key] = KEY_BY_NAME[key].parse(key, raw)
    taus = values.pop("tau_f", None)
    if taus is not None and len(taus) == 1:
        values["tau_f"], taus = taus[0], None
    cfg = ExperimentConfig(**values).validate()
    if taus is not None and args.command != "nmse":
        raise ConfigError("a tau_f list sweeps the forward length and only "
                          "applies to the nmse command")
    if args.command == "verify" and (len(cfg.gamma) > 1 or len(cfg.pave_db) > 1):
        raise ConfigError("verify checks one point: give one gamma and one pave_db")
    for tau_f in taus or ():
        # each sweep value gets the checks a single --tau-f value gets
        dataclasses.replace(cfg, tau_f=tau_f).validate().to_params(cfg.pave_db[0])
    if cfg.out is not None:
        check_writable(cfg.out)
    return cfg, taus


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_alloc(cfg: ExperimentConfig, taus: Optional[List[int]]) -> int:
    names = [k for k in PowerAllocation(cfg.scheme).energies() if k != "var_a"]
    table = ResultTable(["p_ave_db", "gamma",
                         *(k.replace("_", "") + "_db" for k in names),
                         "an_db", "nmse_l", "nmse_u"])
    for gamma, pave_db, params in cfg.points():
        alloc, nmse_l, nmse_u = solve_allocation(params, gamma, cfg.scheme,
                                                 cfg.jensen())
        energies = alloc.energies()
        an_power = (params.n_t - params.n_l) * alloc.var_a
        table.add_row(pave_db, gamma, *(linear_to_db(energies[k]) for k in names),
                      linear_to_db(an_power), nmse_l, nmse_u)
    write_table(table, cfg.format, cfg.out)
    return EXIT_OK


def cmd_nmse(cfg: ExperimentConfig, taus: Optional[List[int]]) -> int:
    trials = cfg.trials if cfg.trials is not None else DESK_NMSE_TRIALS
    if trials < MIN_NMSE_TRIALS:
        raise ConfigError(f"nmse needs at least {MIN_NMSE_TRIALS} trials, "
                          f"got {trials}")
    table = ResultTable(["scheme", "gamma", "p_ave_db", "tau_f",
                         "nmse_l_analytic", "nmse_l_empirical", "hw95_lr",
                         "nmse_u_analytic", "nmse_u_empirical", "hw95_ur",
                         "nmse_lower_bound", "trials"])
    for gamma, pave_db, params in cfg.points():
        for tau_f in taus or [params.tau_f]:
            p = (with_fixed_energy_budgets(params, tau_f)
                 if cfg.scheme == RECIPROCAL else params)
            alloc, nmse_l, nmse_u = solve_allocation(
                p, gamma, cfg.scheme, cfg.jensen())
            rep = run_nmse_experiment(p, alloc, trials=trials, seed=cfg.seed,
                                      jensen_variant=cfg.jensen())
            table.add_row(cfg.scheme, gamma, pave_db, tau_f,
                          nmse_l, rep.empirical_lr, rep.half_width_95_lr,
                          nmse_u, rep.empirical_ur, rep.half_width_95_ur,
                          nmse_lower_bound(p, cfg.scheme), rep.trials)
    write_table(table, cfg.format, cfg.out)
    return EXIT_OK


def cmd_ser(cfg: ExperimentConfig, taus: Optional[List[int]]) -> int:
    trials = cfg.trials if cfg.trials is not None else DESK_SER_TRIALS
    table = ResultTable(["p_ave_db", "gamma", "ser_lr", "ser_ur", "trials"])
    for gamma, pave_db, params in cfg.points():
        rep = run_ser_experiment(params, gamma, cfg.modulation, trials=trials,
                                 seed=cfg.seed, scheme=cfg.scheme,
                                 jensen_variant=cfg.jensen())
        table.add_row(pave_db, gamma, rep.ser_lr, rep.ser_ur, rep.trials)
    write_table(table, cfg.format, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def _require(ok, message: str) -> None:
    """Fail the running self-check; unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _check_jensen_adjudication(params, alloc):
    """F in (0, 1), or 0 where both surrogates are; F and the surrogates
    are compared by their misses 1 - F, exact where F rounds to 1."""
    factor, miss = spectral_factor(params, alloc)
    if all(jensen_factor(params, alloc, v) == 0.0 for v in JENSEN_VARIANTS):
        _require(factor == 0.0, "factor must vanish without a round trip")
    else:
        _require(factor > 0.0 and miss > 0.0, "spectral factor out of range")
    gaps = {v: abs(miss - jensen_miss(params, alloc, v)) for v in JENSEN_VARIANTS}
    closer = min(JENSEN_VARIANTS, key=gaps.__getitem__)
    detail = (f"exact {factor:.4f}; "
              + "; ".join(f"{v} off by {gaps[v]:.4f}" for v in JENSEN_VARIANTS)
              + f"; closer: {closer}")
    return gaps[closer], detail


def cmd_verify(cfg: ExperimentConfig, taus: Optional[List[int]]) -> int:
    params = cfg.to_params(cfg.pave_db[0])
    # an infeasible point (condense checks the floor first) or a solver
    # failure is not a failed check: both exit before the table, as in
    # every other command
    alloc, _, _ = solve_allocation(params, cfg.gamma[0], NON_RECIPROCAL)
    table = ResultTable(["check", "status", "deviation", "detail"])
    try:
        deviation, detail = _check_jensen_adjudication(params, alloc)
    except AssertionError as exc:
        table.add_row("jensen-adjudication", "fail", float("nan"), str(exc))
        code = EXIT_VERIFY
    else:
        table.add_row("jensen-adjudication", "pass", deviation, detail)
        code = EXIT_OK
    write_table(table, cfg.format, cfg.out)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, taus = effective_config(args)
        return args.fn(cfg, taus)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleGamma, Infeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnsupportedGeometry as exc:
        print(f"unsupported geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (Stalled, NotConverged) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except RankDeficient as exc:
        print(f"degenerate draws: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
