r"""Command-line interface.

Subcommands:

* ``alloc``  — solve the configured power-allocation problem, print one row.
* ``nmse``   — analytic + empirical NMSE for the solved allocation; with a
  comma-separated ``--tau-f`` list, sweep the forward training length at
  fixed total energy budgets (reciprocal scheme only; ``alloc`` and
  ``ser`` reject a list).
* ``ser``    — data-phase symbol error rates with estimated channels.

Each subcommand declares only the flags it reads: ``--config`` and the
flag of each ``config.KEYS`` entry that names the command and has a help.

Exit codes: 0 success, 1 solver breakdown, 2 configuration problem,
3 infeasible problem (also a ser point whose floor is met with no forward
pilots), 4 unsupported geometry (a transmit antenna count the block code
cannot drive), 6 a non-finite Monte-Carlo outcome (a trial whose squared
error is NaN or infinite, as after an overflow).  5, once a failed self-check,
is retired and not reused.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

from .config import KEY_BY_NAME, KEYS, ExperimentConfig, read_config_file
from .errors import (ConfigError, Infeasible, InfeasibleGamma,
                     NonFiniteOutcome, NotConverged, Stalled,
                     UnsupportedGeometry)
from .montecarlo import (DESK_NMSE_TRIALS, DESK_SER_TRIALS, MIN_NMSE_TRIALS,
                         run_nmse_experiment, run_ser_experiment,
                         solve_allocation)
from .nmse import nmse_lower_bound
from .params import PowerAllocation, linear_to_db, with_fixed_energy_budgets
from .tables import ResultTable, check_writable, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GEOMETRY = 4
EXIT_DEGENERATE = 6


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Flag values stay raw text: effective_config parses them by KEYS."""
    parser = argparse.ArgumentParser(
        prog="dce",
        description="Discriminatory channel estimation: training simulation, "
                    "power allocation, NMSE and symbol-error-rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("alloc", cmd_alloc, "solve the power allocation"),
            ("nmse", cmd_nmse, "analytic vs empirical estimation error"),
            ("ser", cmd_ser, "data-phase symbol error rates")):
        sp = sub.add_parser(name, help=extra)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for key in KEYS:
            if key.help is not None and name in key.commands:
                sp.add_argument("--" + key.name.replace("_", "-"), dest=key.name,
                                default=argparse.SUPPRESS, help=key.help)
        sp.set_defaults(fn=fn)
    return parser


def effective_config(args: argparse.Namespace):
    """The --config file's values overlaid by the flags', validated.  A key
    given in either that the command or the scheme does not read, or an
    --out that cannot be written, is a configuration error.  Returns the
    config and the --tau-f sweep (None unless tau_f lists several values)."""
    values = read_config_file(args.config) if args.config else {}
    for key, raw in vars(args).items():
        if key in KEY_BY_NAME:
            values[key] = KEY_BY_NAME[key].parse(key, raw)
    given = sorted(values)   # tau_f too, whose list leaves values next
    taus = values.pop("tau_f", None)
    if taus is not None and len(taus) == 1:
        values["tau_f"], taus = taus[0], None
    cfg = ExperimentConfig(**values).validate()
    unread = [k for k in given if args.command not in KEY_BY_NAME[k].commands
              or cfg.scheme not in KEY_BY_NAME[k].schemes]
    if unread:
        raise ConfigError(f"{args.command} under the {cfg.scheme} scheme does "
                          f"not read {', '.join(unread)}")
    if taus is not None and args.command != "nmse":
        raise ConfigError("a tau_f list sweeps the forward length and only "
                          "applies to the nmse command")
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
        alloc, nmse_l, nmse_u = solve_allocation(params, gamma, cfg.scheme)
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
            # the scope rule keeps a tau_f list to the reciprocal scheme
            p = with_fixed_energy_budgets(params, tau_f) if taus else params
            alloc, nmse_l, nmse_u = solve_allocation(p, gamma, cfg.scheme)
            rep = run_nmse_experiment(p, alloc, trials=trials, seed=cfg.seed)
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
                                 seed=cfg.seed, scheme=cfg.scheme)
        table.add_row(pave_db, gamma, rep.ser_lr, rep.ser_ur, rep.trials)
    write_table(table, cfg.format, cfg.out)
    return EXIT_OK


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
    except NonFiniteOutcome as exc:
        print(f"non-finite outcome: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
