"""``tests/golden/repin.py``'s rules, driven with substituted producers on a
temporary golden directory (the committed goldens are never touched)."""

import importlib.util
import json
from pathlib import Path

import pytest

from helpers import DRAWS, EXACT, SOLVER, Golden

_SPEC = importlib.util.spec_from_file_location(
    "repin", Path(__file__).parent / "golden" / "repin.py")
repin = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(repin)


def _panel(objective, rounds, t="1.5"):
    return json.dumps([{"p_ave_db": 20.0, "gamma": 0.1, "objective": objective,
                        "state": f"GpState(t={t}, t0=2.0)", "rounds": rounds,
                        "converged": True}], indent=1) + "\n"


# rule, file, pinned text, fresh text (None: the producer raises), whether
# --write may re-pin it, and a line the report or the refusal must print.
# An added column is a move, so its table is re-pinned, while the shared
# cell is still compared and reported within rounding.
CASES = {
    "draws-cell-moves": (DRAWS, "mc.csv", "ser_lr,trials\r\n0.1,1000\r\n",
                         "ser_lr,trials\r\n0.12,1000\r\n", True, "|d|/hw95 1.7  MOVED"),
    "draws-ser-cell-leaves-zero": (DRAWS, "mc.csv", "ser_lr,trials\n0,1000\n",
                                   "ser_lr,trials\n0.006,1000\n", True,
                                   "rel inf  |d|/hw95 2.2  MOVED"),
    "draws-cell-implausible": (DRAWS, "mc.csv",
                               "nmse_l_empirical,hw95_lr\n0.5,0.01\n",
                               "nmse_l_empirical,hw95_lr\n0.545,0.0101\n", False,
                               "mc.csv row 1 nmse_l_empirical moved 4.5 half-widths"),
    "draws-column-added": (DRAWS, "mc.csv", "scheme,nmse\nreciprocal,0.5\n",
                           "scheme,nmse,hw95\nreciprocal,0.50000000000001,0.01\n",
                           True, "rel 2.0e-14\n"),
    "solver-rounds-change": (SOLVER, "panel.json", _panel("0.5", 3),
                             _panel("0.5", 4), False, "row 1 rounds: 3 -> 4"),
    "solver-drift-without-improving": (
        SOLVER, "alloc.csv", "nmse_l,e0_db\n0.5,10.0\n", "nmse_l,e0_db\n0.5,10.0000001\n",
        False, "e0_db moved 1.0e-08 without improving nmse_l"),
    "solver-improving": (SOLVER, "panel.json", _panel("0.5", 3),
                         _panel("0.49", 3, t="1.7"), True, "row 1 t "),
    "solver-producer-raises": (SOLVER, "alloc.csv", "nmse_l\n0.5\n", None, False,
                               "alloc.csv: RuntimeError: exited 1"),
    "exact-changes": (EXACT, "alloc.csv", "nmse_l\n0.25\n",
                      "nmse_l\n0.25000000000000006\n", False,
                      "never re-pinned"),
}


@pytest.mark.parametrize("rule, file, pinned, fresh, accepted, printed",
                         CASES.values(), ids=CASES)
def test_repin_applies_each_rule(tmp_path, capsys, rule, file, pinned, fresh,
                                 accepted, printed):
    """Report mode flags every move; --write re-pins both goldens if the
    case's rule permits its move, and neither if it refuses it.  A second
    golden, a Monte-Carlo table whose cell moved, shows that a refusal
    writes nothing at all."""
    goldens = {"case": Golden(file, rule, None),
               "other": Golden("mc_other.csv", DRAWS, None)}
    pinned = {"case": pinned, "other": "ser_lr,trials\n0.1,1000\n"}
    fresh = {"case": fresh, "other": "ser_lr,trials\n0.11,1000\n"}
    for name, golden in goldens.items():
        (tmp_path / golden.file).write_bytes(pinned[name].encode())

    def produce(name, _tmp):
        if fresh[name] is None:
            raise RuntimeError("exited 1")
        return fresh[name]

    def run(*argv):
        return repin.main(list(argv), goldens, tmp_path, produce)

    def files():
        return {name: (tmp_path / g.file).read_bytes().decode()
                for name, g in goldens.items()}

    assert run() == 1
    assert run("--write") == (0 if accepted else 1)
    captured = capsys.readouterr()
    assert printed in captured.out + captured.err
    assert files() == (fresh if accepted else pinned)
    if accepted:
        assert run() == 0
