"""Parameter containers: validation, derived lengths, budget arithmetic."""

import dataclasses

import numpy as np
import pytest

from dce.montecarlo import solve_allocation
from dce.params import (
    NON_RECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemParams,
    db_to_linear,
    default_params,
    linear_to_db,
    nonreciprocal_allocation,
    reciprocal_allocation,
    with_fixed_energy_budgets,
)


def test_db_round_trip():
    for x_db in (-30.0, 0.0, 10.0, 20.0, 33.7):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)
    assert db_to_linear(20.0) == pytest.approx(100.0)
    assert linear_to_db(0.0) == -np.inf


def test_db_conversions_reject_what_they_cannot_express():
    with pytest.raises(ValueError, match="too large for a linear power"):
        default_params(p_ave_db=4000)
    with pytest.raises(ValueError, match="negative power"):
        linear_to_db(-1.0)


def test_default_geometry_and_lengths(defaults):
    assert (defaults.n_t, defaults.n_l, defaults.n_u) == (4, 2, 2)
    # minimal training lengths tied to the antenna counts
    assert defaults.tau_r == defaults.n_l
    assert defaults.tau_f == defaults.n_t
    assert defaults.p_ave == pytest.approx(100.0)
    assert defaults.p_bar_t == pytest.approx(1000.0)
    assert defaults.p_bar_l == pytest.approx(100.0)


def test_antenna_count_validation():
    with pytest.raises(ValueError, match="null space"):
        default_params(n_t=2, n_l=2)
    with pytest.raises(ValueError):
        default_params(n_t=1, n_l=1)


def test_variances_must_be_positive():
    with pytest.raises(ValueError, match="var_g"):
        default_params(var_g=0.0)
    with pytest.raises(ValueError, match="var_w"):
        default_params(var_w=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_fields_rejected(defaults, bad):
    """nan <= 0 is False, so the positivity checks alone let NaN through."""
    for f in dataclasses.fields(SystemParams):
        with pytest.raises(ValueError, match=f.name):
            dataclasses.replace(defaults, **{f.name: bad})
    with pytest.raises(ValueError, match="var_v"):
        solve_allocation(default_params(var_v=bad), 0.5, RECIPROCAL)


def test_short_pilots_rejected():
    with pytest.raises(ValueError, match="forward pilot"):
        default_params(tau_f=3)  # below n_t=4
    with pytest.raises(ValueError, match="reverse pilot"):
        default_params(tau_r=1)  # below n_l=2


def test_budgets(defaults):
    p = defaults
    assert p.budget_average_reciprocal() == pytest.approx(100.0 * 6)
    assert p.budget_tx_reciprocal() == pytest.approx(1000.0 * 4)
    assert p.budget_lr_reciprocal() == pytest.approx(100.0 * 2)
    # non-reciprocal round occupies 3*n_t + n_l = 14 slots
    assert p.budget_average_nonreciprocal() == pytest.approx(100.0 * 14)
    assert p.budget_tx_nonreciprocal() == pytest.approx(1000.0 * 8)
    assert p.budget_lr_nonreciprocal() == pytest.approx(100.0 * 6)


def test_fixed_energy_budget_rescaling(defaults):
    """Sweeping the forward length must leave all three energy caps unchanged."""
    for tau_f in (4, 6, 8, 12, 16):
        q = with_fixed_energy_budgets(defaults, tau_f)
        assert q.tau_f == tau_f
        assert q.budget_average_reciprocal() == pytest.approx(
            defaults.budget_average_reciprocal())
        assert q.budget_tx_reciprocal() == pytest.approx(
            defaults.budget_tx_reciprocal())
        assert q.budget_lr_reciprocal() == pytest.approx(
            defaults.budget_lr_reciprocal())


def test_params_immutable(defaults):
    with pytest.raises(dataclasses.FrozenInstanceError):
        defaults.p_ave = 1.0


class TestPowerAllocation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_allocation(-1.0, 4.0)
        with pytest.raises(ValueError):
            nonreciprocal_allocation(1.0, 1.0, 1.0, 1.0, var_a=-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        for name in ("var_a", "e_r", "e_f", "e_0", "e_1", "e_2", "e_3"):
            with pytest.raises(ValueError, match=name):
                PowerAllocation(scheme=NON_RECIPROCAL, **{name: bad})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            PowerAllocation(scheme="fdd")

    def test_energies_view(self):
        rec = reciprocal_allocation(2.0, 4.0, 1.0)
        assert rec.scheme == RECIPROCAL
        assert rec.energies() == {"e_r": 2.0, "e_f": 4.0, "var_a": 1.0}
        non = nonreciprocal_allocation(1.0, 2.0, 3.0, 4.0, 0.5)
        assert non.scheme == NON_RECIPROCAL
        assert set(non.energies()) == {"e_0", "e_1", "e_2", "e_3", "var_a"}
