"""Metamorphic relations: two runs of one solver whose outputs must agree,
so no reference answer is needed.

Noise sign.  With v -> -v the chaos hierarchy has the exact solution
phi_m -> (-1)^{|m|} phi_m: every term of row m of the RHS, the drift on
phi_m and each coupling to a partner of degree |m| +- 1 through -i [v, .],
changes sign with (-1)^{|m|}.  IEEE negation is exact and every operation
of the integrator is sign-symmetric, so the mean (phi_0), the variance
(squares of tr(obs phi_m)) and the ranking rates (|<j|v|k>|^2) are bitwise
unchanged.  The presets share a sigma_x symmetry (h0, rho0 and the
observable commute with it, and it flips v = sz) that can make a solver
covariant by accident, so a seeded random qutrit with none runs too.
"""
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from stochpce import (
    OrnsteinUhlenbeckKernel,
    StochasticModel,
    build_couplings,
    enumerate_indices,
    initial_pce_state,
    parse_config,
    propagate,
)
from stochpce.hierarchy import observable_mean, observable_variance
from stochpce.kle import cumulative_rates, ou_modes, select_modes

PRESETS = ["fig2", "fig1_top", "fig1_bottom", "dephasing_oracle"]
MAX_ORDER, DT_MAX, OUTPUT_POINTS = 6, 2e-3, 41


def _random_hermitian(rng, d, spread):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return spread * 0.5 * (raw + raw.conj().T)


def _preset_case(name):
    """(model, rho0, obs, candidate modes' args, s, p, times) of a shipped
    preset, at a chaos order of at most MAX_ORDER, dt_max = DT_MAX and
    OUTPUT_POINTS output times."""
    config = parse_config(
        (resources.files("stochpce") / "presets" / f"{name}.ini").read_text())
    config = replace(config, pce=replace(
        config.pce, p=min(config.pce.p, MAX_ORDER), dt_max=DT_MAX,
        output_points=OUTPUT_POINTS))
    return (config.build_model(), config.build_rho0(),
            config.build_observable(), config.kle.grid_size,
            config.kle.candidate_modes, config.kle.s, config.pce.p,
            config.output_times())


def _qutrit_case(seed=17):
    """A seeded qutrit whose h0, v, rho0 and observable are random, so no
    unitary maps v to -v while fixing the rest."""
    rng = np.random.default_rng(seed)
    h0, v, obs = (_random_hermitian(rng, 3, spread) for spread in (2.0, 1.0, 1.0))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho0 = raw @ raw.conj().T
    rho0 /= np.trace(rho0).real
    model = StochasticModel(h0=h0, v=v, kernel=OrnsteinUhlenbeckKernel(1.5, 0.5),
                            horizon=1.0)
    return (model, rho0, obs, 200, 8, 2, 4,
            np.linspace(0.0, 1.0, OUTPUT_POINTS))


def _run(model, rho0, obs, grid_size, candidates, s, p, times):
    """(ranking rates, PCE means, PCE variances) of one model."""
    modes = ou_modes(model.kernel, model.horizon, grid_size=grid_size,
                     n_modes=candidates)
    rates = cumulative_rates(modes, model)
    kle = select_modes(modes, rates, s)
    basis = enumerate_indices(s, p)
    states = propagate(initial_pce_state(rho0, basis), model, kle,
                       build_couplings(basis), times, dt_max=DT_MAX)
    return (np.array(rates), observable_mean(states, obs),
            observable_variance(states, obs))


@pytest.mark.parametrize("name", PRESETS + ["random_qutrit"])
def test_noise_sign_leaves_pce_outputs_bitwise_unchanged(name):
    """v -> -v gives bitwise the same ranking rates, PCE means and
    observable variances."""
    case = _qutrit_case() if name == "random_qutrit" else _preset_case(name)
    model, rest = case[0], case[1:]
    flipped = replace(model, v=-model.v)
    rates, means, variances = _run(model, *rest)
    assert np.max(variances) > 1e-5  # the noise spread the observable
    for got, expected in zip(_run(flipped, *rest), (rates, means, variances)):
        np.testing.assert_array_equal(got, expected)
