"""The benchmark's workloads: generated run files and the CLI argv.

Every run file is written by the benchmark itself, so a change to a shipped
preset does not silently change what the benchmark measures.  The texts
below are the shipped presets with only the changes each workload needs.
Standard library only: the launcher imports this module without NumPy.
"""

import os

REFERENCE_SEED = 12345  # the presets' [mc] seed; MC references hold for it only
MC_FIG2_BUDGET = 300  # far below the ~18000 trajectories fig2 needs to converge
MC_FIG2_BATCH = 100
# The dephasing run must stop after the same batch for every seed, so its
# work (and wall time) does not depend on the seed.  With the preset's
# batch of 500 and target of 0.005 it stops at 1000 or 1500 trajectories
# depending on the seed.  Across seeds 1..22 the max stderr after 1000
# KLE-sampled trajectories lies in [0.00435, 0.00553], and after 500 in
# [0.00616, 0.00776]; one batch of 1000 checked against 0.006 stops every
# seed at 1000 (as the preset does at its seed 12345).
DEPHASING_BATCH = 1000
DEPHASING_STDERR_TARGET = 0.006
DEPHASING_ALPHA = 0.25
DEPHASING_TAU_C = 10.0

_FIG2 = """\
# Shipped fig2 preset: H = sx + Omega(t) sz, C(t) = 9 exp(-|t|/10).
[model]
h0 = sx
v = sz
rho0 = 0.5*id + 0.5*sx
tau = 1.0

[noise]
kind = ou
alpha = 3.0
tau_c = 10.0

[kle]
grid_size = 400
candidate_modes = 12
s = 3

[pce]
p = 9
dt_max = 0.0005
output_points = 200

[mc]
n_traj = {n_traj}
dt = 0.002
seed = 12345
sampler = exact_ou
batch = {batch}
stderr_target = 0.005
workers = 1

[output]
prefix = bench
observable = sx
"""

_DEPHASING = """\
# Shipped dephasing_oracle preset with the KLE-path Monte Carlo sampler.
[model]
h0 = 0*id
v = sz
rho0 = 0.5*id + 0.5*sx
tau = 1.0

[noise]
kind = ou
alpha = {alpha!r}
tau_c = {tau_c!r}

[kle]
grid_size = 400
candidate_modes = 12
s = 3

[pce]
p = 6
dt_max = 0.0005
output_points = 200

[mc]
n_traj = 20000
dt = 0.002
seed = 12345
sampler = kle
batch = {batch}
stderr_target = {stderr_target!r}
workers = 1

[output]
prefix = bench
observable = sx
"""

# name -> (CLI command, run file text, output suffix, extra CLI flags)
WORKLOADS = {
    "pce_fig2": ("pce", _FIG2.format(n_traj=20000, batch=500), "pce", ()),
    "mc_fig2": ("mc", _FIG2.format(n_traj=MC_FIG2_BUDGET, batch=MC_FIG2_BATCH),
                "mc", ("--allow-unconverged",)),
    "compare_dephasing": ("compare",
                          _DEPHASING.format(alpha=DEPHASING_ALPHA, tau_c=DEPHASING_TAU_C,
                                            batch=DEPHASING_BATCH,
                                            stderr_target=DEPHASING_STDERR_TARGET),
                          "compare", ()),
}


def write_config(workload: str, directory: str) -> str:
    """Write the workload's run file into directory; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}.ini")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(WORKLOADS[workload][1])
    return path


def cli_argv(workload: str, config_path: str, out_prefix: str, seed: int) -> list:
    """The argv handed to stochpce.cli.main for one repetition."""
    command, _, _, flags = WORKLOADS[workload]
    return [command, "--config", config_path, "--out", out_prefix,
            "--seed", str(seed), *flags]


def output_path(workload: str, out_prefix: str) -> str:
    return f"{out_prefix}_{WORKLOADS[workload][2]}.csv"
