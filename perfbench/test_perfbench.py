"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from stochpce import cli, hierarchy, montecarlo  # noqa: E402
from stochpce.config import load_config, parse_config  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

_TINY = """\
[model]
h0 = sx
v = sz
rho0 = 0.5*id + 0.5*sx
tau = 1.0

[noise]
kind = ou
alpha = 1.0
tau_c = 0.5

[kle]
grid_size = 40
candidate_modes = 4
s = 2

[pce]
p = 2
dt_max = 0.03
output_points = 5

[mc]
n_traj = 5
dt = 0.01
seed = 7
sampler = exact_ou
batch = 3
stderr_target = 1e-9
workers = 1
"""


def _traced(tmp_path, command: str, *flags):
    config_path = tmp_path / "tiny.ini"
    config_path.write_text(_TINY)
    tracer = spans.Tracer("test")
    with spans.instrument(tracer), tracer.span("cli.main", "cli"):
        code = cli.main([command, "--config", str(config_path),
                         "--out", str(tmp_path / "out"), *flags])
    assert code == 0
    return spans.layer_metrics(tracer, tracer.spans)


def test_rk4_counts_equal_observed_rhs_calls(tmp_path, monkeypatch):
    calls = []
    original = hierarchy._rhs

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hierarchy, "_rhs", counting)
    metrics = _traced(tmp_path, "pce")
    # 4 intervals of 0.25 at dt_max 0.03: 9 steps each
    assert metrics["hierarchy.rk4_steps"] == 36
    assert metrics["hierarchy.rhs_evals"] == len(calls) == 4 * 36
    assert metrics["hierarchy.n_equations"] == 6


def test_traj_steps_equal_n_used_times_steps(tmp_path, monkeypatch):
    calls = []
    original = montecarlo._TrajectoryStepper.step_unitary

    def counting(self, k, omega_mid):
        calls.append(k)
        return original(self, k, omega_mid)

    monkeypatch.setattr(montecarlo._TrajectoryStepper, "step_unitary", counting)
    metrics = _traced(tmp_path, "mc", "--allow-unconverged")
    steps = 4 * 25  # 4 output intervals of 0.25 at dt 0.01
    assert metrics["montecarlo.n_traj"] == 5
    assert metrics["montecarlo.batches"] == 2
    assert metrics["montecarlo.traj_steps"] == len(calls) == 5 * steps


def test_self_times_on_a_synthetic_span_tree():
    def span(span_id, parent, layer, start, end):
        return {"id": span_id, "name": f"s{span_id}", "layer": layer,
                "parent": parent, "run_id": "t", "start": start, "end": end}

    tree = [span(0, None, "cli", 0.0, 10.0),
            span(1, 0, "hierarchy", 1.0, 4.0),
            span(2, 1, "operators", 2.0, 3.0),
            span(3, 0, "montecarlo", 5.0, 9.0),
            span(4, 0, "kle", 8.0, 11.0)]  # overlaps 3 and overruns 0
    assert spans.self_times(tree) == pytest.approx(
        {0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 3.0})
    layers = spans.layer_self_times(tree)
    assert layers == pytest.approx({"cli": 2.0, "hierarchy": 2.0, "operators": 1.0,
                                    "montecarlo": 4.0, "kle": 3.0, "config": 0.0})


def test_calibration_rescales_by_the_kernel_speed():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    calls = []
    value, own, scaled = calibration.timed(
        lambda: time.sleep(0.55) or "done",
        lambda: calls.append(1) or time.sleep(0.02), 0.04)
    assert value == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    # the kernel ran every 0.1 s; its time is not the measured code's
    assert 4 <= len(calls) <= 6
    assert own == pytest.approx(0.55 - 0.02 * len(calls), abs=0.002 * len(calls) + 0.01)
    # the kernel took about half its reference time: the host reads twice as fast
    assert 1.6 < scaled / own <= 2.0
    _, _, unsampled = calibration.timed(lambda: None, time.sleep, 1.0)
    assert unsampled is None


def _perturbed_copy(workload, tmp_path, column, delta):
    """The reference CSV with one value of one column shifted by delta."""
    lines = open(checks.reference_path(workload), encoding="utf-8").read().splitlines()
    header = next(pos for pos, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 10].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[header + 10] = ",".join(cells)
    path = tmp_path / f"{workload}.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_output_check_accepts_round_off_and_rejects_real_changes(tmp_path):
    same = checks.check_output("pce_fig2", checks.reference_path("pce_fig2"), 1)
    assert same["ok"] and same["info"]["rows_identical"]
    tiny = checks.check_output(
        "pce_fig2", _perturbed_copy("pce_fig2", tmp_path, "obs_mean", 1e-13), 1)
    assert tiny["ok"] and not tiny["info"]["rows_identical"]
    real = checks.check_output(
        "pce_fig2", _perturbed_copy("pce_fig2", tmp_path, "obs_mean", 1e-5), 1)
    assert not real["ok"]


def test_mc_columns_use_references_at_the_reference_seed_only(tmp_path):
    path = _perturbed_copy("compare_dephasing", tmp_path, "mc_stderr", -5e-6)
    assert not checks.check_output("compare_dephasing", path, REFERENCE_SEED)["ok"]
    other_seed = checks.check_output("compare_dephasing", path, 1)
    assert other_seed["ok"], other_seed["problems"]
    assert other_seed["info"]["pce_max_abs_err"] < checks.PCE_ORACLE_TOL
    far = _perturbed_copy("compare_dephasing", tmp_path, "pce_mean", 0.01)
    assert not checks.check_output("compare_dephasing", far, 1)["ok"]


def test_run_files_are_the_presets_with_the_stated_changes():
    presets = os.path.join(os.path.dirname(HERE), "src", "stochpce", "presets")
    changed = {"pce_fig2": ("fig2", {}),
               "mc_fig2": ("fig2", {"n_traj": 300, "batch": 100}),
               "compare_dephasing": ("dephasing_oracle",
                                     {"sampler": "kle", "batch": 1000,
                                      "stderr_target": 0.006})}
    for workload, (preset, mc_changes) in changed.items():
        shipped = load_config(os.path.join(presets, f"{preset}.ini"))
        generated = parse_config(WORKLOADS[workload][1])
        expected = replace(shipped, mc=replace(shipped.mc, **mc_changes),
                           output=generated.output, sweep=generated.sweep)
        assert generated == expected, workload
