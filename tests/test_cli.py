"""Command-line interface: subcommands, CSV contracts, exit codes."""
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import stochpce
from oracles import nystrom_row_loop, pce_curve_loop
from stochpce import (
    OrnsteinUhlenbeckKernel,
    StochPCEError,
    cli,
    hierarchy,
    mc_average,
    parse_config,
)
from stochpce.cli import main
from stochpce.config import format_float, load_config

TINY = """\
[model]
h0 = sx
v = sz
tau = 1.0

[noise]
alpha = 0.4
tau_c = 10.0

[kle]
grid_size = 80
candidate_modes = 6
s = 2

[pce]
p = 3
dt_max = 0.002
output_points = 21

[mc]
n_traj = 200
dt = 0.01
seed = 777
batch = 100
stderr_target = 0.05

[output]
prefix = tiny
observable = sx

[sweep]
p_values = 1, 3
s_values = 1, 2
"""


def write_config(tmp_path, text=TINY, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    comments, columns, rows = [], None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[2:] if line.startswith("# ") else line[1:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, columns, rows


def stable_bytes(path):
    """File content with the volatile (timestamp/timing) lines removed."""
    with open(path, encoding="utf-8") as handle:
        return "".join(line for line in handle
                       if not line.startswith("# generated")
                       and not line.startswith("# timing"))


def column(rows, columns, name, dtype=float):
    k = columns.index(name)
    return np.array([dtype(row[k]) for row in rows])


def count_calls(monkeypatch, names):
    """Record, in order, each call stochpce.cli makes to the named functions."""
    calls = []
    for name in names:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    return calls


def write_tabulated_config(tmp_path, text=TINY):
    """The run file with its OU noise replaced by the same kernel tabulated."""
    lags = 0.1 * np.arange(30)
    np.savetxt(tmp_path / "tab.txt", 0.16 * np.exp(-lags / 10.0))
    return write_config(tmp_path, text.replace(
        "alpha = 0.4\ntau_c = 10.0",
        f"kind = tabulated\ntable = {tmp_path / 'tab.txt'}\nspacing = 0.1"))


class TestKLECommand:
    def test_writes_mode_report_and_eigenfunctions(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["kle", "--config", cfg, "--out", prefix]) == 0

        comments, columns, rows = read_csv(f"{prefix}_modes.csv")
        assert columns == ["index", "lambda", "gamma", "selected"]
        assert len(rows) == 6  # one row per candidate mode
        assert column(rows, columns, "selected", int).sum() == 2
        lambdas = column(rows, columns, "lambda")
        assert np.all(np.diff(lambdas) <= 0)
        assert any(c.startswith("stochpce ") for c in comments)
        assert any(c == "command: kle" for c in comments)
        assert any(c.startswith("frame:") for c in comments)

        _, gcolumns, grows = read_csv(f"{prefix}_eigenfunctions.csv")
        assert gcolumns == ["t", "g1", "g2", "g3", "g4", "g5", "g6"]
        assert len(grows) == 80  # one row per quadrature node

    def test_modes_header_states_source_and_captured_variance(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["kle", "--config", cfg, "--out", prefix]) == 0
        comments, columns, rows = read_csv(f"{prefix}_modes.csv")
        assert "mode_source: closed-form OU" in comments
        [line] = [c for c in comments if c.startswith("variance_captured: ")]
        kept = column(rows, columns, "selected", int) == 1
        captured = column(rows, columns, "lambda")[kept].sum() / (0.4**2 * 1.0)
        assert float(line.split(": ")[1]) == pytest.approx(captured, rel=1e-12)
        eig_comments, _, _ = read_csv(f"{prefix}_eigenfunctions.csv")
        assert not any(c.startswith(("mode_source", "variance_captured"))
                       for c in eig_comments)

        cfg = write_tabulated_config(tmp_path)
        assert main(["kle", "--config", cfg, "--out", prefix]) == 0
        comments, _, _ = read_csv(f"{prefix}_modes.csv")
        assert "mode_source: Nystrom, 80 nodes" in comments
        assert not any(c.startswith("variance_captured") for c in comments)

    def test_header_echo_reproduces_config(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        main(["kle", "--config", cfg, "--out", prefix])
        comments, _, _ = read_csv(f"{prefix}_modes.csv")
        start = comments.index("config:") + 1
        echoed = "\n".join(line[2:] for line in comments[start:]
                           if line.startswith("  "))
        assert parse_config(echoed) == parse_config(TINY)

    def test_relative_table_resolves_against_run_file(self, tmp_path,
                                                      monkeypatch):
        """A relative [noise] table is read next to the run file, from any
        working directory; run from that directory, the echo keeps the path
        as written."""
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        lags = 0.1 * np.arange(30)
        np.savetxt(run_dir / "tab.txt", 0.16 * np.exp(-lags / 10.0))
        text = TINY.replace("alpha = 0.4\ntau_c = 10.0",
                            "kind = tabulated\ntable = tab.txt\nspacing = 0.1")
        cfg = write_config(run_dir, text, name="tab.ini")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["kle", "--config", cfg, "--out", "out"]) == 0
        assert (elsewhere / "out_modes.csv").exists()

        monkeypatch.chdir(run_dir)
        assert main(["kle", "--config", "tab.ini", "--out", "out"]) == 0
        comments, _, _ = read_csv(run_dir / "out_modes.csv")
        assert "  table = tab.txt" in comments
        assert stable_bytes(run_dir / "out_modes.csv") == \
            stable_bytes(elsewhere / "out_modes.csv").replace(
                f"table = {run_dir / 'tab.txt'}", "table = tab.txt")


class TestPCECommand:
    def test_writes_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["pce", "--config", cfg, "--out", prefix]) == 0

        comments, columns, rows = read_csv(f"{prefix}_pce.csv")
        assert columns == ["t", "obs_mean", "obs_variance", "trace_err",
                           "herm_err", "min_eig"]
        assert len(rows) == 21
        assert any(c == "n_equations: 10" for c in comments)  # C(2+3, 3)
        t = column(rows, columns, "t")
        np.testing.assert_allclose(t, np.linspace(0, 1, 21), atol=1e-12)
        assert column(rows, columns, "obs_mean")[0] == pytest.approx(1.0)
        assert np.max(column(rows, columns, "trace_err")) <= 1e-8
        assert np.max(column(rows, columns, "herm_err")) <= 1e-8

    def test_rows_equal_the_per_record_read_out(self, tmp_path, monkeypatch):
        """The batched read-out writes the rows the per-record loop gives,
        byte for byte, over more records than one read-out block."""
        recorded, original = [], cli.propagate

        def recording(*args, **kwargs):
            recorded.append(original(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(cli, "propagate", recording)
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["pce", "--config", cfg, "--out", prefix]) == 0

        config = load_config(cfg)
        states = recorded[0]
        assert len(states) > hierarchy.BLOCK_SIZE
        rows = pce_curve_loop(config.build_observable(),
                              [st.coefficients for st in states])
        expected = [",".join(format_float(x) for x in (st.t, *row))
                    for st, row in zip(states, rows)]
        _, _, written = read_csv(f"{prefix}_pce.csv")
        assert [",".join(row) for row in written] == expected

    def test_ou_run_does_no_nystrom_work(self, tmp_path, monkeypatch):
        """OU modes come in closed form: no Fredholm solve, and no kernel
        evaluation, which a Nystrom extension in scaled_modes_matrix needs."""
        calls = count_calls(monkeypatch, ("solve_fredholm",))
        lags, original = [], OrnsteinUhlenbeckKernel.at_lag

        def recording(kernel, lag):
            lags.append(np.shape(lag))
            return original(kernel, lag)

        monkeypatch.setattr(OrnsteinUhlenbeckKernel, "at_lag", recording)
        cfg = write_config(tmp_path)
        assert main(["pce", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == [] and lags == []

    def test_tabulated_run_keeps_the_nystrom_extension(self, tmp_path,
                                                       monkeypatch):
        """A tabulated kernel's CSV is byte for byte the one the per-mode
        Nystrom extension gives."""
        cfg = write_tabulated_config(tmp_path)
        assert main(["pce", "--config", cfg, "--out", str(tmp_path / "a")]) == 0

        def per_mode_extension(modes, kernel, times):
            grid = modes[0].grid
            return np.stack([nystrom_row_loop(kernel, m.eigenvalue, m.values,
                                              grid.nodes, grid.weights, times)
                             for m in modes])

        monkeypatch.setattr(hierarchy, "scaled_modes_matrix", per_mode_extension)
        assert main(["pce", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert stable_bytes(tmp_path / "a_pce.csv") == \
            stable_bytes(tmp_path / "b_pce.csv")

    def test_zero_noise_curve_is_flat(self, tmp_path):
        cfg = write_config(tmp_path, TINY.replace("alpha = 0.4", "alpha = 0.0"))
        prefix = str(tmp_path / "zero")
        assert main(["pce", "--config", cfg, "--out", prefix]) == 0
        _, columns, rows = read_csv(f"{prefix}_pce.csv")
        np.testing.assert_allclose(column(rows, columns, "obs_mean"), 1.0,
                                   atol=1e-9)


class TestMCCommand:
    def test_converged_run(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["mc", "--config", cfg, "--out", prefix]) == 0

        comments, columns, rows = read_csv(f"{prefix}_mc.csv")
        assert columns == ["t", "obs_mean", "obs_stderr", "n_traj"]
        assert len(rows) == 21
        assert "converged: 1" in comments
        assert column(rows, columns, "obs_mean")[0] == pytest.approx(1.0)
        n_traj = column(rows, columns, "n_traj", int)
        assert np.all(n_traj == n_traj[0])
        assert n_traj[0] <= 200

    def test_unconverged_exit_code_and_override(self, tmp_path, capsys):
        text = TINY.replace("stderr_target = 0.05", "stderr_target = 1e-06")
        cfg = write_config(tmp_path, text)
        prefix = str(tmp_path / "out")

        assert main(["mc", "--config", cfg, "--out", prefix]) == 3
        assert "unconverged" in capsys.readouterr().err
        comments, _, _ = read_csv(f"{prefix}_mc.csv")  # file still written
        assert "converged: 0" in comments

        assert main(["mc", "--config", cfg, "--out", prefix,
                     "--allow-unconverged"]) == 0

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = (str(tmp_path / name) for name in ("a", "b", "c"))
        main(["mc", "--config", cfg, "--out", a])
        main(["mc", "--config", cfg, "--out", b, "--seed", "888"])
        main(["mc", "--config", cfg, "--out", c, "--seed", "888"])

        _, columns, rows_a = read_csv(f"{a}_mc.csv")
        _, _, rows_b = read_csv(f"{b}_mc.csv")
        mean_a = column(rows_a, columns, "obs_mean")
        mean_b = column(rows_b, columns, "obs_mean")
        assert not np.array_equal(mean_a, mean_b)

        comments_b, _, _ = read_csv(f"{b}_mc.csv")
        assert "seed: 888" in comments_b
        assert stable_bytes(f"{b}_mc.csv") == stable_bytes(f"{c}_mc.csv")

    def test_rerun_is_byte_identical_modulo_volatile_lines(self, tmp_path):
        cfg = write_config(tmp_path)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        main(["mc", "--config", cfg, "--out", a])
        main(["mc", "--config", cfg, "--out", b])
        assert stable_bytes(f"{a}_mc.csv") == stable_bytes(f"{b}_mc.csv")

    def test_tabulated_kernel_needs_the_kle_sampler(self, tmp_path, capsys,
                                                     monkeypatch):
        """The default exact_ou sampler cannot draw a tabulated kernel: mc
        and compare stop with a validation error before any propagation and
        write no file, mc_average raises a typed error, and kle and pce on
        the same file still run."""
        cfg = write_tabulated_config(tmp_path)
        prefix = str(tmp_path / "out")
        calls = count_calls(monkeypatch, ("_solve_modes", "propagate"))
        for command in ("mc", "compare"):
            assert main([command, "--config", cfg, "--out", prefix]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: sampler = exact_ou")
            assert "set sampler = kle" in err
            assert not os.path.exists(f"{prefix}_{command}.csv")
        assert calls == []
        config = load_config(cfg)
        with pytest.raises(StochPCEError, match="sampler = kle"):
            mc_average(config.build_model(), config.build_rho0(), config.mc,
                       config.output_times())
        for command in ("kle", "pce"):
            assert main([command, "--config", cfg, "--out", prefix]) == 0


class TestCompareCommand:
    def test_writes_comparison_with_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["compare", "--config", cfg, "--out", prefix]) == 0

        comments, columns, rows = read_csv(f"{prefix}_compare.csv")
        assert columns == ["t", "pce_mean", "mc_mean", "mc_stderr",
                           "abs_diff", "within_band"]
        assert len(rows) == 21

        summary = next(c for c in comments if c.startswith("summary:"))
        fields = dict(part.split("=") for part in summary.split()[1:])
        assert fields["n_equations"] == "10"
        assert int(fields["n_trajectories"]) <= 200
        assert fields["converged"] == "1"
        assert 0.0 <= float(fields["band_fraction"]) <= 1.0

        timing = next(c for c in comments if c.startswith("timing:"))
        tfields = dict(part.split("=") for part in timing.split()[1:])
        assert float(tfields["pce_seconds"]) > 0
        assert float(tfields["mc_seconds"]) > 0
        assert float(tfields["mc_over_pce"]) == pytest.approx(
            float(tfields["mc_seconds"]) / float(tfields["pce_seconds"]))

        diff = column(rows, columns, "abs_diff")
        recomputed = np.abs(column(rows, columns, "pce_mean")
                            - column(rows, columns, "mc_mean"))
        np.testing.assert_allclose(diff, recomputed, atol=1e-12)
        within = column(rows, columns, "within_band", int)
        stderr = column(rows, columns, "mc_stderr")
        np.testing.assert_array_equal(within, (diff <= stderr).astype(int))

    def test_unconverged_compare_exits_3(self, tmp_path):
        text = TINY.replace("stderr_target = 0.05", "stderr_target = 1e-06")
        cfg = write_config(tmp_path, text)
        prefix = str(tmp_path / "out")
        assert main(["compare", "--config", cfg, "--out", prefix]) == 3
        assert main(["compare", "--config", cfg, "--out", prefix,
                     "--allow-unconverged"]) == 0

    @pytest.mark.parametrize("command,sampler,solves", [
        ("compare", "kle", 1), ("compare", "exact_ou", 1),
        ("mc", "kle", 1), ("mc", "exact_ou", 0), ("pce", "exact_ou", 1),
    ])
    def test_one_kle_solve_per_command(self, tmp_path, monkeypatch, command,
                                       sampler, solves):
        """The PCE curve and the KLE-path Monte Carlo sampler share one
        eigenproblem solve, in closed form for OU noise, and one rate
        ranking."""
        calls = count_calls(monkeypatch, ("ou_modes", "solve_fredholm",
                                          "cumulative_rates"))
        text = TINY.replace("seed = 777", f"seed = 777\nsampler = {sampler}")
        cfg = write_config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--allow-unconverged"]) == 0
        assert calls == ["ou_modes", "cumulative_rates"] * solves

    def test_one_nystrom_solve_for_a_tabulated_kernel(self, tmp_path,
                                                      monkeypatch):
        calls = count_calls(monkeypatch, ("ou_modes", "solve_fredholm",
                                          "cumulative_rates"))
        cfg = write_tabulated_config(tmp_path, TINY.replace(
            "seed = 777", "seed = 777\nsampler = kle"))
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--allow-unconverged"]) == 0
        assert calls == ["solve_fredholm", "cumulative_rates"]


class TestSweepCommand:
    def test_writes_per_run_files_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", prefix]) == 0

        for s in (1, 2):
            for p in (1, 3):
                _, columns, rows = read_csv(f"{prefix}_sweep_s{s}_p{p}.csv")
                assert columns[:2] == ["t", "obs_mean"]
                assert len(rows) == 21

        _, columns, rows = read_csv(f"{prefix}_sweep_summary.csv")
        assert columns == ["s", "p", "n_equations", "max_abs_dev_vs_reference"]
        assert len(rows) == 4
        table = {(int(r[0]), int(r[1])): (int(r[2]), float(r[3]))
                 for r in rows}
        assert table[(1, 1)][0] == 2   # C(1+1, 1)
        assert table[(1, 3)][0] == 4   # C(1+3, 3)
        assert table[(2, 3)][0] == 10  # C(2+3, 3)
        # the largest order is its own reference
        assert table[(1, 3)][1] == 0.0
        assert table[(2, 3)][1] == 0.0
        assert table[(2, 1)][1] >= 0.0


# What the error says for each bad run file of test_operator_dimension_mismatch
# that is not a shape mismatch.
BAD_RUN_FILE_ERRORS = {
    "h0 = matrix [[0, 1], [0, 0]]": "operator not Hermitian",
    "tau = 1.0\nrho0 = 0.5*id + 0.6*sx": "density matrix has negative eigenvalue",
    "tau = 1.0\nrho0 = 2*sx": "density matrix trace 0.0 not 1",
    "kind = tabulated\ntable = words.txt\nspacing = 0.1":
        "words.txt: could not convert string 'abc' to float",
    "kind = tabulated\ntable = one.txt\nspacing = 0.1":
        "one.txt: tabulated kernel needs a 1-D array of >= 2 values",
}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["pce", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY + "\n[pce]\np = -1\n")
        assert main(["pce", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,old,new,line", [
        ("v", "v = sz", "v = matrix [[1, 0, 0], [0, 0, 0], [0, 0, -1]]", 3),
        ("rho0", "tau = 1.0",
         "tau = 1.0\nrho0 = matrix [[1, 0, 0], [0, 0, 0], [0, 0, 0]]", 5),
        ("observable", "observable = sx",
         "observable = matrix [[1, 0, 0], [0, 0, 0], [0, 0, 0]]", 29),
        pytest.param("h0", "h0 = sx", "h0 = matrix [[0, 1], [0, 0]]", 2,
                     id="h0-not-hermitian"),
        pytest.param("rho0", "tau = 1.0", "tau = 1.0\nrho0 = 0.5*id + 0.6*sx",
                     5, id="rho0-negative-eigenvalue"),
        pytest.param("rho0", "tau = 1.0", "tau = 1.0\nrho0 = 2*sx", 5,
                     id="rho0-trace-zero"),
        pytest.param("table", "alpha = 0.4\ntau_c = 10.0",
                     "kind = tabulated\ntable = words.txt\nspacing = 0.1", None,
                     id="table-not-a-number"),
        pytest.param("table", "alpha = 0.4\ntau_c = 10.0",
                     "kind = tabulated\ntable = one.txt\nspacing = 0.1", None,
                     id="table-one-value"),
    ])
    def test_operator_dimension_mismatch(self, tmp_path, capsys, key, old, new,
                                         line):
        """A bad operator (3x3 next to a 2x2 h0, not Hermitian, or an rho0
        that is no density matrix) is a validation error with the offending
        key's line, and a bad noise table one that names its file, for every
        command that builds the model."""
        (tmp_path / "words.txt").write_text("0.16\nabc\n")
        (tmp_path / "one.txt").write_text("0.16\n")
        cfg = write_config(tmp_path, TINY.replace(old, new))
        for command in ("pce", "mc", "compare"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            where = f"line {line}: " if line is not None else ""
            assert err.startswith(f"config error: {where}'{key}' ")
            assert BAD_RUN_FILE_ERRORS.get(new, "is 3x3 but h0 is 2x2") in err
            assert not os.path.exists(tmp_path / f"out_{command}.csv")

    def test_numerical_error(self, tmp_path, capsys):
        """A tabulated kernel violating C(0) >= |C(lag)| fails positivity."""
        table = tmp_path / "bad_kernel.txt"
        table.write_text("1.0\n2.0\n")
        text = """\
[model]
h0 = sx
v = sz
tau = 1.0

[noise]
kind = tabulated
table = {table}
spacing = 0.1
""".format(table=table)
        cfg = write_config(tmp_path, text)
        assert main(["kle", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "numerical error" in capsys.readouterr().err

    def test_high_degree_runs_and_oversized_basis_exits_2(self, tmp_path,
                                                          capsys):
        """p = 200 on one mode runs; a basis over MAX_BASIS_SIZE is a typed
        error, no traceback."""
        text = TINY.replace("s = 2", "s = 1").replace("p = 3", "p = 200")
        cfg = write_config(tmp_path, text)
        assert main(["pce", "--config", cfg,
                     "--out", str(tmp_path / "high")]) == 0
        capsys.readouterr()
        text = TINY.replace("p = 3", "p = 5000")
        cfg = write_config(tmp_path, text, name="big.ini")
        assert main(["pce", "--config", cfg,
                     "--out", str(tmp_path / "big")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "basis size" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,old,new,message", [
        ("pce", "dt_max = 0.0005", "dt_max = 1e-300",
         "1e+300 RK4 steps exceed the supported maximum 100000000; "
         "raise dt_max"),
        ("mc", "dt = 0.002", "dt = 1e-300",
         "1e+300 Monte Carlo steps per trajectory exceed the supported "
         "maximum 1000000; raise [mc] dt"),
    ])
    def test_oversized_step_grid_exits_2_at_once(self, tmp_path, capsys,
                                                 command, old, new, message):
        """A step grid too large to build is a typed error raised before any
        array or run list exists: on the dephasing preset, dt_max = 1e-300
        once meant about 1e295 runs and dt = 1e-300 a raw ValueError."""
        preset = (resources.files("stochpce") / "presets"
                  / "dephasing_oracle.ini").read_text()
        assert preset.count(old) == 1
        cfg = write_config(tmp_path, preset.replace(old, new))
        start = time.perf_counter()
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"numerical error: {message}\n"

    def test_bad_seed_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["mc", "--config", cfg, "--seed", "-5"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_argparse_errors_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.ini"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["pce"])  # --config is required
        assert exc.value.code == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installed console-script wrapper does: resolve the declared
# entry point, then pass main()'s return value to sys.exit.
CONSOLE_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint(sys.argv[1], sys.argv[2], "console_scripts").load()
sys.argv[:3] = [sys.argv[1]]
sys.exit(target())
"""


# The child process of TestEntryPoint._scipy_after_each.
SCIPY_PROBE = """\
import json
import sys

import stochpce.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


after = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    code = stochpce.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited with {code}")
    after.append(scipy_modules())
print(json.dumps(after))
"""


def child_env():
    """Environment for a child interpreter that imports this same stochpce."""
    env = dict(os.environ)
    src = str(Path(stochpce.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, inherited] if inherited else [src])
    return env


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        wrapper = [sys.executable, "-c", CONSOLE_WRAPPER,
                   "stochpce", scripts["stochpce"]]

        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        proc = subprocess.run(wrapper + ["kle", "--config", cfg, "--out", prefix],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out_modes.csv").exists()

        missing = str(tmp_path / "missing.ini")
        proc = subprocess.run(wrapper + ["kle", "--config", missing],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    @staticmethod
    def _scipy_after_each(argvs):
        """In a fresh interpreter, import the CLI and run main(argv) for
        each argv; returns the scipy modules loaded after the import and
        after each command.  The test process has SciPy loaded already."""
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                               json.dumps(argvs)],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_kle_and_mc_load_no_scipy(self, tmp_path):
        """Start-up cost: SciPy is loaded only where a hierarchy is built, so
        importing the CLI and running kle, and mc with either sampler, load
        no scipy module at all."""
        argvs = []
        for sampler in ("exact_ou", "kle"):
            text = TINY.replace("seed = 777", f"seed = 777\nsampler = {sampler}")
            cfg = write_config(tmp_path, text, name=f"{sampler}.ini")
            argvs.append(["mc", "--config", cfg, "--out",
                          str(tmp_path / sampler), "--allow-unconverged"])
        argvs.append(["kle", "--config", cfg, "--out", str(tmp_path / "kle")])
        assert self._scipy_after_each(argvs) == [[], [], [], []]
        assert (tmp_path / "exact_ou_mc.csv").exists()
        assert (tmp_path / "kle_mc.csv").exists()

    def test_pce_loads_scipy_sparse_and_matches_in_process(self, tmp_path):
        cfg = write_config(tmp_path)
        after = self._scipy_after_each(
            [["pce", "--config", cfg, "--out", str(tmp_path / "child")]])
        assert after[0] == [] and "scipy.sparse" in after[1]
        assert main(["pce", "--config", cfg, "--out", str(tmp_path / "here")]) == 0
        assert (stable_bytes(tmp_path / "child_pce.csv")
                == stable_bytes(tmp_path / "here_pce.csv"))

    def test_first_compare_timing_leaves_out_the_scipy_load(self, tmp_path):
        """pce_seconds times the PCE solve, not the one-time SciPy load of a
        fresh process: the first compare in a process reads within 0.1 s of
        a second, warm one."""
        cfg = write_config(tmp_path)
        prefixes = [str(tmp_path / "first"), str(tmp_path / "second")]
        after = self._scipy_after_each(
            [["compare", "--config", cfg, "--out", prefix,
              "--allow-unconverged"] for prefix in prefixes])
        assert after[0] == [] and "scipy.sparse" in after[1]
        seconds = []
        for prefix in prefixes:
            comments, _, _ = read_csv(f"{prefix}_compare.csv")
            timing = next(c for c in comments if c.startswith("timing: "))
            fields = dict(f.split("=") for f in timing.split()[1:])
            seconds.append(float(fields["pce_seconds"]))
        assert abs(seconds[0] - seconds[1]) <= 0.1, seconds

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        prefix = str(tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-m", "stochpce.cli", "pce", "--config", cfg,
             "--out", prefix], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out_pce.csv").exists()
