"""INI configuration: operator grammar, defaults, validation, round-trip."""
from importlib import resources

import numpy as np
import pytest

from stochpce import ConfigError, RunConfig, parse_config
from stochpce.cli import main
from stochpce.config import emit_config, load_config, parse_operator

MINIMAL = """\
[model]
h0 = sx
v = sz
tau = 1.0

[noise]
alpha = 3.0
tau_c = 10.0
"""


def preset_text(name):
    return (resources.files("stochpce") / "presets" / f"{name}.ini").read_text()


class TestOperatorGrammar:
    def test_pauli_symbols(self):
        np.testing.assert_array_equal(parse_operator("sx"),
                                      np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_array_equal(parse_operator("id"),
                                      np.eye(2, dtype=complex))

    def test_scaled_terms(self):
        np.testing.assert_allclose(parse_operator("20*sx"),
                                   20 * np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(parse_operator("1e-3*sz"),
                                   np.diag([1e-3, -1e-3]).astype(complex))

    def test_sums_and_differences(self):
        got = parse_operator("0.5*id + 0.5*sx")
        np.testing.assert_allclose(got, 0.5 * (np.eye(2) +
                                               np.array([[0, 1], [1, 0]])))
        got = parse_operator("sz - 2*sx")
        expected = np.array([[1, -2], [-2, -1]], dtype=complex)
        np.testing.assert_allclose(got, expected)

    def test_matrix_literal(self):
        got = parse_operator("matrix [[0, 1], [1, 0]]")
        np.testing.assert_array_equal(got, np.array([[0, 1], [1, 0]]))

    def test_rejects_garbage(self):
        for bad in ("", "sq", "sx ++ sz", "matrix [[1, 2, 3]]", "matrix foo"):
            with pytest.raises(ConfigError):
                parse_operator(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_operator("sq", line=17)
        assert err.value.line == 17


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        config = parse_config(MINIMAL)
        assert isinstance(config, RunConfig)
        assert config.model.rho0 == "0.5*id + 0.5*sx"
        assert config.kle.s == 3
        assert config.kle.grid_size == 400
        assert config.kle.candidate_modes == 12
        assert config.pce.p == 9
        assert config.pce.dt_max == pytest.approx(1.0 / 2000)
        assert config.pce.output_points == 200
        assert config.mc.n_traj == 20000
        assert config.mc.dt == pytest.approx(1.0 / 500)
        assert config.mc.seed == 12345
        assert config.mc.sampler == "exact_ou"
        assert config.mc.batch == 500
        assert config.mc.stderr_target == pytest.approx(5e-3)
        assert config.output.prefix == "run"
        assert config.output.observable == "sx"
        assert config.sweep.p_values == (1, 3, 5, 7, 9)
        assert config.sweep.s_values == (3,)

    def test_output_times(self):
        config = parse_config(MINIMAL)
        times = config.output_times()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0)
        assert times.size == 200

    def test_builders(self):
        config = parse_config(MINIMAL)
        model = config.build_model()
        assert model.horizon == 1.0
        assert model.kernel.alpha == 3.0
        np.testing.assert_allclose(config.build_rho0(),
                                   [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(config.build_observable(),
                                   [[0, 1], [1, 0]])

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="noise"):
            parse_config("[model]\nh0 = sx\nv = sz\ntau = 1.0\n")

    def test_empty_noise_section_names_missing_field(self):
        text = MINIMAL.split("[noise]")[0] + "[noise]\n"
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(text)

    def test_unknown_key_with_line_number(self):
        text = MINIMAL + "\n[pce]\nporder = 5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "porder" in str(err.value)
        assert err.value.line == len(MINIMAL.splitlines()) + 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="pec"):
            parse_config(MINIMAL + "\n[pec]\np = 5\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "\n[model]\nh0 = sx\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "tau_c = 4.0\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("tau = 1.0\n" + MINIMAL)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(MINIMAL + "just some words\n")

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            parse_config(MINIMAL + "\n[pce]\np = -1\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[pce]\np = 2.5\n")

    def test_bad_operator_rejected_with_line(self):
        text = MINIMAL.replace("h0 = sx", "h0 = sq")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 2

    def test_legacy_workers_line(self, tmp_path, capsys):
        """'workers = 1' is still accepted and changes nothing; any other
        value is a line-numbered validation error (exit 1)."""
        text = MINIMAL + "\n[mc]\nseed = 7\n"
        legacy = text + "workers = 1\n"
        assert parse_config(legacy) == parse_config(text)
        with pytest.raises(ConfigError, match="'workers' was removed") as err:
            parse_config(text + "workers = 2\n")
        assert err.value.line == len(legacy.splitlines())
        path = tmp_path / "run.ini"
        path.write_text(text + "workers = 2\n")
        assert main(["mc", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"line {err.value.line}: 'workers' was removed" in \
            capsys.readouterr().err
        assert not (tmp_path / "out_mc.csv").exists()

    def test_mc_dt_cap(self):
        with pytest.raises(ConfigError, match="tau/100"):
            parse_config(MINIMAL + "\n[mc]\ndt = 0.5\n")

    def test_ou_rejects_table_keys(self):
        with pytest.raises(ConfigError, match="not valid for kind = ou"):
            parse_config(MINIMAL + "spacing = 0.1\n")

    def test_tabulated_rejects_ou_keys(self):
        text = """\
[model]
h0 = sx
v = sz
tau = 1.0

[noise]
kind = tabulated
table = kernel.csv
spacing = 0.01
alpha = 1.0
"""
        with pytest.raises(ConfigError, match="not valid for kind = tabulated"):
            parse_config(text)

    def test_sweep_s_capped_by_candidates(self):
        with pytest.raises(ConfigError, match="candidate_modes"):
            parse_config(MINIMAL + "\n[sweep]\ns_values = 1, 30\n")

    def test_s_capped_by_candidates(self):
        with pytest.raises(ConfigError, match="below s"):
            parse_config(MINIMAL + "\n[kle]\ns = 5\ncandidate_modes = 4\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n; other comment style\n" + MINIMAL
        config = parse_config(text)
        assert config.model.tau == 1.0

    def test_int_list_parsing(self):
        config = parse_config(MINIMAL + "\n[sweep]\np_values = 2,4, 6\n")
        assert config.sweep.p_values == (2, 4, 6)
        with pytest.raises(ConfigError, match="non-integer"):
            parse_config(MINIMAL + "\n[sweep]\np_values = 2, x\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fig1_top", "fig1_bottom", "fig2",
                                      "dephasing_oracle"])
    def test_preset_round_trips(self, name):
        config = parse_config(preset_text(name))
        assert parse_config(emit_config(config)) == config

    def test_emitted_text_is_stable(self):
        config = parse_config(MINIMAL)
        assert emit_config(parse_config(emit_config(config))) == \
            emit_config(config)

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL)
        assert load_config(path) == parse_config(MINIMAL)

    def test_load_config_skips_a_byte_order_mark(self, tmp_path):
        """A run file saved as UTF-8 with a byte-order mark, as some Windows
        editors write it, loads to the same RunConfig as without one."""
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(MINIMAL, encoding="utf-8")
        marked.write_text(MINIMAL, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)


class TestPresets:
    def test_fig2_values(self):
        config = parse_config(preset_text("fig2"))
        assert config.model.h0 == "sx"
        assert config.model.v == "sz"
        assert config.noise.alpha == 3.0
        assert config.noise.tau_c == 10.0
        assert config.model.tau == 1.0
        assert config.kle.s == 3
        assert config.pce.p == 9
        assert config.mc.n_traj == 20000
        assert config.mc.seed == 12345

    def test_fig1_presets_differ_in_drift_and_correlation(self):
        top = parse_config(preset_text("fig1_top"))
        bottom = parse_config(preset_text("fig1_bottom"))
        assert top.model.h0 == "5*sx"
        assert top.noise.tau_c == 0.1
        assert bottom.model.h0 == "20*sx"
        assert bottom.noise.tau_c == 10.0
        assert top.noise.alpha == bottom.noise.alpha == 1.0

    def test_dephasing_preset_is_driftless(self):
        config = parse_config(preset_text("dephasing_oracle"))
        np.testing.assert_array_equal(config.build_model().h0,
                                      np.zeros((2, 2)))
        assert config.noise.alpha == 0.25
        assert config.pce.p == 6
