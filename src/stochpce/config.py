"""INI-style run configuration: strict schema, line-numbered errors, round-trippable.

A run file has sections [model], [noise], [kle], [pce], [mc], [output],
[sweep].  Model and noise parameters are required; everything else has a
documented default.  Unknown sections or keys are rejected.  Operators are
written as Pauli combinations ("sx", "20*sx", "0.5*id + 0.5*sx") or as an
explicit matrix literal ("matrix [[0, 1], [1, 0]]").

The dataclasses below are the layout of a run file: the field order of
RunConfig decides which sections exist and the order emit_config writes
them in, and the field order of each section's dataclass (MCConfig for
[mc]) decides the order of its keys.  parse_config(emit_config(cfg)) == cfg
holds exactly: emit writes every resolved value that is not None, and floats
are emitted with repr (shortest round-trip form).
"""

import ast
import os
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, InvalidOperatorError
from .hierarchy import DEFAULT_SUBSTEP_FRACTION
from .kle import OrnsteinUhlenbeckKernel, TabulatedKernel, default_candidate_count
from .montecarlo import MAX_STEP_FRACTION, MCConfig
from .operators import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StochasticModel,
    check_hermitian,
    validate_density_matrix,
)

_PAULI_SYMBOLS = {"sx": SIGMA_X, "sy": SIGMA_Y, "sz": SIGMA_Z, "id": IDENTITY}

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coef>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*\*\s*)?"
    r"(?P<sym>sx|sy|sz|id)\s*")


def parse_operator(text: str, line: int | None = None) -> np.ndarray:
    """Pauli-combination or explicit-matrix operator expression."""
    text = text.strip()
    if not text:
        raise ConfigError("empty operator expression", line)
    if text.startswith("matrix"):
        literal = text[len("matrix"):].strip()
        try:
            data = ast.literal_eval(literal)
            matrix = np.array(data, dtype=complex)
        except (ValueError, SyntaxError, TypeError) as exc:
            raise ConfigError(f"bad matrix literal: {exc}", line) from None
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {matrix.shape}", line)
        return matrix

    total = None
    pos = 0
    first = True
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or (not first and match.group("sign") is None):
            raise ConfigError(f"cannot parse operator expression {text!r}", line)
        sign = -1.0 if match.group("sign") == "-" else 1.0
        coef = float(match.group("coef")) if match.group("coef") else 1.0
        term = sign * coef * _PAULI_SYMBOLS[match.group("sym")]
        total = term if total is None else total + term
        pos = match.end()
        first = False
    return total


def format_float(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class ModelConfig:
    h0: str
    v: str
    rho0: str
    tau: float


@dataclass(frozen=True)
class NoiseConfig:
    kind: str
    alpha: float | None = None
    tau_c: float | None = None
    table: str | None = None
    spacing: float | None = None


@dataclass(frozen=True)
class KLEConfig:
    grid_size: int
    candidate_modes: int
    s: int


@dataclass(frozen=True)
class PCEConfig:
    p: int
    dt_max: float
    output_points: int


@dataclass(frozen=True)
class OutputConfig:
    prefix: str
    observable: str


@dataclass(frozen=True)
class SweepConfig:
    p_values: tuple
    s_values: tuple


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    noise: NoiseConfig
    kle: KLEConfig
    pce: PCEConfig
    mc: MCConfig
    output: OutputConfig
    sweep: SweepConfig

    def build_kernel(self):
        if self.noise.kind == "ou":
            return OrnsteinUhlenbeckKernel(alpha=self.noise.alpha,
                                           tau_c=self.noise.tau_c)
        try:
            values = np.loadtxt(self.noise.table)
            return TabulatedKernel(values=values, spacing=self.noise.spacing)
        except ValueError as exc:
            raise ConfigError(f"'table' file {self.noise.table}: {exc}") from None

    def build_model(self) -> StochasticModel:
        return StochasticModel(h0=parse_operator(self.model.h0),
                               v=parse_operator(self.model.v),
                               kernel=self.build_kernel(), horizon=self.model.tau)

    def build_rho0(self) -> np.ndarray:
        return validate_density_matrix(parse_operator(self.model.rho0))

    def build_observable(self) -> np.ndarray:
        return check_hermitian(parse_operator(self.output.observable))

    def output_times(self) -> np.ndarray:
        return np.linspace(0.0, self.model.tau, self.pce.output_points)


class _Section:
    """One parsed section: key -> (raw value, line number), consumed key tracking."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.items: dict = {}
        self.consumed: set = set()

    def add(self, key: str, value: str, line: int):
        if key in self.items:
            raise ConfigError(f"duplicate key '{key}' in [{self.name}]", line)
        self.items[key] = (value, line)

    def has(self, key: str) -> bool:
        return key in self.items

    def raw(self, key: str, default=None, required: bool = False):
        if key not in self.items:
            if required:
                raise ConfigError(f"missing required key '{key}' in [{self.name}]")
            return default, None
        self.consumed.add(key)
        return self.items[key]

    def get_str(self, key: str, default=None, required=False, choices=None):
        value, line = self.raw(key, default, required)
        if value is None:
            return None
        value = str(value).strip()
        if choices is not None and value not in choices:
            raise ConfigError(
                f"'{key}' must be one of {sorted(choices)}, got {value!r}", line)
        return value

    def get_float(self, key: str, default=None, required=False,
                  positive=False, nonnegative=False):
        value, line = self.raw(key, default, required)
        if value is None:
            return None
        if isinstance(value, float):
            return value
        try:
            out = float(value)
        except ValueError:
            raise ConfigError(f"'{key}' is not a number: {value!r}", line) from None
        if not np.isfinite(out):
            raise ConfigError(f"'{key}' must be finite, got {value!r}", line)
        if positive and out <= 0:
            raise ConfigError(f"'{key}' must be positive, got {value!r}", line)
        if nonnegative and out < 0:
            raise ConfigError(f"'{key}' must be >= 0, got {value!r}", line)
        return out

    def get_int(self, key: str, default=None, required=False, minimum=None):
        value, line = self.raw(key, default, required)
        if value is None:
            return None
        if isinstance(value, int):
            return value
        try:
            out = int(str(value).strip(), 10)
        except ValueError:
            raise ConfigError(f"'{key}' is not an integer: {value!r}", line) from None
        if minimum is not None and out < minimum:
            raise ConfigError(f"'{key}' must be >= {minimum}, got {out}", line)
        return out

    def get_int_list(self, key: str, default=None, minimum=None):
        value, line = self.raw(key, default)
        if value is None:
            return None
        if isinstance(value, tuple):
            return value
        parts = [p.strip() for p in str(value).split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"'{key}' must be a comma-separated integer list", line)
        out = []
        for part in parts:
            try:
                item = int(part, 10)
            except ValueError:
                raise ConfigError(
                    f"'{key}' has a non-integer entry: {part!r}", line) from None
            if minimum is not None and item < minimum:
                raise ConfigError(
                    f"'{key}' entries must be >= {minimum}, got {item}", line)
            out.append(item)
        return tuple(out)

    def check_consumed(self):
        for key, (_value, line) in self.items.items():
            if key not in self.consumed:
                raise ConfigError(f"unknown key '{key}' in [{self.name}]", line)


_KNOWN_SECTIONS = tuple(section.name for section in fields(RunConfig))


def _split_sections(text: str) -> dict:
    sections: dict = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line_no)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line_no)
            current = _Section(name, line_no)
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        if current is None:
            raise ConfigError("key outside any section", line_no)
        key, _, value = line.partition("=")
        current.add(key.strip(), value.strip(), line_no)
    return sections


def _check_operator(key: str, spec: str, h0_shape: tuple | None,
                    line: int | None, section: str) -> tuple:
    """Shape of the operator spec, which must have h0's shape (h0_shape is
    None for h0 itself), be Hermitian and, for rho0, be a density matrix.
    line is None where the run file leaves key out and spec is its default,
    so a shape error names the default and the section to set key in."""
    matrix = parse_operator(spec, line)
    shape = h0_shape or matrix.shape
    if matrix.shape != shape:
        default = f" (the default {spec})" if line is None else ""
        advice = f"; set '{key}' in [{section}]" if line is None else ""
        raise ConfigError(
            f"'{key}' is {matrix.shape[0]}x{matrix.shape[1]}{default} but h0 "
            f"is {shape[0]}x{shape[1]}{advice}", line)
    try:
        (validate_density_matrix if key == "rho0" else check_hermitian)(matrix)
    except InvalidOperatorError as exc:
        raise ConfigError(f"'{key}' {exc}", line) from None
    return shape


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration; errors carry line numbers."""
    sections = _split_sections(text)
    for required in ("model", "noise"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    def section(name: str) -> _Section:
        return sections.get(name) or _Section(name, 0)

    model_s = section("model")
    noise_s = section("noise")
    kle_s = section("kle")
    pce_s = section("pce")
    mc_s = section("mc")
    output_s = section("output")
    sweep_s = section("sweep")

    h0 = model_s.get_str("h0", required=True)
    v = model_s.get_str("v", required=True)
    tau = model_s.get_float("tau", required=True, positive=True)
    rho0 = model_s.get_str("rho0", default="0.5*id + 0.5*sx")
    h0_shape = None
    for key, spec in (("h0", h0), ("v", v), ("rho0", rho0)):
        _, line = model_s.raw(key)
        h0_shape = _check_operator(key, spec, h0_shape, line, "model")
    model = ModelConfig(h0=h0, v=v, tau=tau, rho0=rho0)

    kind = noise_s.get_str("kind", default="ou", choices={"ou", "tabulated"})
    if kind == "ou":
        for forbidden in ("table", "spacing"):
            if noise_s.has(forbidden):
                _, line = noise_s.raw(forbidden)
                raise ConfigError(f"'{forbidden}' is not valid for kind = ou", line)
        noise = NoiseConfig(kind="ou",
                            alpha=noise_s.get_float("alpha", required=True,
                                                    nonnegative=True),
                            tau_c=noise_s.get_float("tau_c", required=True,
                                                    positive=True))
    else:
        for forbidden in ("alpha", "tau_c"):
            if noise_s.has(forbidden):
                _, line = noise_s.raw(forbidden)
                raise ConfigError(
                    f"'{forbidden}' is not valid for kind = tabulated", line)
        noise = NoiseConfig(kind="tabulated",
                            table=noise_s.get_str("table", required=True),
                            spacing=noise_s.get_float("spacing", required=True,
                                                      positive=True))

    s_dim = kle_s.get_int("s", default=3, minimum=1)
    grid_size = kle_s.get_int("grid_size", default=400, minimum=2)
    candidate_modes = kle_s.get_int("candidate_modes",
                                    default=default_candidate_count(s_dim),
                                    minimum=1)
    if s_dim > grid_size:
        raise ConfigError(f"s = {s_dim} exceeds grid_size = {grid_size}")
    if candidate_modes < s_dim:
        raise ConfigError(
            f"candidate_modes = {candidate_modes} is below s = {s_dim}")
    if candidate_modes > grid_size:
        raise ConfigError(
            f"candidate_modes = {candidate_modes} exceeds grid_size = {grid_size}")
    kle = KLEConfig(grid_size=grid_size, candidate_modes=candidate_modes, s=s_dim)

    pce = PCEConfig(p=pce_s.get_int("p", default=9, minimum=0),
                    dt_max=pce_s.get_float("dt_max",
                                           default=tau / DEFAULT_SUBSTEP_FRACTION,
                                           positive=True),
                    output_points=pce_s.get_int("output_points", default=200,
                                                minimum=2))

    mc_dt = mc_s.get_float("dt", default=tau / 500.0, positive=True)
    max_dt = tau / MAX_STEP_FRACTION
    if mc_dt > max_dt * (1 + 1e-12):
        raise ConfigError(f"mc dt = {mc_dt!r} exceeds tau/{MAX_STEP_FRACTION} = {max_dt!r}")
    try:
        mc = MCConfig(n_traj=mc_s.get_int("n_traj", default=20000, minimum=2),
                      dt=mc_dt,
                      seed=mc_s.get_int("seed", default=12345, minimum=0),
                      sampler=mc_s.get_str("sampler", default="exact_ou",
                                           choices={"exact_ou", "kle"}),
                      batch=mc_s.get_int("batch", default=500, minimum=1),
                      stderr_target=mc_s.get_float("stderr_target", default=5e-3,
                                                   positive=True))
    except ValueError as exc:
        raise ConfigError(f"invalid [mc] section: {exc}") from None
    # legacy: the benchmark's run files still carry 'workers = 1' (ROADMAP item 8)
    workers, line = mc_s.raw("workers", default="1")
    if workers != "1":
        raise ConfigError("'workers' was removed, Monte Carlo runs in one "
                          "thread; only 'workers = 1' is still accepted", line)

    observable = output_s.get_str("observable", default="sx")
    _, line = output_s.raw("observable")
    _check_operator("observable", observable, h0_shape, line, "output")
    output = OutputConfig(prefix=output_s.get_str("prefix", default="run"),
                          observable=observable)

    sweep = SweepConfig(
        p_values=sweep_s.get_int_list("p_values", default=(1, 3, 5, 7, 9),
                                      minimum=0),
        s_values=sweep_s.get_int_list("s_values", default=(s_dim,), minimum=1))
    for s_value in sweep.s_values:
        if s_value > candidate_modes:
            raise ConfigError(
                f"sweep s = {s_value} exceeds candidate_modes = {candidate_modes}")

    for section in sections.values():
        section.check_consumed()
    return RunConfig(model=model, noise=noise, kle=kle, pce=pce, mc=mc,
                     output=output, sweep=sweep)


def _emit_value(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return ", ".join(str(item) for item in value)
    return str(value)


def emit_config(config: RunConfig) -> str:
    """Canonical INI text with every value resolved; parse round-trips exactly."""
    blocks = []
    for section in fields(config):
        values = getattr(config, section.name)
        lines = [f"[{section.name}]"]
        for key in fields(values):
            value = getattr(values, key.name)
            if value is not None:
                lines.append(f"{key.name} = {_emit_value(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def load_config(path) -> RunConfig:
    """Read a run file, UTF-8 with or without a byte-order mark; a relative
    [noise] table is taken relative to the run file's directory, not to the
    working directory."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        config = parse_config(handle.read())
    if config.noise.table is None:
        return config
    table = os.path.join(os.path.dirname(path), config.noise.table)
    return replace(config, noise=replace(config.noise, table=table))
