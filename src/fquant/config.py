"""Experiment configuration: a flat, sectioned key-value file.

Format: ``[section]`` headers followed by ``key = value`` lines; ``#`` starts
a comment; values are strings (optionally quoted), numbers, booleans, or
comma-separated lists of those.  ``SCHEMA`` lists every recognized key, and each
key's example there gives its type (a real has a decimal point, an integer none,
a list commas) and, for all but the ``_UNSET`` keys, its default.  ``load_config``
rejects any key that ``SCHEMA`` does not list, converts and checks each key it
reads once, then builds the space, the process and the optimizer to validate them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, FquantError
from .optimize import DEFAULT_MAX_ITERS, OptimizerConfig, default_config_for
from .path_space import DiscretePathSpace, exp_weighted_space
from .process_sim import _KIND_TABLE, KINDS, ProcessSpec

SCHEMA = """\
# fquant experiment config: sectioned key = value lines, '#' comments.

[process]
kind = brownian        # one of: brownian, bridge, ou, fbm, diffusion_euler,
                       #         gamma, compound_poisson, stable_levy
                       # (diffusion_euler needs callables and is API-only;
                       #  gamma, compound_poisson and stable_levy need d = 1)
H = 0.75               # fbm only
c = 1.0                # ou only: covariance exp(-c|s-t|)
a = 1.0                # gamma only: rate
lam = 1.0              # compound_poisson only: jump intensity
jump_law = normal      # compound_poisson only: normal | uniform | exponential
rho = 1.5              # stable_levy only
x0 = 0.0               # start value (brownian only)

[space]
m = 128                # grid nodes (>= 2)
t_end = 1.0            # grid spans [0, t_end]
p = 2.0                # norm exponent (finite, >= 1)
d = 1                  # coordinate dimension
measure = lebesgue     # lebesgue | exp:<b>  (quadrature for e^{-b t} dt)

[quantizer]
n = 8                  # codebook size
r = 2.0                # distortion exponent (>= 1)

[optimizer]
method = lloyd         # lloyd (runs at p = 2, r >= 2) | sgd (1 < p < inf, r >= 1);
                       # default: lloyd where it runs, else sgd
max_iters = 200        # default: 200 for lloyd, 20000 for sgd
tol = 1e-9
c0 = 0.1               # optional: SGD step numerator
decay = 0.0001         # optional: SGD step decay

[sample]
n_paths = 1000
seed = 0

[bounds]               # bounds subcommand only
marginal_sizes = 2,2   # one size per coordinate, product <= n
norm = lp              # lp | sup

[output]
dir = out
"""


def _parse_scalar(text: str):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse the sectioned key-value format into {section: {key: value}}."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise ConfigError(f"line {lineno}: malformed 'key = value' in {raw!r}")
        quoted = value[0] in "'\"" and value[-1] == value[0] and value[0] not in value[1:-1]
        if "," in value and not quoted:  # a quoted word keeps its commas
            sections[current][key] = [_parse_scalar(v) for v in value.split(",")]
        else:
            sections[current][key] = _parse_scalar(value)
    return sections


_DEFAULTS = parse_config_text(SCHEMA)  # {section: {key: example}}
_PARAM_OF = {kind: row.param[0] for kind, row in _KIND_TABLE.items() if row.param}
_PARAMS = set(_PARAM_OF.values())  # each read only under its own kind
_UNSET = {"kind", "method", "max_iters", "c0", "decay",
          "marginal_sizes"} | _PARAMS  # no default: read only where the file writes them
_CHECKS = {  # key: (test of its value alone, what the value must be)
    "kind": (lambda v: v in KINDS, f"must be one of {KINDS}"),
    "t_end": (lambda v: 0.0 < v < float("inf"), "must be finite and > 0"),
    "p": (lambda v: v < float("inf"), "must be finite; [bounds] norm = sup measures the sup norm"),
    "measure": (lambda v: v == "lebesgue" or v[:4] == "exp:", "must be 'lebesgue' or 'exp:<b>'"),
    "n": (lambda v: v >= 1, "must be >= 1"),
    "r": (lambda v: 1.0 <= v < float("inf"), "must be finite and >= 1"),
    "n_paths": (lambda v: v >= 1, "must be >= 1"),
    "marginal_sizes": (lambda v: min(v) >= 1, "must be integers >= 1"),
    "norm": (lambda v: v in ("lp", "sup"), "must be 'lp' or 'sup'"),
}
_MUST = {int: "must be an integer", float: "must be a real number", str: "must be a word",
         list: "must be integers"}


def _convert(example, section: str, key: str, value):
    """value as the type of the key's SCHEMA example.  No truncation of 2.7 or 2.0 to an
    integer; true is neither 1 nor 1.0; a list key takes one integer as a list of one."""
    kind = type(example)
    want = int if kind is list else kind
    items = value if kind is list and isinstance(value, list) else [value]
    try:
        if not all(type(v) is want or (want is float and type(v) is int) for v in items):
            raise TypeError(_MUST[kind])
        out = [want(v) for v in items]
    except (TypeError, OverflowError) as exc:
        text = str(value).lower() if isinstance(value, bool) else repr(value)
        raise ConfigError(f"[{section}] {key} = {text}: {exc}") from exc
    return out if kind is list else out[0]


def _values(sections: dict) -> dict:
    """{section: {key: value}}: each key the file writes, converted and checked, except
    another process kind's parameter; each other key but the _UNSET ones at its example."""
    values = {}
    for section, examples in _DEFAULTS.items():
        given, out = sections.get(section, {}), values.setdefault(section, {})
        for key, example in examples.items():
            if key in given and (key not in _PARAMS or key == _PARAM_OF.get(out.get("kind"))):
                value = out[key] = _convert(example, section, key, given[key])
                if key in _CHECKS and not _CHECKS[key][0](value):
                    raise ConfigError(f"[{section}] {key} {_CHECKS[key][1]}, got {value!r}")
            elif key not in _UNSET:
                out[key] = example
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    sections: dict  # {section: {key: value}} as the file writes them, which config_hash reads
    values: dict  # {section: {key: value}} from _values

    @property
    def config_hash(self) -> str:
        canon = repr(sorted((s, sorted(self.sections[s].items())) for s in _DEFAULTS))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def build_space(self) -> DiscretePathSpace:
        sp = self.values["space"]  # the measure's form is checked at load
        rate = "0" if sp["measure"] == "lebesgue" else sp["measure"][4:]  # b of exp:<b>
        half = sp["t_end"] / max(sp["m"] - 1, 1) / 2.0  # the end nodes' trapezoid mass
        t_prev = max(sp["m"] - 2, 0) * (2.0 * half)  # the node before t_end, as np.linspace's
        try:  # e^{-b t} is monotone: the extreme weights are half e^{-b t_end} and, at b < 0
            b = float(rate)  # with dt > 1, dt e^{-b t_prev}; both are checked before np.exp
            ends = half * math.exp(-b * sp["t_end"]), 2.0 * half * math.exp(-b * t_prev)
        except ValueError as exc:
            raise ConfigError(f"[space] measure = {rate!r}: must be a real number") from exc
        except OverflowError:
            ends = (math.inf,)
        if half > 0.0 and not all(0.0 < w < math.inf for w in ends):  # a b that is not finite
            raise ConfigError(f"[space] measure = {sp['measure']!r}: weights must be finite, > 0")
        try:  # lebesgue is exp:0: its weights are the trapezoid's times e^{-0 t} = 1
            return exp_weighted_space(sp["t_end"], sp["m"], b=b, p=sp["p"], d=sp["d"])
        except Exception as exc:
            raise ConfigError(f"[space] {exc}") from exc

    def build_process_spec(self) -> ProcessSpec:
        pr = dict(self.values["process"])
        try:
            return ProcessSpec(kind=pr.pop("kind", None), x0=pr.pop("x0"), params=pr)
        except FquantError as exc:
            raise ConfigError(f"[process] {exc}") from exc

    def build_optimizer(self, seed: int) -> OptimizerConfig:
        """default_config_for(space, r, seed) with the keys the file sets; a
        method set here brings its own DEFAULT_MAX_ITERS."""
        op, space = self.values["optimizer"], self.build_space()
        try:
            cfg = default_config_for(space, self.r, seed)
            cfg = replace(cfg, method=op.get("method", cfg.method))  # checked before its budget
            return replace(cfg, max_iters=op.get("max_iters", DEFAULT_MAX_ITERS[cfg.method]),
                           tol=op["tol"], sgd_c0=op.get("c0"), sgd_decay=op.get("decay"))
        except FquantError as exc:
            raise ConfigError(f"[optimizer] {exc}") from exc

    n = property(lambda self: self.values["quantizer"]["n"])
    r = property(lambda self: self.values["quantizer"]["r"])
    n_paths = property(lambda self: self.values["sample"]["n_paths"])
    seed = property(lambda self: self.values["sample"]["seed"])


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections = parse_config_text(text)
    unknown = set(sections) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    unknown = [f"[{s}] {k}" for s, keys in sections.items() for k in keys
               if k not in _DEFAULTS[s]]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; see --print-schema")
    for required in ("process", "space", "quantizer", "sample"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    cfg = ExperimentConfig({s: sections.get(s, {}) for s in _DEFAULTS}, _values(sections))
    space, kind = cfg.build_space(), cfg.build_process_spec().kind
    if _KIND_TABLE[kind].d1_only and space.d != 1:
        raise ConfigError(f"[process] {kind} is implemented for d = 1 only, got d = {space.d}")
    cfg.build_optimizer(cfg.seed)
    return cfg


def print_schema() -> str:
    return SCHEMA
