"""Experiment configuration: a flat, sectioned key-value file.

Format: ``[section]`` headers followed by ``key = value`` lines; ``#`` starts
a comment; values are strings (optionally quoted), numbers, booleans, or
comma-separated lists of those.  ``SCHEMA`` documents every recognized key,
and ``load_config`` rejects any key it does not list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .optimize import DEFAULT_MAX_ITERS, OptimizerConfig, default_config_for
from .path_space import DiscretePathSpace, exp_weighted_space, uniform_space
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
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: malformed 'key = value' in {raw!r}")
        if "," in value:
            sections[current][key] = [_parse_scalar(v) for v in value.split(",")]
        else:
            sections[current][key] = _parse_scalar(value)
    return sections


def _convert(kind, section: str, key: str, value):
    try:  # no truncation of 2.7 or 2.0 to an integer; true is neither 1 nor 1.0
        if isinstance(value, bool) or (kind is int and type(value) is not int):
            raise TypeError("must be an integer" if kind is int else "must be a real number")
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        text = str(value).lower() if isinstance(value, bool) else repr(value)
        raise ConfigError(f"[{section}] {key} = {text}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    process: dict
    space: dict
    quantizer: dict
    optimizer: dict
    sample: dict
    bounds: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = repr(sorted((s, sorted(getattr(self, s).items())) for s in _KNOWN_SECTIONS))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def build_space(self) -> DiscretePathSpace:
        sp = self.space
        measure = str(sp.get("measure", "lebesgue"))
        try:
            m = _convert(int, "space", "m", sp.get("m", 128))
            t_end = _convert(float, "space", "t_end", sp.get("t_end", 1.0))
            p = _convert(float, "space", "p", sp.get("p", 2.0))
            if p == float("inf"):  # no optimizer runs at p = inf
                raise ValueError("p must be finite; [bounds] norm = sup measures the sup norm")
            d = _convert(int, "space", "d", sp.get("d", 1))
            if measure == "lebesgue":
                return uniform_space(t_end, m, p=p, d=d)
            if measure.startswith("exp:"):
                b = _convert(float, "space", "measure", measure[4:])
                return exp_weighted_space(t_end, m, b=b, p=p, d=d)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[space] {exc}") from exc
        raise ConfigError(f"unknown measure {measure!r}; use 'lebesgue' or 'exp:<b>'")

    def build_process_spec(self) -> ProcessSpec:
        pr = dict(self.process)
        kind = pr.pop("kind", None)
        if kind not in KINDS:
            raise ConfigError(f"[process] kind must be one of {KINDS}, got {kind!r}")
        x0 = _convert(float, "process", "x0", pr.pop("x0", 0.0))
        for name in set(pr) & set((_KIND_TABLE[kind].param or ())[:1]):  # the kind's own, if set
            pr[name] = _convert(float, "process", name, pr[name])
        try:
            return ProcessSpec(kind=kind, params=pr, x0=x0)
        except Exception as exc:
            raise ConfigError(f"[process] {exc}") from exc

    def build_optimizer(self, seed: int) -> OptimizerConfig:
        """default_config_for(space, r, seed) with the keys the file sets; a
        method set here brings its own DEFAULT_MAX_ITERS."""
        op = self.optimizer
        try:
            cfg = default_config_for(self.build_space(), self.r, seed)
            if "method" in op:  # validated here, before its budget is looked up
                cfg = replace(cfg, method=str(op["method"]))
            return replace(
                cfg,
                max_iters=_convert(int, "optimizer", "max_iters",
                                   op.get("max_iters", DEFAULT_MAX_ITERS[cfg.method])),
                tol=_convert(float, "optimizer", "tol", op.get("tol", cfg.tol)),
                sgd_c0=_convert(float, "optimizer", "c0", op["c0"]) if "c0" in op else cfg.sgd_c0,
                sgd_decay=(_convert(float, "optimizer", "decay", op["decay"]) if "decay" in op
                           else cfg.sgd_decay),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[optimizer] {exc}") from exc

    @property
    def n(self) -> int:
        return _convert(int, "quantizer", "n", self.quantizer.get("n", 8))

    @property
    def r(self) -> float:
        return _convert(float, "quantizer", "r", self.quantizer.get("r", 2.0))

    @property
    def n_paths(self) -> int:
        return _convert(int, "sample", "n_paths", self.sample.get("n_paths", 1000))

    @property
    def seed(self) -> int:
        return _convert(int, "sample", "seed", self.sample.get("seed", 0))

    def validate(self):
        if not 1 <= self.r < float("inf"):
            raise ConfigError(f"[quantizer] r must be finite and >= 1, got {self.r}")
        if self.n < 1:
            raise ConfigError(f"[quantizer] n must be >= 1, got {self.n}")
        if self.n_paths < 1:
            raise ConfigError("[sample] n_paths must be >= 1")
        if (norm := str(self.bounds.get("norm", "lp"))) not in ("lp", "sup"):  # read by bounds
            raise ConfigError(f"[bounds] norm must be 'lp' or 'sup', got {norm!r}")
        space = self.build_space()
        kind = self.build_process_spec().kind
        if _KIND_TABLE[kind].d1_only and space.d != 1:
            raise ConfigError(f"[process] {kind} is implemented for d = 1 only, got d = {space.d}")
        self.build_optimizer(self.seed)


_KNOWN_SECTIONS = tuple(f.name for f in fields(ExperimentConfig))
_SCHEMA_KEYS = {s: set(keys) for s, keys in parse_config_text(SCHEMA).items()}


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections = parse_config_text(text)
    unknown = set(sections) - set(_KNOWN_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    unknown = [f"[{s}] {k}" for s, keys in sections.items() for k in keys
               if k not in _SCHEMA_KEYS[s]]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; see --print-schema")
    for required in ("process", "space", "quantizer", "sample"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    cfg = ExperimentConfig(**{s: sections.get(s, {}) for s in _KNOWN_SECTIONS})
    cfg.validate()
    return cfg


def print_schema() -> str:
    return SCHEMA
