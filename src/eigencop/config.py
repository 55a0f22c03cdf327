"""JSON wire format for copulas and coverage experiments.

A copula record is

    {"basis": {"family": "cosine"}, "lambda": [[k, value], ...]}

with family one of sine_cosine, cosine, shifted_legendre, two_value_step
(plus "alpha"), piecewise_sign (plus "breakpoints").  For the sine_cosine
family the "mu" list carries the sine-function coefficients and "lambda"
the cosine ones; other families use "lambda" alone.  Three shorthand
records build common models directly:

    {"fgm": theta}
    {"two_sine": [mu1, mu2]}
    {"zero_association": mu1}

Experiment records are versioned ({"schema": "eigencop-experiment/1"})
and drive the coverage harness; see `parse_experiment_config`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .basis import (Cosine, Family, PiecewiseSign, ShiftedLegendre,
                    SineCosine, TwoValueStep)
from .copula import (SpectralCopula, fgm, sine_cosine_copula,
                     two_sine_model, zero_association_model,
                     SpectralCoefficients)

EXPERIMENT_SCHEMA = "eigencop-experiment/1"

EXPERIMENT_KINDS = ("coverage_bernoulli", "coverage_exponential",
                    "coverage_mean", "coverage_mu_w")


# the JSON name of each basis family, read both ways
_FAMILY_NAMES = {"sine_cosine": SineCosine, "cosine": Cosine,
                 "shifted_legendre": ShiftedLegendre,
                 "two_value_step": TwoValueStep, "piecewise_sign": PiecewiseSign}
_FAMILY_OF_CLASS = {cls: name for name, cls in _FAMILY_NAMES.items()}


class ConfigError(ValueError):
    """Malformed configuration; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field {field_name!r}: {message}")


def _real(obj, field_name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(field_name, "expected a number")
    return float(obj)


def _integer(obj, field_name: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(field_name, "expected an integer")
    return int(obj)


def _pair_list(obj, field_name: str):
    if not isinstance(obj, list):
        raise ConfigError(field_name, "expected a list of [index, value] pairs")
    out = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{field_name}[{i}]", "expected an [index, value] pair")
        k = pair[0]
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError(f"{field_name}[{i}]", "index must be an integer")
        out.append((k, _real(pair[1], f"{field_name}[{i}]")))
    return out


def parse_basis(obj) -> Family:
    if not isinstance(obj, dict):
        raise ConfigError("basis", "expected an object with a 'family' tag")
    name = obj.get("family")
    if not isinstance(name, str) or name not in _FAMILY_NAMES:
        raise ConfigError("basis.family", f"unknown family {name!r}; "
                          f"expected one of {sorted(_FAMILY_NAMES)}")
    extra = set(obj) - {"family", "alpha", "breakpoints"}
    if extra:
        raise ConfigError(f"basis.{sorted(extra)[0]}", "unexpected key")
    if name == "two_value_step":
        if "alpha" not in obj:
            raise ConfigError("basis.alpha", "two_value_step requires 'alpha'")
        alpha = _real(obj["alpha"], "basis.alpha")
        try:
            return TwoValueStep(alpha)
        except ValueError as exc:
            raise ConfigError("basis.alpha", str(exc)) from exc
    if name == "piecewise_sign":
        bps = obj.get("breakpoints")
        if not isinstance(bps, list) or len(bps) < 2:
            raise ConfigError("basis.breakpoints",
                              "piecewise_sign requires a breakpoint list")
        vals = tuple(_real(b, "basis.breakpoints") for b in bps)
        try:
            return PiecewiseSign(vals)
        except ValueError as exc:
            raise ConfigError("basis.breakpoints", str(exc)) from exc
    if "alpha" in obj or "breakpoints" in obj:
        raise ConfigError("basis", f"family {name!r} takes no parameters")
    return _FAMILY_NAMES[name]()


def parse_copula_config(obj) -> SpectralCopula:
    """Build a copula from its JSON record (shorthand or explicit form)."""
    if not isinstance(obj, dict):
        raise ConfigError("copula", "expected an object")

    shorthands = [k for k in ("fgm", "two_sine", "zero_association") if k in obj]
    if shorthands:
        if len(obj) != 1:
            raise ConfigError(shorthands[0], "shorthand records take no other keys")
        key = shorthands[0]
        try:
            if key == "fgm":
                return fgm(_real(obj[key], key))
            if key == "zero_association":
                return zero_association_model(_real(obj[key], key))
            vals = obj[key]
            if not isinstance(vals, list) or len(vals) != 2:
                raise ConfigError(key, "expected [mu1, mu2]")
            return two_sine_model(_real(vals[0], key), _real(vals[1], key))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc

    if "basis" not in obj:
        raise ConfigError("basis", "missing")
    extra = set(obj) - {"basis", "lambda", "mu"}
    if extra:
        raise ConfigError(sorted(extra)[0], "unexpected key")
    family = parse_basis(obj["basis"])

    lam_pairs = _pair_list(obj.get("lambda", []), "lambda")
    mu_pairs = _pair_list(obj.get("mu", []), "mu")

    try:
        if isinstance(family, SineCosine):
            # mu rides the sine functions, lambda the cosine ones
            return sine_cosine_copula(sin=mu_pairs, cos=lam_pairs)
        if mu_pairs:
            raise ConfigError("mu", "only the sine_cosine family takes 'mu'")
        return SpectralCopula(family, SpectralCoefficients.from_pairs(lam_pairs))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("lambda", str(exc)) from exc


def copula_to_config(c: SpectralCopula) -> dict:
    """Echo a copula as its explicit JSON record."""
    fam = c.family
    if type(fam) not in _FAMILY_OF_CLASS:
        raise TypeError(f"unknown family {fam!r}")
    basis = {"family": _FAMILY_OF_CLASS[type(fam)]}
    if isinstance(fam, SineCosine):
        sin_pairs = [[k[1], lam] for k, lam in c.coeffs.entries if k[0] == "sin"]
        cos_pairs = [[k[1], lam] for k, lam in c.coeffs.entries if k[0] == "cos"]
        return {"basis": basis, "lambda": cos_pairs, "mu": sin_pairs}
    if isinstance(fam, TwoValueStep):
        basis["alpha"] = fam.alpha
    elif isinstance(fam, PiecewiseSign):
        basis["breakpoints"] = list(fam.breakpoints)
    return {"basis": basis, "lambda": [[k, lam] for k, lam in c.coeffs.entries]}


def load_copula(source) -> SpectralCopula:
    """Accept a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, dict):
        return parse_copula_config(source)
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("copula", f"invalid JSON: {exc}") from exc
    return parse_copula_config(obj)


# -- experiment records ---------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One coverage study: a chain model, an experiment kind with its
    per-cell parameter list, and the Monte Carlo shape."""

    kind: str
    copula: SpectralCopula | None
    n: int
    replicates: int
    level: float
    master_seed: int
    variance_mode: str
    repeats: int = 1
    thresholds: tuple = ()
    rates: tuple = ()
    sample_sizes: tuple = ()
    weights: tuple = ()
    mu1_values: tuple = ()
    raw: dict = field(default=None, compare=False, repr=False)

    def as_dict(self) -> dict:
        out = {
            "schema": EXPERIMENT_SCHEMA,
            "experiment": self.kind,
            "n": self.n,
            "replicates": self.replicates,
            "level": self.level,
            "master_seed": self.master_seed,
            "variance_mode": self.variance_mode,
            "repeats": self.repeats,
        }
        if self.copula is not None:
            out["copula"] = copula_to_config(self.copula)
        if self.kind == "coverage_bernoulli":
            out["thresholds"] = list(self.thresholds)
        elif self.kind == "coverage_exponential":
            out["rates"] = list(self.rates)
        elif self.kind == "coverage_mean":
            out["sample_sizes"] = list(self.sample_sizes)
        elif self.kind == "coverage_mu_w":
            out["weights"] = list(self.weights)
            out["mu1_values"] = list(self.mu1_values)
        return out


def parse_experiment_config(obj) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("experiment", "expected an object")
    if obj.get("schema") != EXPERIMENT_SCHEMA:
        raise ConfigError("schema", f"expected {EXPERIMENT_SCHEMA!r}")
    kind = obj.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment",
                          f"unknown kind {kind!r}; expected one of {list(EXPERIMENT_KINDS)}")

    allowed = {"schema", "experiment", "copula", "n", "replicates", "R",
               "level", "master_seed", "variance_mode", "repeats",
               "thresholds", "rates", "sample_sizes", "weights", "mu1_values"}
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(sorted(extra)[0], "unexpected key")

    n = _integer(obj.get("n", 0), "n")
    if n < 2:
        raise ConfigError("n", "chain length must be at least 2")
    if "replicates" in obj and "R" in obj:
        raise ConfigError("R", "give either 'replicates' or 'R', not both")
    rep_key = "replicates" if "replicates" in obj else "R"
    replicates = _integer(obj.get(rep_key, 0), rep_key)
    if replicates < 1:
        raise ConfigError(rep_key, "replicate count must be at least 1")
    level = _real(obj.get("level", 0.95), "level")
    if not 0.0 < level < 1.0:
        raise ConfigError("level", "level must be in (0,1)")
    master_seed = _integer(obj.get("master_seed", 0), "master_seed")
    if master_seed < 0:
        raise ConfigError("master_seed", "must be nonnegative")
    variance_mode = obj.get("variance_mode", "model")
    if variance_mode not in ("model", "iid"):
        raise ConfigError("variance_mode", "expected 'model' or 'iid'")
    repeats = _integer(obj.get("repeats", 1), "repeats")
    if repeats < 1:
        raise ConfigError("repeats", "must be at least 1")

    def real_list(key, positive=False, lo=None, hi=None):
        vals = obj.get(key)
        if not isinstance(vals, list) or not vals:
            raise ConfigError(key, f"kind {kind!r} requires a nonempty list")
        out = []
        for i, v in enumerate(vals):
            x = _real(v, f"{key}[{i}]")
            if positive and not x > 0.0:
                raise ConfigError(f"{key}[{i}]", "must be positive")
            if lo is not None and not lo < x < hi:
                raise ConfigError(f"{key}[{i}]", f"must be in ({lo},{hi})")
            out.append(x)
        return tuple(out)

    thresholds = rates = sample_sizes = weights = mu1_values = ()
    copula = None

    if kind == "coverage_mu_w":
        # each cell builds its own zero-association copula from mu1
        weights = real_list("weights")
        for i, w in enumerate(weights):
            if not 0.0 <= w <= 1.0:
                raise ConfigError(f"weights[{i}]", "must be in [0,1]")
        mu1_values = real_list("mu1_values")
        for i, mu1 in enumerate(mu1_values):
            try:
                zero_association_model(mu1)
            except ValueError as exc:
                raise ConfigError(f"mu1_values[{i}]", str(exc)) from exc
        if "copula" in obj:
            raise ConfigError("copula", "coverage_mu_w derives its copulas from mu1_values")
    else:
        if "copula" not in obj:
            raise ConfigError("copula", "missing")
        copula = parse_copula_config(obj["copula"])
        if kind == "coverage_bernoulli":
            thresholds = real_list("thresholds", lo=0.0, hi=1.0)
        elif kind == "coverage_exponential":
            rates = real_list("rates", positive=True)
        elif kind == "coverage_mean":
            if "sample_sizes" in obj:
                raw_sizes = obj["sample_sizes"]
                if not isinstance(raw_sizes, list) or not raw_sizes:
                    raise ConfigError("sample_sizes", "expected a nonempty list")
                sizes = []
                for i, v in enumerate(raw_sizes):
                    m = _integer(v, f"sample_sizes[{i}]")
                    if m < 2 or m > n:
                        raise ConfigError(f"sample_sizes[{i}]",
                                          "must be between 2 and n")
                    sizes.append(m)
                sample_sizes = tuple(sizes)
            else:
                sample_sizes = (n,)

    return ExperimentConfig(kind, copula, n, replicates, level, master_seed,
                            variance_mode, repeats, thresholds, rates,
                            sample_sizes, weights, mu1_values, raw=dict(obj))


def load_experiment(source) -> ExperimentConfig:
    if isinstance(source, dict):
        return parse_experiment_config(source)
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("experiment", f"invalid JSON: {exc}") from exc
    return parse_experiment_config(obj)
