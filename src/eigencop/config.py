"""JSON wire format for copulas, and the parsing helpers every record uses.

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

Experiment records, which embed a copula record, are declared with the
studies they drive in `coverage`.
"""

from __future__ import annotations

import json

from .basis import (Cosine, Family, PiecewiseSign, ShiftedLegendre,
                    SineCosine, TwoValueStep)
from .copula import (SpectralCopula, fgm, sine_cosine_copula,
                     two_sine_model, zero_association_model,
                     SpectralCoefficients)

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


def load_record(source, parse, field_name: str):
    """Parse a dict, inline JSON (text opening with '{' or '[') or a path to
    a JSON file with `parse`; invalid JSON is a ConfigError on `field_name`."""
    if not isinstance(source, dict):
        text = source
        if not source.lstrip().startswith(("{", "[")):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(field_name, f"invalid JSON: {exc}") from exc
    return parse(source)


def load_copula(source) -> SpectralCopula:
    """Accept a dict, a JSON string, or a path to a JSON file."""
    return load_record(source, parse_copula_config, "copula")
