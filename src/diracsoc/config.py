"""Flat key-value run configuration with dotted section names.

Format: one ``section.key = value`` per line, ``#`` comments, blank
lines ignored.  Every key has a default and a rule in ``KEYS``, so an
empty (or absent) configuration is a complete one; unknown keys are
rejected, and every value is parsed and checked once, when the
configuration is loaded.  The effective configuration -- defaults merged
with the file and any command-line overrides -- is what gets hashed into
output records.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .emfield import CATALOG, PotentialError, PotentialSpec
from .grid import BACKENDS, SpacetimeGrid
from .soc import BATTERY, BATTERY_SEED_STRIDE


class ConfigError(ValueError):
    pass


def rule(convert, holds, need: str):
    """A key's rule: ``convert`` the text and require ``holds`` of the value, else
    raise ValueError with what the value must be (from_sources prefixes the key)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise ValueError(f"must be {need}, got {text!r}")
        return value
    return parse


# an infinite tolerance or n_sigma would pass every record it bounds
positive = rule(float, lambda x: 0 < x < math.inf, "positive and finite")
finite = rule(float, math.isfinite, "finite")
power_of_two = rule(int, lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8")
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
boolean = rule(lambda text: _BOOLEANS.get(text.lower()), lambda b: True,
               "true, yes, 1, false, no or 0")


def integer(least: int, most: float = math.inf):
    return rule(int, lambda n: least <= n <= most,
                f"an integer >= {least}" if most == math.inf else f"an integer in {least}..{most}")


def one_of(*options):
    """The text, read as the options' type, must equal one of them."""
    return rule(type(options[0]), options.__contains__, "one of " + ", ".join(map(str, options)))


def tuple_of(entry, length: int | None = None):
    """Comma-separated entries, each read by ``entry``; exactly ``length`` of them if given."""
    def parse(text: str) -> tuple:
        items = text.split(",")
        if length is not None and len(items) != length:
            raise ValueError(f"must have {length} comma-separated entries, got {text!r}")
        try:
            return tuple(entry(item) for item in items)
        except ValueError as exc:
            raise ValueError(f"entries {exc}") from None
    return parse


TWO_PI = 2 * np.pi

# Philox keys are 128-bit, and the simulate suite derives keys up to this far above
# the seed
MAX_SEED = 2 ** 128 - 1 - BATTERY_SEED_STRIDE * len(BATTERY)

# key -> (default text, rule); the parameters of a configured potential are further
# potential.* keys, named by its catalog entry and read by ``finite``
KEYS = {
    "constants.hbar": ("1.0", positive),
    "constants.c": ("1.0", positive),
    "constants.m": ("1.0", positive),
    "constants.e": ("1.0", finite),
    "constants.epsilon": ("1", one_of(1, -1)),
    # "catalog" sweeps the built-in divergence-free entries; any catalog
    # name here (with its parameters as further potential.* keys) makes
    # the identity suite target that single potential instead
    "potential.name": ("catalog", one_of("catalog", *CATALOG)),
    "grid.dims": ("2", integer(1, 4)),
    "grid.extent": (f"{TWO_PI!r},{TWO_PI!r}", tuple_of(positive)),
    "grid.points": ("256,256", tuple_of(power_of_two)),
    "backend": ("spectral", one_of(*BACKENDS)),
    "seed": ("12345", integer(0, MAX_SEED)),
    # zero samples, points or fields would let a check pass without testing anything
    "identity.n_fields": ("20", integer(1)),
    "identity.max_mode": ("8", integer(0)),
    "identity.tolerance": ("1e-8", positive),
    "identity.gauge_fields": ("5", integer(1)),
    "clifford.det_samples": ("100", integer(1)),
    "clifford.det_tolerance": ("1e-10", positive),
    "dispersion.n_points": ("32", integer(1)),
    "dispersion.kmax": ("3.0", positive),
    "dispersion.det_tolerance": ("1e-9", positive),
    "evolve.k1": ("1.0", finite),
    "evolve.gap_range": ("2.0", positive),
    "evolve.n_gaps": ("41", integer(1)),
    "evolve.dtau": ("1e-3", positive),
    "evolve.steps": ("1000", integer(1)),
    "evolve.stationary_tol": ("1e-10", positive),
    "evolve.frequency_tol": ("1e-8", positive),
    # fewer than two paths leave standard errors and correlations undefined
    "simulate.n_paths": ("100000", integer(2)),
    "simulate.ds": ("1e-3", positive),
    "simulate.n_sigma": ("3.0", positive),
    "simulate.control": ("zero", one_of("zero", "constant", "plane_wave")),
    "simulate.control_w": ("0,0,0,0", tuple_of(finite, 4)),
    "simulate.variance_paths": ("20000", integer(2)),
    "simulate.variance_steps": ("32", integer(1)),
    "simulate.repro_paths": ("256", integer(2)),
    "simulate.repro_steps": ("16", integer(1)),
    "simulate.dump_paths": ("false", boolean),
    "simulate.dump_max_paths": ("16", integer(1)),
}


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {p} cannot be read as UTF-8 text: {exc}") from None
    return parse_config_text(text)


@dataclass(frozen=True)
class RunConfig:
    """The merged texts (``raw``, which ``hash`` reads) and their parsed values,
    read as ``cfg[key]``."""

    raw: dict[str, str]
    values: dict[str, object]

    @classmethod
    def from_sources(cls, file_map: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None) -> "RunConfig":
        """The defaults, then ``file_map``, then ``overrides``, each value parsed by
        its key's rule, then the checks that relate keys."""
        merged = {key: default for key, (default, _) in KEYS.items()}
        for source in (file_map or {}), (overrides or {}):
            for key, value in source.items():
                if key not in KEYS and not key.startswith("potential."):
                    raise ConfigError(f"unknown configuration key {key!r}")
                merged[key] = str(value)
        values = {}
        for key, text in merged.items():
            try:
                values[key] = (KEYS[key][1] if key in KEYS else finite)(text)
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from None
        cfg = cls(raw=merged, values=values)
        # the operators and sweeps square hbar and m c and divide by hbar m: each must be
        # a finite normal float, or a suite overflows or divides by an underflowed 0
        hbar, c, m = (values[f"constants.{name}"] for name in ("hbar", "c", "m"))
        for names, product, value in ((("hbar",), "hbar^2", hbar * hbar),
                                      (("hbar", "m"), "hbar m", hbar * m),
                                      (("m", "c"), "(m c)^2", (m * c) * (m * c))):
            if not np.finfo(float).tiny <= value < math.inf:
                keys = " and ".join(f"constants.{n} = {merged[f'constants.{n}']}" for n in names)
                raise ConfigError(f"{keys}: {product} = {value!r} is not a finite normal "
                                  "float; rescale the constants")
        for key in ("grid.extent", "grid.points"):
            if len(cfg[key]) != cfg["grid.dims"]:
                raise ConfigError(f"{key} must have one entry per axis of grid.dims = "
                                  f"{cfg['grid.dims']}, got {merged[key]}")
        params = [key for key in merged if key.startswith("potential.") and key not in KEYS]
        if params and cfg["potential.name"] == "catalog":
            raise ConfigError(f"{params[0]} is a parameter of no potential: the catalog sweep "
                              "(potential.name = catalog) takes none")
        try:
            cfg.potential()
        except PotentialError as exc:
            raise ConfigError(f"potential.{exc.param or 'name'}: {exc}") from None
        return cfg

    def __getitem__(self, key: str):
        return self.values[key]

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(*(self[f"constants.{name}"]
                                   for name in ("hbar", "c", "m", "e", "epsilon")))

    def grid(self) -> SpacetimeGrid:
        return SpacetimeGrid(self["grid.dims"], self["grid.extent"], self["grid.points"])

    def potential(self) -> PotentialSpec | None:
        """The configured PotentialSpec, or None for the catalog sweep."""
        name = self["potential.name"]
        if name == "catalog":
            return None
        return PotentialSpec(name, {key.split(".", 1)[1]: value
                                    for key, value in self.values.items()
                                    if key.startswith("potential.") and key != "potential.name"})

    def hash(self) -> str:
        canon = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        """The fields stamped on every output record."""
        c = self.constants()
        return {
            "config_hash": self.hash(),
            "seed": self["seed"],
            "backend": self["backend"],
            "constants": {"hbar": c.hbar, "c": c.c, "m": c.m, "e": c.e,
                          "epsilon": c.epsilon},
            "branch": {"sigma": "principal rho_eps = exp(eps*i*pi/4)",
                       "sqrt_ww": "principal"},
        }
