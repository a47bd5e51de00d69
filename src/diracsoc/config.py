"""Flat key-value run configuration with dotted section names.

Format: one ``section.key = value`` per line, ``#`` comments, blank
lines ignored.  Every key has a default, so an empty (or absent)
configuration is a complete one; unknown keys are rejected.  The
effective configuration -- defaults merged with the file and any
command-line overrides -- is what gets hashed into output records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .grid import SpacetimeGrid
from .soc import BATTERY_SEED_STRIDE, standard_test_battery


class ConfigError(ValueError):
    pass


TWO_PI = 2 * np.pi

DEFAULTS: dict[str, str] = {
    "constants.hbar": "1.0",
    "constants.c": "1.0",
    "constants.m": "1.0",
    "constants.e": "1.0",
    "constants.epsilon": "1",
    # "catalog" sweeps the built-in divergence-free entries; any catalog
    # name here (with its parameters as further potential.* keys) makes
    # the identity suite target that single potential instead
    "potential.name": "catalog",
    "grid.dims": "2",
    "grid.extent": f"{TWO_PI!r},{TWO_PI!r}",
    "grid.points": "256,256",
    "backend": "spectral",
    "seed": "12345",
    "identity.n_fields": "20",
    "identity.max_mode": "8",
    "identity.tolerance": "1e-8",
    "identity.gauge_fields": "5",
    "clifford.det_samples": "100",
    "clifford.det_tolerance": "1e-10",
    "dispersion.n_points": "32",
    "dispersion.kmax": "3.0",
    "dispersion.det_tolerance": "1e-9",
    "evolve.k1": "1.0",
    "evolve.gap_range": "2.0",
    "evolve.n_gaps": "41",
    "evolve.dtau": "1e-3",
    "evolve.steps": "1000",
    "evolve.stationary_tol": "1e-10",
    "evolve.frequency_tol": "1e-8",
    "simulate.n_paths": "100000",
    "simulate.ds": "1e-3",
    "simulate.n_sigma": "3.0",
    "simulate.control": "zero",
    "simulate.control_w": "0,0,0,0",
    "simulate.variance_paths": "20000",
    "simulate.variance_steps": "32",
    "simulate.repro_paths": "256",
    "simulate.repro_steps": "16",
    "simulate.dump_paths": "false",
    "simulate.dump_max_paths": "16",
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
    return parse_config_text(p.read_text())


def _as_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


@dataclass(frozen=True)
class RunConfig:
    raw: dict[str, str]

    @classmethod
    def from_sources(cls, file_map: dict[str, str] | None = None,
                     overrides: dict[str, str] | None = None,
                     command: str | None = None) -> "RunConfig":
        """The defaults, then ``file_map``, then ``overrides``, validated.

        ``command`` adds the checks that only its suite needs: for ``evolve``,
        that every gap of the sweep has a real k^0, that its per-step phase stays
        below pi and that one gap is on shell.
        """
        merged = dict(DEFAULTS)
        for source in (file_map or {}), (overrides or {}):
            for key, value in source.items():
                # potential parameters are named by the catalog entry, so
                # anything under potential. is deferred to spec validation
                if key not in DEFAULTS and not key.startswith("potential."):
                    raise ConfigError(f"unknown configuration key {key!r}")
                merged[key] = str(value)
        cfg = cls(raw=merged)
        consts = cfg.constants()  # validate eagerly
        grid = cfg.grid()
        cfg.potential()
        nyquist = min(grid.points) // 2
        if not 0 <= cfg.int("identity.max_mode") < nyquist:
            raise ConfigError(f"identity.max_mode must be 0..{nyquist - 1} so that random "
                              f"fields stay below the Nyquist mode of grid.points "
                              f"{cfg.str('grid.points')}, got {cfg.str('identity.max_mode')}")
        if cfg.str("backend") not in ("spectral", "fd4"):
            raise ConfigError(f"backend must be spectral or fd4, got {cfg.str('backend')!r}")
        # an infinite tolerance or n_sigma would pass every record it bounds
        for key in ("identity.tolerance", "clifford.det_tolerance", "dispersion.det_tolerance",
                    "evolve.stationary_tol", "evolve.frequency_tol", "evolve.dtau",
                    "evolve.gap_range", "dispersion.kmax", "simulate.ds", "simulate.n_sigma"):
            if not 0 < cfg.float(key) < np.inf:
                raise ConfigError(f"{key} must be positive and finite, got {cfg.str(key)}")
        if not np.isfinite(cfg.float("evolve.k1")):
            raise ConfigError(f"evolve.k1 must be finite, got {cfg.str('evolve.k1')}")
        # fewer than two paths leave standard errors and correlations undefined;
        # zero samples, points or fields would let a check pass without testing anything
        for key, least in (("simulate.n_paths", 2), ("simulate.variance_paths", 2),
                           ("simulate.repro_paths", 2), ("simulate.variance_steps", 1),
                           ("simulate.repro_steps", 1), ("simulate.dump_max_paths", 1),
                           ("dispersion.n_points", 1), ("clifford.det_samples", 1),
                           ("evolve.n_gaps", 1), ("evolve.steps", 1),
                           ("identity.n_fields", 1), ("identity.gauge_fields", 1)):
            if cfg.int(key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {cfg.str(key)}")
        # Philox keys are 128-bit, and the simulate suite derives keys up to this far
        # above the seed
        max_seed = 2 ** 128 - 1 - BATTERY_SEED_STRIDE * len(standard_test_battery())
        if not 0 <= cfg.int("seed") <= max_seed:
            raise ConfigError(f"seed must be in 0..{max_seed}, got {cfg.str('seed')}")
        if command == "evolve":
            # the sweep's most negative gap, -gap_range, needs a real k^0 at k1; this is
            # the expression spectrum.delta_sweep evaluates there.  The error names
            # evolve.k1 when it was given without evolve.gap_range, else evolve.gap_range
            k1, gap_range = cfg.float("evolve.k1"), cfg.float("evolve.gap_range")
            k0sq = (-gap_range + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2
            if k0sq < 0:
                given = {*(file_map or {}), *(overrides or {})}
                key = ("evolve.k1" if "evolve.k1" in given and "evolve.gap_range" not in given
                       else "evolve.gap_range")
                raise ConfigError(
                    f"{key} = {cfg.str(key)} gives the gap -{gap_range:g} no real k^0 at "
                    f"evolve.k1 = {k1:g} (k^0^2 = {k0sq:.3g}); evolve.gap_range must stay "
                    f"within hbar^2 k1^2 + m^2 c^2 = "
                    f"{consts.hbar ** 2 * k1 ** 2 + consts.mass_shell:g}")
            # the largest per-step phase of the sweep is at its end gaps; np.unwrap in
            # spectrum.fit_mode_frequency folds a step of pi or more into a wrong frequency
            phase = gap_range * cfg.float("evolve.dtau") / (consts.hbar * consts.m)
            if phase >= np.pi:
                raise ConfigError(
                    f"evolve.dtau = {cfg.str('evolve.dtau')} turns the phase of the gap "
                    f"{gap_range:g} by {phase:.6g} rad per step, which the frequency fit cannot "
                    f"unwrap; evolve.dtau must stay below pi hbar m / evolve.gap_range = "
                    f"{np.pi * consts.hbar * consts.m / gap_range:.8g}")
            # a sweep with no on-shell mode never checks that one is stationary
            gaps, threshold = cfg.evolve_gaps()
            if not np.any(np.abs(gaps) <= threshold):
                raise ConfigError(
                    f"evolve.n_gaps = {cfg.str('evolve.n_gaps')} puts no gap within "
                    f"{threshold:.3g} of 0 on [-{gap_range:g}, {gap_range:g}], so no mode is "
                    f"on shell; use an odd count of at least 3")
        return cfg

    def evolve_gaps(self) -> tuple[np.ndarray, float]:
        """The evolve sweep's gaps, and the largest |gap| whose mode must stay stationary.

        The drift bound evolve.stationary_tol translates into that gap threshold
        via 2 sin(|D| T / 2 hbar m) over the proper time T = steps * dtau.
        """
        consts = self.constants()
        gap_range = self.float("evolve.gap_range")
        gaps = np.linspace(-gap_range, gap_range, self.int("evolve.n_gaps"))
        total_tau = self.int("evolve.steps") * self.float("evolve.dtau")
        return gaps, self.float("evolve.stationary_tol") * consts.hbar * consts.m / total_tau

    def str(self, key: str) -> str:
        return self.raw[key]

    def int(self, key: str) -> int:
        try:
            return int(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {self.raw[key]!r}") from exc

    def float(self, key: str) -> float:
        try:
            return float(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: expected a number, got {self.raw[key]!r}") from exc

    def bool(self, key: str) -> bool:
        return _as_bool(self.raw[key])

    def floats(self, key: str) -> tuple[float, ...]:
        try:
            return tuple(float(tok) for tok in self.raw[key].split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: expected comma-separated numbers") from exc

    def ints(self, key: str) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in self.raw[key].split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: expected comma-separated integers") from exc

    def constants(self) -> PhysicalConstants:
        eps = self.int("constants.epsilon")
        try:
            return PhysicalConstants(hbar=self.float("constants.hbar"),
                                     c=self.float("constants.c"),
                                     m=self.float("constants.m"),
                                     e=self.float("constants.e"),
                                     epsilon=eps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SpacetimeGrid:
        try:
            return SpacetimeGrid(dims=self.int("grid.dims"),
                                 extent=self.floats("grid.extent"),
                                 points=self.ints("grid.points"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def potential(self):
        """The configured PotentialSpec, or None for the catalog sweep."""
        name = self.str("potential.name")
        if name == "catalog":
            return None
        from .emfield import PotentialError, PotentialSpec
        params = {}
        for key, value in self.raw.items():
            if key.startswith("potential.") and key != "potential.name":
                params[key.split(".", 1)[1]] = self.float(key)
        try:
            return PotentialSpec(name, params)
        except PotentialError as exc:
            raise ConfigError(str(exc)) from exc

    def hash(self) -> str:
        canon = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        """The fields stamped on every output record."""
        c = self.constants()
        return {
            "config_hash": self.hash(),
            "seed": self.int("seed"),
            "backend": self.str("backend"),
            "constants": {"hbar": c.hbar, "c": c.c, "m": c.m, "e": c.e,
                          "epsilon": c.epsilon},
            "branch": {"sigma": "principal rho_eps = exp(eps*i*pi/4)",
                       "sqrt_ww": "principal"},
        }
