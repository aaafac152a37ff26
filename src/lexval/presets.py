"""Parameter presets and the key-value config file format.

Config files are a small TOML subset: one `key = value` line for each of
`name` and `w` (quoted strings), `m` and `n` (integers), and `alpha` and
`beta` (integer pairs `[a, b]`); blank lines and `#` comments are skipped.

The presets are the config files bundled in `lexval/data/`, read at import
into `PRESETS` by file name: ex55, whose attained image is nonpositive yet has
no largest-element property, and ex52, whose attained image is a reversely
well-ordered cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .exprs import parse_poly
from .valgroup import ValuePair
from .valuation import ValuationSpec, make_spec

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


@dataclass(frozen=True)
class SpecConfig:
    """Raw parameter bundle as read from a config file."""

    name: str
    m: int
    n: int
    w: str
    alpha: tuple[int, int]
    beta: tuple[int, int]

    def bundle(self) -> dict:
        """The parsed bundle m, n, w, alpha, beta, not yet validated."""
        return {
            "m": self.m,
            "n": self.n,
            "w": parse_poly(self.w),
            "alpha": ValuePair(*self.alpha),
            "beta": ValuePair(*self.beta),
        }

    @cached_property
    def spec(self) -> ValuationSpec:
        """The validated valuation parameters, built on first use and kept."""
        return make_spec(**self.bundle())


class ConfigError(ValueError):
    pass


# The config keys, in the order their types are checked, with those types.
_KINDS = {"name": str, "m": int, "n": int, "w": str, "alpha": tuple, "beta": tuple}


def _parse_value(raw: str, key: str, lineno: int):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw.startswith("[") and raw.endswith("]"):
        parts = [p.strip() for p in raw[1:-1].split(",")]
        try:
            nums = tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs an integer pair") from None
        if len(nums) != 2:
            raise ConfigError(f"line {lineno}: {key} needs exactly two integers")
        return nums
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for {key}") from None


def parse_config_text(text: str) -> SpecConfig:
    """Parse config text into a SpecConfig (no validation of the math)."""
    fields: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = _parse_value(raw, key, lineno)
    missing = _KINDS.keys() - fields.keys()
    if missing:
        raise ConfigError(f"missing keys: {', '.join(sorted(missing))}")
    extra = fields.keys() - _KINDS.keys()
    if extra:
        raise ConfigError(f"unknown keys: {', '.join(sorted(extra))}")
    for key, kind in _KINDS.items():
        if not isinstance(fields[key], kind):
            raise ConfigError(f"{key} has the wrong type")
    return SpecConfig(**fields)


def bundled_config_path(name: str) -> Traversable:
    """A bundled preset config as a resource with `read_text` and `exists`.

    In an unpacked install it is a `pathlib.Path`, a usable filesystem path;
    in a zipped one it is a path inside the archive.
    """
    return resources.files("lexval").joinpath("data", f"{name}.toml")


# Traversable reads, so that a zipped install works too.
PRESETS = {
    f.name.removesuffix(".toml"): parse_config_text(f.read_text())
    for f in sorted(resources.files("lexval").joinpath("data").iterdir(), key=lambda f: f.name)
    if f.name.endswith(".toml")
}


def load_config(source: str) -> SpecConfig:
    """Load a config by preset name or file path."""
    if source in PRESETS:
        return PRESETS[source]
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"no preset or config file named {source!r}")
    return parse_config_text(path.read_text())


def load_spec(source: str) -> ValuationSpec:
    """Valuation parameters by preset name (built once) or file path (read on every call)."""
    return load_config(source).spec
