"""Parameter presets and the key-value config file format.

Config files are a small TOML subset:

    name = "ex55"
    m = 2
    n = 3
    w = "y^2 + y/x + x^3"
    alpha = [-1, -1]
    beta = [0, 1]

Two presets ship with the package (resolvable by bare name or as bundled
files): ex55, whose attained image is nonpositive yet has no largest-element
property, and ex52, whose attained image is a reversely well-ordered cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .exprs import parse_poly
from .valgroup import ValuePair
from .valuation import ValuationSpec, make_spec


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

    def build(self) -> ValuationSpec:
        """Validate and construct the valuation parameters."""
        return make_spec(**self.bundle())

    def to_text(self) -> str:
        return (
            f'name = "{self.name}"\n'
            f"m = {self.m}\n"
            f"n = {self.n}\n"
            f'w = "{self.w}"\n'
            f"alpha = [{self.alpha[0]}, {self.alpha[1]}]\n"
            f"beta = [{self.beta[0]}, {self.beta[1]}]\n"
        )


PRESETS = {
    "ex55": SpecConfig(name="ex55", m=2, n=3, w="y^2 + y/x + x^3", alpha=(-1, -1), beta=(0, 1)),
    "ex52": SpecConfig(name="ex52", m=2, n=3, w="y^2 + x^3", alpha=(-1, -1), beta=(0, -1)),
}


class ConfigError(ValueError):
    pass


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
    missing = {"name", "m", "n", "w", "alpha", "beta"} - fields.keys()
    if missing:
        raise ConfigError(f"missing keys: {', '.join(sorted(missing))}")
    extra = fields.keys() - {"name", "m", "n", "w", "alpha", "beta"}
    if extra:
        raise ConfigError(f"unknown keys: {', '.join(sorted(extra))}")
    for key, kind in (("name", str), ("m", int), ("n", int), ("w", str), ("alpha", tuple), ("beta", tuple)):
        if not isinstance(fields[key], kind):
            raise ConfigError(f"{key} has the wrong type")
    return SpecConfig(
        name=fields["name"],
        m=fields["m"],
        n=fields["n"],
        w=fields["w"],
        alpha=fields["alpha"],
        beta=fields["beta"],
    )


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a bundled preset config."""
    return Path(resources.files("lexval").joinpath("data", f"{name}.toml"))


def load_config(source: str) -> SpecConfig:
    """Load a config by preset name or file path."""
    if source in PRESETS:
        return PRESETS[source]
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"no preset or config file named {source!r}")
    return parse_config_text(path.read_text())


def load_spec(source: str) -> ValuationSpec:
    """Load and validate valuation parameters by preset name or file path."""
    return load_config(source).build()
