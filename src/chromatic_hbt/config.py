"""Run configuration: an INI file with strictly unit-tagged quantities.

Every dimensioned value carries an explicit unit token ("1064.4 nm",
"210.1 GHz", "40 ms"); angles are "<x> rad" or "pi:<x>".  Unit mistakes are
the dominant failure mode in this kind of pipeline, so bare numbers are
rejected for dimensioned keys.  Defaults reproduce the nominal two-color
experiment; any file just overrides what it names.

Each key is declared once, as a field of its section's class that names
its parser and its default text; DEFAULT_CONFIG is rendered from those
fields, section by section in SECTIONS' order.  `RunConfig.load` builds
every section through the same loop whichever command runs, and with them
the conversion settings and both scans' StreamConfig, so a range error of
the streams or the fringe models (a rate past the per-bin limit, a
visibility outside [0, 1]) is a ConfigError naming its section, like a bad
unit.  [scenario] holds only the input weights alpha and beta.
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from .elements import ConversionSettings
from .fitting import _MODELS
from .protocol import COLOR_LABELS, G2Model, ModeFrequencies, _weight_norm2
from .streams import StreamConfig

LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12}
FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}

# Each tau costs one coincidence count and one CSV row, and the default grid
# has 201 + 6 taus; a grid past this cap is refused at load, before its list
# of taus is built.
MAX_TAUS = 2**20

# Load builds and checks every delay step's schedule entry, and `chbt
# simulate` writes one file per step.  On one Xeon vCPU, 10^6 steps of 1 ns
# took 1.7 s and 130 MB to load, 2^16 steps 0.1 s; more steps than this cap
# are refused before the schedule is built.
MAX_STEPS = 2**16


class ConfigError(ValueError):
    """A configuration value failed to parse or validate."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"[{location}] {message}")


def _split_quantity(text: str, location: str) -> tuple[float, str]:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(location, f"expected '<number> <unit>', got {text!r}")
    return parse_float(parts[0], location), parts[1]


def parse_quantity(text: str, units: dict[str, float], location: str) -> float:
    value, unit = _split_quantity(text.strip(), location)
    if unit not in units:
        raise ConfigError(
            location, f"unit {unit!r} not recognized; expected one of {sorted(units)}"
        )
    scaled = value * units[unit]
    if not math.isfinite(scaled):
        raise ConfigError(location, f"{text.strip()!r} overflows to {scaled}")
    return scaled


def parse_angle(text: str, location: str) -> float:
    """Angles are '<x> rad' or 'pi:<x>' (multiples of pi)."""
    text = text.strip()
    if text.startswith("pi:"):
        try:
            multiple = float(text[3:])
        except ValueError:
            raise ConfigError(location, f"{text!r} is not a valid pi-multiple") from None
        if not math.isfinite(multiple):
            raise ConfigError(location, f"{text!r} is not a finite pi-multiple")
        return math.pi * multiple
    value, unit = _split_quantity(text, location)
    if unit != "rad":
        raise ConfigError(location, f"angles take 'rad' or the pi: prefix, got {unit!r}")
    return value


def parse_bool(text: str, location: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(location, f"expected on/off, got {text!r}")


def parse_int(text: str, location: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(location, f"{text!r} is not an integer") from None


def parse_float(text: str, location: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(location, f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(location, f"{text!r} is not a finite number")
    return value


def parse_complex(text: str, location: str) -> complex:
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(location, f"{text!r} is not a complex number") from None
    if not cmath.isfinite(value):
        raise ConfigError(location, f"{text!r} is not a finite complex number")
    return value


def parse_quantity_list(text: str, units: dict[str, float], location: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_quantity(item, units, location) for item in text.split(","))


def _key(parse, default: str | dict[str, str], above: float | None = None):
    """A section field read from its INI text by parse(text, location).

    `default` is the key's text in DEFAULT_CONFIG; a key that both scans
    share takes a {section: text} mapping.  With `above`, a parsed value
    that is not greater than it is refused.
    """
    return field(metadata={"parse": parse, "default": default, "above": above})


def _in_units(units: dict[str, float], parse=parse_quantity):
    """parse(text, units, location) as a field parser of (text, location)."""
    return lambda text, location: parse(text, units, location)


@dataclass(frozen=True)
class RunSection:
    seed: int = _key(parse_int, "12345")
    out_dir: Path = _key(lambda text, location: Path(text), "out")

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError("run.seed", f"must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class ModesSection:
    wavelength_1: float = _key(_in_units(LENGTH_UNITS), "1064.4 nm", above=0.0)  # m
    wavelength_2: float = _key(_in_units(LENGTH_UNITS), "1063.6 nm", above=0.0)
    wavelength_3: float = _key(_in_units(LENGTH_UNITS), "630.8 nm", above=0.0)

    def __post_init__(self):
        # the shifted lines are differences, so valid wavelengths can still
        # put one at or below 0 Hz, or overflow a line to inf
        freqs = self.frequencies()
        for label in COLOR_LABELS:
            frequency = getattr(freqs, label)
            if not 0.0 < frequency < math.inf:
                raise ConfigError("modes", f"line {label} at {frequency:.6g} Hz is not finite and > 0")

    def frequencies(self) -> ModeFrequencies:
        return ModeFrequencies.from_wavelengths(
            self.wavelength_1, self.wavelength_2, self.wavelength_3
        )


@dataclass(frozen=True)
class ConversionSection:
    theta_31: float = _key(parse_angle, "pi:0.5")
    theta_32: float = _key(parse_angle, "pi:2")
    theta_2p2: float = _key(parse_angle, "pi:2")
    theta_1p1: float = _key(parse_angle, "pi:2")
    phi_31: float = _key(parse_angle, "0 rad")
    phi_32: float = _key(parse_angle, "0 rad")
    phi_2p2: float = _key(parse_angle, "0 rad")
    phi_1p1: float = _key(parse_angle, "0 rad")


@dataclass(frozen=True)
class ScenarioSection:
    alpha: complex = _key(parse_complex, "0.7071067811865476")
    beta: complex = _key(parse_complex, "0.7071067811865476")

    def __post_init__(self):
        norm2 = _weight_norm2(self.alpha, self.beta)
        if not norm2 <= 1.0 + 1e-9:
            raise ConfigError("scenario.alpha", f"|alpha|^2 + |beta|^2 = {norm2:.6g} exceeds 1")


@dataclass(frozen=True)
class _ScanSection:
    """The keys both scans share; each scan adds model() and schedule()."""

    section: ClassVar[str]
    visibility: float = _key(parse_float, {"delay_scan": "0.59", "tau_scan": "0.576"})
    phase: float = _key(parse_angle, {"delay_scan": "-0.16 rad", "tau_scan": "-0.434 rad"})
    beat_frequency: float = _key(
        _in_units(FREQUENCY_UNITS), {"delay_scan": "210.1 GHz", "tau_scan": "1.32 MHz"}, above=0.0
    )
    bin_width: float = _key(_in_units(TIME_UNITS), {"delay_scan": "1 ns", "tau_scan": "20 ns"})
    rate_a: float = _key(_in_units(FREQUENCY_UNITS), {"delay_scan": "10 MHz", "tau_scan": "150 kHz"})
    rate_b: float = _key(_in_units(FREQUENCY_UNITS), {"delay_scan": "10 MHz", "tau_scan": "150 kHz"})
    dark_rate_a: float = _key(_in_units(FREQUENCY_UNITS), "0 Hz")
    dark_rate_b: float = _key(_in_units(FREQUENCY_UNITS), "0 Hz")

    def __post_init__(self):
        # g2 divides by each channel's clicked bins; negative rates are StreamConfig's to refuse
        for rate, dark in (("rate_a", "dark_rate_a"), ("rate_b", "dark_rate_b")):
            if getattr(self, rate) == 0 and getattr(self, dark) == 0:
                raise ConfigError(f"{self.section}.{rate}", f"{rate} and {dark} are both 0 Hz: no clicks, no g2")

    def stream(self, seed: int) -> StreamConfig:
        return StreamConfig(
            bin_width=self.bin_width,
            rate_a=self.rate_a,
            rate_b=self.rate_b,
            seed=seed,
            model=self.model(),
            delay_schedule=self.schedule(),
            dark_rate_a=self.dark_rate_a,
            dark_rate_b=self.dark_rate_b,
        )


@dataclass(frozen=True)
class DelayScanSection(_ScanSection):
    section = "delay_scan"
    # each fit needs one point more than it has parameters
    steps: int = _key(parse_int, "20", above=len(_MODELS["delay"]))
    scan_periods: float = _key(parse_float, "5.0")
    dwell: float = _key(_in_units(TIME_UNITS), "40 ms", above=0.0)

    def __post_init__(self):
        if self.steps > MAX_STEPS:
            raise ConfigError("delay_scan.steps", f"{self.steps} steps exceed the cap of {MAX_STEPS}")
        super().__post_init__()
        # the delay fit needs half a period of the beat between the first and last delay
        span = abs(self.scan_periods) * (self.steps - 1) / self.steps
        if span < 0.5:
            raise ConfigError(
                "delay_scan.scan_periods",
                f"{self.scan_periods:g} periods in {self.steps} steps span {span:.3g} periods "
                "from the first delay to the last; the delay fit needs >= 0.5",
            )
        # scan_delay needs distinct delays; a step of 0 (or one that underflows to 0) repeats them
        if self.schedule()[1][0] == 0.0:
            raise ConfigError(
                "delay_scan.scan_periods", f"{self.scan_periods:g} periods repeat delay settings"
            )

    def model(self) -> G2Model:
        return G2Model(visibility=self.visibility, phase=self.phase, frequency=self.beat_frequency)

    def schedule(self) -> tuple[tuple[float, float], ...]:
        period = 1.0 / self.beat_frequency
        step = self.scan_periods * period / self.steps
        return tuple((k * step, self.dwell) for k in range(self.steps))


@dataclass(frozen=True)
class TauScanSection(_ScanSection):
    section = "tau_scan"
    linewidth: float = _key(_in_units(FREQUENCY_UNITS), "0.118 MHz")
    duration: float = _key(_in_units(TIME_UNITS), "12 s", above=0.0)
    tau_max: float = _key(_in_units(TIME_UNITS), "12 us")
    tau_step: float = _key(_in_units(TIME_UNITS), "0.12 us", above=0.0)
    far_taus: tuple[float, ...] = _key(_in_units(TIME_UNITS, parse_quantity_list), "38 us, 41 us, 44 us")

    def __post_init__(self):
        super().__post_init__()
        if self.tau_max < 0:
            raise ConfigError("tau_scan.tau_max", f"must be >= 0, got {self.tau_max:g}")
        half = self.tau_max / self.tau_step
        count = 2 * round(half) + 1 + 2 * len(self.far_taus) if math.isfinite(half) else math.inf
        if count > MAX_TAUS:
            raise ConfigError(
                "tau_scan.tau_step", f"tau_max / tau_step = {half:.6g} gives more than {MAX_TAUS} taus"
            )
        if count <= len(_MODELS["tau"]):
            raise ConfigError(
                "tau_scan.tau_max", f"{count} taus, far_taus included; the tau fit needs > {len(_MODELS['tau'])}"
            )
        # the shift scan refuses a shift of the whole stream, in whole picoseconds
        reach = max([round(half) * self.tau_step, *map(abs, self.far_taus)])
        if round(reach, 12) >= round(self.duration, 12):
            raise ConfigError(
                "tau_scan.duration",
                f"{self.duration:g} s is not longer than the largest |tau| = {reach:g} s",
            )

    def model(self) -> G2Model:
        return G2Model(
            visibility=self.visibility,
            phase=self.phase,
            frequency=self.beat_frequency,
            linewidth=self.linewidth,
        )

    def schedule(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, self.duration),)

    def taus(self) -> list[float]:
        n = int(round(self.tau_max / self.tau_step))
        grid = [k * self.tau_step for k in range(-n, n + 1)]
        grid += [sign * tau for tau in self.far_taus for sign in (1.0, -1.0)]
        return sorted(grid)


@dataclass(frozen=True)
class FitSection:
    weighted: bool = _key(parse_bool, "on")


# every section of the config, in DEFAULT_CONFIG's order
SECTIONS = {
    "run": RunSection,
    "modes": ModesSection,
    "conversion": ConversionSection,
    "scenario": ScenarioSection,
    "delay_scan": DelayScanSection,
    "tau_scan": TauScanSection,
    "fit": FitSection,
}


def _default_text(name: str, key) -> str:
    default = key.metadata["default"]
    return default[name] if isinstance(default, dict) else default


# the built-in configuration, which documents every section and key
DEFAULT_CONFIG = "\n".join(
    f"[{name}]\n" + "".join(f"{key.name} = {_default_text(name, key)}\n" for key in fields(cls))
    for name, cls in SECTIONS.items()
)


def _section(parser: configparser.ConfigParser, name: str, cls):
    """Build section `name` as `cls`, each field parsed by the parser it declares."""
    values = {}
    for key in fields(cls):
        location = f"{name}.{key.name}"
        value = key.metadata["parse"](parser[name][key.name], location)
        above = key.metadata["above"]
        if above is not None and not value > above:
            raise ConfigError(location, f"must be > {above:g}, got {value:g}")
        values[key.name] = value
    return cls(**values)


def _built(location: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError refused as a ConfigError at location."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(location, str(exc)) from None


def _refuse_unknown_keys(parser: configparser.ConfigParser, known: dict[str, set[str]]) -> None:
    """DEFAULT_CONFIG lists every section and key, so any other is a typo."""
    for section in parser:
        if section not in known:
            raise ConfigError(section, "unknown section; DEFAULT_CONFIG lists every section")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"{section}.{key}", "unknown key; DEFAULT_CONFIG lists every key")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: Path
    modes: ModesSection
    conversion: ConversionSettings
    scenario: ScenarioSection
    delay_scan: DelayScanSection
    tau_scan: TauScanSection
    fit: FitSection
    delay_stream: StreamConfig
    tau_stream: StreamConfig

    @classmethod
    def load(
        cls,
        path: str | Path | None = None,
        seed: int | None = None,
        out_dir: str | Path | None = None,
    ) -> "RunConfig":
        """Read DEFAULT_CONFIG, then the file at `path`, and validate every section.

        A value that the stream or fringe-model constructors would refuse
        is a ConfigError here, whichever command is about to run.
        """
        # no key interpolates, so a '%' is read as written
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        parser.read_string(DEFAULT_CONFIG)
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise ConfigError("config", f"file not found: {path}")
            known = {section: set(parser[section]) for section in parser}
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError("config", f"{path}: {exc}") from None
            _refuse_unknown_keys(parser, known)

        if seed is not None:
            # an overridden file seed is never parsed
            parser["run"]["seed"] = str(seed)
        sections = {name: _section(parser, name, section) for name, section in SECTIONS.items()}
        run, delay_scan, tau_scan = sections["run"], sections["delay_scan"], sections["tau_scan"]
        return cls(
            seed=run.seed,
            out_dir=run.out_dir if out_dir is None else Path(out_dir),
            modes=sections["modes"],
            conversion=_built("conversion", ConversionSettings, **vars(sections["conversion"])),
            scenario=sections["scenario"],
            delay_scan=delay_scan,
            tau_scan=tau_scan,
            fit=sections["fit"],
            delay_stream=_built("delay_scan", delay_scan.stream, run.seed),
            tau_stream=_built("tau_scan", tau_scan.stream, run.seed),
        )
