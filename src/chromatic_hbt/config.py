"""Run configuration: an INI file with strictly unit-tagged quantities.

Every dimensioned value carries an explicit unit token ("1064.4 nm",
"210.1 GHz", "40 ms"); angles are "<x> rad" or "pi:<x>".  Unit mistakes are
the dominant failure mode in this kind of pipeline, so bare numbers are
rejected for dimensioned keys.  Defaults reproduce the nominal two-color
experiment; any file just overrides what it names.
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .elements import ConversionSettings
from .protocol import G2Model, ModeFrequencies

LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12}
FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}

DEFAULT_CONFIG = """\
[run]
seed = 12345
out_dir = out

[modes]
wavelength_1 = 1064.4 nm
wavelength_2 = 1063.6 nm
wavelength_3 = 630.8 nm

[conversion]
theta_31 = pi:0.5
theta_32 = pi:2
theta_2p2 = pi:2
theta_1p1 = pi:2
phi_31 = 0 rad
phi_32 = 0 rad
phi_2p2 = 0 rad
phi_1p1 = 0 rad

[scenario]
alpha = 0.7071067811865476
beta = 0.7071067811865476
t_delay = 0 ps
erasure = on

[delay_scan]
visibility = 0.59
phase = -0.16 rad
beat_frequency = 210.1 GHz
steps = 20
scan_periods = 5.0
bin_width = 1 ns
rate_a = 10 MHz
rate_b = 10 MHz
dark_rate_a = 0 Hz
dark_rate_b = 0 Hz
dwell = 40 ms

[tau_scan]
visibility = 0.576
linewidth = 0.118 MHz
phase = -0.434 rad
beat_frequency = 1.32 MHz
bin_width = 20 ns
rate_a = 150 kHz
rate_b = 150 kHz
dark_rate_a = 0 Hz
dark_rate_b = 0 Hz
duration = 12 s
tau_max = 12 us
tau_step = 0.12 us
far_taus = 38 us, 41 us, 44 us

[fit]
weighted = on

[analyze]
input =
"""


class ConfigError(ValueError):
    """A configuration value failed to parse or validate."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"[{location}] {message}")


def _split_quantity(text: str, location: str) -> tuple[float, str]:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(location, f"expected '<number> <unit>', got {text!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(location, f"{parts[0]!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(location, f"{parts[0]!r} is not a finite number")
    return value, parts[1]


def parse_quantity(text: str, units: dict[str, float], location: str) -> float:
    value, unit = _split_quantity(text.strip(), location)
    if unit not in units:
        raise ConfigError(
            location, f"unit {unit!r} not recognized; expected one of {sorted(units)}"
        )
    return value * units[unit]


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


@dataclass(frozen=True)
class ModesSection:
    wavelength_1: float  # m
    wavelength_2: float
    wavelength_3: float

    def frequencies(self) -> ModeFrequencies:
        return ModeFrequencies.from_wavelengths(
            self.wavelength_1, self.wavelength_2, self.wavelength_3
        )


@dataclass(frozen=True)
class ScenarioSection:
    alpha: complex
    beta: complex
    t_delay: float  # s
    erasure: bool


@dataclass(frozen=True)
class DelayScanSection:
    visibility: float
    phase: float
    beat_frequency: float
    steps: int
    scan_periods: float
    bin_width: float
    rate_a: float
    rate_b: float
    dark_rate_a: float
    dark_rate_b: float
    dwell: float

    def model(self) -> G2Model:
        return G2Model(visibility=self.visibility, phase=self.phase, frequency=self.beat_frequency)

    def schedule(self) -> tuple[tuple[float, float], ...]:
        period = 1.0 / self.beat_frequency
        step = self.scan_periods * period / self.steps
        return tuple((k * step, self.dwell) for k in range(self.steps))


@dataclass(frozen=True)
class TauScanSection:
    visibility: float
    linewidth: float
    phase: float
    beat_frequency: float
    bin_width: float
    rate_a: float
    rate_b: float
    dark_rate_a: float
    dark_rate_b: float
    duration: float
    tau_max: float
    tau_step: float
    far_taus: tuple[float, ...]

    def model(self) -> G2Model:
        return G2Model(
            visibility=self.visibility,
            phase=self.phase,
            frequency=self.beat_frequency,
            linewidth=self.linewidth,
        )

    def taus(self) -> list[float]:
        n = int(round(self.tau_max / self.tau_step))
        grid = [k * self.tau_step for k in range(-n, n + 1)]
        grid += [sign * tau for tau in self.far_taus for sign in (1.0, -1.0)]
        return sorted(grid)


@dataclass(frozen=True)
class FitSection:
    weighted: bool


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
    analyze_input: Path | None = None

    @classmethod
    def load(
        cls,
        path: str | Path | None = None,
        seed: int | None = None,
        out_dir: str | Path | None = None,
    ) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
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
        return cls._from_parser(parser, seed_override=seed, out_dir_override=out_dir)

    @classmethod
    def _from_parser(cls, parser, seed_override=None, out_dir_override=None) -> "RunConfig":
        def get(section: str, key: str) -> str:
            try:
                return parser.get(section, key)
            except (configparser.NoSectionError, configparser.NoOptionError):
                raise ConfigError(f"{section}.{key}", "missing required key") from None

        def q(section, key, units):
            return parse_quantity(get(section, key), units, f"{section}.{key}")

        def angle(section, key):
            return parse_angle(get(section, key), f"{section}.{key}")

        modes = ModesSection(
            wavelength_1=q("modes", "wavelength_1", LENGTH_UNITS),
            wavelength_2=q("modes", "wavelength_2", LENGTH_UNITS),
            wavelength_3=q("modes", "wavelength_3", LENGTH_UNITS),
        )
        for name in ("wavelength_1", "wavelength_2", "wavelength_3"):
            if getattr(modes, name) <= 0:
                raise ConfigError(f"modes.{name}", "wavelength must be > 0")

        angles = {
            key: angle("conversion", key)
            for key in (
                "theta_31", "theta_32", "theta_2p2", "theta_1p1",
                "phi_31", "phi_32", "phi_2p2", "phi_1p1",
            )
        }
        try:
            conversion = ConversionSettings.from_angles(**angles)
        except ValueError as exc:
            raise ConfigError("conversion", str(exc)) from None

        scenario = ScenarioSection(
            alpha=parse_complex(get("scenario", "alpha"), "scenario.alpha"),
            beta=parse_complex(get("scenario", "beta"), "scenario.beta"),
            t_delay=q("scenario", "t_delay", TIME_UNITS),
            erasure=parse_bool(get("scenario", "erasure"), "scenario.erasure"),
        )

        delay_scan = DelayScanSection(
            visibility=parse_float(get("delay_scan", "visibility"), "delay_scan.visibility"),
            phase=angle("delay_scan", "phase"),
            beat_frequency=q("delay_scan", "beat_frequency", FREQUENCY_UNITS),
            steps=parse_int(get("delay_scan", "steps"), "delay_scan.steps"),
            scan_periods=parse_float(get("delay_scan", "scan_periods"), "delay_scan.scan_periods"),
            bin_width=q("delay_scan", "bin_width", TIME_UNITS),
            rate_a=q("delay_scan", "rate_a", FREQUENCY_UNITS),
            rate_b=q("delay_scan", "rate_b", FREQUENCY_UNITS),
            dark_rate_a=q("delay_scan", "dark_rate_a", FREQUENCY_UNITS),
            dark_rate_b=q("delay_scan", "dark_rate_b", FREQUENCY_UNITS),
            dwell=q("delay_scan", "dwell", TIME_UNITS),
        )
        if delay_scan.steps < 3:
            raise ConfigError("delay_scan.steps", f"need >= 3 scan steps, got {delay_scan.steps}")

        tau_scan = TauScanSection(
            visibility=parse_float(get("tau_scan", "visibility"), "tau_scan.visibility"),
            linewidth=q("tau_scan", "linewidth", FREQUENCY_UNITS),
            phase=angle("tau_scan", "phase"),
            beat_frequency=q("tau_scan", "beat_frequency", FREQUENCY_UNITS),
            bin_width=q("tau_scan", "bin_width", TIME_UNITS),
            rate_a=q("tau_scan", "rate_a", FREQUENCY_UNITS),
            rate_b=q("tau_scan", "rate_b", FREQUENCY_UNITS),
            dark_rate_a=q("tau_scan", "dark_rate_a", FREQUENCY_UNITS),
            dark_rate_b=q("tau_scan", "dark_rate_b", FREQUENCY_UNITS),
            duration=q("tau_scan", "duration", TIME_UNITS),
            tau_max=q("tau_scan", "tau_max", TIME_UNITS),
            tau_step=q("tau_scan", "tau_step", TIME_UNITS),
            far_taus=parse_quantity_list(get("tau_scan", "far_taus"), TIME_UNITS, "tau_scan.far_taus"),
        )

        fit = FitSection(weighted=parse_bool(get("fit", "weighted"), "fit.weighted"))

        analyze_input = None
        raw_input = get("analyze", "input").strip()
        if raw_input:
            analyze_input = Path(raw_input)
            if not analyze_input.exists():
                raise ConfigError("analyze.input", f"referenced file does not exist: {analyze_input}")

        seed = seed_override if seed_override is not None else parse_int(get("run", "seed"), "run.seed")
        out_dir = Path(out_dir_override) if out_dir_override is not None else Path(get("run", "out_dir"))
        return cls(
            seed=seed,
            out_dir=out_dir,
            modes=modes,
            conversion=conversion,
            scenario=scenario,
            delay_scan=delay_scan,
            tau_scan=tau_scan,
            fit=fit,
            analyze_input=analyze_input,
        )
