"""End-to-end emulation of the rotation-measurement experiment.

Pipeline stages: synthesize the two detector channels from a rotation-angle
signal (differential circular-basis powers), demodulate the relative phase
per sample, and either fit the phase against the OAM value (static runs) or
take the amplitude spectrum of the demodulated angle (spectral runs).

Hardware constants baked in: detector responsivity 0.585 A/W at 780 nm and
15 kV/A transimpedance gain, so channel samples are stored in volts and the
demodulation stays ratiometric (absolute power drops out).

Noise model (NoiseSpec): white Gaussian phase noise on the relative phase
(amplitude spectral density in rad/sqrt(Hz)) plus per-channel shot noise with
standard deviation sqrt(photon_energy * power * sample_rate), scaled by the
``shot`` factor.  The published experiment does not state its noise budget,
so the shipped calibration (data/noise_calibration_v1.cfg) is a target that
reproduces the reported floor at l=150, not a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .protocol import trial_rng
from .statekit import ContractViolation

__all__ = [
    "ConfigError",
    "NoiseSpec",
    "DetectorRecord",
    "PhaseSeries",
    "FitReport",
    "SpectrumReport",
    "RunConfig",
    "synthesize_record",
    "demodulate_phase",
    "fit_oam_series",
    "pzt_rotation_amplitude",
    "amplitude_spectrum",
    "precision_vs_oam",
    "parse_run_config",
    "finite_float",
    "calibrated_noise",
    "run_fit_pipeline",
    "run_spectrum_pipeline",
]

# Exact SI values (2019 redefinition): Planck constant and speed of light.
_PLANCK = 6.62607015e-34
_SPEED_OF_LIGHT = 299792458.0

WAVELENGTH_M = 780e-9
PHOTON_ENERGY_J = _PLANCK * _SPEED_OF_LIGHT / WAVELENGTH_M

RESPONSIVITY_A_PER_W = 0.585
TRANSIMPEDANCE_V_PER_A = 15e3
VOLTS_PER_WATT = RESPONSIVITY_A_PER_W * TRANSIMPEDANCE_V_PER_A

# Default analysis band for spectral runs (Hz).
DEFAULT_BAND = (18e3, 28e3)

# Bins masked out on each side of the signal peak when estimating the floor.
PEAK_EXCLUSION_BINS = 3


class ConfigError(ValueError):
    """A run configuration file or value is malformed."""


@dataclass(frozen=True)
class NoiseSpec:
    """Noise budget of a synthetic run.

    phase_asd: white phase noise on the demodulated relative phase,
        amplitude spectral density in rad/sqrt(Hz).
    shot: scale factor on physical per-channel shot noise (0 disables,
        1 is the Poisson-limited level at the configured power).
    """

    phase_asd: float = 0.0
    shot: float = 0.0

    def __post_init__(self):
        if self.phase_asd < 0.0 or self.shot < 0.0:
            raise ContractViolation("noise components must be >= 0")

    @property
    def silent(self) -> bool:
        return self.phase_asd == 0.0 and self.shot == 0.0


@dataclass(frozen=True)
class DetectorRecord:
    """Sampled two-channel optical powers, in volts after transimpedance."""

    sample_rate: float
    ch1: np.ndarray
    ch2: np.ndarray

    def __post_init__(self):
        ch1 = np.array(self.ch1, dtype=float)
        ch2 = np.array(self.ch2, dtype=float)
        if ch1.ndim != 1 or ch1.shape != ch2.shape:
            raise ContractViolation(
                f"channels must be 1-d and of equal length, got {ch1.shape} and {ch2.shape}"
            )
        ch1.setflags(write=False)
        ch2.setflags(write=False)
        object.__setattr__(self, "ch1", ch1)
        object.__setattr__(self, "ch2", ch2)

    def times(self) -> np.ndarray:
        return np.arange(self.ch1.size) / self.sample_rate


class PhaseSeries(NamedTuple):
    """Demodulated relative phase with indices of unusable samples."""

    phi: np.ndarray
    flagged: np.ndarray


@dataclass(frozen=True)
class FitReport:
    """Least-squares line through (2*l, phase): slope, intercept, R^2."""

    alpha_hat: float
    delta_phi_hat: float
    r_square: float


@dataclass(frozen=True)
class SpectrumReport:
    """Single-sided amplitude spectrum of a demodulated-angle series."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    noise_floor: float
    signal_peak: tuple[float, float]


def synthesize_record(
    l: int,
    signal_amp_rad: float,
    signal_freq_hz: float,
    delta_phi: float,
    power_w: float,
    noise: NoiseSpec,
    sample_rate: float,
    duration: float,
    seed: int,
    stream_offset: int = 0,
) -> DetectorRecord:
    """Synthesize the two detector channels for a rotation-angle signal.

    The rotation angle is amp*sin(2*pi*f*t), or a constant amp at f = 0; a
    signal above the Nyquist frequency is rejected.  Channel powers follow
    (power/2)*(1 +/- sin(2*l*alpha(t) + delta_phi)), with phase noise added
    on the argument and shot noise on each channel, then converted to
    detector volts.  Noise draws use the Philox streams
    (seed, stream_offset + {0, 1, 2}).
    """
    if signal_freq_hz < 0.0:
        raise ConfigError(f"signal frequency must be >= 0, got {signal_freq_hz}")
    if not power_w > 0.0:
        raise ContractViolation(f"optical power must be > 0, got {power_w}")
    if signal_freq_hz > 0.0 and sample_rate < 2.0 * signal_freq_hz:
        raise ContractViolation(
            f"sample rate {sample_rate} below Nyquist for {signal_freq_hz} Hz"
        )
    n = round(sample_rate * duration)
    if signal_freq_hz == 0.0:
        alpha = np.full(n, signal_amp_rad, dtype=float)
    else:
        t = np.arange(n) / sample_rate
        alpha = signal_amp_rad * np.sin(2.0 * math.pi * signal_freq_hz * t)
    phase = 2.0 * l * alpha + delta_phi
    if noise.phase_asd > 0.0:
        sigma_phi = noise.phase_asd * math.sqrt(sample_rate / 2.0)
        phase = phase + trial_rng(seed, stream_offset).normal(0.0, sigma_phi, n)
    modulation = np.sin(phase)
    p1 = 0.5 * power_w * (1.0 + modulation)
    p2 = 0.5 * power_w * (1.0 - modulation)
    if noise.shot > 0.0:
        scale = noise.shot * math.sqrt(PHOTON_ENERGY_J * sample_rate)
        p1 = p1 + trial_rng(seed, stream_offset + 1).standard_normal(n) * scale * np.sqrt(p1)
        p2 = p2 + trial_rng(seed, stream_offset + 2).standard_normal(n) * scale * np.sqrt(p2)
    return DetectorRecord(sample_rate, p1 * VOLTS_PER_WATT, p2 * VOLTS_PER_WATT)


def demodulate_phase(record: DetectorRecord) -> PhaseSeries:
    """Per-sample relative phase arcsin((ch1-ch2)/(ch1+ch2)), ratio clamped.

    Samples with non-positive total power cannot be demodulated; they come
    back as NaN and their indices are reported in ``flagged``.
    """
    total = record.ch1 + record.ch2
    flagged = np.flatnonzero(total <= 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total > 0.0, (record.ch1 - record.ch2) / total, np.nan)
    phi = np.arcsin(np.clip(ratio, -1.0, 1.0))
    phi[flagged] = np.nan
    return PhaseSeries(phi, flagged)


def fit_oam_series(measurements: Sequence[tuple[int, float]]) -> FitReport:
    """Ordinary least squares of mean phase against twice the OAM value.

    Needs at least three distinct OAM values; returns the slope (the rotation
    angle), the intercept (the systematic phase offset), and the coefficient
    of determination.
    """
    if len(measurements) < 3:
        raise ConfigError(f"need >= 3 measurements, got {len(measurements)}")
    l_values = [l for l, _ in measurements]
    if len(set(l_values)) < 3:
        raise ConfigError("need >= 3 distinct OAM values for the fit")
    x = 2.0 * np.asarray(l_values, dtype=float)
    y = np.asarray([phi for _, phi in measurements], dtype=float)
    x_mean = float(np.mean(x))
    y_mean = float(np.mean(y))
    dx = x - x_mean
    var_x = float(np.dot(dx, dx))
    if var_x <= 0.0:
        raise ConfigError("degenerate fit input: OAM values are collinear")
    slope = float(np.dot(dx, y - y_mean)) / var_x
    intercept = y_mean - slope * x_mean
    residual = y - (slope * x + intercept)
    ss_res = float(np.dot(residual, residual))
    ss_tot = float(np.dot(y - y_mean, y - y_mean))
    if ss_tot <= 0.0:
        r_square = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r_square = 1.0 - ss_res / ss_tot
    return FitReport(slope, intercept, r_square)


def pzt_rotation_amplitude(vpp: float, piezo_gain: float, row_spacing: float) -> float:
    """Beam-profile rotation amplitude driven by opposite-phase actuator rows.

    Opposite-phase rows each stroke piezo_gain*(vpp/2), so the differential
    stroke amplitude is piezo_gain*vpp; dividing by the row spacing gives the
    prism tilt, and the prism rotates the image by twice its own angle.
    Returns the rotation amplitude in radians (half of peak-to-peak).
    """
    if vpp < 0.0 or piezo_gain <= 0.0 or row_spacing <= 0.0:
        raise ContractViolation("actuation parameters must be positive (vpp >= 0)")
    differential_stroke = piezo_gain * vpp
    prism_tilt = differential_stroke / row_spacing
    return 2.0 * prism_tilt


def amplitude_spectrum(
    alpha_series: np.ndarray,
    sample_rate: float,
    band: tuple[float, float],
) -> SpectrumReport:
    """Single-sided amplitude spectrum with peak and noise-floor statistics.

    Rectangular window; a pure sinusoid of amplitude A centered on a bin
    reports A.  With that normalization the mean square of a zero-mean series
    equals amp[0]^2 + sum(amp[1:-1]^2)/2 + amp[-1]^2 (even length).  The
    signal peak is the largest bin inside ``band``; the floor is the median
    of the remaining band amplitudes at least PEAK_EXCLUSION_BINS+1 bins away
    from the peak.
    """
    x = np.asarray(alpha_series, dtype=float)
    if x.ndim != 1 or x.size < 1024:
        raise ContractViolation(f"series must be 1-d with >= 1024 samples, got {x.shape}")
    if np.any(~np.isfinite(x)):
        raise ContractViolation("series contains non-finite samples")
    f_lo, f_hi = band
    nyquist = sample_rate / 2.0
    if not (0.0 <= f_lo < f_hi <= nyquist):
        raise ContractViolation(
            f"band {band} must satisfy 0 <= f_lo < f_hi <= Nyquist ({nyquist})"
        )
    n = x.size
    spectrum = np.fft.rfft(x)
    amplitudes = (2.0 / n) * np.abs(spectrum)
    amplitudes[0] = np.abs(spectrum[0]) / n
    if n % 2 == 0:
        amplitudes[-1] = np.abs(spectrum[-1]) / n
    frequencies = np.fft.rfftfreq(n, 1.0 / sample_rate)
    in_band = np.flatnonzero((frequencies >= f_lo) & (frequencies <= f_hi))
    if in_band.size < 2 * PEAK_EXCLUSION_BINS + 2:
        raise ContractViolation(f"band {band} covers too few bins ({in_band.size})")
    band_amps = amplitudes[in_band]
    peak_pos = int(np.argmax(band_amps))
    peak_bin = int(in_band[peak_pos])
    signal_peak = (float(frequencies[peak_bin]), float(band_amps[peak_pos]))
    keep = np.abs(in_band - peak_bin) > PEAK_EXCLUSION_BINS
    noise_floor = float(np.median(band_amps[keep]))
    frequencies.setflags(write=False)
    amplitudes.setflags(write=False)
    return SpectrumReport(frequencies, amplitudes, noise_floor, signal_peak)


# ---------------------------------------------------------------------------
# Run configuration (flat key-value files) and the two pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment run configuration."""

    mode: str
    l_values: tuple[int, ...]
    power_w: float
    delta_phi_rad: float
    signal_freq_hz: float
    signal_amp_rad: float
    sample_rate: float
    duration_s: float
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: Optional[int] = None
    band: tuple[float, float] = DEFAULT_BAND

    def __post_init__(self):
        if self.mode not in ("fit", "spectrum"):
            raise ConfigError(f"mode must be 'fit' or 'spectrum', got {self.mode!r}")
        if self.mode == "fit" and len(self.l_values) < 3:
            raise ConfigError("fit mode needs at least 3 OAM values")
        if self.mode == "spectrum" and (
            len(self.l_values) != 1 or self.l_values[0] < 1
        ):
            raise ConfigError("spectrum mode takes exactly one OAM value >= 1")
        if any(l < 0 for l in self.l_values):
            raise ConfigError("OAM values must be >= 0")
        if not self.noise.silent and self.seed is None:
            raise ConfigError("a seed is required when noise is enabled")
        if not self.sample_rate > 0.0:
            raise ConfigError(f"sample_rate must be > 0, got {self.sample_rate}")
        if round(self.sample_rate * self.duration_s) < 1:
            raise ConfigError(f"duration_s = {self.duration_s} gives no samples")


def _parse_kv_lines(path) -> dict[str, tuple[str, int]]:
    values: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = (value, lineno)
    return values


def finite_float(raw: str) -> float:
    """``float(raw)``, raising ValueError for nan and +/-inf as well."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _ranged(cast, in_range, rule: str):
    """``cast``, raising ValueError as well when ``in_range(value)`` is false."""

    def checked(raw: str):
        value = cast(raw)
        if not in_range(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return checked


_nonnegative_float = _ranged(finite_float, lambda v: v >= 0.0, ">= 0")
_positive_float = _ranged(finite_float, lambda v: v > 0.0, "> 0")
_nonnegative_int = _ranged(int, lambda v: v >= 0, ">= 0")


def _oam_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(","))


_REQUIRED = object()

# Every run-config key: its cast and its default (_REQUIRED: no default).
_CONFIG_TABLE = {
    "mode": (str, _REQUIRED),
    "l": (_oam_list, _REQUIRED),
    "power_w": (_positive_float, _REQUIRED),
    "delta_phi_rad": (finite_float, 0.0),
    "signal_freq_hz": (_nonnegative_float, _REQUIRED),
    "signal_amp_rad": (finite_float, _REQUIRED),
    "sample_rate": (finite_float, _REQUIRED),
    "duration_s": (finite_float, _REQUIRED),
    "band_lo_hz": (_nonnegative_float, DEFAULT_BAND[0]),
    "band_hi_hz": (finite_float, DEFAULT_BAND[1]),
    "noise.phase_asd": (_nonnegative_float, 0.0),
    "noise.shot": (_nonnegative_float, 0.0),
    "seed": (_nonnegative_int, None),
}


def _take(values, path, key, cast, default=_REQUIRED):
    if key not in values:
        if default is _REQUIRED:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return default
    raw, lineno = values[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None


def parse_run_config(path) -> RunConfig:
    """Parse a flat ``key = value`` run configuration file.

    The keys, their casts and defaults are ``_CONFIG_TABLE``; floats must be
    finite, and each cast also checks its key's range.  Unknown keys and
    out-of-range values are errors (reported with the key and line number).
    """
    values = _parse_kv_lines(path)
    for key, (_, lineno) in values.items():
        if key not in _CONFIG_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    v = {key: _take(values, path, key, *spec) for key, spec in _CONFIG_TABLE.items()}
    if not v["band_lo_hz"] < v["band_hi_hz"]:
        lines = ",".join(str(values[k][1]) for k in ("band_lo_hz", "band_hi_hz") if k in values)
        raise ConfigError(
            f"{path}:{lines}: 'band_lo_hz' ({v['band_lo_hz']}) must be below "
            f"'band_hi_hz' ({v['band_hi_hz']})"
        )
    # the remaining keys are RunConfig field names
    return RunConfig(
        l_values=v.pop("l"),
        noise=NoiseSpec(phase_asd=v.pop("noise.phase_asd"), shot=v.pop("noise.shot")),
        band=(v.pop("band_lo_hz"), v.pop("band_hi_hz")),
        **v,
    )


def calibrated_noise() -> NoiseSpec:
    """The shipped, versioned noise calibration (target: reported l=150 floor)."""
    ref = resources.files("iqpe.data").joinpath("noise_calibration_v1.cfg")
    with resources.as_file(ref) as path:
        values = _parse_kv_lines(path)
        phase_asd = _take(values, path, "noise.phase_asd", _nonnegative_float)
        shot = _take(values, path, "noise.shot", _nonnegative_float)
    return NoiseSpec(phase_asd=phase_asd, shot=shot)


class ChannelRun(NamedTuple):
    """One synthesized-and-demodulated record for a single OAM value."""

    l: int
    record: DetectorRecord
    phi: np.ndarray
    alpha: np.ndarray


def _run_single(cfg: RunConfig, l: int, stream_offset: int) -> ChannelRun:
    record = synthesize_record(
        l=l,
        signal_amp_rad=cfg.signal_amp_rad,
        signal_freq_hz=cfg.signal_freq_hz,
        delta_phi=cfg.delta_phi_rad,
        power_w=cfg.power_w,
        noise=cfg.noise,
        sample_rate=cfg.sample_rate,
        duration=cfg.duration_s,
        seed=cfg.seed if cfg.seed is not None else 0,
        stream_offset=stream_offset,
    )
    phi, flagged = demodulate_phase(record)
    if flagged.size:
        raise ContractViolation(
            f"demodulation failed on {flagged.size} samples (first at index {flagged[0]})"
        )
    denominator = 2.0 * l if l > 0 else 1.0
    alpha = (phi - cfg.delta_phi_rad) / denominator
    return ChannelRun(l, record, phi, alpha)


class FitPipelineResult(NamedTuple):
    runs: list[ChannelRun]
    phi_means: list[tuple[int, float]]
    fit: FitReport


def run_fit_pipeline(cfg: RunConfig) -> FitPipelineResult:
    """Static-angle runs over several OAM values, then the linear phase fit."""
    if cfg.mode != "fit":
        raise ConfigError(f"fit pipeline needs mode=fit, got {cfg.mode!r}")
    runs = [_run_single(cfg, l, stream_offset=8 * i) for i, l in enumerate(cfg.l_values)]
    phi_means = [(run.l, float(np.mean(run.phi))) for run in runs]
    return FitPipelineResult(runs, phi_means, fit_oam_series(phi_means))


class SpectrumPipelineResult(NamedTuple):
    run: ChannelRun
    spectrum: SpectrumReport


def run_spectrum_pipeline(cfg: RunConfig) -> SpectrumPipelineResult:
    """Single-OAM sinusoidal run, then the demodulated-angle spectrum."""
    if cfg.mode != "spectrum":
        raise ConfigError(f"spectrum pipeline needs mode=spectrum, got {cfg.mode!r}")
    run = _run_single(cfg, cfg.l_values[0], stream_offset=0)
    spectrum = amplitude_spectrum(run.alpha, cfg.sample_rate, cfg.band)
    return SpectrumPipelineResult(run, spectrum)


def precision_vs_oam(cfg: RunConfig, l_values: Sequence[int]) -> list[tuple[int, float]]:
    """Noise floor of the demodulated angle per OAM value, fixed noise budget.

    Runs the spectrum pipeline of ``cfg`` once per l (its own OAM value is
    not used) with independent noise streams; with a phase-noise-dominated
    budget the floor scales as 1/l.
    """
    if cfg.mode != "spectrum":
        raise ConfigError(f"noise-floor scan needs mode=spectrum, got {cfg.mode!r}")
    results = []
    for i, l in enumerate(l_values):
        if l < 1:
            raise ConfigError(f"noise-floor scan takes OAM values >= 1, got {l}")
        run = _run_single(cfg, int(l), stream_offset=8 * i)
        spectrum = amplitude_spectrum(run.alpha, cfg.sample_rate, cfg.band)
        results.append((int(l), spectrum.noise_floor))
    return results
