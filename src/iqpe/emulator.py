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
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .protocol import FOLD, OAM_L, SEED, trial_rng
from .statekit import FINITE, ContractViolation, Range

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
    """A run configuration file or value is malformed; ``keys`` names the
    run-config keys of a broken rule, whose lines ``parse_run_config`` prints."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


_NONNEGATIVE = Range(0.0)
_POSITIVE = Range(0.0, ends="(]")


def _check_keys(*checks) -> None:
    """``ConfigError`` naming the first (key, value, rule) whose rule refuses its value."""
    for key, value, rule in checks:
        rule.check(repr(key), value, ConfigError, (key,))


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
        _check_keys(("noise.phase_asd", self.phase_asd, _NONNEGATIVE),
                    ("noise.shot", self.shot, _NONNEGATIVE))

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
    _check_keys(("signal_freq_hz", signal_freq_hz, _NONNEGATIVE), ("power_w", power_w, _POSITIVE))
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
    """Experiment run configuration, checked against every rule of its keys,
    each key's own range and every rule that spans keys, however it is built
    (parsed, in code, ``dataclasses.replace``).  The noise keys' ranges are
    ``NoiseSpec``'s."""

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
        def require(holds: bool, message: str, *keys: str) -> None:
            if not holds:
                raise ConfigError(message, keys)

        mode, ls, rate = self.mode, self.l_values, self.sample_rate
        require(mode in ("fit", "spectrum"), f"mode must be 'fit' or 'spectrum', got {mode!r}",
                "mode")
        require(mode != "fit" or len(ls) >= 3, "fit mode needs at least 3 OAM values", "mode", "l")
        require(mode != "spectrum" or (len(ls) == 1 and OAM_L.holds(ls[0])),
                f"spectrum mode takes exactly one OAM value, {OAM_L.text()}", "mode", "l")
        oam = Range(0, OAM_L.hi, integer=True)  # a fit may take l = 0
        require(all(map(oam.holds, ls)), f"OAM values must be {oam.text()}, got {ls}", "l")
        # each OAM value's run writes the files named after it
        require(len(set(ls)) == len(ls), f"'l' must hold distinct OAM values, got {ls}", "l")
        (lo, hi), nyquist = self.band, rate / 2.0
        _check_keys(
            ("power_w", self.power_w, _POSITIVE),
            ("delta_phi_rad", self.delta_phi_rad, FINITE),
            ("signal_freq_hz", self.signal_freq_hz, _NONNEGATIVE),
            ("signal_amp_rad", self.signal_amp_rad, FINITE),
            ("sample_rate", rate, _POSITIVE),
            ("duration_s", self.duration_s, FINITE),
            ("band_lo_hz", lo, _NONNEGATIVE),
            ("band_hi_hz", hi, FINITE),
            *([] if self.seed is None else [("seed", self.seed, SEED)]),
        )
        require(self.noise.silent or self.seed is not None,
                "a seed is required when noise is enabled", "noise.phase_asd", "noise.shot",
                "seed")
        require(round(rate * self.duration_s) >= 1,
                f"duration_s = {self.duration_s} gives no samples", "duration_s", "sample_rate")
        require(lo < hi, f"'band_lo_hz' ({lo}) must be below 'band_hi_hz' ({hi})",
                "band_lo_hz", "band_hi_hz")
        # both modes synthesize a record; only a spectrum run takes a band
        past_nyquist = f"must not exceed the Nyquist frequency 'sample_rate'/2 ({nyquist})"
        require(self.signal_freq_hz <= nyquist,
                f"'signal_freq_hz' ({self.signal_freq_hz}) {past_nyquist}", "signal_freq_hz",
                "sample_rate")
        require(mode == "fit" or hi <= nyquist, f"'band_hi_hz' ({hi}) {past_nyquist}",
                "band_hi_hz", "sample_rate")
        if mode == "spectrum":
            # a sinusoid's alpha sweeps [-|A|, |A|], a constant one is A
            l, amp, offset = ls[0], self.signal_amp_rad, self.delta_phi_rad
            alphas = (-abs(amp), abs(amp)) if self.signal_freq_hz > 0.0 else (amp,)
            phases = [2.0 * l * alpha + offset for alpha in alphas]
            require(all(map(FOLD.holds, phases)), f"the phase 2*l*alpha + delta_phi reaches "
                    f"{max(map(abs, phases))!r}, not below pi/2, so 'signal_amp_rad' ({amp}) "
                    f"cannot be identified at 'l' = {l} and 'delta_phi_rad' = {offset}",
                    "l", "signal_amp_rad", "delta_phi_rad")


def _parse_kv_lines(path) -> dict[str, tuple[str, int]]:
    values: dict[str, tuple[str, int]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {str(path)!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
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


def _oam_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(","))


_REQUIRED = object()

# Every run-config key: its cast from text and its default (_REQUIRED: no
# default).  Ranges are RunConfig's and NoiseSpec's rules.
_CONFIG_TABLE = {
    "mode": (str, _REQUIRED),
    "l": (_oam_list, _REQUIRED),
    "power_w": (float, _REQUIRED),
    "delta_phi_rad": (float, 0.0),
    "signal_freq_hz": (float, _REQUIRED),
    "signal_amp_rad": (float, _REQUIRED),
    "sample_rate": (float, _REQUIRED),
    "duration_s": (float, _REQUIRED),
    "band_lo_hz": (float, DEFAULT_BAND[0]),
    "band_hi_hz": (float, DEFAULT_BAND[1]),
    "noise.phase_asd": (float, 0.0),
    "noise.shot": (float, 0.0),
    "seed": (int, None),
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


def _lines(values, *keys) -> str:
    """The line numbers of those ``keys`` the file sets, comma-separated."""
    return ",".join(str(values[k][1]) for k in keys if k in values)


def parse_run_config(path) -> RunConfig:
    """Parse a flat ``key = value`` run configuration file.

    The keys, their casts and defaults are ``_CONFIG_TABLE``.  Unknown keys,
    unreadable values and broken ``RunConfig`` rules (a key's range among
    them) are errors, reported with the file's lines of the keys concerned.
    """
    values = _parse_kv_lines(path)
    for key, (_, lineno) in values.items():
        if key not in _CONFIG_TABLE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    v = {key: _take(values, path, key, *spec) for key, spec in _CONFIG_TABLE.items()}
    try:
        # the remaining keys are RunConfig field names
        return RunConfig(
            l_values=v.pop("l"),
            noise=NoiseSpec(phase_asd=v.pop("noise.phase_asd"), shot=v.pop("noise.shot")),
            band=(v.pop("band_lo_hz"), v.pop("band_hi_hz")),
            **v,
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}:{_lines(values, *exc.keys)}: {exc}", exc.keys) from None


def calibrated_noise() -> NoiseSpec:
    """The shipped, versioned noise calibration (target: reported l=150 floor)."""
    from importlib import resources  # imported here: its only user, which no command calls

    ref = resources.files("iqpe.data").joinpath("noise_calibration_v1.cfg")
    with resources.as_file(ref) as path:
        values = _parse_kv_lines(path)
        phase_asd = _take(values, path, "noise.phase_asd", float)
        shot = _take(values, path, "noise.shot", float)
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
    # each l is a config of its own, checked before any run
    scans = [replace(cfg, l_values=(int(l),)) for l in l_values]
    results = []
    for i, scan in enumerate(scans):
        run = _run_single(scan, scan.l_values[0], stream_offset=8 * i)
        spectrum = amplitude_spectrum(run.alpha, scan.sample_rate, scan.band)
        results.append((run.l, spectrum.noise_floor))
    return results
