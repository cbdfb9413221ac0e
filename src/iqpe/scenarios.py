"""Concrete metrological scenarios.

Three encodings are covered, each with its characteristic operator:

* Kerr-type phase on a coherent probe (photon-number operator),
* birefringent phase on the polarization sphere (first Stokes operator),
* beam-profile rotation on the modal sphere of fixed-order transverse modes
  (orbital-angular-momentum operator).

The polarization sphere is the order-1 modal sphere, which S1 = 2 J1 reads
along x as Lz = 2 J3 reads the order-N one along z.  Every state of either
sphere map is an SU(2) coherent state, so both maps are the same two closed
forms, written straight into their records; the engine that builds the
states' weights is the tests' oracle, and no command runs it.  So is the
coherent probe's truncated Fock space: the Kerr pair is closed forms too.

Conventions fixed here and inherited everywhere else:

* Polarization basis is (|R>, |L>) with |R> at the north pole.
* The modal basis of order N is ordered by descending OAM value,
  l = N, N-2, ..., -N, so the north-pole mode is the first basis vector
  (mirroring the polarization convention).
* The LG transverse field carries the azimuthal phase exp(-1j*l*phi); all
  derived phase signs follow from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# unused here, but bench/tracer.py wraps qfi's functions and exits 1 unless it is loaded
from . import qfi  # noqa: F401
from .statekit import (
    ContractViolation,
    HermitianOperator,
    PureState,
    Range,
    apply_unitary,
    check_rounding,
    expm_herm_generator,
)

__all__ = [
    "SPHERE_MAP_DTYPE",
    "SpherePoint",
    "ModalLadder",
    "LgFieldSample",
    "birefringence_qfi_map",
    "modal_ladder",
    "hlg_state",
    "rotation_qfi_map",
    "kerr_qfi",
    "kerr_truncation",
    "lg_field",
    "field_rotation_check",
]

MAX_LADDER_ORDER = 300
LADDER_ORDER = Range(0, MAX_LADDER_ORDER, integer=True)

# Largest mean photon number of a coherent probe: the truncation rule then
# keeps about a million Fock levels, which only the tests' oracle builds.  A
# fresh `kerr --nbar 1e6` stays within 4 MiB of a bare `import iqpe.cli`
# (within 0.2 MiB of it on Linux, numpy 2.4.6, one BLAS thread).
MAX_NBAR = 1e6
NBAR = Range(0.0, MAX_NBAR)

# Points per sphere-map grid axis (theta; phi has twice as many).  At the top,
# a map's peak RSS stays within 256 MiB of a bare `import iqpe.cli` (34 MiB):
# fresh `python -m iqpe.cli qfi-map --resolution 1024` runs on Linux, numpy
# 2.4.6 and one BLAS thread, peaked 149 MiB above it at order 0, 217 MiB at
# order 300 (a 159 MB map.csv) and 183 MiB for birefringence (124 MB), each
# holding its 64 MiB of records, filled in place, and its CSV once.
RESOLUTION = Range(2, 1024, integer=True)

# lg_field rejects grids whose boundary intensity exceeds this fraction of
# the peak (aliasing guard for the rotation resampling check).
LG_BOUNDARY_INTENSITY_RATIO = 1e-8

# A sphere map's record per grid point: its angles and the QFI of the
# standard (sqpe) and switched (iqpe) procedures there.
SPHERE_MAP_DTYPE = np.dtype([(name, float) for name in ("theta", "phi", "qfi_sqpe", "qfi_iqpe")])


@dataclass(frozen=True)
class SpherePoint:
    """Euler angles addressing a state on the polarization or modal sphere."""

    theta: float
    phi: float

    def __post_init__(self):
        Range(0.0, math.pi).check("theta", self.theta)
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


@dataclass(frozen=True)
class ModalLadder:
    """su(2) ladder operators of the order-N transverse-mode space.

    Holds the order alone.  j1, j2, j3 are the spin-(N/2) matrices, built on
    access from ``raising_elements()``, on the space spanned by |N, l> with
    l = ``oam_values()`` = N, N-2, ..., -N.  lz = 2*j3 is diag(l).
    """

    order_N: int

    def __post_init__(self):
        LADDER_ORDER.check("order", self.order_N)

    def raising_elements(self) -> np.ndarray:
        """<m+1|J+|m> = sqrt(j(j+1) - m(m+1)) for m = j-1, ..., -j.

        In the descending basis they are the superdiagonal of J+; j1 is
        (J+ + J-)/2 and j2 is (J+ - J-)/(2i).
        """
        j = self.order_N / 2.0
        m = self.oam_values()[1:] / 2.0
        return np.sqrt(j * (j + 1.0) - m * (m + 1.0))

    @property
    def j1(self) -> HermitianOperator:
        half = 0.5 * self.raising_elements()
        return HermitianOperator(np.diag(half, 1) + np.diag(half, -1))

    @property
    def j2(self) -> HermitianOperator:
        half = 0.5j * self.raising_elements()
        return HermitianOperator(np.diag(-half, 1) + np.diag(half, -1))

    @property
    def j3(self) -> HermitianOperator:
        return HermitianOperator(np.diag(self.oam_values() / 2.0))

    @property
    def lz(self) -> HermitianOperator:
        return HermitianOperator(np.diag(self.oam_values()))

    @property
    def dim(self) -> int:
        return self.order_N + 1

    def oam_values(self) -> np.ndarray:
        """OAM value per basis index, descending: N, N-2, ..., -N."""
        return self.order_N - 2 * np.arange(self.order_N + 1)

    def index_of(self, l: int) -> int:
        if (l + self.order_N) % 2 != 0 or abs(l) > self.order_N:
            raise ContractViolation(
                f"l={l} not in the order-{self.order_N} ladder "
                f"(allowed: -N, -N+2, ..., N)"
            )
        return (self.order_N - l) // 2

    def basis_state(self, l: int) -> PureState:
        return PureState.basis_vector(self.dim, self.index_of(l))


@dataclass(frozen=True)
class LgFieldSample:
    """LG transverse field sampled on a square grid, discretely normalized.

    ``grid[iy, ix]`` holds the complex amplitude at (x[ix], y[iy]) with both
    axes running over grid_n points spanning [-extent, extent] in waist units.
    """

    grid: np.ndarray
    extent: float
    p: int
    l: int

    def __post_init__(self):
        grid = np.array(self.grid, dtype=np.complex128, copy=True)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ContractViolation(f"grid must be square, got shape {grid.shape}")
        cell = self.cell_area()
        norm_sq = float(np.sum(np.abs(grid) ** 2) * cell)
        if not abs(norm_sq - 1.0) <= 2e-6:  # NaN fails too
            raise ContractViolation(f"discrete norm^2 {norm_sq!r} is not 1 within 2e-6")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def grid_n(self) -> int:
        return self.grid.shape[0]

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.grid_n)

    def cell_area(self) -> float:
        step = 2.0 * self.extent / (self.grid_n - 1)
        return step * step


def _grid_axes(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's ``resolution`` thetas over [0, pi] (inclusive) and its
    ``2*resolution`` phis over [0, 2*pi)."""
    RESOLUTION.check("resolution", resolution)
    thetas = np.linspace(0.0, math.pi, resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * resolution, endpoint=False)
    return thetas, phis


def _sin_sq(thetas: np.ndarray) -> np.ndarray:
    # math.sin per theta: a vectorised np.sin may round differently by platform
    return np.array([math.sin(theta) ** 2 for theta in thetas])


def _cross_check(label, thetas, phis, closed, engine, scale):
    """Compare closed forms with engine values over a (theta, phi) grid.

    ``closed`` and ``engine`` broadcast together to ``(len(thetas),
    len(phis))`` or to ``(len(thetas), 1)``, one value per theta for every
    phi.  The largest gap (for a value per theta, at the first phi), or a
    non-finite engine value, is held to the rounding of ``scale``.  No map
    calls it: the tests hold the maps to their engine through it, and
    ``bench/tracer.py`` traces it by this name.
    """
    closed, engine = np.broadcast_arrays(closed, engine)
    gap = np.abs(closed - engine)
    worst = np.unravel_index(np.argmax(gap), gap.shape)  # a NaN is the largest
    check_rounding(f"{label} closed form {float(closed[worst])!r} vs engine "
                   f"{float(engine[worst])!r} at theta={thetas[worst[0]]}, "
                   f"phi={phis[worst[1]]}", gap[worst], scale)


def _sphere_records(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """``SPHERE_MAP_DTYPE`` records of a (theta, phi) grid, shape
    ``(len(thetas), len(phis))``, with only the angles filled in."""
    records = np.empty((thetas.size, phis.size), dtype=SPHERE_MAP_DTYPE)
    records["theta"] = thetas[:, None]
    records["phi"] = phis
    return records


def _sphere_map(order_N: int, records: np.ndarray) -> np.ndarray:
    """QFIs of order-N SU(2) coherent states read along an axis a, in place.

    ``records`` come from ``_sphere_records`` holding 1 - (a.n)^2 in
    ``qfi_sqpe`` and (a.n)^2 in ``qfi_iqpe``, and leave, flattened
    theta-major, holding the closed forms 4 N (1 - (a.n)^2) and
    4 N^2 (a.n)^2 + 4 N (1 - (a.n)^2): four times the variance and the
    second moment of the generator 2 J.a, whose eigenvalue N - 2k has
    weight C(N, k) cos^(2(N-k))(beta/2) sin^(2k)(beta/2) at the angle beta
    from a (Arecchi, Courtens, Gilmore & Thomas, PRA 6, 2211 (1972)).
    """
    n = float(order_N)
    across_sq, along_sq = records["qfi_sqpe"], records["qfi_iqpe"]
    across_sq *= 4.0 * n
    along_sq *= 4.0 * n * n
    along_sq += across_sq
    return records.reshape(-1)


def birefringence_qfi_map(grid_resolution: int) -> np.ndarray:
    """QFI of the birefringent phase over the polarization sphere.

    The order-1 sphere read along a = x: a.n = <S1> = sin(theta) cos(phi).
    Closed forms: 4 - 4 sin^2(theta) cos^2(phi) for the standard procedure
    and a flat 4 for the switched one.  Returns ``SPHERE_MAP_DTYPE``
    records, theta-major.
    """
    thetas, phis = _grid_axes(grid_resolution)
    records = _sphere_records(thetas, phis)
    along_sq = records["qfi_iqpe"]
    np.multiply.outer(_sin_sq(thetas), [math.cos(phi) ** 2 for phi in phis], out=along_sq)
    np.subtract(1.0, along_sq, out=records["qfi_sqpe"])
    return _sphere_map(1, records)


def modal_ladder(order_N: int) -> ModalLadder:
    """Angular-momentum matrices of the spin-(N/2) representation."""
    return ModalLadder(order_N)


def hlg_state(ladder: ModalLadder, l: int, pt: SpherePoint) -> PureState:
    """Euler-rotated mode exp(-1j*j3*phi) exp(-1j*j2*theta)|N, l>."""
    start = ladder.basis_state(l)
    tilted = apply_unitary(expm_herm_generator(ladder.j2, pt.theta), start)
    return apply_unitary(expm_herm_generator(ladder.j3, pt.phi), tilted)


def rotation_qfi_map(order_N: int, grid_resolution: int) -> np.ndarray:
    """QFI of the rotation angle over the modal sphere, top-OAM start mode.

    ``hlg_state`` with l = N is the order-N sphere read along a = z, with
    (a.n)^2 = cos^2(theta) = 1 - sin^2(theta) whatever phi.  Closed forms:
    4 N sin^2(theta) and 4 N^2 cos^2(theta) + 4 N sin^2(theta).  Returns
    ``SPHERE_MAP_DTYPE`` records, theta-major.
    """
    LADDER_ORDER.check("order", order_N)
    thetas, phis = _grid_axes(grid_resolution)
    records = _sphere_records(thetas, phis)
    sin_sq = _sin_sq(thetas)[:, None]
    records["qfi_sqpe"] = sin_sq
    np.subtract(1.0, sin_sq, out=records["qfi_iqpe"])
    return _sphere_map(order_N, records)


def kerr_truncation(nbar: float) -> int:
    """Fock levels that hold a coherent probe of mean photon number nbar:
    ``kerr.json``'s ``truncation``, and the support of the tests' Fock-space
    oracle.

    The smallest T at which the Chernoff bound on the dropped tail,
    P(n >= T) <= e^-nbar (e nbar / T)^T, times T^2 is at most 2^-53 nbar.
    T^2 stands for n^2 at the cut, so what the dropped levels take from
    Var n and <n^2> stays at the rounding level of the untruncated QFIs.
    """
    NBAR.check("mean photon number", nbar)
    if nbar == 0.0:
        return 1
    limit = math.log(nbar) - 53.0 * math.log(2.0)
    # the bound holds only above the mean, where (1+u)ln(1+u) - u <= u^2/2 and 2 ln T
    # >= 2 ln nbar: no T nearer nbar than sqrt(2 nbar (ln nbar + 53 ln 2)) meets it
    reach = math.sqrt(max(2.0 * nbar * (math.log(nbar) + 53.0 * math.log(2.0)), 0.0))
    size = max(math.floor(nbar) + 1, math.floor(nbar + reach) - 1)
    while size * math.log(math.e * nbar / size) - nbar + 2.0 * math.log(size) > limit:
        size += 1
    return size


def kerr_qfi(nbar: float) -> tuple[float, float]:
    """QFI pair (standard, switched) for a Kerr-type phase on a coherent probe.

    The generator is the photon number, Poisson-distributed with mean nbar
    on a coherent state (Glauber, Phys. Rev. 131, 2766 (1963)), so the pair
    is 4 Var n = 4 nbar and 4 <n^2> = 4 nbar^2 + 4 nbar.  Each is taken from
    nbar's exact ratio p/q by one integer division, which rounds correctly:
    no level of the Fock space is built, and -0.0 gives 0.0.
    """
    NBAR.check("mean photon number", nbar)
    p, q = float(nbar).as_integer_ratio()
    return 4 * p / q, 4 * p * (p + q) / (q * q)


def lg_field(p: int, l: int, grid_n: int, extent: float) -> LgFieldSample:
    """Sample the focal-plane LG transverse field on a square grid.

    Radial index p, topological charge l; azimuthal phase exp(-1j*l*phi).
    Lengths are in waist units (w = 1).  The printed normalization prefactor
    is applied and then superseded by exact discrete normalization.
    """
    from scipy.special import eval_genlaguerre, gammaln  # imported here: slow to import

    Range(64, integer=True).check("grid_n", grid_n)
    Range(0, integer=True).check("radial index", p)
    Range(4.0).check("extent (waists)", extent)
    axis = np.linspace(-extent, extent, grid_n)
    x, y = np.meshgrid(axis, axis)
    r_sq = x * x + y * y
    phi = np.arctan2(y, x)
    al = abs(l)
    log_prefactor = 0.5 * (
        (al + 1.0) * math.log(2.0)
        + gammaln(p + 1.0)
        - math.log(math.pi)
        - gammaln(p + al + 1.0)
    )
    radial = (
        math.exp(log_prefactor)
        * eval_genlaguerre(p, al, 2.0 * r_sq)
        * np.sqrt(r_sq) ** al
        * np.exp(-r_sq)
    )
    field = radial * np.exp(-1j * l * phi)
    peak = float(np.max(np.abs(field) ** 2))
    boundary = float(
        max(
            np.max(np.abs(field[0, :]) ** 2),
            np.max(np.abs(field[-1, :]) ** 2),
            np.max(np.abs(field[:, 0]) ** 2),
            np.max(np.abs(field[:, -1]) ** 2),
        )
    )
    if boundary > LG_BOUNDARY_INTENSITY_RATIO * peak:
        raise ContractViolation(
            f"extent {extent} too small for p={p}, l={l}: boundary intensity "
            f"{boundary / peak:.3e} of peak exceeds {LG_BOUNDARY_INTENSITY_RATIO}"
        )
    step = 2.0 * extent / (grid_n - 1)
    norm = math.sqrt(float(np.sum(np.abs(field) ** 2)) * step * step)
    return LgFieldSample(field / norm, extent, p, l)


def rotate_field(field: LgFieldSample, alpha: float) -> np.ndarray:
    """Rotate the sampled profile by alpha via bilinear resampling.

    The rotated field samples the original at azimuth (phi - alpha); points
    resampled from outside the grid are zero-padded.
    """
    from scipy import ndimage  # imported here: its only user, and slow to import

    n = field.grid_n
    center = (n - 1) / 2.0
    step = 2.0 * field.extent / (n - 1)
    idx = np.arange(n)
    col, row = np.meshgrid(idx, idx)
    x = (col - center) * step
    y = (row - center) * step
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    x_src = cos_a * x + sin_a * y
    y_src = -sin_a * x + cos_a * y
    coords = np.stack([y_src / step + center, x_src / step + center])
    real = ndimage.map_coordinates(field.grid.real, coords, order=1, mode="constant", cval=0.0)
    imag = ndimage.map_coordinates(field.grid.imag, coords, order=1, mode="constant", cval=0.0)
    return real + 1j * imag


def field_rotation_check(field: LgFieldSample, alpha: float) -> complex:
    """Overlap <rotated|original> of a p=0 LG sample with its rotated copy.

    For a pure charge-l mode the overlap is exp(-1j*l*alpha) up to resampling
    error (modulus within 5e-3 of 1, phase within 5e-3 rad).
    """
    if field.p != 0:
        raise ContractViolation("rotation check requires a pure p=0 LG field")
    rotated = rotate_field(field, alpha)
    return complex(np.sum(rotated.conj() * field.grid) * field.cell_area())
