"""Concrete metrological scenarios.

Three encodings are covered, each with its characteristic operator:

* Kerr-type phase on a truncated Fock space (photon-number operator),
* birefringent phase on the polarization sphere (first Stokes operator),
* beam-profile rotation on the modal sphere of fixed-order transverse modes
  (orbital-angular-momentum operator).

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

from .qfi import qfi_batch, qfi_dense
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
    "stokes_operators",
    "polarization_state",
    "birefringence_qfi_map",
    "modal_ladder",
    "hlg_state",
    "rotation_qfi_map",
    "kerr_qfi",
    "coherent_state",
    "kerr_truncation",
    "lg_field",
    "field_rotation_check",
]

MAX_LADDER_ORDER = 300
LADDER_ORDER = Range(0, MAX_LADDER_ORDER, integer=True)

# Largest mean photon number of a coherent probe: its Fock space then holds
# about a million levels.
MAX_NBAR = 1e6
NBAR = Range(0.0, MAX_NBAR)

# Points per sphere-map grid axis (theta; phi has twice as many).
RESOLUTION = Range(2, integer=True)

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


def stokes_operators() -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """The three Stokes operators as Pauli matrices in the (|R>, |L>) basis."""
    s1 = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=np.complex128))
    s2 = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
    s3 = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=np.complex128))
    return s1, s2, s3


def polarization_state(pt: SpherePoint) -> PureState:
    """cos(theta/2)|R> + sin(theta/2) e^{i phi}|L> (global phase dropped)."""
    half = pt.theta / 2.0
    amps = np.array([math.cos(half), math.sin(half) * np.exp(1j * pt.phi)])
    return PureState(amps)


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
    non-finite engine value, is held to the rounding of ``scale``.
    """
    closed, engine = np.broadcast_arrays(closed, engine)
    gap = np.abs(closed - engine)
    worst = np.unravel_index(np.argmax(gap), gap.shape)  # a NaN is the largest
    check_rounding(f"{label} closed form {float(closed[worst])!r} vs engine "
                   f"{float(engine[worst])!r} at theta={thetas[worst[0]]}, "
                   f"phi={phis[worst[1]]}", gap[worst], scale)


def _check_normalized(block: np.ndarray, label: str) -> None:
    """Every row of a complex ``(points, d)`` block has norm 1, to the rounding of d."""
    parts = np.ascontiguousarray(block).view(np.float64)
    norms = np.sqrt(np.einsum("pk,pk->p", parts, parts))
    check_rounding(f"{label} norm", np.max(np.abs(norms - 1.0)), block.shape[1])


def _sphere_map(label, thetas, phis, closed, engine, scale) -> np.ndarray:
    """Cross-check the (standard, switched) ``closed`` forms against their
    ``engine`` arrays to the rounding of ``scale``, then the map: a
    ``SPHERE_MAP_DTYPE`` record per grid point, theta-major."""
    _cross_check(f"{label} standard QFI", thetas, phis, closed[0], engine[0], scale)
    _cross_check(f"{label} switched QFI", thetas, phis, closed[1], engine[1], scale)
    records = np.empty((thetas.size, phis.size), dtype=SPHERE_MAP_DTYPE)
    records["theta"] = thetas[:, None]
    records["phi"] = phis
    records["qfi_sqpe"] = closed[0]
    records["qfi_iqpe"] = closed[1]
    return records.reshape(-1)


def birefringence_qfi_map(grid_resolution: int) -> np.ndarray:
    """QFI of the birefringent phase over the polarization sphere.

    Closed forms: 4 - 4 sin^2(theta) cos^2(phi) for the standard procedure
    and a flat 4 for the switched one.  Every grid point is cross-checked
    against the generic engine, to the rounding of d * 4 max|lam|^2 = 8.
    Returns ``SPHERE_MAP_DTYPE`` records, theta-major.
    """
    s1, _, _ = stokes_operators()
    thetas, phis = _grid_axes(grid_resolution)
    cos_sq = np.array([math.cos(phi) ** 2 for phi in phis])
    closed_s = 4.0 - 4.0 * _sin_sq(thetas)[:, None] * cos_sq
    # cos(theta/2)|R> + sin(theta/2) e^{i phi}|L> at every grid point
    half = thetas / 2.0
    states = np.empty((thetas.size, phis.size, 2), dtype=np.complex128)
    states[..., 0] = np.cos(half)[:, None]
    states[..., 1] = np.sin(half)[:, None] * np.exp(1j * phis)
    block = states.reshape(-1, 2)
    _check_normalized(block, "polarization state")
    engine_s, engine_i = qfi_dense(block, s1)
    shape = closed_s.shape
    return _sphere_map("birefringence", thetas, phis, (closed_s, 4.0),
                       (engine_s.reshape(shape), engine_i.reshape(shape)), 8.0)


def modal_ladder(order_N: int) -> ModalLadder:
    """Angular-momentum matrices of the spin-(N/2) representation."""
    return ModalLadder(order_N)


def hlg_state(ladder: ModalLadder, l: int, pt: SpherePoint) -> PureState:
    """Euler-rotated mode exp(-1j*j3*phi) exp(-1j*j2*theta)|N, l>."""
    start = ladder.basis_state(l)
    tilted = apply_unitary(expm_herm_generator(ladder.j2, pt.theta), start)
    return apply_unitary(expm_herm_generator(ladder.j3, pt.phi), tilted)


def _parity_eigenpairs(size: int, off: np.ndarray, last: float):
    """Eigenpairs of one parity block of j1: real, symmetric, tridiagonal,
    with off-diagonal ``off`` and a diagonal that is zero but for ``last`` at
    its end.  Returns the eigenvalues, the column eigenvectors Y, the worst
    eigenpair residual and ||Y^T Y - I||_F."""
    block = np.zeros((size, size))
    block.flat[1 :: size + 1] = block.flat[size :: size + 1] = off
    block.flat[-1:] = last
    lam, y = np.linalg.eigh(block)
    del block
    residual = y * lam  # y lam - block y, from the block's three diagonals
    residual[:-1] -= off[:, None] * y[1:]
    residual[1:] -= off[:, None] * y[:-1]
    residual[-1:] -= last * y[-1:]
    worst = float(np.max(np.abs(residual), initial=0.0))
    del residual
    gram = y.T @ y
    gram.flat[:: size + 1] -= 1.0
    return lam, y, worst, float(np.linalg.norm(gram))


def _tilted_modes(ladder: ModalLadder, l: int, thetas: np.ndarray) -> np.ndarray:
    """exp(-1j*j2*theta)|N, l> for every theta, one row each.

    j1 is real, symmetric and tridiagonal, and j2 = D j1 D^dag with
    D = diag(i^k), so j1's real eigendecomposition j1 = V diag(lam) V^T
    serves: the tilted mode is D V (e^{-i lam theta} o V^T D^dag |N, l>).
    j1's off-diagonal is a palindrome, so j1 commutes with the exchange
    k <-> N-k, and V is block diagonal in the basis of pair vectors
    (e_k +- e_(N-k))/sqrt(2), k < (N+1)//2, plus the middle e_(N/2) of an
    even N (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).  So
    two float64 eigh of half size, one per parity, give V, and no
    (N+1)^2 array is formed.  As in ``herm_eig``, the eigenpair residual is
    held to the rounding of ||j1||_F * d and ||V^T V - I||_F to that of d;
    the blocks' Frobenius norms add in quadrature to j1's and V's.
    """
    n, start = ladder.dim, ladder.index_of(l)
    half = 0.5 * ladder.raising_elements()
    pairs = n // 2  # row k < pairs mirrors row N - k; an odd n has a middle row
    if n % 2:
        # the middle row meets the pair (mid - 1, mid + 1) through both of its
        # off-diagonals, sqrt(2) h in the symmetric block
        link = half[:pairs].copy()
        link[-1:] *= math.sqrt(2.0)
        blocks = ((pairs + 1, link, 0.0), (pairs, half[: pairs - 1], 0.0))
    else:
        # the two middle rows meet each other: +h or -h on the pair's diagonal
        mid = float(half[pairs - 1])
        blocks = ((pairs, half[: pairs - 1], mid), (pairs, half[: pairs - 1], -mid))
    (lam_s, y_s, worst_s, drift_s), (lam_a, y_a, worst_a, drift_a) = (
        _parity_eigenpairs(*block) for block in blocks
    )
    norm = math.hypot(np.linalg.norm(lam_s), np.linalg.norm(lam_a))
    check_rounding("eigenpairs of j1's parity blocks", max(worst_s, worst_a), norm * n)
    check_rounding("||V^T V - I||_F of j1's parity blocks", math.hypot(drift_s, drift_a), n)

    def evolve(lam, y, weights):
        # V stays real (no complex copy of it)
        phased = np.exp(-1j * np.outer(thetas, lam)) * weights
        return phased.real @ y.T + 1j * (phased.imag @ y.T)

    # D^dag |N, l> = (-i)^start |start>, and |start> is a pair vector sum or
    # difference over sqrt(2), or the middle vector; the sqrt(2)s go in ``scale``
    row = min(start, n - 1 - start)
    sym = evolve(lam_s, y_s, y_s[row])
    anti = 0.0  # the middle vector has no antisymmetric part
    if row < pairs:
        anti = evolve(lam_a, y_a, y_a[row] if start == row else -y_a[row])
    tilted = np.empty((thetas.size, n), dtype=np.complex128)
    tilted[:, : sym.shape[1]] = sym
    tilted[:, :pairs] += anti
    tilted[:, n - pairs :] = (sym[:, :pairs] - anti)[:, ::-1]
    # a pair column and a pair start row each carry 1/sqrt(2)
    paired, middle = (0.5, math.sqrt(0.5)) if row < pairs else (math.sqrt(0.5), 1.0)
    scale = np.full(n, paired)
    scale[pairs : n - pairs] = middle
    # 1j ** k is exact for k in 0..3
    return tilted * (scale * 1j ** ((np.arange(n) - start) % 4))


def _rotation_engine(ladder: ModalLadder, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Engine QFIs of the top-OAM mode rotated to every (theta, phi) point.

    The states are those of ``hlg_state``: the tilted start modes of
    ``_tilted_modes``, then the phi rotation exp(-1j*j3*phi).  That rotation
    is a diagonal unit-modulus phase in the Lz eigenbasis, so neither a
    state's norm nor its weights |psi_k|^2 depend on phi: one kernel row
    per theta holds for every phi.  Returns two ``(len(thetas), 1)`` arrays,
    which broadcast over any phis.
    """
    tilted = _tilted_modes(ladder, ladder.order_N, thetas)
    _check_normalized(tilted, "rotated mode")
    engine_s, engine_i = qfi_batch(tilted, ladder.oam_values().astype(float))
    return engine_s[:, None], engine_i[:, None]


def rotation_qfi_map(order_N: int, grid_resolution: int) -> np.ndarray:
    """QFI of the rotation angle over the modal sphere, top-OAM start mode.

    Closed forms for the l=N start state: 4 N sin^2(theta) and
    4 N^2 cos^2(theta) + 4 N sin^2(theta).  Neither depends on phi, nor does
    the matrix engine's value, which is cross-checked against them once per
    theta to the rounding of d * 4 max|lam|^2 = 4 N^2 (N + 1).  Returns
    ``SPHERE_MAP_DTYPE`` records, theta-major.  Other start modes have no
    closed form here; use the engine directly for those.
    """
    ladder = modal_ladder(order_N)
    thetas, phis = _grid_axes(grid_resolution)
    n = float(order_N)
    sin_sq = _sin_sq(thetas)[:, None]
    closed_s = 4.0 * n * sin_sq
    closed_i = 4.0 * n * n * (1.0 - sin_sq) + 4.0 * n * sin_sq
    engine = _rotation_engine(ladder, thetas)
    return _sphere_map("rotation", thetas, phis, (closed_s, closed_i), engine,
                       4.0 * n * n * (n + 1.0))


def kerr_truncation(nbar: float) -> int:
    """Fock levels that hold a coherent probe of mean photon number nbar.

    The smallest T at which the Chernoff bound on the dropped tail,
    P(n >= T) <= e^-nbar (e nbar / T)^T, times T^2 is at most 2^-53 nbar.
    T^2 stands for n^2 at the cut, so what the dropped levels take from
    Var n and <n^2> stays at the rounding level of the untruncated QFIs.
    """
    NBAR.check("mean photon number", nbar)
    if nbar == 0.0:
        return 1
    limit = math.log(nbar) - 53.0 * math.log(2.0)
    size = math.floor(nbar) + 1  # the bound holds only above the mean
    while size * math.log(math.e * nbar / size) - nbar + 2.0 * math.log(size) > limit:
        size += 1
    return size


def coherent_state(nbar: float) -> PureState:
    """Coherent state on the ``kerr_truncation(nbar)`` lowest Fock levels.

    The amplitude phase is irrelevant for number statistics, so the
    amplitudes are taken real and positive.
    """
    size = kerr_truncation(nbar)
    # log-domain Poisson weights relative to the mode m = floor(nbar):
    # log(p_k / p_m) sums log(nbar / j) over the levels j between them, so
    # no term is near nbar * log(nbar) and no digits cancel
    mode = math.floor(nbar)
    steps = np.log(nbar / np.arange(1.0, size))  # log(p_j / p_(j-1)), j = 1..size-1
    log_p = np.zeros(size)
    log_p[mode + 1 :] = np.cumsum(steps[mode:])
    log_p[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    return PureState.normalized(np.exp(0.5 * log_p))


def kerr_qfi(nbar: float) -> tuple[float, float]:
    """QFI pair (standard, switched) for a Kerr-type phase on a coherent probe.

    Expected values 4*nbar and 4*nbar^2 + 4*nbar, within 1e-12 relative
    over the whole range [0, MAX_NBAR].
    """
    probe = coherent_state(nbar)
    # the Fock basis is the photon-number eigenbasis, with spectrum 0, 1, 2, ...
    sqpe, iqpe = qfi_batch(probe.amplitudes[None, :], np.arange(probe.dim, dtype=float))
    return float(sqpe[0]), float(iqpe[0])


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
