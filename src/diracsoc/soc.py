"""Stochastic layer: optimal control, HJB residuals, and the complex SDE.

The equation of motion is  dz_mu = w_mu ds + sigma_mu dW_mu  with real,
independent Wiener increments dW_mu; all complexity enters through the
complex diffusion amplitudes sigma_mu and the complex control w.  Real
and imaginary parts of each increment are therefore exactly
(anti-)correlated, with the sign pattern set by the charge-sign branch
epsilon.

Every simulated control is constant in z (zero, a configured constant,
the plane-wave optimal control and the battery drift), so a control is
one complex four-vector and an Euler step is  z + w ds + sigma sqrt(ds) xi.

Positions and controls are stored as lower-index components, matching
the equation of motion; coordinates z^mu are recovered by metric raising
where a potential has to be evaluated.

Randomness: every Euler step owns a counter-based substream (Philox
key = seed, counter word 2 = absolute step index), and path p takes
normals 4p..4p+3 of it, in component order.  Ensembles are therefore
bit-reproducible for a fixed seed, and a path's noise depends neither on
how many paths run beside it nor on how the steps are grouped.  One bit
generator serves all steps: moving to step s resets its counter to
[0, 0, s, 0] with an empty buffer, which gives the same substreams as a
fresh generator per step without constructing one.  ``EulerStream`` draws
the noise inside its Euler loop, a bounded chunk of steps at a time.

Streaming: ``EulerStream`` is the one Euler loop.  It yields each step's
(n_paths, 4) positions and keeps the blow-up flags, so a statistic that
needs only end points or step-to-step comparisons runs in O(n_paths)
memory, whatever the number of steps.  It advances one noise chunk at a
time: one multiply gives the chunk's increments, the positions follow row
by row in the per-step order (z + w ds) + increment, and one finite sum of
the chunk's last row clears every position in it, since a non-finite entry
stays non-finite under later additions.  A chunk whose sum is not finite,
or that starts with paths already frozen, is redone one step at a time
from its start, with the per-path check that flags and freezes each
blow-up at its step; positions and flags are the same either way.
``simulate`` collects a stream into stored (n_paths, steps+1, 4) paths.
In the simulate suite the generator battery, the straight line, the
variance law and the configured ensemble read end states or final flags,
the bitwise reproducibility check runs two streams in lockstep, and the
Re/Im correlation check takes steps 0 and 1 of the first of them.  Only
the action check (``accumulate_action`` needs every position) stores
paths, and with ``simulate.dump_paths`` the configured ensemble keeps the
dumped paths, at most ``simulate.dump_max_paths`` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import DIRAC, METRIC_DIAG, ArrayC, as_four_vector
from .constants import PhysicalConstants
from .emfield import Polynomial, PotentialSpec, evaluate_potential, field_strength
from .grid import Field, dalembertian, partial_or_zero


class SocError(ValueError):
    pass


class HopfColeError(SocError):
    pass


# -- optimal control ---------------------------------------------------------

@dataclass(frozen=True)
class ControlField:
    """Constant control policy: the complex four-velocity w_mu at every position.

    ``w`` holds the four lower-index components as a read-only array.
    """

    w: ArrayC
    label: str

    def __post_init__(self) -> None:
        w = np.array(as_four_vector(self.w))
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


def constant_control(w, label: str = "constant") -> ControlField:
    return ControlField(w, label)


def zero_control() -> ControlField:
    return constant_control(np.zeros(4), "zero")


def optimal_control_mode(k, consts: PhysicalConstants, A_const=None) -> ControlField:
    """Control of a plane-wave log-amplitude: w_mu = eps/m (hbar k_mu - e A_mu).

    This is the closed form obtained from d_mu(-i k.z) = -i k_mu; the
    optional constant potential shifts every component uniformly.
    """
    k = as_four_vector(k)
    a = np.zeros(4, dtype=np.complex128) if A_const is None else as_four_vector(A_const)
    w = (consts.epsilon / consts.m) * (consts.hbar * k - consts.e * a)
    return constant_control(w, label="plane_wave_mode")


def optimal_control(jtilde: Field, A: PotentialSpec, consts: PhysicalConstants,
                    backend: str = "spectral") -> np.ndarray:
    """w_mu = (eps/m)(i hbar d_mu Jtilde - e A_mu) sampled on the grid.

    Returns the four control components stacked along the first axis.
    """
    if jtilde.is_spinor:
        raise SocError("the log-amplitude must be a scalar field")
    Av = evaluate_potential(A, jtilde.grid.coords4())
    w = np.empty((4,) + jtilde.grid.shape, dtype=np.complex128)
    for mu in range(4):
        dj = partial_or_zero(jtilde, mu, backend).values
        w[mu] = (consts.epsilon / consts.m) * (1j * consts.hbar * dj - consts.e * Av[mu])
    if not np.all(np.isfinite(w.view(np.float64))):
        raise SocError("control field has non-finite entries (bad gradient?)")
    return w


def weak_condition_residual(w, consts: PhysicalConstants):
    """w_mu w^mu - c^2; zero for controls derived from on-shell modes."""
    if isinstance(w, ControlField):
        w = w.w
    w = np.asarray(w, dtype=np.complex128)
    if w.shape[0] != 4:
        raise SocError("control components must be stacked along the first axis")
    eta = METRIC_DIAG.reshape((4,) + (1,) * (w.ndim - 1))
    res = np.sum(eta * w * w, axis=0) - consts.c ** 2
    return complex(res) if np.ndim(res) == 0 else res


# -- HJB residual and Hopf-Cole identity -------------------------------------

def hjb_residual_mode(k, consts: PhysicalConstants, A_const=None) -> complex:
    """Stationary HJB residual of the plane-wave log-amplitude -i k.z.

    LHS - RHS with LHS = 0; for A = 0 this equals -Delta, the negated
    on-shell gap.
    """
    k = as_four_vector(k)
    a = np.zeros(4, dtype=np.complex128) if A_const is None else as_four_vector(A_const)
    grad = consts.hbar * k - consts.e * a  # i hbar (-i k_mu) - e A_mu
    quad = complex(np.sum(METRIC_DIAG * grad * grad))
    rhs = -consts.mass_shell + quad
    return -rhs


def hjb_residual(jtilde: Field, A: PotentialSpec, consts: PhysicalConstants,
                 tau_derivative: Field | None = None, backend: str = "spectral",
                 spin_scalar=0.0) -> Field:
    """LHS - RHS of the scalar HJB equation on the grid.

    LHS = -i eps hbar m dtau_J (zero when no proper-time derivative is
    supplied); RHS = -m^2c^2 - hbar^2 d^mu d_mu J - spin_scalar
    + (i hbar d^mu J - e A^mu)(i hbar d_mu J - e A_mu).

    The spin coupling is a 4x4 matrix in general; for a scalar
    log-amplitude the caller must supply its scalar restriction (an
    eigenvalue, or zero when the field strength vanishes).
    """
    if jtilde.is_spinor:
        raise SocError("the log-amplitude must be a scalar field")
    if isinstance(spin_scalar, Field):
        spin_scalar = spin_scalar.values
    Av = evaluate_potential(A, jtilde.grid.coords4())
    quad = np.zeros(jtilde.grid.shape, dtype=np.complex128)
    for mu in range(4):
        g = 1j * consts.hbar * partial_or_zero(jtilde, mu, backend).values - consts.e * Av[mu]
        quad += METRIC_DIAG[mu] * g * g
    rhs = (-consts.mass_shell
           - consts.hbar ** 2 * dalembertian(jtilde, backend).values
           - np.asarray(spin_scalar)
           + quad)
    lhs = np.zeros_like(rhs)
    if tau_derivative is not None:
        lhs = -1j * consts.epsilon * consts.hbar * consts.m * tau_derivative.values
    return Field(jtilde.grid, lhs - rhs)


def hopf_cole_check(phi: Field, backend: str = "spectral",
                    floor_rel: float = 1e-8) -> float:
    """Max |(dJ)^2 + ddJ - ddphi/phi| over the grid, with J = log phi.

    Both sides are computed through genuinely different routes: the left
    through derivatives of the pointwise logarithm, the right through
    derivatives of phi itself.  phi must be bounded away from zero.
    """
    if phi.is_spinor:
        raise HopfColeError("the Hopf-Cole check takes a scalar field")
    mag = np.abs(phi.values)
    floor = floor_rel * float(mag.max())
    if float(mag.min()) < floor:
        idx = np.unravel_index(int(np.argmin(mag)), mag.shape)
        point = tuple(float(phi.grid.axis(mu)[idx[mu]]) for mu in range(phi.grid.dims))
        raise HopfColeError(
            f"|phi| = {mag.min():.3e} < {floor:.3e} near grid point {point}; "
            "the logarithm is ill-conditioned there")
    jt = Field(phi.grid, np.log(phi.values))
    lhs = dalembertian(jt, backend).values.copy()
    for mu in range(phi.grid.dims):
        dj = partial_or_zero(jt, mu, backend).values
        lhs += METRIC_DIAG[mu] * dj * dj
    rhs = dalembertian(phi, backend).values / phi.values
    return float(np.abs(lhs - rhs).max())


def hopf_cole_exponential_error(a: complex, points=None, h: float = 5e-3) -> float:
    """The identity error for phi = exp(a z^1), by local finite differences.

    Both routes use 4th-order central stencils at isolated points, so no
    periodicity is needed; the exact value of both sides is -a^2.
    """
    a = complex(a)
    if points is None:
        points = np.linspace(-1.0, 1.0, 9)
    pts = np.asarray(points, dtype=np.complex128)
    if np.abs(a.imag * (np.abs(pts) + 2 * h)).max() >= np.pi:
        raise HopfColeError("sample points wind past the logarithm branch cut")
    offsets = h * np.array([-2, -1, 0, 1, 2])
    stencil1 = np.array([1, -8, 0, 8, -1]) / (12 * h)
    stencil2 = np.array([-1, 16, -30, 16, -1]) / (12 * h * h)
    worst = 0.0
    for z in pts:
        phi = np.exp(a * (z + offsets))
        jt = np.log(phi)
        d1j = np.dot(stencil1, jt)
        d2j = np.dot(stencil2, jt)
        d2p = np.dot(stencil2, phi)
        lhs = METRIC_DIAG[1] * (d1j * d1j + d2j)
        rhs = METRIC_DIAG[1] * d2p / phi[2]
        worst = max(worst, abs(lhs - rhs))
    return worst


# -- diffusion coefficients and the SDE --------------------------------------

@dataclass(frozen=True)
class DiffusionCoefficients:
    """Complex diffusion amplitudes with their exact squares.

    sigma_mu = sqrt(hbar/m) (1 + i eps) x (1 for mu=0, i otherwise), the
    principal-branch choice; the squares satisfy
    sigma_mu^2 = 2 i eps eta^{mumu} hbar / m.
    """

    sigma: ArrayC
    squares: ArrayC

    def __post_init__(self) -> None:
        for name in ("sigma", "squares"):
            v = np.asarray(getattr(self, name), dtype=np.complex128).reshape(4)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def make_diffusion(consts: PhysicalConstants) -> DiffusionCoefficients:
    root = math.sqrt(consts.hbar / consts.m)
    rho = root * (1.0 + 1j * consts.epsilon)  # sqrt(2 hbar/m) exp(i eps pi/4)
    sigma = np.array([rho, 1j * rho, 1j * rho, 1j * rho])
    squares = 2j * consts.epsilon * (consts.hbar / consts.m) * METRIC_DIAG.astype(np.complex128)
    return DiffusionCoefficients(sigma, squares)


def zero_diffusion() -> DiffusionCoefficients:
    """Diffusion disabled; the recursion degenerates to straight lines."""
    z = np.zeros(4, dtype=np.complex128)
    return DiffusionCoefficients(z, z)


@dataclass(frozen=True)
class EnsembleParams:
    n_paths: int
    steps: int
    ds: float
    z0: ArrayC = field(default_factory=lambda: np.zeros(4, dtype=np.complex128))

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.steps < 1:
            raise SocError("need n_paths >= 1 and steps >= 1")
        if not 0 < self.ds < math.inf:
            raise SocError(f"step size must be positive and finite, got {self.ds}")
        object.__setattr__(self, "z0", as_four_vector(self.z0))


@dataclass
class TrajectoryEnsemble:
    """Paths of the complex diffusion under the constant control w, lower-index positions."""

    paths: ArrayC            # (n_paths, steps+1, 4)
    w: ArrayC                # the control four-vector
    ds: float
    truncated: np.ndarray    # per-path blow-up flag
    first_bad_step: np.ndarray  # step index of the blow-up, -1 if clean

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def steps(self) -> int:
        return self.paths.shape[1] - 1


# path-steps of noise drawn per _path_noise call inside the Euler loop; EulerStream
# advances a chunk at a time, so its complex block stays at 16 B x 4 x NOISE_CHUNK
# = 0.5 MB (or one step when n_paths is larger).  The noise is keyed by step, so
# the chunk size changes no position.
NOISE_CHUNK = 1 << 13


def _path_noise(seed: int, n_paths: int, steps: int, start: int = 0) -> np.ndarray:
    """Real N(0,1) increments of shape (n_paths, steps, 4) for steps start, start+1, ...

    Step s draws from Philox(key=seed, counter=[0, 0, s, 0]) and path p takes
    its normals 4p..4p+3: the one bit generator is reset to the state a fresh
    generator at that counter has, and fills one (n_paths, 4) block per step.
    """
    xi = np.empty((steps, n_paths, 4))
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, buffer_pos 4, has_uint32 0, uinteger 0
    counter = state["state"]["counter"]
    for s in range(steps):
        counter[2] = start + s
        bitgen.state = state
        gen.standard_normal(out=xi[s])
    return xi.transpose(1, 0, 2)


class EulerStream:
    """The forward Euler recursion z' = z + w ds + sigma sqrt(ds) xi, one step at a time.

    Iterating yields the (n_paths, 4) position array at s = 0..steps; no
    yielded array is written again.  ``truncated`` and ``first_bad_step``
    are up to date at every yield: paths whose positions stop being finite are
    frozen at their last finite value and flagged.  The noise is drawn inside
    the loop, at most max(n_paths, NOISE_CHUNK) path-steps at a time, and the
    positions of a chunk are computed together, with one finiteness check, as
    rows of one block; a chunk that fails the check, or starts with frozen
    paths, is recomputed one step at a time.  A stream holds O(n_paths)
    memory whatever its length.  Each iteration restarts the recursion from
    z0.
    """

    def __init__(self, params: EnsembleParams, w: ControlField, consts: PhysicalConstants,
                 seed: int, diffusion: DiffusionCoefficients | None = None) -> None:
        self.params, self.w, self.seed = params, w, seed
        self.diffusion = diffusion if diffusion is not None else make_diffusion(consts)
        self.truncated = np.zeros(params.n_paths, dtype=bool)
        self.first_bad_step = np.full(params.n_paths, -1, dtype=np.int64)

    def __iter__(self):
        n, steps, ds = self.params.n_paths, self.params.steps, self.params.ds
        chunk = max(1, NOISE_CHUNK // n)
        with np.errstate(over="ignore", invalid="ignore"):  # flagged by the first step
            drift = self.w.w * ds
            amp = self.diffusion.sigma * math.sqrt(ds)
        truncated, first_bad = self.truncated, self.first_bad_step
        truncated[:] = False
        first_bad[:] = -1

        z = np.broadcast_to(self.params.z0, (n, 4)).copy()
        yield z
        for start in range(0, steps, chunk):
            xi = _path_noise(self.seed, n, min(chunk, steps - start), start=start)
            if not truncated.any():
                # the whole chunk, row by row in the per-step order (z + drift) + amp xi.
                # A non-finite entry stays non-finite under every later addition, so a
                # finite sum of the last row shows that every position in the chunk is
                # finite.  Error states are entered per chunk and never held across a
                # yield, where they would leak to the caller.
                with np.errstate(over="ignore", invalid="ignore"):
                    block = amp * xi.transpose(1, 0, 2)  # (m, n, 4), never written after
                    prev = z
                    for row in block:
                        np.add(prev + drift, row, out=row)
                        prev = row
                    clean = np.isfinite(block[-1].sum())
                if clean:
                    yield from block
                    z = block[-1]
                    continue
            # a blow-up, a sum that overflows, or paths already frozen: redo the chunk
            # from its start one step at a time, flagging and freezing at the exact step
            for k in range(xi.shape[1]):
                with np.errstate(over="ignore", invalid="ignore"):  # flagged below
                    z_new = z + drift + amp * xi[:, k]
                bad = ~np.isfinite(z_new.view(np.float64)).reshape(n, 8).all(axis=1)
                if bad.any():
                    first_bad[bad & ~truncated] = start + k
                    truncated |= bad
                if truncated.any():
                    z_new[truncated] = z[truncated]  # freeze blown-up paths
                z = z_new
                yield z

    def end_state(self) -> np.ndarray:
        """Run the recursion through its last step and return the positions there."""
        for z in self:
            pass
        return z


def simulate(params: EnsembleParams, w: ControlField, consts: PhysicalConstants, seed: int,
             diffusion: DiffusionCoefficients | None = None) -> TrajectoryEnsemble:
    """Every position of an ``EulerStream``, stored as (n_paths, steps+1, 4) paths."""
    stream = EulerStream(params, w, consts, seed, diffusion)
    paths = np.empty((params.n_paths, params.steps + 1, 4), dtype=np.complex128)
    for s, z in enumerate(stream):
        paths[:, s] = z
    return TrajectoryEnsemble(paths=paths, w=w.w, ds=params.ds, truncated=stream.truncated,
                              first_bad_step=stream.first_bad_step)


# -- stochastic action -------------------------------------------------------

REST_FRAME_SPIN_UP = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)


@dataclass(frozen=True)
class ActionEstimate:
    mean: complex
    stderr: float
    samples: ArrayC
    n_branch_flags: int      # steps with Re(w.w) < 0 (principal-root cut)
    n_degenerate_flags: int  # steps with w.w = 0 (degenerate kinetic term)


def accumulate_action(ensemble: TrajectoryEnsemble, A: PotentialSpec,
                      consts: PhysicalConstants, reference_bispinor=None) -> ActionEstimate:
    """Per-path stochastic action sum_s L(z_s, w_s) ds, with

    L = -mc sqrt(w.w) - eps e A.w - <chi| (e hbar/2m) sigma^{munu} F_munu |chi>.

    The square root takes the principal branch; steps that cross its cut
    (Re(w.w) < 0) are counted in ``n_branch_flags``.  The spin term is
    collapsed to a scalar by sandwiching with a fixed unit reference
    bispinor (rest-frame spin-up by default) -- a convention, recorded in
    output metadata.  A path contributes nothing from its blow-up step on.
    """
    chi = np.asarray(reference_bispinor if reference_bispinor is not None
                     else REST_FRAME_SPIN_UP, dtype=np.complex128).reshape(4)
    nrm = np.vdot(chi, chi).real
    if nrm == 0:
        raise SocError("reference bispinor must be nonzero")

    first_bad = ensemble.first_bad_step[:, None]
    live = (first_bad < 0) | (np.arange(ensemble.steps) < first_bad)
    w = np.where(live[..., None], ensemble.w, 0)  # (n, steps, 4)
    z = ensemble.paths[:, :-1, :]              # position at the start of each step
    eta = METRIC_DIAG.reshape(1, 1, 4)
    wsq = np.sum(eta * w * w, axis=2)
    branch_flags = int(np.count_nonzero(wsq.real < 0))
    degenerate_flags = int(np.count_nonzero(wsq == 0))
    lagrangian = -consts.mc * np.sqrt(wsq)

    coords = [METRIC_DIAG[mu] * z[..., mu] for mu in range(4)]  # raise to z^mu
    Av = evaluate_potential(A, coords)
    lagrangian = lagrangian - consts.epsilon * consts.e * np.sum(
        eta * np.moveaxis(Av, 0, -1) * w, axis=2)

    if A.name != "free":
        F = field_strength(A, coords, method="analytic")
        # <chi| sigma^{munu} |chi> is a constant scalar per index pair
        gam = DIRAC
        pref = consts.e * consts.hbar / (2 * consts.m)
        sandwich = np.zeros((4, 4), dtype=np.complex128)
        for mu in range(4):
            for nu in range(4):
                sandwich[mu, nu] = np.vdot(chi, gam.spin_tensor(mu, nu) @ chi) / nrm
        spin = pref * np.einsum("mn,mn...->...", sandwich, F)
        lagrangian = lagrangian - spin

    samples = np.sum(lagrangian, axis=1) * ensemble.ds
    mean = complex(np.mean(samples))
    if ensemble.n_paths > 1:
        var = np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)
        stderr = float(np.sqrt(var / ensemble.n_paths))
    else:
        stderr = float("nan")
    return ActionEstimate(mean=mean, stderr=stderr, samples=samples,
                          n_branch_flags=branch_flags,
                          n_degenerate_flags=degenerate_flags)


# -- generator consistency ---------------------------------------------------

@dataclass(frozen=True)
class PolynomialTestFunction:
    """Holomorphic polynomial in the four complex position components."""

    coeffs: dict
    label: str

    def __post_init__(self) -> None:
        for exps, _ in self.coeffs.items():
            if len(exps) != 4 or any(e < 0 for e in exps):
                raise SocError(f"bad exponent tuple {exps}")
            if sum(exps) > 4:
                raise SocError("test polynomials must have degree <= 4")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        return Polynomial(self.coeffs)([z[..., mu] for mu in range(4)])

    def grad(self, z0) -> ArrayC:
        z0 = as_four_vector(z0)
        return np.array([Polynomial(self.coeffs).derivative(mu)(z0) for mu in range(4)])

    def hess_diag(self, z0) -> ArrayC:
        z0 = as_four_vector(z0)
        return np.array([Polynomial(self.coeffs).derivative(mu).derivative(mu)(z0)
                         for mu in range(4)])


def monomial(mu: int, power: int = 1, label: str | None = None) -> PolynomialTestFunction:
    exps = [0, 0, 0, 0]
    exps[mu] = power
    default = f"z{mu}^{power}" if power > 1 else f"z{mu}"
    return PolynomialTestFunction({tuple(exps): 1.0}, label or default)


def standard_test_battery() -> list[PolynomialTestFunction]:
    return [
        monomial(1),
        monomial(0),
        monomial(1, 2),
        PolynomialTestFunction({(1, 1, 0, 0): 1.0}, "z0*z1"),
        monomial(0, 2),
        monomial(1, 3),
    ]


@dataclass(frozen=True)
class GeneratorReport:
    label: str
    estimate: complex
    exact: complex
    abs_error: float
    rel_error: float
    stderr: float
    n_paths: int
    ds: float
    passed: bool


# battery function i (counted from 1) draws its paths from key seed + i * stride
BATTERY_SEED_STRIDE = 7919


def run_generator_battery(consts: PhysicalConstants, ds: float, n_paths: int,
                          seed: int, n_sigma: float = 3.0,
                          drift=(0.3, -0.2, 0.1, 0.05)) -> list[GeneratorReport]:
    """The standard six-function battery, one independent substream set each.

    Linear test functions run with a constant drift (the diffusion term
    cancels for them); the nonlinear ones run drift-free so the one-step
    recursion has no O(ds) bias and the 3-sigma verdict is sharp.
    """
    drift_w = constant_control(np.asarray(drift, dtype=np.complex128), "battery_drift")
    reports = []
    for i, f in enumerate(standard_test_battery()):
        w = drift_w if f.label in ("z0", "z1") else zero_control()
        reports.append(generator_check(f, w, consts, ds=ds, n_paths=n_paths,
                                       seed=seed + BATTERY_SEED_STRIDE * (i + 1),
                                       n_sigma=n_sigma))
    return reports


def generator_check(f: PolynomialTestFunction, w: ControlField,
                    consts: PhysicalConstants, ds: float, n_paths: int, seed: int,
                    z0=None, diffusion: DiffusionCoefficients | None = None,
                    n_sigma: float = 3.0) -> GeneratorReport:
    """Compare (E[f(z_ds)] - f(z_0))/ds against the generator of the diffusion,

        G f = w_mu df/dz_mu + 1/2 sum_mu sigma_mu^2 d2f/dz_mu^2,

    evaluated at z_0.  The pass verdict is |estimate - G f| <= n_sigma
    standard errors of the Monte Carlo mean.
    """
    z0 = np.zeros(4, dtype=np.complex128) if z0 is None else as_four_vector(z0)
    diff = diffusion if diffusion is not None else make_diffusion(consts)
    params = EnsembleParams(n_paths=n_paths, steps=1, ds=ds, z0=z0)
    f1 = f(EulerStream(params, w, consts, seed, diffusion=diff).end_state())
    f0 = complex(f(z0.reshape(1, 4))[0])
    estimate = complex((np.mean(f1) - f0) / ds)
    var = np.var(f1.real, ddof=1) + np.var(f1.imag, ddof=1)
    stderr = float(np.sqrt(var / n_paths) / ds)

    exact = complex(np.dot(w.w, f.grad(z0)) + 0.5 * np.dot(diff.squares, f.hess_diag(z0)))
    abs_error = abs(estimate - exact)
    rel_error = abs_error / abs(exact) if exact != 0 else float("inf")
    return GeneratorReport(label=f.label, estimate=estimate, exact=exact,
                           abs_error=abs_error, rel_error=rel_error, stderr=stderr,
                           n_paths=n_paths, ds=ds,
                           passed=abs_error <= n_sigma * stderr)
