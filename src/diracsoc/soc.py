"""Stochastic layer: plane-wave optimal control and HJB residual, the Hopf-Cole
identity, the stochastic action and the complex SDE.

The equation of motion is  dz_mu = w_mu ds + sigma_mu dW_mu  with real,
independent Wiener increments dW_mu; all complexity enters through the
complex diffusion amplitudes sigma_mu and the complex control w.  Real
and imaginary parts of each increment are therefore exactly
(anti-)correlated, with the sign pattern set by the charge-sign branch
epsilon.

Every simulated control is constant in z (zero, a configured constant,
the plane-wave optimal control and the battery drift), so a control is a
plain complex four-vector w_mu, of which ``EulerStream`` keeps a read-only
copy, and an Euler step is  z + w ds + sigma sqrt(ds) xi.  The generator
battery is the table ``BATTERY`` of (label, ``Polynomial``, drift) rows;
``generator_check`` takes the polynomial's derivatives from
``Polynomial.derivative``.

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
memory, whatever the number of steps.  Each position is computed once, in
a chunk of steps, and a blow-up is flagged and frozen in the rows of that
chunk before they are yielded; the ``EulerStream`` docstring gives how.
``simulate`` collects a stream into stored (n_paths, steps+1, 4) paths.
In the simulate suite the generator battery, the straight line, the
variance law and the configured ensemble read end states or final flags,
the bitwise reproducibility check runs two streams in lockstep, and the
Re/Im correlation check reads a one-step ensemble of the same paths and seed,
whose two rows are the bits of their steps 0 and 1.  Only
the action check (``accumulate_action`` needs every position) stores
paths, and with ``simulate.dump_paths`` the configured ensemble keeps the
dumped paths, at most ``simulate.dump_max_paths`` of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import METRIC_DIAG, ArrayC, as_four_vector, mdot
from .constants import PhysicalConstants
from .emfield import (Polynomial, PotentialSpec, evaluate_potential, field_strength,
                      spin_coupling_matrix)
from .grid import SpacetimeGrid, _derivatives, _require_finite


class SocError(ValueError):
    pass


class HopfColeError(SocError):
    pass


# -- optimal control ---------------------------------------------------------

def optimal_control_mode(k, consts: PhysicalConstants, A_const=None) -> ArrayC:
    """Control of a plane-wave log-amplitude: w_mu = eps/m (hbar k_mu - e A_mu).

    This is the closed form obtained from d_mu(-i k.z) = -i k_mu; the
    optional constant potential shifts every component uniformly.
    """
    k = as_four_vector(k)
    a = np.zeros(4, dtype=np.complex128) if A_const is None else as_four_vector(A_const)
    return (consts.epsilon / consts.m) * (consts.hbar * k - consts.e * a)


def weak_condition_residual(w, consts: PhysicalConstants) -> complex:
    """w_mu w^mu - c^2 for a four-vector w; zero for controls derived from on-shell modes."""
    return mdot(w, w) - consts.c ** 2


# -- HJB residual and Hopf-Cole identity -------------------------------------

def hjb_residual_mode(k, consts: PhysicalConstants, A_const=None) -> complex:
    """Stationary HJB residual of the plane-wave log-amplitude -i k.z.

    LHS - RHS with LHS = 0; for A = 0 this equals -Delta, the negated
    on-shell gap.
    """
    k = as_four_vector(k)
    a = np.zeros(4, dtype=np.complex128) if A_const is None else as_four_vector(A_const)
    grad = consts.hbar * k - consts.e * a  # i hbar (-i k_mu) - e A_mu
    rhs = -consts.mass_shell + mdot(grad, grad)
    return -rhs


def hopf_cole_check(phi: np.ndarray, grid: SpacetimeGrid, backend: str = "spectral") -> float:
    """Max |(dJ)^2 + ddJ - ddphi/phi| over ``grid``, with J = log phi, for scalar values phi.

    Both sides are computed through genuinely different routes: the left
    through derivatives of the pointwise logarithm, the right through
    derivatives of phi itself.  phi and its logarithm must be finite (GridError
    otherwise), and |phi| must stay above 1e-8 of its largest value, which must
    not be 0 (HopfColeError otherwise).
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != grid.shape:
        raise HopfColeError(f"the Hopf-Cole check takes a scalar field of shape {grid.shape}")
    mag = np.abs(_require_finite(phi))
    if not mag.any():  # the floor below would be 0 and never fire
        raise HopfColeError("phi vanishes everywhere; it has no logarithm")
    floor = 1e-8 * float(mag.max())
    if float(mag.min()) < floor:
        idx = np.unravel_index(int(np.argmin(mag)), mag.shape)
        point = tuple(float(grid.axis(mu)[idx[mu]]) for mu in range(grid.dims))
        raise HopfColeError(
            f"|phi| = {mag.min():.3e} < {floor:.3e} near grid point {point}; "
            "the logarithm is ill-conditioned there")
    grads, lhs = _derivatives(_require_finite(np.log(phi)), grid, backend)
    for mu, dj in enumerate(grads):
        lhs += METRIC_DIAG[mu] * dj * dj
    rhs = _derivatives(phi, grid, backend, first=False)[1] / phi
    return float(np.abs(lhs - rhs).max())


def hopf_cole_exponential_error(a: complex) -> float:
    """The identity error for phi = exp(a z^1), by local finite differences.

    Both routes use 4th-order central stencils of step h = 5e-3 at nine
    isolated points on [-1, 1], so no periodicity is needed; the exact value
    of both sides is -a^2.
    """
    a = complex(a)
    h = 5e-3
    pts = np.linspace(-1.0, 1.0, 9).astype(np.complex128)
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
    yielded array is written again.  The start is a read-only view of z0, and
    the first step adds z0 + w ds as a four-vector, so a one-step ensemble holds
    its noise plus one block of positions.  ``truncated`` and ``first_bad_step``
    are up to date at every yield: paths whose positions stop being finite are
    frozen at their last finite value and flagged.  The noise is drawn inside
    the loop, at most max(n_paths, NOISE_CHUNK) path-steps at a time, and the
    positions of a chunk are computed once, together, as rows of one block
    whose frozen paths are reset to their frozen positions.  One finiteness
    check clears the whole block; a block that fails it has each row checked
    just before its yield, where a newly non-finite path is flagged and frozen.
    A stream holds O(n_paths) memory whatever its length.  Each iteration
    restarts the recursion from z0.  The control ``w`` is a complex
    four-vector, of which the stream keeps a read-only copy.
    """

    def __init__(self, params: EnsembleParams, w, consts: PhysicalConstants,
                 seed: int, diffusion: DiffusionCoefficients | None = None) -> None:
        self.w = np.array(as_four_vector(w))
        self.w.setflags(write=False)
        self.params, self.seed = params, seed
        self.diffusion = diffusion if diffusion is not None else make_diffusion(consts)
        self.truncated = np.zeros(params.n_paths, dtype=bool)
        self.first_bad_step = np.full(params.n_paths, -1, dtype=np.int64)

    def __iter__(self):
        n, steps, ds = self.params.n_paths, self.params.steps, self.params.ds
        chunk = max(1, NOISE_CHUNK // n)
        with np.errstate(over="ignore", invalid="ignore"):  # flagged by the first step
            drift = self.w * ds
            amp = self.diffusion.sigma * math.sqrt(ds)
        truncated, first_bad = self.truncated, self.first_bad_step
        truncated[:] = False
        first_bad[:] = -1

        z0 = self.params.z0
        # (prev + drift) of every step after the first, in one buffer for the stream: a
        # fresh (n, 4) sum per step makes glibc trim and re-fault the heap every step
        scratch = np.empty((n, 4), dtype=np.complex128) if steps > 1 else None
        z = np.broadcast_to(z0, (n, 4))  # read-only: every path starts at z0
        yield z
        for start in range(0, steps, chunk):
            xi = _path_noise(self.seed, n, min(chunk, steps - start), start=start)
            # the whole chunk, row by row in the per-step order (z + drift) + amp xi, with
            # frozen paths then put back at their frozen positions.  A non-finite entry
            # stays non-finite under every later addition, so a finite sum of the last
            # row shows that every position in the chunk is finite.  Error states are
            # entered per chunk and never held across a yield, where they would leak to
            # the caller.
            with np.errstate(over="ignore", invalid="ignore"):
                block = amp * xi.transpose(1, 0, 2)  # (m, n, 4); no row written after its yield
                prev = z if start else z0  # every start row is z0: the same bits, no (n, 4) sum
                for row in block:
                    np.add(prev + drift if prev is z0 else np.add(prev, drift, out=scratch),
                           row, out=row)
                    prev = row
                if truncated.any():
                    block[:, truncated] = z[truncated]
                clean = np.isfinite(block[-1].sum())
            for k, row in enumerate(block):
                if not clean:
                    # a blow-up or a sum that overflows: a path first non-finite here is
                    # flagged at this step and frozen in this row and the later rows of
                    # the chunk, none of them yielded yet
                    bad = ~np.isfinite(row.view(np.float64)).reshape(n, 8).all(axis=1)
                    bad &= ~truncated  # an infinite z0 stays frozen, flagged at step 0
                    if bad.any():
                        first_bad[bad] = start + k
                        truncated |= bad
                        block[k:, bad] = z[bad]
                yield row
                z = row

    def end_state(self) -> np.ndarray:
        """Run the recursion through its last step and return the positions there."""
        for z in self:
            pass
        return z


def simulate(params: EnsembleParams, w, consts: PhysicalConstants, seed: int,
             diffusion: DiffusionCoefficients | None = None) -> TrajectoryEnsemble:
    """Every position of an ``EulerStream``, stored as (n_paths, steps+1, 4) paths."""
    stream = EulerStream(params, w, consts, seed, diffusion)
    paths = np.empty((params.n_paths, params.steps + 1, 4), dtype=np.complex128)
    for s, z in enumerate(stream):
        paths[:, s] = z
    return TrajectoryEnsemble(paths=paths, w=stream.w, ds=params.ds, truncated=stream.truncated,
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
                      consts: PhysicalConstants) -> ActionEstimate:
    """Per-path stochastic action sum_s L(z_s, w_s) ds, with

    L = -mc sqrt(w.w) - eps e A.w - <chi| (e hbar/2m) sigma^{munu} F_munu |chi>.

    The square root takes the principal branch; steps that cross its cut
    (Re(w.w) < 0) are counted in ``n_branch_flags``.  The spin term is
    collapsed to a scalar by sandwiching with the unit rest-frame spin-up
    bispinor chi, a convention.  A path contributes nothing from its blow-up
    step on.
    """
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
        F = field_strength(A, coords)
        # the coupling is linear in F, so its sandwich contracts F with the sandwich of
        # the coupling of each unit field strength
        chi = REST_FRAME_SPIN_UP
        per_unit = np.array([np.vdot(chi, spin_coupling_matrix(unit, consts) @ chi)
                             for unit in np.eye(16).reshape(16, 4, 4)]).reshape(4, 4)
        lagrangian = lagrangian - np.einsum("mn,mn...->...", per_unit, F)

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

# the generator battery: (label, holomorphic test polynomial of degree <= 4, drift).
# The linear functions run with a constant drift (the diffusion term cancels for
# them); the nonlinear ones run drift-free, so the one-step recursion has no O(ds)
# bias and a verdict on the error is sharp.
BATTERY_DRIFT = (0.3, -0.2, 0.1, 0.05)
NO_DRIFT = (0.0, 0.0, 0.0, 0.0)
BATTERY = (
    ("z1", Polynomial({(0, 1, 0, 0): 1.0}), BATTERY_DRIFT),
    ("z0", Polynomial({(1, 0, 0, 0): 1.0}), BATTERY_DRIFT),
    ("z1^2", Polynomial({(0, 2, 0, 0): 1.0}), NO_DRIFT),
    ("z0*z1", Polynomial({(1, 1, 0, 0): 1.0}), NO_DRIFT),
    ("z0^2", Polynomial({(2, 0, 0, 0): 1.0}), NO_DRIFT),
    ("z1^3", Polynomial({(0, 3, 0, 0): 1.0}), NO_DRIFT),
)


@dataclass(frozen=True)
class GeneratorReport:
    estimate: complex
    exact: complex
    abs_error: float
    stderr: float


# battery function i (counted from 1) draws its paths from key seed + i * stride
BATTERY_SEED_STRIDE = 7919


def run_generator_battery(consts: PhysicalConstants, ds: float, n_paths: int,
                          seed: int) -> list[GeneratorReport]:
    """One report per ``BATTERY`` row, in table order, each under the row's drift
    and from its own independent substream set."""
    return [generator_check(f, w, consts, ds=ds, n_paths=n_paths,
                            seed=seed + BATTERY_SEED_STRIDE * i)
            for i, (_, f, w) in enumerate(BATTERY, start=1)]


def generator_check(f: Polynomial, w, consts: PhysicalConstants, ds: float, n_paths: int,
                    seed: int, z0=None) -> GeneratorReport:
    """Compare (E[f(z_ds)] - f(z_0))/ds against the generator of the diffusion,

        G f = w_mu df/dz_mu + 1/2 sum_mu sigma_mu^2 d2f/dz_mu^2,

    evaluated at z_0, for the constant control ``w``.  The report holds
    |estimate - G f| and the standard error of the Monte Carlo mean; the caller
    sets the verdict.
    """
    z0 = np.zeros(4, dtype=np.complex128) if z0 is None else as_four_vector(z0)
    diff = make_diffusion(consts)
    params = EnsembleParams(n_paths=n_paths, steps=1, ds=ds, z0=z0)
    f1 = f(EulerStream(params, w, consts, seed, diffusion=diff).end_state().T)
    f0 = complex(f(z0))
    estimate = complex((np.mean(f1) - f0) / ds)
    var = np.var(f1.real, ddof=1) + np.var(f1.imag, ddof=1)
    stderr = float(np.sqrt(var / n_paths) / ds)

    grad = np.array([f.derivative(mu)(z0) for mu in range(4)])
    hess_diag = np.array([f.derivative(mu).derivative(mu)(z0) for mu in range(4)])
    exact = complex(np.dot(as_four_vector(w), grad) + 0.5 * np.dot(diff.squares, hess_diag))
    return GeneratorReport(estimate=estimate, exact=exact, abs_error=abs(estimate - exact),
                           stderr=stderr)
