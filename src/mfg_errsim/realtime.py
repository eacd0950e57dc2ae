"""Continuous re-estimation mode: agents re-anchor their mean-field
prediction and feedback law at every grid node.

At an anchor time t0 an agent holds two estimates: z_hat (its own estimate
of the mean-field state) and zbar_hat (its estimate of the population's
average estimate).  From these it predicts the average offset gbar, its own
mean-field path, and its tracking offset, all on [t0, T].  The deviations of
these predictions from the correct-information equilibrium are linear in the
estimate errors, with maps

    dz_hat(t)  = Miz(t) E_i(t0) + M0z(t) Ebar_i(t0),
    dg_i(t)    = Mig(t) E_i(t0) + M0g(t) Ebar_i(t0),

where E_i(t0) = z_hat - z_c(t0) and Ebar_i(t0) = zbar_hat - z_c(t0).

The maps for all anchors are generated from three kernel paths (V, U, J)
computed once per parameter set, which also yields the diagonal maps
t -> M(t; t) needed when agents re-anchor at every instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeedbackLaw, equilibrium_mf
from .deviations import DeviationMaps
from .errors import EstimatorPolicyError, GridMismatchError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import invert_path, rk4_affine
from .params import SystemParams
from .population import agent_sum, euler_maruyama
from .riccati import (
    RiccatiBundle,
    control,
    coupling_weight,
    mean_field_path,
    offset_generator,
    solve_tracking_offset,
)


@dataclass
class EstimatorState:
    """An agent's mean-field estimates at anchor time t0."""

    zbar_hat: np.ndarray
    z_hat: np.ndarray
    t0: float


@dataclass
class RealtimeDeviationMaps:
    """Estimate-error-to-deviation maps for one anchor time t0."""

    t0: float
    Miz: MatrixPath
    M0z: MatrixPath
    Mig: MatrixPath
    M0g: MatrixPath


@dataclass
class RealtimeKernels:
    """Anchor-independent kernels from which all realtime maps follow.
    Every array is read-only."""

    bundle: RiccatiBundle
    PhiZ: MatrixPath             # the bundle's actual-mean-field transition
    PhiZ_inv: np.ndarray         # (K+1, n, n)
    Phi1_inv: np.ndarray
    J: np.ndarray                # cumulative coupling integral
    V: np.ndarray                # own-error offset kernel
    U: np.ndarray                # average-error offset kernel
    Mig_diag: np.ndarray         # t -> Mig(t; t)
    M0g_diag: np.ndarray         # t -> M0g(t; t)

    @property
    def grid(self):
        return self.bundle.grid

    @property
    def params(self):
        return self.bundle.params


def build_kernels(bundle: RiccatiBundle, maps: DeviationMaps | None = None) -> RealtimeKernels:
    """Realtime kernels from the bundle's transitions Phi1 and PhiZ.

    maps is optional; when given it must have been built from this bundle,
    whose transitions it shares.
    """
    if maps is not None and maps.bundle is not bundle:
        raise GridMismatchError("deviation maps were built from another Riccati bundle")
    params, grid = bundle.params, bundle.grid
    K = grid.steps
    P1v, P2v = bundle.P1.values, bundle.P2.values
    BFRB, BRB = params.BFRB, params.BRB
    PhiZ, Phi1 = bundle.PhiZ, bundle.Phi1
    PhiZ_inv = invert_path(PhiZ)
    Phi1_inv = invert_path(Phi1)

    # J(t) = int_0^t PhiZ^-1 (B+F) R^-1 B' P2 Phi1 ds  (trapezoid)
    P2Phi1 = P2v @ Phi1.values
    integrand = PhiZ_inv @ (BFRB @ P2Phi1)
    seg = 0.5 * grid.dt * (integrand[:-1] + integrand[1:])
    J = np.concatenate([np.zeros((1,) + seg.shape[1:]), np.cumsum(seg, axis=0)])

    S = coupling_weight(params, bundle.P1)
    Hback = offset_generator(params, P1v, BRB)

    # V and U run backward under Hback, as the columns of one scan [V | U]:
    # V driven by S PhiZ, terminal -Qbar Gammabar PhiZ(T); U driven by
    # -S PhiZ J - P1 F R^-1 B' P2 Phi1, terminal +Qbar Gammabar PhiZ(T) J(T)
    n = params.n
    SPhiZ = S @ PhiZ.values
    f = np.concatenate([-SPhiZ, SPhiZ @ J + P1v @ (params.FRB @ P2Phi1)], axis=2)
    VT = -params.Qbar @ params.Gammabar @ PhiZ.terminal
    VU = rk4_affine(Hback, f, np.concatenate([VT, -VT @ J[K]], axis=1), grid,
                    forward=False)
    V, U = VU[:, :, :n], VU[:, :, n:]

    Mig_diag = V @ PhiZ_inv
    M0g_diag = (U + V @ J) @ Phi1_inv
    for a in (PhiZ_inv, Phi1_inv, J, V, U, Mig_diag, M0g_diag):
        a.flags.writeable = False
    return RealtimeKernels(
        bundle=bundle, PhiZ=PhiZ, PhiZ_inv=PhiZ_inv, Phi1_inv=Phi1_inv,
        J=J, V=V, U=U, Mig_diag=Mig_diag, M0g_diag=M0g_diag,
    )


def build_realtime_maps(kernels: RealtimeKernels, t0) -> RealtimeDeviationMaps:
    """Deviation maps for a fixed anchor t0, on the full grid."""
    grid = kernels.grid
    k0 = grid.index_of(t0)
    PhiZ = kernels.PhiZ.values
    PhiZ_inv0 = kernels.PhiZ_inv[k0]
    Phi1_inv0 = kernels.Phi1_inv[k0]
    J0 = kernels.J[k0]
    Miz = np.einsum("kij,jl->kil", PhiZ, PhiZ_inv0)
    M0z = -np.einsum("kij,kjl,lm->kim", PhiZ, kernels.J - J0, Phi1_inv0)
    Mig = np.einsum("kij,jl->kil", kernels.V, PhiZ_inv0)
    M0g = np.einsum(
        "kij,jl->kil",
        kernels.U + np.einsum("kij,jl->kil", kernels.V, J0),
        Phi1_inv0,
    )
    return RealtimeDeviationMaps(
        t0=float(t0),
        Miz=MatrixPath(grid, Miz), M0z=MatrixPath(grid, M0z),
        Mig=MatrixPath(grid, Mig), M0g=MatrixPath(grid, M0g),
    )


def restricted_prediction(bundle: RiccatiBundle, est: EstimatorState, route="p2"):
    """One agent's full prediction and strategy from its estimates at t0.

    route "p2" propagates the average estimate with (P1 + P2, G1); route
    "p0" uses the equivalent (P0, G) representation.  Returns the predicted
    average state zbar, average offset gbar, own mean-field estimate z_hat,
    tracking offset g_i, and the feedback law on [t0, T].
    """
    params = bundle.params
    k0 = bundle.grid.index_of(est.t0)
    P1 = bundle.P1.slice(k0)
    sub = P1.grid
    if route == "p2":
        Pbar = P1.values + bundle.P2.slice(k0).values
        Gbar = bundle.G1.slice(k0).values
    elif route == "p0":
        Pbar = bundle.P0.slice(k0).values
        Gbar = bundle.G.slice(k0).values
    else:
        raise ValueError(f"unknown route {route!r}")
    zbar_v = mean_field_path(params, Pbar, Gbar, est.zbar_hat, sub)
    gbar_v = np.einsum("kij,kj->ki", Pbar - P1.values, zbar_v) + Gbar
    zbar = VectorPath(sub, zbar_v)
    gbar = VectorPath(sub, gbar_v)

    # own mean-field estimate, driven by the predicted average offset
    z_hat = VectorPath(sub, mean_field_path(params, P1.values, gbar_v, est.z_hat, sub))
    ubar = VectorPath(sub, control(params, P1.values, z_hat.values, gbar_v))
    g_i = solve_tracking_offset(params, P1, z_hat, ubar, sub)
    law = FeedbackLaw(params=params, P1=P1, g=g_i)
    return {"zbar": zbar, "gbar": gbar, "z_hat": z_hat, "ubar": ubar,
            "g_i": g_i, "law": law}


def deviation_quadrature(kernels: RealtimeKernels, Ebar_path, Ebar1_path) -> VectorPath:
    """Predicted actual-mean-field deviation from realized estimate errors.

    Ebar_path(t) is the population-average own-estimate error, Ebar1_path(t)
    the average of the agents' average-estimate errors.  Evaluates

        dz_A(t) = -PhiZ(t) int_0^t PhiZ^-1 (B+F) R^-1 B'
                  [Mig(s; s) Ebar(s) + M0g(s; s) Ebar1(s)] ds.
    """
    grid = kernels.grid
    params = kernels.params
    dg = (
        np.einsum("kij,kj->ki", kernels.Mig_diag, Ebar_path.values)
        + np.einsum("kij,kj->ki", kernels.M0g_diag, Ebar1_path.values)
    )
    w = -np.einsum("kij,jl,kl->ki", kernels.PhiZ_inv, params.BFRB, dg)
    seg = 0.5 * grid.dt * (w[:-1] + w[1:])
    cum = np.concatenate([np.zeros((1, params.n)), np.cumsum(seg, axis=0)])
    vals = np.einsum("kij,kj->ki", kernels.PhiZ.values, cum)
    return VectorPath(grid, vals)


# ---------------------------------------------------------------------------
# estimator policies: policy(ids, k, t) -> (E_own, E_avg)
#
# A policy is called once per grid node k (time t) for the whole population.
# ids is the agent index array np.arange(N); E_own holds the own-estimate
# errors E_i(t) and E_avg the average-estimate errors Ebar_i(t), one row per
# agent.  Each must broadcast to (N, n): a scalar or an (n,) vector gives
# every agent the same error.  A policy with per-agent state indexes it with
# the array (errors[ids]); it must not branch on a single agent id.


def truth_policy():
    """All estimates correct at every node."""

    def policy(ids, k, t):
        return 0.0, 0.0

    return policy


def hold_initial_error_policy(errors, Ebar):
    """Estimate = correct value + the agent's fixed initial offset."""
    errors = np.asarray(errors, dtype=float)
    Ebar = np.asarray(Ebar, dtype=float)

    def policy(ids, k, t):
        return errors[ids], Ebar

    return policy


def decay_to_truth_policy(errors, Ebar, rate=1.0):
    """Initial offsets shrinking exponentially as estimation improves."""
    errors = np.asarray(errors, dtype=float)
    Ebar = np.asarray(Ebar, dtype=float)

    def policy(ids, k, t):
        damp = np.exp(-rate * t)
        return errors[ids] * damp, Ebar * damp

    return policy


def constant_error_policy(e0):
    """Every agent holds the same fixed estimate error (both estimates)."""
    e0 = np.asarray(e0, dtype=float)

    def policy(ids, k, t):
        return e0, e0

    return policy


def _node_errors(policy, ids, k, t, shape):
    """Call the policy at node k and broadcast its two outputs to shape."""
    out = policy(ids, k, t)
    try:
        E_own, E_avg = out
        return (np.broadcast_to(np.asarray(E_own, dtype=float), shape),
                np.broadcast_to(np.asarray(E_avg, dtype=float), shape))
    except (TypeError, ValueError) as e:
        got = [np.shape(v) for v in out] if isinstance(out, (tuple, list)) else np.shape(out)
        raise EstimatorPolicyError(
            f"estimator policy at node {k} (t={t:.6g}) returned shapes {got}; "
            f"expected a pair that broadcasts to {shape}", node=k) from e


def realtime_simulate(
    params: SystemParams,
    bundle: RiccatiBundle,
    population,
    estimator_policy,
    grid: TimeGrid | None = None,
    seed: int = 0,
    z0=None,
    D=None,
    kernels: RealtimeKernels | None = None,
):
    """Simulate N agents who re-anchor their strategy at every grid node.

    Each node, agent i's control is the anchored feedback evaluated at the
    anchor itself: u_i(t_k) = -R^-1 B'(P1 x_i + g_c + Mig(t_k;t_k) E_i(t_k)
    + M0g(t_k;t_k) Ebar_i(t_k)), with the estimate errors of all agents
    supplied by one policy call per node (see the protocol above); output
    that does not broadcast to (N, n) raises EstimatorPolicyError.  The run
    takes place on the bundle's grid; a grid or kernels on another grid
    raise GridMismatchError, a non-finite state IntegrationBlowupError.
    Returns the realized mean field, the correct-information reference,
    realized error paths, and a report comparing the realized deviation
    with the linear-theory quadrature.
    """
    if kernels is None:
        kernels = build_kernels(bundle)
    grid = require_same_grid(bundle if grid is None else grid, bundle, kernels)
    n = params.n
    N = len(population)
    x0 = [p[0] for p in population]
    if z0 is None:
        z0 = np.mean(x0, axis=0)
    mf_c = equilibrium_mf(bundle, z0)
    # correct-information offset: g_c = (P0 - P1) z_c + G
    g_c = (
        np.einsum("kij,kj->ki", bundle.P0.values - bundle.P1.values, mf_c.z.values)
        + bundle.G.values
    )
    ids = np.arange(N)
    times = grid.times
    z_A = np.empty((grid.steps + 1, n))
    Ebar_real = np.empty((grid.steps + 1, n))
    Ebar1_real = np.empty((grid.steps + 1, n))

    # Mig(t_k; t_k)' and M0g(t_k; t_k)' at every node, contiguous (see
    # euler_maruyama)
    MigT, M0gT = (np.ascontiguousarray(np.swapaxes(M, 1, 2))
                  for M in (kernels.Mig_diag, kernels.M0g_diag))

    def control_at(x, k):
        E_own, E_avg = _node_errors(estimator_policy, ids, k, times[k], (N, n))
        Ebar_real[k] = agent_sum(E_own) / N
        Ebar1_real[k] = agent_sum(E_avg) / N
        g_ik = E_own @ MigT[k]
        g_ik += g_c[k]
        g_ik += E_avg @ M0gT[k]
        return control(params, bundle.P1[k], x, g_ik)

    for k, _, _, _, mf_x in euler_maruyama(params, x0, grid, control_at, seed=seed, D=D):
        z_A[k] = mf_x
    z_A_path = VectorPath(grid, z_A)
    Ebar_path = VectorPath(grid, Ebar_real)
    Ebar1_path = VectorPath(grid, Ebar1_real)
    predicted = deviation_quadrature(kernels, Ebar_path, Ebar1_path)
    realized = z_A - mf_c.z.values
    report = {
        "max_abs_deviation": float(np.max(np.abs(realized))),
        "max_abs_mismatch": float(np.max(np.abs(realized - predicted.values))),
    }
    return {
        "z_A": z_A_path,
        "z_c": mf_c.z,
        "Ebar": Ebar_path,
        "Ebar1": Ebar1_path,
        "predicted_deviation": predicted,
        "deviation_report": report,
    }
