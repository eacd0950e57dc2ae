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

The own estimate propagates under PhiZ, the average one under Phi1, and
an agent whose two estimates agree plays the predicted equilibrium, whose
offset is (P0 - P1) z + G.  So Miz and M0z = Phi1 Phi1(t0)^-1 - Miz are
products of the bundle's transitions, Mig = V PhiZ(t0)^-1 with V one
backward scan driven by PhiZ, and M0g = (P0 - P1) Phi1 Phi1(t0)^-1 - Mig.
The kernels Mig_diag and M0g_diag are the diagonal maps t -> M(t; t)
read when agents re-anchor at every instant; an anchor's Mig is
Mig(t; t) Miz(t).  They live on the Riccati bundle, built once per
parameter set on first read, beside the transitions Phi1 and PhiZ they
are products of.  realtime_simulate steps the agents by
Euler-Maruyama, node by node, as one policy call gives each node's errors;
the linear theory's prediction of the realized deviation is the realized
mean field's forward solve driven by the offsets the errors give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField, equilibrium_law, equilibrium_mf
from .errors import EstimatorPolicyError, GridMismatchError, IntegrationBlowupError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import StepMaps
from .params import SystemParams, require_same_params
from .population import (
    _agent_rows,
    _check_seed,
    _drift,
    _mean_overflow,
    _noise_blocks,
    _noise_matrix,
    agent_sum,
)
from .riccati import RiccatiBundle, control, mean_field_path, mf_generator


@dataclass
class RealtimeDeviationMaps:
    """Estimate-error-to-deviation maps for one anchor time t0."""

    Miz: MatrixPath
    M0z: MatrixPath
    Mig: MatrixPath
    M0g: MatrixPath


def build_kernels(bundle: RiccatiBundle, maps: RiccatiBundle | None = None) -> RiccatiBundle:
    """Build the realtime kernels Mig_diag and M0g_diag on the bundle and
    return the bundle.  maps is optional; when given it must be that bundle
    (GridMismatchError otherwise)."""
    if maps is not None and maps is not bundle:
        raise GridMismatchError("maps are another Riccati bundle's")
    bundle.M0g_diag  # builds both kernels on first read
    return bundle


def build_realtime_maps(bundle: RiccatiBundle, t0) -> RealtimeDeviationMaps:
    """Deviation maps for a fixed anchor t0, on the full grid."""
    grid = bundle.grid
    k0 = grid.index_of(t0)
    Miz = bundle.PhiZ.values @ np.linalg.inv(bundle.PhiZ[k0])
    Phi1_t0 = bundle.Phi1.values @ np.linalg.inv(bundle.Phi1[k0])
    Mig = bundle.Mig_diag @ Miz
    M0g = (bundle.P0.values - bundle.P1.values) @ Phi1_t0 - Mig
    return RealtimeDeviationMaps(
        Miz=MatrixPath(grid, Miz), M0z=MatrixPath(grid, Phi1_t0 - Miz),
        Mig=MatrixPath(grid, Mig), M0g=MatrixPath(grid, M0g),
    )


def restricted_prediction(bundle: RiccatiBundle, zbar_hat, z_hat, t0, route="p2"):
    """One agent's full prediction and strategy from its estimates at t0:
    zbar_hat of the population's average estimate, z_hat of the mean field.

    route "p2" propagates the average estimate with (P1 + P2, G1); route
    "p0" uses the equivalent (P0, G) representation.  Returns the predicted
    average state zbar, average offset gbar, own mean-field estimate z_hat,
    tracking offset g_i, and the feedback law on [t0, T].
    """
    params = bundle.params
    k0 = bundle.grid.index_of(t0)
    P1 = bundle.P1.slice(k0)
    sub = P1.grid
    if route == "p2":
        Pbar = P1.values + bundle.P2.slice(k0).values
        Gbar = bundle.G1.slice(k0).values
        steps, start = StepMaps(mf_generator(params, Pbar), sub), 0
    elif route == "p0":
        Pbar = bundle.P0.slice(k0).values
        Gbar = bundle.G.slice(k0).values
        steps, start = bundle.mf0_steps, k0
    else:
        raise ValueError(f"unknown route {route!r}")
    zbar_v = mean_field_path(params, steps, Gbar, zbar_hat, start)
    gbar_v = np.einsum("kij,kj->ki", Pbar - P1.values, zbar_v) + Gbar
    zbar = VectorPath(sub, zbar_v)
    gbar = VectorPath(sub, gbar_v)

    # own mean-field estimate, driven by the predicted average offset
    z_hat = VectorPath(sub, mean_field_path(params, bundle.mf1_steps, gbar_v, z_hat, k0))
    ubar = VectorPath(sub, control(params, P1.values, z_hat.values, gbar_v))
    law = equilibrium_law(bundle, MeanField(z=z_hat, ubar=ubar))
    return {"zbar": zbar, "gbar": gbar, "z_hat": z_hat, "ubar": ubar,
            "g_i": law.g, "law": law}


def deviation_quadrature(bundle: RiccatiBundle, Ebar_path, Ebar1_path) -> VectorPath:
    """Predicted actual-mean-field deviation from realized estimate errors.

    Ebar_path(t) is the population-average own-estimate error, Ebar1_path(t)
    the average of the agents' average-estimate errors, both on the
    bundle's grid (GridMismatchError otherwise).  dz_A is the realized mean
    field's forward solve from 0 (riccati.mean_field_path under the
    bundle's step maps of mf_generator(P1)) driven by the average offset
    deviation dg(t) = Mig(t; t) Ebar(t) + M0g(t; t) Ebar1(t):

        dz_A(t) = -PhiZ(t) int_0^t PhiZ(s)^-1 (B+F) R^-1 B' dg(s) ds.
    """
    grid = require_same_grid(bundle, Ebar_path, Ebar1_path)
    params = bundle.params
    dg = (
        np.einsum("kij,kj->ki", bundle.Mig_diag, Ebar_path.values)
        + np.einsum("kij,kj->ki", bundle.M0g_diag, Ebar1_path.values)
    )
    return VectorPath(grid, mean_field_path(params, bundle.mf1_steps, dg, np.zeros(params.n)))


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
    kernels: RiccatiBundle | None = None,
):
    """Simulate N agents who re-anchor their strategy at every grid node.

    Each node, agent i's control is the anchored feedback evaluated at the
    anchor itself: u_i(t_k) = -R^-1 B'(P1 x_i + g_c + Mig(t_k;t_k) E_i(t_k)
    + M0g(t_k;t_k) Ebar_i(t_k)), with the estimate errors of all agents
    supplied by one policy call per node (see the protocol above); output
    that does not broadcast to (N, n), or whose mean over the agents is not
    finite at some node, raises EstimatorPolicyError naming the node.  Agents
    step node by node, with D as in simulate and node k's (N, n) rows of the
    seed's dynamics draw as their noise (see population._noise_blocks).  The
    run takes place on the bundle's grid and reads the kernels of the bundle
    (built on its first read) or of kernels, a bundle of the same parameter
    set; a grid or kernels on another grid raise GridMismatchError, params
    other than the bundle's or the kernels' ParamsMismatchError, a
    population that does not fit params or a seed that is not a non-negative
    integer PopulationError, a non-finite state
    or a node mean of finite states that overflows IntegrationBlowupError.
    Returns the realized mean field, the correct-information reference,
    realized error paths, and a report comparing the realized deviation
    with the linear-theory quadrature.
    """
    require_same_params(params, bundle, "bundle")
    kernels = bundle if kernels is None else kernels
    require_same_params(params, kernels, "kernels")
    grid = require_same_grid(bundle if grid is None else grid, bundle, kernels)
    x0, _ = _agent_rows(params, population)
    _check_seed(seed)
    N, n = x0.shape
    x, x_sum = x0, agent_sum(x0)
    if not np.isfinite(x_sum).all():
        raise _mean_overflow(grid, 0)
    if z0 is None:
        z0 = np.mean(x0, axis=0)
    mf_c = equilibrium_mf(bundle, z0)
    # correct-information offset: g_c = (P0 - P1) z_c + G
    g_c = (
        np.einsum("kij,kj->ki", bundle.P0.values - bundle.P1.values, mf_c.z.values)
        + bundle.G.values
    )
    ids = np.arange(N)
    times, K, dt = grid.times, grid.steps, grid.dt
    sqdt = np.sqrt(dt)
    z_A, Ebar_real, Ebar1_real = (np.empty((K + 1, n)) for _ in range(3))
    D = _noise_matrix(params, D)
    noise = None if D is None else (
        block[j] for block in _noise_blocks(seed, N, K, n) for j in range(len(block)))
    # the right operands of the (N, n) products are contiguous copies: the
    # bits of transposed views for N > 1, multiplied about 2.5 times faster
    At, Bt = (np.ascontiguousarray(M.T) for M in (params.A, params.B))
    Dt = None if D is None else np.ascontiguousarray(D.T)
    MigT, M0gT = (np.ascontiguousarray(np.swapaxes(M, 1, 2))
                  for M in (kernels.Mig_diag, kernels.M0g_diag))
    for k in range(K + 1):
        E_own, E_avg = _node_errors(estimator_policy, ids, k, times[k], (N, n))
        Ebar_real[k] = agent_sum(E_own) / N
        Ebar1_real[k] = agent_sum(E_avg) / N
        z_A[k] = mf_x = x_sum / N
        if k == K:
            break
        g_ik = E_own @ MigT[k]
        g_ik += g_c[k]
        g_ik += E_avg @ M0gT[k]
        u = control(params, bundle.P1[k], x, g_ik)
        drift = _drift(params, At, Bt, x, u, mf_x, agent_sum(u) / N)
        x_next = drift * dt
        x_next += x
        if noise is not None:
            dW = next(noise) @ Dt
            dW *= sqdt
            x_next += dW
        x = x_next
        x_sum = agent_sum(x)
        # a finite node sum means every state is finite; a non-finite one
        # ends the run early, to be told apart below
        if not np.isfinite(x_sum).all():
            break
    # non-finite policy errors show in their node means (and in the states
    # of the next node), so the policy is blamed first, at its first such node
    bad = np.flatnonzero(~np.isfinite(np.hstack([Ebar_real, Ebar1_real])[:k + 1]).all(axis=1))
    if len(bad):
        raise EstimatorPolicyError(f"estimator policy at node {bad[0]} (t={times[bad[0]]:.6g}) "
                                   "returned errors whose agent mean is not finite",
                                   node=int(bad[0]))
    if k < K:   # a blow-up, or a node sum of finite states that overflows
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if len(bad):
            raise IntegrationBlowupError(f"agent {bad[0]} state non-finite at node {k + 1}",
                                         node=k + 1, time=times[k + 1])
        raise _mean_overflow(grid, k + 1)
    Ebar_path, Ebar1_path = VectorPath(grid, Ebar_real), VectorPath(grid, Ebar1_real)
    predicted = deviation_quadrature(kernels, Ebar_path, Ebar1_path)
    realized = z_A - mf_c.z.values
    report = {
        "max_abs_deviation": float(np.max(np.abs(realized))),
        "max_abs_mismatch": float(np.max(np.abs(realized - predicted.values))),
    }
    return {
        "z_A": VectorPath(grid, z_A),
        "z_c": mf_c.z,
        "Ebar": Ebar_path,
        "Ebar1": Ebar1_path,
        "predicted_deviation": predicted,
        "deviation_report": report,
    }
