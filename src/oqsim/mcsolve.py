"""Monte Carlo wave function solver (quantum-jump unraveling of the Lindblad
master equation).

Each trajectory integrates the non-Hermitian drift ``H - (i/2) sum C_n^dag C_n``
until the squared norm of the unnormalized state falls to a uniform random
threshold; the jump time is then located by bisection on the dense output, a
channel is drawn with probability proportional to ``<psi|C_n^dag C_n|psi>``,
the collapse operator is applied, the state renormalized, and a fresh
threshold drawn.  Expectation values are computed on normalized states and
averaged (with weights when improved sampling or mixed initial states are
used).

Every trajectory of a mixture component starts on the same deterministic
no-jump path and stays on it until its norm² falls to its threshold.  One
solve integrates that path once per component: a :class:`_NoJumpPath`
record keeps the stepper state of each accepted no-jump step, the norm²
after it and the outputs read so far, and each trajectory resumes its
stepper at the last recorded step before its first jump, or extends the
record when no recorded step crosses its threshold.  A trajectory's outputs,
random draws and errors are those of integrating the path itself; only the
repeated steps are skipped.  The record costs about ``2 * d`` complex
numbers per recorded step and component (the state and the FSAL
derivative), plus the expectation values and, with ``store_states``, the
normalised state at each output time.  A coefficient callable with side
effects sees fewer calls than one per step of every trajectory.

After a jump, with a constant drift, the path depends only on the restart
ket, not on the jump time.  When the collapsed ket ``C_k psi`` has exactly
one nonzero entry ``m``, the trajectory restarts in the unit vector ``e_m``
itself: the global phase of ``C_k psi / |C_k psi|`` is dropped, so that every
such restart starts from the same bits (a general ket cannot be normalised
without rounding, and keeps its own path).  One solve holds a
:class:`_Restarts` record per basis index: the power-form steps of the first
restart in ``e_m``, extended by every later one that goes past its end.  A
later restart in ``e_m`` replays them at its own times while its stepper
would take them unchanged (:meth:`DP54Stepper.replay`); outputs, jump times
and draws stay its own, bit for bit.  A step is about ``7 * d`` complex
numbers (state, FSAL derivative, ``|y|`` and the ``(d, 4)`` interpolant
coefficients, built once when the step is recorded and read by every
replay), with at most one record per basis index.  ``stats`` reports
``jumps`` and the ``accepted_steps``, ``rejected_steps`` and
``replayed_steps`` of the trajectories in the result.

A trajectory collects the states it reads at the output times in one
``(n_out, d)`` array and reduces them in one pass at its end
(:func:`_outputs`): norms, normalised kets and expectation values, with the
bits of the formula applied to one output at a time.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import data as _d
from .coefficient import Coefficient, ConstantCoefficient
from .exceptions import RangeError, SolverError
from .integrator import DP54Stepper, advance, check_tlist
from .qobj import Qobj
from .qobjevo import QobjEvo, apply_matrix, as_evo
from .result import MultiTrajResult, check_list, check_number, check_operators, check_state
from .solver import SolverOptions, sesolve
from .trajectory import Ensemble, McOptions, run_map, trajectory_rng

__all__ = ["McOptions", "MCSolver", "mcsolve"]


def _norm(y: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector, with the same bits.

    NumPy computes it as ``sqrt(re . re + im . im)``; this skips its dispatch.
    """
    re, im = y.real, y.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class _Channel:
    """One jump channel: an operator and an optional time-dependent rate."""

    __slots__ = ("op", "mat", "rate", "ratio_fn")

    def __init__(self, op: Qobj, rate: Coefficient | None = None, ratio_fn=None):
        self.op = op
        self.mat = op.data.scipy_matrix()
        self.rate = rate
        self.ratio_fn = ratio_fn  # martingale ratio gamma/Gamma at a jump time

    def weight(self, t: float, psi: np.ndarray) -> float:
        w = _norm(apply_matrix(self.mat, psi)) ** 2
        if self.rate is not None:
            w *= max(float(self.rate(t).real), 0.0)
        return w

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return apply_matrix(self.mat, psi)


def _drift(H_evo: QobjEvo, channels) -> QobjEvo:
    """The no-jump generator ``-iH - 1/2 sum_n rate_n(t) C_n^dag C_n``.

    A channel without a rate enters with rate 1, as a constant term.  The
    terms are formed on the data layer and the constant ones summed in the
    order ``-iH``, then the channels', as :class:`QobjEvo` folds them; each
    term becomes a Qobj only at the end.
    """
    const, terms = None, []
    for q, c in H_evo.terms:
        m = _d.mul(q.data, -1j)
        if c.is_constant:
            const = m  # H_evo's folded constant term, with coefficient 1
        else:
            terms.append((m, c))
    for ch in channels:
        cdc = _d.mul(_d.matmul(_d.adjoint(ch.op.data), ch.op.data), -0.5)
        if ch.rate is not None:
            terms.append((cdc, ch.rate))
        else:
            const = cdc if const is None else _d.add(const, cdc)
    if const is not None:
        terms.insert(0, (const, ConstantCoefficient(1.0)))
    dims = H_evo.dims
    return QobjEvo._from_terms([(Qobj(m, dims=dims), c) for m, c in terms], dims)


class _Trajectory:
    """What one trajectory returns; ``steps`` is ``[accepted, rejected, replayed]``
    summed over its steppers."""

    __slots__ = ("expect", "jumps", "ratios", "final_norm2", "states", "steps")

    def __init__(self, expect, jumps, ratios, final_norm2, states, steps):
        self.expect = expect
        self.jumps = jumps
        self.ratios = ratios
        self.final_norm2 = final_norm2
        self.states = states
        self.steps = steps


def _tally(steps: list, stepper: DP54Stepper) -> list:
    """Add ``stepper``'s accepted, rejected and replayed steps to ``steps``."""
    steps[0] += stepper.accepted
    steps[1] += stepper.rejected
    steps[2] += stepper.replayed
    return steps


class _NoJumpPath:
    """The no-jump path of one mixture component, integrated once per solve.

    ``states[i]`` is the stepper state that no-jump step ``i + 1`` reads and
    ``norm2[i]`` the norm² after that step; only steps that crossed the
    threshold of no trajectory are recorded, and ``states[-1]`` is the
    frontier, the state after the last of them.  ``reads[j]`` is the step
    count at which output ``j`` was read, and ``expect`` and ``kets`` hold
    what was read there.  Every output read before the frontier is held.
    """

    __slots__ = ("states", "norm2", "reads", "expect", "kets")

    def __init__(self, n_times: int, n_eops: int):
        self.states: list[tuple] = []
        self.norm2: list[float] = []
        self.reads: list[int] = []
        self.expect = [np.empty(n_times, dtype=complex) for _ in range(n_eops)]
        self.kets: list[np.ndarray] = []

    def joins(self, stepper: DP54Stepper) -> bool:
        """Whether ``stepper`` starts on this path, bit for bit; it starts an empty one."""
        state = stepper.state()
        if not self.states:
            self.states.append(state)
            return True
        (t, y, f0, h, err), (t0, y0, f00, h0, err0) = state, self.states[0]
        return ((t, h, err) == (t0, h0, err0) and y.tobytes() == y0.tobytes()
                and f0.tobytes() == f00.tobytes())

    def crossing(self, r: float) -> int:
        """The steps before the first recorded one whose norm² is ``<= r``, or
        all recorded steps when none is."""
        return next((i for i, n2 in enumerate(self.norm2) if n2 <= r), len(self.norm2))


class _Restarts:
    """The post-jump steps of one solve, one record per basis state restarted in.

    ``starts[m]`` is the stepper state, ``t`` left out, of the first restart in
    ``e_m``, and ``steps[m]`` the record that :meth:`DP54Stepper.follow`
    replays and extends.  A restart joins it only from that state, bit for bit.
    """

    __slots__ = ("starts", "steps")

    def __init__(self):
        self.starts: dict[int, tuple] = {}
        self.steps: dict[int, list] = {}

    def join(self, stepper: DP54Stepper, m: int) -> None:
        _, y, f0, h, err = stepper.state()
        start = (y.tobytes(), f0.tobytes(), h, err)
        if self.starts.setdefault(m, start) == start:
            stepper.follow(self.steps.setdefault(m, []))


def _outputs(Y: np.ndarray, e_mats) -> tuple[np.ndarray, list[np.ndarray]]:
    """The normalised kets and the expectation values of the rows of ``Y``.

    One pass over the C-contiguous ``(n_out, d)`` stack has the bits of the
    formula per output ``y``: ``nrm = _norm(y)``, ``k = y / nrm`` (``y`` itself
    where ``nrm > 0`` fails) and ``np.vdot(k, apply_matrix(m, k))``.  Each
    stacked ``(1, d) @ (d, 1)`` product is the dot product of one row, with the
    strides of the vector it stands for; a sparse ``m`` multiplies the stack in
    one matvecs kernel call, column by column as its matvec does, and a dense
    ``m`` makes one gemv per row (``Y @ m.T`` would round differently).
    """
    re, im = Y.real, Y.imag
    nrm = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    kets = Y.copy()
    np.divide(Y, nrm, out=kets, where=nrm > 0)
    bras = kets.conj()[:, None, :]
    expect = []
    for m in e_mats:
        if isinstance(m, np.ndarray):
            mk = m[None] @ kets[:, :, None]
        else:
            mk = np.ascontiguousarray((m @ kets.T).T)[:, :, None]
        expect.append((bras @ mk).ravel())
    return kets, expect


def _bisect_jump_time(segment, r: float, rel_tol: float) -> float:
    """Locate ``|psi(t)|^2 = r`` inside one step; the norm is monotone there."""
    lo, hi = segment.t_old, segment.t_new
    tol = rel_tol * max(abs(hi), hi - lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if _norm(segment(mid)) ** 2 > r:
            lo = mid
        else:
            hi = mid
    return hi


def _mcwf_trajectory(
    drift_evo: QobjEvo,
    channels,
    psi0: np.ndarray,
    tlist: np.ndarray,
    e_mats,
    integ_opts,
    norm_tol: float,
    rng,
    r_first: float | None,
    store_states: bool,
    path: _NoJumpPath | None = None,
    restarts: _Restarts | None = None,
) -> _Trajectory:
    """One quantum-jump trajectory.  Calls that share ``path`` or ``restarts``
    share every argument but ``rng`` and ``r_first``, and return what they
    return without them, but for how ``steps`` splits into accepted and replayed."""
    t_end = float(tlist[-1])
    r = rng.uniform() if r_first is None else r_first
    linear = drift_evo.isconstant
    last = DP54Stepper(drift_evo.matvec, float(tlist[0]), psi0, integ_opts, t_end, linear)
    jumps: list[tuple[float, int]] = []
    ratios: list[float] = []
    expect = [np.empty(tlist.size, dtype=complex) for _ in e_mats]
    states = [] if store_states else None
    steps = [0, 0, 0]

    # n: the steps taken on the no-jump path, None off it; j0 outputs come from the record.
    n, j0, done = None, 0, 0
    if path is not None and path.joins(last):
        n = path.crossing(r)
        j0 = bisect.bisect_right(path.reads, n)
        for series, rec in zip(expect, path.expect):
            series[:j0] = rec[:j0]
        if store_states:
            states.extend(path.kets[:j0])
        if j0 == tlist.size:  # the record reaches t_end and crosses no r: the no-jump run
            return _Trajectory(expect, jumps, ratios, _norm(path.states[-1][1]) ** 2, states,
                               steps)
        if n:
            last.resume(path.states[n])
            done = n - path.reads[j0 - 1]

    def jump(stepper, seg):
        """Once the norm has fallen to ``r``, jump and restart from the jump time, or
        renormalise where no channel can act; before that, extend the record past
        its frontier."""
        nonlocal r, last, n
        norm2 = _norm(stepper.y) ** 2
        if norm2 <= r:
            n = None
            t_jump = _bisect_jump_time(seg, r, norm_tol)
            psi_j = seg(t_jump)
            weights = np.array([ch.weight(t_jump, psi_j) for ch in channels])
            total = float(weights.sum())
            if not np.isfinite(total):
                raise SolverError(f"jump channel weights are not finite at t={t_jump:.6g}")
            if total <= 0.0:
                # No channel can act, so the norm fell by integration error only:
                # renormalise (exact, the drift being linear) and draw a fresh threshold.
                t, y, f0, h, err = stepper.state()
                nrm = _norm(y)
                stepper.resume((t, y / nrm, f0 / nrm, h, err))
                r = rng.uniform()
                return stepper
            u = rng.uniform() * total
            k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
            k = min(k, len(channels) - 1)
            psi_new = channels[k].apply(psi_j)
            nrm = _norm(psi_new)
            if nrm == 0.0 or not np.isfinite(nrm):
                raise SolverError(f"collapse produced a zero-norm state at t={t_jump:.6g}")
            jumps.append((t_jump, k))
            if channels[k].ratio_fn is not None:
                ratios.append(float(channels[k].ratio_fn(t_jump)))
            r = rng.uniform()
            _tally(steps, stepper)
            nonzero = np.flatnonzero(psi_new) if linear else ()
            if len(nonzero) == 1:
                # Restart exactly in e_m, without the global phase, so that every
                # restart in e_m starts on one path and can replay its steps.
                psi_new = np.zeros_like(psi_new)
                psi_new[nonzero[0]] = 1.0
            else:
                psi_new = psi_new / nrm
            last = DP54Stepper(drift_evo.matvec, t_jump, psi_new, integ_opts, t_end, linear)
            if len(nonzero) == 1 and restarts is not None:
                restarts.join(last, int(nonzero[0]))
            return last
        if n is not None:  # past the frontier: a resumed trajectory crosses at its next step
            n += 1
            path.norm2.append(norm2)
            path.states.append(stepper.state())

    # The outputs are read into Y and reduced in one pass; n at each read on the path.
    Y = np.empty((tlist.size - j0, psi0.size), dtype=complex)
    n_read, on_path = 0, []
    try:
        for _, _, y in advance(last, tlist[j0:], integ_opts.nsteps, on_step=jump, done=done):
            Y[n_read] = y
            n_read += 1
            if n is not None:
                on_path.append(n)
    finally:  # even when advance raises: the path holds each output before its frontier
        kets, values = _outputs(Y[:n_read], e_mats)
        for series, v in zip(expect, values):
            series[j0:j0 + n_read] = v
        if store_states:
            states.extend(kets)
        if on_path:  # read on the path at its frontier
            j1 = j0 + len(on_path)
            path.reads.extend(on_path)
            for rec, series in zip(path.expect, expect):
                rec[j0:j1] = series[j0:j1]
            if store_states:
                path.kets.extend(states[j0:j1])

    return _Trajectory(expect, jumps, ratios, _norm(last.y) ** 2, states, _tally(steps, last))


def _allot(ntraj: int, probs) -> list[int]:
    """Distribute trajectories over mixture components proportionally."""
    raw = [p * ntraj for p in probs]
    counts = [max(1, int(np.floor(x))) for x in raw]
    while sum(counts) < ntraj:
        fracs = [x - c for x, c in zip(raw, counts)]
        counts[int(np.argmax(fracs))] += 1
    while sum(counts) > ntraj and max(counts) > 1:
        fracs = [x - c for x, c in zip(raw, counts)]
        k = int(np.argmin(fracs))
        if counts[k] > 1:
            counts[k] -= 1
        else:
            break
    return counts


class MCSolver:
    """Reusable Monte Carlo solver (build the effective drift once)."""

    name = "mcsolve"

    def __init__(self, H, c_ops, options=None):
        c_ops = check_list(c_ops, "c_ops")
        if not c_ops:
            raise RangeError("MCSolver needs at least one collapse operator")
        self.options = McOptions.coerce(options)
        H_evo = as_evo(H)
        self.dims = H_evo.dims
        c_evos = [as_evo(c) for c in c_ops]
        check_operators(c_evos, H_evo.dims, "collapse operator")
        channels = []
        for cev in c_evos:
            if cev.isconstant:
                channels.append(_Channel(cev(0.0)))
            else:
                if len(cev.terms) != 1:
                    raise RangeError(
                        "time-dependent collapse operators must be single (Qobj, coeff) terms"
                    )
                base, coeff = cev.terms[0]
                channels.append(_Channel(base, rate=coeff.abs2()))
        self.drift_evo = _drift(H_evo, channels)
        self.channels = channels

    def run(self, psi0, tlist, e_ops=None) -> MultiTrajResult:
        return _run_trajectories(
            self.drift_evo,
            self.channels,
            psi0,
            check_tlist(tlist),
            e_ops,
            self.options,
            self.dims,
            solver_name=self.name,
        )


def _run_trajectories(drift_evo, channels, psi0, tlist, e_ops, opts: McOptions, dims,
                      solver_name: str, martingale_cont=None):
    """Common driver for mcsolve and nm_mcsolve ensembles."""
    ens = Ensemble(solver_name, opts, tlist, e_ops, dims)
    e_mats = [op.data.scipy_matrix() for op in ens.ops]

    if not isinstance(psi0, (list, tuple)):
        components = [(psi0, 1.0)]
    else:
        components = check_list(psi0, "psi0", pairs=True)
        for _, p in components:
            check_number(p, "each probability in psi0")
        components = [(k, float(p)) for k, p in components]
        total_p = sum(p for _, p in components)
        if abs(total_p - 1.0) > 1e-8:
            raise RangeError("mixture probabilities must sum to 1")
    components = [(check_state(ket, dims, "ket", nonzero=True), p) for ket, p in components]

    counts = _allot(opts.ntraj, [p for _, p in components])

    # Job table: (trajectory index for the rng stream, component, r_first role)
    jobs = []
    idx = 0
    nojump: dict[int, _Trajectory] = {}
    leaves: dict[int, bool] = {}
    paths = [_NoJumpPath(tlist.size, len(e_mats)) for _ in components]
    restarts = _Restarts()
    for comp_i, ((ket, p), n_i) in enumerate(zip(components, counts)):
        y0 = ket.unit().full().ravel()
        if opts.improved_sampling:
            nj = _mcwf_trajectory(
                drift_evo, channels, y0, tlist, e_mats, opts.integrator,
                opts.norm_tol, trajectory_rng(opts.seed, idx), -1.0, opts.store_states,
                path=paths[comp_i],
            )
            nojump[comp_i] = nj
            # On a path no channel can leave, the norm falls by integration
            # error only; a threshold in [p0, 1] would be crossed where no
            # channel can act, so those trajectories never jump.
            leaves[comp_i] = any(ch.weight(t, y) > 0.0 for t, y, *_ in paths[comp_i].states
                                 for ch in channels)
            idx += 1
            n_jump = max(n_i - 1, 0)
        else:
            n_jump = n_i
        for _ in range(n_jump):
            jobs.append((idx, comp_i, y0))
            idx += 1

    def run_one(job):
        tid, comp_i, y0 = job
        rng = trajectory_rng(opts.seed, tid)
        if opts.improved_sampling:
            p0 = nojump[comp_i].final_norm2
            r_first = p0 + (1.0 - p0) * rng.uniform() if leaves[comp_i] else -1.0
        else:
            r_first = None
        return comp_i, _mcwf_trajectory(
            drift_evo, channels, y0, tlist, e_mats, opts.integrator,
            opts.norm_tol, rng, r_first, opts.store_states, path=paths[comp_i],
            restarts=restarts,
        )

    def weigh(done):
        """Pair every finished trajectory, no-jump runs included, with its ensemble weight."""
        pairs: list[tuple[float, _Trajectory]] = []
        for comp_i, (_, p) in enumerate(components):
            trajs = [traj for c, traj in done if c == comp_i]
            if opts.improved_sampling:
                # The no-jump run carries the weight of not jumping, or the
                # full component weight when no jump trajectory finished.
                p0 = nojump[comp_i].final_norm2
                pairs.append((p * (p0 if trajs else 1.0), nojump[comp_i]))
                p *= 1.0 - p0
            pairs.extend((p / len(trajs), traj) for traj in trajs)
        return pairs

    def records(done):
        """Ensemble records; each trajectory's martingale series is computed once."""
        if martingale_cont is None:
            return [(w, t.expect, None, t.states) for w, t in weigh(done)]
        return [(w, t.expect, _martingale_series(t, martingale_cont, tlist), t.states)
                for w, t in weigh(done)]

    done = run_map(run_one, jobs, timeout=opts.timeout,
                   stop_check=lambda done: ens.stop_check(done, records))
    pairs = weigh(done)
    w_total = sum(w for w, _ in pairs)
    accepted, rejected, replayed = (sum(traj.steps[i] for _, traj in pairs) for i in range(3))
    stats = {"jumps": sum(len(traj.jumps) for _, traj in pairs), "accepted_steps": accepted,
             "rejected_steps": rejected, "replayed_steps": replayed}
    return ens.result(records(done), len(done) == len(jobs), stats=stats,
                      photocurrent=_photocurrent(pairs, len(channels), tlist, w_total))


def _martingale_series(traj: _Trajectory, cont: np.ndarray, tlist: np.ndarray) -> np.ndarray:
    """mu(t_j) = cont(t_j) * prod of jump ratios before t_j."""
    mu = cont.astype(complex).copy()
    if traj.ratios:
        jump_times = np.array([t for t, _ in traj.jumps])
        ratios = np.array(traj.ratios)
        for j, t in enumerate(tlist):
            mu[j] *= np.prod(ratios[jump_times <= t]) if jump_times.size else 1.0
    return mu


def _photocurrent(all_trajs, n_channels, tlist, w_total):
    if tlist.size < 2:
        return [np.zeros(0) for _ in range(n_channels)]
    dt = np.diff(tlist)
    out = [np.zeros(tlist.size - 1) for _ in range(n_channels)]
    for w, traj in all_trajs:
        for t_jump, k in traj.jumps:
            i = int(np.searchsorted(tlist, t_jump, side="right")) - 1
            i = min(max(i, 0), tlist.size - 2)
            out[k][i] += w
    # A repeated output time is a zero-width bin, which no jump falls in: it reads 0.
    for k in range(n_channels):
        np.divide(out[k], w_total * dt, out=out[k], where=dt > 0)
    return out


def mcsolve(H, psi0, tlist, c_ops=(), e_ops=None, options=None) -> MultiTrajResult:
    """Lindblad dynamics averaged over quantum-jump trajectories.

    ``psi0`` is a ket or, for mixed initial states, a list of ``(ket, prob)``
    pairs; trajectories are allotted to the components proportionally and the
    results weighted by the component probabilities.  Each ket, collapse
    operator and e_op (an operator, not a ket) must have H's dims and ENR
    marker, even where another ket has H's size; else ``DimensionMismatchError``.
    A zero ket raises ``RangeError``, with or without collapse operators.
    Without collapse operators the problem is deterministic and is delegated to
    :func:`~oqsim.solver.sesolve` with the caller's integrator options; its
    expectation values and, with ``store_states``, its kets make the one
    record of a single-trajectory ensemble, whose ``stats`` hold the shared
    trajectory keys and ``delegated``.
    """
    if not c_ops:
        if isinstance(psi0, (list, tuple)):
            raise RangeError("mixed initial states need collapse operators")
        dims = as_evo(H).dims
        check_state(psi0, dims, "ket", nonzero=True)
        opts = McOptions.coerce(options)
        ens = Ensemble("mcsolve", opts, check_tlist(tlist), e_ops, dims)
        res = sesolve(H, psi0, tlist, e_ops=e_ops, options=SolverOptions(
            store_states=opts.store_states, integrator=opts.integrator))
        kets = [s.full().ravel() for s in res.states] if opts.store_states else None
        return ens.result([(1.0, res.expect, None, kets)], True, stats={"delegated": "sesolve"})
    solver = MCSolver(H, c_ops, options)
    return solver.run(psi0, tlist, e_ops=e_ops)
