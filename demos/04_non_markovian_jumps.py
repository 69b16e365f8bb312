"""Non-Markovian Monte Carlo: trajectories for negative decay rates.

The damped Jaynes-Cummings model reduces exactly to a time-local master
equation for the atom whose rate gamma(t) dips below zero.  Ordinary MCWF
cannot sample negative rates; nm_mcsolve shifts the rates to be positive and
weights each trajectory with the influence martingale so that averages
reconstruct the exact state.
"""

import numpy as np

import oqsim as q

lam = 1.0
Gam = 0.3 * lam           # spectral width
Delta = 8 * Gam           # cavity detuning
delta = np.sqrt(complex(Gam - 1j * Delta) ** 2 - 2 * lam * Gam)


def gamma_A(t):
    """Exact time-local decay rate and Lamb-shift amplitude."""
    val = 2 * lam * Gam * np.sinh(delta * t / 2) / (
        delta * np.cosh(delta * t / 2) + (Gam - 1j * Delta) * np.sinh(delta * t / 2)
    )
    return val.real, val.imag


tlist = np.linspace(0, 5, 51)
rates = np.array([gamma_A(t)[0] for t in tlist])
print(f"rate range: [{rates.min():.3f}, {rates.max():.3f}]  "
      f"(negative on {np.mean(rates < 0) * 100:.0f}% of the grid)")

n_op = q.sigmap() @ q.sigmam()
H = q.QobjEvo([(n_op, lambda t: 0.5 * gamma_A(t)[1])])

# Exact reference: the master equation integrated with a hand-built
# (non-Lindblad) generator -- negative rates are fine there.
L = q.QobjEvo([
    (q.spre(n_op) - q.spost(n_op), lambda t: -0.5j * gamma_A(t)[1]),
    (q.lindblad_dissipator(q.sigmam()), lambda t: gamma_A(t)[0]),
])
psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
exact = q.mesolve(L, psi0.proj(), tlist, e_ops=[n_op])

res = q.nm_mcsolve(H, psi0, tlist, [(q.sigmam(), lambda t: gamma_A(t)[0])],
                   e_ops=[n_op], options={"ntraj": 1000, "seed": 1})

sigma_err = res.std_expect[0] / np.sqrt(res.ntraj_used)
dev = np.abs(res.expect[0] - exact.expect[0])
# Where no trajectory has jumped yet the sample std is zero and a 5 sigma band
# has no width.  There, seeing no event among ntraj bounds the event
# probability by ln(1/P(>5 sigma))/ntraj, and an event moves the population
# by at most 1.
band = np.where(res.std_expect[0] < 1e-6, np.log(1 / 5.733e-7) / res.ntraj_used,
                5 * sigma_err + 1e-12)
print("max deviation / band:", round(float(np.max(dev[1:] / band[1:])), 2))

# The average influence martingale estimates tr(rho) = 1: it is pinned to 1
# while gamma(t) >= 0 and fluctuates once negative rates have occurred.
print("martingale average at t =", tlist[::10].round(1).tolist())
print("                        ", np.round(res.trace[::10], 4).tolist())

# Completeness padding: a lone sigma- needs a second jump operator.
prep = q.nm_prepare([(q.sigmam(), lambda t: gamma_A(t)[0])])
print("padded operator count:", len(prep.ops), " alpha:", prep.alpha)
