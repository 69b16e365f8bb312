"""Quantum-jump unraveling: mcsolve vs the master equation.

Each trajectory evolves under the non-Hermitian effective Hamiltonian until
its squared norm crosses a random threshold, then jumps through a collapse
channel.  Averages converge to mesolve like 1/sqrt(ntraj); the improved
sampling option spends all but one trajectory on the jumpy part of the
ensemble.
"""

import numpy as np

import oqsim as q

eps, g, gamma = 1.0, 0.1, 0.1
I2 = q.qeye(2)
H = 0.5 * eps * (q.sigmaz() & I2) + 0.5 * eps * (I2 & q.sigmaz()) + g * (
    q.sigmax() & q.sigmax()
)
c_ops = [np.sqrt(gamma) * (q.sigmam() & I2), np.sqrt(gamma) * (I2 & q.sigmam())]
sz1 = q.sigmaz() & I2
psi0 = q.basis(2, 0) & q.basis(2, 0)
tlist = np.linspace(0, 40, 81)

exact = q.mesolve(H, psi0, tlist, c_ops=c_ops, e_ops=[sz1])

for ntraj in (100, 1000):
    res = q.mcsolve(H, psi0, tlist, c_ops=c_ops, e_ops=[sz1],
                    options={"ntraj": ntraj, "seed": 42, "improved_sampling": True})
    sigma_err = res.std_expect[0] / np.sqrt(res.ntraj_used)
    dev = np.abs(res.expect[0] - exact.expect[0])
    print(f"ntraj={ntraj:5d}: max deviation {dev.max():.4f}, "
          f"max dev / 5 sigma_err {np.max(dev[1:] / (5 * sigma_err[1:])):.2f}")

# The photocurrent property bins the jump record per output interval; its
# ensemble mean estimates gamma <sigma+ sigma-> channel by channel.
res = q.mcsolve(H, psi0, tlist, c_ops=c_ops, e_ops=[sz1],
                options={"ntraj": 500, "seed": 7})
print("channel-0 photocurrent, first bins:", np.round(res.photocurrent[0][:5], 4))

# Per-trajectory data: seeds make every run reproducible.
res2 = q.mcsolve(H, psi0, tlist, c_ops=c_ops, e_ops=[sz1],
                 options={"ntraj": 500, "seed": 7})
print("bit-identical rerun:", np.array_equal(res.expect[0], res2.expect[0]))

# Mixed initial states: trajectories are allotted per component.
mixture = [(q.basis(2, 0) & q.basis(2, 0), 0.5), (q.basis(2, 1) & q.basis(2, 1), 0.5)]
res3 = q.mcsolve(H, mixture, tlist, c_ops=c_ops, e_ops=[sz1],
                 options={"ntraj": 400, "seed": 3})
print("mixed-state initial <sz1>:", round(float(res3.expect[0][0]), 3))
