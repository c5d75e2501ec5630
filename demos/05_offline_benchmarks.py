"""Exact offline benchmarks: k-server optimum and best k trajectories.

The offline k-server optimum (minimum total movement serving every day's
solution) comes from a dynamic program over where the servers stand for
k <= 3, exact to the bit, and from a least-cost path cover of the requests
beyond, within a few ulps.  The best k-trajectory cost (hit + movement,
predictions restricted to the solutions and the origin) is one DP
over the days and the placements of the k trajectories, at any T for k = 1
and up to T = 8, k = 3 beyond; it returns the cost only, not a schedule.
The two sandwich each other within a factor of two.  Both are values of one
distance table over the origin and the solutions, the table a ``Scenario``
holds as ``distances``; a repeated solution is one more row of it.
"""

import random

from warmstart import (
    Point,
    WorkFunctionState,
    brute_force_best_trajectories,
    distance_matrix,
    offline_opt_kserver,
    origin,
    wfa_step,
)

rng = random.Random(12)
# days alternate between two regions, with jitter
sols = [
    Point.of((0.0 if t % 2 == 0 else 60.0) + rng.uniform(-2, 2)) for t in range(6)
]
print("solutions:", [round(s[0], 2) for s in sols])
points = [origin(1)] + sols  # index t is day t, as in Scenario.points
D = distance_matrix(points, "L1")

for k in (1, 2, 3):
    server = offline_opt_kserver(D, [k])[0]
    traj = brute_force_best_trajectories(D, k)
    print(
        f"k={k}: kserver optimum {server:7.2f}   "
        f"trajectory optimum {traj:7.2f}   "
        f"(sandwich: traj <= server <= 2*traj)"
    )

print("\nonline work-function algorithm with 2 servers:")
state = WorkFunctionState(2, 1, "L1")
moved = 0.0
for t, s in enumerate(sols, 1):
    idx, move = wfa_step(state, s)
    moved += move
    print(f"  day {t}: request {s[0]:7.2f} -> server {idx} moves {move:6.2f}")
print(f"total online movement: {moved:.2f}  "
      f"vs offline optimum {offline_opt_kserver(D, [2])[0]:.2f}")
