"""Warm starts and parallel search from several predictions.

A warm-started solver initialized at prediction p finds the hidden solution
s after max(1, ceil(d(p, s))) unit steps.  With k candidate predictions run
round-robin, the total work is exactly k times the best prediction's cost
-- without knowing which prediction is best.
"""

from warmstart import HiddenInstance, Point, origin, run_parallel_k_detail, search_steps

solution = Point.of(7.0, 1.0)
inst = HiddenInstance(day=1, features=origin(2), solution=solution, norm="L2")

preds = [Point.of(0.0, 0.0), Point.of(10.0, 1.0), Point.of(6.5, 1.5)]
print("hidden solution:", solution.coords)
for p in preds:
    print(f"  prediction {p.coords} would need {search_steps(p, solution)} steps alone")

found, total, winner, sweeps = run_parallel_k_detail(inst, preds)
best = min(search_steps(p, solution) for p in preds)
k = len(preds)
print(f"\nround-robin over k={k} predictions:")
print(f"  solved by prediction #{winner} after {sweeps} sweeps")
print(f"  total radius paid: {total}")
print(f"  guarantee: {total} == k * best = {k * best}")
