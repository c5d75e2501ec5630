"""Learning k fixed predictions from past solutions.

When solutions cluster, the best k predictions are the k-medians of the
sample.  The exact learner enumerates all k-subsets of the sample; a local
search fallback covers sample sizes past the enumeration cap.
"""

import random

from warmstart import (
    HiddenInstance,
    Point,
    cost_of_centers,
    learn_centers_local_search,
    learn_centers_subset_erm,
    origin,
    run_parallel_k,
)

rng = random.Random(4)
# two clusters of past solutions around 0 and 100
sample = [Point.of(rng.uniform(-2, 2)) for _ in range(8)]
sample += [Point.of(100 + rng.uniform(-2, 2)) for _ in range(8)]

C = learn_centers_subset_erm(sample, 2, "L1")
print("exact 2-median centers:", [c.coords for c in C])
print("mean sample distance:  ", round(cost_of_centers(C, sample, "L1"), 3))

C_ls = learn_centers_local_search(sample, 2, "L1")
print("local-search centers:  ", [c.coords for c in C_ls])

tomorrow = Point.of(101.3)
inst = HiddenInstance(day=1, features=origin(1), solution=tomorrow, norm="L1")
found, radius = run_parallel_k(inst, list(C.centers))
print(f"\nnew day with solution {tomorrow.coords}: solved in total radius {radius}")
print("(a cold start from the origin would have paid about 102)")
