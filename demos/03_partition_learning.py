"""Routing instances to predictions with a learned partition.

Instead of running k predictions in parallel, learn a threshold rule on the
visible features that picks one center per instance.  Because clustering
labels are arbitrary, ERM runs over all k^k relabelings (rotations) of the
hypothesis outputs.
"""

from warmstart import (
    HiddenInstance,
    LabeledSample,
    Point,
    ThresholdClass,
    c_loss,
    compose,
    predict_and_solve,
    two_step_learn,
)

# feature x < 50 means the solution is near 0; x > 50 means near 200
data = []
for i in range(8):
    data.append(LabeledSample(Point.of(float(i)), Point.of(i * 0.1)))
    data.append(LabeledSample(Point.of(100.0 + i), Point.of(200.0 + i * 0.1)))

# The class is scored from one mask per split; only the winning tree is built.
hyps = ThresholdClass([s.features for s in data], k=2, depth=1)
h, phi, centers, _, _ = two_step_learn(hyps, data, k=2, norm="L1")
g = compose(h, phi)

print(f"hypothesis class size: {len(hyps)}")
print(f"chosen split: feature {h.feature_indices[0]} at {h.thresholds[0]}")
print(f"rotation applied: {phi}")
print("per-partition centers:", [c.coords for c in centers])
print("training loss:", round(c_loss(g, centers, data, 'L1'), 4))

inst = HiddenInstance(day=1, features=Point.of(103.0), solution=Point.of(200.55), norm="L1")
found, work = predict_and_solve(h, phi, centers, inst)
print(f"\nnew instance with feature 103.0 -> solved at {found.coords} "
      f"for {work} work units (single thread, no parallelism)")
