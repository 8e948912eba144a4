"""Evidence behind the acceptance gate's two known reds (criteria 7 and 10).

Criterion 7 asks the stacked Grenander to beat the minimax estimator in
mean l2 loss by more than 2 SE of the paired difference at n=300. On the
non-monotone M5 and M6 the two genuinely tie there; at n=20 the ordering
holds by a wide margin. Criterion 10 asks the sqrt(n)-scaled variance of
coordinate 1 to lie within 15% of p_1(1 - p_1). On the strictly decreasing
tri-dec:11 the stacked fits miss at n=1000; at n=100000 the ratios are 1
up to Monte-Carlo noise. Both cells stay red in the gate; this script only
shows the numbers at the pinned and at the revealing sample sizes, with
the gate's seeds and replication counts.

Run: python demos/known_reds.py   (a few seconds on 2 workers)
"""

import math

from stackpmf import (
    ExperimentConfig,
    TriangularDecreasing,
    builtin_models,
    pmf_truncate,
    run_loss_experiment,
    run_qq_samples,
)

models = builtin_models()

print("criterion 7: sG-vs-mm margin in SE of the paired l2-loss difference (1000 replications)")
for name in ("M5", "M6"):
    margins = []
    for n in (300, 20):
        cfg = ExperimentConfig(model=models[name], reps=1000, estimators=("mm", "sG"), norms=(2,),
                               n=n, seed=1007, workers=2)
        losses = run_loss_experiment(cfg).per_rep_losses[:, :, 0]
        diff = losses[:, 0] - losses[:, 1]
        margins.append(f"n={n}: {diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size)):6.2f}")
    print(f"  {name}  " + "   ".join(margins) + "   (gate: > 2 at n=300)")

model = TriangularDecreasing(11)
p1 = pmf_truncate(model, 1e-12).probs[1]
print("\ncriterion 10: tri-dec:11 coordinate-1 variance / p_1(1 - p_1) (1000 replications)")
for n in (1000, 100_000):
    cfg = ExperimentConfig(model=model, reps=1000, estimators=("e", "sr", "sG"), n=n, seed=1010, workers=2)
    samples = run_qq_samples(cfg, coord=1).qq_samples
    ratios = "  ".join(f"{code}={samples[code].var(ddof=1) / (p1 * (1 - p1)):.3f}" for code in cfg.estimators)
    print(f"  n={n:>6}: {ratios}   (gate: within 0.85-1.15 at n=1000)")
