"""Construct the optimal measurement and check what it achieves.

Builds the four-outcome optimal POVM at one model point, prints its
measurement axes and mixture weights, verifies local unbiasedness of the
matching estimator, and compares the achieved weighted MSE against the
attainable (Nagaoka) bound and the unattainable naive SLD bound.

Run:  python3 demos/optimal_measurement.py
"""

import numpy as np

from qest import (
    ThetaParams,
    build_optimal_estimator,
    build_optimal_povm,
    classical_fisher,
    nagaoka_bound,
    sld_cr_bound,
    verify_locally_unbiased,
)

t = ThetaParams(0.6, 0.0, 0.3)
w = np.eye(2)

povm, plan = build_optimal_povm(t, w)
print("measurement axes (Bloch vectors) and mixture weights:")
for nhat, p in zip(plan.directions, plan.probabilities):
    print(f"  axis ({nhat[0]:+.4f}, {nhat[1]:+.4f}, {nhat[2]:+.4f})  "
          f"weight {p:.4f}")

estimator = build_optimal_estimator(t, w, povm)
report = verify_locally_unbiased(estimator)
print(f"\nlocal unbiasedness residuals: bias {report['bias_residual']:.2e}, "
      f"derivative {report['derivative_residual']:.2e}")

print("\noutcome -> estimate table:")
for label, est in zip(povm.labels, estimator.table):
    print(f"  {label:>2}: theta1_hat {est[0]:+.4f}, theta2_hat {est[1]:+.4f}")

j = classical_fisher(t, povm, 2)
achieved = float(np.trace(w @ np.linalg.inv(j)))
print(f"\nachieved weighted MSE  {achieved:.6f}")
print(f"attainable bound       {nagaoka_bound(t, w):.6f}")
print(f"naive SLD bound        {sld_cr_bound(t, 2, w):.6f}  (unattainable:")
print("no single measurement estimates both parameters at their individual")
print("optima; the gap is exactly 2 sqrt(det W G^-1))")
