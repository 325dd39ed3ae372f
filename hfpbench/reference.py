"""The minimum-norm point of Fix(T) ∩ C on ``dykstra_power``, by SLSQP.

    python3 hfpbench/reference.py < problem.json

reads ``{"a", "e", "t0", "center", "radius"}`` and prints the point as a
JSON list, or ``null`` if scipy is not installed.
``checks.scipy_min_norm_point`` runs it in a child process, so scipy never
enters the memory of the measured process.
"""
import json
import sys

import numpy as np


def min_norm_point(a, e, t0: float, center, radius: float):
    """argmin ||x|| subject to <a, x> = 0, <e, x> >= t0 and ||x - center|| <= radius;
    ``None`` if SLSQP does not converge."""
    from scipy.optimize import minimize

    a, e, center = (np.asarray(v, dtype=float) for v in (a, e, center))
    cons = [
        {"type": "eq", "fun": lambda x: float(np.dot(a, x))},
        {"type": "ineq", "fun": lambda x: float(np.dot(e, x)) - t0},
        {"type": "ineq", "fun": lambda x: radius**2 - float(np.sum((x - center) ** 2))},
    ]
    res = minimize(
        lambda x: float(np.dot(x, x)),
        center,
        jac=lambda x: 2.0 * x,
        constraints=cons,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 200},
    )
    return res.x if res.success else None


def main() -> int:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        print("null")
        return 0
    point = min_norm_point(**json.load(sys.stdin))
    if point is None:
        print("SLSQP did not converge", file=sys.stderr)
        return 1
    print(json.dumps(point.tolist()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
