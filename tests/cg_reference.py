"""Reference conjugate-gradient loop, allocating a new vector per update.

solve._preconditioned_cg updates x, r and p in place through one scratch
vector.  This is the loop it replaced, kept as an independent check: the
same steps with alpha p, alpha A p and z + beta p each formed as a new
vector, and p starting as the preconditioner's own result, so the two
must agree bit for bit.
"""

import numpy as np

from lattice_homog.errors import NoConvergence
from lattice_homog.solve import _backward_error, _error_scale


def preconditioned_cg(apply, b, precondition, norm, tol, cap, name, start=None,
                      energy_tol=0.0):
    """(x, steps, backward error, r.Mr), as solve._preconditioned_cg."""
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros_like(b), 0, 0.0, 0.0
    if start is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(start, dtype=b.dtype)
        r = b - apply(x)
    norm_r, scale = np.linalg.norm(r), _error_scale(x, norm_b, norm)
    if norm_r <= tol * scale:
        return x, 0, float(norm_r / scale), None
    z = precondition(r)
    p, rz = z, np.vdot(r, z)
    for step in range(cap):
        Ap = apply(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0 or rz <= 0:
            label, value = ("p.Ap", pAp) if pAp <= 0 else ("r.Mr", rz)
            stop = f"broke down at iteration {step} ({label} = {value:.3e} <= 0)"
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        met = np.linalg.norm(r) <= tol * _error_scale(x, norm_b, norm)
        if met and energy_tol <= 0:
            return x, step + 1, _backward_error(apply, x, b, norm), None
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        if met or 0 < rz <= energy_tol:
            return x, step + 1, _backward_error(apply, x, b, norm), rz
        p = z + (rz / rz_old) * p
    else:
        step, stop = cap, f"hit the {cap}-iteration cap"
    backward = _backward_error(apply, x, b, norm)
    if backward <= tol:
        return x, step, backward, rz
    raise NoConvergence(f"{name} {stop} (backward error {backward:.3e})", residual=backward)
