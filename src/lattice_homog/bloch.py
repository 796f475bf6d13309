"""Bloch symbol of a sub-periodic cell, and the FFT preconditioner built on it.

A cell of period T is a re-tiling of a base cell of period t | T when
shifting every node by t e_m, on every axis m, maps nodes onto nodes and
edge orbits onto orbits.  Node i is then base node base[i] of translate
dpos[i] // t in a (T/t)^d grid, and every orbit is one of the (T/t)^d
translates of a base orbit from base node a to base node b of the base cell
s away.  Giving each base orbit the mean weight of its translates makes a
reference Laplacian that commutes with the shifts, so the discrete Fourier
transform over the translate grid turns it into one n0 x n0 Hermitian
matrix per frequency theta, the symbol

    L0(theta) = sum_e w_e (delta_a - e^{i theta.s} delta_b)^* (delta_a - e^{i theta.s} delta_b)

(Floquet-Bloch theory; Kuchment, Bull. AMS 53, 2016).  Inverting it by FFT
is the constant-reference-medium step of FFT homogenization (Moulinec &
Suquet, CMAME 157, 1998), used here to precondition the corrector CG.  The
test for a sub-period reads the structure only, never the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative eigenvalue cut of each frequency's pseudo-inverse, against that
# frequency's largest eigenvalue: far above the roundoff of a zero
# eigenvalue (about n0 * 1e-16 of the largest) and far below the smallest
# nonzero one, which for a one-node base cell is the largest itself and
# otherwise the acoustic branch, about |theta|^2 of the optical ones, so a
# cut only past a million translates per axis.  At theta = 0 the constant
# mode is dropped outright: a one-node base cell has nothing else there to
# measure its rounding residue against.
PINV_RTOL = 1e-12


@dataclass(frozen=True)
class BaseCell:
    """The base cell of period t that a cell re-tiles, with mean weights.

    Node i of the cell sits at slot[i] = (flat translate) * n0 + base node
    of the translate-major grid; base orbit e joins base node a[e] to base
    node b[e] of the base cell shift[e] away and carries the mean weight of
    its translates.  rho is the least ratio of a cell orbit's weight to the
    mean weight of its base orbit, so L >= rho L_ref, L_ref the mean-weight
    reference Laplacian (rho <= 1, and 1 exactly when the translates of
    every base orbit share one weight).
    """

    t: int
    grid: tuple             # (T // t,) * d translates
    slot: np.ndarray
    a: np.ndarray
    b: np.ndarray
    shift: np.ndarray       # (E0, d)
    weight: np.ndarray
    rho: float

    @property
    def n0(self):
        return len(self.slot) // int(np.prod(self.grid))


def base_cell(op):
    """The BaseCell of the smallest t | T, t < T, that the cell of `op`'s
    graph re-tiles, or None; it reads the graph's node and orbit arrays.

    t qualifies when every base node (dpos mod t, kpos) and every base orbit
    (base u, base v, base-cell shift), taken in the orientation of the
    smaller of its two int64 keys, occurs exactly (T/t)^d times.  Nodes
    are distinct and orbits are distinct undirected edges, so each occurs
    at most once per translate, and the counts say that each occurs in
    every translate.
    """
    g = op.graph
    n, d = g.dpos.shape
    T = g.T
    if n == 0:
        return None
    kpos = g.kpos - g.kpos.min(axis=0)
    kdims = tuple(int(m) + 1 for m in kpos.max(axis=0))
    far = g.dpos[g.v] + T * g.offset
    for t in range(1, T):
        grid = (T // t,) * d
        copies = int(np.prod(grid))
        if T % t or n % copies:
            continue
        node_keys = np.ravel_multi_index(tuple((g.dpos % t).T) + tuple(kpos.T),
                                         (t,) * d + kdims)
        _, base, counts = np.unique(node_keys, return_inverse=True, return_counts=True)
        if np.any(counts != copies):
            continue
        n0 = len(counts)
        shift = far // t - g.dpos[g.u] // t
        reach = np.abs(shift).max(axis=0, initial=0)
        dims = (n0, n0) + tuple(int(r) * 2 + 1 for r in reach)
        forward = np.ravel_multi_index((base[g.u], base[g.v]) + tuple((shift + reach).T),
                                       dims)
        backward = np.ravel_multi_index((base[g.v], base[g.u]) + tuple((reach - shift).T),
                                        dims)
        keys, orbit, counts = np.unique(np.minimum(forward, backward),
                                        return_inverse=True, return_counts=True)
        if np.any(counts != copies):
            continue
        a, b, *s = np.unravel_index(keys, dims)
        translate = np.ravel_multi_index(tuple((g.dpos // t).T), grid)
        weight = np.bincount(orbit, weights=g.w, minlength=len(keys)) / copies
        return BaseCell(t, grid, translate * n0 + base, a, b,
                        np.column_stack(s).reshape(-1, d) - reach, weight,
                        float(np.min(g.w / weight[orbit], initial=1.0)))
    return None


def symbol(cell, theta):
    """L0(theta) for each row of `theta` (F, d): an (F, n0, n0) Hermitian stack."""
    n0 = cell.n0
    phase = np.exp(1j * (np.asarray(theta, dtype=float) @ cell.shift.T))
    w = cell.weight
    out = np.zeros((len(phase), n0, n0), dtype=complex)
    every = slice(None)
    np.add.at(out, (every, cell.a, cell.a), w)
    np.add.at(out, (every, cell.b, cell.b), w)
    np.add.at(out, (every, cell.a, cell.b), -w * phase)
    np.add.at(out, (every, cell.b, cell.a), -w * phase.conj())
    return out


class FFTPreconditioner:
    """r -> L_ref^+ r for the mean-weight reference Laplacian of a BaseCell.

    rfftn over the translate grid, one n0 x n0 product per frequency with
    the pseudo-inverse of L0(theta), irfftn back; for a one-node base cell
    (n0 = 1) the symbol is real and 1 x 1, and the product is a real scale
    per frequency, taken in place.  The transforms are numpy's own 1-D
    passes in the order numpy 2's rfftn and irfftn take them, so the result
    is theirs bit for bit without their n-d wrappers: forward, rfft along
    the last grid axis, then fft along the other grid axes in reverse order;
    back, ifft along the leading grid axes in forward order, then irfft.
    The complex passes run in place (the `out` argument of numpy 2's fft)
    on the one spectrum a call allocates, and r is only read.  Vectors are
    laid out grid axes first and base node last, which for a t = 1
    re-tiling is the cell's own node order, so no gather is needed there.
    The pseudo-inverse drops the constant mode at theta = 0, zero in exact
    arithmetic, so it maps to an exact zero whatever the sign of its
    rounding residue, and every other eigenvalue at or below PINV_RTOL
    times its frequency's largest.  `rho` is the base cell's: L >= rho
    L_ref, and L and L_ref share their kernel (the same edges carry
    positive weights in both), so r^T L^+ r <= r^T L_ref^+ r / rho for
    every r.
    """

    def __init__(self, cell):
        self.t, self.n0, self.grid, self.rho = cell.t, cell.n0, cell.grid, cell.rho
        d = len(self.grid)
        K = self.grid[0]
        freqs = [2.0 * np.pi * np.fft.fftfreq(K)] * (d - 1) + [2.0 * np.pi * np.fft.rfftfreq(K)]
        theta = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1)
        # Pseudo-inverse of each symbol through its real form [[Re, -Im], [Im, Re]],
        # whose pseudo-inverse is the real form of the symbol's: LAPACK's real
        # symmetric solver pages in under a fifth of the complex one's code.
        sym = symbol(cell, theta.reshape(-1, d))
        vals, vecs = np.linalg.eigh(np.block([[sym.real, -sym.imag], [sym.imag, sym.real]]))
        keep = vals > PINV_RTOL * vals[:, -1:]
        keep[0, :2] = False     # theta = 0: the constant mode, Re and Im
        inverse_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
        real = (vecs * inverse_vals[:, None, :]) @ vecs.transpose(0, 2, 1)
        n0, shape = self.n0, theta.shape[:-1]
        if n0 == 1:
            self.inverse = np.ascontiguousarray(real[:, 0, 0]).reshape(shape + (1,))
        else:
            inverse = real[:, :n0, :n0] + 1j * real[:, n0:, :n0]
            self.inverse = inverse.reshape(shape + (n0, n0))
        identity = np.array_equal(cell.slot, np.arange(len(cell.slot)))
        self.slot = None if identity else cell.slot
        self.order = None if identity else np.argsort(cell.slot)
        for a in (self.inverse, self.slot, self.order):
            if a is not None:
                a.flags.writeable = False

    def __call__(self, r):
        last = len(self.grid) - 1
        x = r if self.order is None else r[self.order]
        spectrum = np.fft.rfft(x.reshape(self.grid + (self.n0,)), axis=last)
        for axis in range(last - 1, -1, -1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        if self.n0 == 1:
            spectrum *= self.inverse
        else:
            spectrum = np.einsum("...ab,...b->...a", self.inverse, spectrum)
        for axis in range(last):
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        y = np.fft.irfft(spectrum, self.grid[-1], axis=last).reshape(-1)
        return y if self.slot is None else y[self.slot]


def fft_base_cell(op):
    """The BaseCell of `op`'s smallest sub-period when an FFTPreconditioner
    is built on it, or None.

    None also when the base cell has more nodes than there are translates
    (n0^2 > n): the dense per-frequency blocks then hold about n * n0 / 2
    entries, more than n^(3/2) / 2.
    """
    cell = base_cell(op)
    return None if cell is None or cell.n0 ** 2 > len(cell.slot) else cell
