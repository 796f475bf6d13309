"""Every solve of the package, and the one function that chooses each route.

_corrector_route chooses the route of the cell corrector (cell.py) by
predicted cost, once per operator: banded Cholesky of the quotient
Laplacian in fold order (cell_band, band_correctors, quotient_solve), or
FFT-preconditioned CG.  A pinned system comes as a FreeBlock, the pairs
of its free block A_ff from one pass over its edges, with the canonical
CSR built only when a route asks for it.
pinned_solve solves a PinnedProblem's system by one of three routes,
chosen in one function (_pinned_route), which builds the box of its free
positions (_Box) once: banded Cholesky in position order (_Band), filled
straight from the pairs, for d = 1, for small systems (band_first) and for
large ones of widely spread couplings, and, for large systems in d >= 2,
conjugate gradients from the given values (_cg_solve), stopped on a
backward-error test and preconditioned either by the inverse of the
system's mean-weight reference on its box by sine transforms
(_SineReference) or by a smoothed-aggregation V-cycle whose aggregates
are boxes of positions (_Multigrid).  The window value alone has the sine
route start from the two-scale field and stop on a certified energy bound
where the reference is edgewise below A_ff (_SineReference.certificate).
columns_solve solves the grounded Laplacians of the local harnesses
(graph.grounded_solve), many columns on one factor: by the same band, or
by SuperLU when the band work is above a measured crossover.
_preconditioned_cg is the package's one conjugate-gradient loop: the two
CG pinned routes, the continuum grid of bvp and the cell corrector's FFT
route (cell.solve_corrector) run it.
The module imports nothing from graph, and scipy only where it calls it.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property

import numpy as np

from .errors import NoConvergence

_log = logging.getLogger("lattice_homog")
_EPS = float(np.finfo(float).eps)

# The cost model of _corrector_route, in seconds (its docstring has the sweep)
_BAND_SECONDS = 8.5e-11     # per n (width + 1)^2 of the band factor
_STEP_SECONDS = 4e-5        # per FFT-PCG step on one axis, plus
_STEP_NLOGN_SECONDS = 1.45e-9   # per n log2(n) of that step
_STEPS_AT_RHO_1 = 8.5       # FFT-PCG steps per axis: 8.5 rho^-0.6
_STEPS_POWER = 0.6


def _corrector_route(op):
    """The corrector route of the PeriodicOperator `op` (cell.py), "band" or
    "fft", by the predicted seconds of one tensor's solves; the operator
    calls it once (PeriodicOperator.route).

    The band (band_correctors) factors L in fold order (cell_band) once,
    about n (width + 1)^2 work, and is taken only when its storage,
    (width + 1) n doubles, fits in _BAND_MAX_BYTES.  FFT-PCG (cell.py) costs
    d axes times steps(rho) steps, each a product with L and an FFT pair,
    about n log2 n work plus a fixed cost, and its steps grow as the base
    cell's rho (bloch.BaseCell) falls: steps(rho) = 8.5 rho^-0.6, fitted
    to the energy-stopped steps of R(T) and KD(T, c) below.  The band is
    plainly cheaper when it beats FFT-PCG at rho = 1, the fewest steps:
    then no base cell is sought and no FFT preconditioner is built.  The
    rule reads the band's width alone (PeriodicOperator.band_width), so a
    cell that takes the FFT route fills no band.  Otherwise a cell that
    re-tiles no smaller one (bloch.fft_base_cell is None) takes the band
    when its storage fits, and else the FFT route with no preconditioner:
    CG with the mean projection alone (cell.solve_corrector), whose memory
    grows only as n, and which certifies no energy error.

    The sweep behind the constants: one tensor's solves on a fresh graph,
    in ms, best of 7 on a 2-vCPU x86 host with one BLAS thread: the band
    (its factor, the d solves and the error bound) and FFT-PCG (the d axis
    solves with the energy stop, their steps summed), each next to the
    rule's prediction.  R(T) is the random square cell of the tests
    (U(0.5, 2) weights), KD(T, c) the log-uniform one of contrast c, S(P)
    the two-rail strip with no sub-period, cube x T the 2 x 2 x 2 cube of
    the tests re-tiled to period T and L2 x 48 the layered lattice re-tiled,
    whose B = 0 leaves nothing to factor or iterate, which the rule does
    not look at; "cap" marks a band over _BAND_MAX_BYTES:

        cell         n       width  rho       steps  band  predicted  FFT    predicted  route
        R(16)        256     32     0.395     26     0.5   0.0        2.2    1.3        band
        R(32)        1 024   64     0.398     26     1.8   0.4        1.8    1.6        band
        R(48)        2 304   96     0.399     26     2.7   1.8        3.8    2.3        band
        R(64)        4 096   128    0.401     28     6.2   5.8        3.4    3.3        fft
        R(96)        9 216   192    0.4       28     20.0  29.2       6.1    6.4        fft
        R(128)       16 384  256    0.4       28     51.9  92.0       11.1   11.0       fft, cap
        KD(64,3)     4 096   128    0.276     44     6.2   5.8        5.0    4.1        fft
        KD(64,10)    4 096   128    0.0471    134    6.1   5.8        14.0   11.8       band
        KD(64,100)   4 096   128    0.000949  1009   5.9   5.8        106.8  123.2      band
        KD(128,100)  16 384  256    0.000911  1092   80.0  92.0       619.7  422.6      fft, cap
        cube x 8     512     128    0.391     20     1.6   0.7        3.1    2.1        band
        cube x 12    1 728   288    0.391     20     8.8   12.3       4.2    3.0        fft
        L2 x 48      4 608   196    1         0      0.0   15.2       0.3    2.1        fft
        S(4096)      8 192   4      -         -      2.3   0.0        -      -          band

    The band's time grows more slowly than n (width + 1)^2 at these widths
    (the factor's blocked kernels speed up as the band widens), so the rule
    overrates it on wide bands, where FFT-PCG wins anyway, and underrates
    it on narrow ones, where the band wins anyway.  The cap sends
    KD(128, 100) to FFT-PCG at 8 times the band's time, for 34 MB less
    memory.  FFT-PCG also builds its preconditioner once per operator
    (1.8 ms at R(64)), the band its ordering (0.6 ms); the rule counts
    neither.
    """
    n, d = op.B.shape
    rows = op.band_width + 1
    band = _BAND_SECONDS * n * rows * rows if rows * n * 8 <= _BAND_MAX_BYTES else math.inf
    step = d * (_STEP_SECONDS + _STEP_NLOGN_SECONDS * n * math.log2(max(n, 2)))
    fewest = _STEPS_AT_RHO_1 * step     # FFT-PCG at rho = 1
    if band <= fewest:      # seeks no base cell
        return "band"
    if op.base_cell is None:
        return "band" if band < math.inf else "fft"
    return "fft" if fewest * op.base_cell.rho ** -_STEPS_POWER < band else "band"


def cell_band(block, positions, T):
    """The _Band of a periodic cell's quotient Laplacian, the FreeBlock
    `block` of all its vertices, with node d-positions `positions` in
    [0, T): ordered by position with every axis visited in fold order
    0, T-1, 1, T-2, ..., so that a link that wraps around the cell joins
    positions as near in the order as any other link does."""
    return _Band(block, _fold_box(positions, T))


def cell_band_width(a, b, positions, T):
    """The width of cell_band's band for the couplings between vertices a[e]
    and b[e] (graph._couplings), from the order alone: no band is filled."""
    n = len(positions)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(_position_key(_fold_box(positions, T)), kind="stable")] = np.arange(n)
    return int(np.abs(rank[a] - rank[b]).max(initial=0))


def _fold_box(positions, T):
    """The _Box of positions in [0, T) with every axis in fold order."""
    return _Box(np.where(2 * positions < T, 2 * positions, 2 * (T - 1 - positions) + 1))


def band_correctors(band, L, B):
    """(X, errors) of the cell corrector's band route for the quotient
    Laplacian L, its _Band `band` (cell_band) and B (n, d): quotient_solve
    of the d columns mean B - B on one factor, X the axis correctors.  B = 0
    gives exact zeros and factors nothing."""
    n, d = B.shape
    if not B.any():
        return np.zeros((n, d)), np.zeros(d)
    return quotient_solve(band, L, B.sum(axis=0) / n - B)


def quotient_solve(band, L, rhs):
    """(X, errors) for the quotient Laplacian L, its _Band `band` (cell_band)
    and right-hand sides rhs (n, k) that sum to zero on every connected
    component of the quotient: X with L X = rhs, each column mean-zero on
    every component, and errors[m] = r_m^T L^+ r_m for the residual r_m of
    column m, its energy error.

    One vertex per component, its first, is grounded: held at zero, which
    leaves a positive definite system (the grounded block of L), factored
    once (band.factor).  The k columns are solved on it, then each
    component's mean is removed, and the same factor gives
    r_f^T A_ff^-1 r_f, which is r^T L^+ r for a residual that sums to zero
    on every component.
    """
    import scipy.sparse.csgraph as csgraph
    labels = csgraph.connected_components(L, directed=False)[1]
    grounded = np.unique(labels, return_index=True)[1]
    factor = band.factor(grounded)
    free = rhs.copy()
    free[grounded] = 0.0
    X = band.inverse(factor, free)
    sizes = np.bincount(labels)
    for column in X.T:
        column -= (np.bincount(labels, column) / sizes)[labels]
    R = L @ X - rhs
    R[grounded] = 0.0
    return X, np.einsum("im,im->m", R, band.inverse(factor, R))


class FreeBlock:
    """The free block A_ff of a pinned system, as the pairs of its couplings
    in free-vertex order (graph.PinnedProblem and graph.grounded_solve build
    it in one pass over the edges): the two ends i and j (i != j) and the
    entry off = -coef of each edge between free vertices, an edge of a
    repeated pair adding to it, and the diagonal `diag`.  Index arrays are
    int32 when the matrix fits them.  `pinned`, None until the builder sets
    it (graph.PinnedProblem does), is the sum of each free vertex's
    couplings to pinned vertices, which the sine route's energy certificate
    reads.  `matrix` is the canonical CSR, built on first use: the sine and
    multigrid routes, SuperLU and coarse.check_poincare's eigensolve read
    it, the band reads the pairs (`pairs`)."""

    def __init__(self, i, j, off, diag):
        self.i, self.j, self.off, self.diag, self.pinned = i, j, off, diag, None

    @cached_property
    def matrix(self):
        """The CSR of A_ff: one COO to CSR conversion of the pairs, both
        ways, and the diagonal, which sums repeated pairs in the order in
        which graph.laplacian sums them (the pairs with the row as first
        end, then those with it as second end) and copies no index array.
        The CSR replaces the pairs, which are dropped (`pairs`)."""
        import scipy.sparse as sp
        nf, i, j, off = len(self.diag), self.i, self.j, self.off
        diagonal = np.arange(nf, dtype=i.dtype)
        A = sp.csr_matrix((np.concatenate([off, off, self.diag]),
                           (np.concatenate([i, j, diagonal]),
                            np.concatenate([j, i, diagonal]))), shape=(nf, nf))
        self.i = self.j = self.off = None
        return A

    def pairs(self):
        """(i, j, off): the pairs, or, once `matrix` has replaced them, its
        strict lower triangle, one pair per entry.  The CSR has summed the
        repeated pairs in the order in which _Band sums them, so _Band
        fills the same band from either, bit for bit."""
        if self.i is not None:
            return self.i, self.j, self.off
        A = self.matrix
        rows = np.repeat(np.arange(len(self.diag), dtype=A.indices.dtype), np.diff(A.indptr))
        lower = np.flatnonzero(A.indices < rows)
        return rows[lower], A.indices[lower], A.data[lower]


def band_first(n, d):
    """Whether a pinned system of n free rows in d dimensions takes the band
    without a look at its couplings (_pinned_route): d = 1 or fewer than
    _MG_MIN_DOFS rows.  PinnedProblem.solve asks it before assembly, so that
    the band route builds no sparse matrix."""
    return d == 1 or n < _MG_MIN_DOFS


def pinned_solve(block, rhs, start, positions, certified=None):
    """x with A x = rhs, for the FreeBlock `block` of A_ff and the rhs of a
    pinned problem (PinnedProblem), symmetric positive definite, and the
    free vertices' d-positions `positions`.

    The one pinned solve of the package (window, Dirichlet).  It takes one
    of three routes, chosen by _pinned_route from what the system shows:
    its size, its box of positions and the spread of its couplings.
    - Band: banded Cholesky in position order (_Band).  Ordered by
      position, A is a band one slice of the box across its longest axis
      wide, and its Cholesky factor has no fill outside the band.
    - Sine: conjugate gradients preconditioned by the inverse of the
      system's mean-weight reference on its box (_SineReference), two
      sine transforms as dense products per step.
    - Multigrid: conjugate gradients preconditioned by a smoothed-
      aggregation V-cycle (_Multigrid).
    Both CG routes (_cg_solve) start from `start` (zeros when None) and stop
    at a backward error of _CG_TOL; a cap of _MG_MAX_STEPS steps raises
    NoConvergence naming the route, with the backward error reached.
    `certified`, a function returning (start, c) that only the window value
    passes (asymptotic.finite_window_value, through PinnedProblem.solve),
    makes the sine route start from that start instead and also stop once
    the energy error is at most eps c, where its reference certifies
    A >= rho Ref (_SineReference.certificate); every other route, and the
    sine route where the reference cannot certify it, never calls it.  Each route logs
    one line to the `lattice_homog` logger at debug level (_log_solve); the
    band computes its backward error only when that level is enabled.

    The band grows as the box's cross-section, so the factor costs about
    n x width^2; the multigrid steps do not grow with the system, and
    neither do the sine steps, but a sine step costs about 4 (sum of the
    sides) flops per dof.  Both CG routes take more steps as the couplings
    spread, the sine route far more.  One solve of the R4 window at
    z = (1, 1) (R4 of the tests: R(4), one vertex per position), of the L2
    Dirichlet problem (two per position) and of KD(4, c) windows at
    z = (1, 1) (log-uniform weights of contrast c), in ms (the better of two
    best-of-7 runs on a 2-vCPU x86 host with one BLAS thread): the assembly
    (reduced_system), the band route, the multigrid set-up and CG with their
    levels and steps, and the sine route (set-up and CG) with its steps and
    the coupling spread (the band route was not run at K = 64, where its
    band storage alone is 112 MB):

        problem          free dofs  assembly  band  set-up  CG    levels, steps  sine  steps  spread
        R4 window K=24   5 329      0.7       4.4   2.0     4.4   3, 17          3.3   16     3.26
        R4 window K=32   11 025     1.2       13.4  3.6     8.8   3, 16          7.6   15     3.26
        R4 window K=48   28 561     3.0       60.1  8.1     19.0  4, 16          22.4  15     3.26
        R4 window K=64   54 289     5.7       -     15.5    36.9  5, 16          48.9  15     3.26
        L2 eps=1/64      7 938      1.1       10.9  2.8     9.9   3, 25          4.4   10     1
        KD(4,3) K=32     11 025     1.2       13.4  3.9     10.2  3, 18          11.1  23     6.87
        KD(4,5) K=32     11 025     1.2       13.2  3.9     11.3  3, 21          15.0  33     17
        KD(4,10) K=32    11 025     1.3       13.4  3.7     13.1  3, 26          22.6  53     57.9
        KD(4,100) K=26   6 561      0.9       6.0   2.4     21.1  3, 74          44.1  237    3 030

    The router sends the first row to the band, the next four to the sine
    route and the KD rows to the band.  SuperLU, which no pinned problem
    runs any more (only columns_solve's grounded fallback does), took 9.1,
    20.8 and 27.7 ms on the first, second and fifth rows by the same
    method.  CG starts from the given values of the free vertices: the
    affine field on a window, which leaves only the corrector to find (20
    multigrid steps from zero on R4, 86 on KD(4, 100)), and zeros in the
    Dirichlet problem.  The window value runs the sine route from the
    two-scale field, which leaves only the boundary layer, with the
    certified stop.  The sine windows above by a later run of the same
    method, the KD ones with the spread cap lifted: the sine route as
    timed above (residual stop, affine start) and as the window value runs
    it, in ms, with their steps and rho:

        window           residual  steps  certified  steps  rho
        R4 K=32          6.2       15     4.6        9      0.516
        R4 K=48          19.6      15     13.7       9      0.515
        R4 K=64          42.5      15     29.9       9      0.515
        KD(4,3) K=32     8.9       23     6.3        14     0.366
        KD(4,5) K=32     11.9      33     8.7        21     0.2
        KD(4,10) K=32    19.1      53     13.8       37     0.0791

    The CG solutions agree with SuperLU to 5.5e-13 in max-norm relative
    (2.3e-11 at contrast 100), the band solutions to about 1e-12.  At
    contrast 2 the band and multigrid times break even near 10 000 free
    dofs (R4 windows from K = 26 to 32).
    """
    x = _pinned_route(block, positions)(rhs, start, certified)
    if not np.all(np.isfinite(x)):
        raise NoConvergence("pinned solve produced non-finite values")
    return x


# The sine route's steps grow with the coupling spread, and each costs
# about 4 (sum of the box sides) flops per dof more than a multigrid step.
# On KD(4, c) windows it broke even with multigrid near spread 17 at K = 32
# (pinned_solve's table) and near 7 at K = 48 (34.0 against 32.6 ms at
# spread 6.87), and on R4 windows near a side of 240 (K = 64: 233, sine
# 56.9 against multigrid 58.8 ms; K = 80: 297, 110.5 against 96.0 ms).
_SINE_MAX_SPREAD = 6.0      # coupling spread up to which the sine route runs
_SINE_MAX_SIDE = 240        # longest box side (positions) of the sine route
# A system whose spread is too wide for the sine route goes to the band
# when its band storage, (width + 1) x n doubles, fits in this: KD(4, c)
# windows up to K = 37.  The band beat multigrid at K = 32 from c = 5 and
# lost at K = 48 up to c = 10 (62 against 37 ms).
_BAND_MAX_BYTES = 2 ** 24


def _pinned_route(block, positions):
    """The route of pinned_solve for the FreeBlock `block` with free
    d-positions `positions`: the function (rhs, start, certified) -> x that
    solves A x = rhs by it, with the positions' _Box, built here once, and
    the _SineReference, when one was built, bound.

    band_first systems go to the band without a look at the system or a
    sparse matrix.  Every larger system builds its CSR (block.matrix) and
    its sine reference, which also measures the coupling spread, and takes
    the sine route when the reference is positive definite, the spread at
    most _SINE_MAX_SPREAD and the longest side at most _SINE_MAX_SIDE.
    Given `certified`, the sine route calls it where the reference
    certifies its bound (_SineReference.certificate) and runs CG from the
    start and with the energy stop of the energy c that it returns; it
    ignores `certified` otherwise, as every other route does.  Failing
    that, a system whose spread exceeds _SINE_MAX_SPREAD, where the CG
    steps of both iterative routes grow, goes to the band (from the same
    pairs, FreeBlock.pairs) when its band storage fits in _BAND_MAX_BYTES,
    and every other one to multigrid: boxes with uneven positions, singular
    references, long sides and large high-contrast systems.
    """
    n, d = positions.shape
    box = _Box(positions)
    reference, band = None, band_first(n, d)
    if not band:
        A = block.matrix
        reference = _SineReference.build(A, box)
        if reference is not None and reference.spread > _SINE_MAX_SPREAD:
            band = (reference.band_width() + 1) * n * 8 <= _BAND_MAX_BYTES
        elif (reference is not None and max(reference.shape) <= _SINE_MAX_SIDE
              and reference.invert()):
            def sine(rhs, start, certified):
                rho = None if certified is None else reference.certificate(block.pinned, box)
                start, energy = (start, 0.0) if rho is None else certified()
                return _cg_solve(A, rhs, start, box, reference, reference, "sine", rho, energy)
            return sine
    if band:
        return lambda rhs, start, certified: _Band(block, box).solve(rhs, reference)
    return lambda rhs, start, certified: _cg_solve(A, rhs, start, box, reference,
                                                   _Multigrid(A, box), "multigrid")


# Band work (width + 1) x rows x columns above which columns_solve leaves
# the band for SuperLU (its sweep is in columns_solve's docstring).
_BAND_MAX_WORK = 2 ** 24


def columns_solve(block, rhs, positions):
    """X (n, k) with A X = rhs for the FreeBlock `block` of a grounded
    Laplacian (graph.grounded_solve), symmetric positive definite, with the
    free vertices' d-positions `positions`: every column on one factor.

    The band (_Band) solves it when its work (width + 1) x n x k is at most
    _BAND_MAX_WORK.  Above that, SuperLU factors block.matrix with its
    columns ordered by minimum degree on the pattern of A + A^T (George &
    Liu, 1981) instead of its default COLAMD, which does not use the
    symmetry, and its supernodal solve of many columns wins.  Either logs
    one debug line, with a backward error computed only at that level;
    SuperLU's gives the nonzeros.  The solve of the largest region of each
    harness, in ms (best of 7, of 2 at R(24) and R(32), on a 2-vCPU x86
    host with one BLAS thread), by the band and by SuperLU, with its free
    rows, columns, band width and band work in millions; R(T) is the
    random square lattice of the tests (one vertex per position), L2 x8 is
    normalize_period(L2, 8) (two per position) and cube x2 the d = 3 cube
    of the tests re-tiled to period 4 (64 nodes):

        harness     graph    rows    cols  width  work     band    SuperLU
        two-conn.   R(4)     139     1     10     0.002    0.07    0.24
        P-W         R(4)     99      16    10     0.017    0.10    0.22
        two-conn.   R(8)     659     1     22     0.015    0.20    1.41
        P-W         R(8)     483     64    22     0.711    1.45    2.05
        two-conn.   R(12)    1 563   1     34     0.055    0.57    2.81
        P-W         R(12)    1 155   144   34     5.82     8.03    8.04
        two-conn.   R(16)    2 851   1     46     0.134    1.51    4.39
        P-W         R(16)    2 115   256   46     25.4     38.1    24.6
        two-conn.   R(24)    6 579   1     70     0.467    3.99    11.2
        P-W         R(24)    4 899   576   70     200      191     152
        two-conn.   R(32)    11 843  1     94     1.13     9.49    19.4
        P-W         R(32)    8 835   1 024 94     859      854     533
        two-conn.   L2 x8    1 319   1     46     0.062    0.67    4.55
        P-W         L2 x8    967     128   46     5.82     8.28    16.2
        two-conn.   cube x2  1 399   1     100    0.141    1.10    18.8
        P-W         cube x2  999     64    100    6.46     4.94    16.1

    The band wins or ties up to 6.5 million and SuperLU wins from 25
    million, so 2^24 (16.8 million) separates every point.  SuperLU's fill
    is small on the one-vertex grids of R(T), where the two break even near
    R(12); at the same work the L2 and cube regions favour the band two to
    three times.
    """
    box = _Box(positions)
    band = _Band(block, box)
    if (band.width + 1) * rhs.size <= _BAND_MAX_WORK:
        X = band.solve(rhs)
    else:
        import scipy.sparse.linalg as spla
        A = block.matrix
        X = spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A").reshape(rhs.shape)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("superlu: free dofs %d, nnz %d, backward error %.3e", len(rhs), A.nnz,
                       _backward_error(A.dot, X, rhs, spla.norm(A, np.inf)))
    if not np.all(np.isfinite(X)):
        raise NoConvergence("grounded solve produced non-finite values")
    return X


class _Box:
    """The bounding box of a pinned system's free d-positions (n, d), which
    every route reads: the offsets from its low corner as one contiguous
    column per axis (a reduction along the rows' short axis is several
    times slower), and its sides `shape`."""

    def __init__(self, positions):
        self.positions = positions
        self.columns = [np.array(column) for column in positions.T]
        for column in self.columns:
            column -= column.min()
        self.shape = tuple(int(column.max()) + 1 for column in self.columns)


def _log_solve(route, box, reference, detail, backward):
    """The debug line of one pinned solve: route, free dofs, box, kinds and
    spread (- where not measured), the route's `detail` and backward error."""
    kinds = spread = "-"
    if reference is not None:
        kinds, spread = reference.kinds, f"{reference.spread:.3g}"
    _log.debug("%s: free dofs %d, box %s, kinds %s, spread %s, %s, backward error %.3e",
               route, len(box.positions), "x".join(map(str, box.shape)), kinds, spread,
               detail, backward)


class _SineReference:
    """The mean-weight reference of a pinned system A = A_ff on its box of
    positions, and its inverse by sine transforms, as a map r -> M r.

    The reference applies when the free vertices fill the bounding box of
    their d-positions (sides `shape`) with the same number `kinds` at every
    position.  A vertex's kind is its rank among the free vertices at its
    position in vertex order, which is node order in a window or a box of
    positions.  The couplings -a_ij of A's upper triangle fall in classes
    by the kind pair {k_i, k_j} and the absolute shift |p_j - p_i| per axis;
    `spread` is the largest ratio of a coupling to its class mean over the
    smallest (inf when a coupling is not positive).  The reference is the
    translation-invariant operator with each class's mean coupling per
    pair of positions, its Bloch symbol averaged over the reflections of
    each axis (Moulinec & Suquet, CMAME 157, 1998, for the mean-weight
    reference; Concus & Golub, SIAM J. Numer. Anal. 10, 1973, for the sine
    preconditioner): at the sine frequency theta_m = pi j / (N_m + 1),
    with W the class sum over the position pairs of its shift in the box
    (prod_m (N_m - |s_m|)), counted from both ends when k_i = k_j,

        M_ab(theta) = delta_ab sum_{classes of a} W
                      - sum_{classes {a, b}} W prod_m cos(theta_m s_m).

    The orthonormal sine transform of the box diagonalizes it exactly for
    bonds along an axis, with zero values outside the box, the pinned
    ones; longer and diagonal bonds take their reflection-even part.  Each
    M(theta) is an average of Bloch symbols of a Laplacian with positive
    couplings, so it is positive semidefinite; `invert` inverts its
    kinds x kinds blocks once and says whether they are all positive
    definite.  One application is two sine transforms of the grid, one
    dense product per axis (_sine_transform), and a scaled copy between.

    The certificate A >= rho Ref, Ref = M^-1, holds under three conditions:
    - one kind per position;
    - every class an axis shift of 1 that every position pair of the box
      carries.  Ref is then, in the vertex basis, the sum over the axes m
      of the class mean c_m times the Laplacian of the neighbour pairs
      along m, plus c_m e_p e_p^T for each neighbour of p along m outside
      the box (a Dirichlet term), and `least` is the least ratio of a
      coupling to its class mean (None where a condition fails);
    - every Dirichlet term covered by couplings to pinned vertices: with
      h_p the sum of p's couplings to pinned vertices (FreeBlock.pinned),
      A is the sum of c_pq (e_p - e_q)(e_p - e_q)^T over its pairs plus
      diag(h), so with
          rho = min(least, min_p h_p / (the Dirichlet terms of p)) > 0
      A - rho Ref is a sum of positive semidefinite terms (`certificate`).
    Then r^T A^-1 r <= r.Mr / rho for every r, which bounds the energy
    error of a CG iterate with residual r (_cg_solve).  A vertex's terms
    are compared as a sum, which the matching of each Dirichlet term by
    one free-pinned coupling of its class implies.
    """

    def __init__(self, shape, kinds, slot, classes, spread, least):
        self.shape, self.kinds, self.slot = shape, kinds, slot
        self.classes, self.spread, self.least = classes, spread, least
        self.bases = self.symbol = self.inverse = None

    @classmethod
    def build(cls, A, box):
        """The reference of A on its _Box `box`, or None when the free
        vertices do not fill the box evenly: one pass over A's upper
        triangle, with integer keys and neither a sort nor np.unique."""
        columns, shape, n = box.columns, box.shape, len(box.positions)
        cells = math.prod(shape)
        if n % cells:
            return None
        kinds = n // cells
        key = np.ravel_multi_index(columns, shape)
        count = np.bincount(key, minlength=cells)
        if count.min() != kinds or count.max() != kinds:
            return None
        kind, left = np.zeros(n, dtype=np.intp), np.arange(n)
        for _ in range(kinds - 1):      # drop the first vertex left at each position
            first = np.full(cells, n)
            np.minimum.at(first, key[left], left)
            keep = np.ones(n, dtype=bool)
            keep[first] = False
            left = left[keep[left]]
            kind[left] += 1
        # the upper triangle, in A's index type, and its class labels: kind
        # pair, then |shift| per axis, row-major; updated in place, since
        # these arrays are the largest the route allocates
        rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
        upper = np.flatnonzero(A.indices > rows)
        i, j, coupling = rows[upper], A.indices[upper], -A.data[upper]
        del rows, upper
        dims = [kinds, kinds]
        label = np.zeros(len(i), dtype=key.dtype)
        if kinds > 1:
            ki, kj = kind[i], kind[j]
            label = np.minimum(ki, kj) * kinds + np.maximum(ki, kj)
            del ki, kj
        for column in columns:
            shift = column[j]
            shift -= column[i]
            np.abs(shift, out=shift)
            dims.append(int(shift.max(initial=0)) + 1)
            label *= dims[-1]
            label += shift
        del i, j, shift
        total = np.bincount(label, coupling, math.prod(dims))
        members = np.bincount(label, minlength=math.prod(dims))
        spread = least = math.inf
        if len(coupling) and coupling.min() > 0:
            ratio = (total / np.maximum(members, 1))[label]
            np.divide(coupling, ratio, out=ratio)
            least = float(ratio.min())
            spread = float(ratio.max()) / least
        classes = []                    # (a, b, shift per axis, W) per class
        for flat in np.flatnonzero(members):
            a, b, *s = (int(x) for x in np.unravel_index(flat, dims))
            pairs = math.prod(side - t for side, t in zip(shape, s))
            classes.append((a, b, s, total[flat] * (2.0 if a == b else 1.0) / pairs))
            if kinds > 1 or sum(s) != 1 or members[flat] != pairs:
                least = None            # the reference is not edgewise below A
        slot = kind * cells + key       # each vertex's place in the (kind, box) grid
        return cls(shape, kinds, None if np.array_equal(slot, np.arange(n)) else slot,
                   classes, spread, None if least == math.inf else least)

    def band_width(self):
        """An upper bound on the subdiagonals of A in _Band's order
        (longest axis slowest, then kind), from the classes' shifts."""
        axes = np.roll(np.arange(len(self.shape)), -int(np.argmax(self.shape)))
        sides = [self.shape[m] for m in axes]
        reach = max((int(np.ravel_multi_index([s[m] for m in axes], sides))
                     for _, _, s, _ in self.classes), default=0)
        return self.kinds * reach + self.kinds - 1

    def certificate(self, pinned, box):
        """rho > 0 with A >= rho Ref (the class docstring) for the couplings
        to pinned vertices `pinned` (FreeBlock.pinned) of the vertices in
        the _Box `box`, or None when `least` or `pinned` is None or some
        vertex's couplings to pinned vertices leave its Dirichlet terms
        uncovered."""
        if self.least is None or pinned is None:
            return None
        dirichlet = np.zeros(len(pinned))   # each vertex's Dirichlet terms
        for _, _, s, weight in self.classes:
            m = s.index(1)                  # the class mean c_m is weight / 2
            dirichlet += 0.5 * weight * ((box.columns[m] == 0).astype(float)
                                         + (box.columns[m] == self.shape[m] - 1))
        face = dirichlet > 0
        rho = min(self.least, float((pinned[face] / dirichlet[face]).min(initial=math.inf)))
        return rho if rho > 0 and pinned.min() >= 0 else None

    def invert(self):
        """Evaluate the symbol at every sine frequency and invert its blocks;
        False when one of them is not positive definite."""
        tables = []         # tables[m][t] = cos(theta_m t) over axis m's frequencies
        for m, side in enumerate(self.shape):
            reach = max(s[m] for _, _, s, _ in self.classes)
            tables.append(np.cos(np.pi * np.outer(np.arange(reach + 1),
                                                  np.arange(1, side + 1)) / (side + 1)))
        k = self.kinds
        symbol = np.zeros((k, k) + self.shape)
        for a, b, s, weight in self.classes:
            wave = tables[0][s[0]]
            for m in range(1, len(s)):
                wave = np.multiply.outer(wave, tables[m][s[m]])
            symbol[a, a] += weight
            symbol[a, b] -= weight * wave
            if a != b:
                symbol[b, b] += weight
                symbol[b, a] -= weight * wave
        if k == 1:
            self.symbol = symbol[0]
            if not self.symbol.min() > 0:
                return False
        else:
            self.inverse = _block_inverse(symbol)
            if self.inverse is None:
                return False
        bases = {side: _sine_basis(side + 1)[0] for side in set(self.shape)}     # once per side
        self.bases = [bases[side] for side in self.shape]
        return True

    def __call__(self, r):
        grid = r
        if self.slot is not None:
            grid = np.empty_like(r)
            grid[self.slot] = r
        grid = grid.reshape((self.kinds,) + self.shape)
        if self.kinds == 1:
            z = _sine_solve(self.bases, self.symbol, grid[0])
        else:
            wave = _sine_transform(self.bases, grid)
            z = _sine_transform(self.bases, np.einsum("ab...,b...->a...", self.inverse, wave))
        z = z.ravel()
        return z if self.slot is None else z[self.slot]


def _block_inverse(blocks):
    """The inverse of each symmetric k x k block blocks[:, :, ...] by
    Gauss-Jordan elimination without pivoting, vectorized over the trailing
    axes, or None when a pivot is not positive.  Its pivots are those of
    the LDL^T factorization, so they are all positive exactly when the
    block is positive definite; for small k this is several times faster
    than numpy's batched inverse, which loops over the blocks."""
    k = len(blocks)
    a = blocks.copy()
    inverse = np.zeros_like(a)
    for p in range(k):
        inverse[p, p] = 1.0
    for p in range(k):
        pivot = a[p, p].copy()
        if not pivot.min() > 0:
            return None
        a[p] /= pivot
        inverse[p] /= pivot
        for q in range(k):
            if q != p:
                factor = a[q, p].copy()
                a[q] -= factor * a[p]
                inverse[q] -= factor * inverse[p]
    return inverse


def _sine_basis(n):
    """(S, m): the orthonormal DST-I matrix S[j, k] = sqrt(2/n) sin(pi jk/n),
    j, k = 1..n-1, which is symmetric and its own inverse, and the eigenvalues
    m[j] = 2 - 2 cos(pi j/n) of the second difference with zero ends, whose
    eigenvectors are the columns of S."""
    k = np.arange(1, n)
    return (np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n),
            2.0 - 2.0 * np.cos(np.pi * k / n))


def _sine_transform(bases, x):
    """x with the orthonormal sine matrix bases[m] (_sine_basis) applied
    along the m-th of its last len(bases) axes, one dense product per axis
    (a BLAS dgemm), the first axis first: S0 @ x @ S1 for a 2-D x.  Dense
    products beat scipy.fft at the box sides of the pinned problems, where
    2 (N + 1) has a large prime factor, and load no FFT module."""
    shape = x.shape
    for m, S in enumerate(bases[:-1]):
        tail = math.prod(shape[len(shape) - len(bases) + m + 1:])
        x = S @ x.reshape(-1, len(S), tail)
    return (x.reshape(-1, len(bases[-1])) @ bases[-1]).reshape(shape)


def _sine_solve(bases, symbol, x):
    """The inverse of the operator that the sine transform of `bases`
    diagonalizes with eigenvalues `symbol`, applied to x: S ((S x) / symbol)
    with S = _sine_transform.  The preconditioner of the continuum grid
    (bvp._fd_solve) and of the sine route with one kind."""
    return _sine_transform(bases, _sine_transform(bases, x) / symbol)


def _position_key(box):
    """The flat index of each position of the _Box `box`, its longest axis
    slowest: _Band's order is a stable sort of it."""
    longest, d = box.shape.index(max(box.shape)), len(box.shape)
    axes = [*range(longest, d), *range(longest)]
    return np.ravel_multi_index([box.columns[m] for m in axes], [box.shape[m] for m in axes])


class _Band:
    """A_ff of a FreeBlock `block` as a band in position order, filled
    straight from its pairs, and its banded Cholesky factor (LAPACK dpbtrf)
    and solve (dpbtrs): the one band solve of the package (pinned_solve,
    columns_solve, and the cell corrector's band route, cell_band).

    The free vertices are ordered by their d-positions (the _Box `box`), the
    longest axis slowest, by a stable sort, so the vertices at one position
    keep their order; a box of positions (position_box) whose first axis is
    its longest, and a d = 1 window, are in that order already and are not
    permuted, which spares a gather of every index.  A coupling then joins
    two vertices at most (reach x the positions of one slice across the
    long axis x the vertices of one position) apart, and a Cholesky factor
    has no fill outside the band (George & Liu, 1981); `width` is the
    number of subdiagonals.  Each pair's entry lies in the lower band in
    the column of its earlier vertex, and one bincount over the band
    storage sums a repeated pair in the order in which block.matrix sums
    it in the row of the later vertex: the pairs whose first end is the
    later one, then those whose second end is, each in pair order.  So the
    band holds the CSR's lower entries bit for bit, and no sparse matrix is
    built.  The factor and the solve are separate calls, so one factor
    serves several solves (band_correctors).
    """

    def __init__(self, block, box):
        self.block, self.box, n = block, box, len(block.diag)
        key = _position_key(box)
        (i, j, off), self.diag, self.order, self.rank = block.pairs(), block.diag, None, None
        if np.any(key[1:] < key[:-1]):     # not in position order yet
            self.order = np.argsort(key, kind="stable")
            self.rank = np.empty(n, dtype=np.intp)
            self.rank[self.order] = np.arange(n)
            i, j, self.diag = self.rank[i], self.rank[j], self.diag[self.order]
        later = i > j           # the first end is the later vertex
        rows = np.concatenate([i[later], j[~later]])
        cols = np.concatenate([j[later], i[~later]]).astype(np.intp)
        self.values = np.concatenate([off[later], off[~later]])
        offset = rows - cols
        self.width = int(offset.max(initial=0))
        self.index = cols * (self.width + 1) + offset      # place in the band storage

    def factor(self, grounded=()):
        """The lower banded Cholesky factor of A, with the row and column of
        each vertex in `grounded` (vertex indices) replaced by the
        identity's, which holds it at zero in `inverse`.  A pivot that is
        not positive raises NoConvergence."""
        import scipy.linalg as sla
        n, rows = len(self.diag), self.width + 1
        # LAPACK's layout, (rows, n) in Fortran order: no copy; bincount
        # returns integers when there are no pairs
        ab = np.bincount(self.index, self.values, rows * n).astype(float, copy=False)
        ab = ab.reshape(n, rows).T
        ab[0] = self.diag
        if len(grounded):
            g = np.asarray(grounded) if self.rank is None else self.rank[grounded]
            ab[:, g] = 0.0                          # the column, on and below the diagonal
            shift = np.arange(1, rows)[:, None]
            left = g - shift                        # the row, left of the diagonal
            ab[np.broadcast_to(shift, left.shape)[left >= 0], left[left >= 0]] = 0.0
            ab[0, g] = 1.0
        try:
            return sla.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError as err:
            raise NoConvergence(f"band Cholesky failed: {err}") from None

    def inverse(self, factor, rhs):
        """x with A x = rhs, rhs one column or several, by the `factor` of A."""
        import scipy.linalg as sla
        b = rhs if self.order is None else rhs[self.order]
        y = sla.cho_solve_banded((factor, True), b, check_finite=False)
        return y if self.rank is None else y[self.rank]

    def solve(self, rhs, reference=None):
        """x with A x = rhs, rhs one column or several, on a new factor.  At
        debug level it logs (_log_solve) the band width and the backward
        error, computed only then, with the kinds and spread of the
        _SineReference `reference` when the router built one."""
        x = self.inverse(self.factor(), rhs)
        if _log.isEnabledFor(logging.DEBUG):
            A = self.block.matrix
            _log_solve("band", self.box, reference, f"band width {self.width}",
                       _backward_error(A.dot, x, rhs, abs(A).sum(axis=1).max()))
        return x


_MG_MIN_DOFS = 6000     # free dofs from which a d >= 2 pinned solve may leave the band
_MG_BOX = 4             # the finest aggregates are boxes of _MG_BOX^d positions
_MG_COARSEST = 200      # dofs of a level solved by dense Cholesky
_MG_MAX_STEPS = 500     # steps of either CG route
_CG_TOL = 1e-14         # backward error at which both CG routes and the continuum grid stop


class _Multigrid:
    """Smoothed-aggregation V-cycle for A = A_ff of a pinned problem whose
    free vertices sit in the _Box `box` (Vanek, Mandel & Brezina, Computing
    56, 1996), as a map r -> M r.

    The finest aggregates are the boxes of _MG_BOX^d positions from the low
    corner of `box`, and each coarser level joins 2^d of them: a finer
    form of the coarse-graining into cell means (coarse.coarse_mean).  A
    level's prolongator is the indicator of its aggregates smoothed once by
    damped Jacobi, P = (I - w D^-1 A) P0, and the next level's matrix is
    P^T A P.  The weight is w = 4 / (3 g), with
    g = max_i sum_j |a_ij| / a_ii >= rho(D^-1 A) by Gershgorin; A_ff is a principal submatrix of a Laplacian with
    positive coefficients, so g = 2 and w = 2/3 on the finest level.  The
    first level of at most _MG_COARSEST dofs is solved by dense Cholesky.
    The cycle smooths by two damped-Jacobi sweeps before its coarse
    correction and two after: w g < 2 makes each sweep a contraction in the
    A-norm, and equal sweeps make M symmetric positive definite, as CG needs.
    """

    def __init__(self, A, box):
        import scipy.linalg as sla
        self.levels = []            # (A, w D^-1, P, P^T) per level above the coarsest
        # each vertex's box, one contiguous column per axis, and the box
        # grid's last index per axis, which the box sides give: the offsets
        # run from 0 to side - 1
        blocks = [(column // _MG_BOX).astype(np.intp) for column in box.columns]
        last = [(side - 1) // _MG_BOX for side in box.shape]
        while A.shape[0] > _MG_COARSEST:
            # label each box by its rank among the occupied boxes in row-major
            # order (np.unique's labels), by a mask over the box grid
            shape = tuple(top + 1 for top in last)
            key = np.ravel_multi_index(blocks, shape)
            occupied = np.zeros(math.prod(shape), dtype=bool)
            occupied[key] = True
            labels = np.cumsum(occupied)[key] - 1
            kept = np.flatnonzero(occupied)
            last = [top // 2 for top in last]
            if len(kept) == A.shape[0]:     # no box holds two vertices yet
                blocks = [column // 2 for column in blocks]
                continue
            diag = A.diagonal()
            weight = 4.0 / (3.0 * (abs(A).sum(axis=1).A1 / diag).max()) / diag
            P = _smoothed_prolongator(A, labels, len(kept), weight)
            R = P.T.tocsr()
            self.levels.append((A, weight, P, R))
            A = R @ A @ P
            blocks = [column // 2 for column in np.unravel_index(kept, shape)]
        self.coarsest = sla.cho_factor(A.toarray(), check_finite=False)

    def __call__(self, b):
        import scipy.linalg as sla
        descent = []
        for A, weight, _, R in self.levels:
            x = weight * b                      # two sweeps from x = 0
            x += weight * (b - A @ x)
            descent.append((b, x))
            b = R @ (b - A @ x)
        x = sla.cho_solve(self.coarsest, b, check_finite=False)
        for (A, weight, P, _), (b, fine) in zip(self.levels[::-1], descent[::-1]):
            fine += P @ x
            for _ in range(2):
                fine += weight * (b - A @ fine)
            x = fine
        return x


def _smoothed_prolongator(A, labels, count, weight):
    """P = P0 - diag(weight) A P0 for the indicator P0 of the aggregates
    (row i a one in column labels[i]).

    The rows of the product A P0 are scaled in place, which gives each entry
    the one rounding diags(weight) @ (A @ P0) gives it, without a third
    sparse product; P is the same matrix bit for bit.
    """
    import scipy.sparse as sp
    n = A.shape[0]
    P0 = sp.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, count))
    S = A @ P0
    S.data *= np.repeat(weight, np.diff(S.indptr))
    return P0 - S


def _cg_solve(A, rhs, start, box, reference, precondition, name, rho=None, energy=0.0):
    """x with A x = rhs by CG from `start` (pinned_solve), preconditioned by
    the inverted _SineReference or the _Multigrid cycle of the route `name`;
    `box` and `reference` only fill the debug line.  ||A||_2 <= 2 max_i a_ii
    by Gershgorin, A being a principal submatrix of a Laplacian with
    positive coefficients.  Given rho with A >= rho M^-1 for the
    preconditioner M (_SineReference.certificate), CG also stops once
    r.Mr <= eps rho energy: the energy error r^T A^-1 r <= r.Mr / rho of x
    is then at most eps times `energy`.  The sine debug line gives rho and
    that bound at the stop, "-" where the stop is not armed."""
    energy_tol = _EPS * rho * energy if rho is not None else 0.0
    x, steps, backward, rz = _preconditioned_cg(A.dot, rhs, precondition,
                                                2.0 * A.diagonal().max(), _CG_TOL,
                                                _MG_MAX_STEPS, f"{name} CG", start,
                                                energy_tol=energy_tol)
    if _log.isEnabledFor(logging.DEBUG):
        detail = f"iterations {steps}"
        if name == "multigrid":
            detail = f"levels {len(precondition.levels) + 1}, {detail}"
        elif rho is None:
            detail += ", rho -, bound -"
        else:
            detail += f", rho {rho:.3g}, bound {'-' if rz is None else f'{rz / rho:.3e}'}"
        _log_solve(name, box, reference, detail, backward)
    return x


def _backward_error(apply, x, b, norm):
    """||b - A x|| / (norm ||x|| + ||b||), A = `apply` and `norm` >= ||A||_2;
    0 when x and b are both zero."""
    scale = _error_scale(x, np.linalg.norm(b), norm)
    return float(np.linalg.norm(b - apply(x)) / scale) if scale else 0.0


def _error_scale(x, norm_b, norm):
    """norm ||x|| + ||b||, the denominator of the backward error; ||x|| is not
    taken when the norm bound is 0 (the relative-residual stop)."""
    return norm * np.linalg.norm(x) + norm_b if norm else norm_b


def _preconditioned_cg(apply, b, precondition, norm, tol, cap, name, start=None,
                       energy_tol=0.0):
    """(x, steps, backward error, r.Mr) of conjugate gradients on A x = b from
    x = `start` (zeros when None), with A = `apply` and the approximate
    inverse `precondition` both symmetric positive definite, x and b arrays
    of any one shape (Hestenes & Stiefel, J. Res. NBS 49, 1952).  The one CG
    loop of the package: the sine and multigrid pinned routes (_cg_solve),
    the continuum grid (bvp._fd_solve) and the cell corrector
    (cell.solve_corrector) run it.

    `norm` bounds ||A||_2 from above (||A||_inf does for a symmetric A).  CG
    stops at the first step whose recursive residual r meets the
    backward-error test ||r|| <= tol (norm ||x|| + ||b||): x then solves a
    system within relative distance tol of A x = b (Rigal & Gaches, J. ACM
    14, 1967).  Unlike a test on ||r|| / ||b|| it stays above the rounding
    floor of ||b - A x||, which grows with ||A|| ||x||.  With norm = 0 the
    test is the relative-residual stop ||r|| <= tol ||b||, the corrector's.
    The backward error returned is that of b - A x, recomputed.  A start
    that already passes the test is returned after 0 steps, with the
    backward error of the start residual just computed (one product with
    A).  With norm = 0, ||x|| is never taken.  b = 0 returns
    exact zeros: from a nonzero start the test would ask
    ||A x|| <= tol norm ||x||, which no x != 0 meets once A is better
    conditioned than 1 / tol.

    With energy_tol > 0 the loop also stops, after the residual test of a
    step, when the r.Mr it has just formed for the next search direction is
    in (0, energy_tol]: the squared A-norm of the error is r^T A^-1 r, which
    r.Mr bounds up to a factor 1 / rho wherever A >= rho M^-1 (the cell
    corrector, cell.py; Arioli, Numer. Math. 97, 2004).  It returns the
    same recomputed backward error as the residual stop.  The fourth value is r.Mr of the residual x
    stops at: formed at every stop when energy_tol > 0 (one more
    application of M when the residual test stops the loop), 0.0 for
    b = 0, and None when the loop has not formed it (energy_tol = 0 with
    the residual test, or a start that passes).

    A step allocates only what `apply` and `precondition` return: x, r and
    p are updated in place through one scratch vector, with p starting as a
    copy of the first M r, so the loop never writes to an array that either
    callable returned, and either may return its argument or a view of it
    (the identity preconditioner `lambda r: r`).  Each update rounds as its
    allocating form x += alpha p, r -= alpha A p, p = z + beta p does, so
    the iterates are those of that form bit for bit.  Neither callable may
    keep or modify the array it is given.

    The loop breaks down when p.Ap <= 0 (A not positive definite) or
    r.Mr <= 0 (the preconditioner not, or a residual it maps to zero); the
    energy stop needs r.Mr > 0, so it never takes a breakdown for
    convergence.  At a breakdown or after `cap` steps it returns x if the
    recomputed backward error meets tol, and otherwise raises NoConvergence
    carrying that backward error as `residual`.
    """
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
    p, rz = z.copy(), np.vdot(r, z)
    scaled = np.empty_like(p)
    for step in range(cap):
        Ap = apply(p)
        pAp = np.vdot(p, Ap)
        if pAp <= 0 or rz <= 0:
            label, value = ("p.Ap", pAp) if pAp <= 0 else ("r.Mr", rz)
            stop = f"broke down at iteration {step} ({label} = {value:.3e} <= 0)"
            break
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(Ap, alpha, out=scaled)
        met = np.linalg.norm(r) <= tol * _error_scale(x, norm_b, norm)
        if met and energy_tol <= 0:
            return x, step + 1, _backward_error(apply, x, b, norm), None
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        if met or 0 < rz <= energy_tol:
            return x, step + 1, _backward_error(apply, x, b, norm), rz
        p *= rz / rz_old
        p += z
    else:
        step, stop = cap, f"hit the {cap}-iteration cap"
    backward = _backward_error(apply, x, b, norm)
    if backward <= tol:
        return x, step, backward, rz
    raise NoConvergence(f"{name} {stop} (backward error {backward:.3e})", residual=backward)

