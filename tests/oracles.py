"""Brute-force reference computations kept independent of the library paths.

Each helper recomputes a quantity from first principles (explicit loops,
numpy.linalg, scalar grid loops) so the package code has a second route to
be checked against.  Nothing here imports ``seqwitness``; helpers take
numpy arrays, numbers, or objects with the fields they read.
"""

import cmath
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"identity": I2, "x": SX, "y": SY, "z": SZ}


def witness_matrix(coefficients):
    """Sum of c[i, j] sigma_i x sigma_j over the 16 Pauli products, (I, x, y, z)
    order, term by term."""
    labels = ("identity", "x", "y", "z")
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if coefficients[i, j] != 0.0:
                m += coefficients[i, j] * kron4(PAULIS[labels[i]], PAULIS[labels[j]])
    return m


def kron4(a, b):
    """Explicit 4x4 Kronecker product via index loops."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def trace_product(a, b):
    """Tr(a b) via an explicit double sum."""
    total = 0.0 + 0.0j
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[j, i]
    return total


def pauli_coefficients(m):
    """c[i, j] = Tr(sigma_i x sigma_j . m) / 4, (I, x, y, z) order, term by
    term through ``kron4`` and ``trace_product``."""
    labels = ("identity", "x", "y", "z")
    c = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            c[i, j] = trace_product(kron4(PAULIS[labels[i]], PAULIS[labels[j]]), m).real / 4.0
    return c


def ket(index):
    """Computational basis ket |00>..|11> by index 0..3."""
    v = np.zeros(4, dtype=complex)
    v[index] = 1.0
    return v


def psi_plus_ket():
    return (ket(1) + ket(2)) / math.sqrt(2.0)


def phi_plus_ket():
    return (ket(0) + ket(3)) / math.sqrt(2.0)


def family_matrix(family):
    """Density matrix of a state family from kets and outer products."""
    if family.kind in ("bell", "werner"):
        psi = psi_plus_ket()
        p = 1.0 if family.kind == "bell" else family.param
        return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    if family.kind == "colored":
        phi = phi_plus_ket()
        p = family.param
        noise = (np.outer(ket(1), ket(1).conj()) + np.outer(ket(2), ket(2).conj())) / 2.0
        return p * np.outer(phi, phi.conj()) + (1.0 - p) * noise
    psi = math.cos(family.param) * ket(1) + math.sin(family.param) * ket(2)
    return np.outer(psi, psi.conj())


def eigvals(h):
    return np.linalg.eigvalsh(h)


def density_matrix_failure(m, validate_tol=1e-12, oracle_tol=1e-10):
    """The first check a candidate state fails, by whole-array numpy: "trace",
    "Hermitian" or "negative eigenvalue" (eigvalsh reads the lower triangle),
    or None when it passes all three."""
    m = np.asarray(m, dtype=complex)
    if abs(np.trace(m) - 1.0) > validate_tol:
        return "trace"
    if abs(m - m.conj().T).max() > validate_tol:
        return "Hermitian"
    if np.linalg.eigvalsh(m)[0] < -oracle_tol:
        return "negative eigenvalue"
    return None


def density_matrix_verdict(m, validate_tol=1e-12, oracle_tol=1e-10):
    """The message a candidate square state is rejected with, or None when it
    is accepted, by a generic row loop over its entries as Python complex
    numbers: the trace; then, row by row, Hermiticity of each pair up to the
    diagonal and the Cholesky factor of m + oracle_tol I.  A failed pivot is
    a Hermiticity failure when any pair fails, else names the lowest
    eigenvalue; any non-finite entry turns a rejection into "non-finite
    entries"."""
    m = np.array(m, dtype=complex)
    rows = m.tolist()

    def reject(message):
        finite = all(cmath.isfinite(z) for row in rows for z in row)
        return message if finite else "density matrix has non-finite entries"

    trace = sum([rows[i][i] for i in range(len(rows))])
    if abs(trace - 1.0) > validate_tol:
        return reject(f"trace {trace if trace.imag else trace.real:.3g} differs from 1")
    factor = []
    for i, row in enumerate(rows):
        li = []
        for j, lj in enumerate(factor):
            s = row[j]
            if not abs(rows[j][i] - s.conjugate()) <= validate_tol:
                return reject("density matrix must be Hermitian")
            for k in range(j):
                s -= li[k] * lj[k].conjugate()
            li.append(s / lj[j])
        d = row[i]
        if not abs(d - d.conjugate()) <= validate_tol:
            return reject("density matrix must be Hermitian")
        pivot = d.real + oracle_tol
        for x in li:
            pivot -= x.real * x.real + x.imag * x.imag
        if not pivot > 0.0:
            if not all(abs(rows[a][b] - rows[b][a].conjugate()) <= validate_tol
                       for a in range(len(rows)) for b in range(a, len(rows))):
                return reject("density matrix must be Hermitian")
            return reject(f"negative eigenvalue {np.linalg.eigvalsh(m)[0]:.3g}")
        li.append(math.sqrt(pivot))
        factor.append(li)
    return None


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def concurrence(rho):
    """Wootters concurrence through numpy.linalg.eigvals on rho rho~."""
    yy = kron4(SY, SY)
    rho_tilde = yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ rho_tilde).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def random_qubit_ket(rng):
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return raw / np.linalg.norm(raw)


def random_product_state(rng):
    a = random_qubit_ket(rng)
    b = random_qubit_ket(rng)
    psi = np.kron(a, b)
    return np.outer(psi, psi.conj())


def random_density_matrix(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def effect(direction, lam, outcome):
    """The unsharp POVM effect lam P(o) + (1 - lam)/2 I along a unit
    3-vector, P(o) = (I + o n.sigma) / 2."""
    spin = sum(n * PAULIS[axis] for n, axis in zip(direction, "xyz"))
    return lam * (I2 + outcome * spin) / 2.0 + (1.0 - lam) / 2.0 * I2


def rom(direction, lam):
    """Robustness of measurement by operator norms: the two effects' largest
    singular values summed, minus 1 (the sharpness for this family)."""
    return sum(np.linalg.norm(effect(direction, lam, o), 2) for o in (+1, -1)) - 1.0


def partial_transpose(m):
    """Transpose of the second-qubit indices of a 4x4 operator,
    (i, a; j, b) -> (i, b; j, a), by index loops."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for a in range(2):
            for j in range(2):
                for b in range(2):
                    out[2 * i + b, 2 * j + a] = m[2 * i + a, 2 * j + b]
    return out


# A partial transpose eigenvalue above this is not treated as negative.
_NEGATIVITY_TOL = 1e-10


def witness_from_state(rho):
    """Pauli coefficients of the optimal witness of an NPT two-qubit state:
    the partial transpose of the projector onto the eigenvector of the single
    negative eigenvalue of rho^T_B.  A PPT state, with no negative
    eigenvalue, raises ValueError."""
    rho = np.asarray(rho, dtype=complex)
    evals, vecs = np.linalg.eigh(partial_transpose(rho))
    negative = np.nonzero(evals < -_NEGATIVITY_TOL)[0]
    if negative.size == 0:
        raise ValueError("state is PPT; no witness can be derived from partial transposition")
    if negative.size > 1:
        raise ValueError("partial transpose has more than one negative eigenvalue")
    v = vecs[:, negative[0]]
    w = partial_transpose(np.outer(v, v.conj()))
    if trace_product(w, rho).real >= 0.0:
        raise RuntimeError("derived operator does not witness the input state")
    return pauli_coefficients(w)


def sqrt_effects(lam):
    """Spectral square roots sqrt((1+lam)/2) P(o) + sqrt((1-lam)/2) P(-o) of
    the six effects lam P(o) + (1 - lam)/2 I, outcomes o = +-1 along x, y, z."""
    roots = []
    for axis in ("x", "y", "z"):
        for outcome in (+1, -1):
            keep = (I2 + outcome * PAULIS[axis]) / 2.0
            flip = (I2 - outcome * PAULIS[axis]) / 2.0
            roots.append(math.sqrt((1.0 + lam) / 2.0) * keep
                         + math.sqrt((1.0 - lam) / 2.0) * flip)
    return roots


def kraus_two_sided(rho, xi, lam):
    """Setting- and outcome-averaged Lueders map on both wings: the 36-term
    sum of K rho K with K = sqrt(E_a) x sqrt(E_b), divided by 9."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ra in sqrt_effects(xi):
        for rb in sqrt_effects(lam):
            k = kron4(ra, rb)
            out += k @ rho @ k
    return out / 9.0


def kraus_one_sided(rho, lam):
    """Averaged Lueders map on the second wing only: the 6-term sum of
    K rho K with K = I x sqrt(E_b), divided by 3."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for rb in sqrt_effects(lam):
        k = kron4(I2, rb)
        out += k @ rho @ k
    return out / 3.0


def closed_form_detectability(strength, lambdas):
    """Stage-wise (1 - lam^2 g) / 4 of a symmetric chain, g scaled after each
    stage by the squared single-wing attenuation (1 + 2 sqrt(1 - lam^2)) / 3."""
    per = []
    g = strength
    for lam in lambdas:
        per.append((1.0 - lam * lam * g) / 4.0)
        g *= ((1.0 + 2.0 * math.sqrt(1.0 - lam * lam)) / 3.0) ** 2
    return tuple(per)


def _shrink_squared(lams):
    """Squared single-wing attenuation (1 + 2 sqrt(1 - lam^2))^2 / 9 per
    grid point, squared with Python's float power as the scalar recursion
    does (C ``pow`` can differ from ``s * s`` in the last bit)."""
    shrink = (1.0 + 2.0 * np.sqrt(1.0 - lams * lams)) / 3.0
    return np.array([s ** 2 for s in shrink.tolist()])


def detectability_grid_argmax(strength, caps=(1.0, 1.0, 1.0)):
    """Coarse-to-fine grid optimum of the 3-stage symmetric detectability.

    Five levels: a 0.02-step grid (plus each cap), then 31-point windows of
    +-1.5 steps around the best point, each step a tenth of the last.  Each
    level is swept one stage-1 value at a time with numpy over the whole
    (lam2, lam3) slice; the first minimum in lexicographic order is kept
    and a later point replaces the best only by being strictly smaller, as
    an element-by-element triple loop would.  Windows can clip, so the
    result can sit short of the supremum.  Returns the chosen
    (lam1, lam2, lam3).
    """
    def grid(center, halfwidth, points, cap):
        lo = max(0.02, center - halfwidth)
        hi = min(cap, center + halfwidth)
        return np.linspace(lo, hi, points)

    best = math.inf
    best_lams = None
    axes = [np.arange(0.02, cap + 1e-12, 0.02) for cap in caps]
    axes = [np.unique(np.append(ax, cap)) for ax, cap in zip(axes, caps)]
    step = 0.02
    for _ in range(5):
        ax1, ax2, ax3 = axes
        sq1, sq2 = _shrink_squared(ax1), _shrink_squared(ax2)
        lam2_sq = (ax2 * ax2)[:, None]
        lam3_sq = ax3 * ax3
        for l1, s1 in zip(ax1, sq1):
            d1 = (1.0 - l1 * l1 * strength) / 4.0
            if not d1 < 0.0:
                continue
            g2 = strength * s1
            d2 = (1.0 - lam2_sq * g2) / 4.0
            d3 = (1.0 - lam3_sq * (g2 * sq2)[:, None]) / 4.0
            totals = np.where((d2 < 0.0) & (d3 < 0.0), (d1 + d2) + d3, math.inf)
            flat = int(np.argmin(totals))
            d = totals.flat[flat]
            if d < best:
                best = float(d)
                j, k = divmod(flat, ax3.size)
                best_lams = (float(l1), float(ax2[j]), float(ax3[k]))
        if best_lams is None:
            raise ValueError("no 3-stage schedule with every stage detecting")
        if step <= 1e-4:
            break
        step /= 10.0
        axes = [grid(c, 15.0 * step, 31, cap) for c, cap in zip(best_lams, caps)]
    return best_lams


def stage_three_boundary_min(strength, caps, points=1001, levels=6):
    """Least 3-stage total along the curve where stage 3 stops detecting.

    With lam3 = cap3, stage 3's witness (1 - cap3^2 g s1^2 s2^2) / 4 is 0
    exactly when s2 = 1 / (cap3 sqrt(g) s1), which fixes lam2 from lam1.
    Scans lam1 over [1/sqrt(g), cap1] at ``points`` points, keeps those
    where stages 1 and 2 detect and lam2 lies in [0.02, cap2], and zooms
    ``levels`` times onto +-1 step around the best.  Returns the least
    total (stage 3 contributing 0), or None if no point qualifies.
    """
    cap1, cap2, cap3 = caps
    lo, hi = 1.0 / math.sqrt(strength), cap1
    best = None
    for _ in range(levels):
        if not lo < hi:
            break
        lam1 = np.linspace(lo, hi, points)
        s1 = (1.0 + 2.0 * np.sqrt(1.0 - lam1 * lam1)) / 3.0
        s2 = 1.0 / (cap3 * math.sqrt(strength) * s1)
        u2 = np.clip((3.0 * s2 - 1.0) / 2.0, 0.0, 1.0)
        lam2 = np.sqrt(1.0 - u2 * u2)
        d1 = (1.0 - lam1 * lam1 * strength) / 4.0
        d2 = (1.0 - lam2 * lam2 * strength * s1 * s1) / 4.0
        ok = (s2 <= 1.0) & (d1 < 0.0) & (d2 < 0.0) & (lam2 >= 0.02) & (lam2 <= cap2)
        if not ok.any():
            break
        totals = np.where(ok, d1 + d2, math.inf)
        k = int(np.argmin(totals))
        if best is None or totals[k] < best:
            best = float(totals[k])
        lo, hi = lam1[max(k - 1, 0)], lam1[min(k + 1, points - 1)]
    return best


def golden_section_detectability(strength, caps=(1.0, 1.0, 1.0), margin=1e-12):
    """3-stage symmetric detectability optimum by a stage-1 scan and search.

    lam3 = cap3, and lam2 is the largest value cap2 and stage 3 allow given
    lam1, as in the closed-form solve; lam1 is bracketed by a 16-point scan
    and refined by golden-section search to 1e-12.  Every stage's witness
    stays at or below -margin.  Returns (lam1, lam2, lam3), or raises
    ValueError if no schedule lets every stage detect.
    """
    g = strength
    cap1, cap2, cap3 = caps
    need = 1.0 + 4.0 * margin  # witness <= -margin iff lam_i^2 g_i >= need
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def shrink(lam):
        return (1.0 + 2.0 * math.sqrt(1.0 - lam * lam)) / 3.0

    def stage_two(lam1):
        """(lam1^2 + s1^2 (lam2^2 + cap3^2 s2^2), lam2) at the best lam2
        after stage 1 at lam1, or (-inf, None) if no lam2 lets both stages
        detect: stage 2 needs lam2 >= lo, stage 3 and the cap lam2 <= hi."""
        s1 = shrink(lam1)
        g2 = g * s1 * s1
        lo = math.sqrt(need / g2)
        u_min = max(0.0, (3.0 * math.sqrt(need / (cap3 * cap3 * g2)) - 1.0) / 2.0)
        hi = min(cap2, math.sqrt(max(0.0, 1.0 - u_min * u_min)))
        if lo > hi:
            return -math.inf, None
        return lam1 * lam1 + s1 * s1 * (hi * hi + (cap3 * shrink(hi)) ** 2), hi

    # Stage 1 detects from lo up; a larger lam1 leaves stages 2 and 3 less
    # room, so the feasible lam1 form an interval [lo, edge], and the
    # search's ties between infeasible points move left, towards it.
    lo = math.sqrt(need / g) if g >= need else math.inf
    if lo > cap1 or stage_two(lo)[1] is None:
        raise ValueError("no 3-stage schedule with every stage detecting")
    n = 16
    scan = [lo + i * (cap1 - lo) / (n - 1) for i in range(n - 1)] + [cap1]
    k = max(range(n), key=lambda i: stage_two(scan[i])[0])
    a, b = scan[max(k - 1, 0)], scan[min(k + 1, n - 1)]
    while b - a > 1e-12:  # golden section; a stays feasible
        c, d = b - golden * (b - a), a + golden * (b - a)
        a, b = (a, d) if stage_two(c)[0] >= stage_two(d)[0] else (c, b)
    lam1 = max(a, scan[k], key=lambda lam: stage_two(lam)[0])
    return lam1, stage_two(lam1)[1], cap3


def symmetric_edges_mp(count):
    """The first ``count`` zero-slack symmetric band edges in mpmath at the
    caller's working precision: E_1 = 1 and
    E_{k+1} = (-sqrt(E_k) + 2 sqrt(E_k + 1/3))^2."""
    import mpmath

    edges = [mpmath.mpf(1)]
    while len(edges) < count:
        h = edges[-1]
        edges.append((-mpmath.sqrt(h) + 2 * mpmath.sqrt(h + mpmath.mpf(1) / 3)) ** 2)
    return edges


def zero_slack_stage_mp(g):
    """g s(lam)^2 at lam = 1/sqrt(g), s(lam) = (1 + 2 sqrt(1 - lam^2)) / 3, in
    mpmath at the caller's working precision: the correlation strength one
    zero-slack symmetric stage leaves."""
    import mpmath

    lam = 1 / mpmath.sqrt(g)
    return g * ((1 + 2 * mpmath.sqrt(1 - lam * lam)) / 3) ** 2


def symmetric_edge_before_mp(h, cap=1, need=1):
    """Least g from which one symmetric stage of sharpness at most ``cap``
    detects (lam^2 g >= need) and hands on at least h, in mpmath at the
    caller's working precision: the root in g of the forward stage
    g s(lam)^2 = h at its least detecting lam = sqrt(need / g), by
    bracketed root finding, joined with the cap's g >= need / cap^2."""
    import mpmath

    h, cap, need = mpmath.mpf(h), mpmath.mpf(cap), mpmath.mpf(need)

    def handed_on(g):
        lam = mpmath.sqrt(need / g)
        return g * ((1 + 2 * mpmath.sqrt(1 - lam * lam)) / 3) ** 2 - h

    # the stage hands on need s(1)^2 = need / 9 at g = need, so for h up to
    # need / 9 the least detecting g, need, is the root; above it the stage
    # hands on at least g / 9 since s >= 1/3, so the root lies in [need, 9 h + need]
    if h <= need / 9:
        root = need
    else:
        root = mpmath.findroot(handed_on, (need, 9 * h + need), solver="illinois")
    return max(need / cap**2, root)


def boundary_pattern_lambdas(constraint, floor, copies, max_free=None):
    """Least sum(lam) with sum(lam^2) = constraint and floor <= lam <= 1
    over every boundary pattern: n_cap lambdas at the cap, n_floor at the
    floor and the free rest equal, for each (n_cap, n_floor) in turn.  A
    pattern with no free lambda counts when it meets the constraint to
    1e-12; with ``max_free`` set, patterns with more free lambdas are
    skipped.  The first least sum wins.  Returns the lambdas in descending
    order, or raises ValueError if no pattern fits."""
    candidates = []

    def consider(fixed):
        remaining = constraint - sum(v * v for v in fixed)
        n_free = copies - len(fixed)
        if n_free == 0:
            if abs(remaining) < 1e-12:
                candidates.append(tuple(sorted(fixed, reverse=True)))
            return
        if remaining <= 0.0:
            return
        m = math.sqrt(remaining / n_free)
        if floor <= m <= 1.0:
            candidates.append(tuple(sorted(list(fixed) + [m] * n_free, reverse=True)))

    for n_cap in range(copies + 1):
        for n_floor in range(copies + 1 - n_cap):
            if max_free is None or copies - n_cap - n_floor <= max_free:
                consider([1.0] * n_cap + [floor] * n_floor)
    if not candidates:
        raise ValueError("no boundary solution satisfies the constraints")
    return min(candidates, key=sum)


def min_rom_lambdas(constraint, floor, copies=3):
    """Least sum(lam) with sum(lam^2) = constraint and floor <= lam <= 1.

    ``boundary_pattern_lambdas`` gives a start, then a scalar (lam1, lam2)
    scan with lam3 from the constraint refines it to 1e-4, keeping a point
    only on strict improvement.  Returns the triple in descending order.
    """
    best = boundary_pattern_lambdas(constraint, floor, copies)

    def refine(center, half, points):
        nonlocal best
        for l1 in np.linspace(max(floor, center[0] - half), min(1.0, center[0] + half), points):
            for l2 in np.linspace(max(floor, center[1] - half), min(1.0, center[1] + half), points):
                rest = constraint - l1 * l1 - l2 * l2
                if rest <= floor * floor or rest > 1.0 + 1e-12:
                    continue
                l3 = math.sqrt(min(rest, 1.0))
                cand = tuple(sorted((float(l1), float(l2), l3), reverse=True))
                if sum(cand) < sum(best):
                    best = cand

    refine(((1.0 + floor) / 2.0, (1.0 + floor) / 2.0), (1.0 - floor) / 2.0, 41)
    half = (1.0 - floor) / 40.0
    while half > 1e-4 / 2.0:
        refine(best[:2], half, 21)
        half /= 5.0
    return best
