"""Pure-Python arithmetic kernels.

A run calls six: berkowitz_charpoly_int once per matrix for chi_B;
int_prem, int_content_strip (for the derivative and a gcd) and
int_divmod_exact for the integer Sturm chain; horner_homogeneous and
sign_variations for every signature read off it.  The rest serve the
tests: horner_eval is Poly.eval, poly_divmod and mat_mul serve
oracle.py's Fraction routes, and the others (power sums,
Faddeev-Leverrier and La Budde, the Hankel build, LDL and Bareiss
inertia) serve hermite.py and charpoly.py's cross-checks, kept while
certbench/tracing.py patches them (ROADMAP items 16 and 5).

Conventions shared by every kernel:

* polynomials are nonempty lists of coefficients in ascending order
  ([c0, c1, ..., cn] means c0 + c1*x + ... + cn*x^n);
* matrices are lists of row lists, square, nonempty;
* scalars are whatever the caller passes (Fraction and int in the
  pipeline, mpmath mpf in the tests' fixed-precision reference); kernels
  only ever add, subtract, multiply, compare with 0 and - where
  documented - divide, so one kernel serves every number type;
* kernels never mutate their arguments and never import the number types
  they run on.
"""

import math
from operator import mul

# certbench/run.py prints this on its environment line; benchmark figures
# are only comparable between runs that print the same value.
IMPLEMENTATION = "kernels_py"


def horner_eval(coeffs, x):
    """Evaluate a polynomial at x by Horner's rule."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def horner_homogeneous(coeffs, num, den):
    """den^deg * f(num/den) for integer coefficients, exactly.

    deg is len(coeffs) - 1.  Integer arithmetic only; with den > 0 the
    result has the sign of f at num/den.  An integer point (den == 1) is
    plain Horner, with no powers of den to carry.
    """
    if den == 1:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * num + c
        return acc
    acc = coeffs[-1]
    scale = 1
    for k in range(len(coeffs) - 2, -1, -1):
        scale = scale * den
        acc = acc * num + coeffs[k] * scale
    return acc


def sign_variations(values):
    """Number of sign changes in a sequence, zeros dropped."""
    count = 0
    last = 0
    for v in values:
        if v == 0:
            continue
        s = -1 if v < 0 else 1
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def poly_divmod(num, den):
    """Quotient and remainder of polynomial division over a field.

    Both inputs ascending coefficient lists, den nonzero.  Returns (q, r)
    with num = q*den + r and deg(r) < deg(den).  The zero polynomial is
    returned as an empty list.
    """
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dlen = len(den)
    while dlen and den[dlen - 1] == 0:
        dlen -= 1
    if dlen == 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[dlen - 1]
    if len(num) < dlen:
        return [], num
    quot = [num[0] * 0] * (len(num) - dlen + 1)
    for top in range(len(num) - 1, dlen - 2, -1):
        c = num[top]
        if c == 0:
            continue
        q = c / lead
        shift = top - (dlen - 1)
        quot[shift] = q
        for k in range(dlen):
            num[shift + k] = num[shift + k] - q * den[k]
    rem = num[: dlen - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def power_sums(coeffs, m):
    """Power sums S[0..m] of the roots of a monic polynomial.

    coeffs is the ascending coefficient list with leading coefficient one
    (exactly, whichever scalar type).  Uses the Newton-Girard recurrences:
    for 1 <= k <= n,  S_k = -k*c_{n-k} - sum_{j=1}^{k-1} c_{n-j} S_{k-j};
    for k > n,        S_k = -sum_{j=1}^{n} c_{n-j} S_{k-j}.
    S_0 is the degree, as a scalar of the same type.
    """
    n = len(coeffs) - 1
    one = coeffs[n]
    sums = [one * n]
    for k in range(1, m + 1):
        if k <= n:
            acc = coeffs[n - k] * (-k)
            for j in range(1, k):
                acc = acc - coeffs[n - j] * sums[k - j]
        else:
            acc = coeffs[n - 1] * sums[k - 1] * (-1)
            for j in range(2, n + 1):
                acc = acc - coeffs[n - j] * sums[k - j]
        sums.append(acc)
    return sums


def mat_mul(a, b):
    """Dense matrix product of two square row-major matrices."""
    n = len(a)
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(n):
            acc = arow[0] * b[0][j]
            for k in range(1, n):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def fl_charpoly_int(rows):
    """Characteristic polynomial of an integer matrix, ascending and monic.

    Faddeev-Leverrier: M_1 = A, a_{n-1} = -tr(M_1), and for k = 2..n
    M_k = A (M_{k-1} + a_{n-k+1} I), a_{n-k} = -tr(M_k)/k.  All divisions
    are exact over the integers, so // keeps the computation in int.
    """
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [list(r) for r in rows]
    tr = work[0][0]
    for i in range(1, n):
        tr = tr + work[i][i]
    coeffs[n - 1] = -tr
    for k in range(2, n + 1):
        shift = coeffs[n - k + 1]
        for i in range(n):
            work[i][i] = work[i][i] + shift
        work = mat_mul(rows, work)
        tr = work[0][0]
        for i in range(1, n):
            tr = tr + work[i][i]
        coeffs[n - k] = -tr // k
    return coeffs


def berkowitz_charpoly_int(rows):
    """Characteristic polynomial of an integer matrix, ascending and monic.

    Berkowitz's division-free algorithm.  With A_r the leading r x r block,
    A_{r+1} = [[A_r, c], [s, d]], the charpoly of A_{r+1} (descending) is the
    lower-triangular Toeplitz matrix with first column
    1, -d, -s c, -s A_r c, ..., -s A_r^(r-1) c times that of A_r.  The work
    is r - 1 matrix-vector products on A_r per step, about n^4/4 in all,
    with integer additions and multiplications only.
    """
    n = len(rows)
    desc = [1]  # charpoly of the empty leading block
    for r in range(n):
        # map() stops at len(v) == r, so the full rows read as those of A_r
        # and rows[r] as s
        lead = rows[:r]
        s = rows[r]
        v = [row[r] for row in lead]
        first = [1, -s[r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, row, v)) for row in lead]
            first.append(-sum(map(mul, s, v)))
        desc = [sum(map(mul, first[i::-1], desc)) for i in range(r + 2)]
    return desc[::-1]


def labudde_charpoly(alphas, betas, hrows):
    """Characteristic polynomial of an upper Hessenberg matrix, ascending.

    alphas are the diagonal entries, betas the subdiagonal (betas[j] is
    H[j+1][j]), hrows the full matrix (for the strictly-upper entries).
    La Budde recurrence on leading principal minors:

        p_0 = 1,  p_1 = x - alpha_1,
        p_i = (x - alpha_i) p_{i-1}
              - sum_{m=1}^{i-1} h_{i-m,i} (beta_i ... beta_{i-m+1}) p_{i-m-1}
    """
    n = len(alphas)
    zero = alphas[0] * 0
    one = zero + 1
    polys = [[one]]
    polys.append([zero - alphas[0], one])
    for i in range(2, n + 1):
        prev = polys[i - 1]
        cur = [zero] * (len(prev) + 1)
        for t in range(len(prev)):
            cur[t + 1] = prev[t]
        ai = alphas[i - 1]
        for t in range(len(prev)):
            cur[t] = cur[t] - ai * prev[t]
        prod = one
        for m in range(1, i):
            prod = prod * betas[i - m - 1]
            if prod == 0:
                break
            hv = hrows[i - m - 1][i - 1]
            if hv == 0:
                continue
            coef = hv * prod
            low = polys[i - m - 1]
            for t in range(len(low)):
                cur[t] = cur[t] - coef * low[t]
        polys.append(cur)
    return polys[n]


def hermite_product(sums, q_coeffs, n):
    """Hermite form H_q as the n x n Hankel matrix of T_0..T_{2n-2}.

    T_m = sum_t q_t S_{m+t}, so sums must hold S_0..S_{2n-2+deg q}.
    Row i of the result is T_i..T_{i+n-1}: O(n deg q) products.
    """
    hankel = []
    for m in range(2 * n - 1):
        acc = q_coeffs[0] * sums[m]
        for t in range(1, len(q_coeffs)):
            acc = acc + q_coeffs[t] * sums[m + t]
        hankel.append(acc)
    return [hankel[i:i + n] for i in range(n)]


def ldl_inertia(rows):
    """Inertia (n+, n-, n0) of a symmetric matrix over a field.

    Symmetric elimination with diagonal pivoting (largest |diagonal|); when
    every remaining diagonal entry is exactly zero, a nonzero off-diagonal
    b gives a 2x2 block [[0,b],[b,0]] contributing one positive and one
    negative eigenvalue; if the whole remainder is zero the rest of the
    inertia is zeros.  Exact over Fraction, where the tests hold Bareiss
    against it; over floats it is only as good as the rounded entries, so
    no signature is taken from it.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    active = list(range(n))
    pos = neg = nil = 0
    while active:
        p = active[0]
        best = abs(a[p][p])
        for r in active[1:]:
            mag = abs(a[r][r])
            if mag > best:
                best = mag
                p = r
        d = a[p][p]
        if d != 0:
            if d > 0:
                pos += 1
            else:
                neg += 1
            active.remove(p)
            prow = a[p]
            for j in active:
                f = a[j][p] / d
                if f == 0:
                    continue
                jrow = a[j]
                for k in active:
                    jrow[k] = jrow[k] - f * prow[k]
            continue
        # Every remaining diagonal entry is zero.
        q = -1
        best = 0
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                mag = abs(a[active[ii]][active[jj]])
                if mag > best:
                    best = mag
                    p = active[ii]
                    q = active[jj]
        if q < 0:
            nil += len(active)
            break
        b = a[p][q]
        pos += 1
        neg += 1
        active.remove(p)
        active.remove(q)
        prow = a[p]
        qrow = a[q]
        for j in active:
            u = a[j][p]
            v = a[j][q]
            if u == 0 and v == 0:
                continue
            jrow = a[j]
            for k in active:
                jrow[k] = jrow[k] - (u * qrow[k] + v * prow[k]) / b
    return pos, neg, nil


def bareiss_inertia(rows):
    """Inertia (n+, n-, n0) of a symmetric integer matrix, fraction-free.

    Symmetric-pivoted Bareiss elimination: entries stay bordered minors of
    the (symmetrically permuted) input, every division is exact, and the
    pivot sequence m_1, m_2, ... gives the LDL pivot signs via Jacobi's
    rule sign(d_k) = sign(m_k m_{k-1}).  The all-zero-diagonal corner uses
    a fraction-free 2x2 congruence step whose block determinant -b^2 < 0
    contributes one eigenvalue of each sign.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    active = list(range(n))
    pos = neg = nil = 0
    prev = 1
    while active:
        p = active[0]
        best = abs(a[p][p])
        for r in active[1:]:
            mag = abs(a[r][r])
            if mag > best:
                best = mag
                p = r
        piv = a[p][p]
        if piv != 0:
            if (piv > 0) == (prev > 0):
                pos += 1
            else:
                neg += 1
            active.remove(p)
            prow = a[p]
            for j in active:
                ajp = a[j][p]
                jrow = a[j]
                for k in active:
                    jrow[k] = (piv * jrow[k] - ajp * prow[k]) // prev
            prev = piv
            continue
        q = -1
        best = 0
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                mag = abs(a[active[ii]][active[jj]])
                if mag > best:
                    best = mag
                    p = active[ii]
                    q = active[jj]
        if q < 0:
            nil += len(active)
            break
        b = a[p][q]
        pos += 1
        neg += 1
        active.remove(p)
        active.remove(q)
        prow = a[p]
        qrow = a[q]
        det2 = -(b * b)
        prev2 = prev * prev
        for j in active:
            u = a[j][p]
            v = a[j][q]
            jrow = a[j]
            for k in active:
                jrow[k] = (det2 * jrow[k] + b * (u * qrow[k] + v * prow[k])) // prev2
        prev = det2 // prev
    return pos, neg, nil


def int_content_strip(coeffs):
    """Divide an integer coefficient list by its positive content."""
    g = math.gcd(*coeffs)
    if g <= 1:
        return list(coeffs)
    return [c // g for c in coeffs]


def int_prem(f, g):
    """Pseudo-remainder of integer polynomials with nonzero leading coefficients.

    r with lc(g)^(d+1) * f = q*g + r and deg(r) < deg(g), for d = deg(f) -
    deg(g) >= 0: d + 1 steps each multiply by lc(g) and cancel the top
    coefficient, a zero one included, so the factor is exactly that power.
    A normal step (d = 1) takes one pass: with c = lc(g)*f_n - lc(f)*g_(n-1)
    for n = deg(g), r_k = lc(g)^2*f_k - lc(g)*lc(f)*g_(k-1) - c*g_k.
    Returns [] for a zero remainder.
    """
    dg = len(g) - 1
    lg = g[dg]
    shift = len(f) - 1 - dg
    if shift == 1 and dg:
        lf = f[-1]
        c = lg * f[dg] - lf * g[dg - 1]
        a, b = lg * lg, lg * lf
        num = [a * x - b * y - c * z for x, y, z in zip(f, [0, *g], g[:-1])]
    else:
        num = list(f)
        for k in range(shift, -1, -1):  # cancel the coefficient of x^(k + dg)
            top = num[k + dg]
            num = [lg * x for x in num[:k]] + [lg * x - top * y
                                               for x, y in zip(num[k:k + dg], g)]
    while num and num[-1] == 0:
        num.pop()
    return num


def int_divmod_exact(num, den):
    """Quotient of integer polynomials by long division, and what is left.

    Each step divides the leading coefficient by lc(den) and stops at the
    first one that lc(den) does not divide, so the quotient has integer
    coefficients and num = quot*den + rest.  rest is [] exactly when den
    divides num with an integer quotient, which for a primitive den is
    whenever it divides num over the rationals (Gauss's lemma).
    """
    rest = list(num)
    dn = len(den) - 1
    lead = den[dn]
    quot = [0] * max(len(rest) - dn, 0)
    for shift in range(len(rest) - 1 - dn, -1, -1):
        q, r = divmod(rest[shift + dn], lead)
        if r:
            break
        quot[shift] = q
        for k in range(dn + 1):
            rest[shift + k] -= q * den[k]
    while rest and rest[-1] == 0:
        rest.pop()
    return quot, rest
