"""Slow, plainly correct versions of library routines, for the tests to compare against."""

from fractions import Fraction

from polydep import BivarPoly, FImage, Laurent2, UniPoly
from polydep.errors import InternalInvariantViolation
from polydep.laurent import add_terms, exact_div_terms, mul_terms
from polydep.scalar import clear_denominators


def horner_substitute(relation, f, g):
    """The Laurent element at (f(z), g(z)), by Horner in g over K[z, f(z)^-1].

    Each g-coefficient is a sum of scaled powers of f over the power of f
    that clears its negative exponents; no evaluation point is involved.
    """
    field = relation.field
    if not relation:
        return FImage.zero(f)
    by_g = {}
    for (fe, ge), c in relation.terms.items():
        by_g.setdefault(ge, {})[fe] = c
    # the g^ge part is num / f^lift with every f-exponent in num non-negative
    lifts = {ge: max(0, -min(fmap)) for ge, fmap in by_g.items()}
    fpows = f.powers(max(max(fmap) + lifts[ge] for ge, fmap in by_g.items()))
    g_img = FImage.from_poly(g, f)
    acc = FImage.zero(f)
    for ge in range(max(by_g), -1, -1):
        if acc:
            acc = acc * g_img
        fmap = by_g.get(ge)
        if fmap:
            lift = lifts[ge]
            num = UniPoly.zero(field)
            for fe, c in fmap.items():
                num = num + fpows[fe + lift].scale(c)
            acc = acc + FImage(num, lift, f)
    return acc


def monomial_degree(chain, mono):
    """The z-degree of a standard monomial, recomputed from the chain's degree data."""
    return mono.fexp * chain.n + sum(j * st.m for j, st in zip(mono.gexps, chain.steps))


def monomial_symbolic(chain, mono):
    """The standard monomial expanded in K[f, f^-1, g], from the chain's g-parts."""
    sym = chain._gpart(mono.gexps)[0]
    return sym.mul_monomial(mono.fexp) if mono.fexp else sym


def to_laurent(bivar):
    """A BivarPoly as the Laurent2 element with the same terms."""
    return Laurent2(bivar.field, dict(bivar.terms))


def resultant_top_terms(f, g):
    """The terms of Res_z(f(z) - x, g(z) - y) in y^n, n = deg f.

    From Res = lc(f)^m * prod over the roots r of f - x of (g(r) - y), with
    m = deg g, they are the one constant (-1)^n lc(f)^m.
    """
    field, n = f.field, f.degree
    return {(0, n): field.reduce((-1) ** n * field.pow(f.leading_coefficient(), g.degree))}


def sylvester_matrix(f, g):
    """The (n+m) x (n+m) Sylvester matrix of f(z) - x and g(z) - y in z."""
    field = f.field
    n, m = f.degree, g.degree
    minus_one = field.reduce(-1)
    fc = [BivarPoly(field, {(0, 0): c}) for c in reversed(f.coeffs)]
    fc[-1] = fc[-1] + BivarPoly(field, {(1, 0): minus_one})
    gc = [BivarPoly(field, {(0, 0): c}) for c in reversed(g.coeffs)]
    gc[-1] = gc[-1] + BivarPoly(field, {(0, 1): minus_one})
    size = n + m
    zero = BivarPoly.zero(field)
    rows = []
    for i in range(m):
        row = [zero] * size
        row[i : i + n + 1] = fc
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        row[i : i + m + 1] = gc
        rows.append(row)
    return rows


def _int_exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise InternalInvariantViolation("fraction-free division left a remainder")
    return q


def _bareiss_det(rows, reduce, coeff_div):
    """Fraction-free determinant on raw coefficient dicts (Bareiss one-step)."""
    size = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for t in range(size - 1):
        if not m[t][t]:
            for r in range(t + 1, size):
                if m[r][t]:
                    m[t], m[r] = m[r], m[t]
                    sign = -sign
                    break
            else:
                return {}
        piv = m[t][t]
        trow = m[t]
        for i in range(t + 1, size):
            row = m[i]
            mit = row[t]
            for j in range(t + 1, size):
                num = add_terms(
                    mul_terms(piv, row[j], reduce),
                    mul_terms(mit, trow[j], reduce),
                    reduce,
                    negate=True,
                )
                if prev is not None:
                    num = exact_div_terms(num, prev, coeff_div, reduce)
                    if num is None:
                        raise InternalInvariantViolation("fraction-free division failed")
                row[j] = num
            row[t] = {}
        prev = piv
    det = m[size - 1][size - 1]
    return det if sign > 0 else add_terms({}, det, reduce, negate=True)


def det_fraction_free(matrix):
    """Determinant of a square BivarPoly matrix by fraction-free elimination.

    Over the rationals every row is scaled to integer coefficients first, so
    all intermediate entries are integer polynomials and every division is an
    exact one; the scale is divided back out at the end.  With
    `sylvester_matrix` it is the tests' reference for `sylvester_resultant`.
    """
    field = matrix[0][0].field
    if field.p is not None:
        rows = [[dict(e.terms) for e in row] for row in matrix]
        return BivarPoly(field, _bareiss_det(rows, field.reduce, field.div))
    scale = 1
    rows = []
    for row in matrix:
        ints, lam = clear_denominators([c for e in row for c in e.terms.values()])
        scale *= lam
        ints = iter(ints)
        rows.append([{k: next(ints) for k in e.terms} for e in row])
    det = _bareiss_det(rows, None, _int_exact_div)
    return BivarPoly(field, {k: Fraction(v, scale) for k, v in det.items()})


def hessenberg_charpoly(rows, q):
    """det(t*I - M) mod q, low to high, for M given by its rows (Cohen, Alg. 2.2.9).

    Similarity transforms bring M to upper Hessenberg form H; then p_0 = 1,
    p_(k+1) = (t - H[k][k]) p_k minus the sum over i < k of
    H[i][k] * H[i+1][i] * ... * H[k][k-1] * p_i, and p_size is the answer.
    Modifies `rows`.  A pivot that is nonzero but not a unit mod q, which
    only a composite q has, raises ValueError.
    """
    H = rows
    size = len(H)
    for k in range(1, size - 1):
        piv = next((i for i in range(k, size) if H[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            H[k], H[piv] = H[piv], H[k]
            for row in H:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(H[k][k - 1], -1, q)
        hk = H[k]
        for i in range(k + 1, size):
            u = H[i][k - 1] * inv % q
            if u:
                H[i] = [(x - u * y) % q for x, y in zip(H[i], hk)]
                for row in H:
                    row[k] = (row[k] + u * row[i]) % q
    polys = [[1]]
    for k in range(size):
        new = [0] + polys[k]
        h = H[k][k]
        for idx, c in enumerate(polys[k]):
            new[idx] -= h * c
        chain = 1
        for i in range(k - 1, -1, -1):
            chain = chain * H[i + 1][i] % q
            if not chain:
                break
            coef = H[i][k] * chain % q
            if coef:
                for idx, c in enumerate(polys[i]):
                    new[idx] -= coef * c
        polys.append([c % q for c in new])
    return polys[size]


def krylov_unpacked(rows, k, q):
    """The vectors e_0 * M^j mod q, j < k, for M given by its rows, one entry at a time."""
    vec = [1] + [0] * (len(rows) - 1)
    yield vec
    for _ in range(k - 1):
        acc = [0] * len(rows)
        for c, row in zip(vec, rows):
            if c:
                acc = [x + c * y for x, y in zip(acc, row)]
        vec = [x % q for x in acc]
        yield vec


def det_cofactor(matrix):
    """Naive cofactor expansion; the oracle for the determinant oracle."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    acc = BivarPoly.zero(matrix[0][0].field)
    for j in range(size):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
