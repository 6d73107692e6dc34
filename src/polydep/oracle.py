"""Independent verification routines.

Three cross-checks that never share an algorithm with the reduction engine
(only the sparse arithmetic of laurent, which BivarPoly reuses):
direct substitution of a relation at (f(z), g(z)), the Sylvester resultant
Res_z(f(z) - x, g(z) - y) computed by fraction-free elimination, and a
brute-force linear-algebra certificate that no dependence of smaller
g-degree exists.  In characteristic zero the resultant equals a scalar times
P^{d} where d = gcd of the degree data, so the engine's P can be checked
against it up to proportionality.
"""

from fractions import Fraction

from .errors import (
    ConstantInput,
    DegreeCapExceeded,
    DivisionByZero,
    FieldMismatch,
    InternalInvariantViolation,
    NotPolynomial,
    PreconditionFailed,
    WrongCharacteristic,
)
from .laurent import Laurent2, add_terms, exact_div_terms, mul_terms
from .scalar import clear_denominators
from .unipoly import FImage, UniPoly

DEFAULT_DEGREE_CAP = 40


class BivarPoly(Laurent2):
    """Sparse polynomial in K[x, y]; x stands for f, y for g.

    The ring operations are Laurent2's and return BivarPoly; a BivarPoly is
    never equal to a Laurent2.
    """

    __slots__ = ()

    # bound in BivarPoly's own namespace, so bivariate products can be counted apart
    __mul__ = Laurent2.__mul__

    degree_x = Laurent2.deg_f
    degree_y = Laurent2.deg_g

    @classmethod
    def make(cls, field, mapping):
        if any(xe < 0 for xe, _ in mapping):
            raise ValueError("exponents must be non-negative")
        return super().make(field, mapping)

    @classmethod
    def from_laurent(cls, element):
        """Lossless conversion of a Laurent element with no negative f-powers."""
        if not element.is_polynomial():
            raise NotPolynomial("element has negative f-exponents")
        return cls(element.field, dict(element.terms))

    def to_laurent(self):
        return Laurent2(self.field, dict(self.terms))

    def exact_div(self, divisor):
        """Quotient when divisor divides exactly, else None."""
        if not divisor:
            raise DivisionByZero("bivariate division by zero")
        field = self.field
        quo = exact_div_terms(self.terms, divisor.terms, field.div, field.reduce)
        return None if quo is None else BivarPoly(field, quo)


def substitute(relation, f, g):
    """Evaluate a Laurent element at (f(z), g(z)); exact, in K[z, f(z)^-1]."""
    if relation.field != f.field or relation.field != g.field:
        raise FieldMismatch("relation and polynomials over different fields")
    if f.degree < 1:
        raise ConstantInput("substitution base f must have degree >= 1")
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
    exact one; the scale is divided back out at the end.
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


def check_degree_cap(f, g):
    """Refuse inputs beyond the oracles' fixed cap on deg f + deg g."""
    if f.degree + g.degree > DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"deg f + deg g = {f.degree + g.degree} exceeds the oracle cap {DEFAULT_DEGREE_CAP}"
        )


def sylvester_resultant(f, g):
    """Res_z(f(z) - x, g(z) - y) as a polynomial in K[x, y]."""
    if f.field != g.field:
        raise FieldMismatch("f and g over different fields")
    if f.degree < 1 or g.degree < 1:
        raise ConstantInput("resultant needs two nonconstant polynomials")
    check_degree_cap(f, g)
    return det_fraction_free(sylvester_matrix(f, g))


def check_resultant_power(relation, resultant, d):
    """True when resultant = c * relation^d for some nonzero scalar c."""
    field = relation.field
    if field.characteristic() != 0:
        raise WrongCharacteristic("the power identity is asserted in characteristic 0")
    if d < 1:
        raise PreconditionFailed("d must be positive")
    if not relation or not resultant:
        return False
    power = relation**d
    lead = max(power.terms)
    if max(resultant.terms) != lead:
        return False
    c = field.div(resultant.terms[lead], power.terms[lead])
    return resultant == power.scale(c)


def divides(divisor, dividend):
    """Exact bivariate divisibility; the characteristic-p resultant check."""
    if not dividend:
        return True
    return dividend.exact_div(divisor) is not None


def minimality_certificate(f, g, k):
    """True when no nonzero dependence of g-degree < k exists.

    Decides exact linear independence of the functions f^i * g^j over K for
    0 <= i <= deg g and 0 <= j < k by greedy triangular elimination on their
    z-coefficient vectors.  The x-degree bound deg g is enough because the
    minimal dependence divides the resultant, whose x-degree is deg g.
    """
    if f.field != g.field:
        raise FieldMismatch("f and g over different fields")
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ConstantInput("certificate needs two nonconstant polynomials")
    check_degree_cap(f, g)
    if not 1 <= k <= n * m:
        raise PreconditionFailed(f"k = {k} outside the sane range [1, {n * m}]")
    field = f.field
    reduce = field.reduce
    f_pows = f.powers(m)
    g_pows = g.powers(k - 1)
    pivots = {}
    for j in range(k):
        for i in range(m + 1):
            vec = list((f_pows[i] * g_pows[j]).coeffs)
            while vec:
                d = len(vec) - 1
                piv = pivots.get(d)
                if piv is None:
                    pivots[d] = vec
                    break
                ratio = field.div(vec[-1], piv[-1])
                for idx in range(len(piv)):
                    vec[idx] = reduce(vec[idx] - ratio * piv[idx])
                while vec and not vec[-1]:
                    vec.pop()
            else:
                return False
    return True
