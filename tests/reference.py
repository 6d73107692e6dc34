"""Slow, plainly correct versions of library routines, for the tests to compare against."""

from polydep import FImage, UniPoly


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


def resultant_top_terms(f, g):
    """The terms of Res_z(f(z) - x, g(z) - y) in y^n, n = deg f.

    From Res = lc(f)^m * prod over the roots r of f - x of (g(r) - y), with
    m = deg g, they are the one constant (-1)^n lc(f)^m.
    """
    field, n = f.field, f.degree
    return {(0, n): field.reduce((-1) ** n * field.pow(f.leading_coefficient(), g.degree))}
