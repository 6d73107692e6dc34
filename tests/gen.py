"""Shared random generators for the test suites (all seeded by the caller)."""

from polydep import Laurent2, UniPoly, rationals


def random_poly(rng, field, degree, monic=False):
    """Random polynomial of exactly the given degree, nonzero leading term."""
    p = field.characteristic()
    while True:
        if p == 0:
            coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        else:
            coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        if monic:
            coeffs[-1] = 1
        elif not coeffs[-1] % (p or 10**9):
            continue
        return UniPoly.make(field, coeffs)


def random_pair(rng, field, max_degree=12):
    f = random_poly(rng, field, rng.randint(1, max_degree), monic=rng.random() < 0.5)
    g = random_poly(rng, field, rng.randint(1, max_degree), monic=rng.random() < 0.5)
    return f, g


def automorphic_pair(rng, field, max_degree=64):
    """A pair with K[f, g] = K[z] by construction.

    Starts from (z, c) and applies moves (u, v) -> (v + r(u), u), each an
    automorphism of the polynomial pair, with random r of degree 1..4.
    Leading terms of a degree-1 move can cancel; degenerate draws are
    redrawn so both outputs are nonconstant.
    """
    z = UniPoly.z(field)
    p = field.characteristic()

    def scalar(lo, hi, nonzero=False):
        while True:
            c = rng.randint(lo, hi)
            if not nonzero or c % (p or 10**9):
                return c

    while True:
        u, v = z, UniPoly.make(field, [scalar(-3, 3)])
        moved = False
        while True:
            choices = [d for d in (1, 2, 3, 4) if u.degree * d <= max_degree]
            if not choices or (moved and rng.random() < 0.3):
                break
            d = rng.choice(choices)
            coeffs = [scalar(-2, 2) for _ in range(d)] + [scalar(-2, 2, nonzero=True)]
            acc = UniPoly.make(field, [coeffs[-1]])
            for c in reversed(coeffs[:-1]):
                acc = acc * u + UniPoly.make(field, [c])
            u, v = acc + v, u
            moved = True
        if u.degree >= 1 and v.degree >= 1:
            if rng.random() < 0.5:
                u, v = v, u
            return u, v


def automorphic_pair_of_moves(rng, moves, base_first=True):
    """A pair over Q with Q[f, g] = Q[z], of degrees prod(moves) and prod(moves[:-1]).

    Starts from (z, c), c in [-3, 3], and applies (u, v) -> (v + r(u), u)
    with r of degree d for each d in `moves`, coefficients in [-2, 2] and a
    nonzero leading one; f is the larger element when `base_first` is set.
    """
    field = rationals()
    u, v = UniPoly.z(field), UniPoly.make(field, [rng.randint(-3, 3)])
    for d in moves:
        coeffs = [rng.randint(-2, 2) for _ in range(d)] + [rng.choice((-2, -1, 1, 2))]
        acc = UniPoly.zero(field)
        for c in reversed(coeffs):
            acc = acc * u + UniPoly.make(field, [c])
        u, v = v + acc, u
    return (u, v) if base_first else (v, u)


def random_laurent(rng, field, max_terms=6, fspan=(-4, 5), gspan=(0, 5)):
    """Random nonzero Laurent element with small support."""
    p = field.characteristic()
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            fe = rng.randint(*fspan)
            ge = rng.randint(*gspan)
            c = rng.randint(-5, 5) if p == 0 else rng.randrange(p)
            terms[(fe, ge)] = c
        element = Laurent2.make(field, terms)
        if element:
            return element


def random_monic_laurent(rng, field, max_terms=5):
    """Random element whose top g-coefficient is the constant 1."""
    top = rng.randint(1, 4)
    element = Laurent2.monomial(field, 0, top)
    for _ in range(rng.randint(0, max_terms)):
        fe = rng.randint(-4, 4)
        ge = rng.randint(0, top - 1)
        c = rng.randint(-5, 5) if field.characteristic() == 0 else rng.randrange(field.characteristic())
        element = element + Laurent2.monomial(field, fe, ge, c)
    # additions could never touch the top term, so monicity is intact
    return element
