"""Seeded input generation for the dendrikit benchmark.

Structures are written from their structure constants here, in the
benchmark's own code, so the program under test only ever receives finished
inputs.  The change of basis used by the dense workload is also done here.

Every random choice comes from ``rng_for(seed, key)``, which hashes its key
with SHA-512, so the same seed always yields the same inputs, independent of
``PYTHONHASHSEED`` and of the order in which slots are generated.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
DELTAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3))


def rng_for(seed, key: str) -> random.Random:
    return random.Random(f"{seed}/{key}")


def zero_cube(n: int):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def zero_mat(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


# --- sparse families in their natural bases -----------------------------------
# A product cube c[k][i][j] is the coefficient of b_k in b_i * b_j, as in
# dendrikit.algebras.


def truncated_poly(n: int) -> dict:
    """Associative k[t]/(t^n) on 1, t, ..., t^(n-1)."""
    c = zero_cube(n)
    for i in range(n):
        for j in range(n - i):
            c[i + j][i][j] = ONE
    return {"kind": "assoc", "dim": n, "products": {"mul": c}}


def rota_baxter_split(n: int) -> dict:
    """Dendriform split of k[t]/(t^n) along integration R(t^i) = t^(i+1)/(i+1).

    t^i < t^j = t^i R(t^j) = t^(i+j+1)/(j+1) and t^i > t^j = R(t^i) t^j =
    t^(i+j+1)/(i+1), truncated at degree n.
    """
    lt, gt = zero_cube(n), zero_cube(n)
    for i in range(n):
        for j in range(n - i - 1):
            lt[i + j + 1][i][j] = Fraction(1, j + 1)
            gt[i + j + 1][i][j] = Fraction(1, i + 1)
    return {"kind": "dendriform", "dim": n, "products": {"lt": lt, "gt": gt}}


def novikov(n: int) -> dict:
    """Pre-Lie a.b = a b' on span(t^2, ..., t^(n+1)) modulo degree n+2.

    With e_i = t^(i+2): e_i . e_j = (j+2) e_(i+j+1).
    """
    c = zero_cube(n)
    for i in range(n):
        for j in range(n - i - 1):
            c[i + j + 1][i][j] = Fraction(j + 2)
    return {"kind": "prelie", "dim": n, "products": {"mul": c}}


def witt(n: int) -> dict:
    """Commutator Lie algebra of ``novikov(n)``: [e_i, e_j] = (j - i) e_(i+j+1)."""
    c = zero_cube(n)
    for i in range(n):
        for j in range(n - i - 1):
            if i != j:
                c[i + j + 1][i][j] = Fraction(j - i)
    return {"kind": "lie", "dim": n, "products": {"bracket": c}}


def phi_perm(n: int) -> dict:
    """Perm algebra x.y = phi(x) y with phi the first coordinate: e_0 e_j = e_j."""
    c = zero_cube(n)
    for j in range(n):
        c[j][0][j] = ONE
    return {"kind": "perm", "dim": n, "products": {"mul": c}}


def dendriform_pair() -> dict:
    """The 2-dim dendriform algebra of the corpus: e1 > e1 = e1, e2 < e1 = e2."""
    lt, gt = zero_cube(2), zero_cube(2)
    lt[1][1][0] = ONE
    gt[0][0][0] = ONE
    return {"kind": "dendriform", "dim": 2, "products": {"lt": lt, "gt": gt}}


def perm_pair() -> dict:
    """The 2-dim perm algebra of the corpus: x2 x1 = x1, x2 x2 = x2."""
    c = zero_cube(2)
    c[0][1][0] = ONE
    c[1][1][1] = ONE
    return {"kind": "perm", "dim": 2, "products": {"mul": c}}


FAMILIES = {
    "trunc": truncated_poly,
    "rbdend": rota_baxter_split,
    "novikov": novikov,
    "witt": witt,
    "phiperm": phi_perm,
}


def square_zero_r(n: int, skew: bool) -> list:
    """A symmetric (or skew) 2-tensor on the top half of the basis.

    Every family above multiplies e_i and e_j into index i+j+1 or i+j, so
    all products among basis elements of index >= n/2 vanish.  An r-matrix
    with both legs there solves every Yang-Baxter equation, and its
    coboundary coproducts give valid bialgebras; the checks still run over
    all basis tuples.
    """
    h = (n + 1) // 2
    r = zero_mat(n, n)
    for i in range(h, n):
        for j in range(i, n):
            c = Fraction(i + j - 2 * h + 1)
            if skew:
                if i != j:
                    r[i][j], r[j][i] = c, -c
            else:
                r[i][j] = r[j][i] = c
    return r


# --- change of basis ----------------------------------------------------------


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def random_basis(n: int, rng: random.Random):
    """S = L.D.U and its exact inverse.

    L (U) is unit lower (upper) triangular with entries in {-1, 1}; D is
    diagonal with entries in {1, 2}.  The columns of S are the new basis
    vectors in old coordinates.  The inverse is assembled from the exact
    inverses of the three triangular factors.
    """
    low = [[ONE if i == j else (Fraction(rng.choice((-1, 1))) if j < i else ZERO)
            for j in range(n)] for i in range(n)]
    up = [[ONE if i == j else (Fraction(rng.choice((-1, 1))) if j > i else ZERO)
           for j in range(n)] for i in range(n)]
    diag = [Fraction(rng.choice((1, 2))) for _ in range(n)]
    s = mat_mul(mat_mul(low, [[diag[i] if i == j else ZERO for j in range(n)]
                              for i in range(n)]), up)
    s_inv = mat_mul(mat_mul(_unit_tri_inverse(up, upper=True),
                            [[1 / diag[i] if i == j else ZERO for j in range(n)]
                             for i in range(n)]),
                    _unit_tri_inverse(low, upper=False))
    return s, s_inv


def _unit_tri_inverse(t, upper: bool):
    """Inverse of a unit triangular matrix by forward or back substitution."""
    n = len(t)
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            others = range(i + 1, n) if upper else range(i)
            inv[i][col] = (ONE if i == col else ZERO) - sum(
                (t[i][k] * inv[k][col] for k in others), ZERO
            )
    return inv


def transform_cube_product(c, s, s_inv):
    """c'[k][i][j] = sum S^-1[k][c] S[a][i] S[b][j] c[c][a][b]."""
    n = len(c)
    # contract the two input slots, then the output slot
    t1 = [[[sum((c[k][a][b] * s[a][i] for a in range(n)), ZERO) for b in range(n)]
           for i in range(n)] for k in range(n)]
    t2 = [[[sum((t1[k][i][b] * s[b][j] for b in range(n)), ZERO) for j in range(n)]
           for i in range(n)] for k in range(n)]
    return [[[sum((s_inv[k][m] * t2[m][i][j] for m in range(n)), ZERO) for j in range(n)]
             for i in range(n)] for k in range(n)]


def transform_tensor(r, s_inv):
    """Coordinates of an element of V (x) V in the new basis: S^-1 r S^-T."""
    n = len(r)
    t = [[sum((s_inv[p][a] * r[a][b] for a in range(n)), ZERO) for b in range(n)]
         for p in range(n)]
    return [[sum((t[p][b] * s_inv[q][b] for b in range(n)), ZERO) for q in range(n)]
            for p in range(n)]


def change_basis(spec: dict, s, s_inv) -> dict:
    return {
        "kind": spec["kind"],
        "dim": spec["dim"],
        "products": {
            op: transform_cube_product(c, s, s_inv) for op, c in spec["products"].items()
        },
    }


# --- perturbation and input properties -----------------------------------------


def perturb_cube(cubes: dict, rng: random.Random) -> dict:
    """Copy of a {name: cube} dict with one coefficient shifted."""
    name = rng.choice(sorted(cubes))
    n = len(cubes[name])
    site = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
    delta = rng.choice(DELTAS)
    out = {nm: [[list(row) for row in plane] for plane in cube] for nm, cube in cubes.items()}
    k, i, j = site
    out[name][k][i][j] += delta
    return out


def perturb_matrix(m, rng: random.Random) -> list:
    """Copy of a matrix with one entry shifted."""
    i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
    out = [list(row) for row in m]
    out[i][j] += rng.choice(DELTAS)
    return out


def iter_scalars(x):
    if isinstance(x, Fraction):
        yield x
    elif isinstance(x, dict):
        for k in sorted(x):
            yield from iter_scalars(x[k])
    else:
        for y in x:
            yield from iter_scalars(y)


def cube_properties(cubes: dict):
    """(nonzero constants, constants, max denominator bits) of a {name: cube} dict."""
    nonzero = total = bits = 0
    for x in iter_scalars(cubes):
        total += 1
        if x != 0:
            nonzero += 1
            bits = max(bits, x.denominator.bit_length())
    return nonzero, total, bits

