"""Randomized invariants of the engine, 100+ seeded instances per property."""

import math
import random
from fractions import Fraction

from eqss.cohomology import cohomology, cup_product, relative_model
from eqss.forms import _jacobi_witness, ce_complex
from eqss.liealg import su2, so_algebra
from eqss.linalg import (
    RationalMatrix,
    enumerate_group,
    fixed_subspace,
    image_basis,
    kernel_basis,
    rank,
)
from eqss.obstructions import CupForm, null_hyperplane_search

from form_oracles import apply, bracket, contains_subspace, contract, dense_wedge, form_from_vector, solve
from randgen import form_null_on, random_rational, random_symmetric, random_two_step_nilpotent, transported_algebra

INSTANCES = 100


def random_vector(rng, n, span=3):
    return tuple(Fraction(rng.randint(-span, span), rng.choice([1, 1, 2])) for _ in range(n))


def random_valid_algebra(rng):
    roll = rng.random()
    if roll < 0.5:
        return random_two_step_nilpotent(rng, max_dim=5)
    if roll < 0.8:
        return transported_algebra(rng, su2())
    return transported_algebra(rng, so_algebra(3))


def test_ce_differential_squares_to_zero():
    rng = random.Random(8001)
    for _ in range(INSTANCES):
        g = random_valid_algebra(rng)
        ce = ce_complex(g)
        for k in range(g.dim - 1):
            assert ce.differential(k + 1).mul(ce.differential(k)).is_zero()


def test_jacobi_identity_on_random_vector_triples():
    rng = random.Random(8002)
    for _ in range(INSTANCES):
        g = random_valid_algebra(rng)
        assert _jacobi_witness(g) is None
        x = random_vector(rng, g.dim)
        y = random_vector(rng, g.dim)
        z = random_vector(rng, g.dim)
        total = [
            a + b + c
            for a, b, c in zip(
                bracket(g, bracket(g, x, y), z),
                bracket(g, bracket(g, y, z), x),
                bracket(g, bracket(g, z, x), y),
            )
        ]
        assert not any(total)


def test_ce_differential_is_a_wedge_antiderivation():
    rng = random.Random(8003)
    for _ in range(INSTANCES):
        g = random_valid_algebra(rng)
        n = g.dim
        ce = ce_complex(g)
        p = rng.randint(0, n - 1)
        q = rng.randint(0, n - p - 1)
        a = form_from_vector(n, p, random_vector(rng, ce.dim(p)))
        b = form_from_vector(n, q, random_vector(rng, ce.dim(q)))
        da = form_from_vector(n, p + 1, apply(ce.differential(p), a.coeffs))
        db = form_from_vector(n, q + 1, apply(ce.differential(q), b.coeffs))
        lhs = apply(ce.differential(p + q), dense_wedge(a, b).coeffs)
        sign = Fraction((-1) ** p)
        rhs = [
            u + sign * v for u, v in zip(dense_wedge(da, b).coeffs, dense_wedge(a, db).coeffs)
        ]
        assert list(lhs) == rhs


def test_contraction_is_antisymmetric():
    rng = random.Random(8004)
    for _ in range(INSTANCES):
        n = rng.randint(2, 6)
        k = rng.randint(2, n)
        form = form_from_vector(n, k, random_vector(rng, math.comb(n, k)))
        x = random_vector(rng, n)
        y = random_vector(rng, n)
        xy = contract(x, contract(y, form))
        yx = contract(y, contract(x, form))
        assert all(a == -b for a, b in zip(xy.coeffs, yx.coeffs))
        xx = contract(x, contract(x, form))
        assert not any(xx.coeffs)


def test_rank_nullity_and_solve_agree():
    rng = random.Random(8005)
    for _ in range(INSTANCES):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [random_vector(rng, ncols) for _ in range(nrows)], ncols
        )
        r = rank(m)
        assert r + kernel_basis(m).dim == ncols
        assert image_basis(m).dim == r
        v = random_vector(rng, ncols)
        b = apply(m, v)
        w = solve(m, b)
        assert w is not None and apply(m, w) == b


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = Fraction(rng.choice([1, -1]))
    return RationalMatrix.from_rows([tuple(r) for r in rows], n)


def test_group_averaging_projector_is_idempotent():
    rng = random.Random(8006)
    for _ in range(INSTANCES):
        n = rng.randint(1, 5)
        gens = [signed_permutation(rng, n) for _ in range(rng.randint(1, 2))]
        group = enumerate_group(gens)
        card = Fraction(1, len(group))
        dense = [g.rows for g in group]
        rows = [
            tuple(card * sum(g[i][j] for g in dense) for j in range(n))
            for i in range(n)
        ]
        proj = RationalMatrix.from_rows(rows, n)
        assert proj.mul(proj) == proj
        fixed = fixed_subspace(gens)
        img = image_basis(proj)
        assert img.dim == fixed.dim and contains_subspace(fixed, img)


def test_cup_product_is_representative_independent():
    rng = random.Random(8007)
    done = 0
    while done < INSTANCES:
        g = random_valid_algebra(rng)
        res = cohomology(relative_model(g).complex)
        ce = ce_complex(g)
        degrees = [k for k in range(1, g.dim) if res.dims[k]]
        if not degrees:
            continue
        p = rng.choice(degrees)
        q = rng.choice([k for k in range(0, g.dim - p + 1) if res.dims[k]])
        u = random_vector(rng, res.dims[p])
        v = random_vector(rng, res.dims[q])
        base = cup_product(g, res, p, u, q, v)
        # shift the degree-p representative by an exact form; the class is equal
        rep = [Fraction(0)] * ce.dim(p)
        for c, vec in zip(u, res.representatives[p]):
            for i, a in enumerate(vec):
                rep[i] += c * a
        shift = apply(ce.differential(p - 1), random_vector(rng, ce.dim(p - 1)))
        shifted = [a + b for a, b in zip(rep, shift)]
        vrep = [Fraction(0)] * ce.dim(q)
        for c, vec in zip(v, res.representatives[q]):
            for i, a in enumerate(vec):
                vrep[i] += c * a
        product = dense_wedge(form_from_vector(g.dim, p, shifted), form_from_vector(g.dim, q, vrep))
        assert res.express_columns(p + q, RationalMatrix.from_columns([product.coeffs])).column(0) == base
        done += 1


def test_binary_null_search_is_exact():
    # b2 = 2: an exclusion leaves no small integer line null for every form,
    # and a witness line is null for every form
    rng = random.Random(8014)
    lines = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if math.gcd(x, y) == 1]
    outcomes = {"excluded": 0, "witness": 0, "irrational": 0}
    for _ in range(3 * INSTANCES):
        fractions = rng.random() < 0.5
        roll = rng.random()
        if roll < 0.4:
            x, y = rng.choice(lines)
            mats = [form_null_on(rng, (y, -x), fractions) for _ in range(rng.randint(1, 3))]
        elif roll < 0.6:
            base = random_symmetric(rng, 2, fractions)
            mats = [[[c * a for a in row] for row in base] for c in (1, random_rational(rng, fractions))]
        else:
            mats = [random_symmetric(rng, 2, fractions) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            mats.append(random_symmetric(rng, 2, fractions))
        cup = CupForm.create(2, mats)
        result = null_hyperplane_search(cup)
        assert result.completeness == "exact"

        def null_everywhere(v):
            return all(sum(a * b for a, b in zip(v, apply(m, v))) == 0 for m in cup.matrices)

        if not result.found:
            outcomes["excluded"] += 1
            assert not any(null_everywhere(v) for v in lines), mats
        elif result.hyperplane is None:
            outcomes["irrational"] += 1
        else:
            outcomes["witness"] += 1
            (v,) = result.hyperplane.vectors
            assert null_everywhere(v), mats
    assert min(outcomes.values()) >= 10, outcomes
