import random
from collections import Counter
from fractions import Fraction

import pytest

from eqss import spectral
from eqss.cohomology import GradedComplex, relative_model, restricted_action
from eqss.documents import parse_document
from eqss.liealg import LieAutomorphism, coordinate_subalgebra, so_algebra, su2
from eqss.library import (
    builtin_text, circle_base, double_cover_base, point_base, sheet_swap_maps, so_pair, so_pair_reflection, sphere_base,
)
from eqss.linalg import (
    GroupBoundError,
    RationalMatrix,
    SubspaceBasis,
    fixed_subspace,
    kernel_and_image,
    kernel_basis,
)
from eqss.spectral import (
    DeckAction,
    FilteredComplex,
    FilteredComplexError,
    SpectralAuditError,
    _audit_convergence,
    Page,
    PageEntry,
    invariant_filtered_complex,
    pages_inductive,
    product_action,
    product_model,
    run_to_stabilization,
    twist_by_deck,
)
from form_oracles import apply, complement_in, solve
from randgen import random_filtered_complex


def simple_fc(dims, diff_rows, weights):
    diffs = [
        RationalMatrix.from_rows(rows, dims[n]) for n, rows in enumerate(diff_rows)
    ]
    return FilteredComplex.create(GradedComplex.create(dims, diffs), weights)


def test_construction_checks_the_filtration():
    cx = GradedComplex.create((1, 1), [RationalMatrix.from_rows([[1]])])
    table = run_to_stabilization(FilteredComplex.create(cx, ((0,), (1,))))
    assert table.pages[1].dims() == {(0, 0): 1, (1, 0): 1}
    with pytest.raises(FilteredComplexError, match="expected weights for 2 degrees, got 1"):
        FilteredComplex.create(cx, ((0,),))
    with pytest.raises(FilteredComplexError, match="degree 1 has 1 basis vectors but 2 weights"):
        FilteredComplex.create(cx, ((0,), (1, 1)))
    with pytest.raises(FilteredComplexError, match="negative filtration weight in degree 0"):
        FilteredComplex.create(cx, ((-1,), (0,)))
    lowering = (
        r"differential lowers filtration: degree 0 vector 0 \(weight 1\) "
        r"hits degree 1 vector 0 \(weight 0\)"
    )
    with pytest.raises(FilteredComplexError, match=lowering):
        FilteredComplex(cx, ((1,), (0,)))
    # the product model inherits the check
    model = product_model(circle_base(), su2())
    negative = tuple(tuple(-1 for _ in ws) for ws in model.weights)
    with pytest.raises(FilteredComplexError, match="negative filtration weight in degree 0"):
        type(model)(model.complex, negative, model.base, model.fiber, model.blocks)


def test_two_step_complex_pages():
    # 0 -> Q -> Q -> 0 with d = 1 and weights (0, 1)
    fc = simple_fc((1, 1), [[[1]]], ((0,), (1,)))
    table = run_to_stabilization(fc)
    assert table.pages[0].dims() == {(0, 0): 1, (1, 0): 1}
    assert table.pages[1].dims() == {(0, 0): 1, (1, 0): 1}
    assert table.pages[2].dims() == {}
    assert table.stabilized_at == 2
    assert table.einf == {}
    assert table.total_cohomology == (0, 0)
    # with both weights 0 the collapse happens on page 1 already
    fc0 = simple_fc((1, 1), [[[1]]], ((0,), (0,)))
    table0 = run_to_stabilization(fc0)
    assert table0.pages[1].dims() == {}
    assert table0.stabilized_at == 1


def test_trivial_filtration_single_column():
    g = su2()
    model = relative_model(g)
    weights = tuple(tuple(0 for _ in range(d)) for d in model.complex.dims)
    fc = FilteredComplex.create(model.complex, weights)
    table = run_to_stabilization(fc)
    assert table.stabilized_at == 1
    assert table.pages[1].dims() == {(0, 0): 1, (0, 3): 1}
    assert table.einf == {(0, 0): 1, (0, 3): 1}
    assert table.total_cohomology == (1, 0, 0, 1)


def test_zero_differential_einf_is_e0():
    fc = simple_fc((2, 3), [[[0, 0], [0, 0], [0, 0]]], ((0, 1), (2, 0, 1)))
    table = run_to_stabilization(fc)
    assert table.stabilized_at == 0
    assert table.pages[0].dims() == table.einf
    assert sum(table.einf.values()) == 5


def test_einf_matches_page_at_stabilization():
    rng = random.Random(101)
    for _ in range(10):
        fc, _ = random_filtered_complex(rng)
        table = run_to_stabilization(fc)
        assert table.pages[table.stabilized_at].dims() == table.einf
        if table.stabilized_at > 0:
            assert table.pages[table.stabilized_at - 1].dims() != table.einf


def double_cover_twist(g, h, aut):
    """The deck-invariant part of (two-sheet circle cover) x (g, h), with the
    deck group acting by the sheet swap on the base and aut on the fiber."""
    fc = product_model(double_cover_base(), g, h)
    return fc, product_action(fc, sheet_swap_maps(), restricted_action(fc.fiber, aut))


def test_random_complexes_closed_form_vs_inductive():
    rng = random.Random(103)
    cases = [random_filtered_complex(rng) for _ in range(20)]
    # wider weights, so that differentials longer than d_3 occur
    cases += [random_filtered_complex(rng, max_weight=5) for _ in range(10)]
    pages = [run_to_stabilization(fc, max_page=5).pages for fc, _ in cases]
    assert any(p[4].dims() != p[5].dims() for p in pages)
    # the shipped models and the l = 3 twist, whose cohomology is known only by rank
    shipped = [entry.filtered() for entry in parse_document(builtin_text("models")).complexes.values()]
    g, h = so_pair(3)
    cover, total = double_cover_twist(g, h, so_pair_reflection(3))
    twist, _ = invariant_filtered_complex(cover, DeckAction.create(cover, [total]))
    cases += [(fc, None) for fc in shipped + [twist]]
    assert len(cases) == 38
    for fc, hdims in cases:
        table = run_to_stabilization(fc)
        assert table.pages[-1].dims() == table.einf
        if hdims is not None:
            assert table.total_cohomology == hdims
            assert sum(table.einf.values()) == sum(hdims)
        inductive = pages_inductive(fc)
        for r, dims in enumerate(inductive):
            assert table.pages[r].dims() == dims, f"page {r} disagrees"


def test_inductive_pages_build_each_presentation_once_and_agree_past_stabilization(monkeypatch):
    # past the top weight no Z space changes, so pages beyond maxw + 2 build nothing new
    counts = Counter()
    for owner, name in ((spectral, "image_basis"), (spectral, "_presented"),
                        (spectral.FilteredComplex, "level_space")):
        def counted(*args, _name=name, _f=getattr(owner, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(owner, name, counted)
    rng = random.Random(109)
    cases = [random_filtered_complex(rng, max_weight=w)[0] for w in (3, 5) for _ in range(8)]
    cases += [entry.filtered() for entry in parse_document(builtin_text("models")).complexes.values()]
    built = Counter()
    for fc in cases:
        maxw = fc.max_weight
        calls = []
        for rmax in (maxw + 2, maxw + 12):
            counts.clear()
            inductive = pages_inductive(fc, rmax=rmax)
            calls.append(dict(counts))
        assert calls[0] == calls[1]
        built.update(calls[0])
        table = run_to_stabilization(fc, max_page=maxw + 12)
        assert [page.dims() for page in table.pages] == inductive
    assert built["image_basis"] and built["_presented"] and built["level_space"]


def test_page_dimensions_non_increasing():
    rng = random.Random(107)
    for _ in range(10):
        fc, _ = random_filtered_complex(rng)
        table = run_to_stabilization(fc)
        prev = None
        for pg in table.pages:
            if prev is not None:
                for key, d in pg.dims().items():
                    assert d <= prev.get(key, 0)
            prev = pg.dims()


def test_product_model_point_base_is_absolute_complex():
    g = su2()
    fc = product_model(point_base(), g)
    model = relative_model(g)
    assert fc.complex.dims == model.complex.dims
    for n in range(fc.complex.top):
        assert fc.complex.differential(n) == model.complex.differential(n)
    table = run_to_stabilization(fc)
    assert table.total_cohomology == (1, 0, 0, 1)


def test_product_model_circle_times_su2():
    fc = product_model(circle_base(), su2())
    table = run_to_stabilization(fc)
    assert table.total_cohomology == (1, 1, 0, 1, 1)
    kunneth = {(0, 0): 1, (0, 3): 1, (1, 0): 1, (1, 3): 1}
    assert table.pages[2].dims() == kunneth
    assert table.einf == kunneth
    assert table.stabilized_at <= 2


def test_product_model_sphere2_times_so3_pair():
    g = so_algebra(3)
    fc = product_model(sphere_base(2), g, coordinate_subalgebra(g, [1]))
    table = run_to_stabilization(fc)
    assert table.total_cohomology == (1, 0, 2, 0, 1)


def test_product_model_sphere4_times_su2():
    fc = product_model(sphere_base(4), su2())
    table = run_to_stabilization(fc)
    assert table.total_cohomology == (1, 0, 0, 1, 1, 0, 0, 1)


def test_two_row_fiber_changes_only_at_gysin_page():
    # fiber cohomology concentrated in degrees 0 and l: only d_{l+1} can fire
    g = so_algebra(3)
    ell = 2
    fc = product_model(sphere_base(2), g, coordinate_subalgebra(g, [1]))
    table = run_to_stabilization(fc)
    for r in range(1, len(table.pages) - 1):
        if r != ell + 1:
            assert table.pages[r].dims() == table.pages[r + 1].dims()


def test_trivial_twist_keeps_complex():
    g = su2()
    fc = product_model(circle_base(), g, coordinate_subalgebra(g, [3]))
    ident = LieAutomorphism.create(g, RationalMatrix.identity(3))
    out = twist_by_deck(fc, [RationalMatrix.identity(1)] * 2, ident)
    assert out.complex.dims == fc.complex.dims
    assert out.weights == fc.weights
    for n in range(out.complex.top):
        assert out.complex.differential(n) == fc.complex.differential(n)


def test_deck_twisted_double_cover():
    g = su2()
    fc = product_model(double_cover_base(), g, coordinate_subalgebra(g, [3]))
    swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
    reflect = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    twisted = twist_by_deck(fc, [swap, swap], reflect)
    table = run_to_stabilization(twisted)
    assert table.total_cohomology == (1, 1, 0, 0)
    ident = LieAutomorphism.create(g, RationalMatrix.identity(3))
    control = twist_by_deck(fc, [swap, swap], ident)
    assert run_to_stabilization(control).total_cohomology == (1, 1, 1, 1)


def test_twist_dims_equal_fixed_subspace_dims():
    g = su2()
    fc = product_model(double_cover_base(), g, coordinate_subalgebra(g, [3]))
    swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
    reflect = LieAutomorphism.create(g, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    fiber_maps = restricted_action(fc.fiber, reflect)
    total = product_action(fc, [swap, swap], fiber_maps)
    twisted = twist_by_deck(fc, [swap, swap], reflect)
    for n in range(fc.complex.top + 1):
        assert twisted.complex.dims[n] == fixed_subspace([total[n]]).dim


def test_twist_rejects_nonpreserving_coefficient_action():
    g = su2()
    fc = product_model(circle_base(), g, coordinate_subalgebra(g, [3]))
    cycle = LieAutomorphism.create(g, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="preserve"):
        twist_by_deck(fc, [RationalMatrix.identity(1)] * 2, cycle)


def test_twist_rejects_noncommuting_base_action():
    g = su2()
    fc = product_model(double_cover_base(), g, coordinate_subalgebra(g, [3]))
    ident = LieAutomorphism.create(g, RationalMatrix.identity(3))
    bad = RationalMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="commute"):
        twist_by_deck(fc, [bad, RationalMatrix.identity(2)], ident)


def test_deck_action_validation():
    fc = simple_fc((2,), [], ((1, 0),))
    with pytest.raises(FilteredComplexError, match="lowers filtration"):
        DeckAction.create(fc, [[RationalMatrix.from_rows([[1, 0], [1, 1]])]])
    shear = RationalMatrix.from_rows([[1, 1], [0, 1]])
    fc0 = simple_fc((2,), [], ((0, 0),))
    with pytest.raises(GroupBoundError):
        DeckAction.create(fc0, [[shear]])


def test_invariant_complex_weight_adapted_basis():
    # the fixed space mixes weights; the adapted basis must sit in weight 0
    fc = simple_fc((3,), [], ((1, 0, 0),))
    g = RationalMatrix.from_rows([[-1, 0, 1], [0, 1, 0], [0, 0, 1]])
    action = DeckAction.create(fc, [[g]])
    out, embeddings = invariant_filtered_complex(fc, action)
    assert out.complex.dims == (2,)
    assert out.weights == ((0, 0),)
    assert len(embeddings[0]) == 2
    # on both double-cover twists, checked without the engine's restricted kernel:
    # each embedding vector of weight p is fixed and lies in F^p, and the number
    # of weight >= p equals dim ker [M - I; e_j for weight(j) < p]
    so3, so2 = so_pair(2)
    for aut in (so_pair_reflection(2), LieAutomorphism.create(so3, RationalMatrix.identity(3))):
        fc, total = double_cover_twist(so3, so2, aut)
        out, embeddings = invariant_filtered_complex(fc, DeckAction.create(fc, [total]))
        for n, (ws, vecs) in enumerate(zip(out.weights, embeddings)):
            m, amb = total[n], fc.complex.dims[n]
            for p, v in zip(ws, vecs):
                assert apply(m, v) == v
                assert all(not v[j] for j, w in enumerate(fc.weights[n]) if w < p)
            for p in range(fc.max_weight + 1):
                rows = list(m.sub(RationalMatrix.identity(amb)).rows) + [
                    tuple(int(i == j) for i in range(amb))
                    for j, w in enumerate(fc.weights[n])
                    if w < p
                ]
                expect = kernel_basis(RationalMatrix.from_rows(rows, amb)).dim
                assert sum(w >= p for w in ws) == expect


def complement_chain_basis(fc, action):
    """Per degree the (weight, vector) pairs of the weight-adapted basis as
    built before: fix cap F^p as a kernel restricted to the level indices,
    complemented against fix cap F^{p+1}, from the top weight down."""
    out = []
    for n, amb in enumerate(fc.complex.dims):
        ident = RationalMatrix.identity(amb)
        rows = [row for maps in action.generators for row in maps[n].sub(ident).rows]
        adapted, prev = [], SubspaceBasis.zero(amb)
        for p in range(fc.max_weight, -1, -1):
            cols = fc.level_indices(n, p)
            small = kernel_basis(RationalMatrix.from_rows(tuple(tuple(r[j] for j in cols) for r in rows), len(cols)))
            vecs = []
            for v in small.vectors:
                x = [Fraction(0)] * amb
                for j, c in zip(cols, v):
                    x[j] = c
                vecs.append(tuple(x))
            cur = SubspaceBasis(RationalMatrix.from_columns(vecs, amb))
            adapted += [(p, v) for v in complement_in(cur, prev).vectors]
            prev = cur
        out.append(sorted(adapted, key=lambda t: t[0]))
    return out


@pytest.mark.parametrize("l", [2, 3, 4])
def test_weight_adapted_basis_matches_the_complement_chain(l):
    g, h = so_pair(l)
    for aut in (so_pair_reflection(l), LieAutomorphism.create(g, RationalMatrix.identity(g.dim))):
        fc, total = double_cover_twist(g, h, aut)
        action = DeckAction.create(fc, [total])
        out, embeddings = invariant_filtered_complex(fc, action)
        for n, adapted in enumerate(complement_chain_basis(fc, action)):
            assert out.weights[n] == tuple(p for p, _ in adapted)
            assert embeddings[n] == tuple(v for _, v in adapted)


def per_weight_invariant_complex(fc, action):
    """The fixed subcomplex as built before the weight-order basis: weight by
    weight from the top, the kernel of the stacked (M_i - I) on the columns
    of F^p off the pivots already taken, and d restricted by solving against
    the embedding vectors."""
    cx = fc.complex
    weights, embeddings = [], []
    for n in range(cx.top + 1):
        ident = RationalMatrix.identity(cx.dims[n])
        rows = [row for maps in action.generators for row in maps[n].sub(ident).rows]
        adapted, taken = [], set()
        for p in range(fc.max_weight, -1, -1):
            cols = [j for j in fc.level_indices(n, p) if j not in taken]
            new, _ = kernel_and_image(RationalMatrix.from_rows(rows, cx.dims[n]), cols)
            taken.update(new.pivots)
            adapted.extend((p, v) for v in new.vectors)
        adapted.sort(key=lambda t: t[0])
        weights.append(tuple(p for p, _ in adapted))
        embeddings.append(tuple(v for _, v in adapted))
    diffs = []
    for n in range(cx.top):
        emb_next = RationalMatrix.from_columns(list(embeddings[n + 1]), cx.dims[n + 1])
        cols = [solve(emb_next, apply(cx.differential(n), v)) for v in embeddings[n]]
        diffs.append(RationalMatrix.from_columns(cols, len(embeddings[n + 1])))
    new_cx = GradedComplex.create(tuple(len(e) for e in embeddings), diffs)
    return FilteredComplex.create(new_cx, weights), tuple(embeddings)


def deck_cases():
    """(fc, action maps): the l = 2, 3, 4 twists with the reflection and the
    identity, and the shipped antipodal deck action."""
    out = []
    for l in (2, 3, 4):
        g, h = so_pair(l)
        for aut in (so_pair_reflection(l), LieAutomorphism.create(g, RationalMatrix.identity(g.dim))):
            out.append(double_cover_twist(g, h, aut))
    doc = parse_document(builtin_text("models"))
    act = doc.action("antipodal_deck")
    out.append((doc.complex_entry(act.complex_name).filtered(), act.maps))
    return out


def _permuted(m, rows, cols):
    dense = m.rows
    return RationalMatrix.from_rows(tuple(tuple(dense[i][j] for j in cols) for i in rows), len(cols))


def test_weight_order_basis_matches_the_per_weight_construction():
    for fc, maps in deck_cases():
        action = DeckAction.create(fc, [maps])
        out, embeddings = invariant_filtered_complex(fc, action)
        ref, ref_embeddings = per_weight_invariant_complex(fc, action)
        assert out == ref
        assert embeddings == ref_embeddings


def mixed_weight_cases():
    """Twists whose degrees mix two weights: the circle double cover times
    su2 (reflection and identity) and times so4 (a sign automorphism)."""
    g = su2()
    out = [
        double_cover_twist(g, None, LieAutomorphism.create(g, rows))
        for rows in ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], RationalMatrix.identity(3))
    ]
    g = so_algebra(4)
    # eps_i eps_j on the lex pairs (i, j), eps = (1, 1, -1, -1)
    signs = [1, -1, -1, -1, -1, 1]
    out.append(double_cover_twist(g, None, LieAutomorphism.create(g, [
        [signs[i] if i == j else 0 for j in range(6)] for i in range(6)
    ])))
    return out


def weight_mixing_involutions(rng, count):
    """Complexes with zero differential and random weights, with the
    involution T D T^-1: D = diag(+-1) and T unit triangular in weight order,
    so the action mixes weights without lowering them."""
    out = []
    for _ in range(count):
        dims = (rng.randint(2, 6), rng.randint(2, 6))
        weights = [[rng.randint(0, 3) for _ in range(d)] for d in dims]
        maps = []
        for d, ws in zip(dims, weights):
            t = RationalMatrix.from_rows([
                [int(i == j) or (rng.randint(-2, 2) if ws[i] > ws[j] else 0) for j in range(d)]
                for i in range(d)
            ])
            diag = RationalMatrix.from_rows([[rng.choice((1, -1)) * (i == j) for j in range(d)] for i in range(d)])
            maps.append(t.mul(diag).mul(t.inverse()))
        cx = GradedComplex.create(dims, [RationalMatrix.zeros(dims[1], dims[0])])
        out.append((FilteredComplex.create(cx, weights), maps))
    return out


def test_weight_order_basis_on_permuted_bases():
    # with each degree's basis shuffled the weights are not monotone, so the
    # two bases differ, but they are both weight-adapted bases of one filtration
    rng = random.Random(811)
    shuffled_weights = 0
    for fc, maps in deck_cases() + mixed_weight_cases() + weight_mixing_involutions(rng, 30):
        cx = fc.complex
        orders = [rng.sample(range(d), d) for d in cx.dims]
        weights = [[fc.weights[n][i] for i in order] for n, order in enumerate(orders)]
        shuffled_weights += any(ws != sorted(ws) for ws in weights)
        diffs = [_permuted(cx.differential(n), orders[n + 1], orders[n]) for n in range(cx.top)]
        shuffled = FilteredComplex.create(GradedComplex.create(cx.dims, diffs), weights)
        action = DeckAction.create(shuffled, [[_permuted(m, o, o) for m, o in zip(maps, orders)]])
        out, embeddings = invariant_filtered_complex(shuffled, action)
        ref, ref_embeddings = per_weight_invariant_complex(shuffled, action)
        assert out.complex.dims == ref.complex.dims
        assert [sorted(ws) for ws in out.weights] == [sorted(ws) for ws in ref.weights]
        got, want = run_to_stabilization(out), run_to_stabilization(ref)
        assert [pg.dims() for pg in got.pages] == [pg.dims() for pg in want.pages]
        assert got.total_cohomology == want.total_cohomology
        for n, amb in enumerate(cx.dims):
            for p in range(fc.max_weight + 2):
                spans = [
                    SubspaceBasis.span([v for w, v in zip(ws[n], vs[n]) if w >= p], amb)
                    for ws, vs in ((out.weights, embeddings), (ref.weights, ref_embeddings))
                ]
                assert spans[0] == spans[1]
    assert shuffled_weights >= 30  # the mixed-weight twists and most involutions


def test_audit_failure_raises():
    fc = simple_fc((1, 1), [[[1]]], ((0,), (1,)))
    fake = Page(9, (PageEntry(0, 0, 1),))
    with pytest.raises(SpectralAuditError, match="convergence audit failed"):
        _audit_convergence(fc, fake, (0, 0))


def test_page_builders_refuse_past_the_page_limit_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("built before the page count was checked")

    limit = spectral.MAX_PAGES
    fc = simple_fc((1, 1), [[[1]]], ((0,), (1,)))
    heavy = simple_fc((1,), [], ((10**8,),))
    monkeypatch.setattr(spectral, "_ZChain", never)
    monkeypatch.setattr(spectral, "_pairs", never)
    for build, pages in (
        (lambda: pages_inductive(fc, rmax=limit), limit + 1),
        (lambda: pages_inductive(heavy), 10**8 + 3),
        (lambda: run_to_stabilization(fc, max_page=limit), limit + 1),
    ):
        with pytest.raises(ValueError, match=f"^{pages} pages requested, more than the limit of {limit}$"):
            build()
    monkeypatch.undo()
    assert len(pages_inductive(fc, rmax=limit - 1)) == limit


def test_inductive_audit_sees_a_denominator_outside_the_numerator(monkeypatch):
    space = spectral._ZChain.space

    def dropping(self, n, p, s):  # Z_s^p for s >= 1 loses its last basis vector
        got = space(self, n, p, s)
        return SubspaceBasis(RationalMatrix(got.ambient, got.matrix.entries[:-1])) if s >= 1 else got

    monkeypatch.setattr(spectral._ZChain, "space", dropping)
    fc = simple_fc((2,), [], ((0, 1),))
    with pytest.raises(SpectralAuditError, match=r"denominator escaped the numerator at \(n,p,r\)=\(0,0,1\)"):
        pages_inductive(fc)


def test_inductive_audit_sees_a_wrong_rank_of_d_r(monkeypatch):
    new_pivots = spectral._new_pivots

    def off_by_one(basis, cols):  # a nonzero count, which is rank d_r, one too high
        k = new_pivots(basis, cols)
        return k + 1 if k else k

    monkeypatch.setattr(spectral, "_new_pivots", off_by_one)
    fc = simple_fc((1, 1), [[[1]]], ((0,), (1,)))
    with pytest.raises(SpectralAuditError, match="prediction disagrees with the page 2 presentation"):
        pages_inductive(fc)


def test_inductive_audit_sees_representatives_outside_the_numerator(monkeypatch):
    # representatives taken from all of C^n: d e_0 = f_0 has weight 0, outside the target F^1
    presented = spectral._presented

    def everywhere(num, den):
        basis, kept, _ = presented(num, den)
        return basis, kept, presented(SubspaceBasis.full(2).matrix.entries, den)[2]

    monkeypatch.setattr(spectral, "_presented", everywhere)
    fc = simple_fc((2, 2), [[[1, 0], [0, 1]]], ((0, 1), (0, 1)))
    with pytest.raises(SpectralAuditError, match="differential left the page presentation"):
        pages_inductive(fc)
