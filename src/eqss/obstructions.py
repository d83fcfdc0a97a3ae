"""Exact-sequence feasibility and checkers that exclude group actions.

The long-exact-sequence solver treats exactness as rank bookkeeping: a
finite sequence 0 -> T_0 -> ... -> T_m -> 0 of finite dimensional spaces
is exact iff there are nonnegative arrow ranks with

    dim T_i = rank(arrow into T_i) + rank(arrow out of T_i).

A term T_i is an int >= 0, its known dimension, or a nonempty str, the
label of an unknown one; `LesProblem` admits nothing else, and no label
twice or right after another, so the sequence bounds every unknown.  At
most MAX_SOLUTIONS solutions are listed; an empty solution set means the
hypothesized dimensions are incompatible with the sequence, which is the
exclusion mechanism.  The Gysin and Wang assemblers produce such problems
from basic-cohomology data, and the remaining checkers wrap the
dimension-count theorems for SU(2)-type actions on 4- and 5-manifolds.

Verdicts never assert that an action exists; they are either "excluded"
or "not excluded by this criterion".

The sequence checkers do integer bookkeeping only.  The exact rationals
(`linalg`, and through it `fractions`) are imported inside the functions
that read or search a cup form, so the other checks start without them.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING, Callable, Sequence

from .records import FrozenRecord, set_fields

if TYPE_CHECKING:
    from fractions import Fraction

    from .liealg import LieAlgebra, Subalgebra
    from .linalg import RationalMatrix, SubspaceBasis

__all__ = [
    "CupForm",
    "LesProblem",
    "LesSolution",
    "NullSearchResult",
    "Verdict",
    "gysin_assemble",
    "null_hyperplane_search",
    "s3_check_4manifold",
    "s3_check_5manifold",
    "solve_les",
    "verify_exactness",
    "wang_check",
]

MAX_UNKNOWNS = 12
# The most solutions listed: gysin --l 1 --basic 9,9,9,9,9,9 has 10,000, printed in 0.6 s and 1.2 MB.
MAX_SOLUTIONS = 10_000
# The most entries of the dense (b2 - 1) x b2 witness a search may build: b2 =
# 2,000 takes 0.7 s and 322 MB (2.0 s and 655 MB with --json), b2 = 5,000 1.9 GB.
MAX_WITNESS_ENTRIES = 4_000_000

NOT_EXCLUDED = "not excluded by this criterion"


class LesProblem(FrozenRecord):
    """A finite exact sequence flanked by zeros on both sides.

    terms is the expansion of a pattern of `period` slots per degree over
    degree_range; each label appears once and is followed by a known
    dimension or ends the sequence.  forced_zero_ranks lists arrows whose
    rank must vanish; arrow i joins terms[i] to terms[i+1].
    """

    __slots__ = ("terms", "period", "degree_range", "forced_zero_ranks", "description")

    def __init__(self, terms: tuple[int | str, ...], period: int = 1, degree_range: tuple[int, int] = (0, 0),
                 forced_zero_ranks: tuple[int, ...] = (), description: str = "") -> None:
        if not terms:
            raise ValueError("an exact-sequence problem needs at least one term")
        seen = set()
        for i, t in enumerate(terms):
            if not (type(t) is int and t >= 0 or type(t) is str and t):
                raise ValueError(f"a sequence term is a dimension >= 0 or a nonempty label, got {t!r}")
            if type(t) is str and (t in seen or i and type(terms[i - 1]) is str):
                raise ValueError(f"a label appears once and not right after another, got {t!r} at term {i}")
            seen.add(t)
        for i in forced_zero_ranks:
            if not 0 <= i < len(terms) - 1:
                raise ValueError(f"forced arrow index {i} out of range")
        if period < 1:
            raise ValueError("period must be positive")
        set_fields(self, terms=terms, period=period, degree_range=degree_range,
                   forced_zero_ranks=forced_zero_ranks, description=description)

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(t for t in self.terms if type(t) is str))

    def render(self) -> str:
        return "0 -> " + " -> ".join(str(t) if type(t) is int else f"?{t}" for t in self.terms) + " -> 0"

    def as_dict(self) -> dict:
        return {
            "terms": [{"dim": t} if type(t) is int else {"label": t} for t in self.terms],
            "period": self.period,
            "degree_range": list(self.degree_range),
            "forced_zero_ranks": list(self.forced_zero_ranks),
            "description": self.description,
        }


class LesSolution(FrozenRecord):
    __slots__ = ("assignments", "map_ranks")

    def __init__(self, assignments: dict[str, int], map_ranks: tuple[int, ...]) -> None:
        set_fields(self, assignments=assignments, map_ranks=map_ranks)

    def as_dict(self) -> dict:
        return {
            "assignments": {k: self.assignments[k] for k in sorted(self.assignments)},
            "map_ranks": list(self.map_ranks),
        }


def solve_les(problem: LesProblem) -> list[LesSolution]:
    """All nonnegative-integer solutions of the exactness constraints.

    Past a label, the rank out of every term is c + x or c - x, x the rank
    out of that label, so one pass over the terms bounds each label's x to
    an interval, whatever came before it, and the solutions are exactly the
    points of the product of those intervals.  More than MAX_SOLUTIONS of
    them raise ValueError from that count, before any is built.  A label's
    value is the rank into it plus its x; solutions come back sorted
    lexicographically in the sorted label order.
    """
    labels = problem.labels()
    _check_unknowns(len(labels))
    terms, m = problem.terms, len(problem.terms)
    forced = frozenset(problem.forced_zero_ranks)
    bounds: dict[str, list[int]] = {}
    c = s = 0  # the rank out of terms[i] is c + s * x, x the rank out of the last label
    for i, t in enumerate(terms):
        if type(t) is str:  # the next term, a known dimension, bounds x, or there is none
            c, s = 0, 1
            x = bounds[t] = [0, terms[i + 1] if i + 1 < m else 0]
        else:
            c, s = t - c, -s
        zero = i in forced or i == m - 1  # the rank out must vanish
        if s:  # the rank out vanishes at x = v and is >= 0 on one side of v
            v = -s * c
            if zero or s == 1:
                x[0] = max(x[0], v)
            if zero or s == -1:
                x[1] = min(x[1], v)
        elif c < 0 or zero and c:
            return []
    ranges = [range(lo, hi + 1) for lo, hi in (bounds[name] for name in labels)]
    if prod(map(len, ranges)) > MAX_SOLUTIONS:
        raise ValueError(f"solver bound exceeded: more than {MAX_SOLUTIONS} solutions")
    solutions: list[LesSolution] = []
    for xs in product(*ranges):
        out, ranks = dict(zip(labels, xs)), [0]  # ranks[i] is the rank into terms[i]
        for t in terms:
            ranks.append(out[t] if type(t) is str else t - ranks[-1])
        assign = {t: ranks[i] + ranks[i + 1] for i, t in enumerate(terms) if type(t) is str}
        solutions.append(LesSolution(assign, tuple(ranks[1:-1])))
    solutions.sort(key=lambda sol: tuple(sol.assignments[name] for name in labels))
    for sol in solutions:
        if not verify_exactness(problem, sol):
            raise AssertionError(f"solver returned a solution that fails the exactness check: {sol}")
    return solutions


def _check_unknowns(count: int) -> None:
    if count > MAX_UNKNOWNS:
        raise ValueError(f"solver bound exceeded: {count} unknown labels (max {MAX_UNKNOWNS})")


def verify_exactness(problem: LesProblem, solution: LesSolution) -> bool:
    """Re-check a solution against the constraints, independent of the solver."""
    terms = problem.terms
    m = len(terms)
    if len(solution.map_ranks) != m - 1:
        return False
    dims = [t if type(t) is int else solution.assignments.get(t) for t in terms]
    if None in dims:
        return False
    ranks = solution.map_ranks
    for i in problem.forced_zero_ranks:
        if ranks[i] != 0:
            return False
    for i in range(m):
        r_in = ranks[i - 1] if i > 0 else 0
        r_out = ranks[i] if i < m - 1 else 0
        if r_out < 0 or dims[i] != r_in + r_out:
            return False
    for i in range(m - 1):
        if ranks[i] > min(dims[i], dims[i + 1]):
            return False
    return True


class Verdict(FrozenRecord):
    """Outcome of a checker; exclusion claims carry the theorem applied."""

    __slots__ = ("excluded", "verdict", "reason", "citation", "completeness", "problem", "witness")

    def __init__(self, excluded: bool, verdict: str, reason: str, citation: str = "",
                 completeness: str = "", problem: LesProblem | None = None,
                 witness: SubspaceBasis | None = None) -> None:
        set_fields(self, excluded=excluded, verdict=verdict, reason=reason, citation=citation,
                   completeness=completeness, problem=problem, witness=witness)

    def as_dict(self) -> dict:
        out = {
            "excluded": self.excluded,
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.citation:
            out["citation"] = self.citation
        if self.completeness:
            out["completeness"] = self.completeness
        if self.problem is not None:
            out["problem"] = self.problem.as_dict()
        if self.witness is not None:
            out["witness"] = [[str(a) for a in v] for v in self.witness.vectors]
        return out


def _check_dims(dims: Sequence[int], what: str) -> tuple[int, ...]:
    try:
        out = tuple(dims)
    except TypeError as exc:
        raise ValueError(f"malformed {what}: {dims!r}") from exc
    if any(type(d) is not int for d in out):
        raise ValueError(f"malformed {what}: {dims!r}")
    if any(d < 0 for d in out):
        raise ValueError(f"malformed {what}: dimensions must be nonnegative")
    if not out:
        raise ValueError(f"malformed {what}: empty")
    return out


def _two_row_gap(g: LieAlgebra, h: Subalgebra | None) -> int:
    """The l with H^i(g,h) = k for i in {0, l} and 0 elsewhere, or raise."""
    from .cohomology import lie_cohomology

    dims = lie_cohomology(g, h).dims
    nonzero = [i for i, d in enumerate(dims) if d]
    hname = h.name if h is not None and h.name else "h"
    if dims[0] != 1 or len(nonzero) != 2 or dims[nonzero[1]] != 1:
        raise ValueError(
            f"H({g.name},{hname}) = {list(dims)} is not two one-dimensional rows"
        )
    return nonzero[1]


def _total_terms(total_dims: Sequence[int] | None, n: int) -> Callable[[int], int | str]:
    """H^k(M) as a sequence term: the given total dims, which must cover
    degrees 0..n, else the unknowns M0..Mn; zero outside 0..n."""
    total = None
    if total_dims is None:
        _check_unknowns(n + 1)  # the labels M0..Mn, before any term is built
    else:
        total = _check_dims(total_dims, "total dims")
        if len(total) != n + 1:
            raise ValueError(
                f"total dims must cover degrees 0..{n}, got {len(total)} entries"
            )

    def m_term(k: int) -> int | str:
        if not 0 <= k <= n:
            return 0
        return total[k] if total is not None else f"M{k}"

    return m_term


def _sequence(n: int, m_term: Callable[[int], int | str], x: Callable[[int], int], y: Callable[[int], int],
              description: str, forced: Sequence[int] = ()) -> LesProblem:
    """The period-3 sequence m_term(k), x(k), y(k) for k = -1..n.

    forced lists the slots 0..2 of each period whose outgoing arrow has rank 0.
    """
    terms = tuple(t for k in range(-1, n + 1) for t in (m_term(k), x(k), y(k)))
    return LesProblem(terms, period=3, degree_range=(-1, n), description=description,
                      forced_zero_ranks=tuple(b + s for b in range(0, len(terms), 3) for s in forced))


def gysin_assemble(
    l: int | None = None,
    basic_dims: Sequence[int] | None = None,
    total_dims: Sequence[int] | None = None,
    pair: tuple[LieAlgebra, Subalgebra | None] | None = None,
    split: bool = False,
    oriented: bool = False,
) -> LesProblem:
    """The sequence ... -> H^k(M) -> H^{k-l}(B) -> H^{k+1}(B) -> H^{k+1}(M) -> ...

    B stands for the basic cohomology of the orbit foliation; the gap l is
    the top degree of the two-row pair cohomology and may be supplied either
    directly or through a (g, h) pair, which is then verified to be two-row.
    With total_dims the problem has no unknowns and solving it is a pure
    consistency check.  split forces the connecting maps B -> B to rank 0
    (valid for even l); oriented demands top basic dimension 1.
    """
    if pair is not None:
        g, h = pair
        derived = _two_row_gap(g, h)
        if l is not None and l != derived:
            raise ValueError(f"supplied gap {l} but the pair has gap {derived}")
        l = derived
    if l is None:
        raise ValueError("need either the gap l or a (g, h) pair")
    if type(l) is not int:
        raise ValueError(f"the gap l must be an int, got {l!r}")
    if l < 1:
        raise ValueError("the gap l must be at least 1")
    if basic_dims is None:
        raise ValueError("basic_dims is required")
    basic = _check_dims(basic_dims, "basic dims")
    if oriented and basic[-1] != 1:
        raise ValueError(
            f"homological orientability forces top basic dimension 1, got {basic[-1]}"
        )
    if split and l % 2:
        raise ValueError("the splitting constraint applies to even gaps only")
    bt = len(basic) - 1
    n = bt + l
    m_term = _total_terms(total_dims, n)

    def b_term(j: int) -> int:
        return basic[j] if 0 <= j <= bt else 0

    return _sequence(n, m_term, lambda k: b_term(k - l), lambda k: b_term(k + 1),
                     f"Gysin sequence, gap {l}", forced=(1,) if split else ())


def wang_check(
    codim: int,
    simply_connected: bool,
    oriented: bool,
    gh_dims: Sequence[int],
    total_dims: Sequence[int] | None = None,
) -> Verdict:
    """Low-codimension checks for equidimensional actions.

    codim 1 needs no sequence: a compact oriented manifold with such an
    action has H^1 != 0, so a simply connected one is excluded outright.
    codim 2 and 3 assemble the sequence relating H(M) to the pair
    cohomology; both require the simply connected and oriented hypotheses.
    codim 3 additionally forces H^1(g,h) = 0, and dims violating that are
    reported as an inconsistent hypothesis rather than assembled.
    """
    if codim not in (1, 2, 3):
        raise ValueError(f"unsupported codim {codim}")
    gh = _check_dims(gh_dims, "pair cohomology dims")
    if gh[0] != 1:
        raise ValueError("H^0(g,h) is one-dimensional for every pair; got " + str(gh[0]))
    if codim == 1:
        if simply_connected and oriented:
            return Verdict(
                True,
                "excluded",
                "H^1(M) contains the one-dimensional top basic cohomology, so it cannot vanish",
                citation=(
                    "a compact connected oriented manifold with an equidimensional"
                    " codimension-1 action is never simply connected"
                ),
            )
        return Verdict(
            False,
            NOT_EXCLUDED,
            "the codimension-1 exclusion needs both the simply connected and oriented flags",
        )
    if not (simply_connected and oriented):
        raise ValueError(
            "the codimension-%d sequence requires a simply connected oriented manifold" % codim
        )
    if codim == 3 and len(gh) > 1 and gh[1] != 0:
        return Verdict(
            False,
            "inconsistent hypothesis",
            f"H^1(g,h) = {gh[1]} but codimension-3 equidimensional actions force H^1(g,h) = 0",
            citation=(
                "for codimension 3 the sequence has only columns 0 and 3,"
                " so H^1(g,h) injects into H^1(M) = 0"
            ),
        )
    gap = codim - 1
    s = len(gh) - 1
    n = codim + s
    m_term = _total_terms(total_dims, n)

    def g_term(j: int) -> int:
        return gh[j] if 0 <= j <= s else 0

    problem = _sequence(n, m_term, g_term, lambda k: g_term(k - gap),
                        f"Wang sequence, codimension {codim}")
    return Verdict(
        False,
        NOT_EXCLUDED,
        "sequence assembled; an empty solution set on given totals refutes them",
        citation=(
            "simply connected oriented manifolds with codimension-%d equidimensional"
            " actions fit the sequence H^k(M) -> H^k(g,h) -> H^{k-%d}(g,h) -> H^{k+1}(M)"
            % (codim, gap)
        ),
        problem=problem,
    )


def s3_check_4manifold(betti: Sequence[int]) -> Verdict:
    """Second-Betti-number exclusion for nonabelian compact group actions in dim 4."""
    dims = _check_dims(betti, "Betti numbers")
    if len(dims) != 5:
        raise ValueError(f"expected five Betti numbers b0..b4, got {len(dims)}")
    if dims[0] != 1:
        raise ValueError("the criterion applies to connected manifolds (b0 = 1)")
    citation = (
        "a compact connected 4-manifold with dim H^2 >= 3 admits no nontrivial"
        " smooth SU(2) action"
    )
    if dims[2] >= 3:
        return Verdict(
            True, "excluded", f"dim H^2 = {dims[2]} >= 3", citation=citation
        )
    return Verdict(
        False,
        NOT_EXCLUDED,
        f"dim H^2 = {dims[2]} <= 2 is compatible with the dimension bound",
        citation=citation,
    )


class CupForm(FrozenRecord):
    """The cup product H^2 x H^2 -> H^4 as b4 symmetric b2 x b2 matrices."""

    __slots__ = ("b2", "b4", "matrices")

    def __init__(self, b2: int, b4: int, matrices: tuple[RationalMatrix, ...]) -> None:
        set_fields(self, b2=b2, b4=b4, matrices=matrices)

    @classmethod
    def create(cls, b2: int, matrices: Sequence) -> "CupForm":
        from .linalg import RationalMatrix, as_fraction

        if type(b2) is not int or b2 < 0:
            raise ValueError(f"inconsistent cup data: b2 must be an int >= 0, got {b2!r}")
        mats = []
        for m in matrices:
            if not isinstance(m, RationalMatrix):
                m = RationalMatrix.from_rows([[as_fraction(a) for a in row] for row in m])
            if m.shape != (b2, b2):
                raise ValueError(
                    f"inconsistent cup data: matrix shape {m.shape}, expected ({b2}, {b2})"
                )
            if m != m.transpose():
                raise ValueError("inconsistent cup data: cup matrices must be symmetric")
            mats.append(m)
        return cls(b2, len(mats), tuple(mats))


def _vanishes_on(rows: Sequence[Sequence], n: Sequence) -> bool:
    """Whether the symmetric form with these rows vanishes on n.x = 0 (n != 0).

    With q the first index where n_q != 0 and r = rows[q], the vectors
    n_q e_j - n_j e_q span the hyperplane, and the form takes
    n_q^2 Q_ij + Q_qq n_i n_j - n_q (n_i r_j + r_i n_j) on the pair (i, j).
    """
    q = next(i for i, x in enumerate(n) if x)
    nq, r = n[q], rows[q]
    return all(
        nq * nq * row[j] + r[q] * n[i] * n[j] == nq * (n[i] * r[j] + r[i] * n[j])
        for i, row in enumerate(rows)
        for j in range(i, len(n))
    )


class NullSearchResult(FrozenRecord):
    __slots__ = ("found", "hyperplane", "completeness", "note")

    def __init__(self, found: bool, hyperplane: SubspaceBasis | None, completeness: str,
                 note: str = "") -> None:
        # completeness: "exact" or "bounded-search"
        set_fields(self, found=found, hyperplane=hyperplane, completeness=completeness, note=note)


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    from fractions import Fraction

    if f < 0:
        return None
    pn, qn = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and qn * qn == f.denominator:
        return Fraction(pn, qn)
    return None


def _primitive_normal(v: Sequence) -> tuple[int, ...]:
    """The rational vector v != 0 scaled to a primitive integer vector whose
    first nonzero entry is positive."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) if next(filter(None, ints)) > 0 else -gcd(*ints)
    return tuple(x // g for x in ints)


def _pivot_columns(m: RationalMatrix) -> list[int]:
    """The columns of m independent of those before them, up to a third:
    len(...) = min(rank m, 3), and for rank m = 2 they index an invertible
    principal submatrix, since m is symmetric."""
    from .linalg import insert

    basis: dict[int, dict[int, int]] = {}
    return [j for j, col in enumerate(m.entries) if len(basis) < 3 and insert(basis, col) is not None]


def null_hyperplane_search(cup: CupForm) -> NullSearchResult:
    """Decide whether a hyperplane of H^2 exists on which every cup matrix vanishes.

    A form null on n.x = 0 is n l^T + l n^T, of rank <= 2, so the first
    nonzero matrix Q names the candidate normals: l if Q = c l l^T, and if
    rank Q = 2, with pivot columns J, Q v for each null line v of Q[J, J],
    as Q = Q[:, J] Q[J, J]^-1 Q[J, :].  If those lines are irrational, they
    are null for every matrix iff every matrix is a multiple of Q.  Each
    candidate is tested on every matrix (`_vanishes_on`), by height and then
    lexicographically at b2 >= 3, and only one that passes gets a basis,
    unless it could pass MAX_WITNESS_ENTRIES (ValueError).  Every answer is
    exact but one: a matrix of rank >= 3, for which no hyperplane is null,
    is answered "bounded-search" with a note on normals of height <= 5, as
    perfbench's check of its definite cup job expects.
    """
    from .linalg import RationalMatrix, SubspaceBasis, kernel_basis

    b2 = cup.b2
    if b2 < 1:
        raise ValueError("the search needs b2 >= 1")
    if b2 == 1:
        return NullSearchResult(
            True, SubspaceBasis.zero(1), "exact", "the zero subspace is the only hyperplane"
        )
    pivots = [_pivot_columns(m) for m in cup.matrices]
    if any(len(cols) > 2 for cols in pivots):
        note = "no rational null hyperplane with integer normal of height <= 5"
        return NullSearchResult(False, None, "bounded-search", note)
    forms = [m.rows for m in cup.matrices]
    first, cols = next(((f, cols) for f, cols in zip(forms, pivots) if cols), (None, []))
    line = "line" if b2 == 2 else "hyperplane"
    if not cols:
        normals = [(0,) * (b2 - 1) + (1,)]
    elif len(cols) == 1:
        normals = [first[cols[0]]]
    else:
        p, r = cols
        a, b, c = first[p][p], first[p][r], first[r][r]
        disc = b * b - a * c
        if disc < 0:
            note = f"the first nonzero form is {'definite' if b2 == 2 else 'semidefinite of rank 2'}"
            return NullSearchResult(False, None, "exact", note + " (negative discriminant)")
        root = _fraction_sqrt(disc)
        if root is None:
            # a rational form null on an irrational hyperplane is null on its conjugate
            # too, and two null hyperplanes fix it up to scale (a != 0: disc is no square)
            if all(f[i][j] * a == first[i][j] * f[p][p]
                   for f in forms for i in range(b2) for j in range(i, b2)):
                note = f"a real null {line} exists but its coordinates are irrational"
                return NullSearchResult(
                    True, None, "exact", f"{note} (discriminant {disc} is not a rational square)"
                )
            lines = []
        elif a != 0:
            lines = [(-b + root, a), (-b - root, a)]
        else:
            lines = [(1, 0), (-c, 2 * b)]
        normals = [[x * s + y * t for s, t in zip(first[p], first[r])] for x, y in lines]
    normals = [_primitive_normal(n) for n in normals]
    if b2 > 2:
        normals.sort(key=lambda n: (max(map(abs, n)), n))
    for normal in normals:
        if all(_vanishes_on(f, normal) for f in forms):
            if (b2 - 1) * b2 > MAX_WITNESS_ENTRIES:
                raise ValueError(
                    f"the null hyperplane search for b2 = {b2} could build a witness of {(b2 - 1) * b2}"
                    f" entries, past the limit of {MAX_WITNESS_ENTRIES}"
                )
            note = f"normal {normal}" if b2 > 2 else "all cup matrices vanish" if first is None else ""
            return NullSearchResult(True, kernel_basis(RationalMatrix.from_rows([normal])), "exact", note)
    note = f"every null {line} of the first form fails another cup matrix"
    return NullSearchResult(False, None, "exact", note)


def s3_check_5manifold(
    b2: int, cup: CupForm, sphere_hyperplane_exists: bool
) -> Verdict:
    """Hyperplane criteria for nonabelian compact group actions in dim 5.

    An action forces a hyperplane of H_2 generated by spheres or a
    hyperplane of H^2 on which the cup product vanishes.  The first is a
    user-supplied geometric flag; the second is searched for.  Exclusion is
    claimed only when the flag is false and the search's negative answer is
    exact; a "bounded-search" answer (a matrix of rank >= 3) is inconclusive.
    """
    if type(b2) is not int:
        raise ValueError(f"b2 must be an int, got {b2!r}")
    if b2 < 0:
        raise ValueError("b2 must be nonnegative")
    if cup.b2 != b2:
        raise ValueError(f"inconsistent cup data: cup.b2 = {cup.b2} but b2 = {b2}")
    citation = (
        "an effective smooth action of a compact connected nonabelian Lie group on a"
        " compact 5-manifold forces a sphere-generated hyperplane in H_2 or a"
        " cup-null hyperplane in H^2"
    )
    if sphere_hyperplane_exists:
        return Verdict(
            False,
            NOT_EXCLUDED,
            "a hyperplane generated by spheres is asserted by the caller",
            citation=citation,
        )
    if b2 == 0:
        return Verdict(
            False,
            NOT_EXCLUDED,
            "H^2 = 0, so the cup-product condition is vacuous",
            citation=citation,
        )
    result = null_hyperplane_search(cup)
    if result.found:
        return Verdict(
            False,
            NOT_EXCLUDED,
            "the cup product vanishes on a hyperplane"
            + (f" ({result.note})" if result.note else ""),
            citation=citation,
            completeness=result.completeness,
            witness=result.hyperplane,
        )
    if result.completeness == "exact":
        return Verdict(
            True,
            "excluded",
            "no sphere-generated hyperplane (caller) and no cup-null hyperplane"
            f" ({result.note})",
            citation=citation,
            completeness="exact",
        )
    return Verdict(
        False,
        NOT_EXCLUDED,
        f"the bounded search found no cup-null hyperplane ({result.note});"
        " the search is incomplete, so no exclusion is claimed",
        citation=citation,
        completeness="bounded-search",
    )
