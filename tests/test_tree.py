"""Tree construction, minimalization, and the multiplicity M."""

import random
import sys

import pytest

from singcurve.errors import (InputError, NotReduced, UnitInput,
                              ZeroPolynomial)
from singcurve.field import field_ctx
from singcurve.hn import HNMap, hn_map
from singcurve.invariants import intersect_tree
from singcurve.milnor import local_intersection
from singcurve.newton import newton_polygon
from singcurve.poly import BiPoly, parse_poly, vanishes_at_origin
from singcurve.tree import (build_tree, build_tree_multi, minimalize,
                            tree_multiplicity, tree_to_ascii, tree_to_dot,
                            vertex_report)

from curves import EX1, EX2, four_lines
from oracles import multiplicity_sum_check

QQ = field_ctx(0)


def _vertex_tuples(t):
    """(N, q, p) per chain vertex, in creation order."""
    return [(n.N, n.q, n.p) for n in sorted(t.vertices(), key=lambda n: int(n.nid[1:]))]


def _zero_heads(t):
    return sorted(n.N for n in t.arrows("zero"))


def test_cusp_tree():
    t = build_tree(parse_poly("x^2 - y^3", QQ))
    assert _vertex_tuples(t) == [(6, 2, 3)]
    assert _zero_heads(t) == [2, 3]
    assert t.branch_count() == 1
    assert tree_multiplicity(t).M == -1
    assert vertex_report(t) == [6, 3, 2]


def test_cusp_minimal_and_renderers():
    t = build_tree(parse_poly("x^2 - y^3", QQ))
    tm = minimalize(t)
    # both dead ends carry decorations 2 and 3, so nothing is erased
    assert len(tm.nodes) == len(t.nodes)
    assert "N=6" in tree_to_ascii(t)
    dot = tree_to_dot(t)
    assert dot.startswith("graph") and "(6)" in dot


def test_json_schema():
    t = build_tree(parse_poly("x^2 - y^3", QQ))
    d = t.to_json_dict()
    assert set(d) == {"vertices", "edges", "arrows"}
    assert d["vertices"] == [{"id": "v0", "N": 6,
                              "decorations": {"q": 2, "p": 3}}]
    assert d["edges"] == []
    kinds = sorted(a["kind"] for a in d["arrows"])
    assert kinds == ["branch", "zero", "zero"]
    for a in d["arrows"]:
        assert a["at"] == "v0"
        assert {"id", "kind", "at", "near_vertex"} <= set(a)
    assert sorted(a["N"] for a in d["arrows"] if a["kind"] == "zero") == [2, 3]


def test_ex1_tree():
    t = build_tree(parse_poly(EX1, QQ))
    assert _vertex_tuples(t) == [(24, 2, 3), (100, 25, 2), (202, 101, 2)]
    assert _zero_heads(t) == [8, 12, 50, 101]
    assert t.branch_count() == 1
    assert tree_multiplicity(t).M == -155
    assert sorted(vertex_report(t)) == [8, 12, 24, 50, 100, 101, 202]


def test_ex1_edges_and_decorations():
    t = build_tree(parse_poly(EX1, QQ))
    vids = [n.nid for n in t.vertices()]
    # connecting edges are decorated 1 at the parent and q at the child
    decs = {}
    for a, b, da, db in t.edges.values():
        if a in vids and b in vids:
            decs[(a, b)] = (da, db)
    assert decs == {("v0", "v1"): (1, 25), ("v1", "v2"): (1, 101)}
    # each vertex keeps its own (q, p) pair on the vertical edges
    by_vertex = {}
    for n in t.vertices():
        away = sorted(d for _, other, d, _ in t.neighbors(n.nid)
                      if t.nodes[other].kind != "vertex")
        by_vertex[n.nid] = away
    assert by_vertex == {"v0": [2, 3], "v1": [2], "v2": [1, 2]}


def test_ex1_already_minimal():
    t = build_tree(parse_poly(EX1, QQ))
    tm = minimalize(t)
    assert set(tm.nodes) == set(t.nodes)
    assert tree_multiplicity(tm).M == -155


def test_ex2_tree_char_0():
    t = build_tree(parse_poly(EX2, QQ))
    assert _vertex_tuples(t) == [(14, 1, 2), (26, 2, 3), (28, 7, 1),
                                 (44, 5, 4)]
    assert _zero_heads(t) == [11, 14, 28]
    assert t.branch_count() == 5
    assert tree_multiplicity(t).M == -101
    tm = minimalize(t)
    # the two dead ends decorated 1 go away, their vertices keep valency >= 3
    assert sorted(vertex_report(tm)) == [11, 14, 26, 28, 44]
    assert tree_multiplicity(tm).M == -101
    assert tm.branch_count() == 5


def test_ex2_char_3_same_shape():
    t = build_tree(parse_poly(EX2, field_ctx(3)))
    assert _vertex_tuples(t) == [(14, 1, 2), (26, 2, 3), (28, 7, 1),
                                 (44, 5, 4)]
    assert tree_multiplicity(t).M == -101


def test_ex2_tree_char_2():
    t = build_tree(parse_poly(EX2, field_ctx(2)))
    assert sorted(_vertex_tuples(t)) == [(14, 1, 2), (26, 2, 3), (28, 7, 1),
                                         (30, 5, 2), (44, 5, 4), (58, 15, 2)]
    assert _zero_heads(t) == [11, 14, 15, 28, 29]
    assert t.branch_count() == 3
    assert tree_multiplicity(t).M == -103

    tm = minimalize(t)
    assert sorted(n.N for n in tm.vertices()) == [26, 30, 44, 58]
    assert _zero_heads(tm) == [11, 15, 29]
    assert tree_multiplicity(tm).M == -103
    # fusing the two erased vertices rewires (26)-(30) as 2/5 and (26)-(58)
    # as 1/15, matching the decorations of the glic chains they came from
    byN = {n.N: n.nid for n in tm.vertices()}
    fused = {}
    for a, b, da, db in tm.edges.values():
        ka = tm.nodes[a].N if tm.nodes[a].kind == "vertex" else None
        kb = tm.nodes[b].N if tm.nodes[b].kind == "vertex" else None
        if ka and kb:
            fused[tuple(sorted((ka, kb)))] = {ka: da, kb: db}
    assert fused[(26, 30)] == {26: 2, 30: 5}
    assert fused[(26, 58)] == {26: 1, 58: 15}
    assert fused[(26, 44)] == {26: 3, 44: 5}


FOUR_LINES_TABLE = [
    # a-vector, M, r, N values of the minimal tree
    ((0, 1, 2, 3), -8, 4, [4]),
    ((0, 0, 1, 2), -12, 4, [4, 8]),
    ((0, 0, 0, 1), -14, 4, [7]),
    ((0, 0, 0, 0), -16, 2, [4, 20]),
    ((1, 1, 2, 3), -9, 3, [4, 5, 10]),
    ((1, 1, 2, 2), -10, 2, [5, 5, 10, 10]),
    ((1, 1, 1, 2), -10, 2, [5, 15]),
    ((1, 1, 1, 1), -11, 1, [4, 5, 20]),
    ((0, 0, 1, 1), -13, 3, [5, 8, 10]),
]


@pytest.mark.parametrize("a,M,r,minimal", FOUR_LINES_TABLE,
                         ids=["".join(map(str, row[0])) for row in FOUR_LINES_TABLE])
def test_four_lines(a, M, r, minimal):
    t = build_tree(parse_poly(four_lines(a), QQ))
    assert tree_multiplicity(t).M == M
    assert t.branch_count() == r
    tm = minimalize(t)
    assert tree_multiplicity(tm).M == M
    assert tm.branch_count() == r
    assert sorted(vertex_report(tm)) == minimal


def test_axes_and_smooth():
    # single axes and a smooth curve: M is +1, one branch, no vertices survive
    for s in ["x", "y", "y - x^2", "y - x^2 + 3 x^5"]:
        t = build_tree(parse_poly(s, QQ))
        assert t.branch_count() == 1
        assert tree_multiplicity(t).M == 1
        assert tree_multiplicity(minimalize(t)).M == 1
    t = build_tree(parse_poly("x y", QQ))
    assert t.branch_count() == 2
    assert tree_multiplicity(t).M == 0
    labels = sorted(n.label for n in t.arrows("branch"))
    assert labels == ["x = 0", "y = 0"]


def test_transversal_lines():
    t = build_tree(parse_poly("x (x - y)", QQ))
    assert tree_multiplicity(t).M == 0
    assert t.branch_count() == 2
    tm = minimalize(t)
    # everything fuses away: two branch arrows joined by one edge
    assert len(tm.vertices()) == 0
    assert tree_multiplicity(tm).M == 0


def test_tangential_smooth_pair():
    t = build_tree(parse_poly("y (y - x^2)", QQ))
    assert _vertex_tuples(t) == [(4, 2, 1)]
    assert tree_multiplicity(t).M == -2
    assert t.branch_count() == 2


def test_multi_factor_owners():
    fs = [parse_poly("y - x^2", QQ), parse_poly("x", QQ)]
    t = build_tree_multi(fs)
    owners = {n.owner for n in t.arrows("branch")}
    assert owners == {0, 1}
    axis = [n for n in t.arrows("branch") if n.label == "x = 0"]
    assert len(axis) == 1 and axis[0].owner == 1


def test_chains_sum_the_strand_polygons(monkeypatch):
    # two cusps sharing their face root and the axis y: the origin test
    # multiplies the three factors once each, and no chain forms a product
    fs = [parse_poly(s, QQ) for s in ("x^2 - y^3", "x^2 - y^3 + x^3", "y")]
    callers = []
    mul = BiPoly.__mul__

    def counted(a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return mul(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    t = build_tree_multi(fs, check=False)
    monkeypatch.undo()
    assert callers == ["build_tree_multi"] * 2
    # y = 0 ends the root chain as factor 2, and the chain glued at the
    # shared root as factor 0, whose image there Y divides
    assert sorted(n.owner for n in t.arrows("branch")
                  if n.label == "y = 0") == [0, 2]
    single = build_tree(fs[0] * fs[1] * fs[2])
    assert t.to_json_dict() == single.to_json_dict()


def test_multi_factor_shared_face_root():
    # both factors put the root 1 on the face of (3,2); the builder has to
    # split the multiplicity between strands and recurse on the pair
    fs = [parse_poly("x^2 - y^3", QQ), parse_poly("x^2 - y^3 + x^3", QQ)]
    t = build_tree_multi(fs)
    assert t.branch_count() == 2
    assert {n.owner for n in t.arrows("branch")} == {0, 1}
    assert not multiplicity_sum_check(t)
    single = build_tree(parse_poly("(x^2 - y^3)(x^2 - y^3 + x^3)", QQ))
    assert tree_multiplicity(t).M == tree_multiplicity(single).M


# germs over F_3 whose first face splits only over F_9, followed by a
# sibling root or a later face: (germ, M, delta, branches)
SPLIT_AFTER_DEEPER_ROOT = [
    ("((y-x)^2 - 2x^4)(y+x)", -5, 4, 3),
    ("((y-x)^2 - 2x^4)((y+x)^2 - 2x^4)", -12, 8, 4),
    ("((y-x)^2 - 2x^4)(y-x^3)", -5, 4, 3),
    ("((y-x)^2 - 2x^4)(y-x^3)(y-2x^3)", -14, 9, 4),
]


@pytest.mark.parametrize("text,M,delta,r", SPLIT_AFTER_DEEPER_ROOT)
def test_extension_in_a_deeper_chain_lifts_what_follows(text, M, delta, r):
    for ctx in (field_ctx(3), field_ctx(3, 2)):
        t = build_tree(parse_poly(text, ctx))
        m = tree_multiplicity(t).M
        assert (m, (t.branch_count() - m) // 2, t.branch_count()) == \
            (M, delta, r), (text, ctx)
        assert not multiplicity_sum_check(t)


@pytest.mark.parametrize("text,M,delta,r", SPLIT_AFTER_DEEPER_ROOT)
def test_a_tree_held_to_its_field_raises_where_it_would_extend(text, M,
                                                               delta, r):
    with pytest.raises(InputError, match=r"GF\(3\^2\)"):
        build_tree(parse_poly(text, field_ctx(3)), extend=False)
    t = build_tree(parse_poly(text, field_ctx(3, 2)), extend=False)
    assert tree_multiplicity(t).M == M


def test_input_errors():
    with pytest.raises(ZeroPolynomial):
        build_tree(BiPoly.zero(QQ))
    with pytest.raises(UnitInput):
        build_tree(parse_poly("1 + x", QQ))
    with pytest.raises(NotReduced):
        build_tree(parse_poly("(x + y)^2", QQ))
    with pytest.raises(NotReduced):
        build_tree(parse_poly("x^2 y + x^2", QQ))
    # the axis guard catches squares even when the gcd check is skipped
    with pytest.raises(NotReduced):
        build_tree(parse_poly("x^2 - x^2 y", QQ), check=False)


def _random_reduced(ctx, rng):
    while True:
        f = BiPoly(ctx)
        for _ in range(rng.randrange(3, 7)):
            i, j = rng.randrange(0, 5), rng.randrange(0, 5)
            c = rng.randrange(1, ctx.characteristic)
            f.c[(i, j)] = ctx.add(f.c.get((i, j), ctx.zero), c % ctx.characteristic)
        f.c = {k: v for k, v in f.c.items() if not ctx.is_zero(v)}
        if f.is_zero() or (0, 0) in f.c:
            continue
        from singcurve.poly import reduced_check
        if reduced_check(f)[0]:
            return f


def test_random_trees_satisfy_the_multiplicity_sum():
    rng = random.Random(20260815)
    for p in (2, 3, 5, 7):
        ctx = field_ctx(p)
        for _ in range(12):
            f = _random_reduced(ctx, rng)
            t = build_tree(f)
            assert not multiplicity_sum_check(t), f
            tm = minimalize(t)
            assert not multiplicity_sum_check(tm), f
            m, r = tree_multiplicity(t).M, t.branch_count()
            assert tree_multiplicity(tm).M == m
            assert tm.branch_count() == r
            assert (-m + r) % 2 == 0, f
            # a minimal tree has no valency-2 vertices and no cheap dead end
            for n in tm.vertices():
                assert tm.valency(n.nid) != 2
            for n in tm.arrows("zero"):
                _, other, _, dother = tm.neighbors(n.nid)[0]
                assert not (tm.nodes[other].kind == "vertex" and dother == 1)


# pairs where one factor is a unit in the chart of the other's multiple
# face root, so it leaves that chain
UNIT_IN_CHART_PAIRS = [("(y - x)^2 - x^3", "y + x"), (EX1, "y - 3x")]


@pytest.mark.parametrize("ctx", [QQ, field_ctx(7), field_ctx(3, 2)],
                         ids=repr)
@pytest.mark.parametrize("texts", UNIT_IN_CHART_PAIRS, ids=["cusp", "ex1"])
def test_factor_that_leaves_the_chain(ctx, texts, monkeypatch):
    fs = [parse_poly(s, ctx) for s in texts]
    images = []
    apply = HNMap.apply

    def spy(m, h, n=None):
        images.append(apply(m, h, n))
        return images[-1]

    monkeypatch.setattr(HNMap, "apply", spy)
    t = build_tree_multi(fs)
    monkeypatch.undo()
    # no chart is spent on a strand that is a unit there
    assert images and all(vanishes_at_origin(w) for w in images)
    single = build_tree(fs[0] * fs[1])
    assert t.to_json_dict() == single.to_json_dict()
    assert vertex_report(t) == vertex_report(single)
    assert t.ctx == ctx
    for arrow in t.arrows("branch"):
        if arrow.path is None:
            axis = arrow.label[0]
            polys = [newton_polygon(h) for h in fs]
            mults = [P.i0 if axis == "x" else P.j0 for P in polys]
        else:
            # replay the arrow's charts on each factor: only its owner
            # still passes through the origin of the last chart, where the
            # constant term (total degree < 1) is all that is needed
            mults = []
            for h in fs:
                for k, (p, q, mu, _, _) in enumerate(arrow.path, 1):
                    n = 1 if k == len(arrow.path) else None
                    h = hn_map(p, q, mu, ctx).apply(h, n)
                mults.append(int(vanishes_at_origin(h)))
        assert mults == [int(k == arrow.owner) for k in range(2)]
    assert intersect_tree(*fs) == local_intersection(*fs).value
