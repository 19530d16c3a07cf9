"""Decorated Newton trees.

The tree of a reduced f is built recursively from Newton polygons.  Each
compact face becomes a vertex of a vertical chain; the two non-compact sides
end in arrows (a branch arrow when the axis divides f, a (0)-arrow
otherwise).  A face root of multiplicity one becomes a branch arrow at that
vertex; a root of multiplicity nu >= 2 is pushed through the chart
substitution and the polygon of the cofactor hangs from the vertex as a glued
chain.  Gluing shifts the decorations: a glued vertex with local face data
(p, q, N) stores q + p*(p_par*q_par) and N + p*N_par, where (p_par, q_par)
and N_par are the already-updated values at the vertex it hangs from.

Decorations live at the vertex end of each edge (arrow ends carry a neutral
1).  The connecting edge of a glued chain is decorated 1 at the parent.
"""

import functools
import math
import operator

from .errors import (DisconnectedNodes, IndivisibleArrowhead, InternalError,
                     NotReduced, RecursionCapExceeded, UnitInput,
                     ZeroPolynomial)
from .field import uni_mul, uni_order, uni_root_mult
from .hn import hn_map
from .newton import face_factorization, face_line, newton_polygon
from .poly import reduced_check

RECURSION_CAP = 64


class Node:
    """A tree node: chain vertex, branch arrow, or (0)-arrow.

    Vertices carry the pair (q, p) of near-decorations and the glued N.
    Zero-arrows carry their arrowhead multiplicity in N.  Branch arrows carry
    the index of the input factor they belong to and a display label; one
    that ends a face root also carries its chart path, one (p, q, mu, N, nu)
    per chart from the root of the tree down to it, with N the local face
    value and nu the root multiplicity (1 on the last chart).
    """

    __slots__ = ("nid", "kind", "N", "p", "q", "owner", "label", "path")

    def __init__(self, nid, kind, N=None, p=None, q=None, owner=None,
                 label=None, path=None):
        self.nid = nid
        self.kind = kind
        self.N = N
        self.p = p
        self.q = q
        self.owner = owner
        self.label = label
        self.path = path

    def __repr__(self):
        if self.kind == "vertex":
            return f"Node({self.nid}, N={self.N}, q={self.q}, p={self.p})"
        return f"Node({self.nid}, {self.kind}, N={self.N})"


def _idnum(nid):
    return int(nid[1:])


class NewtonTree:
    """Nodes and decorated edges, plus one (polygon, glue N) record per
    chain (glue N is None at the root) and the coefficient field of the
    face roots."""

    __slots__ = ("nodes", "edges", "adj", "chains", "ctx", "_nv", "_na",
                 "_ne")

    def __init__(self):
        self.nodes = {}
        self.edges = {}
        self.adj = {}
        self.chains = []
        self.ctx = None
        self._nv = 0
        self._na = 0
        self._ne = 0

    def new_vertex(self, N, p, q):
        nid = f"v{self._nv}"
        self._nv += 1
        if math.gcd(p, q) != 1:
            raise InternalError(f"vertex decorations not coprime: ({q}, {p})")
        self.nodes[nid] = Node(nid, "vertex", N=N, p=p, q=q)
        self.adj[nid] = []
        return nid

    def new_arrow(self, kind, N=None, owner=None, label=None, path=None):
        nid = f"a{self._na}"
        self._na += 1
        self.nodes[nid] = Node(nid, kind, N=N, owner=owner, label=label,
                               path=path)
        self.adj[nid] = []
        return nid

    def add_edge(self, a, b, near_a, near_b):
        eid = self._ne
        self._ne += 1
        self.edges[eid] = (a, b, near_a, near_b)
        self.adj[a].append(eid)
        self.adj[b].append(eid)
        return eid

    def remove_edge(self, eid):
        a, b, _, _ = self.edges.pop(eid)
        self.adj[a].remove(eid)
        self.adj[b].remove(eid)

    def remove_node(self, nid):
        if self.adj[nid]:
            raise InternalError("removing a node with incident edges")
        del self.adj[nid]
        del self.nodes[nid]

    def valency(self, nid):
        return len(self.adj[nid])

    def neighbors(self, nid):
        """(eid, other id, decoration at nid, decoration at other)."""
        out = []
        for eid in self.adj[nid]:
            a, b, da, db = self.edges[eid]
            if a == nid:
                out.append((eid, b, da, db))
            else:
                out.append((eid, a, db, da))
        return out

    def vertices(self):
        return [n for n in self.nodes.values() if n.kind == "vertex"]

    def arrows(self, kind=None):
        out = [n for n in self.nodes.values() if n.kind != "vertex"]
        if kind is not None:
            out = [n for n in out if n.kind == kind]
        return out

    def branch_count(self):
        return len(self.arrows("branch"))

    def copy(self):
        t = NewtonTree()
        t.nodes = dict(self.nodes)
        t.edges = dict(self.edges)
        t.adj = {nid: list(eids) for nid, eids in self.adj.items()}
        t.chains = self.chains
        t.ctx = self.ctx
        t._nv, t._na, t._ne = self._nv, self._na, self._ne
        return t

    def check_connected(self):
        if not self.nodes:
            raise DisconnectedNodes("empty tree")
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            for _, other, _, _ in self.neighbors(nid):
                stack.append(other)
        if len(seen) != len(self.nodes):
            raise DisconnectedNodes(
                f"{len(self.nodes) - len(seen)} unreachable nodes")

    def to_json_dict(self):
        """Schema: vertices/edges/arrows.

        The edges array holds vertex-vertex edges only; each arrow instead
        records its attachment point in "at" with the decoration at that end
        in "near_vertex".  An arrow attached to another arrow (smooth input)
        points at it the same way.
        """
        vs, ars, eds = [], [], []
        for nid in sorted(self.nodes, key=_idnum):
            n = self.nodes[nid]
            if n.kind == "vertex":
                vs.append({"id": nid, "N": n.N,
                           "decorations": {"q": n.q, "p": n.p}})
        for eid in sorted(self.edges):
            a, b, da, db = self.edges[eid]
            if self.nodes[a].kind == "vertex" and self.nodes[b].kind == "vertex":
                eds.append({"a": a, "b": b, "near_a": da, "near_b": db})
        for nid in sorted(self.nodes, key=_idnum):
            n = self.nodes[nid]
            if n.kind == "vertex":
                continue
            at, near = None, None
            for _, other, _, dother in self.neighbors(nid):
                at, near = other, dother
            rec = {"id": nid, "kind": n.kind, "at": at, "near_vertex": near}
            if n.kind == "zero":
                rec["N"] = n.N
            else:
                rec["label"] = n.label
            ars.append(rec)
        return {"vertices": vs, "edges": eds, "arrows": ars}


def tree_from_json_dict(d):
    """Rebuild a tree from the to_json_dict schema.

    Restores what the schema keeps: kinds, N values, decorations and
    incidence.  The chain records and the arrows' chart paths are not
    recoverable, so minimalize/multiplicity/report work on the result
    but a rebuilt tree cannot replay the area identity or parametrize.
    """
    t = NewtonTree()
    for rec in d["vertices"]:
        nid = rec["id"]
        t.nodes[nid] = Node(nid, "vertex", N=rec["N"],
                            p=rec["decorations"]["p"],
                            q=rec["decorations"]["q"])
        t.adj[nid] = []
    for rec in d["arrows"]:
        nid = rec["id"]
        t.nodes[nid] = Node(nid, rec["kind"], N=rec.get("N"),
                            label=rec.get("label"))
        t.adj[nid] = []
    t._nv = 1 + max((_idnum(n) for n in t.nodes if n[0] == "v"), default=-1)
    t._na = 1 + max((_idnum(n) for n in t.nodes if n[0] == "a"), default=-1)
    for rec in d["edges"]:
        t.add_edge(rec["a"], rec["b"], rec["near_a"], rec["near_b"])
    seen = set()
    for rec in d["arrows"]:
        at = rec["at"]
        if at is None:
            continue
        key = frozenset((rec["id"], at))
        if key in seen:
            # two arrows joined directly list each other once each
            continue
        seen.add(key)
        t.add_edge(at, rec["id"], rec["near_vertex"], 1)
    return t


class TreeMultiplicity:
    """Signed multiplicity M and the arrowhead values of the (0)-arrows."""

    __slots__ = ("M", "arrowheads")

    def __init__(self, M, arrowheads):
        self.M = M
        self.arrowheads = arrowheads

    def __repr__(self):
        return f"TreeMultiplicity(M={self.M})"


class _Builder:
    """Recursive chain construction over a growing coefficient field.

    embed maps every field met so far to one embedding into the current
    field self.ctx; each extension composes it with the new embedding, so
    every value is lifted by the same root choices.  With may_extend
    False the field stays ctx, and a face root outside it raises.
    """

    def __init__(self, ctx, may_extend=True):
        self.tree = NewtonTree()
        self.ctx = ctx
        self.embed = {}
        self.may_extend = may_extend

    def extend(self, ctx2, e):
        if ctx2 == self.ctx:
            return
        self.embed = {c: (lambda a, g=g: e(g(a))) for c, g in self.embed.items()}
        self.embed[self.ctx] = e
        self.ctx = ctx2

    def lift_poly(self, f):
        if f.ctx == self.ctx:
            return f
        if f.ctx not in self.embed:
            raise InternalError("no embedding for coefficient field")
        return f.map_coeffs(self.embed[f.ctx], self.ctx)

    def chain(self, strands, glue, depth):
        """Build the chain of the product of strands, whose polygon is the
        sum of theirs.

        strands: list of (owner, BiPoly) over the current field; glue: None
        at the root, else (parent vertex id, p_par * q_par, N_par, chart
        path to here).
        """
        if depth > RECURSION_CAP:
            raise RecursionCapExceeded(f"chain depth exceeded {RECURSION_CAP}")
        polys = [newton_polygon(h) for _, h in strands]
        P = functools.reduce(operator.add, polys)
        t = self.tree
        t.chains.append((P, glue[3][-1][3] if glue else None))
        if P.i0 > 1 or P.j0 > 1:
            raise NotReduced(
                f"axis factor with multiplicity {max(P.i0, P.j0)}")
        if glue is not None and P.i0 != 0:
            raise InternalError("transformed cofactor divisible by X")
        # P.i0 and P.j0 sum the strands' and are at most 1, so each axis
        # divides at most one strand
        x_owners = [m for (m, _), Q in zip(strands, polys) if Q.i0]
        y_owners = [m for (m, _), Q in zip(strands, polys) if Q.j0]

        if not P.faces:
            if glue is not None:
                raise InternalError("glued polygon with no compact face")
            top = self._end(x_owners, "x", 1, 1)
            t.add_edge(top, self._end(y_owners, "y", 1, 1), 1, 1)
            return

        pq_glue = glue[1] if glue else 0
        n_glue = glue[2] if glue else 0
        path = glue[3] if glue else ()
        for idx, face in enumerate(P.faces):
            q_bar = face.q + face.p * pq_glue
            n_bar = face.N + face.p * n_glue
            vid = t.new_vertex(n_bar, face.p, q_bar)
            if idx == 0:
                top = glue[0] if glue is not None else \
                    self._end(x_owners, "x", n_bar, q_bar)
                t.add_edge(top, vid, 1, q_bar)
            else:
                t.add_edge(prev_vid, vid, prev_p, q_bar)
            self._face_roots(strands, face, vid, q_bar, n_bar, path, depth)
            prev_vid, prev_p = vid, face.p
        t.add_edge(prev_vid, self._end(y_owners, "y", n_bar, prev_p),
                   prev_p, 1)

    def _end(self, owners, axis, n, d):
        """The arrow ending a chain on the given axis side: the branch of
        owners[0], whose strand the axis divides, or a (0)-arrow of value
        n / d when owners is empty."""
        if not owners:
            if n % d != 0:
                raise IndivisibleArrowhead(f"{d} does not divide {n}")
            return self.tree.new_arrow("zero", N=n // d)
        return self.tree.new_arrow("branch", owner=owners[0],
                                   label=f"{axis} = 0")

    def _face_roots(self, strands, face, vid, q_bar, n_bar, path, depth):
        """Split the face polynomial, the product of the strands' face
        lines, and hang a branch arrow or a glued chain from vid for each
        of its roots."""
        t = self.tree
        ctx = self.ctx
        strands = [(m, self.lift_poly(h)) for m, h in strands]
        values, lines = zip(*(face_line(h, face.p, face.q)
                              for _, h in strands))
        if sum(values) != face.N:
            raise InternalError("strand face values do not sum to N")
        T = lines[0]
        for U in lines[1:]:
            T = uni_mul(ctx, T, U)
        ctx2, embed, roots = face_factorization(T, face, ctx,
                                                self.may_extend)
        self.extend(ctx2, embed)
        for mu, nu in roots:
            if ctx != self.ctx:
                # this face or the chain of the last root extended the
                # field: bring the strands, their face lines and the root
                # into it
                strands = [(m, self.lift_poly(h)) for m, h in strands]
                lift = self.embed[ctx]
                lines = [[lift(c) for c in T] for T in lines]
                ctx = self.ctx
            if ctx2 != ctx:
                mu = self.embed[ctx2](mu)
            per = [uni_root_mult(ctx, T, mu)[0] for T in lines]
            if sum(per) != nu:
                raise InternalError("strand root multiplicities do not sum")
            sub = path + ((face.p, face.q, mu, face.N, nu),)
            if nu == 1:
                owner = strands[per.index(1)][0]
                aid = t.new_arrow("branch", owner=owner,
                                  label=f"x^{face.q} = ({ctx.to_str(mu)}) y^{face.p}",
                                  path=sub)
                t.add_edge(vid, aid, 1, 1)
                continue
            hmap = hn_map(face.p, face.q, mu, ctx)
            subs = []
            for (m, h), nu_m in zip(strands, per):
                if not nu_m:
                    # a unit in this chart: it adds nothing below
                    continue
                w = hmap.apply(h)
                got = uni_order(ctx, w.subs_x0())
                if got != nu_m:
                    raise InternalError(
                        f"cofactor order {got} for strand of multiplicity {nu_m}")
                subs.append((m, w))
            self.chain(subs, (vid, face.p * q_bar, n_bar, sub), depth + 1)


def build_tree_multi(factors, check=True, extend=True):
    """Tree of the product of the given factors, arrows tagged by factor.

    With extend False the tree is built over the factors' own field, and a
    face root outside it raises InputError, as one outside Q always does.
    """
    if not factors:
        raise ZeroPolynomial("no factors given")
    for h in factors:
        if h.is_zero():
            raise ZeroPolynomial("zero factor")
    ctx = factors[0].ctx
    for h in factors[1:]:
        if h.ctx != ctx:
            raise InternalError("factors over different fields")
    g = factors[0]
    for h in factors[1:]:
        g = g * h
    if (0, 0) in g.c:
        raise UnitInput("the curve does not pass through the origin")
    if check:
        ok, wit = reduced_check(g)
        if not ok:
            raise NotReduced(f"repeated factor through the origin: {wit!r}")
    b = _Builder(ctx, extend)
    b.chain(list(enumerate(factors)), None, 0)
    b.tree.ctx = b.ctx
    b.tree.check_connected()
    return b.tree


def build_tree(f, check=True, extend=True):
    """Decorated Newton tree of a reduced polynomial vanishing at 0."""
    return build_tree_multi([f], check=check, extend=extend)


def minimalize(t):
    """Erase (0)-arrow dead ends decorated 1 and fuse valency-2 vertices.

    Works on a copy.  Erasures go one at a time with fusion taking priority,
    so a vertex whose last dead end vanished collapses into the adjacent
    edge before the next erasure is considered.
    """
    t = t.copy()
    while True:
        fused = True
        while fused:
            fused = False
            for n in sorted(t.vertices(), key=lambda n: _idnum(n.nid)):
                if t.valency(n.nid) != 2:
                    continue
                (e1, a, _, da), (e2, b, _, db) = t.neighbors(n.nid)
                t.remove_edge(e1)
                t.remove_edge(e2)
                t.remove_node(n.nid)
                t.add_edge(a, b, da, db)
                fused = True
                break
        for arr in sorted(t.arrows("zero"), key=lambda n: _idnum(n.nid)):
            nbrs = t.neighbors(arr.nid)
            if len(nbrs) != 1:
                raise InternalError("arrow with valency != 1")
            eid, other, _, dother = nbrs[0]
            if t.nodes[other].kind == "vertex" and dother == 1:
                t.remove_edge(eid)
                t.remove_node(arr.nid)
                break
        else:
            return t


def tree_multiplicity(t):
    """Signed M(T) = -sum over vertices and (0)-arrows of N_v(valency - 2)."""
    total = 0
    heads = {}
    for n in t.nodes.values():
        if n.kind == "vertex":
            total += n.N * (t.valency(n.nid) - 2)
        elif n.kind == "zero":
            if t.valency(n.nid) != 1:
                raise InternalError("arrow with valency != 1")
            total -= n.N
            heads[n.nid] = n.N
    return TreeMultiplicity(-total, heads)


def vertex_report(t):
    """The N values entering M and the divisibility checks: vertices first,
    then (0)-arrow heads, in creation order."""
    out = [n.N for n in sorted(t.vertices(), key=lambda n: _idnum(n.nid))]
    out += [n.N for n in sorted(t.arrows("zero"), key=lambda n: _idnum(n.nid))]
    return out


def tree_to_ascii(t):
    lines = []
    for nid in sorted(t.nodes, key=_idnum):
        n = t.nodes[nid]
        if n.kind != "vertex":
            continue
        lines.append(f"{nid}  N={n.N}  q={n.q}  p={n.p}")
        for _, other, dself, _ in t.neighbors(nid):
            o = t.nodes[other]
            if o.kind == "vertex":
                desc = other
            elif o.kind == "zero":
                desc = f"(0)-arrow N'={o.N}"
            else:
                desc = f"arrow [{o.label}]"
            lines.append(f"  [{dself}] {desc}")
    if not lines:
        for nid in sorted(t.nodes, key=_idnum):
            n = t.nodes[nid]
            lines.append(f"{nid}  {n.kind}" +
                         (f"  N'={n.N}" if n.kind == "zero" else
                          f"  [{n.label}]"))
    return "\n".join(lines)


def tree_to_dot(t):
    lines = ["graph newton_tree {"]
    for nid in sorted(t.nodes, key=_idnum):
        n = t.nodes[nid]
        if n.kind == "vertex":
            lines.append(f'  {nid} [shape=circle label="({n.N})"];')
        elif n.kind == "zero":
            lines.append(f'  {nid} [shape=none label="(0) {n.N}"];')
        else:
            lines.append(f'  {nid} [shape=rarrow label="{n.label}"];')
    for eid in sorted(t.edges):
        a, b, da, db = t.edges[eid]
        lines.append(f'  {a} -- {b} [taillabel="{da}" headlabel="{db}"];')
    lines.append("}")
    return "\n".join(lines)
