"""Running queries against singcurve and checking their answers.

`run_query` is the timed part: it calls a public entry point and keeps the
raw result.  `answer` turns a raw result into a canonical string for the
digest, and `check` tests it against what the corpus knows by
construction, the paper's tables and theorems; both run outside the timed
region.
"""

import json

import singcurve
from singcurve import cli
from singcurve.invariants import INF, intersect_tree, zariski_sequence
from singcurve.milnor import local_intersection
from singcurve.tree import build_tree

import corpus


def _ctx(q):
    return singcurve.field_ctx(q["p"], q["k"])


def run_query(q):
    """Raw result of one query; exceptions propagate to the caller."""
    kind = q["kind"]
    if kind == "check":
        p = q["p"]
        return cli.run(cli.RunConfig("check", f_text=q["f"],
                                     primes=f"{p}..{p}", fmt="json"))
    if kind == "mu":
        common = {"p": q["p"], "k": q["k"], "f_text": q["f"]}
        return (cli.run(cli.RunConfig("mu", unit_text=q["unit"], **common)),
                cli.run(cli.RunConfig("multiplicity", **common)))
    ctx = _ctx(q)
    f = singcurve.parse_poly(q["f"], ctx)
    if kind == "param":
        return singcurve.parametrize_branch(f, terms=q["terms"])
    return singcurve.intersect_param(f, singcurve.parse_poly(q["g"], ctx))


def _series_str(ctx, coeffs):
    return ",".join(ctx.to_str(c) for c in coeffs)


def _order(ctx, coeffs):
    return next((k for k, c in enumerate(coeffs) if not ctx.is_zero(c)),
                None)


def answer(q, raw):
    """Canonical text of an answer, for the digest."""
    if q["kind"] == "check":
        return f"{raw[0]}|{raw[1]}"
    if q["kind"] == "mu":
        (c1, o1), (c2, o2) = raw
        return f"{c1}|{o1}|{c2}|{o2}"
    if q["kind"] == "param":
        ctx = raw.ctx
        return f"{_series_str(ctx, raw.phi)}|{_series_str(ctx, raw.psi)}"
    return "infinity" if raw == INF else str(raw)


def _parse_mu(code, out):
    if code != 0:
        return None
    return corpus.INF if out == "infinity" else int(out)


def _parse_m(code, out):
    if code != 0:
        return None
    return int(out.splitlines()[-1].split("=")[1])


def check(q, raw):
    """List of problems with one answer; empty when it is right."""
    kind = q["kind"]
    if kind == "check":
        return _check_sweep(q, raw)
    if kind == "mu":
        return _check_mu(q, raw)
    if kind == "param":
        return _check_param(q, raw)
    return _check_isect(q, raw)


def _check_sweep(q, raw):
    code, out = raw
    if code != 0:
        return [f"exit code {code}: {out}"]
    (r,) = json.loads(out)
    p = q["p"]
    bad = []
    if r["skipped"] is not None:
        return [f"skipped: {r['skipped']}"]
    if r["M_abs"] != q["m_abs"]:
        bad.append(f"|M| {r['M_abs']} != {q['m_abs']}")
    # Deligne: mu >= 1 - M, with equality above p > -M + ord f
    if r["mu"] != q["mu"] or r["mu_bar"] != q["mu"]:
        bad.append(f"mu {r['mu']}, 1-M {r['mu_bar']}, paper {q['mu']}")
    if not (r["shortcut"] and r["equal"] and r["consistent"]):
        bad.append("shortcut, equal and consistent must all hold")
    divides = any(n % p == 0 for n in r["N_values"])
    if r["divides"] != divides or divides:
        bad.append(f"p | N_v reported {r['divides']}, N = {r['N_values']}")
    if q["vertex_n"] and r["N_values"][:len(q["vertex_n"])] != q["vertex_n"]:
        bad.append(f"vertex N {r['N_values']} != paper {q['vertex_n']}")
    return bad


def _check_mu(q, raw):
    (c1, o1), (c2, o2) = raw
    if not q["reduced"]:
        bad = []
        # x^a y^b with a or b >= 2 divides f: x or y divides both partials
        if (c1, o1) != (0, "infinity"):
            bad.append(f"mu of a non-reduced germ: {c1} {o1}")
        if c2 != 2:
            bad.append(f"multiplicity exit code {c2}, wanted 2: {o2}")
        return bad
    mu, m = _parse_mu(c1, o1), _parse_m(c2, o2)
    if mu is None or m is None:
        return [f"exit codes {c1}, {c2}: {o1} / {o2}"]
    bad = []
    if q["mu"] is not None and mu != q["mu"]:
        bad.append(f"mu {mu} != paper {q['mu']}")
    if q["m_abs"] is not None and -m != q["m_abs"]:
        bad.append(f"|M| {-m} != paper {q['m_abs']}")
    p = q["p"]
    if mu != corpus.INF and mu < 1 - m:
        bad.append(f"Deligne: mu {mu} < 1 - M = {1 - m}")
    if (p == 0 or p > -m + q["ord"]) and mu != 1 - m:
        bad.append(f"mu {mu} != 1 - M = {1 - m} above the shortcut bound")
    return bad


def _check_param(q, raw):
    ctx = raw.ctx
    o1, o2 = _order(ctx, raw.phi), _order(ctx, raw.psi)
    orders = [o for o in (o1, o2) if o is not None]
    first = min(orders) if orders else None
    bad = []
    if first != q["ord"]:
        bad.append(f"min(ord phi, ord psi) = {first}, multiplicity "
                   f"{q['ord']}")
    f = singcurve.parse_poly(q["f"], _ctx(q))
    v0 = zariski_sequence(build_tree(f)).vs[0]
    if first != v0:
        bad.append(f"min(ord phi, ord psi) = {first}, semigroup v0 = {v0}")
    return bad


def _check_isect(q, raw):
    ctx = _ctx(q)
    f = singcurve.parse_poly(q["f"], ctx)
    g = singcurve.parse_poly(q["g"], ctx)
    bad = []
    tree_v = intersect_tree(f, g)
    red_v = local_intersection(f, g).value
    if not raw == tree_v == red_v:
        bad.append(f"engines disagree: param {raw}, tree {tree_v}, "
                   f"reduction {red_v}")
    # i(f, g) >= m_f m_g, with equality exactly without a common tangent
    prod = q["ords"][0] * q["ords"][1]
    if q["same_tangent"] and not raw > prod:
        bad.append(f"common tangent but i = {raw} <= {prod}")
    if not q["same_tangent"] and raw != prod:
        bad.append(f"transverse branches but i = {raw} != {prod}")
    return bad
