"""Command line front end.

Each command maps onto one library entry point: build and render Newton
trees, read off multiplicities and delta, compute Milnor numbers and
intersection multiplicities, inspect a branch semigroup, parametrize a
branch, replay the area identity, and sweep primes checking mu = 1 - M.
Exit code 0 means success, 2 a caller mistake, 3 a violated internal
invariant.
"""

import argparse
import json
import os
import sys

from .errors import InputError, InternalError
from .field import field_ctx, is_prime
from .invariants import (INF, area_identity, semigroup_gaps,
                         parametrize_branch, tree_delta, tree_mu_bar,
                         zariski_sequence)
from .milnor import check_conjecture, local_intersection, milnor_number
from .poly import parse_poly
from .tree import (build_tree, minimalize, tree_multiplicity, tree_to_ascii,
                   tree_to_dot)

_FORMATS = ("text", "json", "dot")
# check tests every integer of its range A..B for primality
PRIME_RANGE_LIMIT = 10 ** 5


class RunConfig:
    """One invocation, already typed; argv parsing fills one of these."""

    __slots__ = ("command", "p", "k", "f_text", "g_text", "unit_text",
                 "trunc", "fmt", "seed", "primes", "minimal", "terms")

    def __init__(self, command, p=0, k=1, f_text=None, g_text=None,
                 unit_text=None, trunc=None, fmt="text", seed=0,
                 primes=None, minimal=False, terms=64):
        self.command = command
        self.p = p
        self.k = k
        self.f_text = f_text
        self.g_text = g_text
        self.unit_text = unit_text
        self.trunc = trunc
        self.fmt = fmt
        self.seed = seed
        self.primes = primes
        self.minimal = minimal
        self.terms = terms

    def __repr__(self):
        return f"RunConfig({self.command!r}, p={self.p})"


def _seed(cfg):
    env = os.environ.get("SINGCURVE_SEED")
    if env is None:
        return cfg.seed
    try:
        return int(env)
    except ValueError:
        raise InputError(f"SINGCURVE_SEED must be an integer, got {env!r}")


def _ctx(cfg):
    return field_ctx(cfg.p, cfg.k, seed=_seed(cfg))


def _poly(cfg, ctx, which="f"):
    text = cfg.f_text if which == "f" else cfg.g_text
    if text is None:
        raise InputError(f"command {cfg.command} needs -{which}")
    return parse_poly(text, ctx)


def _text_only(cfg):
    if cfg.fmt != "text":
        raise InputError(
            f"command {cfg.command} only renders text, not {cfg.fmt}")


def _number(v):
    return "infinity" if v == INF else str(v)


def render_tree(t, fmt):
    if fmt == "text":
        return tree_to_ascii(t)
    if fmt == "dot":
        return tree_to_dot(t)
    return json.dumps(t.to_json_dict(), indent=2)


def _cmd_tree(cfg):
    t = build_tree(_poly(cfg, _ctx(cfg)))
    if cfg.minimal:
        t = minimalize(t)
    return render_tree(t, cfg.fmt)


def _cmd_multiplicity(cfg):
    _text_only(cfg)
    m = tree_multiplicity(build_tree(_poly(cfg, _ctx(cfg)))).M
    return f"|M| = {abs(m)}\nM = {m}"


def _cmd_delta(cfg):
    _text_only(cfg)
    return str(tree_delta(build_tree(_poly(cfg, _ctx(cfg)))))


def _cmd_mubar(cfg):
    _text_only(cfg)
    return str(tree_mu_bar(build_tree(_poly(cfg, _ctx(cfg)))))


def _cmd_mu(cfg):
    _text_only(cfg)
    ctx = _ctx(cfg)
    f = _poly(cfg, ctx)
    unit = None
    if cfg.unit_text is not None:
        unit = parse_poly(cfg.unit_text, ctx)
    return _number(milnor_number(f, unit=unit, trunc=cfg.trunc))


def _cmd_intersect(cfg):
    _text_only(cfg)
    ctx = _ctx(cfg)
    return _number(local_intersection(_poly(cfg, ctx),
                                      _poly(cfg, ctx, "g")).value)


def _cmd_semigroup(cfg):
    _text_only(cfg)
    s = zariski_sequence(build_tree(_poly(cfg, _ctx(cfg))))
    gaps = semigroup_gaps(s)
    return "\n".join([
        "characteristic sequence: " + " ".join(str(v) for v in s.vs),
        f"conductor: {s.c}",
        "gaps: " + (" ".join(str(g) for g in gaps) if gaps else "none"),
    ])


def _cmd_parametrize(cfg):
    _text_only(cfg)
    ctx = _ctx(cfg)
    pr = parametrize_branch(_poly(cfg, ctx), terms=cfg.terms)
    return "\n".join([f"x(t) = {_series_str(ctx, pr.phi, pr.trunc)}",
                      f"y(t) = {_series_str(ctx, pr.psi, pr.trunc)}"])


def _series_str(ctx, coeffs, trunc):
    parts = []
    for k, c in enumerate(coeffs):
        if ctx.is_zero(c):
            continue
        if k == 0:
            parts.append(ctx.to_str(c))
            continue
        tk = "t" if k == 1 else f"t^{k}"
        parts.append(tk if ctx.is_one(c) else f"{ctx.to_str(c)} {tk}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} + O(t^{trunc})"


def _cmd_area_check(cfg):
    _text_only(cfg)
    r = area_identity(_poly(cfg, _ctx(cfg)))
    if not r["equal"]:
        raise InternalError(
            f"area identity broke: -M = {r['lhs']}, area sum = {r['rhs']}")
    return f"-M = {r['lhs']}\narea sum = {r['rhs']}\nequal: yes"


def _parse_prime_range(text):
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            raise ValueError
        a, b = int(lo), int(hi)
    except ValueError:
        raise InputError(f"prime range must look like 2..13, got {text!r}")
    return a, b


def _cmd_check(cfg):
    if cfg.fmt == "dot":
        raise InputError("command check renders text or json, not dot")
    if cfg.primes is None:
        raise InputError("command check needs --primes A..B")
    if cfg.p:
        raise InputError("check sweeps primes itself; drop -p")
    a, b = _parse_prime_range(cfg.primes)
    if b - a > PRIME_RANGE_LIMIT:
        raise InputError(f"prime range {a}..{b} is wider than "
                         f"PRIME_RANGE_LIMIT = {PRIME_RANGE_LIMIT}")
    ps = [n for n in range(a, b + 1) if is_prime(n)]
    if not ps:
        raise InputError(f"no primes in {a}..{b}")
    reports = check_conjecture(_poly(cfg, _ctx(cfg)), ps)
    if cfg.fmt == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2)
    lines = ["   p   |M|  mu        1-M       p|N_v  equal  ok   note"]
    for r in reports:
        if r.skipped:
            lines.append(f"{r.p:>4}  skipped: {r.skipped}")
            continue
        note = "shortcut" if r.shortcut else ""
        lines.append(
            f"{r.p:>4}  {r.m_abs:>4}  {_number(r.mu):<9} {r.mu_bar:<9} "
            f"{_yn(r.divides):<6} {_yn(r.equal):<6} {_yn(r.consistent):<4} "
            f"{note}".rstrip())
    return "\n".join(lines)


def _yn(b):
    return "yes" if b else "no"


_COMMANDS = {
    "tree": _cmd_tree,
    "multiplicity": _cmd_multiplicity,
    "delta": _cmd_delta,
    "mubar": _cmd_mubar,
    "mu": _cmd_mu,
    "intersect": _cmd_intersect,
    "semigroup": _cmd_semigroup,
    "parametrize": _cmd_parametrize,
    "area-check": _cmd_area_check,
    "check": _cmd_check,
}


def run(config):
    """(exit code, rendered output)."""
    if config.fmt not in _FORMATS:
        return 2, f"input error: format must be one of {', '.join(_FORMATS)}"
    handler = _COMMANDS.get(config.command)
    if handler is None:
        return 2, f"input error: unknown command {config.command!r}"
    try:
        return 0, handler(config)
    except InputError as e:
        return 2, f"input error: {e}"
    except InternalError as e:
        return 3, f"internal error: {e}"


def _build_parser():
    # an option not given sets nothing, so RunConfig holds every default
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("-p", type=int, metavar="P",
                        help="field characteristic; 0 means Q (default)")
    common.add_argument("-k", type=int, metavar="K",
                        help="extension degree, coefficients in F_{p^k}")
    common.add_argument("-f", dest="f_text", metavar="POLY",
                        help="curve polynomial in x and y")
    common.add_argument("--format", dest="fmt", metavar="FMT",
                        help="text, json or dot")
    common.add_argument("--seed", type=int,
                        help="seed for the extension-field modulus search "
                             "(SINGCURVE_SEED overrides)")
    ap = argparse.ArgumentParser(
        prog="singcurve",
        description="Newton trees and invariants of plane curve "
                    "singularities over F_{p^k} and Q.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, about):
        return sub.add_parser(name, parents=[common], help=about,
                              argument_default=argparse.SUPPRESS)

    t = command("tree", "build the decorated Newton tree")
    t.add_argument("--minimal", action="store_true",
                   help="erase trivial dead ends and fuse the chain")
    command("multiplicity", "tree multiplicity M and |M|")
    command("delta", "delta invariant")
    command("mubar", "1 - M, the expected Milnor number")
    m = command("mu", "Milnor number: 1 - M off the tree where a theorem "
                      "makes it exact, else from the partials")
    m.add_argument("--unit", dest="unit_text", metavar="POLY",
                   help="multiply by this unit before taking partials")
    m.add_argument("--trunc", type=int, metavar="D",
                   help="reduce the jet below degree D of f, or of its "
                        "unit multiple with --unit; the answer is certified "
                        "or rejected (exit 2)")
    i = command("intersect", "intersection multiplicity at the origin")
    i.add_argument("-g", dest="g_text", metavar="POLY",
                   help="second curve")
    command("semigroup",
            "characteristic sequence, conductor and gaps of a single branch")
    pz = command("parametrize", "truncated power series parametrization")
    pz.add_argument("--terms", type=int, metavar="T",
                    help="series truncation order (default 64, at most "
                         "16384)")
    command("area-check", "replay -M as a sum of closed polygon areas")
    c = command("check", "check mu = 1 - M against p | N_v over primes")
    c.add_argument("--primes", metavar="A..B",
                   help="inclusive prime range to sweep")
    return ap


def config_from_argv(argv=None):
    ns = _build_parser().parse_args(argv)
    return RunConfig(**vars(ns))


def main(argv=None):
    code, out = run(config_from_argv(argv))
    print(out, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
