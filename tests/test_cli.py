"""Command dispatch, rendering formats, and exit codes."""

import json
import time

import pytest

from singcurve.cli import RunConfig, config_from_argv, main, run
from singcurve.errors import InternalError
from singcurve.field import field_ctx
from singcurve.milnor import milnor_number
from singcurve.poly import parse_poly
from singcurve.tree import (build_tree, tree_from_json_dict,
                            tree_multiplicity, vertex_report)

from curves import EX1, EX2

QQ = field_ctx(0)


def _ok(*args, **kw):
    code, out = run(RunConfig(*args, **kw))
    assert code == 0, out
    return out


def test_mu_command():
    assert _ok("mu", p=3, f_text=EX1) == "166"
    assert _ok("mu", p=2, f_text=EX1) == "infinity"


def test_multiplicity_command():
    assert _ok("multiplicity", p=7, f_text=EX2) == "|M| = 101\nM = -101"


def test_delta_and_mubar():
    assert _ok("delta", f_text="x^2 - y^3") == "1"
    assert _ok("mubar", f_text="x^2 - y^3") == "2"
    assert _ok("mubar", f_text=EX2) == "102"


def test_intersect_command():
    assert _ok("intersect", p=5, f_text="x^2-y^3", g_text="x^3-y^2") == "4"
    out = _ok("intersect", f_text="x^2-y^3", g_text="2 x^2 - 2 y^3")
    assert out == "infinity"


def test_mu_with_unit_matches_library():
    ctx = field_ctx(5)
    want = milnor_number(parse_poly("x^2 - y^3", ctx),
                         unit=parse_poly("1 + x", ctx))
    out = _ok("mu", p=5, f_text="x^2 - y^3", unit_text="1 + x")
    assert out == str(want)


@pytest.mark.parametrize("p, mu", [(5, "157"), (7, "156")])
def test_mu_of_ex1_times_a_unit(p, mu):
    # the partials of the unit multiple reduce on dense rows: 5-6 s each on
    # dicts
    assert _ok("mu", p=p, f_text=EX1, unit_text="1 + x + y + x y") == mu


@pytest.mark.parametrize("p", [0, 5], ids=["QQ", "GF(5)"])
def test_mu_with_unit_of_a_non_reduced_germ_is_infinity(p):
    # the partials share the repeated branch y - x^2, with or without a unit
    f = "(y - x^2)^2 (y + x)"
    assert _ok("mu", p=p, f_text=f) == "infinity"
    for trunc in (None, 12):
        assert _ok("mu", p=p, f_text=f, unit_text="1 + x",
                   trunc=trunc) == "infinity"


def test_mu_with_a_jet_below_the_determinacy_bound_exits_2(capsys):
    assert main(["mu", "-f", "x^2 - y^3", "--unit", "1 + x",
                 "--trunc", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "D - 1 >= 2 mu - ord + 2" in cap.err
    assert main(["mu", "-f", "x^2 - y^3", "--unit", "1 + x",
                 "--trunc", "5"]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize("f_text, trunc", [("x", "0"), ("x^2 - y^3", "3")])
def test_a_jet_without_a_unit_is_the_jet_of_f(capsys, f_text, trunc):
    # the jets 0 and x^2 have mu = infinity; without --unit the whole germ
    # was reduced, and 0 and 2 were printed
    assert main(["mu", "-f", f_text, "--trunc", trunc]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "D - 1 >= 2 mu - ord + 2" in cap.err


def test_tree_ascii_empty_face():
    out = _ok("tree", f_text="x y")
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("branch" in ln for ln in lines)
    assert "N=" not in out


def test_tree_dot_is_graph_syntax():
    out = _ok("tree", f_text="x^2 - y^3", fmt="dot")
    assert out.startswith("graph ")
    assert out.count("{") == out.count("}") == 1
    assert out.rstrip().endswith("}")


def test_tree_json_ex1():
    out = _ok("tree", p=7, f_text=EX1, fmt="json", minimal=True)
    d = json.loads(out)
    assert sorted(v["N"] for v in d["vertices"]) == [24, 100, 202]


def test_tree_json_round_trip():
    for text, p in [(EX1, 0), (EX2, 2), ("x y", 0)]:
        out = _ok("tree", p=p, f_text=text, fmt="json")
        back = tree_from_json_dict(json.loads(out))
        t = build_tree(parse_poly(text, field_ctx(p)))
        assert tree_multiplicity(back).M == tree_multiplicity(t).M
        assert vertex_report(back) == vertex_report(t)


def test_semigroup_command():
    out = _ok("semigroup", f_text="x^2 - y^3")
    assert out.splitlines() == ["characteristic sequence: 2 3",
                                "conductor: 2", "gaps: 1"]


def test_parametrize_command():
    out = _ok("parametrize", f_text="x^3 - y^2", terms=8)
    assert out.splitlines() == ["x(t) = t^2 + O(t^8)",
                                "y(t) = t^3 + O(t^8)"]


def test_parametrize_rejects_terms_above_the_limit():
    start = time.perf_counter()
    code, out = run(config_from_argv(
        ["parametrize", "-f", "x^3 - y^2", "--terms", "100000"]))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out.startswith("input error:") and "16384" in out


def test_parametrize_reports_too_few_terms_as_bad_input():
    for f_text, p, terms in ((EX1, 7, 16), ("x^2 - y^5 + x^3", 0, 3)):
        code, out = run(RunConfig("parametrize", p=p, f_text=f_text,
                                  terms=terms))
        assert code == 2, out
        assert "too low for the chart chain" in out


def test_multiplicity_when_a_deeper_root_extends_the_field():
    out = _ok("multiplicity", p=3, f_text="((y-x)^2 - 2x^4)(y+x)")
    assert out == "|M| = 5\nM = -5"


def test_huge_prime_field_answers_fast():
    start = time.perf_counter()
    assert _ok("mu", p=1000000000000000003, f_text="x^2-y^3") == "2"
    assert time.perf_counter() - start < 2


def test_huge_rational_coefficient_fails_fast():
    # a quadratic face takes its roots in closed form, whatever the size of
    # its coefficients; a cubic one still lists the divisors of its ends
    start = time.perf_counter()
    out = _ok("tree", f_text="x^2 - 1000000000000000000000000000000 y^2")
    assert "(-1000000000000000) y^1" in out and "(1000000000000000) y^1" in out
    code, out = run(RunConfig(
        "tree", f_text="x^3 - 1000000000000000000000000000000 y^3"))
    assert code == 2 and "RATIONAL_ROOT_LIMIT" in out
    assert _ok("delta", f_text="x^2 - 1000000000000 y^2") == "1"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("f, mu", [
    ("x^2 - 999999999989 y^2", "1"),  # a prime constant: irrational roots
    ("x^3 - 1000000000000000000000000000000 y^3", "4"),  # past the limit
], ids=["irrational", "past the limit"])
def test_mu_over_q_leaves_a_failed_tree_fast(f, mu):
    # the tree is tried first over Q; when it raises, the reduction answers
    start = time.process_time()
    assert _ok("mu", f_text=f) == mu
    assert time.process_time() - start < 2


@pytest.mark.parametrize("command, f, code, want", [
    ("mu", "x^2 - 999999999989 y^2", 0, "1"),
    ("multiplicity", "x^2 - 999999999989 y^2", 2, "irrational roots"),
    ("multiplicity", "y - 999999999989 x^2 + x^3 y", 0, "|M| = 1\nM = 1"),
])
def test_linear_and_quadratic_faces_over_q_list_no_divisors(command, f, code,
                                                            want):
    # roots of face polynomials of degree 1 and 2 come in closed form; the
    # divisors of the prime 999999999989 took about 0.1 s to list
    start = time.process_time()
    got = run(RunConfig(command, f_text=f))
    assert time.process_time() - start < 0.01
    assert got[0] == code and want in got[1]


def test_mu_of_ex1_times_a_unit_over_q_is_fast():
    # Milnor's formula off the tree of EX1; the reduction of the partials
    # of the product took about 2 s
    start = time.process_time()
    assert _ok("mu", f_text=EX1, unit_text="1 + x + y + x y") == "156"
    assert time.process_time() - start < 1


# three tangents irreducible over F_32003, of degrees 3, 4 and 5: the face
# roots lie in F_{32003^60}, which takes minutes to build
TANGENTS_345 = (
    "(30974 x^3 + 3349 x^2 y + 29537 x y^2 + y^3)"
    "(10401 x^4 + 1002 x^3 y + 731 x^2 y^2 + 833 x y^3 + y^4)"
    "(12491 x^5 + 22494 x^4 y + 7097 x^3 y^2 + 31753 x^2 y^3 + 13831 x y^4"
    " + y^5) + x^13 + y^13")


def test_mu_never_extends_the_field_for_the_tree():
    # the degree test admits p = 32003 at d = 13, but the tree would need
    # an extension of degree 60, so the reduction answers
    start = time.process_time()
    assert _ok("mu", p=32003, f_text=TANGENTS_345) == "121"
    assert time.process_time() - start < 1


def test_a_power_above_the_degree_limit_fails_fast():
    # DEGREE_LIMIT is checked before the parser expands a power; with
    # y^10000001 every command ran past 20 s, one y-row per degree
    from singcurve.poly import DEGREE_LIMIT

    for argv in (["tree", "-f", "x^2 - y^10000001"],
                 ["mu", "-p", "5", "-f", "x^2 - (x y^2)^5000"],
                 ["intersect", "-f", "x", "-g", "y - 2^1000000000"]):
        start = time.perf_counter()
        code, out = run(config_from_argv(argv))
        assert time.perf_counter() - start < 1
        assert code == 2 and "DEGREE_LIMIT" in out, (argv, out)
    assert _ok("mu", f_text=f"x^2 - y^{DEGREE_LIMIT}") == \
        str(DEGREE_LIMIT - 1)


def test_a_dense_power_above_the_work_limit_fails_fast():
    # DEGREE_LIMIT admits (1 + x + y)^10000, about 5 * 10^7 terms; the
    # parser refuses the first squaring priced above the cap
    for argv in (["mu", "-f", "(1 + x + y)^10000"],
                 ["tree", "-p", "32003", "-f", "x^2 - (1 + x + y)^10000"]):
        start = time.process_time()
        code, out = run(config_from_argv(argv))
        assert time.process_time() - start < 1
        assert code == 2 and "POWER_WORK_LIMIT" in out, (argv, out)


def test_a_product_of_group_powers_above_the_work_limit_fails_fast():
    # each power is admitted, but their product is priced above the cap;
    # it took 3 s to answer
    start = time.process_time()
    code, out = run(config_from_argv(
        ["mu", "-f", "(1+x+y)^120 (1+x+y)^120"]))
    assert time.process_time() - start < 1
    assert code == 2 and "POWER_WORK_LIMIT" in out, out


@pytest.mark.parametrize("e", [256, 512])
def test_a_power_of_huge_integers_above_the_work_limit_fails_fast(e):
    # each product is a loop of few pairs, but of ints of up to 1.3 * 10^6
    # bits; priced by their pairs alone, ^256 took 7.5 s and ^512 60.6 s
    start = time.process_time()
    code, out = run(config_from_argv(["mu", "-f", f"(2^10000 x + y)^{e}"]))
    assert time.process_time() - start < 2
    assert code == 2 and "POWER_WORK_LIMIT" in out, out


def test_area_check_command():
    out = _ok("area-check", f_text=EX1)
    assert out.splitlines() == ["-M = 155", "area sum = 155", "equal: yes"]


def test_check_text_table():
    code, out = run(RunConfig("check", f_text=EX2, primes="2..7"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[1].split()[:4] == ["2", "103", "133", "104"]
    assert lines[2].split()[:4] == ["3", "101", "102", "102"]
    assert lines[3].split()[:4] == ["5", "101", "102", "102"]
    assert lines[4].split()[:4] == ["7", "101", "105", "102"]


def test_check_json_reports():
    code, out = run(RunConfig("check", f_text="x^2 - y^3", primes="2..5",
                              fmt="json"))
    assert code == 0
    recs = json.loads(out)
    assert [r["p"] for r in recs] == [2, 3, 5]
    assert all(r["consistent"] for r in recs)
    assert recs[0]["mu"] == "infinity"
    assert recs[2]["mu"] == 2


def test_check_reports_skips():
    code, out = run(RunConfig("check", f_text="x^2 + 5 y^3", primes="5..5"))
    assert code == 0
    assert "skipped: not reduced mod p" in out


def test_input_errors_exit_2():
    cases = [
        RunConfig("mu", p=3),                                # no -f
        RunConfig("mu", p=6, f_text="x^2 - y^3"),            # composite p
        RunConfig("mu", p=3, f_text="x^2 -"),                # parse error
        RunConfig("mu", p=3, f_text="x^2 - y^3", fmt="dot"),
        RunConfig("tree", f_text="x", fmt="svg"),
        RunConfig("intersect", p=5, f_text="x"),             # no -g
        RunConfig("check", f_text="x^2 - y^3"),              # no --primes
        RunConfig("check", f_text="x^2 - y^3", primes="abc"),
        RunConfig("check", f_text="x^2 - y^3", primes="8..10"),
        RunConfig("check", p=7, f_text="x^2 - y^3", primes="2..5"),
        RunConfig("semigroup", f_text="x y"),                # two branches
        RunConfig("bogus", f_text="x"),
    ]
    for cfg in cases:
        code, out = run(cfg)
        assert code == 2, (cfg, out)
        assert out.startswith("input error:")


def test_extension_degree_and_prime_range_limits_exit_2(monkeypatch):
    # -k is 1 over Q and capped over F_p; a prime range wider than
    # PRIME_RANGE_LIMIT fails before a single primality test
    import singcurve.cli as cli

    for argv, word in (
            (["mu", "-p", "0", "-k", "3", "-f", "x^2 - y^3"], "over Q"),
            (["mu", "-p", "5", "-k", "0", "-f", "x^2 - y^3"],
             "EXT_DEGREE_LIMIT"),
            (["mu", "-p", "2", "-k", "80", "-f", "x^2 - y^3"],
             "EXT_DEGREE_LIMIT")):
        code, out = run(config_from_argv(argv))
        assert code == 2 and word in out, (argv, out)

    def no_test(n):
        raise AssertionError("primality tested")

    monkeypatch.setattr(cli, "is_prime", no_test)
    wide = f"2..{2 + cli.PRIME_RANGE_LIMIT + 1}"
    for primes in (wide, "2..100000000000"):
        code, out = run(RunConfig("check", f_text="x^2 - y^3", primes=primes))
        assert code == 2 and "PRIME_RANGE_LIMIT" in out, out


def test_internal_errors_exit_3(monkeypatch):
    import singcurve.cli as cli

    def boom(cfg):
        raise InternalError("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "mu", boom)
    code, out = run(RunConfig("mu", f_text="x"))
    assert code == 3
    assert out == "internal error: synthetic"


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SINGCURVE_SEED", "notanint")
    code, out = run(RunConfig("mu", p=5, f_text="x^2 - y^3"))
    assert code == 2 and "SINGCURVE_SEED" in out
    monkeypatch.setenv("SINGCURVE_SEED", "7")
    assert run(RunConfig("mu", p=5, k=2, f_text="x^2 - y^3"))[0] == 0


def test_config_from_argv():
    cfg = config_from_argv(["mu", "-p", "3", "-f", "x^2 - y^3",
                            "--unit", "1 + x", "--trunc", "12"])
    assert (cfg.command, cfg.p, cfg.unit_text, cfg.trunc) == \
        ("mu", 3, "1 + x", 12)
    cfg = config_from_argv(["tree", "-f", "x y", "--minimal",
                            "--format", "dot"])
    assert cfg.minimal and cfg.fmt == "dot"
    cfg = config_from_argv(["check", "-f", "x", "--primes", "2..13"])
    assert cfg.primes == "2..13"


def test_an_omitted_flag_keeps_the_run_config_default():
    # argparse sets only the flags given, so RunConfig alone holds defaults
    from singcurve.cli import _COMMANDS

    for command in _COMMANDS:
        got = config_from_argv([command, "-f", "x"])
        want = RunConfig(command, f_text="x")
        for field in RunConfig.__slots__:
            assert getattr(got, field) == getattr(want, field), \
                (command, field)


def test_main_prints_and_returns(capsys):
    assert main(["mu", "-p", "3", "-f", EX1]) == 0
    cap = capsys.readouterr()
    assert cap.out == "166\n" and cap.err == ""
    assert main(["mu", "-p", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "needs -f" in cap.err


def test_main_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
