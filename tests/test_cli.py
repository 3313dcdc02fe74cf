"""End-to-end runs of the `chroma` command-line front end (in-process but one)."""

import ast
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from chroma import cayley, cli, config, constructions, graphio, kneser
from chroma.cli import _jsonify, main, run
from chroma.groups import ElementSet, make_group


def invoke(tmp_path, capsys, command, cfg, out=None):
    """Write cfg to a file, run `chroma command --config file`, parse stdout."""
    path = tmp_path / f"{command}-config.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if out is not None:
        argv += ["--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    report = None
    text = (out.read_text() if out is not None else captured.out).strip()
    if text:
        report = json.loads(text)
    return code, report, captured.err


def test_classify_report(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "classify", {"equation": "[1, 1, -1]"})
    assert code == 0
    res = rep["results"]
    assert res["k"] == 3
    assert res["roth"] is False
    assert res["chi_vanishing"] is False
    assert res["rt"] is True
    assert res["witness_subset"] == [1, 2]
    assert rep["command"] == "classify"
    assert "timing" in rep


def test_kneser_chi_bound(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "kneser",
                          {"n": 125, "k": 5, "m": 4, "action": "chi-bound"})
    assert code == 0
    assert rep["results"]["chi_bound"] == "1"
    assert rep["results"]["chi_bound_ceil"] == 1


def test_kneser_exact_chi(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "kneser",
                          {"n": 5, "k": 2, "m": 1, "action": "chi",
                           "budget": "30s"})
    assert code == 0
    res = rep["results"]
    assert res["vertices"] == 10
    assert res["chi_exact"] is True
    assert res["chi"] == 3


@pytest.mark.parametrize("command, cfg", [
    # C(30, 3) = 4,060 vertices
    ("kneser", {"n": 30, "k": 3, "m": 1, "action": "chi"}),
    ("cayley", {"group": "Z(2003)", "connection": [1, 5], "action": "chi"}),
    ("cayley", {"group": "Z(2003)", "connection": [1, 5], "action": "alpha"}),
])
def test_solver_cap_refuses_before_the_graph_is_built(tmp_path, capsys, monkeypatch,
                                                      command, cfg):
    def no_build(*args, **kwargs):
        raise AssertionError("graph built before the exact-solver cap check")

    monkeypatch.setattr(kneser, "build_graph", no_build)
    monkeypatch.setattr(cayley.CayleyView, "to_graph", no_build)
    code, rep, err = invoke(tmp_path, capsys, command, cfg)
    assert code == 1 and rep is None
    vertices = 4060 if command == "kneser" else 2003
    assert err.strip() == (f"error: vertex count {vertices} exceeds the exact-solver "
                           f"cap {config.EXACT_SOLVER_CAP}")


@pytest.mark.parametrize("command, cfg, message", [
    ("bohr-color", {"p": 1 << 24, "equation": "[1,1,-1,-1]", "set": {"random_density": 1.0}},
     "expected a set over a prime field, got Z(16777216)"),
    ("cayley", {"group": "Z(67108863)", "connection": [1], "action": "greedy"},
     f"vertex count 67108863 exceeds the adjacency cap {config.ADJACENCY_CAP}"),
    ("cayley", {"group": "Z(67108863)", "connection": [1], "action": "export",
                "dimacs": "big.dimacs"},
     f"vertex count 67108863 exceeds the adjacency cap {config.ADJACENCY_CAP}"),
], ids=["bohr-color", "cayley-greedy", "cayley-export"])
def test_caps_refuse_before_the_input_set_is_built(tmp_path, capsys, monkeypatch,
                                                   command, cfg, message):
    def no_build(*args, **kwargs):
        raise AssertionError("input set built before the cap check")

    monkeypatch.setattr(ElementSet, "from_indices", no_build)
    code, rep, err = invoke(tmp_path, capsys, command, cfg)
    assert code == 1 and rep is None
    assert err.strip() == f"error: {message}"


def test_kneser_chi_needs_no_prime_but_chi_bound_does(tmp_path, capsys):
    # KN(6,1,3): m + 1 = 4 is composite, so there is no spectral bound to
    # report, but the exact search still closes chi over its 120 vertices
    cfg = {"n": 6, "k": 1, "m": 3}
    code, rep, _ = invoke(tmp_path, capsys, "kneser", {**cfg, "action": "chi"})
    assert code == 0
    res = rep["results"]
    assert (res["vertices"], res["chi_exact"], res["chi"]) == (120, True, 6)
    assert "chi_bound" not in res and "chi_bound_ceil" not in res
    code, rep, err = invoke(tmp_path, capsys, "kneser", {**cfg, "action": "chi-bound"})
    assert code == 1 and rep is None
    assert err.strip() == "error: m+1 = 4 must be prime for the spectral bound"


def test_kneser_infeasible_params(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "kneser",
                          {"n": 5, "k": 3, "m": 1, "action": "count"})
    assert code == 1
    assert "error" in err


def test_cayley_exact_chi_and_alpha(tmp_path, capsys):
    base = {"group": "Z(13)", "connection": [1, 5]}
    code, rep, _ = invoke(tmp_path, capsys, "cayley", {**base, "action": "chi"})
    assert code == 0
    assert rep["results"]["edges"] == 26
    assert rep["results"]["chi_exact"] is True
    assert rep["results"]["chi"] == 4
    code, rep, _ = invoke(tmp_path, capsys, "cayley", {**base, "action": "alpha"})
    assert code == 0
    assert rep["results"]["alpha_exact"] is True
    assert rep["results"]["alpha"] == 4
    assert rep["results"]["search_nodes"] >= 1


@pytest.mark.parametrize("action, connection, budget, proof", [
    ("chi", [1, 5], None, "exhausted-search"),
    ("chi", [1, 2, 3, 4, 5, 6], None, "clique-meets-coloring"),     # K_13
    ("chi", [1, 5], "0s", "budget"),
    ("alpha", [1, 5], None, "exhausted-search"),
    ("alpha", [1, 5], "0s", "budget"),
])
def test_cayley_reports_the_proof(tmp_path, capsys, action, connection, budget, proof):
    cfg = {"group": "Z(13)", "connection": connection, "action": action}
    if budget is not None:
        cfg["budget"] = budget
    code, rep, _ = invoke(tmp_path, capsys, "cayley", cfg)
    assert code == 0
    res = rep["results"]
    assert res["proof"] == proof
    assert res[f"{action}_exact"] is (proof != "budget")


def test_cayley_alpha_budget_closed_by_the_cover_is_exact(tmp_path, capsys):
    # Cay(Z_6, {1}) is the 6-cycle: at a zero budget the greedy set of 3
    # meets the clique cover, so the bracket [3, 3] is closed
    view = cayley.CayleyView(make_group([6]), ElementSet.from_indices(make_group([6]), [1]))
    res = cayley.independence_number_exact(view.to_graph(), budget_s=0)
    assert (res.lower, res.upper, res.exact, res.proof) == (3, 3, True, "clique-cover")
    assert res.independence_number == 3
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(6)", "connection": [1], "action": "alpha", "budget": "0s"})
    assert code == 0
    res = rep["results"]
    assert (res["alpha_lower"], res["alpha_upper"], res["alpha_exact"], res["alpha"]) == (3, 3, True, 3)
    assert (res["proof"], res["search_nodes"]) == ("clique-cover", 1)


def test_cayley_alpha_budget_reports_the_cover_bound(tmp_path, capsys):
    # Cay(Z_127, +-{1,5,11,20,27,40}) stays open at a zero budget; the root
    # clique cover still bounds alpha well below the vertex count
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(127)", "connection": [1, 5, 11, 20, 27, 40],
                           "action": "alpha", "budget": "0s"})
    assert code == 0
    res = rep["results"]
    assert res["alpha_exact"] is False and "alpha" not in res
    assert res["search_nodes"] == 1
    assert res["alpha_lower"] <= res["alpha_upper"] < 127


def test_cayley_greedy_bracket(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(13)", "connection": [1, 5],
                           "action": "greedy"})
    assert code == 0
    res = rep["results"]
    assert 2 <= res["clique_lower"] <= res["greedy_colors"]
    assert len(res["clique"]) == res["clique_lower"]


def test_cayley_coordinate_connection_entries(tmp_path, capsys):
    # the rook's graph K3 x K3: each vertex meets the 4 others in its row and column
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(3)^2", "connection": [[1, 0], [0, 1]],
                           "action": "greedy"})
    assert code == 0
    res = rep["results"]
    assert (res["order"], res["connection_size"], res["edges"]) == (9, 2, 18)
    # entries are reduced modulo each factor, also beyond the int64 range
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(3)^2", "connection": [[4, -3], [0, 3 * 10**30 + 1]],
                           "action": "greedy"})
    assert code == 0
    res = rep["results"]
    assert (res["order"], res["connection_size"], res["edges"]) == (9, 2, 18)


def test_cayley_connection_entry_of_wrong_length(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(3)^2", "connection": [[1, 0, 0]],
                           "action": "greedy"})
    assert code == 1
    assert "dimension mismatch" in err


def test_cayley_group_exponent_below_one(tmp_path, capsys):
    # "Z(7)^0xZ(5)" is refused before the command runs, not read as Z(5)
    code, rep, err = invoke(tmp_path, capsys, "cayley",
                            {"group": "Z(7)^0xZ(5)", "connection": [1],
                             "action": "greedy"})
    assert code == 1 and rep is None
    assert "'Z(7)^0' has exponent below 1" in err


def test_cayley_export_files(tmp_path, capsys):
    dimacs = tmp_path / "cycle.dimacs"
    cnf = tmp_path / "cycle.cnf"
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(5)", "connection": [1],
                           "action": "export", "dimacs": str(dimacs),
                           "cnf": str(cnf), "cnf_colors": 3})
    assert code == 0
    assert dimacs.read_text().splitlines()[0] == "p edge 5 5"
    graph = graphio.read_dimacs(str(dimacs))
    assert graph.n == 5 and graph.edge_count() == 5
    header = next(line for line in cnf.read_text().splitlines()
                  if line.startswith("p cnf"))
    assert header.split()[2] == "15"  # 5 vertices x 3 colors
    assert rep["results"]["dimacs"] == str(dimacs)


@pytest.fixture
def no_cayley_graph(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("graph built before the config was checked")

    monkeypatch.setattr(cayley.CayleyView, "to_graph", no_build)


def test_cayley_export_needs_a_path(tmp_path, capsys, no_cayley_graph):
    code, _, err = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(5)", "connection": [1],
                           "action": "export"})
    assert code == 1
    assert "export" in err


@pytest.mark.parametrize("fields", [
    {"action": "alpha", "cnf": "z131.cnf"},
    {"action": "export", "cnf": "z131.cnf", "cnf_colors": 0},
])
def test_cayley_cnf_colors_are_checked_before_the_graph_is_built(tmp_path, capsys,
                                                                 no_cayley_graph, fields):
    code, rep, err = invoke(tmp_path, capsys, "cayley",
                            {"group": "Z(131)", "connection": [1, 5, 11, 20, 27, 40], **fields})
    assert code == 1 and rep is None
    assert err.strip() == "error: 'cnf' export needs 'cnf_colors' >= 1"


def test_certify_lift_auto_prime(tmp_path, capsys):
    # auto picks the first prime past (sum|c|)^2 (sum|c| + 1) m = 9*4*143
    code, rep, _ = invoke(tmp_path, capsys, "certify-lift",
                          {"equation": "[1,-1,1]", "q": 5, "primes": [11, 13],
                           "p": "auto"})
    res = rep["results"]
    assert res["p"] == 5153
    # omitted thresholds come from default_core/extension_threshold, both
    # negative at n = 2: the core set is all of Z_m and the extension empty,
    # so the core is not solution-free and the findings exit 2
    assert res["core_threshold"] == "1 + -5*sqrt(2)"
    assert res["extension_threshold"] == "1 + -75*sqrt(2)"
    assert res["counts"]["core_m"] == res["m"] == 143
    assert res["counts"]["extension_m"] == 0
    assert code == 2
    outcome = {c["name"]: c["passed"] for c in res["certificates"]}
    assert outcome == {
        "core-solution-free": False,
        "induced-subgraph-match": True,
        "extension-in-lift": True,
        "no-mixed-solutions": False,
    }
    assert res["scale_conditions"] == {
        "q_exceeds_abs_coeff_sum": True,
        "primes_exceed_qn": True,
        "lift_prime_exceeds_Dm": True,
        "core_threshold_positive": False,
        "core_norm_bound_positive": False,
        "extension_threshold_positive": False,
        "extension_gap_holds": True,
        "lift_interval_nonempty": True,
        "lift_ranges_disjoint": True,
        "mixed_nonzero_sum_blocked": True,
        "no_large_zero_sum_subset": True,
    }


def test_bohr_color_cycle_with_csv(tmp_path, capsys):
    csv = tmp_path / "colors.csv"
    code, rep, _ = invoke(tmp_path, capsys, "bohr-color",
                          {"p": 101, "equation": "[1,1,-1,-1]",
                           "set": {"indices": [1]}, "colors_out": str(csv)})
    assert code == 0
    res = rep["results"]
    assert res["set_size"] == 1
    assert res["colors_used"] == 3
    assert res["proper"] is True
    lines = csv.read_text().splitlines()
    assert lines[0] == "vertex,color"
    assert len(lines) == 102
    colors = [int(line.split(",")[1]) for line in lines[1:]]
    assert set(colors) == {0, 1, 2}


def test_bohr_color_rle_input(tmp_path, capsys):
    bits = tmp_path / "set.bits"
    ElementSet.from_indices(make_group([101]), [1, 5, 30]).save(str(bits))
    code, rep, _ = invoke(tmp_path, capsys, "bohr-color",
                          {"p": 101, "equation": "[1,1,-1,-1]",
                           "set": {"rle": str(bits)}})
    assert code == 0
    assert rep["results"]["set_size"] == 3
    assert rep["results"]["proper"] is True
    # a set over the wrong field is rejected before any work happens
    code, _, err = invoke(tmp_path, capsys, "bohr-color",
                          {"p": 11, "equation": "[1,1,-1,-1]",
                           "set": {"rle": str(bits)}})
    assert code == 1
    assert "expected Z(11)" in err


def test_bohr_color_deterministic_reports(tmp_path, capsys):
    cfg = {"p": 101, "equation": "[1,1,-1,-1]",
           "set": {"random_density": 0.3}, "seed": 9}
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, rep1, _ = invoke(tmp_path, capsys, "bohr-color", cfg, out=out1)
    code2, rep2, _ = invoke(tmp_path, capsys, "bohr-color", cfg, out=out2)
    assert code1 == code2 == 0
    rep1.pop("timing"), rep2.pop("timing")
    assert rep1 == rep2


def test_indep_set_exact_with_csv(tmp_path, capsys):
    csv = tmp_path / "members.csv"
    code, rep, _ = invoke(tmp_path, capsys, "indep-set",
                          {"p": 3, "n": 6, "radius_sq": 6, "csv": str(csv)})
    assert code == 0
    res = rep["results"]
    assert set(res) == {"p", "n", "radius", "threshold", "degenerate", "count",
                        "density", "csv"}
    assert res["count"] == 1
    assert res["degenerate"] is False
    lines = csv.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,x3,x4,x5"
    assert len(lines) == 2


def test_indep_set_binary_variant(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "indep-set", {"p": 2, "n": 9})
    assert code == 0
    assert rep["results"]["count"] == 10


def test_indep_set_binary_above_enumeration_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "WEIGHT_ENUM_CAP", 100)
    code, rep, _ = invoke(tmp_path, capsys, "indep-set", {"p": 2, "n": 9})
    assert code == 0
    res = rep["results"]
    assert res["count"] == 10
    assert res["density"] == 10 / 2**9


def test_indep_set_csv_above_enumeration_cap_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(config, "WEIGHT_ENUM_CAP", 100)

    def no_work(*args, **kwargs):
        raise AssertionError("counted before the csv check")

    monkeypatch.setattr(kneser, "independent_set", no_work)
    csv = tmp_path / "members.csv"
    code, rep, err = invoke(tmp_path, capsys, "indep-set",
                            {"p": 2, "n": 9, "csv": str(csv)})
    assert code == 1
    assert rep is None and not csv.exists()
    assert err.startswith("error:") and "enumerated only up to 100" in err


@pytest.mark.parametrize("n", [0, -1])
def test_indep_set_nonpositive_n_is_an_error(tmp_path, capsys, n):
    code, rep, err = invoke(tmp_path, capsys, "indep-set", {"p": 3, "n": n})
    assert code == 1
    assert rep is None
    assert err.startswith("error:") and f"n >= 1, got n = {n}" in err
    assert "Traceback" not in err


def test_certify_lift_pinned_small(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "certify-lift",
                          {"equation": "[1,-1,1]", "q": 5, "primes": [11, 13],
                           "p": 431, "core_threshold": "37/20",
                           "extension_threshold": "1/12"})
    assert code == 2  # one certificate fails: reported as a finding
    res = rep["results"]
    assert res["all_passed"] is False
    outcome = {c["name"]: c["passed"] for c in res["certificates"]}
    assert outcome == {
        "core-solution-free": True,
        "induced-subgraph-match": False,
        "extension-in-lift": True,
        "no-mixed-solutions": True,
    }
    failing = next(c for c in res["certificates"]
                   if c["name"] == "induced-subgraph-match")
    assert failing["witness"] == [0, 75]  # 75 = 143 - 68 wraps mod m only
    assert res["counts"] == {"core_lifted": 2, "core_m": 2,
                             "extension_lifted": 1, "extension_m": 1,
                             "full_lifted": 3}


def test_construct_pinned_thresholds(tmp_path, capsys):
    # the construction's p, thresholds, set sizes and scale conditions, as
    # certify-lift reports them when p and both thresholds are pinned
    code, rep, _ = invoke(tmp_path, capsys, "certify-lift",
                          {"equation": "[1,-1,1]", "q": 5, "primes": [11, 13],
                           "p": 431, "core_threshold": "37/20",
                           "extension_threshold": "1/12"})
    assert code == 2
    res = rep["results"]
    assert (res["m"], res["p"]) == (143, 431)
    assert (res["core_threshold"], res["extension_threshold"]) == ("37/20", "1/12")
    assert (res["counts"]["core_m"], res["counts"]["extension_m"]) == (2, 1)
    conds = res["scale_conditions"]
    assert sum(conds.values()) == 9 and len(conds) == 11


def test_certify_lift_golden(tmp_path, capsys):
    code, rep, _ = invoke(tmp_path, capsys, "certify-lift", {"golden": True})
    assert code == 2
    res = rep["results"]
    outcome = {c["name"]: c["passed"] for c in res["certificates"]}
    assert outcome["core-solution-free"] is True
    assert outcome["induced-subgraph-match"] is False
    assert outcome["extension-in-lift"] is True
    assert outcome["no-mixed-solutions"] is True
    failing = next(c for c in res["certificates"]
                   if c["name"] == "induced-subgraph-match")
    assert failing["witness"] == [0, 76]
    assert res["counts"]["full_lifted"] == 165
    assert res["interval"] == [93633, 124843]


@pytest.mark.parametrize("extra", [
    {"q": 7, "equation": "[1,1,1]"},
    {"core_threshold": None},
    {"equation": "[1,-1,1]", "q": 5, "primes": [11, 13], "p": 431,
     "core_threshold": "37/20", "extension_threshold": "1/12"},
])
def test_certify_lift_golden_refuses_lift_fields(tmp_path, capsys, monkeypatch, extra):
    def no_work():
        raise AssertionError("the golden pin was built")

    monkeypatch.setattr(constructions, "golden_config", no_work)
    code, rep, err = invoke(tmp_path, capsys, "certify-lift", {"golden": True, **extra})
    assert code == 1 and rep is None
    assert "golden=true takes none of the fields" in err
    assert all(repr(key) in err for key in extra)


def test_certify_lift_needs_params_or_golden(tmp_path, capsys):
    # both configs pass the field table, which requires no lift field
    code, rep, err = invoke(tmp_path, capsys, "certify-lift", {"q": 5})
    assert code == 1 and rep is None
    assert err.strip() == "error: certify-lift needs either golden=true or the field 'equation'"
    code, rep, err = invoke(tmp_path, capsys, "certify-lift",
                            {k: v for k, v in _LIFT.items() if k != "q"})
    assert code == 1 and rep is None
    assert err.strip() == "error: certify-lift needs either golden=true or the field 'q'"


def test_schema_rejects_unknown_fields(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "classify",
                          {"equation": "[1,1,-1]", "typo_field": 1})
    assert code == 1
    assert "failed validation" in err


def test_schema_rejects_missing_required(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "kneser", {"n": 5, "k": 2, "m": 1})
    assert code == 1
    assert "failed validation" in err


def test_schema_rejects_wrong_types(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "kneser",
                          {"n": "five", "k": 2, "m": 1, "action": "count"})
    assert code == 1
    assert "failed validation" in err


def test_bad_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["classify", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_bad_budget_string(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(13)", "connection": [1],
                           "action": "chi", "budget": "fast"})
    assert code == 1
    assert "bad budget" in err


def test_unknown_command_rejected(tmp_path, capsys):
    # a usage error exits 1, as other input errors do; 2 is kept for findings
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 1
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 1
    assert "required: --config" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["certify-lift", "--help"])
    assert exc.value.code == 0


def test_cache_dir_redirects_relative_artifacts(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CHROMA_CACHE_DIR", str(cache))
    monkeypatch.chdir(tmp_path)
    code, rep, _ = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(5)", "connection": [1],
                           "action": "export", "dimacs": "rel.dimacs"})
    assert code == 0
    assert (cache / "rel.dimacs").exists()
    assert rep["results"]["dimacs"] == str(cache / "rel.dimacs")


_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("stem", sorted(p.stem for p in (_ROOT / "configs").glob("*.json")))
def test_shipped_configs_match_the_bench_snapshots(stem):
    # each shipped config's report, minus `timing`, and its exit code are the
    # ones the benchmark's snapshot pins; the snapshot names the command
    snap = json.loads((_ROOT / "bench" / "snapshots" / f"{stem}.json").read_text())
    cfg = json.loads((_ROOT / "configs" / f"{stem}.json").read_text())
    report, code = run(snap["command"], cfg)
    report = json.loads(json.dumps(report, default=_jsonify))
    del report["timing"]
    assert (report, code) == (snap["report"], snap["exit_code"])


def test_readme_command_table_lists_each_command():
    # the rows of the README table headed "| command" name exactly the CLI's commands
    lines = (_ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command "))
    rows = itertools.takewhile(lambda line: line.startswith("| `"), lines[start + 2:])
    names = [re.match(r"\| `([^`]+)` +\|", row).group(1) for row in rows]
    assert sorted(names) == sorted(cli._COMMANDS)


def test_no_path_reads_the_whole_graph_bitset_rows(tmp_path, no_masks):
    # Graph.masks raises here: alpha closed, budget-bound and theorem-closed,
    # chi, greedy bounds, a DIMACS round trip and every shipped config run
    g = make_group([127])
    graph = cayley.CayleyView(g, ElementSet.from_indices(g, [1, 5, 11, 20, 27, 40])).to_graph()
    assert cayley.independence_number_exact(graph).independence_number == 38
    res = cayley.independence_number_exact(graph, budget_s=0)
    assert (res.nodes, res.upper) == (1, 42)
    _, kn = kneser.build_graph(kneser.KneserParams(7, 2, 1))
    assert cayley.independence_number_exact(kn).proof == "ekr-1961"
    assert cayley.chromatic_number_exact(graph).chromatic_number == 4
    assert cayley.greedy_bounds(graph).clique_lower == 3
    graphio.write_dimacs(graph, tmp_path / "g.dimacs")
    back = graphio.read_dimacs(tmp_path / "g.dimacs")
    assert back.indices.tobytes() == graph.indices.tobytes()
    for path in sorted((_ROOT / "configs").glob("*.json")):
        snap = json.loads((_ROOT / "bench" / "snapshots" / path.name).read_text())
        assert run(snap["command"], json.loads(path.read_text()))[1] == snap["exit_code"]


def test_out_flag_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep, _ = invoke(tmp_path, capsys, "classify",
                          {"equation": "[1,1,-1]"}, out=out)
    assert code == 0
    assert rep["results"]["rt"] is True
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_out_flag_write_error_is_reported(tmp_path, capsys, target):
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps({"equation": "[1,1,-1]"}))
    out = tmp_path / "absent" / "r.json" if target == "missing" else tmp_path
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("literal", ["[1+1,1,-1]", "[x,1,-1]"])
def test_bad_equation_literal_message(tmp_path, capsys, literal):
    # ast.literal_eval's own message names an AST node by its address
    code, rep, err = invoke(tmp_path, capsys, "classify", {"equation": literal})
    assert (code, rep) == (1, None)
    assert err == f"error: bad equation literal {literal!r}\n"


# Config check, table-driven: (command, config, accepted).  An accepted config
# may still fail later in its handler; only the validation verdict is pinned.
_CAYLEY = {"group": "Z(5)", "connection": [1], "action": "greedy"}
_KNESER = {"n": 5, "k": 2, "m": 1, "action": "count"}
_LIFT = {"equation": "[1,-1,1]", "q": 5, "primes": [11, 13], "p": 431,
         "core_threshold": "37/20", "extension_threshold": "1/12"}
_BOHR = {"p": 101, "equation": "[1,1,-1,-1]", "set": {"indices": [1]}}
_INDEP = {"p": 2, "n": 9}

CONFIG_CHECK_ROWS = [
    ("classify", {"equation": "[1,1,-1]"}, True),
    ("classify", {}, False),
    ("classify", {"equation": "[1,1,-1]", "typo": 1}, False),
    ("classify", {"equation": 5}, False),
    ("classify", ["[1,1,-1]"], False),
    ("kneser", _KNESER, True),
    ("kneser", {**_KNESER, "budget": "1s"}, True),
    ("kneser", {"n": 5, "k": 2, "m": 1}, False),
    ("kneser", {**_KNESER, "action": "bogus"}, False),
    ("kneser", {**_KNESER, "n": True}, False),
    ("kneser", {**_KNESER, "n": "five"}, False),
    ("kneser", {**_KNESER, "budget": 30}, False),
    ("cayley", _CAYLEY, True),
    ("cayley", {**_CAYLEY, "connection": [[1]]}, True),
    ("cayley", {**_CAYLEY, "connection": [1, [2]]}, True),
    ("cayley", {**_CAYLEY, "connection": []}, True),
    ("cayley", {**_CAYLEY, "cnf_colors": 3}, True),
    ("cayley", {**_CAYLEY, "connection": [[[1]]]}, False),
    ("cayley", {**_CAYLEY, "connection": [True]}, False),
    ("cayley", {**_CAYLEY, "connection": [[True]]}, False),
    ("cayley", {**_CAYLEY, "connection": "1"}, False),
    ("cayley", {**_CAYLEY, "action": "color"}, False),
    ("cayley", {**_CAYLEY, "cnf_colors": True}, False),
    ("cayley", {**_CAYLEY, "dimacs": None}, False),
    ("cayley", {"group": "Z(5)", "action": "greedy"}, False),
    ("cayley", {**_CAYLEY, "typo": 1}, False),
    ("certify-lift", {**_LIFT, "equation": 5}, False),
    ("certify-lift", {**_LIFT, "p": "auto"}, True),
    ("certify-lift", {**_LIFT, "core_threshold": None}, True),
    ("certify-lift", {**_LIFT, "p": "automatic"}, False),
    ("certify-lift", {**_LIFT, "p": None}, False),
    ("certify-lift", {**_LIFT, "primes": [True]}, False),
    ("certify-lift", {**_LIFT, "primes": [11, "13"]}, False),
    ("certify-lift", {**_LIFT, "primes": 11}, False),
    ("certify-lift", {**_LIFT, "core_threshold": 1.5}, False),
    ("certify-lift", {**_LIFT, "q": True}, False),
    # the handler refuses these two with exit 1 (test_certify_lift_golden_refuses_lift_fields,
    # test_certify_lift_needs_params_or_golden)
    ("certify-lift", {**_LIFT, "golden": True}, True),
    ("certify-lift", {k: v for k, v in _LIFT.items() if k != "q"}, True),
    ("bohr-color", _BOHR, True),
    ("bohr-color", {**_BOHR, "nu": 1, "rho": 0.05, "s_index": None, "seed": 3}, True),
    ("bohr-color", {**_BOHR, "set": {"random_density": 0.3}}, True),
    ("bohr-color", {**_BOHR, "set": {}}, False),
    ("bohr-color", {**_BOHR, "set": {"indices": [1], "random_density": 0.3}}, False),
    ("bohr-color", {**_BOHR, "set": {"bogus": 1}}, False),
    ("bohr-color", {**_BOHR, "set": {"indices": 1}}, False),
    ("bohr-color", {**_BOHR, "set": [1]}, False),
    ("bohr-color", {**_BOHR, "nu": True}, False),
    ("bohr-color", {**_BOHR, "rho": "0.05"}, False),
    ("bohr-color", {**_BOHR, "s_index": 1.5}, False),
    ("bohr-color", {**_BOHR, "seed": True}, False),
    ("bohr-color", {**_BOHR, "p": "101"}, False),
    ("bohr-color", {"p": 101, "equation": "[1,1,-1,-1]"}, False),
    ("indep-set", _INDEP, True),
    ("indep-set", {**_INDEP, "radius_sq": None}, True),
    ("indep-set", {**_INDEP, "radius_sq": "6"}, False),
    ("indep-set", {**_INDEP, "csv": 5}, False),
    ("indep-set", {**_INDEP, "cap": 100}, False),
    ("indep-set", {"p": 2}, False),
    ("certify-lift", {"golden": True}, True),
    ("certify-lift", {"golden": True, "core_threshold": None}, True),
    ("certify-lift", {}, True),
    ("certify-lift", _LIFT, True),
    ("certify-lift", {**_LIFT, "golden": False}, True),
    ("certify-lift", {"golden": 1}, False),
    ("certify-lift", {"golden": "yes"}, False),
    ("certify-lift", {"golden": None}, False),
    ("certify-lift", {**_LIFT, "primes": []}, False),
    ("certify-lift", {**_LIFT, "p": "AUTO"}, False),
    ("certify-lift", {**_LIFT, "extension_threshold": 0}, False),
    ("certify-lift", {"golden": True, "typo": 1}, False),
    # an integer field takes JSON integers only, not integral floats
    ("kneser", {**_KNESER, "n": 5.0}, False),
    ("cayley", {**_CAYLEY, "cnf_colors": 3.0}, False),
    ("cayley", {**_CAYLEY, "connection": [1.0]}, False),
    ("cayley", {**_CAYLEY, "connection": [[1.0]]}, False),
    ("certify-lift", {**_LIFT, "q": 5.0}, False),
    ("certify-lift", {**_LIFT, "p": 431.0}, False),
    ("bohr-color", {**_BOHR, "set": {"indices": [1.0]}}, False),
    ("indep-set", {**_INDEP, "n": 9.0}, False),
    ("indep-set", {"p": 3, "n": 6, "radius_sq": 6.0}, False),
    ("indep-set", {"p": 3.0, "n": 6}, False),
    ("indep-set", {"p": 3, "n": -1.0}, False),
    ("certify-lift", {**_LIFT, "primes": [11.0, 13]}, False),
]


@pytest.mark.parametrize("command, cfg, accepted", CONFIG_CHECK_ROWS)
def test_config_check_table(tmp_path, capsys, command, cfg, accepted):
    code, _, err = invoke(tmp_path, capsys, command, cfg)
    if accepted:
        assert "failed validation" not in err
    else:
        assert code == 1
        assert "failed validation" in err


def test_config_errors_name_each_field(tmp_path, capsys):
    code, _, err = invoke(tmp_path, capsys, "cayley",
                          {"group": "Z(5)", "connection": [1, [2.0]],
                           "action": "paint", "typo": 1})
    assert code == 1
    assert err.strip() == (
        f"error: config {tmp_path / 'cayley-config.json'} failed validation: "
        "connection/1: expected integer or list, got [2.0]; "
        "action: expected one of 'alpha', 'chi', 'export', 'greedy', got \"paint\"; "
        "typo: unknown field")
    code, _, err = invoke(tmp_path, capsys, "bohr-color",
                          {"p": 11, "set": {"rle": "a", "indices": []}})
    assert code == 1
    assert err.strip().endswith(
        "failed validation: set: needs exactly one of 'rle', 'indices', "
        "'random_density'; equation: missing required field")


def test_cli_runs_without_jsonschema(tmp_path):
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps({"equation": "[1,1,-1]"}))
    script = ("import sys; sys.modules['jsonschema'] = None\n"
              "from chroma.cli import main\n"
              f"sys.exit(main(['classify', '--config', {str(cfg)!r}]))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["rt"] is True


# the chroma modules that `import chroma.cli` loads (key None), and those each
# shipped config's command loads on top of them
_ROOT_MODULES = {"chroma", "chroma.cli", "chroma.config", "chroma.equations",
                 "chroma.groups", "chroma.primes"}
_COMMAND_MODULES = {
    None: set(),
    "classify_schur": set(),
    "cycle_bohr": {"bohr", "cayley", "exact"},
    "golden": {"constructions", "exact"},
    "petersen_chi": {"cayley", "exact", "kneser"},
    "transfer": {"constructions", "exact"},
}


@pytest.mark.parametrize("stem", _COMMAND_MODULES, ids=str)
def test_each_command_loads_only_its_modules(tmp_path, stem):
    argv = None
    if stem is not None:
        snap = json.loads((_ROOT / "bench" / "snapshots" / f"{stem}.json").read_text())
        argv = [snap["command"], "--config", str(_ROOT / "configs" / f"{stem}.json"),
                "--out", str(tmp_path / "report.json")]
    script = ("import json, sys\n"
              "import chroma.cli\n"
              f"argv = {argv!r}\n"
              "code = None if argv is None else chroma.cli.main(argv)\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.split('.')[0] == 'chroma')]))\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    if stem is not None:
        assert code == snap["exit_code"]
    assert set(loaded) == _ROOT_MODULES | {f"chroma.{m}" for m in _COMMAND_MODULES[stem]}


def test_cli_imports_only_stdlib_at_the_top():
    # handlers import the chroma modules they call; a module-level chroma
    # import would load it for every command
    tree = ast.parse((_ROOT / "src" / "chroma" / "cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else ["chroma"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert all(n.split(".")[0] in sys.stdlib_module_names for n in names), \
            ast.unparse(node)


def test_package_root_stays_lean():
    script = ("import sys, chroma\n"
              "heavy = ['cayley', 'kneser', 'bohr', 'constructions', 'graphio',\n"
              "         'exact', 'cli']\n"
              "print([m for m in heavy if 'chroma.' + m in sys.modules])\n"
              "print([chroma.ElementSet.__name__, chroma.make_group.__name__,\n"
              "       chroma.Equation.__name__, chroma.classify.__name__])\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['ElementSet', 'make_group', 'Equation', 'classify']"]
