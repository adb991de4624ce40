"""End-to-end tests of the command-line interface.

Every subcommand is exercised through main(argv); output is parsed back from
stdout (or --out files) and checked for the documented envelope fields,
self-check behavior, CSV headers and exit codes.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pktilt import oracle
from pktilt.blocks import _log_diversity_density, diversity_density
from pktilt.cli import main
from pktilt.tempered_stable import GGParams

BASE = ["--alpha", "0.5", "--delta", "1.0", "--gamma", "1.0"]


def log_density_at(params, s):
    log_d, failed = _log_diversity_density(params, np.array([s]))
    assert failed == {}
    return float(log_d[0])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = main(argv + ["--format", "csv"])
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# envelope and exit codes


def test_eppf_json_envelope(capsys):
    code, doc = run_json(capsys, ["eppf", *BASE, "--composition", "3,2,1"])
    assert code == 0
    assert doc["command"] == "eppf"
    assert doc["params"] == {"alpha": 0.5, "delta": 1.0, "gamma": 1.0}
    assert doc["composition"] == [3, 2, 1]
    assert doc["n"] == 6 and doc["k"] == 3
    assert doc["p"] == pytest.approx(math.exp(doc["log_p"]), rel=1e-12)
    assert doc["tolerances"]["quadrature_relative_tolerance"] == 1e-10
    assert doc["passed"] is True
    names = [c["name"] for c in doc["self_checks"]]
    assert "additivity_residual" in names
    for c in doc["self_checks"]:
        assert c["passed"] is True


def test_eppf_pd_oracle(capsys):
    argv = [
        "eppf", "--alpha", "0.75", "--delta", "2.0", "--gamma", "0.0",
        "--composition", "2,2,1", "--oracle", "pd",
    ]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert "oracle_log_p" in doc
    assert doc["log_p"] == pytest.approx(doc["oracle_log_p"], abs=1e-9)
    names = [c["name"] for c in doc["self_checks"]]
    assert "pd_closed_form_relative_error" in names


def test_eppf_pd_oracle_requires_zero_gamma(capsys):
    with pytest.raises(SystemExit):
        main(["eppf", *BASE, "--composition", "2,1", "--oracle", "pd"])


def test_predict_json(capsys):
    code, doc = run_json(capsys, ["predict", *BASE, "--composition", "3,1"])
    assert code == 0
    assert len(doc["existing_weights"]) == 2
    assert doc["total"] == pytest.approx(1.0, abs=1e-10)
    # ratio of existing weights is (3 - alpha) : (1 - alpha)
    r = doc["existing_weights"][0] / doc["existing_weights"][1]
    assert r == pytest.approx((3 - 0.5) / (1 - 0.5), rel=1e-10)


def test_predict_empty_state(capsys):
    code, doc = run_json(capsys, ["predict", *BASE, "--empty"])
    assert code == 0
    assert doc["composition"] == []
    assert doc["existing_weights"] == []
    assert doc["new_block_weight"] == pytest.approx(1.0, abs=1e-12)


def test_blocks_json_with_enum_oracle(capsys):
    code, doc = run_json(capsys, ["blocks", *BASE, "--n", "6", "--oracle", "enum"])
    assert code == 0
    assert doc["k"] == [1, 2, 3, 4, 5, 6]
    assert math.fsum(doc["probabilities"]) == pytest.approx(1.0, abs=1e-9)
    assert len(doc["oracle_probabilities"]) == 6
    assert doc["passed"] is True


def test_blocks_enum_oracle_cap(capsys):
    with pytest.raises(SystemExit):
        main(["blocks", *BASE, "--n", "12", "--oracle", "enum"])


def test_diversity_half_has_integral_check(capsys):
    code, doc = run_json(capsys, ["diversity", *BASE, "--s", "0.5,1.0,2.0"])
    assert code == 0
    assert doc["integral"] == pytest.approx(1.0, abs=1e-8)
    assert doc["density"][1] == pytest.approx(
        math.exp(-0.25) / math.sqrt(math.pi), rel=1e-9
    )
    assert doc["notes"] == ["", "", ""]


def test_diversity_underflowed_density(capsys):
    # at s = 0.1 the tilt factor underflows the density to 0.0; its log is
    # still reported
    argv = ["diversity", "--alpha", "0.25", "--delta", "1", "--gamma", "1",
            "--s-grid", "0.1:6:60"]
    log_d = log_density_at(GGParams(0.25, 1.0, 1.0), 0.1)
    assert -1e4 < log_d < -745.0
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"][0] == 0.0 and doc["log_density"][0] == log_d
    code, text = run_csv(capsys, argv)
    assert code == 0
    assert text.splitlines()[1] == f"0.1,0.0,{log_d!r}"


def test_diversity_log_density_beyond_float_range(capsys):
    # at delta gamma = 1e6 the density at s = 1 is e^(-999999000000.82)
    argv = ["diversity", "--alpha", "0.5", "--delta", "1e6", "--gamma", "1", "--s", "1"]
    log_d = log_density_at(GGParams(0.5, 1e6, 1.0), 1.0)
    assert log_d == pytest.approx(-999999000000.82, abs=0.01)
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"] == [0.0] and doc["log_density"] == [log_d]
    assert doc["notes"] == [""]
    code, text = run_csv(capsys, argv)
    assert code == 0
    assert text.splitlines()[1] == f"1.0,0.0,{log_d!r}"


def test_diversity_large_tilt(capsys):
    # e^(delta gamma) overflows at delta gamma = 1e6; the density and its
    # integral check are summed in log scale
    argv = ["diversity", "--alpha", "0.5", "--delta", "1e6", "--gamma", "1",
            "--s-grid", "1400:1430:16"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["integral"] == pytest.approx(1.0, abs=1e-8)
    for s, d in zip(doc["s"], doc["density"]):
        ref = math.exp(1e6 - 0.5 * math.log(math.pi) - (1e6 / s) ** 2 - 0.25 * s * s)
        assert d == pytest.approx(ref, rel=1e-8), s


def test_diversity_generic_alpha_degrades_honestly(capsys):
    argv = ["diversity", "--alpha", "0.75", "--delta", "1.0", "--gamma", "1.0",
            "--s-grid", "0.5:9:5"]
    code, doc = run_json(capsys, argv)
    assert code == 0  # skipped integral check still passes
    assert any(n == "outside reliable region" for n in doc["notes"])
    assert any(d is None for d in doc["density"])
    assert doc["density"][0] is not None and doc["density"][0] > 0.0
    skip = [c for c in doc["self_checks"] if c["name"] == "integral_residual"]
    assert skip and "skipped" in skip[0]


@pytest.mark.parametrize("alpha, first_null", [("0.3", 15), ("0.5", 18), ("0.75", 5), ("0.9", 3)])
def test_diversity_grid_nulls_and_notes(alpha, first_null, capsys):
    # one array pass over the grid keeps the per-point outcome: the series
    # cancels from first_null on, and those points alone are null
    argv = ["diversity", "--alpha", alpha, "--delta", "1", "--gamma", "1", "--s-grid", "0.5:9:18"]
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["passed"] is True
    null = [i >= first_null for i in range(18)]
    assert [d is None for d in doc["density"]] == null
    assert [d is None for d in doc["log_density"]] == null
    assert doc["notes"] == ["outside reliable region" if x else "" for x in null]
    assert all(d > 0.0 for d in doc["density"][:first_null])


def test_diversity_tilt_beyond_float_range(capsys):
    # (delta gamma / s)^(1/alpha) = (5e7)^50 overflows: the density is 0.0
    # and its log is -inf, reported as null
    assert diversity_density(GGParams(0.02, 1e6, 50.0), 1.0) == 0.0
    argv = ["diversity", "--alpha", "0.02", "--delta", "1e6", "--gamma", "50", "--s", "1"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"] == [0.0] and doc["log_density"] == [None] and doc["notes"] == [""]


def test_diversity_at_tiny_delta_is_the_delta_free_law(capsys):
    # at gamma = 0 the law of S is delta-free; the delta-scale argument
    # 2 delta^(1/alpha) s^(-1/alpha) = 2e-500 would underflow to 0
    ref = diversity_density(GGParams(0.02, 1.0, 0.0), 1.0)
    assert ref == 0.3679758512299446
    assert diversity_density(GGParams(0.02, 1e-10, 0.0), 1.0) == ref
    argv = ["diversity", "--alpha", "0.02", "--delta", "1e-10", "--gamma", "0", "--s", "1"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"] == [ref] and doc["notes"] == [""]


def test_diversity_where_t_leaves_the_float_range(capsys):
    # at s = 1e-300, t = 2 s^(-1/alpha) overflows, but the series reads log t:
    # the point keeps its value, as s = 1e-200 does
    argv = ["diversity", "--alpha", "0.9", "--delta", "1", "--gamma", "0", "--s", "1e-200,1e-300"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"][0] == diversity_density(GGParams(0.9, 1.0, 0.0), 1e-200) > 0.1
    assert doc["density"][1] == pytest.approx(0.10511370061, rel=1e-10)
    assert doc["notes"] == ["", ""]


def test_requests_in_one_process_match_requests_one_at_a_time(tmp_path):
    # main parses with one parser per process; a request that exits 2 leaves
    # nothing behind for the next one
    requests = [
        ["eppf", *BASE, "--composition", "3,2,1"],
        ["blocks", *BASE, "--n", "0"],
        ["diversity", "--alpha", "0.75", "--delta", "1", "--gamma", "1", "--s-grid", "0.5:9:18"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for j, argv in enumerate(requests):
        out = tmp_path / f"alone{j}.json"
        code = subprocess.run(
            [sys.executable, "-c", "import sys; from pktilt.cli import main; sys.exit(main())",
             *argv, "--out", str(out)],
            env=env, capture_output=True,
        ).returncode
        assert code == (2 if j == 1 else 0)
    codes = []
    for j, argv in enumerate(requests):
        try:
            codes.append(main([*argv, "--out", str(tmp_path / f"shared{j}.json")]))
        except SystemExit as exc:
            codes.append(exc.code)
    assert codes == [0, 2, 0]
    for j in (0, 2):
        assert (tmp_path / f"shared{j}.json").read_text() == (tmp_path / f"alone{j}.json").read_text()
    assert not (tmp_path / "shared1.json").exists() and not (tmp_path / "alone1.json").exists()


def test_sample_json_deterministic(capsys):
    argv = ["sample", *BASE, "--n", "12", "--replicates", "3", "--seed", "42"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["seed"] == 42
    assert len(doc["samples"]) == 3
    for s in doc["samples"]:
        assert len(s["labels"]) == 12
        assert sum(s["block_sizes"]) == 12
        assert s["k"] == len(s["block_sizes"])
    code2, doc2 = run_json(capsys, argv)
    assert doc2["samples"] == doc["samples"]


def test_validate_subcommand(capsys):
    code, doc = run_json(capsys, ["validate", *BASE, "--n-max", "5"])
    assert code == 0
    names = [c["name"] for c in doc["self_checks"]]
    assert "eppf_normalization_n5" in names
    assert "blocks_vs_enumeration_n4" in names
    assert "predictive_additivity_worst" in names
    assert doc["passed"] is True


def test_validate_chain_check_rejects_a_biased_chain(capsys, monkeypatch):
    # every validate run compares the chain's exact K_n law with blocks_pmf
    # at n = 20; a new-block probability 2% too high fails that check alone
    code, doc = run_json(capsys, ["validate", *BASE, "--n-max", "1"])
    chain = next(c for c in doc["self_checks"] if c["name"] == "blocks_vs_chain_n20")
    assert code == 0 and chain["passed"] is True and chain["value"] < 1e-12
    true_prob = oracle._new_block_prob
    monkeypatch.setattr(oracle, "_new_block_prob", lambda eta, i, k: 1.02 * true_prob(eta, i, k))
    code, doc = run_json(capsys, ["validate", *BASE, "--n-max", "1"])
    assert code == 1 and doc["passed"] is False
    assert [c["name"] for c in doc["self_checks"] if not c["passed"]] == ["blocks_vs_chain_n20"]


# ---------------------------------------------------------------------------
# typed numerical failures


@pytest.mark.parametrize("argv", [
    ["eppf", "--composition", "3,2,1"],
    ["blocks", "--n", "300"],
])
def test_uncertifiable_tolerance_exits_three(argv, capsys):
    # rtol 1e-15 is below the quadrature's rounding floor: a typed error in
    # the envelope, not a traceback
    base = ["--alpha", "0.3", "--delta", "1", "--gamma", "1e-3", "--tolerance", "1e-15"]
    code = main(argv[:1] + base + argv[1:])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 3
    assert doc["passed"] is False
    assert doc["error"]["type"] == "QuadratureError"
    assert "rounding floor" in doc["error"]["message"]
    assert "QuadratureError" in captured.err


def test_uncertifiable_tolerance_csv_exits_three(capsys):
    argv = ["eppf", "--alpha", "0.3", "--delta", "1", "--gamma", "1e-3",
            "--tolerance", "1e-15", "--composition", "2,1", "--format", "csv"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "QuadratureError" in captured.err


# ---------------------------------------------------------------------------
# formats, files, tolerance plumbing


def test_csv_outputs(capsys):
    code, text = run_csv(capsys, ["eppf", *BASE, "--composition", "2,1"])
    assert code == 0
    assert text.splitlines()[0] == "n,k,log_p,p,log_v,v"

    code, text = run_csv(capsys, ["blocks", *BASE, "--n", "5"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "k,probability,log_probability"
    assert len(lines) == 6

    code, text = run_csv(capsys, ["diversity", *BASE, "--s", "1.0"])
    assert code == 0
    assert text.splitlines()[0] == "s,density,log_density"

    code, text = run_csv(capsys, ["predict", *BASE, "--composition", "2,1"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "kind,index,block_size,weight"
    assert lines[-1].startswith("new,")

    code, text = run_csv(
        capsys, ["sample", *BASE, "--n", "6", "--replicates", "2", "--seed", "1"]
    )
    assert code == 0
    assert text.splitlines()[0] == "replicate,k,block_sizes,labels"

    code, text = run_csv(capsys, ["validate", *BASE, "--n-max", "3"])
    assert code == 0
    assert text.splitlines()[0] == "check,detail,value,threshold,passed"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["blocks", *BASE, "--n", "4", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "blocks"


def test_tolerance_flag(capsys):
    _, doc = run_json(
        capsys, ["eppf", *BASE, "--composition", "2,1", "--tolerance", "1e-9"]
    )
    assert doc["tolerances"]["quadrature_relative_tolerance"] == 1e-9


def test_bad_arguments_exit_two(capsys):
    cases = [
        ["eppf", "--alpha", "1.5", "--delta", "1.0", "--gamma", "1.0",
         "--composition", "2,1"],                               # alpha out of range
        ["eppf", *BASE, "--composition", "0,1"],                # bad composition
        ["eppf", *BASE],                                        # missing composition
        ["blocks", *BASE],                                      # missing n
        ["diversity", *BASE, "--s", "-1.0"],                    # negative s
        ["diversity", *BASE],                                   # no s and no grid
        ["blocks", "--alpha", "0.5", "--delta", "inf", "--gamma", "1.0",
         "--n", "5"],                                           # infinite delta
        ["predict", "--alpha", "0.5", "--delta", "1.0", "--gamma", "inf",
         "--empty"],                                            # infinite gamma
        ["eppf", "--alpha", "0.25", "--delta", "1.0", "--gamma", "1.0",
         "--composition", "2,1", "--method", "closed"],         # unknown option
        ["nosuchcommand"],
        ["blocks", *BASE, "--n", "0"],                          # n below 1
        ["eppf", *BASE, "--composition", "2,1", "--oracle", "pd"],  # pd oracle at gamma != 0
        ["blocks", *BASE, "--n", "12", "--oracle", "enum"],     # enumeration too large
        ["sample", *BASE, "--n", "5", "--replicates", "0"],     # no replicates
        ["validate", *BASE, "--n-max", "0"],                    # n-max below 1
        ["validate", *BASE, "--mc"],                            # removed option
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pktilt ")
