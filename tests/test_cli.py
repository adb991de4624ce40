"""End-to-end tests of the command-line interface.

Every subcommand is exercised through main(argv); output is parsed back from
stdout (or --out files) and checked for the documented envelope fields,
self-check behavior, CSV headers, exit codes, and the tolerance environment
variable.
"""

import json
import math

import pytest

from pktilt.cli import main

BASE = ["--alpha", "0.5", "--delta", "1.0", "--gamma", "1.0"]


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
    # at s = 0.1 the tilt factor underflows the density to 0.0
    argv = ["diversity", "--alpha", "0.25", "--delta", "1", "--gamma", "1",
            "--s-grid", "0.1:6:60"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["density"][0] == 0.0 and doc["log_density"][0] is None
    code, text = run_csv(capsys, argv)
    assert code == 0
    assert text.splitlines()[1] == "0.1,0.0,"


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


def test_validate_with_mc(capsys):
    argv = ["validate", *BASE, "--n-max", "3", "--mc", "--mc-n", "8",
            "--replicates", "2000", "--tv-threshold", "0.05", "--seed", "3"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["mc"]["n"] == 8
    assert doc["mc"]["tv_distance"] < 0.05


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
