import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from erskit import cli
from erskit.ambient import CheckError
from erskit.base_system import CheckEntry, Report
from erskit.unfold import ResourceError


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cfgdir(tmp_path):
    (tmp_path / "d32.json").write_text(json.dumps(
        {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1}}
    ))
    (tmp_path / "a21.json").write_text(json.dumps(
        {"type": "A2(1)", "k": {"a0": 1, "a1": 1, "a2": 1}}
    ))
    (tmp_path / "odd.json").write_text(json.dumps(
        {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1},
         "g": {"a0": "2Z+1"}}
    ))
    (tmp_path / "bad.json").write_text(json.dumps(
        {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1},
         "g": {"a1": "Z"}}
    ))
    (tmp_path / "junk.json").write_text("{ not json")
    return tmp_path


def _report(result):
    assert result.output, result.output
    doc = json.loads(result.output)
    assert set(doc) == {"tool_version", "manifest", "results"}
    return doc


def test_version(runner):
    result = runner.invoke(cli.main, ["--version"])
    assert result.exit_code == 0


def test_roots_report_schema(runner, cfgdir):
    result = runner.invoke(cli.main, [
        "roots", "--config", str(cfgdir / "d32.json"), "--window", "3,3",
    ])
    assert result.exit_code == 0
    doc = _report(result)
    assert doc["manifest"]["command"] == "roots"
    (entry,) = doc["results"]
    assert entry["status"] == "ok"
    assert entry["roots"] == sorted(entry["roots"], key=lambda e: e["coords"])


def test_classify_reports_both_ranks(runner, cfgdir):
    result = runner.invoke(cli.main, [
        "classify", "--config", str(cfgdir / "odd.json"),
    ])
    assert result.exit_code == 0
    (entry,) = _report(result)["results"]
    assert len(entry["rank1"]) == 3
    assert {r["case"] for r in entry["rank1"]} == {"i", "ii"}
    assert any(r["case"] == "vi" for r in entry["rank2"])


def test_failed_check_does_not_abort_batch(runner, cfgdir):
    # classify_rank2 finds a gamma off the marking coordinate on this config
    g2 = cfgdir / "g2_331.json"
    g2.write_text(json.dumps({"type": "G2(1)", "k": {"a0": 3, "a1": 3, "a2": 1}}))
    result = runner.invoke(cli.main, [
        "classify", "--config", str(cfgdir / "a21.json"), "--config", str(g2),
    ])
    assert result.exit_code == 1
    ok, failed = _report(result)["results"]
    assert ok["status"] == "ok"
    assert failed["status"] == "check-failed"
    assert "marking coordinate" in failed["error"]


def test_verify_ebs_passes(runner, cfgdir):
    result = runner.invoke(cli.main, [
        "verify-ebs", "--config", str(cfgdir / "d32.json"),
        "--window", "4,4",
    ])
    assert result.exit_code == 0
    (entry,) = _report(result)["results"]
    assert entry["status"] == "ok"


def test_verify_ebs_failure_exit_code(runner, cfgdir, monkeypatch):
    # exit 1 is reserved for a completed run whose checks fail
    bad = Report([CheckEntry("SER4", False, "injected")])
    monkeypatch.setattr(cli, "check_ebs", lambda rs: bad)
    result = runner.invoke(cli.main, [
        "verify-ebs", "--config", str(cfgdir / "d32.json"),
        "--window", "3,3",
    ])
    assert result.exit_code == 1
    (entry,) = _report(result)["results"]
    assert entry["status"] == "fail"


def test_config_errors_do_not_abort_batch(runner, cfgdir):
    result = runner.invoke(cli.main, [
        "roots",
        "--config", str(cfgdir / "bad.json"),
        "--config", str(cfgdir / "junk.json"),
        "--config", str(cfgdir / "missing.json"),
        "--config", str(cfgdir / "d32.json"),
        "--window", "3,3",
    ])
    assert result.exit_code == 2
    doc = _report(result)
    statuses = [e["status"] for e in doc["results"]]
    assert statuses == ["config-error"] * 3 + ["ok"]


@pytest.mark.parametrize("doc", [
    {"type": 5},
    {"type": "A2(1)", "k": [1, 1, 1]},
    {"type": "A2(1)", "k": {"a0": 1}, "g": {"a0": ["Z"]}},
    ["type"],
    {"type": "A2(1)", "k": {"a0": True}},
], ids=["type-not-string", "k-not-object", "g-value-not-string", "not-object",
        "k-value-bool"])
def test_malformed_config_is_config_error(runner, cfgdir, doc):
    (cfgdir / "malformed.json").write_text(json.dumps(doc))
    result = runner.invoke(cli.main, [
        "roots",
        "--config", str(cfgdir / "malformed.json"),
        "--config", str(cfgdir / "d32.json"),
        "--window", "3,3",
    ])
    assert result.exit_code == 2
    bad, good = _report(result)["results"]
    assert bad["status"] == "config-error"
    assert good["status"] == "ok"


@pytest.mark.parametrize("args", [
    ["qtorus-verify", "--q-numeric", "abc"],
    ["qtorus-verify", "--q-numeric", "1/0"],
    ["roots", "--window", "0,1", "--config", "d32.json"],
    ["verify-pi", "--height", "5", "--config", "d32.json"],
], ids=["q-not-rational", "q-zero-denominator", "window-zero",
        "verify-pi-height"])
def test_bad_argument_is_usage_error(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert "Usage:" in result.output
    # the CLI has no --pad, so no message may mention one
    assert "pad" not in result.output


def test_verify_pi_command(runner, cfgdir):
    result = runner.invoke(cli.main, [
        "verify-pi", "--config", str(cfgdir / "d32.json"),
    ])
    assert result.exit_code == 0
    (entry,) = _report(result)["results"]
    assert entry["status"] == "ok"
    assert entry["kappa"] is not None


def test_resource_error_exit_code(runner, cfgdir, monkeypatch):
    def boom(cfg):
        raise ResourceError("budget", 4)

    monkeypatch.setattr(cli, "verify_pi", boom)
    result = runner.invoke(cli.main, [
        "verify-pi", "--config", str(cfgdir / "d32.json"),
    ])
    assert result.exit_code == 3
    (entry,) = _report(result)["results"]
    assert entry["status"] == "resource-error"
    assert entry["completed_height"] == 4


def test_qtorus_verify(runner):
    result = runner.invoke(cli.main, ["qtorus-verify", "--rank", "2"])
    assert result.exit_code == 0
    doc = _report(result)
    assert {e["suite"] for e in doc["results"]} == {"relations", "structure"}
    result = runner.invoke(cli.main, [
        "qtorus-verify", "--rank", "2", "--q-numeric", "1",
    ])
    assert result.exit_code == 0


def test_relations_presets_and_formats(runner, cfgdir):
    for preset in ("sr", "sr-sharp", "tsr"):
        result = runner.invoke(cli.main, [
            "relations", "--config", str(cfgdir / "d32.json"),
            "--preset", preset,
        ])
        assert result.exit_code == 0, result.output
    csv_out = runner.invoke(cli.main, [
        "relations", "--config", str(cfgdir / "d32.json"), "--format", "csv",
    ])
    assert csv_out.exit_code == 0
    header = csv_out.output.splitlines()[0]
    assert "config" in header and "status" in header
    tex_out = runner.invoke(cli.main, [
        "ears", "--config", str(cfgdir / "odd.json"), "--format", "latex",
    ])
    assert tex_out.exit_code == 0
    assert tex_out.output.startswith("\\begin{tabular}")


def test_out_directory(runner, cfgdir, tmp_path):
    out = tmp_path / "reports"
    result = runner.invoke(cli.main, [
        "unfold", "--config", str(cfgdir / "d32.json"),
        "--out", str(out),
    ])
    assert result.exit_code == 0
    doc = json.loads((out / "unfold.json").read_text())
    assert doc["results"][0]["status"] == "ok"


@pytest.mark.parametrize("command", ["roots", "export"])
def test_out_path_that_is_a_file_is_usage_error(runner, cfgdir, command):
    # --out names a directory; an existing file there ends in a usage error
    # that names the path, not a FileExistsError traceback
    cfg = str(cfgdir / "d32.json")
    result = runner.invoke(cli.main, [
        command, "--config", cfg, "--window", "3,3", "--out", cfg,
    ])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Usage:" in result.output
    assert repr(cfg) in result.output


def test_export_deterministic(runner, cfgdir, tmp_path):
    out = tmp_path / "artifacts"
    args = [
        "export", "--config", str(cfgdir / "d32.json"),
        "--preset", "roots", "--window", "3,3", "--out", str(out),
    ]
    assert runner.invoke(cli.main, args).exit_code == 0
    first = (out / "roots-0-d32.json").read_bytes()
    assert runner.invoke(cli.main, args).exit_code == 0
    assert (out / "roots-0-d32.json").read_bytes() == first
    doc = json.loads(first)
    assert doc["data"]


def test_export_bad_config_writes_error_file(runner, cfgdir, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(cli.main, [
        "export", "--config", str(cfgdir / "bad.json"),
        "--preset", "handy", "--out", str(out),
    ])
    assert result.exit_code == 2
    doc = json.loads((out / "handy-0-bad.json").read_text())
    assert doc["status"] == "config-error"


def test_export_missing_config_writes_error_file(runner, cfgdir, tmp_path):
    out = tmp_path / "artifacts"
    result = runner.invoke(cli.main, [
        "export", "--config", str(cfgdir / "missing.json"),
        "--config", str(cfgdir / "d32.json"), "--out", str(out),
        "--window", "3,3",
    ])
    assert result.exit_code == 2
    assert result.stderr == ""
    doc = json.loads((out / "roots-0-missing.json").read_text())
    assert doc["status"] == "config-error"
    assert "No such file" in doc["error"]
    assert json.loads((out / "roots-1-d32.json").read_text())["data"]


def test_report_write_failure_is_a_typed_exit(runner, cfgdir, tmp_path):
    # a directory in the way of the report file: exit 2 with one stderr
    # line, as export does, instead of a traceback
    out = tmp_path / "rep"
    (out / "roots.json").mkdir(parents=True)
    result = runner.invoke(cli.main, [
        "roots", "--config", str(cfgdir / "d32.json"), "--window", "3,3",
        "--out", str(out),
    ])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr.startswith(f"write failed for {out / 'roots.json'}: ")
    assert result.stdout == ""


@pytest.mark.parametrize("error, status, code", [
    (CheckError("injected"), "check-failed", 1),
    (ResourceError("budget", 4), "resource-error", 3),
], ids=["check-error", "resource-error"])
def test_export_payload_errors_write_error_file(runner, cfgdir, tmp_path,
                                                monkeypatch, error, status,
                                                code):
    def boom(cfg):
        raise error

    monkeypatch.setattr(cli, "build_handy", boom)
    out = tmp_path / "artifacts"
    result = runner.invoke(cli.main, [
        "export", "--config", str(cfgdir / "d32.json"),
        "--preset", "handy", "--out", str(out),
    ])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    doc = json.loads((out / "handy-0-d32.json").read_text())
    assert doc["status"] == status
    assert doc["error"] == str(error)


PINNED_CONFIGS = {
    "a21.json": {"type": "A2(1)", "k": {"a0": 1, "a1": 1, "a2": 1}},
    "d32.json": {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1}},
    "odd.json": {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1},
                 "g": {"a0": "2Z+1"}},
    "g21.json": {"type": "G2(1)", "k": {"a0": 3, "a1": 3, "a2": 1}},
    "bad.json": {"type": "D3(2)", "k": {"a0": 1, "a1": 1, "a2": 1},
                 "g": {"a1": "Z"}},
}
_EBS = ["verify-ebs", "--config", "a21.json", "--config", "odd.json"]
_RELATIONS = ["relations", "--config", "d32.json", "--config", "odd.json",
              "--config", "g21.json"]

# sha256 of the report bytes: a change here is a change of the CLI's output
PINNED_REPORTS = [
    pytest.param(_EBS,
                 "3af74ccf695215a33e7e4200b1b3706a524de73a180ac77572efa8ed2149c51a",
                 id="verify-ebs-json"),
    pytest.param(_EBS + ["--format", "csv"],
                 "cf77d25812aea24aa5212aaf17beec0861c1f6f3956c8f26b29ef8bc3f98700d",
                 id="verify-ebs-csv"),
    pytest.param(_EBS + ["--format", "latex"],
                 "611ad2829989e71bef34606a8353bd200d1670ba643887b3d257aee9ec4080aa",
                 id="verify-ebs-latex"),
    pytest.param(["roots", "--config", "odd.json", "--config", "g21.json",
                  "--window", "3,3"],
                 "beaff76eafdfbad332e7c2f17886b60897e0aed1650b3b5a1b0959aa03e178ec",
                 id="roots-batch"),
    pytest.param(["verify-pi", "--config", "d32.json"],
                 "4a274e1777d5ce413be0b9871508781aae761a7247cd65cea22abfde3f1c0a96",
                 id="verify-pi"),
    pytest.param(["verify-pi", "--config", "odd.json"],
                 "deac5b2f71dfd6a21982fb0241861db81b6a9870967077c9cb98c6c18a9bb5a3",
                 id="verify-pi-odd"),
    pytest.param(["verify-pi", "--config", "g21.json"],
                 "c637719a83d7fdc26f53a13d57788463e659a7538091790fe25e5c0ef3e175c8",
                 id="verify-pi-g21"),
    pytest.param(["qtorus-verify"],
                 "4453fb83c7d5cdf27904077ed467cbf9810ba67f73d0751e2fe4db6d4cfc7262",
                 id="qtorus-formal"),
    pytest.param(["qtorus-verify", "--q-numeric", "2/3"],
                 "d5c3acd880b20ce090d014132852aa2c57b8be6c12c7fd450079daf51887e470",
                 id="qtorus-q-2-3"),
    pytest.param(["qtorus-verify", "--rank", "3"],
                 "94b90e9bde00eb8b43b0eaf2ee257387a12399cdcb7bf6eb58a846abecfe1ea5",
                 id="qtorus-rank-3"),
    pytest.param(_RELATIONS,
                 "3b1df684b2523e8f914c7dddfb83566310659bb8ddd72173be837a78b75fe802",
                 id="relations-sr"),
    pytest.param(_RELATIONS + ["--preset", "sr-sharp"],
                 "1de8cc1a59c5758c6caed247dfa14afe7b65ddba0a6330e43115c9649b908665",
                 id="relations-sr-sharp"),
    pytest.param(_RELATIONS + ["--preset", "tsr"],
                 "ee17e27581757eea32ffcfafb6387659fce273718731a5d2a3c02ef2afa009d1",
                 id="relations-tsr"),
    pytest.param(["classify", "--config", "a21.json", "--config", "odd.json"],
                 "2ab0836dc4ec8ac03849fe2608b32748a8e63207d2c29eeaa8d084770cda1493",
                 id="classify-batch"),
    pytest.param(["ears", "--config", "d32.json", "--config", "odd.json",
                  "--window", "3,3"],
                 "381cda18ce26956299e8ce81425094c74ce50e515b0574f0617826d95610757b",
                 id="ears-batch"),
]


def _write_pinned_configs():
    for name, doc in PINNED_CONFIGS.items():
        Path(name).write_text(json.dumps(doc))


@pytest.mark.parametrize("args, digest", PINNED_REPORTS)
def test_report_bytes_pinned(runner, args, digest):
    # relative config paths keep the manifest, and so the bytes, fixed
    with runner.isolated_filesystem():
        _write_pinned_configs()
        result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_error_batch_bytes_pinned(runner):
    # an invalid and a missing config are config-error entries of the report
    with runner.isolated_filesystem():
        _write_pinned_configs()
        result = runner.invoke(cli.main, [
            "unfold", "--config", "d32.json", "--config", "odd.json",
            "--config", "bad.json", "--config", "missing.json",
        ])
    assert result.exit_code == 2, result.output
    assert [e["status"] for e in json.loads(result.stdout)["results"]] == [
        "ok", "ok", "config-error", "config-error"]
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "785746de417cab606765434fea9136852baf200f6aa6a7d083f3e69b8ef8d0a0")


# sha256 of the artifact of d32.json followed by that of bad.json
PINNED_EXPORTS = [
    pytest.param("roots",
                 "7cfe68260db29d85043f59aee55e3a376c5d936bc01cd9a0e77d73d88f66ee66",
                 id="roots"),
    pytest.param("sr",
                 "3634c2851c97a0314b946c2e98b5887f8b3c54f868ab57a1d9f253e718fd7cce",
                 id="sr"),
    pytest.param("sr-sharp",
                 "4d7adda6bba59524304532009e7a8f485d4cae5c8c4f831aa67b6eba06a1ea8f",
                 id="sr-sharp"),
    pytest.param("tsr",
                 "20da4884c5058f775e3842b34ae2d23b19ef8b660f26038c90a4f37a19339c4a",
                 id="tsr"),
    pytest.param("handy",
                 "10ccefdc4314cf7b5aaf37903efdf52ae884fc5fb39dc2b3b2bdacf8f3e69faa",
                 id="handy"),
    pytest.param("ears",
                 "ae754a3b9e0e5f5aad470df0277d961f95b638db87471363dda64c8bfc6063c8",
                 id="ears"),
]


@pytest.mark.parametrize("preset, digest", PINNED_EXPORTS)
def test_export_bytes_pinned(runner, preset, digest):
    with runner.isolated_filesystem():
        _write_pinned_configs()
        result = runner.invoke(cli.main, [
            "export", "--config", "d32.json", "--config", "bad.json",
            "--preset", preset, "--window", "3,3", "--out", "artifacts",
        ])
        blobs = [Path("artifacts", f"{preset}-{idx}-{stem}.json").read_bytes()
                 for idx, stem in enumerate(("d32", "bad"))]
    assert result.exit_code == 2, result.output
    assert json.loads(blobs[0])["data"]
    assert json.loads(blobs[1])["status"] == "config-error"
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == digest
