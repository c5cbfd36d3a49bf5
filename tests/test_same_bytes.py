"""tools/same_bytes.py: a run of the CLI script repeats byte for byte, and
``--compare`` names the first file that differs."""

import importlib.util
import json
from pathlib import Path

from redlab import cli

_SPEC = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)

CONFIG = {"adr_dynconv": same_bytes.CONFIGS["adr_dynconv"]}


def test_two_runs_give_the_same_bytes_and_compare_finds_a_change(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        same_bytes.run(cli.run, str(out), size=8, configs=CONFIG)
    logs = sorted(p.name for p in (a / "log").iterdir())
    assert logs == ["00-corpus-gen-data.json"] + [
        f"{k:02d}-adr_dynconv-{c}.json" for k, c in enumerate(
            ["train", "probe", "dmr", "dmr-selectors", "degrade-score", "gradcheck",
             "ablate"], 1)] + [
        f"{k:02d}-refused-{c}.json" for k, c in enumerate(
            ["steps-train", "lr-train", "widths-train", "adr_d_k-train", "adr_key-train",
             "dynconv_k-train", "grid-ablate"], 8)]
    train = json.loads((a / "log" / logs[1]).read_text())
    assert train["exit"] == 0 and train["stdout"].startswith("trained 30 steps")
    for name in ("model.bin", "model.json", "model.loss.csv", "probe.csv", "dmr.json",
                 "degrade.json", "ablate.csv"):
        assert (a / "adr_dynconv" / name).is_file(), name
    capsys.readouterr()
    assert same_bytes.compare(str(a), str(b)) == 0
    assert capsys.readouterr().out == f"same bytes: {len(same_bytes.digests(str(a)))} files\n"

    csv = b / "adr_dynconv" / "probe.csv"
    kept = csv.read_bytes()
    csv.write_bytes(kept.replace(b"\r\n", b"\n", 1))
    assert same_bytes.compare(str(a), str(b)) == 1
    assert capsys.readouterr().out == "adr_dynconv/probe.csv: bytes differ\n"
    csv.write_bytes(kept)
    (b / "log" / logs[0]).unlink()
    assert same_bytes.compare(str(a), str(b)) == 1
    assert capsys.readouterr().out == f"log/{logs[0]}: only in {a}\n"
