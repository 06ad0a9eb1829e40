"""Pinned bytes of the cost-model data files.

The benchmark pins the sha256 of `energy --all`, `chunking --all` and
`requirements --all` at their default flags (perfbench/expected.json). The
variants here cover what those do not: the future profile and a custom
baseline, a --profile file (with an integer-valued cost, written as "0", not
"0.0") under a constant and a table policy, chunking memories below, at and
above param_count (resident, k = 1 and k > 1), several batches, a free DRAM,
and a small --core-size. The digests were captured under SOURCE_DATE_EPOCH
and every variant runs in one process, so a memo that shared a priced model
between profiles or policies would change a digest here.
"""
import hashlib
import json

import pytest

from photonsim.cli import main

TINY = {"name": "tiny", "n": 8, "d": 16, "h": 2, "L": 2}  # param_count 6144, 3072 a layer
INPUTS = {
    "TINY": TINY,
    "PROFILE": {"e_dac": 5e-12, "e_adc": 1.5e-12, "e_maintain": 0, "input_bits": 6},
    "CONSTANT": {"scaling": "constant", "reference_photons_per_mac": 1000},
    "TABLE": {"scaling": "table", "table": {"16": 250.5, "64": 90.0}},
}

GOLDEN = {
    "energy-all-future-baseline": (
        ["energy", "--all", "--future", "--baseline", "1e-13"],
        {"energy.csv": "c0c79f90949e3667ff5b316f7f2c322334a11ea7079dc1f2386b5dcd4389ecfd",
         "energy.json": "208253b6f6a50af39868e2adcc1d38a16afad29c817c0b80e360bad37ac1cdca",
         "energy_summary.csv": "a8d2ac8e4f7312dc993e67c997aec3e09fb143c5f5c7d9394dad4dd9f1f74677"}),
    "energy-profile-constant": (
        ["energy", "--config", "TINY", "--profile", "PROFILE", "--policy", "CONSTANT"],
        {"energy.csv": "5fb1e7061d69f57b33a3ae104280fbc32336e32678461099b84c74ab222fd2e3",
         "energy.json": "e8e397b534a475f074cffa56efb309089d6323ac8072edd73fc507494b3ae1f7",
         "energy_summary.csv": "6f8100b65e5476c85ee8ada60c6d602259b0bf27779c2536a3a8e80f9ed782ef"}),
    "energy-profile-table": (
        ["energy", "--config", "TINY", "--profile", "PROFILE", "--policy", "TABLE"],
        {"energy.csv": "a571b4a0119612138c4ca3c24db9067506ba55521486f85863218573b9cee5e9",
         "energy.json": "9aebe823669c060407e3e3d41c902ed42dbdcd6486c70b80ce3c227978e8da92",
         "energy_summary.csv": "6f22df37d6dd12056ec6beb017acea728c182778cda8c9618e2949dcdd0992cb"}),
    "energy-table": (
        ["energy", "--config", "TINY", "--policy", "TABLE"],
        {"energy.csv": "a59c5f1bcfb9b50686824d6a2ed126d059104e0e02b9458c3713b5a8a1cbeef2",
         "energy.json": "9f003cdc8ba1c2b1c5c215843a3907bbe1ebb91670bd9565215df3ab44376d6f",
         "energy_summary.csv": "7ce072196af1677f9cae600297b3af77c296aa6ea1ddb3aff78ba065db895794"}),
    "chunking-memories": (
        ["chunking", "--config", "TINY", "--memory", "1000,2000,3072,5000,6144,1e9",
         "--batch", "1,3", "--dram-j-per-bit", "0"],
        {"chunking.csv": "a1343db020b539fa6321fe0acd8568a328af4adac1a2a507e21c17843f4d7e6d",
         "chunking.json": "899b621d11a4444fff1a6caef92cbf5adecb425f7f5ce93294ca3fd9a11aa18f"}),
    "chunking-profile-constant": (
        ["chunking", "--config", "TINY", "--profile", "PROFILE", "--policy", "CONSTANT",
         "--memory", "1000,6144", "--batch", "1,3"],
        {"chunking.csv": "e5d0615de3cfbccb81bb46353d243f1643d694a017f0d16d16f85df5cf559b0c",
         "chunking.json": "8c17ee6b97779f534a16f32c8d09bc910eb99da6574cedc42a0a0208059175fd"}),
    "requirements-all-core-size": (
        ["requirements", "--all", "--core-size", "1e5"],
        {"requirements.csv": "025eb0344f788f52455299d05e1a968a840b13394227bc626fadb83e146d4e78",
         "requirements.json": "2758abe2c3eb3677d725826e2fa153a30d5926843cc3323e9e05d7e01fe41336"}),
}


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("PHOTONSIM_CATALOGUE", raising=False)


def data_digests(tmp_path, argv: list[str]) -> dict[str, str]:
    """Run `argv`, its placeholders replaced by written input files, and
    return the sha256 of each data file its manifest lists."""
    for placeholder, doc in INPUTS.items():
        path = tmp_path / f"{placeholder.lower()}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(path) if arg == placeholder else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text(encoding="utf-8"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in manifest["outputs"]}


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_cost_model_bytes_are_pinned(tmp_path, capsys, variant):
    argv, digests = GOLDEN[variant]
    assert data_digests(tmp_path, argv) == digests
