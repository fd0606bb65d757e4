"""Golden artifact bytes: every byte-contracted file of a short sweep is pinned.

The digests were recorded before any optimisation of the step loop, so a
refactor or speed-up that changes one float, one row or one key shows up
here as a digest mismatch.  Re-record only for a change that is meant to
alter the artifacts, and say so where the change is described.

The config covers all four agent kinds, both seasons (3000 + 1000 steps
against a period of 500) and dozens of deaths per run, plus the blanket
verifier at its quick 4000 steps.
"""

import copy
import hashlib

from interoai.harness.config import parse_config
from interoai.harness.runner import sweep, verify_blanket

from conftest import quick_config_doc

GOLDEN = {
    "ExternalRewardQ/log_seed0.csv": "20c99ecaf12a1f29ca53f9ca3177b58e4178a2029a5f26792034bbcd1fd047f1",
    "ExternalRewardQ/log_seed1.csv": "1b7caa91e677438c4e34da2d6cebafd81508114e5f58892f8bfaa4b5dd80b4fb",
    "ExternalRewardQ/metrics.csv": "291d373fbfedb73e5dfda98185015f73d3a8083c6d80d7d15fb6f1d1455a18c5",
    "HomeostaticQ/log_seed0.csv": "de15035e2ac5188fb14ba171e8e98bebc879e8a8251a56886b18892fae209fcb",
    "HomeostaticQ/log_seed1.csv": "d01d5223c46ddff4629ba2be614c4e8a1a2535650b9cf80b36c70912a3eb11cb",
    "HomeostaticQ/metrics.csv": "b2b0ba0480a7995ee29f09d8cdcaef5ac07002c9d72609b378419b9571a75bda",
    "Neuromod/log_seed0.csv": "fdb0a3dba8a0ab51c08a8c4dc8dd1e55d284ccd61e88741914cb1bb127712db4",
    "Neuromod/log_seed1.csv": "5b2991cdec0cade98657507e0114025176a1788ec3f4c5d8cdbc471deac74489",
    "Neuromod/metrics.csv": "ea37184b28beef74b341fa86ae87ac47e601f4b1d4e4f4441ce73b1117757569",
    "Random/log_seed0.csv": "428b393d385666b73bc7a58ab0d87ca5d5359d8d2d1a8d2c507689c3efa289eb",
    "Random/log_seed1.csv": "918215308832cebf06dbdd69792872aad2d7273c9eb5f463947470ab199875b1",
    "Random/metrics.csv": "4961e655c086b64b8dff3cdd66a322331d1422597061184abc88982ca69367fc",
    "blanket/blanket.json": "4b15afb5c2b74f97becad94e53f7075aa68f2e921c0d81e06d4e85f05bb4f4ef",
}


def test_artifact_bytes_match_golden_digests(tmp_path):
    doc = quick_config_doc(train_steps=3000, eval_steps=1000, seeds=[0, 1])
    for kind in ("Random", "ExternalRewardQ", "HomeostaticQ", "Neuromod"):
        kind_doc = copy.deepcopy(doc)
        kind_doc["agent"]["kind"] = kind
        sweep(parse_config(kind_doc), str(tmp_path / kind))
    verify_blanket(parse_config(doc), str(tmp_path / "blanket"))
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == GOLDEN
