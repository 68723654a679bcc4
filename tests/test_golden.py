"""Golden-output regression: one digest per end-to-end run of a grid, and
one over a dense detection point.

Every profile runs with no adversary and with each behaviour bound to
operators [6, 7] (static and rotating) and to no operators at all. The
artifacts, the transcript, the signed approvals, the verdicts and the
ledger export of each run feed one sha256, so any change to a protocol,
the adversary library, the ledger or an artifact writer shows up here.
GOLDEN_RUNS keeps these per run, keyed by profile and adversary, and
GOLDEN_DIGEST chains the table in grid order, so a stale table cannot pass.
`PYTHONPATH=src python tests/test_golden.py` prints the table as the code
stands, so a deliberate re-record can be reviewed row by row.

The exact profile rejects a rotating adversary as a configuration error
(Dolev-Strong agreement holds only for a fixed faulty set), and a run that
fails hashes its error message in place of the outputs.

The detection digest covers `detected` and `rate` of three density-30 sensor
fields (about 1.5M sensors each) against 2,000 incidents, so the sensor draw
and every step of the detection filter are pinned bit for bit.
"""

import hashlib

import numpy as np

from leobft import geo, ledger, netsim, pipeline
from leobft.pipeline import PropertyViolation
from leobft.scenario import PROFILES, ConfigError, parse_scenario

GOLDEN_DIGEST = "fa2269dfedc6922e0632c3d8712587cd375ad40e1a986f0c5da4ba8ac4873e82"
DETECTION_DIGEST = "c19db8c8e161d1585176a6168728f95ac6ac51633abdf5c86952232081b29caf"

ADVERSARIES = [None] + [
    {"behavior": behavior, "operators": ops, "rotate": rotate}
    for behavior in netsim.BEHAVIORS
    for ops, rotate in (([6, 7], False), ([6, 7], True), ([], False))
]


def scenario(profile, adversary):
    cfg = {
        "profile": profile,
        "seed": 2024,
        "record_transcript": True,
        "network": {
            "operators": 7, "max_faulty": 2, "epsilon": 0.05,
            "zeta": 0.1, "alpha": 0.5, "rssi_threshold": 0.5,
        },
        "tensor": {"regions": 2, "subbands": 2, "period": 1},
        "events": [
            {"region": 0, "subband": 1, "operator": 2, "truth": 0.8},
            {"region": 1, "subband": 0, "operator": 5, "truth": 0.2},
            {"region": 1, "subband": 1, "operator": 7, "truth": 0.55},
        ],
    }
    if adversary is not None:
        cfg["adversary"] = adversary
    return parse_scenario(cfg)


def run_digest(profile, adversary) -> bytes:
    try:
        result = pipeline.run_scenario(scenario(profile, adversary))
    except PropertyViolation as err:
        return ("violation: %s" % err).encode()
    except ConfigError as err:
        return ("config error: %s" % err).encode()
    parts = [
        pipeline.results_csv(result),
        pipeline.bytes_csv(result),
        pipeline.retrieval_csv(result),
        pipeline.summary_text(result),
        repr(result.transcript),
        repr(result.commit.votes_emitted),
        repr(result.ledger.verdicts),
    ]
    return "\n".join(parts).encode() + ledger.export_chain(result.ledger)


def label(adversary) -> str:
    """A grid row's key: "none", or the behaviour, then "static" or "rotating",
    then the controlled ids."""
    if adversary is None:
        return "none"
    return "%s %s %s" % (adversary["behavior"], "rotating" if adversary["rotate"] else "static",
                         ",".join(map(str, adversary["operators"])) or "-")


def grid():
    return [((profile, label(adversary)), adversary)
            for profile in PROFILES for adversary in ADVERSARIES]


def chained(digests) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(bytes.fromhex(digest))
    return h.hexdigest()


def test_golden_table_chains_to_digest():
    # a stale table, or a re-ordered or partial one, cannot pass
    assert list(GOLDEN_RUNS) == [key for key, _ in grid()]
    assert chained(GOLDEN_RUNS.values()) == GOLDEN_DIGEST


def test_golden_grid_digest():
    got = {key: hashlib.sha256(run_digest(key[0], adversary)).hexdigest()
           for key, adversary in grid()}
    assert got == GOLDEN_RUNS


def test_dense_detection_digest():
    fields = {op: geo.deploy_poisson(30.0 / 1e4, np.random.default_rng(1000 + op))
              for op in (1, 2, 3)}
    incidents = geo.sphere_points(2000, np.random.default_rng(2000))
    sample = geo.simulate_detection(fields, incidents)
    digest = hashlib.sha256(sample.detected.tobytes() + repr(sample.rate).encode())
    assert digest.hexdigest() == DETECTION_DIGEST


# sha256 of run_digest per grid row, in grid order; GOLDEN_DIGEST chains them
GOLDEN_RUNS = {
    ("binary", "none"):
        "95242c4a43301bc3887eb3b41ce8e275b1c5f4698dfc875a88365dd23da8b898",
    ("binary", "crash static 6,7"):
        "3172e6c7f137205cd0e270d83968c15b87199ccebf95a33b6f734ada3360b7a4",
    ("binary", "crash rotating 6,7"):
        "ec3f2effc9105e08609520c909e2b090cb822d3fb60ae511412d40c397814f91",
    ("binary", "crash static -"):
        "73e3bdccd4eafbaa0460e9d5f66f7b9d6f59bcb07b9036656d451ecf33f8f2fb",
    ("binary", "equivocate static 6,7"):
        "9613cef58fd25a5956cff08d53b023ec6f1be3e264a0931ab7aad9d03faf7483",
    ("binary", "equivocate rotating 6,7"):
        "2f68bbcdb1f284f3d1823b381e8107ff418cbe1bd883f2fc4a0a71937774375d",
    ("binary", "equivocate static -"):
        "07149961b94f9d6d6c0ec9a60cee0e9314ab0d75a7542753732c0addcbfd98ed",
    ("binary", "random-values static 6,7"):
        "f9de997216ab05625cc6a7e7b7be6d192afdf77b51c31b2142f45e3e6e084133",
    ("binary", "random-values rotating 6,7"):
        "34283e5d999c061e229da93653c5c28507c1a8ba872306c66f0b265509e07b34",
    ("binary", "random-values static -"):
        "64f6d179a25955edf993d46f596d762c4dadec2b1de86437a4ffab0fc15527a8",
    ("binary", "value-liar static 6,7"):
        "4debfed5f3c08943f1e849637bc85dc5d3cb646981238b89ec5ad8412bb8161e",
    ("binary", "value-liar rotating 6,7"):
        "06e281790cc1bd35f23fa2fe9e8cbd49250ba6f0144b845c93a366dc2f4f2f94",
    ("binary", "value-liar static -"):
        "ccbcea796ee6db1907e8f40695a41a34ee807834dd3a10ce971c444e683028d0",
    ("binary", "boundary-attacker static 6,7"):
        "e729c1b20ae8accb85f0df42a64bab7f7546e4c0980f8fb5ee37abacf6c7caea",
    ("binary", "boundary-attacker rotating 6,7"):
        "cfef2ec971126eb1c753ca657038e1498ef91c462cdb86a4261b14546fe6fb5f",
    ("binary", "boundary-attacker static -"):
        "22f8a52e38227de9339096cb4428f50b71946f8c3a10d115a6a5d7b4a41af94c",
    ("binary", "bad-proposer static 6,7"):
        "eb5514827a9bc12443fa067d2d6753124e2a2eab02a706f2dd555437f71a944a",
    ("binary", "bad-proposer rotating 6,7"):
        "eb5514827a9bc12443fa067d2d6753124e2a2eab02a706f2dd555437f71a944a",
    ("binary", "bad-proposer static -"):
        "eb5514827a9bc12443fa067d2d6753124e2a2eab02a706f2dd555437f71a944a",
    ("exact", "none"):
        "b41abbe95dbc2d12e3b760478d7a5480f1203a9e2120244dd266f5aacb96e664",
    ("exact", "crash static 6,7"):
        "bec632f03388a3694b79717ae242b7457842aef2aea020e2ff1ec68bd6822588",
    ("exact", "crash rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "crash static -"):
        "398e50c47bfb16e64adf5de8519ece4045c2a4268c4864734b00ad37d5809fd9",
    ("exact", "equivocate static 6,7"):
        "3ef2d68de7249f8a9b86e3fe46fa8c75f6a351dcb3b00455cf09ce7b6f38111a",
    ("exact", "equivocate rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "equivocate static -"):
        "dbcc384012fd4de3a3ec3877024fcaf25baffcb2ae42c9847bc8994cb7b3a3bb",
    ("exact", "random-values static 6,7"):
        "16f52b7d8138ca0c85b6a0d8b6be619e54fa15707b8774fd64bc80fe1ec48c5e",
    ("exact", "random-values rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "random-values static -"):
        "f1f21e9d0a71b96a4e17970363d55413e7ec2ef1a40056654fc9dc4a147204b6",
    ("exact", "value-liar static 6,7"):
        "f73499538c7f68161fcd66f9f13d649e262ba4b15d549b9403cd09c508511e8f",
    ("exact", "value-liar rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "value-liar static -"):
        "1cefc68f255f65c7ae16bfde6706afeaffc68da6022ef5c29c11c271561b8ee6",
    ("exact", "boundary-attacker static 6,7"):
        "41ba71ff15c281916af7bee8eb7721a25460df09020194538af4dc8b22e872e6",
    ("exact", "boundary-attacker rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "boundary-attacker static -"):
        "69ecfda1773515b008075b89c6dd6949fbe0965e955bcc88aed07c9706535cf9",
    ("exact", "bad-proposer static 6,7"):
        "513159d6b17448ba009b45486f283fd3616aad0e4f178b96b6d074706b3779ef",
    ("exact", "bad-proposer rotating 6,7"):
        "219b0267d6d79f3f13e0efd75b92fa08b424f7006e2bb9bf8fb0e8b99290f657",
    ("exact", "bad-proposer static -"):
        "513159d6b17448ba009b45486f283fd3616aad0e4f178b96b6d074706b3779ef",
    ("approx", "none"):
        "00b345121b1129acebca717e9cf9e6a98266814d05fd8ea6eb3d01f05382c151",
    ("approx", "crash static 6,7"):
        "23612feb43fcf7f30e0989823ca870b270151acf9728accbead0e513bd83a231",
    ("approx", "crash rotating 6,7"):
        "3b911aaa72dd2723ab805b84f3f744599849232dd5b024e5922139c2f9f9209a",
    ("approx", "crash static -"):
        "33e8bd43a296e10c673493a5ab10118f47e57fffbcc87de2b31018eee15b6012",
    ("approx", "equivocate static 6,7"):
        "b4317848a3167f97466143efa82ec31be3ee4d010aed301078fcf72faeaeddea",
    ("approx", "equivocate rotating 6,7"):
        "13510e9a672f20ed5ff722d45c92a6534871a972650178d3685d61138c14f720",
    ("approx", "equivocate static -"):
        "aa42a3aad7ec9095613af32f4947fa49ed21a6ed357633f2209401159f800cae",
    ("approx", "random-values static 6,7"):
        "56b61e5c8220cdc3e1aa655eee870a4688ebd228899d4b63a36e2ffc81193213",
    ("approx", "random-values rotating 6,7"):
        "4d22937ad9c0571a1e5be2d08e5142eb93b1be91843d37eb7daa42fde66b308e",
    ("approx", "random-values static -"):
        "e15f5cb436bf03bb6d7e7c189ffaf78f667659a6da11ef90996c755b17bc7c44",
    ("approx", "value-liar static 6,7"):
        "d46c1282c05799d70eeeb1f1accabfe6a7b5ede1db4dba4a442bc6a14bd3e77f",
    ("approx", "value-liar rotating 6,7"):
        "784b97d75676990789aca9d2b875b6018ce849790c14ae7551a948fd46d8bf07",
    ("approx", "value-liar static -"):
        "96e6a2515ad754e471dc32467916adc2917ab882b098996d87b28b69cc060952",
    ("approx", "boundary-attacker static 6,7"):
        "b1713f9a49ac565863d29d916ec51686c535a41a040da7fa86f3a527d0038e77",
    ("approx", "boundary-attacker rotating 6,7"):
        "8974ccd27f8309ecefef0f770c63c746054528a27120dbf347adb22345b46625",
    ("approx", "boundary-attacker static -"):
        "ecd154e1381d6861a0f56e7ad3e0e42ea2c0b6d3aa41febed9f8b0723dc3b6ec",
    ("approx", "bad-proposer static 6,7"):
        "4c8f450f50c504e77d9360acc41ab7601ff39fe4b82e5a44569963ae0774a3cb",
    ("approx", "bad-proposer rotating 6,7"):
        "4c8f450f50c504e77d9360acc41ab7601ff39fe4b82e5a44569963ae0774a3cb",
    ("approx", "bad-proposer static -"):
        "4c8f450f50c504e77d9360acc41ab7601ff39fe4b82e5a44569963ae0774a3cb",
}


if __name__ == "__main__":
    # print the table as it stands, to paste over GOLDEN_RUNS after a deliberate
    # change of behaviour: PYTHONPATH=src python tests/test_golden.py
    runs = {key: hashlib.sha256(run_digest(key[0], adversary)).hexdigest()
            for key, adversary in grid()}
    print('GOLDEN_DIGEST = "%s"' % chained(runs.values()))
    print("GOLDEN_RUNS = {")
    for key, digest in runs.items():
        print('    ("%s", "%s"):\n        "%s",' % (*key, digest))
    print("}")
