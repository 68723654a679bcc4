"""Golden-output regression: one digest over a grid of end-to-end runs.

Every profile runs with no adversary and with each behaviour bound to
operators [6, 7] (static and rotating) and to no operators at all. The
artifacts, the transcript, the signed approvals, the verdicts and the
ledger export of every run feed one sha256, so any change to a protocol,
the adversary library, the ledger or an artifact writer shows up here.

Exact agreement under a rotating adversary raises PropertyViolation by
design (it corrupts more than f operators over the f+1 rounds); its
message is hashed in place of the outputs.
"""

import hashlib

from leobft import ledger, netsim, pipeline
from leobft.pipeline import PropertyViolation
from leobft.scenario import PROFILES, parse_scenario

GOLDEN_DIGEST = "67eab9c48af92bc62c33269cf1dfc80ad452b0b55579bc3dd0a16c73b7101b3c"

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


def test_golden_grid_digest():
    h = hashlib.sha256()
    for profile in PROFILES:
        for adversary in ADVERSARIES:
            h.update(hashlib.sha256(run_digest(profile, adversary)).digest())
    assert h.hexdigest() == GOLDEN_DIGEST
