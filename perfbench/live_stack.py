"""live-stack: a 20-UE Starlink neighbourhood on the live SpaceCore stack.

Each round builds a ``NeighborhoodEmulation`` (seeded UE placement,
every UE provisioned and registered) and runs it over ``HORIZON_S``
simulated seconds: session arrivals, inactivity releases, usage reports
and pass handovers, all through the real crypto (STS key agreement,
Schnorr signatures, ABE).  The rate is sessions established per
wall-clock second of ``run``; building the emulation is not timed.

The outputs -- sessions, fallbacks, messages -- are the simulated
system's, so they are checked for accounting, not against constants.
The crypto the stack runs on is checked against an oracle on seeded
inputs once per run.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import List

from repro.crypto import abe
from repro.crypto.access_tree import and_, attr
from repro.crypto.group import SCHNORR_GROUP
from repro.crypto.signatures import SigningKey, issue_certificate
from repro.crypto.sts import agree
from repro.orbits import starlink
from repro.runtime.parallel import seed_for
from repro.sim.emulation import EmulationStats, NeighborhoodEmulation

from common import RoundOutcome, Workload, timed

NUM_UES = 20
HORIZON_S = 600.0


def build(seed: int, index: int) -> NeighborhoodEmulation:
    return NeighborhoodEmulation(starlink(), num_ues=NUM_UES,
                                 seed=seed_for(seed, f"live-stack:{index}"))


def check_accounting(stats: EmulationStats) -> List[str]:
    """Every attempted session either established or fell back."""
    if stats.sessions_established + stats.fallbacks != stats.sessions_attempted:
        return [f"{stats.sessions_established} established + "
                f"{stats.fallbacks} fallbacks != "
                f"{stats.sessions_attempted} attempted"]
    return []


def check_sts(ue_key: bytes, satellite_key: bytes) -> List[str]:
    """Both sides of Algorithm 2 must derive the same session key."""
    return [] if ue_key == satellite_key else ["STS keys differ"]


def check_signature(verify, message: bytes, signature) -> List[str]:
    """A valid signature verifies; tampered message or response do not."""
    e, s = signature
    bad = []
    if not verify(message, signature):
        bad.append("valid Schnorr signature rejected")
    if verify(message + b"!", signature):
        bad.append("signature accepted on a tampered message")
    if verify(message, (e, (s + 1) % SCHNORR_GROUP.q)):
        bad.append("tampered Schnorr signature accepted")
    return bad


def crypto_oracle(seed: int) -> List[str]:
    """The stack's crypto against independent arithmetic, seeded inputs."""
    rng = random.Random(seed_for(seed, "live-stack:oracle"))
    group = SCHNORR_GROUP
    bad = []
    for _ in range(4):
        k = group.random_scalar(rng)
        if group.generate(k) != pow(group.g, k, group.p):
            bad.append(f"generate({k}) != pow(g, k, p)")
        base = group.generate(group.random_scalar(rng))
        if group.power(base, k) != pow(base, k, group.p):
            bad.append("power(b, k) != pow(b, k, p)")

    home = SigningKey(group.random_scalar(rng))
    satellite = SigningKey(group.random_scalar(rng))
    message = rng.randbytes(48)
    bad += check_signature(home.public.verify, message, home.sign(message))

    certificate = issue_certificate("home", home, "sat", satellite.public)
    ue_key, sat_key = agree(home.public, certificate, satellite, rng=rng)
    bad += check_sts(ue_key.key, sat_key.key)

    _, master = abe.setup(rng.randbytes(32))
    plaintext = rng.randbytes(64)
    ciphertext = abe.encrypt(master, plaintext, and_(attr("sat"),
                                                     attr("home-plmn")))
    if abe.decrypt(abe.keygen(master, ["sat", "home-plmn"]),
                   ciphertext) != plaintext:
        bad.append("ABE decrypt under a satisfying key lost the plaintext")
    try:
        abe.decrypt(abe.keygen(master, ["sat"]), ciphertext)
        bad.append("ABE decrypted under a key that misses the policy")
    except abe.AbeDecryptionError:
        pass
    return bad


class LiveStack(Workload):
    name = "live-stack"
    predicted_zeros = ("topology.grid.snapshot_graph_calls",)

    def setup(self, seed: int) -> NeighborhoodEmulation:
        return build(seed, 0)

    def round(self, first: NeighborhoodEmulation, seed: int, index: int,
              paused) -> RoundOutcome:
        outcome = RoundOutcome()
        emulation = first if index == 0 else build(seed, index)
        stats = emulation.stats
        try:
            with timed() as clock:
                emulation.run(HORIZON_S)
            outcome.op_s, outcome.wall_s = clock.seconds, clock.wall_s
            bad = check_accounting(stats)
        except Exception as exc:  # noqa: BLE001 -- counted, reported
            bad = [f"{type(exc).__name__}: {exc}"]
        outcome.attempted = max(1, stats.sessions_attempted)
        if bad:
            outcome.fail(f"round {index}", bad, ops=outcome.attempted)
        outcome.counts = dict(asdict(stats),
                              bus_messages=emulation.system.bus.count(),
                              sim_events=emulation.sim.events_processed)
        outcome.rate = (stats.sessions_established / outcome.op_s
                        if outcome.op_s else 0.0)
        return outcome

    def checks(self, seed: int) -> List[str]:
        return crypto_oracle(seed)
