"""The benchmark's output checks must catch a wrong answer.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from chaos_replay import GOLDEN_DIR, check_artifact, check_trial  # noqa: E402
from live_stack import (  # noqa: E402
    check_accounting,
    check_signature,
    check_sts,
    crypto_oracle,
)
from route_waves import (  # noqa: E402
    Part,
    PartSpec,
    check_wave,
    make_wave,
    route,
)
from tracer import Probe, Tracer  # noqa: E402

import numpy as np  # noqa: E402

from repro.crypto.signatures import SigningKey, VerifyKey  # noqa: E402
from repro.crypto.sts import Responder, SessionKey  # noqa: E402
from repro.experiments.chaos_availability import (  # noqa: E402
    ChaosScenario,
    run_chaos_availability,
)
from repro.sim.emulation import EmulationStats  # noqa: E402


@pytest.fixture(scope="module")
def routed():
    part = Part(PartSpec("check", "oneweb", waves=1, packets=300))
    wave = make_wave(part, np.random.default_rng(5))
    return part, wave


def test_route_check_passes_on_the_real_answer(routed):
    part, wave = routed
    result = route(part, wave)
    assert result.fallback.any()  # the sample covers scalar fallbacks too
    assert check_wave(part.reference, wave, result, range(len(result))) == []


def test_route_check_catches_one_corrupted_delay(routed):
    part, wave = routed
    result = route(part, wave)
    result.delay_s[7] = np.nextafter(result.delay_s[7], 1.0)
    assert len(check_wave(part.reference, wave, result,
                          range(len(result)))) == 1


def test_route_check_catches_one_corrupted_path(routed):
    part, wave = routed
    result = route(part, wave)
    i = int(np.nonzero(result.path_len > 2)[0][0])
    paths = result.path_buffer
    paths[i, 1] = (paths[i, 1] + 1) % part.constellation.total_satellites
    assert len(check_wave(part.reference, wave, result,
                          range(len(result)))) == 1


def test_artifact_check_catches_one_changed_byte():
    golden = (GOLDEN_DIR / "ground-outage.json").read_bytes()
    assert check_artifact(golden, golden) == []
    changed = bytearray(golden)
    changed[len(changed) // 2] ^= 0x01
    assert check_artifact(bytes(changed), golden)


def test_trial_invariants_hold_and_catch_bad_accounting():
    result = run_chaos_availability(scenario=ChaosScenario(
        seed=3, n_ues=4, horizon_s=600.0))
    assert check_trial(result) == []
    result.spacecore_lost = result.n_sessions + 1
    assert check_trial(result)


def test_crypto_oracle_passes_on_the_real_stack():
    assert crypto_oracle(0) == []
    assert crypto_oracle(1) == []


def test_oracle_catches_a_bad_signature_that_is_accepted(monkeypatch):
    monkeypatch.setattr(VerifyKey, "verify", lambda self, m, s: True)
    assert any("accepted" in msg for msg in crypto_oracle(0))


def test_oracle_catches_a_wrong_sts_key(monkeypatch):
    respond = Responder.respond

    def wrong_key(self, hello):
        reply, key = respond(self, hello)
        return reply, SessionKey(bytes(32), key.initiator_exponential,
                                 key.responder_exponential)

    monkeypatch.setattr(Responder, "respond", wrong_key)
    assert crypto_oracle(0) == ["STS keys differ"]


def test_unit_checks_reject_wrong_answers():
    key = SigningKey(12345)
    message = b"state"
    assert check_signature(key.public.verify, message,
                           key.sign(message)) == []
    assert check_signature(lambda m, s: True, message, key.sign(message))
    assert check_sts(b"k", b"k") == []
    assert check_sts(b"k", b"K")
    assert check_accounting(EmulationStats(sessions_attempted=3,
                                           sessions_established=2,
                                           fallbacks=1)) == []
    assert check_accounting(EmulationStats(sessions_attempted=3,
                                           sessions_established=2))


def test_tracer_counts_spans_and_restores_originals():
    module = types.ModuleType("probed")

    def leaf():
        return 1

    def outer():
        return module.leaf() + module.leaf()

    module.leaf, module.outer = leaf, outer
    probes = [Probe("outer", "g", module, "outer"),
              Probe("leaf", "h", module, "leaf")]
    sys.modules["probed"] = module
    try:
        for timed in (False, True):
            tracer = Tracer(probes, timed=timed)
            with tracer.installed():
                assert module.outer() == 2
                with tracer.paused():
                    module.outer()
            assert tracer.calls() == {"outer": 1, "leaf": 2}
            assert module.outer is outer and module.leaf is leaf
        outer_stat, leaf_stat = tracer.stats["outer"], tracer.stats["leaf"]
        assert outer_stat.self_s <= outer_stat.outer_s
        assert (outer_stat.outer_s - outer_stat.self_s
                == pytest.approx(leaf_stat.outer_s))
    finally:
        del sys.modules["probed"]
