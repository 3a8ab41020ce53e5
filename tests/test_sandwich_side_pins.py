"""sha256 stream pins for one-sided exact sandwiches and extrema lanes.

``EXACT_PIN`` in ``test_push_sum_pins.py`` runs a two-sided sandwich
(φ = 0.3).  The runs here aim at φ near 0 and 1, where one side of the
Step-3 sandwich falls off the distribution and only the other side runs,
plus φ = 0 and φ = 1 themselves; each is pinned failure-free and under
μ = 0.3 node failures, on the vectorized engine at n = 2000 and at
n = 512.  The extrema pins cover min and max spreading and a two-lane
min/max spreading, with and without failures, on the vectorized engine
and on the asyncio engine over in-process channels, and the live
backend's quantile query (tournaments, then a push-sum count of the
answer).  Each digest
covers the per-node outputs (or the per-iteration history and both retry
counters), the rounds and the metrics summary.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.aggregates.extrema import spread_extrema
from repro.core.exact_quantile import exact_quantile
from repro.gossip.env import GossipEnv
from repro.net import net_approximate_quantile
from repro.utils.rand import RandomSource


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _env(engine, mu):
    return GossipEnv(engine=engine, failure_model=mu if mu > 0 else None)


# ---- one-sided exact sandwiches ---------------------------------------------

# Re-pinned deliberately when the tournaments moved onto the gossip engines
# (per-round partner draws, own-value failed pulls, a child stream for the
# δ coin): every exact answer is unchanged; the digests and the rounds of
# the history move with the sandwich estimates.  Old → new (digest /
# rounds), φ/μ:
#   side 0.0/0.0: 4a32bf6a45b19a72 / 354 → 4293f27d0265f3dd / 380
#   side 0.0/0.3: c6b52af15f428cd8 / 484 → 6e5471b3d922e41e / 433
#   side 0.002/0.0: a3db5191cdbae6e6 / 382 → 564654cd6877131d / 362
#   side 0.002/0.3: 96c3cd86d02783e0 / 760 → 693b6def12709d80 / 444
#   side 0.998/0.0: 163106357b846528 / 337 → 2a11f7d832503bfa / 405
#   side 0.998/0.3: d31ee6348c72315b / 443 → cb6cd174afcd2ee1 / 447
#   side 1.0/0.0: 249b29d681d80a2a / 394 → 0a7b7fe0edbb04e6 / 331
#   side 1.0/0.3: e76df55d0242b4e2 / 412 → 144ba7d0f93c0d30 / 397
#   small 0.0/0.0: 662b9f1794b6b5a9 / 428 → f6c0ab5de3ef41a4 / 320
#   small 0.0/0.3: 8dab47c844e24487 / 524 → 4ccb994e4fab23a7 / 569
#   small 0.002/0.0: d8504e4f0a4c5add / 516 → eecf9a2c7dabacd4 / 337
#   small 0.002/0.3: 7794594b9676aa07 / 522 → 9075c3ef0f7b747a / 541
#   small 0.998/0.0: b250cb0db8d0ed9a / 309 → 216b0473981010f3 / 301
#   small 0.998/0.3: 021d47abfa9f04bc / 444 → f07f9bb1f62a3681 / 506
#   small 1.0/0.0: 94e3ca837437bf79 / 309 → 7ce28e89d0d8e9eb / 303
#   small 1.0/0.3: 371deba9c75779bb / 339 → 754f948f15fb1af6 / 476
#
# Re-pinned again when Step 5 began counting on count_rounds' budget
# (failure-free: 59 → 41 rounds per count at n = 2000, 51 → 36 at
# n = 512; under μ = 0.3: 59 → 64 and 51 → 56).  Every answer and every
# other phase is unchanged; the rounds move by the counting rounds alone.
# Old → new:
#   side 0.0/0.0: 4293f27d0265f3dd / 380 → d7529efa62d4a9c2 / 344
#   side 0.002/0.0: 564654cd6877131d / 362 → 6b883cca41ea6227 / 326
#   side 0.998/0.0: 2a11f7d832503bfa / 405 → 7e14a0faaf90f5d6 / 369
#   side 1.0/0.0: 0a7b7fe0edbb04e6 / 331 → b8448fb99132ae7b / 295
#   side 0.0/0.3: 6e5471b3d922e41e / 433 → 2f12b4de756a5ce6 / 443
#   side 0.002/0.3: 693b6def12709d80 / 444 → f42218ea6408583f / 454
#   side 0.998/0.3: cb6cd174afcd2ee1 / 447 → e7324032e121fa7c / 457
#   side 1.0/0.3: 144ba7d0f93c0d30 / 397 → f54297a5a28bc501 / 407
#   small 0.0/0.0: f6c0ab5de3ef41a4 / 320 → 9a7d4bb58aa42781 / 290
#   small 0.002/0.0: eecf9a2c7dabacd4 / 337 → 0f77d92e5fcbb790 / 307
#   small 0.998/0.0: 216b0473981010f3 / 301 → 92518b42d120ad6d / 271
#   small 1.0/0.0: 7ce28e89d0d8e9eb / 303 → d8e1f5cdf2728b7b / 273
#   small 0.0/0.3: 4ccb994e4fab23a7 / 569 → bbdaf4589db3cc81 / 584
#   small 0.002/0.3: 9075c3ef0f7b747a / 541 → ab7669e312f6e3ab / 556
#   small 0.998/0.3: f07f9bb1f62a3681 / 506 → 881f16497095fd94 / 521
#   small 1.0/0.3: 754f948f15fb1af6 / 476 → e9f06880c862e7a7 / 491
#
# Re-pinned again when Step 4 became one-round pull windows on
# spread_rounds' budget instead of push-pull with an oracle stop (28 rounds
# per spread at n = 2000 and 26 at n = 512 failure-free, 43 and 40 under
# μ = 0.3).  Every answer, every retry and every per-iteration field but
# ``rounds_so_far`` is unchanged; the rounds move by the spreads alone.
# Old → new:
#   side 0.0/0.0: d7529efa62d4a9c2 / 344 → 6bb86ade90cea2ab / 394
#   side 0.0/0.3: 2f12b4de756a5ce6 / 443 → 578aec873ea71e59 / 508
#   side 0.002/0.0: 6b883cca41ea6227 / 326 → 693cb4b14a7bc5a0 / 378
#   side 0.002/0.3: f42218ea6408583f / 454 → 9392af5b489a8fbd / 511
#   side 0.998/0.0: 7e14a0faaf90f5d6 / 369 → 5a50d98503276ce8 / 409
#   side 0.998/0.3: e7324032e121fa7c / 457 → 70c9c3da34de605a / 515
#   side 1.0/0.0: b8448fb99132ae7b / 295 → 415981cb9857d68b / 348
#   side 1.0/0.3: f54297a5a28bc501 / 407 → b56a360889213712 / 478
#   small 0.0/0.0: 9a7d4bb58aa42781 / 290 → b2df6dc8905243c1 / 333
#   small 0.0/0.3: bbdaf4589db3cc81 / 584 → c85d7c5dabdca6a6 / 706
#   small 0.002/0.0: 0f77d92e5fcbb790 / 307 → 9260fffd7411b1d3 / 357
#   small 0.002/0.3: ab7669e312f6e3ab / 556 → 9b6f824dc75c2129 / 650
#   small 0.998/0.0: 92518b42d120ad6d / 271 → f440a996e1c4e661 / 321
#   small 0.998/0.3: 881f16497095fd94 / 521 → 0671e2ea0903b052 / 616
#   small 1.0/0.0: d8e1f5cdf2728b7b / 273 → fb549d9067305f34 / 316
#   small 1.0/0.3: e9f06880c862e7a7 / 491 → be67630abbcb596c / 590
#
# Re-pinned again when the driver began gossiping the node values instead
# of rank keys.  Step 4 now always spreads two lanes (a side without a
# tournament lane spreads the nodes' own values), so in every one-sided
# iteration each Step-4 message carries one more 64-bit lane: only
# ``total_bits`` moves.  Value, rounds, history and retries are unchanged,
# except small 0.998/0.0: its second sandwich spreads min == max, so the
# driver answers there (the new lo == hi stop) with no count, no tokens
# and no final query: the same value in 223 rounds instead of 321, and the
# history loses iteration 2.  Small 1.0/0.3 stops the same way at its third
# sandwich (590 → 475 rounds, the history loses iteration 3): 211 of the
# 512 upper estimates there are +inf, above every held value, so those
# nodes spread their own values, and Step 4's max is the global max, which
# is the answer and also Step 4's min.  Old → new:
#   side 0.0/0.0: 6bb86ade90cea2ab / 394 → 4cf2bdf292ef2efe / 394
#   side 0.0/0.3: 578aec873ea71e59 / 508 → 97090ba444c8c077 / 508
#   side 0.002/0.0: 693cb4b14a7bc5a0 / 378 → ae06c6dd6d8570b5 / 378
#   side 0.002/0.3: 9392af5b489a8fbd / 511 → 920d62e8a7e8fff3 / 511
#   side 0.998/0.0: 5a50d98503276ce8 / 409 → 0989bd13da868d63 / 409
#   side 0.998/0.3: 70c9c3da34de605a / 515 → 45f55843ffed4932 / 515
#   side 1.0/0.0: 415981cb9857d68b / 348 → ccebe9eb1b03664b / 348
#   side 1.0/0.3: b56a360889213712 / 478 → 5c48bcb953f5e24d / 478
#   small 0.0/0.0: b2df6dc8905243c1 / 333 → a6115e837f852843 / 333
#   small 0.0/0.3: c85d7c5dabdca6a6 / 706 → 5c441cbc5ca9428e / 706
#   small 0.002/0.0: 9260fffd7411b1d3 / 357 → aed0550bd8793ad3 / 357
#   small 0.002/0.3: 9b6f824dc75c2129 / 650 → 7e7fe668855b9511 / 650
#   small 0.998/0.0: f440a996e1c4e661 / 321 → dcaa180c96b4bb3e / 223
#   small 0.998/0.3: 0671e2ea0903b052 / 616 → 14c668559fb1e078 / 616
#   small 1.0/0.0: fb549d9067305f34 / 316 → 713a269059c9ce27 / 316
#   small 1.0/0.3: be67630abbcb596c / 590 → 9326a123d6dbeda3 / 475

EXACT_SIDE_PINS = {
    ("vectorized", 0.0, 0.0): ("4cf2bdf292ef2efe", 0.2944940824465281, 394),
    ("vectorized", 0.0, 0.3): ("97090ba444c8c077", 0.2944940824465281, 508),
    ("vectorized", 0.002, 0.0): ("ae06c6dd6d8570b5", 1.5050135063167103, 378),
    ("vectorized", 0.002, 0.3): ("920d62e8a7e8fff3", 1.5050135063167103, 511),
    ("vectorized", 0.998, 0.0): ("0989bd13da868d63", 998.934366292964, 409),
    ("vectorized", 0.998, 0.3): ("45f55843ffed4932", 998.934366292964, 515),
    ("vectorized", 1.0, 0.0): ("ccebe9eb1b03664b", 999.9282631809398, 348),
    ("vectorized", 1.0, 0.3): ("5c48bcb953f5e24d", 999.9282631809398, 478),
}

# The vectorized engine on the small case's inputs (n = 512).  These
# values were first recorded on the per-node loop engine, which every
# exact-driver substrate matched bit for bit.
SMALL_CASE_VECTORIZED_PINS = {
    (0.0, 0.0): ("a6115e837f852843", 0.06693515352629298, 333),
    (0.0, 0.3): ("5c441cbc5ca9428e", 0.06693515352629298, 706),
    (0.002, 0.0): ("aed0550bd8793ad3", 0.2951516316959113, 357),
    (0.002, 0.3): ("7e7fe668855b9511", 0.2951516316959113, 650),
    (0.998, 0.0): ("dcaa180c96b4bb3e", 998.1379607722837, 223),
    (0.998, 0.3): ("14c668559fb1e078", 998.1379607722837, 616),
    (1.0, 0.0): ("713a269059c9ce27", 998.7113635876004, 316),
    (1.0, 0.3): ("9326a123d6dbeda3", 998.7113635876004, 475),
}

EXACT_CASES = {"vectorized": (2000, 47, 17), "small": (512, 48, 18)}


def _exact_side(case, engine, phi, mu):
    n, value_seed, run_seed = EXACT_CASES[case]
    values = RandomSource(value_seed).random(n) * 1000.0
    result = exact_quantile(values, phi=phi, rng=run_seed, env=_env(engine, mu))
    digest = _digest(
        [dataclasses.asdict(stats) for stats in result.history],
        result.sandwich_retries,
        result.final_retries,
        result.metrics.summary(),
    )
    return digest, result.value, result.rounds


@pytest.mark.parametrize("engine,phi,mu", sorted(EXACT_SIDE_PINS))
def test_one_sided_exact_quantile_pinned(engine, phi, mu):
    assert _exact_side(engine, engine, phi, mu) == EXACT_SIDE_PINS[engine, phi, mu]


@pytest.mark.parametrize("phi,mu", sorted(SMALL_CASE_VECTORIZED_PINS))
def test_one_sided_exact_quantile_small_case_vectorized_pinned(phi, mu):
    assert (
        _exact_side("small", "vectorized", phi, mu)
        == SMALL_CASE_VECTORIZED_PINS[phi, mu]
    )


# ---- extrema spreading ------------------------------------------------------

# Re-pinned when spread_extrema became one-round pull windows run for
# spread_rounds' budget (push-pull with an oracle stop before); the
# engines still agree.  Old → new (both engines):
#   max/0.0: f1952ce42ef6d22f → 67242d3ec7960a66
#   max/0.3: 0a78ce9367a1a216 → 45202c061de60889
#   min/0.0: cb7c1f0471d1df00 → e60c2a5f9574eabf
#   min/0.3: ee36d9a691493e90 → 6520d6041be77077
#   min-max/0.0: 4ef0d137cb6959a2 → 6606e736b935abdc
#   min-max/0.3: 5418e52bce810e92 → 3fccec84934001b4
EXTREMA_PINS = {
    ("min", "asyncio", 0.0): "e60c2a5f9574eabf",
    ("min", "asyncio", 0.3): "6520d6041be77077",
    ("min", "vectorized", 0.0): "e60c2a5f9574eabf",
    ("min", "vectorized", 0.3): "6520d6041be77077",
    ("max", "asyncio", 0.0): "67242d3ec7960a66",
    ("max", "asyncio", 0.3): "45202c061de60889",
    ("max", "vectorized", 0.0): "67242d3ec7960a66",
    ("max", "vectorized", 0.3): "45202c061de60889",
    ("min-max", "asyncio", 0.0): "6606e736b935abdc",
    ("min-max", "asyncio", 0.3): "3fccec84934001b4",
    ("min-max", "vectorized", 0.0): "6606e736b935abdc",
    ("min-max", "vectorized", 0.3): "3fccec84934001b4",
}


def _extrema(run, env):
    source = RandomSource(49)
    lo, hi = source.random(301) * 10.0, source.random(301) * 10.0
    if run == "min-max":
        result = spread_extrema(
            np.column_stack([lo, hi]), mode=("min", "max"), rng=19, env=env
        )
        return (
            result.values[:, 0], result.values[:, 1],
            result.rounds, result.metrics.summary(),
        )
    result = spread_extrema(lo, mode=run, rng=19, env=env)
    return result.values, result.rounds, result.metrics.summary()


@pytest.mark.parametrize("run,engine,mu", sorted(EXTREMA_PINS))
def test_extrema_streams_pinned(run, engine, mu):
    assert _digest(*_extrema(run, _env(engine, mu))) == EXTREMA_PINS[run, engine, mu]


# ---- the live backend's quantile query --------------------------------------

NET_QUANTILE_PIN = ("bab9fe82e40673a0", 5.47904460184225)


def test_net_quantile_pinned():
    values = RandomSource(50).random(16) * 10.0
    answer = net_approximate_quantile(values, phi=0.5, eps=0.1, rng=21)
    assert (
        _digest(
            answer.rounds,
            answer.attempts,
            answer.counted_rank,
            answer.metrics.summary(),
        ),
        answer.value,
    ) == NET_QUANTILE_PIN
