"""Golden transcript digest: every scheme's caches and transcripts, bit for bit.

Each case places the caches, delivers every demand vector through one plan
and hashes the caches' known masks and bits plus, per demand vector,
total_bits, per_level_bits, step_counts and every section's (level, layer,
step_items, leader_mask, part_size, payloads), in order.  The hashes must
equal fixtures/transcripts/digest.txt.  A second digest runs the exhaustive
verifier on the same cases and hashes each GridReport's measured_rates,
decode_ok and violations; it must equal fixtures/transcripts/verify_digest.txt.
The cases cover:

* cacc and cauc at every integer share of every single-level library with
  N, K <= 4;
* cicc on the same libraries at capacities N*j/(2K), j = 0..2K, so the
  whole-file layers split at half-integer shares;
* cauc at fractional prefix shares on seeded multi-level libraries;
* cacc at optimize_allocation shares on seeded multi-level libraries.

`python tests/test_transcripts.py` prints the transcript digest lines and
`python tests/test_transcripts.py verify` the verifier's; regenerate a fixture
with them only for a change that is meant to alter transcripts or verdicts.
"""

import hashlib
import os
import random
import sys
from itertools import product

from corrcache import (
    CacheAllocation,
    ContentStore,
    DeliveryPlan,
    LibraryConfig,
    optimize_allocation,
    place,
    verify_all_demands,
)
from corrcache.combinat import divisibility_unit

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "transcripts",
)
GOLDEN = os.path.join(FIXTURES, "digest.txt")
VERIFY_GOLDEN = os.path.join(FIXTURES, "verify_digest.txt")


def _single_level(n, k, level, capacity):
    sizes = [0] * n
    sizes[level - 1] = 2 * divisibility_unit(k)
    return LibraryConfig(n, k, capacity, tuple(sizes))


def _multi_level(rng, unit_factor):
    n, k = rng.randint(2, 4), rng.randint(2, 4)
    sizes = [0] * n
    for level in rng.sample(range(n), rng.randint(2, n)):
        sizes[level] = rng.randint(1, 3) * unit_factor * divisibility_unit(k)
    return n, k, tuple(sizes)


def cases():
    """(case id, scheme, config, allocation) of every digested case."""
    for n, k in product(range(1, 5), repeat=2):
        for level in range(1, n + 1):
            config = _single_level(n, k, level, float(n))
            for t in range(k + 1):
                fractions = [0.0] * n
                fractions[level - 1] = t / k
                alloc = CacheAllocation(tuple(fractions))
                for scheme in ("cacc", "cauc"):
                    yield f"{scheme} n={n} k={k} level={level} t={t}", scheme, config, alloc
            for j in range(2 * k + 1):
                config = _single_level(n, k, level, n * j / (2 * k))
                yield f"cicc n={n} k={k} level={level} j={j}", "cicc", config, None
    rng = random.Random(7)
    for i in range(12):
        n, k, sizes = _multi_level(rng, 4)
        fractions = tuple(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in sizes)
        alloc = CacheAllocation(fractions)
        probe = LibraryConfig(n, k, 0.0, sizes)
        config = LibraryConfig(n, k, alloc.cached_bits(probe) / probe.file_size, sizes)
        yield f"cauc prefix {i}", "cauc", config, alloc
    for i in range(8):
        n, k, sizes = _multi_level(rng, 1)
        for frac in (0.2, 0.5, 0.8):
            config = LibraryConfig(n, k, frac * n, sizes)
            alloc = optimize_allocation(config).alloc
            yield f"cacc optimizer {i} m={frac}n", "cacc", config, alloc


def case_digest(scheme, config, alloc) -> str:
    store = ContentStore.generate(config, seed=1)
    h = hashlib.sha256()
    for cache in place(config, alloc, store, scheme=scheme):
        masks = sorted(cache.known_masks.items())
        bits = sorted(cache.known_bits.items())
        h.update(repr((cache.user, masks, bits)).encode())
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    for demands in product(range(1, config.n_files + 1), repeat=config.n_users):
        tr = plan.deliver(demands)
        per_level = sorted(tr.per_level_bits.items())
        h.update(repr((demands, tr.total_bits, per_level, tr.step_counts)).encode())
        for rec in tr.sections:
            layer = (rec.layer.t, rec.layer.offset, rec.layer.size)
            payloads = sorted(rec.payloads.items())
            h.update(
                repr(
                    (rec.level, layer, rec.step_items, rec.leader_mask,
                     rec.part_size, payloads)
                ).encode()
            )
    return h.hexdigest()


def verify_digest(scheme, config, alloc) -> str:
    report = verify_all_demands(config, alloc, scheme=scheme, seed=1)
    h = hashlib.sha256()
    h.update(repr((report.measured_rates, report.decode_ok, report.violations)).encode())
    return h.hexdigest()


def digest_lines(digest=case_digest):
    return [f"{case_id}: {digest(*rest)}" for case_id, *rest in cases()]


def _assert_matches(path, got):
    with open(path, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert len(got) == len(want)
    changed = [g for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} cases changed, first: {changed[0]}"


def test_transcripts_match_golden_digest():
    _assert_matches(GOLDEN, digest_lines())


def test_verifier_matches_golden_digest():
    _assert_matches(VERIFY_GOLDEN, digest_lines(verify_digest))


if __name__ == "__main__":
    digest = verify_digest if sys.argv[1:] == ["verify"] else case_digest
    sys.stdout.write("\n".join(digest_lines(digest)) + "\n")
