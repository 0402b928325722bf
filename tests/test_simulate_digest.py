"""Golden digest of `corrcache simulate`: exit code, stdout and stderr.

Each of 42 seeded invocations runs `simulate` with N, K in 4..8 on a
library with two to four nonempty levels among levels 1..4, over 10^5-bit
files, one scheme in turn (cacc, cauc, cicc):

* two in three at the optimizer's allocation (`--m`, the uncoded optimum
  for cauc, the classic envelope's share for cicc);
* one in three, half of the cacc and cauc calls, at explicit `--t` shares
  per level,
  drawn from 0, K, an integer in between and a half-integer, so share-0
  layers, share-K layers and fractional splits all occur.

The digest hashes, per invocation, its argv, exit code, stdout and stderr,
in order; the line must equal fixtures/simulate/digest.txt.  The schedule
memo does not take part in any output, so the order of the calls matters
only for the hash.

`python tests/test_simulate_digest.py` prints the digest line; regenerate
the fixture with it only for a change that is meant to alter simulate's
output.
"""

import contextlib
import hashlib
import io
import os
import random
import sys

from corrcache.cli import main

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "simulate", "digest.txt",
)
CALLS = 42
FILE_BITS = 100_000


def invocations(seed=35):
    """The argv of every digested invocation."""
    rng = random.Random(seed)
    for i in range(CALLS):
        scheme = ("cacc", "cauc", "cicc")[i % 3]
        n, k = rng.randint(4, 8), rng.randint(4, 8)
        # levels 1..4 only: a higher level's subfile would round to 0 bits
        active = rng.sample(range(min(n, 4)), rng.randint(2, min(n, 4)))
        weights = [0.0] * n
        for level in active:
            weights[level] = rng.uniform(1.0, 3.0)
        total = sum(weights)
        argv = [
            "simulate", "--n", str(n), "--k", str(k), "--scheme", scheme,
            "--ratios", ",".join(repr(w / total) for w in weights),
            "--file-bits", str(FILE_BITS),
            "--demands", ",".join(str(rng.randint(1, n)) for _ in range(k)),
            "--seed", str(rng.randrange(1 << 30)),
        ]
        if scheme != "cicc" and i % 6 < 3:
            shares = [rng.choice((0, k, rng.randint(1, k - 1), rng.randint(0, k - 1) + 0.5))
                      for _ in range(n)]
            argv += ["--t", ",".join(f"{t:g}" for t in shares)]
        else:
            argv += ["--m", f"{rng.uniform(0.2, 1.5):.6f}"]
        yield argv


def run(argv):
    """One in-process invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest_line():
    h = hashlib.sha256()
    for argv in invocations():
        h.update(repr((argv, *run(argv))).encode())
    return f"simulate ({CALLS} calls): {h.hexdigest()}"


def test_simulate_matches_golden_digest():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert [digest_line()] == want


def test_digested_invocations_decode():
    """The digest covers working deliveries: every invocation exits 0 with
    decode=ok, and between them they place share-0, share-K and fractional
    --t shares."""
    shares = set()
    for argv in invocations():
        code, out, err = run(argv)
        assert (code, err) == (0, ""), argv
        assert "decode=ok" in out.splitlines(), argv
        if "--t" in argv:
            k = int(argv[argv.index("--k") + 1])
            for t in map(float, argv[argv.index("--t") + 1].split(",")):
                shares.add("0" if t == 0 else "K" if t == k else "int" if t % 1 == 0 else "half")
    assert shares == {"0", "K", "int", "half"}


if __name__ == "__main__":
    sys.stdout.write(digest_line() + "\n")
