"""The benchmark's workloads: seeded inputs and output oracles.

Each workload is a list of ``derleib`` CLI invocations.  The inputs come
from the benchmark seed; the CLI child receives only the generated
arguments and definition files.  Seeded inputs are drawn from a pool of
``VARIANTS`` members per workload (member = seed mod ``VARIANTS``), so that
every possible input has an output digest recorded in ``reference.json``.

Every output is checked twice: against the paper's formulas, parsed from the
output independently of the engine, and against the digest of the bytes
the reference commit printed for the same input.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from random import Random

VARIANTS = 8
CLAIMS_NMAX = 3
CLAIMS_DEFAULT_A = "2,1/2,-3,1,-1,0"  # verify-paper's default a-values
CLAIMS_TOTALS = {"confirmed": 205, "refuted": 1, "discrepancy": 1}
# Z3 is a deliberate red: the engine refutes the paper's solvable class of
# Der(l^{J_0}) at even n.  D5 at n = 3 is a flagged misprint.
CLAIMS_REFUTED = {("Z3", 2)}
CLAIMS_DISCREPANT = {("D5", 3)}
# analyze: Der(h_{2n+1}) of h_7 under this many seeded basis orders per pass
ANALYZE_N = 3
ANALYZE_PERMUTATIONS = 3


class CheckFailed(Exception):
    """An invocation's output does not match its oracle."""


@dataclass(frozen=True)
class Invocation:
    key: str               # reference key; also names the invocation
    argv: tuple            # CLI arguments; "{dir}" is the input directory
    files: tuple           # (file name, text) written to the input directory
    exit_code: int         # the exit code the paper's answer implies
    check: object          # check(stdout text) -> items decided; raises CheckFailed


def _expect(what, want, got):
    if want != got:
        raise CheckFailed("%s: expected %r, got %r" % (what, want, got))


def digest(workload: str, stdout: bytes) -> str:
    """sha256 of the output bytes; the claims report's ``input`` field,
    which encodes the seed, is masked (it is checked on its own)."""
    if workload == "claims":
        stdout = re.sub(rb'"input": "[0-9a-f]{16}"', b'"input": "*"', stdout)
    return hashlib.sha256(stdout).hexdigest()


# ---------------------------------------------------------------------------
# seeded parameters
# ---------------------------------------------------------------------------

def basis_permutation(seed: int, k: int, dim: int) -> list:
    """The ``k``-th seeded basis order of an analyze pass."""
    perm = list(range(dim))
    Random("analyze:%d:%d" % (seed % VARIANTS, k)).shuffle(perm)
    return perm


def heisenberg_lie_doc(name: str, n: int, perm) -> str:
    """Definition file of the Heisenberg Lie algebra h_{2n+1}: [e_i,f_i] = z
    and [f_i,e_i] = -z.  ``perm`` lists the old basis index of each new
    basis position."""
    labels = (["e%d" % (i + 1) for i in range(n)]
              + ["f%d" % (i + 1) for i in range(n)] + ["z"])
    out = ["algebra %s field Q" % name, "basis " + " ".join(labels[p] for p in perm)]
    for i in range(n):
        out.append("[%s,%s] = z" % (labels[i], labels[n + i]))
        out.append("[%s,%s] = -1 z" % (labels[n + i], labels[i]))
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _check_claims(seed):
    want_input = hashlib.sha256(("nmax=%d;a=%s;seed=%d" % (
        CLAIMS_NMAX, CLAIMS_DEFAULT_A, seed)).encode()).hexdigest()[:16]

    def check(stdout):
        try:
            report = json.loads(stdout)
            results = [(c["id"], c["params"].get("n"), c["status"])
                       for c in report["claims"]]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CheckFailed("unreadable claims report: %s" % exc)
        _expect("input digest (seed plumbing)", want_input, report.get("input"))
        totals = {}
        for _, _, status in results:
            totals[status] = totals.get(status, 0) + 1
        _expect("claim totals", CLAIMS_TOTALS, totals)
        _expect("refuted claims", CLAIMS_REFUTED,
                {(i, n) for i, n, s in results if s == "refuted"})
        _expect("discrepant claims", CLAIMS_DISCREPANT,
                {(i, n) for i, n, s in results if s == "discrepancy"})
        return len(results)
    return check


def _check_analyze(n):
    """analyze --der on h_{2n+1}: Der = csp(2n) x| F^{2n}."""
    dim = (n + 1) * (2 * n + 1)
    want = [
        r"algebra \S+ derivation algebra: dim %d over Q$" % dim,
        r"classify: left=yes right=yes symmetric=yes lie=yes$",
        r"centers: left 0, right 0, two-sided 0$",
        r"Killing rank: %d$" % (n * (2 * n + 1) + 1),
        r"radical \(dim %d\):$" % (2 * n + 1),
        r"nilradical \(dim %d\):$" % (2 * n),
    ]

    def check(stdout):
        lines = stdout.splitlines()
        for pattern in want:
            if not any(re.match(pattern, line) for line in lines):
                raise CheckFailed("no output line matches %r" % pattern)
        return 1
    return check


def invocations(workload: str, seed: int) -> list:
    """The CLI invocations of one pass of ``workload`` at ``seed``."""
    v = seed % VARIANTS
    if workload == "claims":
        return [Invocation(
            "claims/nmax%d" % CLAIMS_NMAX,
            ("verify-paper", "--nmax", str(CLAIMS_NMAX), "--json", "--seed", str(seed)),
            (), 1, _check_claims(seed))]
    if workload == "analyze":
        n = ANALYZE_N
        return [Invocation(
            "hlie%d/%d/%d" % (n, v, k), ("analyze", "{dir}/hlie_%d.alg" % k, "--der"),
            (("hlie_%d.alg" % k, heisenberg_lie_doc(
                "hlie%d" % n, n, basis_permutation(seed, k, 2 * n + 1))),),
            0, _check_analyze(n)) for k in range(ANALYZE_PERMUTATIONS)]
    raise KeyError(workload)


WORKLOADS = ("claims", "analyze")
