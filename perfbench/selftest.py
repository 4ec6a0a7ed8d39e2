"""Self-test of the benchmark's checker and span arithmetic; needs no engine.

    python3 perfbench/selftest.py
"""

import hashlib
import json
import unittest

import run
import spans
import workloads


ANALYZE_OUTPUT = (
    "algebra hlie3 derivation algebra: dim 28 over Q\n"
    "classify: left=yes right=yes symmetric=yes lie=yes\n"
    "centers: left 0, right 0, two-sided 0\n"
    "Killing rank: 22\nradical (dim 7):\nnilradical (dim 6):\n").encode()


def _claims_output(seed, statuses=None):
    claims = [{"id": "H1", "params": {"n": 1}, "status": "confirmed"}] * 205
    claims += [{"id": "Z3", "params": {"n": 2}, "status": "refuted"},
               {"id": "D5", "params": {"n": 3}, "status": "discrepancy"}]
    if statuses:
        claims = ([dict(c, status=s) for c, s in zip(claims, statuses)]
                  + claims[len(statuses):])
    text = json.dumps({"version": "0", "input": _claims_input(seed),
                       "analyses": [], "claims": claims}, indent=2)
    return text.encode()


def _claims_input(seed):
    blob = "nmax=3;a=%s;seed=%d" % (workloads.CLAIMS_DEFAULT_A, seed)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _result(stdout, code):
    return {"code": code, "stdout": stdout, "stderr": ""}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.inv = workloads.invocations("analyze", 0)[0]
        self.reference = {"analyze": {self.inv.key: workloads.digest(
            "analyze", ANALYZE_OUTPUT)}}

    def problem(self, stdout, code=0):
        return run._check("analyze", self.inv, _result(stdout, code), self.reference)[1]

    def test_good_output_passes(self):
        self.assertIsNone(self.problem(ANALYZE_OUTPUT))

    def test_wrong_exit_code_is_flagged(self):
        self.assertIn("exit code", self.problem(ANALYZE_OUTPUT, code=3))

    def test_tampered_bytes_are_flagged(self):
        self.assertIn("reference", self.problem(ANALYZE_OUTPUT + b"\n"))

    def test_wrong_value_is_flagged(self):
        self.assertIn("Killing rank", self.problem(
            ANALYZE_OUTPUT.replace(b"Killing rank: 22", b"Killing rank: 21")))

    def test_crash_output_is_flagged(self):
        self.assertIn("output check", self.problem(b"Traceback"))

    def test_claims_oracle(self):
        inv, = workloads.invocations("claims", 5)
        self.assertEqual(207, inv.check(_claims_output(5).decode()))
        with self.assertRaises(workloads.CheckFailed):  # a confirmed claim flips
            inv.check(_claims_output(5, ["refuted"]).decode())
        with self.assertRaises(workloads.CheckFailed):  # another seed's report
            inv.check(_claims_output(6).decode())

    def test_claims_digest_masks_only_the_seed_field(self):
        self.assertEqual(workloads.digest("claims", _claims_output(1)),
                         workloads.digest("claims", _claims_output(2)))
        self.assertNotEqual(workloads.digest("claims", _claims_output(1)),
                            workloads.digest("claims", _claims_output(1, ["refuted"])))

    def test_seed_plumbing(self):
        files = [inv.files for inv in workloads.invocations("analyze", 3)]
        self.assertEqual(files, [inv.files for inv in workloads.invocations(
            "analyze", 3 + workloads.VARIANTS)])
        self.assertNotEqual(files, [inv.files for inv in workloads.invocations(
            "analyze", 4)])
        self.assertEqual(len(files), len(set(files)))


class SpanArithmeticTest(unittest.TestCase):
    # names: 0 der, 1 kernel, 2 closure, 3 commutator, 4 hook, 5 radical
    NAMES = ["derivations.der", "exactlin.kernel", "derivations.closure",
             "derivations.commutator", spans.HOOK, "liestruct.radical"]
    SPANS = [
        [0, 0.0, 10.0, -1],   # 0 der            self 10 - 2 - 5 - 0.5 = 2.5
        [1, 1.0, 3.0, 0],     # 1 kernel         self 2
        [2, 4.0, 9.0, 0],     # 2 closure        self 5 - 1 - 1 = 3
        [3, 5.0, 6.0, 2],     # 3 commutator     self 1
        [3, 7.0, 8.0, 2],     # 4 commutator     self 1
        [4, 9.0, 9.5, 0],     # 5 hook           self 0.5
        [3, 11.0, 12.0, -1],  # 6 commutator outside any closure
        [5, 20.0, 30.0, -1],  # 7 radical        self 10 - 4 = 6
        [5, 22.0, 26.0, 7],   # 8 radical inside radical, not counted again
    ]

    def test_self_times(self):
        self.assertEqual([2.5, 2.0, 3.0, 1.0, 1.0, 0.5, 1.0, 6.0, 4.0],
                         spans.self_times(self.SPANS))

    def test_overlapping_children_are_counted_once(self):
        tree = [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [1, 3.0, 12.0, 0]]
        self.assertEqual(1.0, spans.self_times(tree)[0])

    def test_recorder_nests_spans_and_times_hooks_apart(self):
        rec = spans.Recorder()
        inner = rec.wrap("exactlin.kernel", lambda rows: len(rows),
                         before=lambda args: (list(args[0]),))
        outer = rec.wrap("derivations.der", lambda: inner(iter([1, 2])),
                         after=lambda args, result: None)
        self.assertEqual(2, outer())
        named = [(rec.names[n], parent) for n, _, _, parent in rec.spans]
        self.assertEqual([("derivations.der", -1), (spans.HOOK, 0),
                          ("exactlin.kernel", 0), (spans.HOOK, -1)], named)
        self.assertTrue(all(start <= end for _, start, end, _ in rec.spans))

    def test_layer_metrics(self):
        dump = {"names": self.NAMES, "spans": self.SPANS,
                "counters": {"kernel.rows": 7, "kernel.max_bits": 3}}
        m = {k: v for k, (v, _) in spans.layer_metrics([dump, dump]).items()}
        self.assertEqual(2, m["derivations.der.calls"])
        self.assertEqual(20.0, m["derivations.der.s"])
        self.assertEqual(5.0, m["derivations.der.self_s"])
        self.assertEqual(4, m["derivations.closure.commutators"])
        self.assertEqual(20.0, m["liestruct.radical.s"])
        self.assertEqual(14, m["exactlin.kernel.rows"])
        self.assertEqual(3, m["exactlin.kernel.max_bits"])
        self.assertEqual(0.0, m["liestruct.nilradical.s"])


if __name__ == "__main__":
    unittest.main()
