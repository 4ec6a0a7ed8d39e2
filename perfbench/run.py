"""derleib benchmark: the real CLI on seeded workloads, checked outputs.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table
    python3 perfbench/run.py --record                # rewrite reference.json

Load shape: closed loop, one client.  This process starts one CLI child at
a time, in a fresh interpreter with cold caches, and waits for it.

With ``--trace 0`` it reports the end-to-end metrics, with tracing off.  A
run repeats whole workload passes while another pass should still end within
``--seconds`` (at least one pass).  Each invocation of a pass runs twice,
back to back: once on the checkout's ``src/`` and once on the yardstick, a
frozen copy of the engine under ``yardstick/``, the pass alternating which
goes first.  The host's processor speed drifts by up to half over minutes;
the yardstick, run next to every invocation, measures that drift, and the
times are reported as the checkout's time over the yardstick's, times what
the yardstick takes on the reference host (``YARDSTICK_S``).  Each pass also
makes ``PROBES_PER_PASS`` bare ``import derleib.cli`` start-ups of each.

With ``--trace 1`` it runs one untraced pass, then traced passes of the
checkout alone, and reports the per-layer metrics of ``spans.METRICS`` plus
the tracing overhead.  Every output is checked (see ``workloads.py``); the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
YARDSTICK = HERE / "yardstick"
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150
# Median yardstick times on the reference host (see NOTES.md): one pass of
# each workload, and one ``import derleib.cli`` start-up.
YARDSTICK_S = {"claims": 2.0, "analyze": 7.5, "setup": 0.15}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


class Runner:
    """Starts CLI children inside a scratch directory of the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.trees = {"src": ROOT / "src", "yardstick": YARDSTICK}
        self.count = 0

    def spawn(self, cli_args, trace_path="-", tree="src") -> dict:
        """Run one child on the engine of ``tree`` to completion; wall time,
        peak RSS, set-up time."""
        self.count += 1
        stamp = self.workdir / "stamp"
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        cmd = [sys.executable, str(CHILD), str(stamp), str(trace_path),
               str(self.count), *cli_args]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fout, stderr=ferr, cwd=ROOT,
                                    env=dict(os.environ,
                                             PYTHONPATH=str(self.trees[tree])))
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code = os.waitstatus_to_exitcode(status)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                code = "timeout"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        proc.returncode = code if isinstance(code, int) else -1
        stamp_text = stamp.read_text() if stamp.exists() else ""
        stamp.unlink(missing_ok=True)
        return {"wall": end - start, "rss_mb": usage.ru_maxrss / 1024.0,
                "code": code, "stdout": out.read_bytes(),
                "stderr": err.read_text(errors="replace"),
                "setup": float(stamp_text.split()[0]) - start if stamp_text else None,
                "module": stamp_text.split()[1] if stamp_text else None}

    def run(self, inv, trace_path="-", tree="src") -> dict:
        """Run one workload invocation; its files are in the scratch directory."""
        return self.spawn([a.replace("{dir}", str(self.workdir)) for a in inv.argv],
                          trace_path, tree)

    def probe(self, tree="src") -> float:
        """Set-up time of one bare ``import derleib.cli`` start-up."""
        r = self.spawn([], tree=tree)
        if r["code"] != 0 or r["setup"] is None:
            raise SystemExit("derleib does not import:\n" + r["stderr"])
        if not Path(r["module"]).resolve().is_relative_to(self.trees[tree]):
            raise SystemExit("imported derleib from %s, not from %s"
                             % (r["module"], self.trees[tree]))
        return r["setup"]


def _check(workload, inv, r, reference) -> tuple:
    """(items decided, failure message or None) for one invocation."""
    if r["code"] != inv.exit_code:
        return 0, "exit code %s, expected %d\n%s" % (r["code"], inv.exit_code,
                                                    r["stderr"][-2000:])
    try:
        items = inv.check(r["stdout"].decode("utf-8"))
    except (workloads.CheckFailed, UnicodeDecodeError) as exc:
        return 0, "output check: %s" % exc
    if reference is not None:
        want = reference.get(workload, {}).get(inv.key)
        got = workloads.digest(workload, r["stdout"])
        if want != got:
            return 0, "output bytes differ from the reference (%s != %s)" % (got, want)
    return items, None


def run_pass(runner, workload, invs, reference, trees=("src",),
             traced=False) -> dict:
    """Run every invocation of a workload once on each engine of ``trees``,
    back to back, in that order for the first invocation and alternating."""
    per_tree = {t: {"wall": 0.0, "rss": 0.0, "setups": []} for t in trees}
    items = failed = attempted = 0
    dumps, ratios = [], []
    for i, inv in enumerate(invs):
        walls = {}
        for tree in trees if i % 2 == 0 else trees[::-1]:
            trace_path = runner.workdir / "trace.json" if traced else "-"
            r = runner.run(inv, trace_path, tree)
            walls[tree] = r["wall"]
            mine = per_tree[tree]
            mine["wall"] += r["wall"]
            mine["rss"] = max(mine["rss"], r["rss_mb"])
            if r["setup"] is not None:
                mine["setups"].append(r["setup"])
            got, problem = _check(workload, inv, r, reference)
            attempted += 1
            if tree == "src":
                items += got
            if problem:
                failed += 1
                sys.stderr.write("FAILED %s %s on %s: %s\n"
                                 % (workload, inv.key, tree, problem))
            if traced and trace_path.exists():
                dumps.append(spans.load(trace_path))
                trace_path.unlink()
        if "yardstick" in walls:
            ratios.append(walls["src"] / walls["yardstick"])
    return dict(per_tree["src"], trees=per_tree, items=items, failed=failed,
                attempted=attempted, dumps=dumps, ratios=ratios)


def _write_inputs(runner, invs):
    for inv in invs:
        for name, text in inv.files:
            (runner.workdir / name).write_text(text, encoding="utf-8")


def _passes_for(seconds, run_pass_once):
    """Repeat passes while another one should still end within ``seconds``
    (at least one); returns them."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass_once(len(passes)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure(runner, workload, seed, seconds, trace, reference) -> dict:
    """One benchmark run; returns the result object."""
    invs = workloads.invocations(workload, seed)
    _write_inputs(runner, invs)
    for tree in runner.trees:  # warm-up: byte-compiles the sources
        runner.probe(tree)
    if trace:
        baseline = run_pass(runner, workload, invs, reference)
        passes = _passes_for(seconds, lambda _: run_pass(
            runner, workload, invs, reference, traced=True))
        wall = statistics.median(p["wall"] for p in passes)
        per_pass = [spans.layer_metrics(p["dumps"]) for p in passes]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (unit, _, _) in spans.METRICS.items()}
        metrics["trace.overhead_frac"] = (wall / baseline["wall"] - 1, "ratio")
        passes.append(baseline)
    else:
        probes = {"src": [], "yardstick": []}

        def one_pass(k):
            order = ("yardstick", "src") if k % 2 == 0 else ("src", "yardstick")
            for _ in range(PROBES_PER_PASS):
                for tree in order:
                    probes[tree].append(runner.probe(tree))
            return run_pass(runner, workload, invs, reference, order)

        passes = _passes_for(seconds, one_pass)
        setups = {t: probes[t] + [s for p in passes for s in p["trees"][t]["setups"]]
                  for t in probes}
        # each invocation's time as a share of the yardstick's next to it
        wall = YARDSTICK_S[workload] * statistics.median(
            r for p in passes for r in p["ratios"])
        setup = YARDSTICK_S["setup"] * (statistics.median(setups["src"])
                                        / statistics.median(setups["yardstick"]))
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (statistics.median(p["items"] for p in passes) / wall,
                            "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
        }
    failed = sum(p["failed"] for p in passes)
    yardstick = [p["trees"]["yardstick"]["wall"] for p in passes
                 if "yardstick" in p["trees"]]
    return {"correct": failed == 0, "attempted": sum(p["attempted"] for p in passes),
            "failed": failed, "passes": len(passes) - bool(trace),
            "yardstick_s": statistics.median(yardstick) if yardstick else None,
            "ratios": [r for p in passes for r in p["ratios"]],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_table(workload, seed, result):
    print("workload %s, seed %d: %d pass(es), failed_frac %s (%d of %d invocations)"
          % (workload, seed, result["passes"],
             result["failed"] / result["attempted"], result["failed"],
             result["attempted"]))
    if result["yardstick_s"] is not None:
        print("  yardstick pass, as measured:       %14.6g s"
              % result["yardstick_s"])
        print("  checkout/yardstick, %d pairs:  %s" % (
            len(result["ratios"]), " ".join("%.3f" % r for r in result["ratios"])))
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))


def record(runner):
    """Rewrite reference.json from the checked-out engine, every variant."""
    reference = {}
    for workload in workloads.WORKLOADS:
        table = reference.setdefault(workload, {})
        for variant in range(workloads.VARIANTS):
            invs = workloads.invocations(workload, variant)
            _write_inputs(runner, invs)
            for inv in invs:
                if inv.key in table:
                    continue
                r = runner.run(inv)
                _, problem = _check(workload, inv, r, None)
                if problem:
                    raise SystemExit("not recording %s %s: %s"
                                     % (workload, inv.key, problem))
                table[inv.key] = workloads.digest(workload, r["stdout"])
                print("recorded %s %s %.2f s" % (workload, inv.key, r["wall"]))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _pin_to_one_cpu():
    """Keep this process and its children on one processor, so that an
    invocation and its yardstick run see the same processor's speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference output digests and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "derleib" / "cli.py").is_file():
        sys.stderr.write("no derleib sources under %s\n" % (ROOT / "src"))
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    _pin_to_one_cpu()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        if args.record:
            record(runner)
            return 0
        reference = json.loads(REFERENCE.read_text())
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = measure(runner, name, args.seed, args.seconds,
                                    args.trace, reference)
            _print_table(name, args.seed, results[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        result, = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
