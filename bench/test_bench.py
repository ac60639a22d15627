"""Smoke test of the benchmark itself (stdlib only).

Runs every workload at its smallest size, checks the command-line contract
against BENCHMARK.json, and shows that each correctness check rejects a
deliberately wrong answer.  Run from the root of the checkout:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from soritica import semantics  # noqa: E402
from soritica.formulas import Not  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_ops(workload, seed=3):
    return workloads.OPS[workload](workloads.INPUTS[workload](seed, True), True)


def first_good(ops):
    """Each op without a fault, with what the program returned for it."""
    for op in ops:
        if op.fault is None:
            obs = op.run()
            assert op.check(obs), op.label
            yield op, obs


class CommandLine(unittest.TestCase):
    def _run(self, *args, cwd=ROOT):
        argv = [sys.executable, "bench/run.py", "--seed", "2", "--seconds", "0", *args]
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_every_workload_small(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.OPS))
        for workload in workloads.OPS:
            for trace, spec in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = self._run("--workload", workload, "--trace", str(trace), "--small")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[spec]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "bench")
            done = self._run("--workload", "laws", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare)


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_patches_are_undone(self):
        from soritica.neutrix import ExternalNumber, parse_external

        before = (ExternalNumber.__mul__, ExternalNumber.__rmul__, parse_external)
        counts = []
        for _ in range(2):
            result, _ = run.run("calc", 5, 0.0, trace=1, small=True)
            metrics = result["metrics"]
            counts.append(
                {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", "_terms"))}
            )
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["cli.main.calls"], 0)
        self.assertGreater(counts[0]["neutrix.mul.cross_terms"], 0)
        from soritica import neutrix

        after = (ExternalNumber.__mul__, ExternalNumber.__rmul__, neutrix.parse_external)
        self.assertEqual(before, after)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_reference_calculator(self):
        a = ref.x_add(ref.ext(ref.series((0, 2))), ref.ext({}, (Fraction(0), ref.OSL)))
        b = ref.x_add(ref.ext(ref.series((0, 3))), ref.ext({}, (Fraction(0), ref.OSL)))
        self.assertEqual(ref.x_str(ref.x_mul(a, b)), "6 + o(0)")
        omega = ref.ext(ref.series((-1, 1)))
        self.assertEqual(ref.x_str(ref.x_mul(omega, ref.ext({}, (Fraction(0), ref.OSL)))), "o(-1)")

    def test_laws(self):
        op, obs = next(first_good(small_ops("laws")))
        self.assertFalse(op.check([replace(obs[0], passed=False)] + obs[1:]))
        self.assertFalse(op.check([replace(r, cases=r.cases + 1) for r in obs]))
        self.assertFalse(op.check(obs[:-1]))

    def test_calc(self):
        ops = small_ops("calc")
        for op, (code, out, err) in first_good(ops):
            lines = out.splitlines(keepends=True)
            self.assertFalse(op.check((1, out, err)))
            self.assertFalse(op.check((code, "0\n" + "".join(lines[1:]), err)))
            self.assertFalse(op.check((code, out.replace("oracle: ok", "oracle: MISMATCH"), err)))
        faults = [op for op in ops if op.fault]
        self.assertEqual(len(faults), len(workloads.CALC_FAULTS))
        for op in faults:
            self.assertTrue(op.check((2, "", "syntax error: division by zero (at offset 0)\n")))
            self.assertFalse(op.check((0, "0\nZeroish\n", "")))

    def test_sorites(self):
        ops = small_ops("sorites")
        mutations = [
            lambda d: d["barnes"].update(c1=not d["barnes"]["c1"]),
            lambda d: d["induction"].update(step_holds=not d["induction"]["step_holds"]),
            lambda d: d["induction"].update(step_counterexample=-1),
            lambda d: d.update(doubling=None if d["doubling"] else {"invariant": True, "witness": None}),
            lambda d: d["barnes"]["evidence"].append("adjacent flip (witness -7)"),
        ]
        checked = 0
        for op, (text, rendered) in first_good(ops):
            for mutate in mutations:
                data = json.loads(rendered)
                mutate(data)
                if json.dumps(data, indent=2, sort_keys=True) + "\n" != rendered:
                    self.assertFalse(op.check((text, json.dumps(data))), op.label)
                    checked += 1
        self.assertGreater(checked, 20)
        for op in (op for op in ops if op.fault):
            self.assertTrue(op.check("ConfigError"))
            self.assertFalse(op.check(("scenario: x\n", "{}")))

    def test_logic(self):
        ops = small_ops("logic")
        good = list(first_good(ops))
        self.assertGreater(len(good), 3)
        for op, (f, printed, again, values, tautology) in good:
            classical, k3, fuzzy, verdict = values
            wrong_values = [
                (not classical, k3, fuzzy, verdict),
                (classical, 1 - k3 if k3 != Fraction(1, 2) else Fraction(0), fuzzy, verdict),
                (classical, k3, fuzzy + 1 if fuzzy < 1 else Fraction(0), verdict),
                (classical, k3, fuzzy, semantics.SuperVerdict.INDETERMINATE
                 if verdict is not semantics.SuperVerdict.INDETERMINATE
                 else semantics.SuperVerdict.SUPERTRUE),
            ]
            for wrong in wrong_values:
                self.assertFalse(op.check((f, printed, again, wrong, tautology)))
            self.assertFalse(op.check((Not(f), printed, Not(f), values, tautology)))
            if tautology is not None:
                self.assertFalse(op.check((f, printed, again, values, (True, tautology[1]))))
                self.assertFalse(op.check((f, printed, again, values, (False, not tautology[1]))))
            # The property checks call the evaluators again: a K3 evaluator
            # that disagrees with classical logic on crisp inputs is caught.
            real = semantics.eval_k3
            flipped = lambda *a, **k: 1 - real(*a, **k)
            with mock.patch.object(semantics, "eval_k3", flipped):
                self.assertFalse(op.check((f, printed, again, values, tautology)))
        for op in (op for op in ops if op.fault == "deep-negation"):
            self.assertTrue(op.check("FormulaSyntaxError"))


if __name__ == "__main__":
    unittest.main()
