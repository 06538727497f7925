"""The benchmark's checks must catch bad results.

Run from the root of a checkout:

    python3 -m unittest discover -s benchmarks -p 'test_*.py'
"""

import dataclasses
import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.cap_blas_threads()
wl = run.load_workloads()

from specgap import ModelParams, first_eigenvalue, sl_fd_oracle_extrapolated  # noqa: E402


class BumpedFlow(run.Untraced):
    """Raises u(D/2) at the last output just past tol: one pair violates."""

    def __init__(self, tol):
        self.tol = tol

    def call(self, name, fn, *args):
        result = fn(*args)
        if name != "warped.radial_flow":
            return result
        profiles = list(result.profiles)
        profiles[-1] = profiles[-1].copy()
        profiles[-1][-1] += 1.001 * self.tol
        return dataclasses.replace(result, profiles=profiles)


def fake_item(item_id, outcome, known_defect=False):
    def item(tr, state):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, ""

    return wl.Item(item_id, item, known_defect)


class SpectrumGate(unittest.TestCase):
    def check_point(self, params):
        mu = first_eigenvalue(params, wl.SHOOTING_TOL).mu
        oracle = sl_fd_oracle_extrapolated(params, wl.ORACLE_CELLS)
        self.assertTrue(wl.spectrum_gate(params, mu, oracle)[0])
        for factor in (1.0 + 1e-5, 1.0 - 1e-5):
            ok, gap = wl.spectrum_gate(params, mu * factor, oracle)
            self.assertFalse(ok)
            self.assertAlmostEqual(gap, 1e-5, delta=1e-7)

    def test_perturbed_eigenvalue_fails_against_oracle(self):
        self.check_point(ModelParams(3, -1.0, 2.0))

    def test_perturbed_eigenvalue_fails_against_flat_value(self):
        self.check_point(ModelParams(5, 0.0, 0.5))

    def test_broken_bound_chain_fails(self):
        params = ModelParams(3, 0.5, 2.0)
        below = wl.shi_zhang_bound(3, 0.5, 2.0) * (1.0 - 1e-6)
        ok, gap = wl.spectrum_gate(params, below, below)
        self.assertEqual(gap, 0.0)
        self.assertFalse(ok)


class FlowGates(unittest.TestCase):
    def test_flow_with_one_violation_fails(self):
        inputs = wl.plap_inputs(wl.PLAP_REFINED, 64)
        good = wl.plap_item(run.Untraced(), {}, inputs, "coarse", None)
        self.assertEqual(good, (True, good[1]))
        ok, detail = wl.plap_item(BumpedFlow(inputs[-1]), {}, inputs, "coarse", None)
        self.assertFalse(ok)
        self.assertIn("violations=1 ", detail)

    def test_refinement_without_shrink_fails(self):
        self.assertTrue(wl.shrink_gate(1.0, 0.3))
        self.assertFalse(wl.shrink_gate(1.0, 0.4))
        self.assertFalse(wl.shrink_gate(math.nan, 0.3))

    def test_decay_and_eigenprofile_thresholds(self):
        self.assertTrue(wl.decay_gate(1.019, 1.0)[0])
        self.assertFalse(wl.decay_gate(1.021, 1.0)[0])
        self.assertTrue(wl.eigenprofile_gate(9e-4))
        self.assertFalse(wl.eigenprofile_gate(1.1e-3))


class Accounting(unittest.TestCase):
    def test_failed_and_raising_items_count_as_failures(self):
        items = [fake_item("good", True), fake_item("bad", False),
                 fake_item("raises", RuntimeError("boom"))]
        passes = [run.run_pass(items, run.Untraced())]
        self.assertEqual(run.verdict(passes), (3, 2, False))
        for r in passes[0]["items"]:
            self.assertAlmostEqual(r["ref_s"], r["s"] * r["scale"])
        self.assertEqual(run.end_to_end(passes, [0.1])["pass_frac"]["value"], 1.0 / 3.0)

    def test_known_defects_fail_without_making_the_run_incorrect(self):
        items = [fake_item("good", True), fake_item("defect", False, known_defect=True)]
        self.assertEqual(run.verdict([run.run_pass(items, run.Untraced())]), (2, 1, True))

    def test_traced_run_reports_every_layer_metric(self):
        def item(tr, state):
            tr.call("moc_pde.evolve", sum, [1, 2])
            tr.add("moc_pde.evolve", steps=10)
            tr.peak("warped.fit_decay", max_gap=0.5)
            return True, ""

        passes, tracer = run.run_passes([wl.Item("one", item)], 0.0, trace=True)
        self.assertEqual([p["traced"] for p in passes], [True, False])
        layers = run.per_layer(passes, tracer)
        self.assertEqual(set(layers), set(run.LAYER_UNITS))
        self.assertEqual(layers["moc_pde.evolve.calls"]["value"], 1)
        self.assertEqual(layers["moc_pde.evolve.steps"]["value"], 10)
        self.assertEqual(layers["warped.fit_decay.max_gap"]["value"], 0.5)
        spans = tracer.span_records()
        self.assertEqual([s["name"] for s in spans], ["item", "moc_pde.evolve"])
        self.assertEqual(spans[1]["parent"], 0)
        self.assertEqual(spans[1]["item"], "one")


class Declaration(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics run.py prints."""

    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units_match(self):
        passes = [run.run_pass([fake_item("good", True)], run.Untraced())]
        printed = run.end_to_end(passes, [0.1])
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, {k: v["unit"] for k, v in printed.items()})
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, run.LAYER_UNITS)

    def test_workloads_and_bounds(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOAD_NAMES)
        self.assertEqual(set(run.WORKLOAD_NAMES), set(wl.WORKLOADS))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
