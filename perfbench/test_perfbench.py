"""Tests of the benchmark itself: its oracles agree with the library on small
inputs and catch wrong answers, inputs follow the seed, span arithmetic is
right, and BENCHMARK.json names exactly what run.py prints.

Stdlib only; run with `python3 -m unittest discover -s perfbench` or pytest.
"""

import json
import unittest
from fractions import Fraction

import oracles as oc
import run
import spans
import workloads

LIB = workloads.load_library()
CG = LIB["package"]
MAPS = workloads.library_maps(CG)


class OraclesAgreeWithLibrary(unittest.TestCase):
    def test_digit_map_and_conjugacy(self):
        for name, top in (("collatz", 6), ("5n+1", 6), ("original", 4)):
            f, fmap = MAPS[name], workloads.ORACLE_MAPS[name]
            for k in range(1, top + 1):
                perm = CG.conjugacy_permutation(f, k)
                oc.check_permutation(fmap, k, perm.images, perm.cycles(), perm.order())
                self.assertTrue(oc.conjugacy_holds(fmap, k, list(perm.images)))
                self.assertTrue(CG.verify_conjugacy(f, k))

    def test_uniform_walks(self):
        for name, top in (("collatz", 5), ("original", 3)):
            f, fmap = MAPS[name], workloads.ORACLE_MAPS[name]
            for k in range(1, top + 1):
                want = oc.uniform_walks(fmap, k, k + 3)
                self.assertEqual(want, CG.check_uniform_power(f, k, k + 3))

    def test_orbits(self):
        starts = [Fraction(n) for n in range(-20, 101)]
        starts += [Fraction(a, q) for q in (3, 5, 7, 9, 11) for a in range(-10, 11)]
        for name, max_steps in (("collatz", 10000), ("3n+5", 10000), ("5n+1", 100)):
            f, fmap = MAPS[name], workloads.ORACLE_MAPS[name]
            for x in starts:
                orbit = oc.Orbit(fmap, x, max_steps)
                classified = CG.classify_orbit(f, x, max_steps)
                oc.check_classified(orbit, workloads.classified_plain(classified))
                oc.check_phi(orbit, workloads.phi_plain(CG.phi_exact(f, x, max_steps)))

    def test_census(self):
        table = oc.census(8)
        for b in workloads.DENOMINATORS:
            found = CG.cycles_with_denominator(b, 8)
            oc.check_census(b, 8, workloads.census_plain(found), table)

    def test_words(self):
        for p, k in ((2, 6), (3, 4), (4, 3)):
            oc.check_lyndon_list(p, k, [w.digits for w in CG.lyndon_words(p, k)])
            s = CG.fkm_sequence(p, k)
            oc.check_debruijn(p, k, s.digits, CG.is_debruijn_sequence(s, p, k))

    def test_pinned_facts(self):
        cycles = CG.conjugacy_permutation(MAPS["collatz"], 4).cycles()
        self.assertEqual(cycles, oc.PINNED_CYCLES_K4)
        oc.check_permutation(oc.COLLATZ, 4, oc.digit_map(oc.COLLATZ, 4), oc.PINNED_CYCLES_K4)
        result = CG.phi_exact(MAPS["collatz"], 5)
        self.assertEqual((str(result.digits), result.value), oc.PINNED_PHI_5)
        self.assertEqual(len(oc.census(14)[1]), oc.PINNED_B1_COUNT)


class OraclesCatchWrongAnswers(unittest.TestCase):
    def test_wrong_digit_map(self):
        images = oc.digit_map(oc.COLLATZ, 4)
        images[1], images[2] = images[2], images[1]
        with self.assertRaises(oc.Mismatch):
            oc.check_permutation(oc.COLLATZ, 4, images)
        self.assertFalse(oc.conjugacy_holds(oc.COLLATZ, 3, list(range(8))))

    def test_wrong_orbit_answers(self):
        orbit = oc.Orbit(oc.COLLATZ, Fraction(27), 10000)
        got = workloads.classified_plain(CG.classify_orbit(MAPS["collatz"], 27))
        with self.assertRaises(oc.Mismatch):
            oc.check_classified(orbit, got[:4] + (got[4] + 1,))
        with self.assertRaises(oc.Mismatch):
            oc.check_classified(orbit, None)
        phi = workloads.phi_plain(CG.phi_exact(MAPS["collatz"], 27))
        with self.assertRaises(oc.Mismatch):
            oc.check_phi(orbit, phi[:2] + (phi[2] + 1, phi[3]))
        short = oc.Orbit(oc.an_plus_b(5, 1), Fraction(7), 50)
        self.assertFalse(short.determined)
        with self.assertRaises(oc.Mismatch):
            oc.check_phi(short, phi)

    def test_wrong_census_and_sequences(self):
        found = workloads.census_plain(CG.cycles_with_denominator(1, 8))
        with self.assertRaises(oc.Mismatch):
            oc.check_census(1, 8, found[:-1], oc.census(8))
        with self.assertRaises(oc.Mismatch):
            oc.check_debruijn(2, 3, (0,) * 8, True)
        with self.assertRaises(oc.Mismatch):
            oc.check_lyndon_list(2, 4, [(0, 0, 0, 1), (0, 1, 1, 1)])


class SeededInputs(unittest.TestCase):
    def inputs(self, name, seed):
        wl = workloads.build(name, seed)
        wl.close()
        return [[job.inputs for job in jobs] for jobs in wl.rounds]

    def test_same_seed_same_inputs(self):
        for name in workloads.BUILDERS:
            self.assertEqual(self.inputs(name, 3), self.inputs(name, 3), name)

    def test_seed_changes_inputs(self):
        for name in workloads.BUILDERS:
            self.assertNotEqual(self.inputs(name, 3), self.inputs(name, 4), name)


def _span(i, start, end, parent=-1, hot_s=0.0):
    return spans.Span(i, f"s{i}", start, end, parent, 0, hot_s)


class SpanArithmetic(unittest.TestCase):
    def test_self_times_on_a_synthetic_tree(self):
        tree = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0, hot_s=0.5),
            _span(2, 5.0, 9.0, parent=0),
            _span(3, 6.0, 7.0, parent=2),
            _span(4, 6.5, 8.0, parent=2),  # overlaps its sibling: counted once
            _span(5, 2.0, 3.0, parent=1),
        ]
        own = spans.self_times(tree)
        self.assertEqual(own, {0: 3.0, 1: 1.5, 2: 2.0, 3: 1.0, 4: 1.5, 5: 1.0})

    def test_tracer_self_times_sum_to_the_job(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        leaf = tracer.wrap("maps.BranchMap.apply", lambda: None)  # hot
        inner = tracer.wrap("graphs.inner", lambda: (leaf(), leaf()))
        outer = tracer.wrap("conjugacy.outer", lambda: (inner(), leaf()))
        tracer.run_job(0, outer)
        total = tracer.total_s[spans.ROOT]
        self.assertAlmostEqual(sum(tracer.self_s.values()), total)
        self.assertEqual(tracer.calls["maps.BranchMap.apply"], 3)
        kept = {s.name for s in tracer.spans}
        self.assertEqual(kept, {spans.ROOT, "graphs.inner", "conjugacy.outer"})
        own = spans.self_times(tracer.spans)
        self.assertAlmostEqual(sum(own.values()) + sum(s.hot_s for s in tracer.spans), total)
        self.assertEqual(run._self_time_problems(tracer), [])

    def test_install_wraps_and_restores(self):
        original = LIB["graphs"].modular_graph
        tracer = spans.Tracer()
        restore = spans.install(tracer, CG, [LIB[layer] for layer in spans.LAYERS])
        try:
            self.assertIsNot(LIB["conjugacy"].modular_graph, original)
            self.assertIs(LIB["conjugacy"].modular_graph, CG.modular_graph)
            tracer.run_job(0, lambda: CG.verify_conjugacy(MAPS["collatz"], 3))
        finally:
            restore()
        self.assertIs(LIB["conjugacy"].modular_graph, original)
        self.assertIs(CG.modular_graph, original)
        self.assertEqual(tracer.calls["graphs.modular_graph"], 1)
        self.assertEqual(tracer.calls["maps.BranchMap.apply"], 2 * 8 + 8 * 3)


class BenchmarkSpec(unittest.TestCase):
    def test_names_match_run(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.BUILDERS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
