"""Tests for perfbench/check.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import tempfile
import unittest

import check


def random_agents(count, rng):
    return {f"a{i}": (rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            for i in range(count)}


class ClosedFormTest(unittest.TestCase):
    def test_paper_worked_example(self):
        # Two agents with elasticities (0.6, 0.4) and (0.2, 0.8) on
        # 24 GB/s and 12 MB: user2 gets 6 GB/s and 8 MB (paper, Sec. 4).
        shares = check.closed_form({"user1": (0.6, 0.4),
                                    "user2": (0.2, 0.8)})
        self.assertAlmostEqual(shares["user1"][0], 18.0)
        self.assertAlmostEqual(shares["user1"][1], 4.0)
        self.assertAlmostEqual(shares["user2"][0], 6.0)
        self.assertAlmostEqual(shares["user2"][1], 8.0)

    def test_scale_of_elasticities_does_not_matter(self):
        a = check.closed_form({"x": (0.3, 0.6), "y": (0.5, 0.5)})
        b = check.closed_form({"x": (0.1, 0.2), "y": (0.9, 0.9)})
        for name in a:
            for r in range(2):
                self.assertAlmostEqual(a[name][r], b[name][r], places=12)


class AllocationTest(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)
        self.agents = random_agents(300, self.rng)
        self.shares = check.closed_form(self.agents)

    def test_closed_form_passes(self):
        self.assertEqual(check.check_allocation(self.agents, self.shares),
                         [])

    def test_corrupted_share_fails(self):
        shares = dict(self.shares)
        s0, s1 = shares["a17"]
        shares["a17"] = (s0 * (1 + 1e-9), s1)
        errors = check.check_allocation(self.agents, shares)
        self.assertTrue(any("a17" in e for e in errors), errors)

    def test_missing_agent_fails(self):
        shares = dict(self.shares)
        del shares["a3"]
        self.assertTrue(check.check_allocation(self.agents, shares))

    def test_capacity_not_conserved_fails(self):
        # Same proportions, 1% of resource 0 withheld: the closed form
        # and conservation both catch it.
        shares = {n: (s[0] * 0.99, s[1]) for n, s in self.shares.items()}
        errors = check.check_allocation(self.agents, shares)
        self.assertTrue(any("sum to" in e for e in errors), errors)

    def test_equal_split_is_envy_free(self):
        count = len(self.agents)
        equal = [(24.0 / count, 12.0 / count)] * count
        rescaled = [check.rescale(e) for e in self.agents.values()]
        self.assertEqual(check.envy_violations(rescaled, equal), [])

    def test_swapped_bundles_are_envied(self):
        # Give a resource-0 lover the bundle of a resource-1 lover.
        agents = {"bw": (0.9, 0.1), "cache": (0.1, 0.9), "mid": (0.5, 0.5)}
        shares = check.closed_form(agents)
        shares["bw"], shares["cache"] = shares["cache"], shares["bw"]
        errors = check.check_allocation(agents, shares)
        self.assertTrue(any("EF violated" in e for e in errors), errors)


class EnvyTest(unittest.TestCase):
    def test_envelope_matches_pairwise_oracle(self):
        rng = random.Random(11)
        for trial in range(30):
            count = rng.randint(2, 60)
            rescaled = [check.rescale((rng.uniform(0.05, 1),
                                       rng.uniform(0.05, 1)))
                        for _ in range(count)]
            bundles = [(rng.uniform(0.01, 2), rng.uniform(0.01, 2))
                       for _ in range(count)]
            if trial % 3 == 0:
                # Closed-form bundles: envy-free, with near-ties.
                agents = {i: a for i, a in enumerate(rescaled)}
                form = check.closed_form(agents)
                bundles = [form[i] for i in range(count)]
            self.assertEqual(
                sorted(check.envy_violations(rescaled, bundles)),
                sorted(check.envy_violations_brute(rescaled, bundles)))

    def test_identical_tastes_and_bundles_are_not_envy(self):
        rescaled = [check.rescale((0.4, 0.6))] * 5
        bundles = [(1.0, 2.0)] * 5
        self.assertEqual(check.envy_violations(rescaled, bundles), [])


class QueryShareTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(3)
        self.agents = random_agents(100, rng)
        self.shares = check.closed_form(self.agents)

    def test_true_share_passes(self):
        for name, e in self.agents.items():
            self.assertTrue(check.check_query_share(
                self.shares[name], [e], 90, 110))

    def test_population_out_of_range_fails(self):
        e = self.agents["a5"]
        self.assertFalse(check.check_query_share(
            self.shares["a5"], [e], 101, 120))

    def test_wrong_elasticities_fail(self):
        self.assertFalse(check.check_query_share(
            self.shares["a5"], [self.agents["a6"]], 1, 1000))

    def test_any_candidate_may_explain_the_share(self):
        e = self.agents["a5"]
        self.assertTrue(check.check_query_share(
            self.shares["a5"], [(0.3, 0.3), e], 90, 110))

    def test_corrupted_share_fails(self):
        s0, s1 = self.shares["a5"]
        self.assertFalse(check.check_query_share(
            (s0, s1 * (1 + 1e-7)), [self.agents["a5"]], 1, 1000))


class RunChecksTest(unittest.TestCase):
    def test_epochs(self):
        self.assertEqual(check.check_epochs([2, 1, 3], 3), [])
        self.assertTrue(check.check_epochs([1, 3], 2))
        self.assertTrue(check.check_epochs([1, 2], 3))
        self.assertTrue(check.check_epochs([1, 1, 2], 3))

    def test_counters(self):
        sent = {"admit": 5, "update": 7, "depart": 2, "query": 9,
                "tick": 3, "assign": 5, "pool_create": 2}
        stats = {"admits": "5", "updates": "7", "departs": "2",
                 "queries": "9", "epochs": "3", "pool_assigns": "5",
                 "pool_creates": "2", "rejected": "0",
                 "journal_records": "24"}
        self.assertEqual(check.check_counters(stats, sent, 0, True), [])
        stats["journal_records"] = "0"
        self.assertEqual(check.check_counters(stats, sent, 0, False), [])
        stats["updates"] = "6"
        self.assertTrue(check.check_counters(stats, sent, 0, False))

    def test_bytes(self):
        self.assertEqual(check.check_bytes((120, 340, 120, 340)), [])
        self.assertTrue(check.check_bytes((121, 340, 120, 340)))
        self.assertTrue(check.check_bytes((120, 339, 120, 340)))

    def test_report_round_trip_and_restart(self):
        agents = {"c0_0": (0.25, 0.5), "c1_0": (0.75, 0.125)}
        shares = check.closed_form(agents)
        lines = ["workload test", "pooled 1", "journal 1",
                 "population 2 2", "failed 0",
                 "sent pool_create 0", "sent admit 2", "sent assign 2",
                 "sent update 0", "sent depart 0", "sent query 3",
                 "sent tick 2", "epochs 1 2", "timed_bytes 40 90 40 90",
                 "tick_ns 5 6",
                 "q {} {} 0.25 0.5".format(*map(repr, shares["c0_0"]))]
        for name, e in agents.items():
            lines.append(f"agent {name} {e[0]!r} {e[1]!r}")
        for name, s in shares.items():
            lines.append(f"share {name} {s[0]!r} {s[1]!r}")
            lines.append(f"restart_share {name} {s[0]!r} {s[1]!r}")
        stats = {"admits": 2, "updates": 0, "departs": 0, "queries": 3,
                 "epochs": 2, "pool_assigns": 2, "pool_creates": 0,
                 "rejected": 0, "journal_records": 6,
                 "state_hash": 1234}
        lines += [f"stat {k} {v}" for k, v in stats.items()]
        lines.append("restart_stat state_hash 1234")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.txt")
            with open(path, "w") as f:
                f.write("\n".join(lines) + "\n")
            report = check.read_report(path)
            self.assertEqual(check.check_report(report, restarted=True),
                             [])
            report["restart_stats"]["state_hash"] = "99"
            self.assertTrue(check.check_report(report, restarted=True))


if __name__ == "__main__":
    unittest.main()
