"""Self-tests of the benchmark: exact counters and a gate that can fail.

    python3 -m unittest discover -s perfbench
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import run
import tracing
import workloads
from workloads import chain_maps, hb_model


def small_workloads():
    """Both workload kinds at sizes that take well under a second per trial."""
    lift = workloads.LiftWorkload()
    lift.n = 3
    return [
        workloads.CliWorkload("cli", workloads.cli_cells(5, 4, 6)),
        lift,
    ]


def traced_counters(workload, seed):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        phase = run.measure(workload, seed, 0, run.COUNT_TRIALS, tracer)
    metrics = tracing.layer_metrics(tracer, range(run.COUNT_TRIALS), len(phase.times), 0.0)
    return phase, {k: v["value"] for k, v in metrics.items() if v["unit"] != "s/trial"}


def corrupted(gamma):
    """The same images except that s{1} also hits s{2}, which breaks d(gamma) = gamma(d)."""
    images = dict(gamma.images)
    images[(1,)] = images[(1,)] + gamma.target.generator((2,))
    return chain_maps.ChainMap(gamma.source, gamma.target, images)


class ExactCounters(unittest.TestCase):
    def test_counters_repeat_for_a_seed(self):
        for workload in small_workloads():
            run.OUT.mkdir(exist_ok=True)
            with self.subTest(workload=workload.name), run.tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
                workload.setup(run.Path(scratch))
                first_phase, first = traced_counters(workload, 11)
                _, second = traced_counters(workload, 11)
                self.assertEqual(first_phase.failed, 0)
                self.assertEqual(first, second)
                self.assertGreater(first["polynomials.mul.calls"], 0)

    def test_instrumentation_is_removed(self):
        before = (hb_model.compose_to_gamma, workloads.cli.main, workloads.koszul.KElem.differential)
        with tracing.instrument(tracing.Tracer()):
            self.assertIsNot(hb_model.compose_to_gamma, before[0])
        self.assertEqual((hb_model.compose_to_gamma, workloads.cli.main,
                          workloads.koszul.KElem.differential), before)


class GateFails(unittest.TestCase):
    def run_main(self, argv, reference):
        out = io.StringIO()
        with mock.patch.object(run, "MIN_TRIALS", 2), mock.patch.object(run, "SETUP_PROBES", 1), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(argv, reference=reference)
        return code, json.loads(out.getvalue().splitlines()[-1])

    def reference(self, **digests):
        reference = json.loads(run.REFERENCE.read_text())
        for name, digest in digests.items():
            reference["workloads"][name]["verdict_digest"] = digest
        return reference

    def test_wrong_reference_digest_fails(self):
        code, result = self.run_main(
            ["--workload", "cli", "--seconds", "1"], self.reference(cli="0" * 16)
        )
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_non_chain_map_fails(self):
        compose = hb_model.compose_to_gamma
        with mock.patch.object(hb_model, "compose_to_gamma", lambda a, b: corrupted(compose(a, b))):
            code, result = self.run_main(["--workload", "lift", "--seconds", "1"], self.reference())
        self.assertNotEqual(code, 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_correct_run_passes(self):
        code, result = self.run_main(["--workload", "cli", "--seconds", "1"], self.reference())
        self.assertEqual(code, 0)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {"trial_s_p50", "trial_s_tail", "trials_per_s", "setup_s", "peak_rss_mb"})


class Tail(unittest.TestCase):
    def test_ten_trials_beyond(self):
        value, percentile = run.tail([float(i) for i in range(30)])
        self.assertEqual(value, 19.0)
        self.assertAlmostEqual(percentile, 100 * 20 / 30)


if __name__ == "__main__":
    unittest.main()
