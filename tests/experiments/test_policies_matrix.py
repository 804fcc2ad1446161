"""Per-policy quality matrix."""

import pytest

from repro.experiments.policies_matrix import run_policy_matrix


@pytest.fixture(scope="module")
def result():
    return run_policy_matrix(cv_splits=3)


class TestMatrix:
    def test_all_three_policies(self, result):
        assert [r.policy for r in result.rows] == ["throughput", "latency", "energy"]

    def test_all_policies_schedulable(self, result):
        for row in result.rows:
            assert row.seen_accuracy > 0.85
            assert row.seen_f1 > 0.85
            assert row.unseen_accuracy > 0.8

    def test_latency_coincides_with_throughput(self, result):
        """For whole-batch requests min-latency == max-throughput, so the
        two policies label (and score) identically; they diverge only once
        queueing enters (the serving frontend)."""
        tput = result.row("throughput")
        lat = result.row("latency")
        assert lat.seen_accuracy == pytest.approx(tput.seen_accuracy)
        assert lat.class_distribution == tput.class_distribution

    def test_energy_labels_differ(self, result):
        energy = result.row("energy").class_distribution
        tput = result.row("throughput").class_distribution
        assert energy != tput
        assert energy["igpu"] > tput["igpu"]  # efficiency shifts labels to iGPU

    def test_unknown_policy_row(self, result):
        with pytest.raises(KeyError):
            result.row("carbon")

    def test_render(self, result):
        text = result.render()
        assert "latency" in text and "energy" in text and "label mix" in text
