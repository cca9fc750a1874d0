import math
import random
import tracemalloc

import pytest

from ccnprobe.metrics import (AccountingError, MetricsReport, average_delay,
                              classify_qos, jitter, packet_loss,
                              provider_accuracy, throughput)


class TestPacketLoss:
    def test_ten_percent(self):
        assert packet_loss(100, 90) == 10.0

    def test_lossless(self):
        assert packet_loss(100, 100) == 0.0

    def test_empty_run_convention(self):
        assert packet_loss(0, 0) == 0.0

    def test_scale_invariance(self):
        assert packet_loss(37, 11) == pytest.approx(packet_loss(370, 110))

    def test_received_above_sent_is_an_accounting_error(self):
        with pytest.raises(AccountingError):
            packet_loss(10, 11)


class TestAverageDelay:
    def test_mean_of_two(self):
        assert average_delay([100.0, 300.0]) == 200.0

    def test_singleton(self):
        assert average_delay([275.0]) == 275.0

    def test_empty_is_zero(self):
        assert average_delay([]) == 0.0

    def test_matches_high_precision_reference(self):
        rng = random.Random(17)
        samples = [rng.uniform(0.1, 900.0) for _ in range(10_000)]
        reference = math.fsum(samples) / len(samples)
        assert average_delay(samples) == pytest.approx(reference, rel=1e-9)


class TestJitter:
    def test_zero_variance(self):
        assert jitter([2.0, 2.0, 2.0]) == 0.0

    def test_two_samples(self):
        assert jitter([1.0, 3.0]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_singleton_undefined_is_zero(self):
        assert jitter([5.0]) == 0.0
        assert jitter([]) == 0.0

    @pytest.mark.parametrize("c", [0.0, 1.5, 275.0])
    def test_constant_series_property(self, c):
        assert jitter([c] * 7) == 0.0

    def test_matches_statistics_stdev(self):
        import statistics
        rng = random.Random(3)
        samples = [rng.gauss(200, 40) for _ in range(500)]
        assert jitter(samples) == pytest.approx(statistics.stdev(samples), rel=1e-12)


class TestThroughput:
    def test_table3_back_solved_form(self):
        assert throughput(40800, 480) == 85.0

    def test_idle_network(self):
        assert throughput(0, 480) == 0.0

    def test_unit_rate(self):
        assert throughput(480, 480) == 1.0

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            throughput(10, 0)


class TestProviderAccuracy:
    def test_half(self):
        assert provider_accuracy(1, 2) == 50.0

    def test_published_precision(self):
        assert provider_accuracy(2139, 10000) == pytest.approx(21.39)

    def test_no_selections(self):
        assert provider_accuracy(0, 0) == 0.0

    def test_hits_above_total_rejected(self):
        with pytest.raises(AccountingError):
            provider_accuracy(3, 2)


def qos_report(tp, loss, delay, jit):
    report = MetricsReport()
    report.throughput_pkt_s = tp
    report.packet_loss_pct = loss
    report.avg_delay_ms = delay
    report.jitter_ms = jit
    return report


class TestClassifyQos:
    def test_basic_ccn_row(self):
        cats = classify_qos(qos_report(85, 11.4, 275, 183))
        assert cats == {"throughput": "Good", "packet_loss": "Good",
                        "delay": "Bad", "jitter": "Bad"}

    def test_pit_probe_row_jitter_is_good(self):
        cats = classify_qos(qos_report(87, 10.54, 217, 116))
        assert cats == {"throughput": "Good", "packet_loss": "Good",
                        "delay": "Bad", "jitter": "Good"}

    def test_fib_probe_row(self):
        cats = classify_qos(qos_report(90, 10.34, 221, 126))
        assert cats == {"throughput": "Good", "packet_loss": "Good",
                        "delay": "Bad", "jitter": "Bad"}

    def test_zero_traffic_edges(self):
        cats = classify_qos(qos_report(0, 0, 0, 0))
        assert cats == {"throughput": "Bad", "packet_loss": "Good",
                        "delay": "Good", "jitter": "Good"}


class TestFinalize:
    def complete_report(self):
        report = MetricsReport(duration=10.0)
        report.issued_interests = 4
        report.satisfied_count = 3
        report.pending_at_end = 1
        report.sent_interests = 6
        report.received_interests = 6
        report.sent_data = 4
        report.received_data = 3
        report.delivered_data = 3
        report.hop_count_sum = 6
        for s in (0.1, 0.2, 0.3):
            report.response_time_samples.append(s)
        return report

    def test_derived_values(self):
        report = self.complete_report().finalize()
        assert report.sent_packets == 10
        assert report.received_packets == 9
        assert report.packet_loss_pct == pytest.approx(10.0)
        assert report.throughput_pkt_s == pytest.approx(0.9)
        assert report.avg_delay_ms == pytest.approx(200.0)
        assert report.avg_response_time_s == pytest.approx(0.2)
        assert report.hop_count_mean == pytest.approx(2.0)

    def test_delay_samples_are_response_times_in_ms(self):
        report = self.complete_report()
        assert list(report.delay_samples) == [100.0, 200.0, 300.0]

    def test_finalize_allocates_under_16_bytes_a_sample(self):
        # A boxed float in a list costs 32 bytes; an unboxed double 8.
        n = 100_000
        report = MetricsReport(duration=10.0, issued_interests=n,
                               satisfied_count=n)
        for i in range(n):
            report.response_time_samples.append(i * 1e-6)
        tracemalloc.start()
        try:
            report.finalize()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 16

    def test_interest_conservation_enforced(self):
        report = self.complete_report()
        report.satisfied_count = 1  # break the identity
        with pytest.raises(AccountingError):
            report.finalize()

    def test_per_class_received_bound_enforced(self):
        report = self.complete_report()
        report.received_data = 99
        with pytest.raises(AccountingError):
            report.finalize()

    def test_empty_run_warns(self):
        report = MetricsReport(duration=10.0).finalize()
        assert report.avg_delay_ms == 0.0
        assert report.jitter_ms == 0.0

    def test_csv_values_align_with_fields(self):
        report = self.complete_report().finalize()
        values = report.csv_values()
        assert len(values) == len(MetricsReport.CSV_FIELDS)
        by_name = dict(zip(MetricsReport.CSV_FIELDS, values))
        assert by_name["issued_interests"] == 4
        assert by_name["packet_loss_pct"] == pytest.approx(10.0)
