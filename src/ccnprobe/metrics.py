"""Run counters and the evaluation metrics: loss, delay, jitter, throughput,
provider accuracy, and QoS categorization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class AccountingError(RuntimeError):
    """A conservation or counting invariant was violated; the run is invalid."""


def packet_loss(sent: int, received: int) -> float:
    """Lost fraction of sent packets, as a percentage. (0, 0) -> 0."""
    if received > sent:
        raise AccountingError(f"received {received} > sent {sent}")
    if sent == 0:
        return 0.0
    return (sent - received) / sent * 100.0


def average_delay(samples: list[float]) -> float:
    """Arithmetic mean of delay samples; 0 for an empty list."""
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def jitter(samples: list[float]) -> float:
    """Sample standard deviation of delays; undefined below 2 samples -> 0."""
    n = len(samples)
    if n < 2:
        return 0.0
    mean = sum(samples) / n
    return math.sqrt(sum((d - mean) ** 2 for d in samples) / (n - 1))


def throughput(received_total: int, duration: float) -> float:
    """Packets received per second over the whole run."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    return received_total / duration


def provider_accuracy(hits: int, total: int) -> float:
    """Share of data arrivals matching the expected provider, as a percent."""
    if hits > total:
        raise AccountingError(f"accuracy hits {hits} > total {total}")
    if total == 0:
        return 0.0
    return hits / total * 100.0


# QoS category thresholds.
THROUGHPUT_GOOD_PKT_S = 75.0   # Good above this
PACKET_LOSS_GOOD_PCT = 15.0    # Good below this
DELAY_BAD_MS = 125.0           # Bad above this
JITTER_BAD_MS = 125.0          # Good below this


def classify_qos(report: "MetricsReport") -> dict[str, str]:
    """Good/Bad category per QoS metric of a finalized report."""
    return {
        "throughput": "Good" if report.throughput_pkt_s > THROUGHPUT_GOOD_PKT_S else "Bad",
        "packet_loss": "Good" if report.packet_loss_pct < PACKET_LOSS_GOOD_PCT else "Bad",
        "delay": "Bad" if report.avg_delay_ms > DELAY_BAD_MS else "Good",
        "jitter": "Good" if report.jitter_ms < JITTER_BAD_MS else "Bad",
    }


@dataclass
class MetricsReport:
    """Counters and samples accumulated over one simulation run."""

    duration: float = 0.0
    issued_interests: int = 0
    timeout_count: int = 0           # PIT entries that missed a deadline
    satisfied_count: int = 0
    unsatisfied_timeout: int = 0     # given up after retries
    unsatisfied_failed: int = 0      # origin router crashed while pending
    pending_at_end: int = 0
    sent_interests: int = 0
    received_interests: int = 0
    sent_data: int = 0
    received_data: int = 0
    expected_provider_hits: int = 0
    expected_provider_total: int = 0
    hop_count_sum: int = 0           # data hops to reach the origin router
    delivered_data: int = 0
    response_time_samples: list[float] = field(default_factory=list)  # seconds
    # Derived at finalize().
    sent_packets: int = 0
    received_packets: int = 0
    throughput_pkt_s: float = 0.0
    packet_loss_pct: float = 0.0
    avg_delay_ms: float = 0.0
    jitter_ms: float = 0.0
    avg_response_time_s: float = 0.0
    hop_count_mean: float = 0.0
    provider_accuracy_pct: float = 0.0

    @property
    def forwarded_interests(self) -> int:
        """Router-to-router interest transmissions."""
        return self.sent_interests

    @property
    def unsatisfied_count(self) -> int:
        return self.unsatisfied_timeout + self.unsatisfied_failed

    @property
    def delay_samples(self) -> list[float]:
        """The response times in milliseconds."""
        return [s * 1000.0 for s in self.response_time_samples]

    def finalize(self) -> "MetricsReport":
        """Compute the derived metrics and audit the conservation identities."""
        self.sent_packets = self.sent_interests + self.sent_data
        self.received_packets = self.received_interests + self.received_data
        self.packet_loss_pct = packet_loss(self.sent_packets, self.received_packets)
        if self.received_interests > self.sent_interests:
            raise AccountingError("more interests received than sent")
        if self.received_data > self.sent_data:
            raise AccountingError("more data received than sent")
        accounted = (self.satisfied_count + self.unsatisfied_timeout
                     + self.unsatisfied_failed + self.pending_at_end)
        if accounted != self.issued_interests:
            raise AccountingError(
                f"interest conservation violated: issued {self.issued_interests}, "
                f"accounted {accounted}")
        self.throughput_pkt_s = (throughput(self.received_packets, self.duration)
                                 if self.duration > 0 else 0.0)
        delays = self.delay_samples
        self.avg_delay_ms = average_delay(delays)
        self.jitter_ms = jitter(delays)
        self.avg_response_time_s = average_delay(self.response_time_samples)
        self.hop_count_mean = (self.hop_count_sum / self.delivered_data
                               if self.delivered_data else 0.0)
        self.provider_accuracy_pct = provider_accuracy(
            self.expected_provider_hits, self.expected_provider_total)
        return self

    # CSV schema shared by run and sweep outputs.
    CSV_FIELDS = (
        "issued_interests", "forwarded_interests", "timeout_count",
        "satisfied_count", "unsatisfied_count", "pending_at_end",
        "sent_packets", "received_packets", "packet_loss_pct",
        "throughput_pkt_s", "avg_response_time_s", "avg_delay_ms",
        "jitter_ms", "provider_accuracy_pct", "expected_provider_hits",
        "expected_provider_total", "hop_count_sum", "hop_count_mean",
    )

    def csv_values(self) -> list:
        return [getattr(self, name) for name in self.CSV_FIELDS]
