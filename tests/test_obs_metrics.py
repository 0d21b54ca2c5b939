"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json
import math

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    parse_prometheus,
    reset_metrics,
    set_metrics,
)


@pytest.fixture(autouse=True)
def clean_metrics():
    set_metrics(False)
    reset_metrics()
    yield
    set_metrics(False)
    reset_metrics()


class TestGlobals:
    def test_disabled_by_default(self):
        assert not metrics_enabled()

    def test_enable_and_reset(self):
        set_metrics(True)
        assert metrics_enabled()
        reg = get_registry()
        assert isinstance(reg, MetricsRegistry)
        reg.inc("c")
        reset_metrics()
        assert get_registry().counter_values() == {}


class TestCounters:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("repro_verdicts_total", method="P+C", stage="filter")
        reg.inc("repro_verdicts_total", method="P+C", stage="filter")
        reg.inc("repro_verdicts_total", method="P+C", stage="refinement", value=3)
        flat = reg.counter_values()
        assert flat['repro_verdicts_total{method="P+C",stage="filter"}'] == 2
        assert flat['repro_verdicts_total{method="P+C",stage="refinement"}'] == 3

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.inc("c", a="1", b="2")
        reg.inc("c", b="2", a="1")
        assert list(reg.counter_values().values()) == [2]

    def test_merge_sums_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", k="x")
        b.inc("c", k="x", value=4)
        b.inc("c", k="y")
        a.merge(b)
        flat = a.counter_values()
        assert flat['c{k="x"}'] == 5
        assert flat['c{k="y"}'] == 1


class TestHistogram:
    def test_bucket_boundaries_are_powers_of_two(self):
        h = Histogram()
        for v in (1.0, 1.5, 2.0, 3.0, 4.0, 0.25):
            h.observe(v)
        assert h.count == 6
        assert h.sum == pytest.approx(11.75)
        # Dict keys are each bucket's upper bound: [1,2) holds 1.0 and
        # 1.5; [2,4) holds 2.0 and 3.0; [4,8) holds 4.0; [0.25,0.5)
        # holds 0.25.
        buckets = h.to_dict()["buckets"]
        assert buckets["2.0"] == 2
        assert buckets["4.0"] == 2
        assert buckets["8.0"] == 1
        assert buckets["0.5"] == 1

    def test_non_positive_goes_to_underflow(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.to_dict()["buckets"] == {"0": 2}

    def test_merge_is_exact(self):
        a, b = Histogram(), Histogram()
        values_a = [0.001, 0.5, 7.0]
        values_b = [0.001, 1024.0]
        for v in values_a:
            a.observe(v)
        for v in values_b:
            b.observe(v)
        a.merge(b)
        ref = Histogram()
        for v in values_a + values_b:
            ref.observe(v)
        assert a.buckets == ref.buckets
        assert a.count == ref.count
        assert a.sum == pytest.approx(ref.sum)

    def test_extreme_values_clamp(self):
        h = Histogram()
        h.observe(1e300)
        h.observe(1e-300)
        assert h.count == 2  # no crash, exponents clamped


class TestExport:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.inc("repro_verdicts_total", method="P+C", stage="filter", value=7)
        reg.inc("repro_verdicts_total", method="P+C", stage="refinement", value=2)
        reg.observe("repro_refine_latency_seconds", 0.003, method="P+C")
        reg.observe("repro_refine_latency_seconds", 0.004, method="P+C")
        reg.observe("repro_april_intervals", 120.0, list="p")
        return reg

    def test_to_dict_is_json_serialisable(self):
        reg = self._populated()
        text = json.dumps(reg.to_dict(), allow_nan=False)
        assert "repro_verdicts_total" in text

    def test_prometheus_round_trip(self):
        reg = self._populated()
        text = reg.to_prometheus()
        assert "# TYPE repro_verdicts_total counter" in text
        assert "# TYPE repro_refine_latency_seconds histogram" in text
        parsed = parse_prometheus(text)
        assert parsed['repro_verdicts_total{method="P+C",stage="filter"}'] == 7.0
        # Histogram exposition: cumulative buckets end at +Inf == count.
        inf_keys = [k for k in parsed if "+Inf" in k and "refine_latency" in k]
        assert len(inf_keys) == 1
        assert parsed[inf_keys[0]] == 2.0
        count_keys = [k for k in parsed if k.startswith("repro_refine_latency_seconds_count")]
        assert parsed[count_keys[0]] == 2.0

    def test_prometheus_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 100.0):
            reg.observe("h", v)
        parsed = parse_prometheus(reg.to_prometheus())
        bucket_items = sorted(
            (float(k.split('le="')[1].rstrip('"}')), v)
            for k, v in parsed.items()
            if k.startswith('h_bucket') and "+Inf" not in k
        )
        counts = [v for _, v in bucket_items]
        assert counts == sorted(counts), "bucket counts must be non-decreasing"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus\n")

    def test_registry_merge_matches_serial(self):
        # The worker-merge contract: two half-registries merged equal
        # one registry fed everything.
        whole = MetricsRegistry()
        left, right = MetricsRegistry(), MetricsRegistry()
        samples = [(0.001, "A"), (0.02, "A"), (0.3, "B"), (4.0, "B")]
        for k, (v, m) in enumerate(samples):
            whole.inc("repro_verdicts_total", method=m)
            whole.observe("repro_refine_latency_seconds", v, method=m)
            part = left if k % 2 == 0 else right
            part.inc("repro_verdicts_total", method=m)
            part.observe("repro_refine_latency_seconds", v, method=m)
        left.merge(right)
        assert left.counter_values() == whole.counter_values()
        assert left.to_dict()["histograms"] == whole.to_dict()["histograms"]


class TestBucketMath:
    def test_bucket_exponent_matches_log2(self):
        from repro.obs.metrics import _bucket_of

        for v in (0.7, 1.0, 1.99, 2.0, 1023.0, 1024.0):
            assert _bucket_of(v) == math.floor(math.log2(v))


class TestQuantiles:
    def test_empty_histogram_is_zero(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.quantiles() == {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_out_of_range_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_exact_at_bucket_boundaries(self):
        h = Histogram()
        # All mass in [2, 4): p100 estimate is the bucket's upper bound.
        for _ in range(8):
            h.observe(2.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_within_factor_two_of_truth(self):
        h = Histogram()
        values = [0.001 * (1.13 ** k) for k in range(200)]
        for v in values:
            h.observe(v)
        truth = sorted(values)
        for q in (0.50, 0.90, 0.99):
            estimate = h.quantile(q)
            exact = truth[min(len(truth) - 1, int(q * len(truth)))]
            assert exact / 2 <= estimate <= exact * 2, (q, estimate, exact)

    def test_monotone_in_q(self):
        h = Histogram()
        for v in (0.5, 1.5, 3.0, 10.0, 80.0):
            h.observe(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)

    def test_underflow_quantile_is_zero(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.quantile(0.5) == 0.0

    def test_to_dict_includes_quantiles(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0, method="P+C")
        (hist,) = reg.to_dict()["histograms"]
        assert set(hist["quantiles"]) == {"p50", "p90", "p99"}

    def test_prometheus_summary_round_trip(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.002, 0.004, 0.01, 0.4):
            reg.observe("repro_refine_latency_seconds", v, method="P+C")
        text = reg.to_prometheus()
        assert "# TYPE repro_refine_latency_seconds_summary summary" in text
        parsed = parse_prometheus(text)
        hist = reg.histograms[
            ("repro_refine_latency_seconds", (("method", "P+C"),))
        ]
        for label, q in (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)):
            key = (
                'repro_refine_latency_seconds_summary'
                f'{{method="P+C",quantile="{label}"}}'
            )
            assert parsed[key] == pytest.approx(hist.quantile(q))
        assert parsed[
            'repro_refine_latency_seconds_summary_sum{method="P+C"}'
        ] == pytest.approx(hist.sum)

    def test_summary_family_contiguous(self):
        # Prometheus format demands one contiguous block per family.
        reg = MetricsRegistry()
        reg.observe("a_hist", 1.0)
        reg.observe("b_hist", 2.0)
        lines = reg.to_prometheus().splitlines()
        families = []
        for line in lines:
            name = line.split("{")[0].split(" ")[-2 if line.startswith("#") else 0]
            if line.startswith("# TYPE"):
                name = line.split()[2]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
            if not families or families[-1] != name:
                families.append(name)
        assert len(families) == len(set(families)), families
