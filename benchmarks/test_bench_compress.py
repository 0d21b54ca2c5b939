"""Compressed-payload benchmark: size and warm-join cost of the codecs.

Builds the OLE-OPE indexes twice — once with the default ``varint``
payload codec and once with the v1 ``raw`` layout — and measures two
gates at the two grid configurations they are about:

* **Warm-join gate** at the ``BENCH_store.json`` configuration (grid
  order 13): warm end-to-end joins with a fresh ``Engine`` per round;
  the varint path must stay within 5% of the raw warm path — the
  exact pipeline the store benchmark's baseline measures — on the
  same box in the same run.
* **Size gate** at grid order 14, one step finer: total payload bytes
  per object; varint must be at least 3x smaller than the raw npz
  layout. The finer grid is where compression matters (the paper's
  real datasets rasterise at order 16): interval counts quadruple
  while the varint stream grows by small gaps, whereas the raw layout
  pays two zlib'd 64-bit words per interval. At coarse orders the
  fixed per-file overhead dilutes the ratio — order 13 numbers are
  recorded alongside, ungated, for the trajectory.

Both configurations assert the join rows are bit-identical across
codecs, and the stored payloads decode identically through the block
decoder and the scalar oracle (``tests/oracles``). Appends
an entry to ``BENCH_COMPRESS.json`` at the repo root so the codec's
size and speed are tracked across commits.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.datasets import load_scenario
from repro.datasets.io import save_wkt_file
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.store import Engine, build_dataset

from tests.oracles import compression as oracle_compression

SCENARIO = "OLE-OPE"
SCALE = 0.4
GRID_ORDER = 13  # the BENCH_store warm-baseline configuration
SIZE_GRID_ORDER = 14  # the fine-grid configuration the size gate runs at
WARM_ROUNDS = 5

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_COMPRESS.json"
STORE_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_store.json"


def record(entry: dict) -> None:
    from conftest import record_entry

    record_entry(BENCH_PATH, entry)


def _rows(run):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


def _build(base, codec, grid_order):
    data = load_scenario(SCENARIO, scale=SCALE, grid_order=GRID_ORDER)
    r_file, s_file = base / "r.wkt", base / "s.wkt"
    save_wkt_file(r_file, [o.polygon for o in data.r_objects])
    save_wkt_file(s_file, [o.polygon for o in data.s_objects])
    r_idx = build_dataset(r_file, base / "r_idx", grid_order=None, payload_codec=codec)
    s_idx = build_dataset(s_file, base / "s_idx", grid_order=None, payload_codec=codec)
    # The cold join rasterises both datasets on the shared grid and
    # persists the payloads with each index's configured codec.
    cold = Engine().join(base / "r_idx", base / "s_idx", grid_order=grid_order)
    return len(r_idx), len(s_idx), cold


def _payload_bytes(index_dir):
    payload_dir = Path(index_dir) / "april"
    return sum(f.stat().st_size for f in payload_dir.glob("*.npz"))


def _warm_round(base):
    t0 = time.perf_counter()
    run = Engine().join(base / "r_idx", base / "s_idx", grid_order=GRID_ORDER)
    return time.perf_counter() - t0, run


@pytest.fixture(scope="module")
def codec_indexes(tmp_path_factory):
    varint_base = tmp_path_factory.mktemp("compress_varint")
    raw_base = tmp_path_factory.mktemp("compress_raw")
    r_count, s_count, varint_cold = _build(varint_base, "varint", GRID_ORDER)
    _build(raw_base, "raw", GRID_ORDER)
    return varint_base, raw_base, r_count, s_count, varint_cold


def test_compressed_payloads(codec_indexes, tmp_path_factory):
    varint_base, raw_base, r_count, s_count, cold = codec_indexes
    n_objects = r_count + s_count

    raw_bytes = _payload_bytes(raw_base / "r_idx") + _payload_bytes(raw_base / "s_idx")
    varint_bytes = _payload_bytes(varint_base / "r_idx") + _payload_bytes(
        varint_base / "s_idx"
    )
    size_ratio = raw_bytes / varint_bytes

    # Warm timings first (before the fine-grid builds churn memory),
    # interleaved round by round so page-cache and allocator state are
    # symmetric between the codecs, metrics off so instrumentation
    # cost cannot skew the comparison.
    varint_warm = raw_warm = float("inf")
    varint_run = raw_run = None
    for _ in range(WARM_ROUNDS):
        seconds, varint_run = _warm_round(varint_base)
        varint_warm = min(varint_warm, seconds)
        seconds, raw_run = _warm_round(raw_base)
        raw_warm = min(raw_warm, seconds)

    # One untimed round per codec with metrics on, for the stored/
    # decoded byte counters the entry records.
    reset_metrics()
    set_metrics(True)
    try:
        _warm_round(varint_base)
        _warm_round(raw_base)
    finally:
        set_metrics(False)

    # Bit-identical rows: varint vs raw, warm vs cold; and every stored
    # varint object decodes the same through the block decoder and the
    # scalar oracle.
    assert _rows(varint_run) == _rows(cold)
    assert _rows(raw_run) == _rows(cold)
    engine = Engine()
    rd, sd = (engine.dataset(varint_base / name) for name in ("r_idx", "s_idx"))
    grid = engine.join_grid(rd, sd, GRID_ORDER)
    for dataset in (rd, sd):
        payload = dataset.approximations(grid)[0].payload
        for k, fast in enumerate(payload.decode_block(range(len(payload)))):
            scalar = oracle_compression.decode_one(payload, k)
            assert (fast.p, fast.c) == (scalar.p, scalar.c)

    # Size gate at the fine grid: rebuild both codec index pairs one
    # order finer and compare total payload footprints.
    fine_varint = tmp_path_factory.mktemp("compress_varint_fine")
    fine_raw = tmp_path_factory.mktemp("compress_raw_fine")
    _, _, fine_varint_cold = _build(fine_varint, "varint", SIZE_GRID_ORDER)
    _, _, fine_raw_cold = _build(fine_raw, "raw", SIZE_GRID_ORDER)
    assert _rows(fine_raw_cold) == _rows(fine_varint_cold)
    fine_raw_bytes = _payload_bytes(fine_raw / "r_idx") + _payload_bytes(
        fine_raw / "s_idx"
    )
    fine_varint_bytes = _payload_bytes(fine_varint / "r_idx") + _payload_bytes(
        fine_varint / "s_idx"
    )
    fine_size_ratio = fine_raw_bytes / fine_varint_bytes

    counters = get_registry().counters
    stored = {
        dict(key[1]).get("codec", ""): value
        for key, value in counters.items()
        if key[0] == "repro_payload_stored_bytes_total"
    }
    decoded = sum(
        value
        for key, value in counters.items()
        if key[0] == "repro_payload_decoded_bytes_total"
    )

    warm_ratio = varint_warm / raw_warm
    store_baseline = None
    if STORE_BENCH_PATH.exists():
        trajectory = json.loads(STORE_BENCH_PATH.read_text())
        if trajectory:
            store_baseline = trajectory[-1].get("warm_seconds")

    record(
        {
            "kind": "compressed_payloads",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "r_objects": r_count,
            "s_objects": s_count,
            "links": len(cold),
            "cpu_count": os.cpu_count(),
            "raw_payload_bytes": raw_bytes,
            "varint_payload_bytes": varint_bytes,
            "raw_bytes_per_object": round(raw_bytes / n_objects, 1),
            "varint_bytes_per_object": round(varint_bytes / n_objects, 1),
            "size_ratio": round(size_ratio, 3),
            "size_grid_order": SIZE_GRID_ORDER,
            "fine_raw_bytes_per_object": round(fine_raw_bytes / n_objects, 1),
            "fine_varint_bytes_per_object": round(fine_varint_bytes / n_objects, 1),
            "fine_size_ratio": round(fine_size_ratio, 3),
            "raw_warm_seconds": round(raw_warm, 4),
            "varint_warm_seconds": round(varint_warm, 4),
            "warm_ratio": round(warm_ratio, 4),
            "store_bench_warm_seconds": store_baseline,
            "stored_bytes_by_codec": stored,
            "decoded_bytes_total": decoded,
            "results_identical": True,
        }
    )

    # Gates: >=3x smaller payloads at the fine grid, warm join within
    # 5% of the raw (BENCH_store baseline) warm path on the same box.
    assert fine_size_ratio >= 3.0
    assert warm_ratio <= 1.05
