"""Deterministic Common-Crawl-style ``pages`` table (FIXTURES.md F1).

Schema per BASELINE.json ``input_hint``:
``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``.

Every row is a pure function of its row id (SplitMix64-derived), so any
shard/batch split yields identical content — generation itself runs as a Ray
pipeline (``ray.data.range -> map_batches -> write_parquet``) and the output
is cached per (nrows, shards) under a content-addressed directory.

``html`` deterministically wraps ``text`` so the extractor's output is
byte-identical per url (the ``input_hint`` invariant).

Language mix is intentionally Zipfian (en-heavy) to exercise hot-key
handling in grouped digests.
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pyarrow as pa

import ray

from tdigest_ray.sketches.hashing import splitmix64
from tdigest_ray.stages.features import HTML_PREFIX, HTML_SUFFIX

# Zipf-ish language mix (web-text reality: en >> rest)
LANGS = ["en", "zh", "es", "de", "fr", "ja", "ru", "pt", "other"]
LANG_CUM = np.cumsum([0.55, 0.12, 0.08, 0.06, 0.05, 0.04, 0.03, 0.03, 0.04])

# small per-language vocabularies (deterministic synthetic prose)
_VOCABS = {
    "en": "the quick data stream page web crawl index token model train".split(),
    "zh": "数据 网页 模型 训练 索引 流 抓取 语言 文本 统计".split(),
    "es": "los datos página web modelo tren índice flujo texto lengua".split(),
    "de": "die daten seite netz modell zug index strom text sprache".split(),
    "fr": "les données page toile modèle train index flux texte langue".split(),
    "ja": "データ ページ モデル 訓練 索引 流れ 収集 言語 文書 統計".split(),
    "ru": "данные страница сеть модель поезд индекс поток текст язык веб".split(),
    "pt": "os dados página rede modelo trem índice fluxo texto língua".split(),
    "other": "lorem ipsum dolor sit amet consectetur adipiscing elit sed do".split(),
}
EPOCH = datetime.datetime(2025, 1, 1)


def _gen_batch(batch: pa.Table) -> pa.Table:
    ids = batch.column("id").to_numpy(zero_copy_only=False).astype(np.uint64)
    h = splitmix64(ids)
    # language from the Zipfian mix
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    lang_idx = np.searchsorted(LANG_CUM, u, side="right").clip(0, len(LANGS) - 1)
    # token count: skewed (pow2 of uniform scaled to [3, ~600])
    h2 = splitmix64(h)
    u2 = (h2 >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    ntok = (3 + (u2**2) * 600).astype(np.int64)

    texts = []
    for i in range(len(ids)):
        vocab = _VOCABS[LANGS[lang_idx[i]]]
        n = int(ntok[i])
        seed = int(h2[i])
        # deterministic token sequence: linear probe over the vocab
        idxs = (seed + 2654435761 * np.arange(n, dtype=np.uint64)) % len(vocab)
        texts.append(" ".join(vocab[j] for j in idxs))

    urls = [f"https://site{int(i) % 1000}.example/{int(i)}" for i in ids]
    ts = [EPOCH + datetime.timedelta(seconds=int(i)) for i in ids]
    htmls = [HTML_PREFIX + t.encode("utf-8") + HTML_SUFFIX for t in texts]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[j] for j in lang_idx], pa.string()),
        }
    )


def generate_pages(nrows: int, out_dir: str, shards: int = 16) -> str:
    """Materialize the deterministic pages table as partitioned Parquet
    (one file per shard — the resumable-output layout)."""
    (
        ray.data.range(nrows, override_num_blocks=shards)
        .map_batches(_gen_batch, batch_format="pyarrow")
        .write_parquet(out_dir)
    )
    return out_dir


def pages_path(nrows: int, root: str = "/tmp/tdigest_ray_pages",
               shards: int = 16) -> str:
    """Cached deterministic pages table for tests/benchmarks."""
    out = os.path.join(root, f"n{nrows}_s{shards}")
    marker = os.path.join(out, "_SUCCESS")
    if not os.path.exists(marker):
        os.makedirs(out, exist_ok=True)
        generate_pages(nrows, out, shards)
        with open(marker, "w") as f:
            f.write("ok")
    return out
