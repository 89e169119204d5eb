"""tdigest_ray — Ray-Data-native mergeable-sketch / approximate-aggregation
library (t-digest centerpiece + HLL, count-min, KLL, Bloom siblings).

Public surface:

* :mod:`tdigest_ray.sketches` — the sketch algorithms (pure NumPy, no Ray).
* :mod:`tdigest_ray.aggregates` — ``AggregateFnV2`` adapters for
  ``Dataset.aggregate`` / ``Dataset.groupby(...).aggregate``.
* :mod:`tdigest_ray.functions` — scalar functions & serde (text / binary /
  json / float-array wire formats, incremental add/union).
* :mod:`tdigest_ray.stages` — map_batches transforms: feature extraction,
  text stats, dedup, similarity search, multimodal plumbing.
* :mod:`tdigest_ray.pipelines` — composed pipelines (flagship pages rollup).
* :mod:`tdigest_ray.state` — checkpoint/resume manifests.
* :mod:`tdigest_ray.sources` — deterministic synthetic sources.
"""

from tdigest_ray.sketches.tdigest import TDigest, from_value_count  # noqa: F401
from tdigest_ray.sketches.hll import HLL  # noqa: F401
from tdigest_ray.sketches.countmin import CountMin  # noqa: F401
from tdigest_ray.sketches.kll import KLL  # noqa: F401
from tdigest_ray.sketches.bloom import BloomFilter  # noqa: F401
from tdigest_ray.functions.scalar import (  # noqa: F401
    tdigest_add,
    tdigest_cdf,
    tdigest_count,
    tdigest_digest_avg,
    tdigest_digest_sum,
    tdigest_quantile,
    tdigest_union,
)

__version__ = "0.1.0"
