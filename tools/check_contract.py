"""Local simulation of the driver's correctness gate: run every queries()
entry at the given sf and compare against oracle_sql() via DuckDB
(row count + column names + order-insensitive values)."""

import os
import sys

import duckdb
import numpy as np
import pandas as pd

import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            try:
                df[c] = df[c].astype(str)
            except Exception:
                pass
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main(sf_dir: str):
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    print("== entry() ==")
    e = entrymod.entry()
    print(type(e).__name__, getattr(e, "shape", None))

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        try:
            res = normalize(to_df(fn(sf_dir)))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        if name not in oracles:
            print(f"ROWS-ONLY {name}: {len(res)} rows, cols={list(res.columns)}")
            continue
        try:
            ora = normalize(con.sql(oracles[name]).df())
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {ex}")
            n_fail += 1
            continue
        if list(res.columns) != list(ora.columns):
            print(f"FAIL {name}: columns {list(res.columns)} != {list(ora.columns)}")
            n_fail += 1
            continue
        if len(res) != len(ora):
            print(f"FAIL {name}: rows {len(res)} != {len(ora)}")
            n_fail += 1
            continue
        equal = True
        for c in res.columns:
            a, b = res[c].to_numpy(), ora[c].to_numpy()
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                if not np.allclose(a.astype(float), b.astype(float),
                                   rtol=0, atol=0, equal_nan=True):
                    equal = False
                    print(f"  col {c} mismatch: {a[:5]} vs {b[:5]}")
            else:
                if not (a == b).all():
                    equal = False
                    bad = np.nonzero(a != b)[0][:5]
                    print(f"  col {c} mismatch at {bad}: {a[bad]} vs {b[bad]}")
        if equal:
            print(f"PASS {name} ({len(res)} rows)")
            n_pass += 1
        else:
            print(f"FAIL {name}: value mismatch")
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"))
