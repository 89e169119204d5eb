"""Static contract checks on __ray_entry__ (the driver interface)."""

import importlib.util
import os

ENTRY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "__ray_entry__.py")


def load_entry():
    spec = importlib.util.spec_from_file_location(
        "entry_under_test", ENTRY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_oracle_keys_subset_of_queries():
    m = load_entry()
    qs = m.queries()
    oracles = m.oracle_sql()
    assert set(oracles) <= set(qs), set(oracles) - set(qs)
    # every callable takes exactly one positional arg (sf_dir)
    import inspect

    for name, fn in qs.items():
        params = inspect.signature(fn).parameters
        assert len(params) == 1, name


def test_every_query_has_an_oracle():
    m = load_entry()
    rows_only = set(m.queries()) - set(m.oracle_sql())
    # r4: every query is driver-verifiable — non-SQL-expressible
    # pipelines gate themselves with boolean probe rows and a VALUES
    # oracle (the accuracy-gate pattern), so nothing is rows-only
    assert rows_only == set(), rows_only


def test_no_ray_init_calls():
    import ast

    tree = ast.parse(open(ENTRY).read())
    calls = [
        n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "ray"
    ]
    assert "init" not in calls and "shutdown" not in calls, calls


def test_ngram_oracle_whitespace_class_matches_arrow():
    """The ngram_jaccard_dedup oracle's split regex must cover EXACTLY
    Arrow utf8_split_whitespace's separator set (the Ray side's
    tokenizer), or the exact-value compare breaks on non-ASCII
    whitespace (RE2 \\s alone is ASCII-only)."""
    import re

    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc

    m = load_entry()
    sql = m.oracle_sql()["ngram_jaccard_dedup"]
    pat = re.search(r"'(\[[^']+\]\+)'", sql)
    assert pat, "split regex not found in oracle"
    regex = pat.group(1)
    for cp in range(0x3001):
        ch = chr(cp)
        if ch in ("'", "\\"):
            continue
        arrow_splits = pc.utf8_split_whitespace(
            pa.array([f"a{ch}b"]))[0].as_py() == ["a", "b"]
        duck_splits = duckdb.sql(
            f"select regexp_split_to_array('a' || chr({cp}) || 'b', "
            f"'{regex}')").fetchone()[0] == ["a", "b"]
        assert arrow_splits == duck_splits, hex(cp)
