"""Driver-compare simulation: run every queries() entry that has an
oracle_sql() twin side by side with DuckDB at sf0.001 and assert
rows + schema + value-hash equality (the driver's own comparison:
columns sorted by name, values hashed after a stable normalization).

This is the local pre-flight for CORRECTNESS_r{N}.json — a query that
passes here should be green on the driver's board.
"""

from __future__ import annotations

import hashlib

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
SF01_DIR = "/root/testdata/sf0.1"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _connect(sf_dir: str = SF_DIR):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    if len(df.columns):  # row order is not part of the contract
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def _value_hash(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for col in df.columns:
        h.update(col.encode())
        for v in df[col].tolist():
            h.update(repr(v).encode())
    return h.hexdigest()


def oracle_checked_names():
    import __ray_entry__ as entrymod

    return sorted(entrymod.oracle_sql())


def test_registry_order_oracled_first():
    """The driver grades the first 50 registry entries, so every oracled
    entry must come before every rows-only one."""
    import __ray_entry__ as entrymod

    names = list(entrymod.queries())
    sqls = entrymod.oracle_sql()
    assert set(sqls) <= set(names)
    oracled = [n in sqls for n in names]
    n_oracled = sum(oracled)
    assert oracled == [True] * n_oracled + [False] * (len(names) - n_oracled), (
        f"rows-only entries before oracled ones: "
        f"{[n for n in names[:n_oracled] if n not in sqls]}"
    )
    assert n_oracled >= 50


@pytest.fixture(scope="module")
def con():
    c = _connect()
    yield c
    c.close()


def _assert_parity(con, name: str, sf_dir: str) -> None:
    import __ray_entry__ as entrymod

    engine = entrymod.queries()[name](sf_dir)
    if hasattr(engine, "to_pandas"):
        engine = engine.to_pandas()
    oracle = con.execute(entrymod.oracle_sql()[name]).df()

    assert len(engine) == len(oracle), f"{name}: row count mismatch"
    e, o = _normalize(engine), _normalize(oracle)
    assert list(e.columns) == list(o.columns), (
        f"{name}: schema {list(e.columns)} vs {list(o.columns)}"
    )
    if _value_hash(e) != _value_hash(o):
        merged = e.compare(o) if e.shape == o.shape else None
        raise AssertionError(f"{name}: value hash mismatch; diff:\n{merged}")


@pytest.mark.parametrize("name", oracle_checked_names())
def test_query_matches_oracle(ray_session, con, name):
    _assert_parity(con, name, SF_DIR)


@pytest.fixture(scope="module")
def con01():
    c = _connect(SF01_DIR)
    yield c
    c.close()


@pytest.mark.sf01
@pytest.mark.parametrize("name", oracle_checked_names())
def test_query_matches_oracle_sf01(ray_session, con01, name):
    """VERDICT r4 item 6: the same full parity sweep at sf0.1 —
    reproducible via `pytest -m sf01` (deselected by default through
    pytest.ini addopts; the builder's manual sf0.1 sweeps are now a
    one-command target)."""
    _assert_parity(con01, name, SF01_DIR)
