"""One keyed reduce: the modules that fold through partition._keyed_reduce
call no Ray Dataset.groupby and import nothing from ray.data.aggregate
(a static check), and every query rebuilt on the queries' reduce helper
(__ray_entry__._group_sums), on the dedup family's reduces or on the
embedding searches keeps its columns on zero-row tables, and the row-level
join returns at zero rows."""

from __future__ import annotations

import ast
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parent.parent
SF_DIR = "/root/testdata/sf0.001"

ONE_REDUCE = [
    "__ray_entry__.py", "pipeline/partition.py", "pipeline/extras/corpusstats.py",
    "pipeline/extras/selection.py", "pipeline/extras/paragraphs.py",
    "pipeline/extras/dedup.py", "pipeline/extras/ann.py", "pipeline/extras/clustering.py",
]
# GroupedData methods of a Ray groupby; a .groupby(...) whose result takes
# one of them is taken for a Ray one unless its function is listed below
RAY_GROUPED = {"aggregate", "map_groups", "count", "sum", "min", "max", "mean", "std"}
ALLOWED = {
    ("pipeline/partition.py", "bucket_shuffle"):
        "the one keyed exchange: _keyed_reduce's bucketed regime runs on it",
    ("__ray_entry__.py", "sessions"):
        "pandas: per-user session sum inside one bucket frame",
}


def _ray_groupbys(path: str, source: str) -> list[str]:
    """'line: reason' for each ray.data.aggregate import and each Ray
    groupby in ``source`` (the file ``path``) that ALLOWED does not list."""
    tree = ast.parse(source)
    bad = []

    def visit(node: ast.AST, fn: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "ray.data.aggregate"):
            bad.append(f"{node.lineno}: from {node.module} import")
        if isinstance(node, ast.Import) and any(
                a.name.startswith("ray.data.aggregate") for a in node.names):
            bad.append(f"{node.lineno}: import ray.data.aggregate")
        if (isinstance(node, ast.Attribute) and node.attr in RAY_GROUPED
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "groupby"
                and (path, fn) not in ALLOWED):
            bad.append(f"{node.lineno}: .groupby(...).{node.attr} in {fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return bad


@pytest.mark.parametrize("path", ONE_REDUCE)
def test_no_ray_groupby(path):
    assert _ray_groupbys(path, (ROOT / path).read_text()) == [], (
        f"{path} reduces outside partition._keyed_reduce; fold through "
        f"_sum_reduce / _keyed_reduce or list the site in ALLOWED with a reason")


def test_guard_sees_a_ray_groupby():
    """The check flags the shapes it guards against, not a pandas fold."""
    src = (
        "from ray.data.aggregate import Count\n"
        "def q(ds):\n"
        "    return ds.map_batches(f).groupby('k').aggregate(Count())\n"
        "def p(df):\n"
        "    return df.groupby('k', dropna=False).head(1)\n"
    )
    assert [b.split(":")[0] for b in _ray_groupbys("q.py", src)] == ["1", "3"]


# every query that reduces through _group_sums (or, for
# events_distinct_users, _keyed_reduce directly)
REBUILT = [
    "doc_length_stats", "doc_lang_filter", "doc_source_counts", "doc_token_counts",
    "doc_alnum_ratio", "doc_len_histogram", "orders_by_nation", "events_hourly",
    "events_hopping", "lineitem_pricing", "orders_rollup", "events_type_pivot",
    "doc_corr_by_source", "doc_mode_lang_by_source", "events_distinct_users",
    "supplier_revenue", "orders_price_band", "decontaminate_snippets",
    "decontaminate_ngrams", "doc_line_dedup", "doc_blocklist", "docs_weighted_sample",
    "doc_dev_from_source_mean", "docs_hash_split", "dedup_incremental",
    "corpus_budget_select", "curation_end_to_end", "pii_entity_stats",
]
# every query over the dedup family's reduces (pipeline/extras/dedup.py,
# ann.py, clustering.py)
DEDUP = [
    "dedup_exact", "minhash_dup_pairs", "near_dup_groups", "near_dup_groups_distributed",
    "simhash_dup_pairs", "ngram_jaccard_pairs", "ngram_dup_groups",
    "embedding_near_dups", "semantic_dedup",
]
# the embedding searches and k-means, which read their frames with
# Dataset.to_pandas (no columns at zero rows)
EMBEDDING = ["ann_topk", "ann_topk_ivf", "ann_topk_lsh", "embedding_pairs_exact",
             "embedding_kmeans"]
# the documents queries that map a stage over the rows and read them
# with Dataset.to_pandas
DOCS_ROWS = ["doc_quality", "scrub_documents", "langid_documents"]
TABLES = ["nation", "customer", "supplier", "orders", "lineitem", "events", "documents",
          "embeddings"]


@pytest.fixture(scope="module")
def zero_dir(tmp_path_factory):
    """Zero-row copies of the tables, plus a zero-row PII corpus."""
    d = tmp_path_factory.mktemp("zero_rows")
    for t in TABLES:
        pq.write_table(pq.read_table(f"{SF_DIR}/{t}.parquet").slice(0, 0),
                       d / f"{t}.parquet")
    (d / "pii").mkdir()
    pq.write_table(pa.table({"text": pa.array([], pa.string())}), d / "pii" / "p.parquet")
    return d


@pytest.mark.parametrize("name", REBUILT + DEDUP + EMBEDDING + DOCS_ROWS)
def test_rebuilt_query_keeps_columns_at_zero_rows(ray_session, zero_dir, monkeypatch, name):
    import __ray_entry__ as em

    corpus = em._pii_corpus_dir
    monkeypatch.setattr(em, "_pii_corpus_dir", lambda sf: (
        str(zero_dir / "pii") if sf == str(zero_dir) else corpus(sf)))
    want = em.queries()[name](SF_DIR)
    got = em.queries()[name](str(zero_dir))
    assert list(got.columns) == list(want.columns)


def test_orders_customer_join_at_zero_rows(ray_session, zero_dir):
    """The row-level join returns its typed empty frame on zero-row
    orders / customer tables, within a timeout: Ray's native join fails
    or hangs when a side has no rows, so the query must not reach it."""
    import threading

    import __ray_entry__ as em

    out: dict = {}

    def run():
        try:
            out["df"] = em.queries()["orders_customer_join"](str(zero_dir))
        except Exception as e:  # reported below
            out["error"] = e

    worker = threading.Thread(target=run, daemon=True)  # a hang must not block exit
    worker.start()
    worker.join(timeout=120)
    assert "df" in out, out.get("error", "orders_customer_join did not finish in 120 s")
    want = em.queries()["orders_customer_join"](SF_DIR)
    assert out["df"].empty
    assert out["df"].dtypes.to_dict() == want.dtypes.to_dict()
