"""Property-based invariants (SURVEY.md §5.2.2) with hypothesis."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from pipeline.detect.detector import detect_spans
from pipeline.detect.scrub import apply_spans, scrub_text
from pipeline.detect.spans import Span, resolve_overlaps, spans_to_bilou
from pipeline.synth.corpus import make_conformance_row


@given(st.text(max_size=400))
@settings(max_examples=200, deadline=None)
def test_spans_are_valid_and_disjoint(text):
    spans = detect_spans(text)
    for sp in spans:
        assert 0 <= sp.start < sp.end <= len(text)
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start  # sorted + non-overlapping


@given(st.text(max_size=300))
@settings(max_examples=150, deadline=None)
def test_scrub_idempotent(text):
    once, _ = scrub_text(text)
    twice, _ = scrub_text(once)
    assert once == twice


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_conformance_row_deterministic(doc_id):
    assert make_conformance_row(doc_id) == make_conformance_row(doc_id)


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, 12), st.sampled_from(["EMAIL", "PHONE", "SSN"])),
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_resolve_overlaps_disjoint(raw):
    cands = [Span(s, s + ln, lb) for s, ln, lb in raw]
    out = resolve_overlaps(cands)
    for a, b in zip(out, out[1:]):
        assert a.end <= b.start


def test_bilou_round_trip_semantics():
    """Span -> BILOU uses the reference's overlap rule (tok_end > start and
    tok_start < end) [pii_synth/build_datasets.py:57-60]."""
    text = "contact marisol.vexler@gmail.com or 555-123-4567 now"
    spans = detect_spans(text)
    tokens, labels = spans_to_bilou(text, spans)
    assert len(tokens) == len(labels)
    assert labels[1] == "U-EMAIL"
    assert labels[3] == "U-PHONE"
    assert labels[0] == "O" and labels[-1] == "O"
    # multi-token span -> B/L
    text2 = "ask Marisol Vexler today"
    sp2 = detect_spans(text2)
    _, labels2 = spans_to_bilou(text2, sp2)
    assert labels2[1] == "B-PERSON" and labels2[2] == "L-PERSON"


def test_apply_spans_masks_right_to_left():
    text = "a@b.com x 123-45-6789"
    spans = detect_spans(text)
    out = apply_spans(text, spans)
    assert "123-45-6789" not in out and "[SSN]" in out


@given(
    st.lists(
        st.text(alphabet=st.characters(max_codepoint=0x2FFF), max_size=300),
        min_size=1, max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_scorer_batch_composition_invariance(texts):
    """The parity invariant behind the Ray stages: scoring a doc alone is
    BIT-identical to scoring it inside any batch (segment-local reduceat
    math), for langid and perplexity, string path and arrow path."""
    import pyarrow as pa

    from pipeline.quality.langid import LangIdModel
    from pipeline.quality.perplexity import PerplexityModel

    lm, pm = LangIdModel.default(), PerplexityModel.default()
    langs, confs = lm.predict_batch(texts)
    ppls = pm.score_batch(texts)
    arr = pa.array(texts, pa.string())
    langs_a, confs_a = lm.predict_batch_arrow(arr)
    ppls_a = pm.score_batch_arrow(arr)
    assert langs == langs_a.to_pylist()
    assert (confs == confs_a).all()
    assert (ppls == ppls_a).all()
    for i, t in enumerate(texts):
        l1, c1 = lm.predict_one(t)
        assert l1 == langs[i] and c1 == confs[i]
        assert pm.score_one(t) == ppls[i]


@given(
    st.lists(
        st.text(alphabet=st.characters(max_codepoint=0x2FFF), max_size=200),
        min_size=1, max_size=10,
    )
)
@example(texts=["00", ""])  # trailing-empty row: reduceat start clamping
# must not truncate the preceding non-empty segment's alnum sum
@settings(max_examples=40, deadline=None)
def test_heuristic_batch_matches_scalar(texts):
    import pyarrow as pa

    from pipeline.quality.heuristics import heuristic_batch, heuristic_scores

    got = heuristic_batch(pa.array(texts, pa.string()))
    for i, t in enumerate(texts):
        exp = heuristic_scores(t)
        for k, v in exp.items():
            assert abs(float(got[k][i]) - float(v)) < 1e-12, (k, repr(t))


def test_scorer_invariance_long_docs():
    """Deterministic long-doc regression for the reduceat pairwise-tree
    bug the review found: for ~1KB+ docs, the sentinel row joining the
    LAST segment changed the pairwise summation tree and broke solo-vs-
    batch bit equality (4/307 docs, 1-ulp lang_conf diffs)."""
    from pipeline.quality.langid import LangIdModel
    from pipeline.quality.perplexity import PerplexityModel
    from pipeline.synth.codelang import LANGS, make_snippet
    from pipeline._util import rng_for

    lm, pm = LangIdModel.default(), PerplexityModel.default()
    texts = [
        make_snippet(LANGS[i % len(LANGS)], rng_for("long", i), n_lines=60)
        for i in range(307)
    ]
    langs, confs = lm.predict_batch(texts)
    ppls = pm.score_batch(texts)
    for i, t in enumerate(texts):
        l1, c1 = lm.predict_one(t)
        assert l1 == langs[i] and c1 == confs[i], i
        assert pm.score_one(t) == ppls[i], i


@given(
    st.lists(
        st.lists(
            st.sampled_from(["alpha", "beta", "gamma", "x", ""]),
            max_size=12,
        ).map(" ".join),
        min_size=1, max_size=10,
    )
)
@settings(max_examples=80, deadline=None)
def test_bigram_partial_matches_naive(texts):
    """The vectorized same-doc adjacent-pair kernel == a naive per-doc
    loop, for any batch (including empty tokens from double spaces and
    single-word docs)."""
    import pyarrow as pa

    from pipeline.extras.corpusstats import bigram_partial

    t = pa.table({"text": pa.array(texts, pa.string())})
    out = bigram_partial(t)
    got = dict(zip(out["bigram"].to_pylist(), out["n_occ"].to_pylist()))
    exp: dict[str, int] = {}
    for doc in texts:
        ws = doc.split(" ")
        for a, b in zip(ws, ws[1:]):
            if a and b:
                k = f"{a} {b}"
                exp[k] = exp.get(k, 0) + 1
    assert got == exp


def test_segment_sums_edges():
    """The shared reduceat helper: empty segments (leading, interior,
    trailing) stay 0 and never truncate a neighbor."""
    import numpy as np

    from pipeline._util import segment_sums

    v = np.array([1, 2, 4, 8], dtype=np.int64)
    rel = np.array([0, 0, 2, 2, 4, 4])  # [], [1,2], [], [4,8], []
    assert segment_sums(v, rel, dtype=np.int64).tolist() == [0, 3, 0, 12, 0]
    assert segment_sums(
        np.empty(0, np.int64), np.array([0, 0, 0]), dtype=np.int64
    ).tolist() == [0, 0]
    assert segment_sums(v, np.array([0, 4]), dtype=np.int64).tolist() == [15]
    assert segment_sums(v, np.array([0]), dtype=np.int64).tolist() == []


@given(
    st.lists(
        st.text(alphabet=st.characters(max_codepoint=0x2FFF), max_size=40),
        max_size=12,
    ),
    st.integers(0, 48),
    st.integers(0, 3),
    st.booleans(),
)
@example(texts=["", "", ""], clip=4, pad=0, large=False)  # empty segments
@example(texts=["ab", "c", ""], clip=8, pad=0, large=False)  # no cut
@example(texts=["abcdef", "ghijkl"], clip=2, pad=0, large=False)  # all cut
@example(texts=["abcd", "abcdef", "ab"], clip=4, pad=1, large=True)  # == len
@example(texts=["aé", "中文"], clip=2, pad=2, large=False)  # mid-char
@settings(max_examples=120, deadline=None)
def test_clip_segments_matches_per_segment_slices(texts, clip, pad, large):
    """clip_segments == slicing each segment to `clip` bytes and
    concatenating, on offset-sliced string and large_string arrays; a
    cut inside a multibyte char keeps exactly text.encode()[:clip]."""
    import numpy as np
    import pyarrow as pa

    from pipeline._util import clip_segments, string_buffers

    typ = pa.large_string() if large else pa.string()
    arr = pa.array(["pad"] * pad + texts + ["pad"], typ).slice(pad, len(texts))
    assert arr.offset == pad
    off, data = string_buffers(arr)
    got, got_off = clip_segments(data, off, clip)
    ref = [data[off[i]: off[i + 1]][:clip].tobytes() for i in range(len(texts))]
    assert got.dtype == np.uint8
    assert got.tobytes() == b"".join(ref)
    assert got_off.tolist() == np.cumsum([0] + [len(r) for r in ref]).tolist()
    for i, t in enumerate(texts):
        assert got[got_off[i]: got_off[i + 1]].tobytes() == t.encode()[:clip]
