"""Ray-Data-native quality-filter + PII-scrub engine.

A brand-new engine (NOT a port) reproducing the query semantics of the
reference repo `tursunait/roberta-pii-detector` (see SURVEY.md): the span
data model, 9-entity taxonomy, detection/suppression rules, masking
contract and entity-level F1 metric — re-expressed as a Ray Data pipeline
(language-ID + perplexity + quality heuristics + deterministic regex PII
scrub) over Parquet tables of source-code repositories.

Layout (SURVEY.md §7.1):
  schema.py     - pyarrow schemas for every table
  labels.py     - entity taxonomy + BILOU label space  [ref: pii_synth/config_and_labels.py]
  detect/       - deterministic span detector + scrubber (replaces RoBERTa)
  quality/      - langid / perplexity / heuristics / keep-drop decision
  synth/        - deterministic fixture generators (conformance corpus + code table)
  oracle.py     - single-process golden implementation for parity tests
  ray_pipeline.py - Dataset graph assembly
  partition.py  - keyed reduces (counts, dedup, top-n), joins, bucket shuffle
  checkpoint.py - lineage manifests + resume
  metrics.py    - span-F1 partial+final aggregation
  extras/       - dedup (exact/minhash/simhash), ANN, text stats, multimodal stubs
"""

__version__ = "0.1.0"
