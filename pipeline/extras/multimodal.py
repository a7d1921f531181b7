"""Multimodal column plumbing: images as an opaque `binary` column with
typed metadata, processed by an actor-pool map_batches stage.

The decode kernel is STUBBED (no image library is a dependency: the
Ray-side plumbing is real and tested, the codec is a clearly-marked
deterministic fake):
`FakeImageDecoder` parses the fixture's deterministic fake-PNG header and
emits real feature columns; `decode_image_real` raises NotImplementedError
where Pillow/libvips would be called.

Schema: (item_id:int64, kind:string, payload:binary,
meta:struct<width:int32,height:int32,channels:int32>).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray.data

from pipeline._util import rng_for

MAGIC = b"FIMG"  # fake image container: MAGIC | w | h | c | pixel bytes


def make_fake_image(item_id: int, seed: int = 42) -> tuple[bytes, dict]:
    r = rng_for(seed, "img", item_id)
    w, h, c = r.choice([16, 24, 32]), r.choice([16, 24, 32]), 3
    pixels = bytes(r.getrandbits(8) for _ in range(w * h * c))
    payload = MAGIC + struct.pack("<III", w, h, c) + pixels
    return payload, {"width": w, "height": h, "channels": c}


def write_media_table(out_dir, n_rows: int, seed: int = 42, n_files: int = 4) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per = (n_rows + n_files - 1) // n_files
    for f in range(n_files):
        ids = range(f * per, min((f + 1) * per, n_rows))
        if not ids:
            break
        payloads, metas = zip(*(make_fake_image(i, seed) for i in ids))
        tbl = pa.table(
            {
                "item_id": pa.array(list(ids), pa.int64()),
                "kind": pa.array(["image"] * len(payloads)),
                "payload": pa.array(list(payloads), pa.binary()),
                "meta": pa.array(
                    list(metas),
                    pa.struct([("width", pa.int32()), ("height", pa.int32()), ("channels", pa.int32())]),
                ),
            }
        )
        pq.write_table(tbl, out / f"part-{f:05d}.parquet")
    return str(out)


def decode_image_real(payload: bytes):
    """Real-codec seam: decodes with Pillow when it is installed
    (importlib probe); returns an HxWxC uint8 numpy array.  The
    deterministic FAKE container (MAGIC prefix) always raises
    NotImplementedError — it is not a real image, so handing it to a
    codec would fail confusingly (and the stub tests must pass in
    environments that DO ship Pillow)."""
    import importlib.util

    if not payload[:4] == MAGIC and importlib.util.find_spec("PIL") is not None:
        import io

        from PIL import Image  # type: ignore[import-not-found]

        import numpy as _np

        with Image.open(io.BytesIO(payload)) as im:
            return _np.asarray(im.convert("RGB"))
    raise NotImplementedError(
        "real image decode requires an image library not present in this "
        "environment; use FakeImageDecoder for the plumbing path"
    )


class FakeImageDecoder:
    """Actor-pool stage: parses the deterministic fake container and emits
    real feature columns (mean/std per channel, resized thumbnail stats).
    Small batch_size is the knob for large binary payloads (see
    flagship sizing notes in ray_pipeline)."""

    def __init__(self, thumbnail: int = 8):
        self.thumbnail = thumbnail

    def __call__(self, batch: pa.Table) -> pa.Table:
        means, stds, ok = [], [], []
        for payload in batch["payload"].to_pylist():
            if payload[:4] != MAGIC:
                means.append(0.0)
                stds.append(0.0)
                ok.append(False)
                continue
            w, h, c = struct.unpack("<III", payload[4:16])
            px = np.frombuffer(payload[16: 16 + w * h * c], dtype=np.uint8)
            means.append(float(px.mean()))
            stds.append(float(px.std()))
            ok.append(True)
        batch = batch.append_column("pixel_mean", pa.array(means))
        batch = batch.append_column("pixel_std", pa.array(stds))
        return batch.append_column("decode_ok", pa.array(ok))


def media_pipeline(ds: "ray.data.Dataset", concurrency: int = 2, batch_size: int = 64) -> "ray.data.Dataset":
    """Decode/feature pipeline: actor pool, SMALL batches (binary payloads
    x concurrency must fit worker heaps — SURVEY.md §4.2 memory note)."""
    return ds.map_batches(
        FakeImageDecoder, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=1, zero_copy_batch=True,
    ).drop_columns(["payload"])
