"""Stateless geometry stages: extract, filter, reproject, cellize.

All operate on ``batch_format="pyarrow"`` batches (zero-copy from the
object store) and return new Arrow tables; per SURVEY.md §7.3 these run
as plain Ray tasks (no actor state needed — the transformer cache is a
per-worker-process memo).  ``georay.pipelines.flagship.geo_dataset`` is
the one pipeline that chains them, in that order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from georay import cells
from georay.crs.projections import transformer
from georay.extract import extract_geo_batch

__all__ = ["extract_geo_batch", "filter_has_geo", "Reproject", "cellize"]


def filter_has_geo(batch: pa.Table) -> pa.Table:
    """Keep rows with an extracted coordinate (vectorized Arrow filter)."""
    return batch.filter(batch.column("has_geo"))


class Reproject:
    """R-01 reprojection stage: harmonize every row into ``dst_epsg``.

    Mirrors ``TopologicalRelationships.setCRS`` (TopologicalRelationships.java:261-271):
    rows already in the target CRS pass through untouched; others are
    transformed with a cached per-(src,dst) Transformer, grouped by
    source EPSG so each group is one vectorized numpy call.

    A callable instance holding only the target CRS: ``geo_dataset`` maps
    it as a stateless task, and the transformer cache is per worker
    process (SURVEY.md §3 EP-1 state).
    """

    def __init__(self, dst_epsg: int = 4326, lon_col: str = "lon", lat_col: str = "lat"):
        self.dst = int(dst_epsg)
        self.lon_col = lon_col
        self.lat_col = lat_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        epsg = batch.column("epsg").to_numpy()
        if (epsg == self.dst).all():
            return batch
        x = batch.column(self.lon_col).to_numpy().copy()
        y = batch.column(self.lat_col).to_numpy().copy()
        for src in np.unique(epsg):
            if src == self.dst:
                continue
            m = epsg == src
            x[m], y[m] = transformer(int(src), self.dst).transform(x[m], y[m])
        # replace columns IN PLACE: the transform path must emit the same
        # column order as the pass-through path, or blocks of one dataset
        # end up with different schemas and any block-combining op
        # (repartition/sort/union/concat) fails on mixed-CRS input
        out = batch.set_column(
            batch.schema.get_field_index(self.lon_col), self.lon_col, pa.array(x, pa.float64())
        )
        out = out.set_column(
            out.schema.get_field_index(self.lat_col), self.lat_col, pa.array(y, pa.float64())
        )
        out = out.set_column(
            out.schema.get_field_index("epsg"),
            "epsg",
            pa.array(np.full(len(x), self.dst, np.int32)),
        )
        return out


def cellize(batch: pa.Table, res: int = 7) -> pa.Table:
    """Tile assignment: add the int64 ``cell`` column (the shuffle key)."""
    lat = batch.column("lat").to_numpy()
    lon = batch.column("lon").to_numpy()
    cell = cells.latlng_to_cell(lat, lon, res)
    return batch.append_column("cell", pa.array(cell, pa.int64()))
