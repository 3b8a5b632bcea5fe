//! Per-table statistics feeding the cost-based planner.
//!
//! `ANALYZE` performs a full scan and builds exact statistics: row count,
//! per-column distinct count, null count, min/max, and an equi-depth
//! histogram of at most [`HISTOGRAM_BUCKETS`] buckets. Between analyzes
//! the *counters* (row count, null counts, per-bucket counts) are
//! maintained incrementally by the table's slot mutations — forward DML,
//! rollback undo, and WAL replay all funnel through the same six methods,
//! so the counters are deterministic across recovery paths and exactly
//! reversible under rollback. The *shape* of the statistics (distinct
//! count, min/max, bucket boundaries) is frozen until the next `ANALYZE`;
//! values outside the analyzed range are clamped into the edge buckets.
//!
//! Statistics persist through checkpoints on both backends (the full
//! snapshot and the paged store's meta file) so a restart does not lose
//! them, and `ANALYZE` itself is WAL-logged as DDL so replay rebuilds
//! identical statistics.

use crate::value::{Row, Value};
use crate::wal::{put_list, put_opt, put_u64, put_value, Reader};

/// Maximum number of equi-depth histogram buckets per column.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// One equi-depth histogram bucket: all analyzed non-null values `v` with
/// `prev.upper < v <= upper` (the first bucket is lower-bounded by the
/// column minimum, inclusively).
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive upper boundary of the bucket.
    pub upper: Value,
    /// Number of rows currently attributed to the bucket.
    pub count: u64,
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStatistics {
    /// Distinct non-null values at the last `ANALYZE` (frozen between
    /// analyzes).
    pub distinct: u64,
    /// Current number of NULL cells (maintained incrementally).
    pub null_count: u64,
    /// Smallest non-null value at the last `ANALYZE`.
    pub min: Option<Value>,
    /// Largest non-null value at the last `ANALYZE`.
    pub max: Option<Value>,
    /// Equi-depth histogram over non-null values; counts are maintained
    /// incrementally, boundaries are frozen between analyzes.
    pub buckets: Vec<Bucket>,
}

/// Statistics for one table, built by `ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStatistics {
    /// Current live-row count (maintained incrementally).
    pub row_count: u64,
    /// Per-column statistics, in schema column order.
    pub columns: Vec<ColumnStatistics>,
}

impl ColumnStatistics {
    fn build(mut values: Vec<&Value>) -> ColumnStatistics {
        let null_count = values.iter().filter(|v| v.is_null()).count() as u64;
        values.retain(|v| !v.is_null());
        values.sort_by(|a, b| a.sort_cmp(b));
        let mut distinct = 0u64;
        for (i, v) in values.iter().enumerate() {
            if i == 0 || values[i - 1] != *v {
                distinct += 1;
            }
        }
        let min = values.first().map(|v| (*v).clone());
        let max = values.last().map(|v| (*v).clone());
        let mut buckets = Vec::new();
        if !values.is_empty() {
            let n = values.len();
            let nbuckets = HISTOGRAM_BUCKETS.min(n);
            // Equi-depth boundaries over the sorted values. A boundary
            // value repeated across the split point would make bucket
            // attribution ambiguous, so each bucket's upper absorbs any
            // run of equal values crossing it.
            let mut start = 0usize;
            for b in 0..nbuckets {
                if start >= n {
                    break;
                }
                let mut end = ((b + 1) * n).div_ceil(nbuckets).max(start + 1);
                while end < n && values[end] == values[end - 1] {
                    end += 1;
                }
                buckets.push(Bucket {
                    upper: values[end - 1].clone(),
                    count: (end - start) as u64,
                });
                start = end;
            }
        }
        ColumnStatistics {
            distinct,
            null_count,
            min,
            max,
            buckets,
        }
    }

    /// Index of the bucket a value is attributed to: the first bucket
    /// whose upper bound is `>= v`, clamped to the last bucket so values
    /// outside the analyzed range stay accounted for.
    fn bucket_for(&self, v: &Value) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let at = self
            .buckets
            .partition_point(|b| b.upper.sort_cmp(v) == std::cmp::Ordering::Less);
        Some(at.min(self.buckets.len() - 1))
    }

    fn non_null(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Estimated rows matching `column = v`.
    pub fn est_eq_rows(&self, v: &Value) -> u64 {
        if v.is_null() {
            // `= NULL` never matches under three-valued logic.
            return 0;
        }
        let non_null = self.non_null();
        if self.distinct == 0 || non_null == 0 {
            return 0;
        }
        // Uniformity within the column: every distinct value is assumed
        // equally frequent, but never more frequent than its bucket.
        let uniform = non_null.div_ceil(self.distinct);
        match self.bucket_for(v) {
            Some(b) => uniform.min(self.buckets[b].count.max(1)),
            None => uniform,
        }
    }

    /// Estimated rows matching a (half-)bounded range over the column.
    /// Bounds are `(value, inclusive)`; `None` means unbounded on that
    /// side. Buckets fully inside the range contribute their whole count,
    /// boundary buckets contribute half.
    pub fn est_range_rows(
        &self,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> u64 {
        use std::cmp::Ordering::*;
        if self.buckets.is_empty() {
            return 0;
        }
        let mut est = 0u64;
        let mut lo_bound = self.min.clone().unwrap_or(Value::Null);
        for b in &self.buckets {
            // Bucket covers (lo_bound, b.upper] — approximate overlap.
            let below = match lower {
                Some((lv, _)) => b.upper.sort_cmp(lv) == Less,
                None => false,
            };
            let above = match upper {
                Some((uv, incl)) => {
                    let c = lo_bound.sort_cmp(uv);
                    c == Greater || (!incl && c == Equal)
                }
                None => false,
            };
            if !below && !above {
                let lo_inside = match lower {
                    Some((lv, _)) => lo_bound.sort_cmp(lv) != Less,
                    None => true,
                };
                let hi_inside = match upper {
                    Some((uv, incl)) => match b.upper.sort_cmp(uv) {
                        Less => true,
                        Equal => incl,
                        Greater => false,
                    },
                    None => true,
                };
                est += if lo_inside && hi_inside {
                    b.count
                } else {
                    // Partial overlap: attribute half the bucket.
                    b.count.div_ceil(2)
                };
            }
            lo_bound = b.upper.clone();
        }
        est
    }
}

impl TableStatistics {
    /// Build exact statistics from a full scan of the live rows
    /// (the `ANALYZE` path).
    pub fn build<'a>(rows: impl Iterator<Item = &'a Row> + Clone, ncols: usize) -> TableStatistics {
        let mut row_count = 0u64;
        for _ in rows.clone() {
            row_count += 1;
        }
        let mut columns = Vec::with_capacity(ncols);
        for ci in 0..ncols {
            let values: Vec<&Value> = rows.clone().map(|r| &r[ci]).collect();
            columns.push(ColumnStatistics::build(values));
        }
        TableStatistics { row_count, columns }
    }

    /// A row was inserted (or restored by rollback/replay).
    pub fn note_insert(&mut self, row: &Row) {
        self.row_count = self.row_count.saturating_add(1);
        for (ci, v) in row.iter().enumerate() {
            let Some(col) = self.columns.get_mut(ci) else {
                break;
            };
            if v.is_null() {
                col.null_count = col.null_count.saturating_add(1);
            } else if let Some(b) = col.bucket_for(v) {
                col.buckets[b].count = col.buckets[b].count.saturating_add(1);
            }
        }
    }

    /// A row was deleted (or an insert undone). Exact inverse of
    /// [`TableStatistics::note_insert`], so rollback retraces the same
    /// counter path.
    pub fn note_delete(&mut self, row: &Row) {
        self.row_count = self.row_count.saturating_sub(1);
        for (ci, v) in row.iter().enumerate() {
            let Some(col) = self.columns.get_mut(ci) else {
                break;
            };
            if v.is_null() {
                col.null_count = col.null_count.saturating_sub(1);
            } else if let Some(b) = col.bucket_for(v) {
                col.buckets[b].count = col.buckets[b].count.saturating_sub(1);
            }
        }
    }

    /// One cell changed from `old` to `new` (update or its undo).
    pub fn note_update(&mut self, ci: usize, old: &Value, new: &Value) {
        let Some(col) = self.columns.get_mut(ci) else {
            return;
        };
        if old.is_null() {
            col.null_count = col.null_count.saturating_sub(1);
        } else if let Some(b) = col.bucket_for(old) {
            col.buckets[b].count = col.buckets[b].count.saturating_sub(1);
        }
        if new.is_null() {
            col.null_count = col.null_count.saturating_add(1);
        } else if let Some(b) = col.bucket_for(new) {
            col.buckets[b].count = col.buckets[b].count.saturating_add(1);
        }
    }
}

// ----------------------------------------------------------------------
// codec — the statistics block of a checkpoint (`storage::checkpoint`)
// ----------------------------------------------------------------------

pub(crate) fn put_stats(out: &mut Vec<u8>, stats: Option<&TableStatistics>) {
    put_opt(out, stats, |out, s| {
        put_u64(out, s.row_count);
        put_list(out, &s.columns, |out, c| {
            put_u64(out, c.distinct);
            put_u64(out, c.null_count);
            put_opt(out, c.min.as_ref(), put_value);
            put_opt(out, c.max.as_ref(), put_value);
            put_list(out, &c.buckets, |out, b| {
                put_value(out, &b.upper);
                put_u64(out, b.count);
            });
        });
    });
}

pub(crate) fn read_stats(r: &mut Reader<'_>) -> Option<Option<TableStatistics>> {
    r.opt(|r| {
        Some(TableStatistics {
            row_count: r.u64()?,
            columns: r.list(|r| {
                Some(ColumnStatistics {
                    distinct: r.u64()?,
                    null_count: r.u64()?,
                    min: r.opt(Reader::value)?,
                    max: r.opt(Reader::value)?,
                    buckets: r.list(|r| {
                        Some(Bucket {
                            upper: r.value()?,
                            count: r.u64()?,
                        })
                    })?,
                })
            })?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn build_counts_distinct_nulls_and_bounds() {
        let mut rows = int_rows(&[5, 1, 3, 3, 9]);
        rows.push(vec![Value::Null]);
        let s = TableStatistics::build(rows.iter(), 1);
        assert_eq!(s.row_count, 6);
        let c = &s.columns[0];
        assert_eq!(c.distinct, 4);
        assert_eq!(c.null_count, 1);
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(9)));
        assert_eq!(c.non_null(), 5);
    }

    #[test]
    fn histogram_is_equi_depth() {
        let rows = int_rows(&(0..640).collect::<Vec<_>>());
        let s = TableStatistics::build(rows.iter(), 1);
        let c = &s.columns[0];
        assert_eq!(c.buckets.len(), HISTOGRAM_BUCKETS);
        assert!(c.buckets.iter().all(|b| b.count == 20));
        assert_eq!(c.buckets.last().unwrap().upper, Value::Int(639));
    }

    #[test]
    fn range_estimate_tracks_selectivity() {
        let rows = int_rows(&(0..1000).collect::<Vec<_>>());
        let s = TableStatistics::build(rows.iter(), 1);
        let c = &s.columns[0];
        let lo = Value::Int(100);
        let hi = Value::Int(199);
        let est = c.est_range_rows(Some((&lo, true)), Some((&hi, true)));
        assert!(
            (50..=200).contains(&est),
            "10% range estimated {est} of 1000"
        );
        let all = c.est_range_rows(None, None);
        assert_eq!(all, 1000);
    }

    #[test]
    fn eq_estimate_uses_distinct() {
        let rows = int_rows(&(0..100).map(|i| i % 10).collect::<Vec<_>>());
        let s = TableStatistics::build(rows.iter(), 1);
        assert_eq!(s.columns[0].est_eq_rows(&Value::Int(3)), 10);
        assert_eq!(s.columns[0].est_eq_rows(&Value::Null), 0);
    }

    #[test]
    fn incremental_updates_are_reversible() {
        let rows = int_rows(&(0..50).collect::<Vec<_>>());
        let mut s = TableStatistics::build(rows.iter(), 1);
        let before = s.clone();
        let row = vec![Value::Int(25)];
        s.note_insert(&row);
        assert_eq!(s.row_count, 51);
        s.note_update(0, &Value::Int(25), &Value::Null);
        s.note_update(0, &Value::Null, &Value::Int(25));
        s.note_delete(&row);
        assert_eq!(s, before);
    }

    #[test]
    fn out_of_range_values_clamp_into_edge_buckets() {
        let rows = int_rows(&(0..64).collect::<Vec<_>>());
        let mut s = TableStatistics::build(rows.iter(), 1);
        s.note_insert(&vec![Value::Int(1_000_000)]);
        s.note_insert(&vec![Value::Int(-1_000_000)]);
        assert_eq!(s.columns[0].non_null(), 66);
        s.note_delete(&vec![Value::Int(1_000_000)]);
        s.note_delete(&vec![Value::Int(-1_000_000)]);
        assert_eq!(s.columns[0].non_null(), 64);
    }

    #[test]
    fn stats_codec_roundtrips() {
        let rows = int_rows(&[4, 8, 15, 16, 23, 42]);
        let s = TableStatistics::build(rows.iter(), 1);
        let mut out = Vec::new();
        put_stats(&mut out, Some(&s));
        put_stats(&mut out, None);
        let mut r = Reader::new(&out);
        assert_eq!(read_stats(&mut r), Some(Some(s)));
        assert_eq!(read_stats(&mut r), Some(None));
        assert!(r.done());
    }
}
