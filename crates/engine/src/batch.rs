//! Destination batching and lightweight compression, column-wise.
//!
//! "For performance, the query processor batches tuples into blocks by
//! destination, compressing them (using lightweight Zip-based compression)
//! and marshalling them in a format that exploits their commonalities"
//! (Section V-A).  [`TupleBatch`] is such a block.  It stores its rows as
//! an [`orchestra_common::ColumnarBatch`] — typed column vectors with an
//! interned-string pool and parallel sign/provenance tag columns — so the
//! per-column dictionary encoding that models the paper's zip-based
//! scheme is read straight off the columns: each column computes its
//! distinct values and their one-copy byte size in a single cached pass
//! the first time its wire size is asked for, so batches that never
//! reach a wire never pay for pricing.
//!
//! Only the *size* of the encoding affects the simulation — the tuples
//! themselves travel in-memory — and the size formulas are byte-for-byte
//! those of the original row-at-a-time encoder for every uniform batch:
//!
//! * uncompressed: a 16-byte block header, then per row a 2-byte column
//!   count plus each value's wire encoding (plus the fixed
//!   [`TAG_WIRE_BYTES`] provenance tag when recovery support is on);
//! * compressed: the header, a 2-byte descriptor per column, per column
//!   `min(dictionary + 2-byte code per row, plain)`, the uncompressed
//!   tags, and a per-row presence bitmap — never worse than plain.
//!
//! Ragged blocks (rows of differing arity never occur in the engine's
//! pipeline, but the type stays defensive) are padded with NULLs: a
//! missing cell is a NULL and is priced at its real 1-byte serialized
//! size inside the column dictionary, rather than the arbitrary 16-byte
//! surcharge the old row encoder applied.

use crate::provenance::{TaggedTuple, TAG_WIRE_BYTES};
use orchestra_common::{ColumnarBatch, Value};

/// A block of tuples travelling to one destination operator instance,
/// stored column-wise.
#[derive(Clone, Debug)]
pub struct TupleBatch {
    batch: ColumnarBatch,
}

impl Default for TupleBatch {
    fn default() -> TupleBatch {
        TupleBatch::new()
    }
}

impl TupleBatch {
    /// An empty batch (arity fixed by the first row pushed).
    pub fn new() -> TupleBatch {
        TupleBatch {
            batch: ColumnarBatch::new(0),
        }
    }

    /// An empty batch of known arity.
    pub fn with_arity(arity: usize) -> TupleBatch {
        TupleBatch {
            batch: ColumnarBatch::new(arity),
        }
    }

    /// Wrap an existing columnar batch.
    pub fn from_columnar(batch: ColumnarBatch) -> TupleBatch {
        TupleBatch { batch }
    }

    /// A batch made from the given rows (the row seam: rows shorter than
    /// the widest are padded with NULLs).
    pub fn from_rows(rows: Vec<TaggedTuple>) -> TupleBatch {
        let arity = rows.iter().map(|r| r.tuple.arity()).max().unwrap_or(0);
        let mut batch = ColumnarBatch::new(arity);
        for row in rows {
            Self::push_into(&mut batch, row, arity);
        }
        TupleBatch { batch }
    }

    fn push_into(batch: &mut ColumnarBatch, row: TaggedTuple, arity: usize) {
        let mut values = row.tuple.into_values();
        values.resize(arity, Value::Null);
        batch.push_row_owned(values, row.sign, row.provenance, row.phase);
    }

    /// Append one row, widening the batch with NULL columns if the row is
    /// wider than the rows seen so far.
    pub fn push(&mut self, row: TaggedTuple) {
        if row.tuple.arity() > self.batch.arity() {
            self.batch.pad_to_arity(row.tuple.arity());
        }
        let arity = self.batch.arity();
        Self::push_into(&mut self.batch, row, arity);
    }

    /// Append row `row` of a columnar batch without materializing it
    /// (strings are re-interned by content; the batch widens if needed).
    pub fn push_row_from(&mut self, src: &ColumnarBatch, row: usize) {
        if src.arity() > self.batch.arity() {
            self.batch.pad_to_arity(src.arity());
        }
        self.batch.append_row_interned(src, row);
    }

    /// Append every row of `other`, widening if needed.
    pub fn append_batch(&mut self, other: &TupleBatch) {
        let src = other.columnar();
        if src.arity() > self.batch.arity() {
            self.batch.pad_to_arity(src.arity());
        }
        for row in 0..src.len() {
            self.batch.append_row_interned(src, row);
        }
    }

    /// The columnar representation.
    pub fn columnar(&self) -> &ColumnarBatch {
        &self.batch
    }

    /// Mutable access to the columnar representation.
    pub fn columnar_mut(&mut self) -> &mut ColumnarBatch {
        &mut self.batch
    }

    /// Unwrap into the columnar representation.
    pub fn into_columnar(self) -> ColumnarBatch {
        self.batch
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Materialize the row at `i` (a lossless row seam).
    pub fn row_at(&self, i: usize) -> TaggedTuple {
        TaggedTuple {
            tuple: self.batch.tuple_at(i),
            provenance: self.batch.provenance_at(i),
            phase: self.batch.phase_at(i),
            sign: self.batch.sign_at(i),
        }
    }

    /// Materialize every row (used only at the remaining row seams, such
    /// as the operator unit tests).
    pub fn rows(&self) -> Vec<TaggedTuple> {
        (0..self.len()).map(|i| self.row_at(i)).collect()
    }

    /// Uncompressed wire size: per-tuple encodings plus (optionally)
    /// provenance tags, plus a small block header.
    pub fn uncompressed_size(&self, with_tags: bool) -> usize {
        let mut total = 16 + 2 * self.len() + self.batch.plain_cell_bytes();
        if with_tags {
            total += self.len() * TAG_WIRE_BYTES;
        }
        total
    }

    /// Compressed wire size under the dictionary encoding described in the
    /// module docs.  Provenance tags, when carried, are not compressed
    /// (they are high-entropy bitsets), matching the paper's observation
    /// that recovery support adds at most ~2% traffic.  Near-free: the
    /// dictionaries were maintained as the columns were built.
    pub fn compressed_size(&self, with_tags: bool) -> usize {
        if self.is_empty() {
            return 16;
        }
        let arity = self.batch.arity();
        let mut total = 16 + 2 * arity; // header + per-column descriptors
        for col in 0..arity {
            total += self.batch.encoded_column_size(col);
        }
        if with_tags {
            total += self.len() * TAG_WIRE_BYTES;
        }
        // 2-byte per-row code vector entries are counted inside
        // encoded_column_size; add a small per-row presence bitmap.
        total += self.len() / 8 + 1;
        total
    }

    /// Wire size given whether compression and tagging are enabled.
    pub fn wire_size(&self, compress: bool, with_tags: bool) -> usize {
        if compress {
            self.compressed_size(with_tags)
                .min(self.uncompressed_size(with_tags))
        } else {
            self.uncompressed_size(with_tags)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{NodeId, Tuple, Value};

    fn row(key: i64, flag: &str, comment: &str) -> TaggedTuple {
        TaggedTuple::scanned(
            Tuple::new(vec![Value::Int(key), Value::str(flag), Value::str(comment)]),
            NodeId(0),
            0,
        )
    }

    #[test]
    fn empty_batch_has_header_only() {
        let b = TupleBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.wire_size(true, true), 16);
        assert_eq!(b.wire_size(false, false), 16);
    }

    #[test]
    fn repetitive_columns_compress_well() {
        // 1000 rows with only two distinct flag values and identical
        // comments: the dictionary encoding should be much smaller than
        // the plain encoding.
        let rows: Vec<TaggedTuple> = (0..1000)
            .map(|i| row(i, if i % 2 == 0 { "A" } else { "B" }, "same comment text"))
            .collect();
        let b = TupleBatch::from_rows(rows);
        let plain = b.uncompressed_size(false);
        let compressed = b.compressed_size(false);
        assert!(
            compressed < plain / 2,
            "compressed {compressed} vs plain {plain}"
        );
        // wire_size never exceeds the plain encoding.
        assert!(b.wire_size(true, false) <= plain);
    }

    #[test]
    fn unique_columns_do_not_balloon() {
        // All-distinct values: the dictionary cannot help, but the fallback
        // keeps the size close to (never worse than) plain encoding.
        let rows: Vec<TaggedTuple> = (0..500)
            .map(|i| row(i, &format!("flag{i}"), &format!("comment {i}")))
            .collect();
        let b = TupleBatch::from_rows(rows);
        assert!(b.compressed_size(false) <= b.uncompressed_size(false) + 1024);
    }

    #[test]
    fn tags_add_fixed_overhead() {
        let rows: Vec<TaggedTuple> = (0..100).map(|i| row(i, "A", "x")).collect();
        let b = TupleBatch::from_rows(rows);
        let without = b.compressed_size(false);
        let with = b.compressed_size(true);
        assert_eq!(with - without, 100 * TAG_WIRE_BYTES);
    }

    #[test]
    fn len_reports_rows() {
        let b = TupleBatch::from_rows(vec![row(1, "A", "x"), row(2, "B", "y")]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn sizes_match_the_row_formula_exactly() {
        // Cross-check the incremental columnar accounting against the
        // original row-at-a-time formulas, computed longhand.  The
        // longhand `min`s fold to constants; that is the point.
        #![allow(clippy::unnecessary_min_or_max)]
        let rows: Vec<TaggedTuple> = (0..50)
            .map(|i| row(i % 5, if i % 2 == 0 { "A" } else { "B" }, "c"))
            .collect();
        let b = TupleBatch::from_rows(rows.clone());
        let plain_rows: usize = rows.iter().map(|r| r.tuple.serialized_size()).sum();
        assert_eq!(b.uncompressed_size(false), 16 + plain_rows);
        assert_eq!(
            b.uncompressed_size(true),
            16 + plain_rows + 50 * TAG_WIRE_BYTES
        );
        // Dictionary per column: 5 ints (9B each), 2 flags (6B each), one
        // comment (6B); plus 2B per row per column, descriptors, bitmap.
        let col0 = (5 * 9 + 2 * 50).min(50 * 9);
        let col1 = (2 * 6 + 2 * 50).min(50 * 6);
        let col2 = (6 + 2 * 50).min(50 * 6);
        assert_eq!(
            b.compressed_size(false),
            16 + 2 * 3 + col0 + col1 + col2 + 50 / 8 + 1
        );
    }

    #[test]
    fn ragged_rows_price_missing_cells_as_real_nulls() {
        // Regression for the old encoder's arbitrary 16-byte surcharge on
        // rows too short for a column: a missing cell is a NULL and costs
        // its real 1-byte serialized size, entering the dictionary like
        // any other value.  The longhand formulas fold to constants.
        #![allow(clippy::unnecessary_min_or_max, clippy::identity_op)]
        let mut rows: Vec<TaggedTuple> = (0..4)
            .map(|i| {
                TaggedTuple::scanned(
                    Tuple::new(vec![Value::Int(i), Value::str("pad-me")]),
                    NodeId(0),
                    0,
                )
            })
            .collect();
        rows.push(TaggedTuple::scanned(
            Tuple::new(vec![Value::Int(4)]),
            NodeId(0),
            0,
        ));
        let b = TupleBatch::from_rows(rows);
        assert_eq!(b.len(), 5);
        // The short row reads back padded with a NULL.
        assert!(b.row_at(4).tuple.value(1).is_null());
        // Column 0: five distinct ints, dictionary cannot help.
        let col0 = (5 * 9 + 2 * 5).min(5 * 9);
        // Column 1: dictionary = "pad-me" (11B) + NULL (1B, not 16B);
        // plain = 4 strings + one 1-byte NULL.
        let col1 = (11 + 1 + 2 * 5).min(4 * 11 + 1);
        assert_eq!(
            b.compressed_size(false),
            16 + 2 * 2 + col0 + col1 + 5 / 8 + 1
        );
    }
}
