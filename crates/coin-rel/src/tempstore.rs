//! Disk-backed temporary storage.
//!
//! The prototype's multi-database access engine "uses two local secondary
//! storages" for dictionary information and "to handle large results or
//! large sets of temporary data" (paper §2). This module is that substrate:
//! a [`TempStore`] that spills runs of rows to temporary files with a
//! compact binary encoding, and an [`ExternalSorter`] that sorts arbitrarily
//! large row streams with bounded memory (sorted runs + k-way merge).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::schema::Row;
use crate::value::Value;

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(0);

/// Disk-spill accounting: what actually hit the local secondary storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Run files written.
    pub runs_written: u64,
    /// Total bytes written across all runs.
    pub bytes_spilled: u64,
    /// Total rows written across all runs.
    pub rows_spilled: u64,
    /// Size of the largest single run, in bytes.
    pub max_run_bytes: u64,
}

/// Shared per-instance counters (a `TempStore` clone observes the same
/// totals as its original).
#[derive(Debug, Default)]
struct StoreCounters {
    runs_written: AtomicU64,
    bytes_spilled: AtomicU64,
    rows_spilled: AtomicU64,
    max_run_bytes: AtomicU64,
}

/// A handle to a directory for temporary run files; files are deleted when
/// their readers/writers drop. Clones share the directory *and* the spill
/// counters, so one store handed to every spilling operator of a pipeline
/// accounts for exactly that pipeline's disk activity, on whichever thread
/// it runs.
#[derive(Debug, Clone)]
pub struct TempStore {
    dir: PathBuf,
    counters: Arc<StoreCounters>,
}

impl Default for TempStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TempStore {
    /// A temp store in the OS temp directory. Creating one touches no
    /// file: the directory is made by the first [`TempStore::spill`].
    pub fn new() -> TempStore {
        TempStore {
            dir: std::env::temp_dir().join("coin-tempstore"),
            counters: Arc::new(StoreCounters::default()),
        }
    }

    fn fresh_path(&self) -> PathBuf {
        let id = NEXT_FILE_ID.fetch_add(1, AtomicOrdering::Relaxed);
        self.dir
            .join(format!("run-{}-{id}.coin", std::process::id()))
    }

    /// Spill rows to a new run file; returns a reader-factory handle.
    /// The run's size is recorded on this store's counters.
    pub fn spill(&self, rows: &[Row]) -> io::Result<SpillFile> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.fresh_path();
        let mut w = CountingWriter {
            inner: BufWriter::new(File::create(&path)?),
            bytes: 0,
        };
        for row in rows {
            write_row(&mut w, row)?;
        }
        w.inner.flush()?;
        let bytes = w.bytes;
        self.counters
            .runs_written
            .fetch_add(1, AtomicOrdering::Relaxed);
        self.counters
            .bytes_spilled
            .fetch_add(bytes, AtomicOrdering::Relaxed);
        self.counters
            .rows_spilled
            .fetch_add(rows.len() as u64, AtomicOrdering::Relaxed);
        self.counters
            .max_run_bytes
            .fetch_max(bytes, AtomicOrdering::Relaxed);
        Ok(SpillFile { path })
    }

    /// Snapshot of this store's cumulative spill counters (shared with all
    /// clones of the store).
    pub fn spill_stats(&self) -> SpillStats {
        SpillStats {
            runs_written: self.counters.runs_written.load(AtomicOrdering::Relaxed),
            bytes_spilled: self.counters.bytes_spilled.load(AtomicOrdering::Relaxed),
            rows_spilled: self.counters.rows_spilled.load(AtomicOrdering::Relaxed),
            max_run_bytes: self.counters.max_run_bytes.load(AtomicOrdering::Relaxed),
        }
    }
}

/// Byte-counting writer so run sizes are recorded without a metadata
/// syscall.
struct CountingWriter {
    inner: BufWriter<File>,
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A spilled run; deleted on drop.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
}

impl SpillFile {
    pub fn reader(&self) -> io::Result<SpillReader> {
        Ok(SpillReader {
            r: BufReader::new(File::open(&self.path)?),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Sequential reader over a spilled run.
#[derive(Debug)]
pub struct SpillReader {
    r: BufReader<File>,
}

impl SpillReader {
    /// Read the next row; `None` at end of run.
    pub fn next_row(&mut self) -> io::Result<Option<Row>> {
        read_row(&mut self.r)
    }
}

// ---- row encoding ---------------------------------------------------------
//
// Row   := u32 column-count, then values
// Value := tag u8 (0 null, 1 bool, 2 int, 3 float, 4 str)
//          + payload (bool: u8; int: i64 LE; float: f64 bits LE;
//            str: u32 length + bytes)

fn write_row(w: &mut impl Write, row: &Row) -> io::Result<()> {
    w.write_all(&(row.len() as u32).to_le_bytes())?;
    for v in row {
        match v {
            Value::Null => w.write_all(&[0])?,
            Value::Bool(b) => {
                w.write_all(&[1, u8::from(*b)])?;
            }
            Value::Int(i) => {
                w.write_all(&[2])?;
                w.write_all(&i.to_le_bytes())?;
            }
            Value::Float(f) => {
                w.write_all(&[3])?;
                w.write_all(&f.to_bits().to_le_bytes())?;
            }
            Value::Str(s) => {
                w.write_all(&[4])?;
                w.write_all(&(s.len() as u32).to_le_bytes())?;
                w.write_all(s.as_bytes())?;
            }
        }
    }
    Ok(())
}

fn read_row(r: &mut impl Read) -> io::Result<Option<Row>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len_buf) as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let v = match tag[0] {
            0 => Value::Null,
            1 => {
                let mut b = [0u8; 1];
                r.read_exact(&mut b)?;
                Value::Bool(b[0] != 0)
            }
            2 => {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                Value::Int(i64::from_le_bytes(b))
            }
            3 => {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                Value::Float(f64::from_bits(u64::from_le_bytes(b)))
            }
            4 => {
                let mut lb = [0u8; 4];
                r.read_exact(&mut lb)?;
                let mut s = vec![0u8; u32::from_le_bytes(lb) as usize];
                r.read_exact(&mut s)?;
                Value::from(
                    String::from_utf8(s)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
                )
            }
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad value tag {t}"),
                ))
            }
        };
        row.push(v);
    }
    Ok(Some(row))
}

/// Comparator over rows: (column index, descending?) pairs applied in order.
pub type SortKey = Vec<(usize, bool)>;

/// Compare rows by a sort key using the total value ordering.
pub fn cmp_rows(a: &Row, b: &Row, key: &[(usize, bool)]) -> Ordering {
    for &(i, desc) in key {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// External merge sorter with a bounded in-memory run size.
pub struct ExternalSorter {
    store: TempStore,
    key: SortKey,
    run_capacity: usize,
    current: Vec<Row>,
    runs: Vec<SpillFile>,
    /// Runs handed over already sorted ([`ExternalSorter::add_sorted_run`]);
    /// they join the final merge without touching disk.
    mem_runs: Vec<Vec<Row>>,
    /// Count of rows that went through a disk run (spill ablation metric).
    spilled_rows: usize,
}

impl ExternalSorter {
    pub fn new(store: TempStore, key: SortKey, run_capacity: usize) -> ExternalSorter {
        assert!(run_capacity > 0);
        ExternalSorter {
            store,
            key,
            run_capacity,
            current: Vec::new(),
            runs: Vec::new(),
            mem_runs: Vec::new(),
            spilled_rows: 0,
        }
    }

    /// Hand over rows that are *already sorted* by this sorter's key as one
    /// merge run. The run stays in memory — it is never re-sorted and never
    /// written to disk, so it contributes nothing to the spill counters.
    /// Callers that have done the sorting work once (e.g. a deduplicated
    /// hash set sorted in place) use this to merge only the tail through
    /// the disk path.
    pub fn add_sorted_run(&mut self, rows: Vec<Row>) {
        debug_assert!(
            rows.windows(2)
                .all(|w| cmp_rows(&w[0], &w[1], &self.key) != Ordering::Greater),
            "add_sorted_run: rows not sorted by the sorter's key"
        );
        if !rows.is_empty() {
            self.mem_runs.push(rows);
        }
    }

    pub fn push(&mut self, row: Row) -> io::Result<()> {
        self.current.push(row);
        if self.current.len() >= self.run_capacity {
            self.flush_run()?;
        }
        Ok(())
    }

    fn flush_run(&mut self) -> io::Result<()> {
        if self.current.is_empty() {
            return Ok(());
        }
        let key = self.key.clone();
        self.current.sort_by(|a, b| cmp_rows(a, b, &key));
        self.spilled_rows += self.current.len();
        let run = self.store.spill(&self.current)?;
        self.current.clear();
        self.runs.push(run);
        Ok(())
    }

    pub fn spilled_rows(&self) -> usize {
        self.spilled_rows
    }

    /// Finish and return the fully sorted rows.
    ///
    /// If everything fit in one in-memory run, no disk I/O happens at all;
    /// otherwise all runs are k-way merged through a heap
    /// ([`ExternalSorter::into_merge`] is the streaming form of the same
    /// merge). The in-memory tail is merged from memory, not re-spilled.
    pub fn finish(self) -> io::Result<Vec<Row>> {
        let mut merge = self.into_merge()?;
        let mut out = Vec::new();
        while let Some(row) = merge.next_row()? {
            out.push(row);
        }
        Ok(out)
    }

    /// Finish into a streaming k-way merge: rows come out one at a time in
    /// sorted order, holding at most one in-memory run plus one row per
    /// disk run in memory. This is the bounded-memory seam the streaming
    /// executor pulls from.
    pub fn into_merge(mut self) -> io::Result<MergeStream> {
        let key = Arc::new(self.key);
        self.current.sort_by(|a, b| cmp_rows(a, b, &key));
        // Source order is the tie-break for equal rows (the merge is
        // stable): pre-sorted runs were handed over before anything was
        // pushed, disk runs spilled in push order, and the in-memory tail
        // holds the latest pushes.
        let mut sources: Vec<RunSource> =
            Vec::with_capacity(self.runs.len() + 1 + self.mem_runs.len());
        for run in self.mem_runs {
            sources.push(RunSource::Mem(run.into_iter()));
        }
        for run in &self.runs {
            sources.push(RunSource::Disk(run.reader()?));
        }
        if !self.current.is_empty() {
            sources.push(RunSource::Mem(self.current.into_iter()));
        }
        let mut heap = BinaryHeap::with_capacity(sources.len());
        if sources.len() > 1 {
            for (i, src) in sources.iter_mut().enumerate() {
                if let Some(row) = src.next_row()? {
                    heap.push(Keyed {
                        row,
                        source: i,
                        key: Arc::clone(&key),
                    });
                }
            }
        }
        Ok(MergeStream {
            key,
            sources,
            heap,
            _files: self.runs,
        })
    }
}

/// One input to a [`MergeStream`]: a disk run or an in-memory sorted run.
enum RunSource {
    Disk(SpillReader),
    Mem(std::vec::IntoIter<Row>),
}

impl RunSource {
    fn next_row(&mut self) -> io::Result<Option<Row>> {
        match self {
            RunSource::Disk(r) => r.next_row(),
            RunSource::Mem(it) => Ok(it.next()),
        }
    }
}

/// Heap entry: Rust's `BinaryHeap` is a max-heap and needs `Ord` on the
/// item itself, so each entry carries the shared sort key and compares
/// reversed for min-heap behaviour.
struct Keyed {
    row: Row,
    source: usize,
    key: Arc<SortKey>,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        cmp_rows(&self.row, &other.row, &self.key) == Ordering::Equal
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour; equal rows pop in source order,
        // which makes the merge stable (the surviving representative of an
        // equal-but-distinguishable pair, e.g. Int(1) vs Float(1.0), is
        // the earliest-arriving one — same as a single stable sort).
        cmp_rows(&other.row, &self.row, &self.key).then_with(|| other.source.cmp(&self.source))
    }
}

/// Streaming k-way merge over sorted runs (see
/// [`ExternalSorter::into_merge`]). Single-run merges bypass the heap
/// entirely — the common no-spill sort degenerates to draining one
/// in-memory run.
pub struct MergeStream {
    #[allow(dead_code)]
    key: Arc<SortKey>,
    sources: Vec<RunSource>,
    heap: BinaryHeap<Keyed>,
    /// Keeps the spill files alive (they are deleted on drop).
    _files: Vec<SpillFile>,
}

impl MergeStream {
    /// The next row in global sorted order; `None` when exhausted.
    pub fn next_row(&mut self) -> io::Result<Option<Row>> {
        if self.sources.len() <= 1 {
            return match self.sources.first_mut() {
                Some(src) => src.next_row(),
                None => Ok(None),
            };
        }
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        if let Some(next) = self.sources[top.source].next_row()? {
            self.heap.push(Keyed {
                row: next,
                source: top.source,
                key: Arc::clone(&top.key),
            });
        }
        Ok(Some(top.row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64, s: &str) -> Row {
        vec![Value::Int(i), Value::str(s)]
    }

    #[test]
    fn spill_roundtrip_all_value_kinds() {
        let store = TempStore::new();
        let rows = vec![vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::str("文字 with spaces"),
        ]];
        let run = store.spill(&rows).unwrap();
        let mut r = run.reader().unwrap();
        assert_eq!(r.next_row().unwrap().unwrap(), rows[0]);
        assert!(r.next_row().unwrap().is_none());
    }

    #[test]
    fn spill_file_deleted_on_drop() {
        let store = TempStore::new();
        let run = store.spill(&[row(1, "a")]).unwrap();
        let path = run.path.clone();
        assert!(path.exists());
        drop(run);
        assert!(!path.exists());
    }

    #[test]
    fn in_memory_sort_no_spill() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store, vec![(0, false)], 100);
        for i in [5, 3, 9, 1] {
            s.push(row(i, "x")).unwrap();
        }
        assert_eq!(s.spilled_rows(), 0);
        let sorted = s.finish().unwrap();
        let keys: Vec<i64> = sorted
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn external_sort_with_spills() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store, vec![(0, false)], 16);
        let n = 1000;
        // Deterministic shuffle via multiplicative hashing.
        for i in 0..n {
            let k = (i * 7919) % n;
            s.push(row(k, "x")).unwrap();
        }
        assert!(s.spilled_rows() > 0);
        let sorted = s.finish().unwrap();
        assert_eq!(sorted.len(), n as usize);
        for (i, r) in sorted.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn descending_and_secondary_key() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store, vec![(1, false), (0, true)], 2);
        s.push(row(1, "b")).unwrap();
        s.push(row(2, "a")).unwrap();
        s.push(row(3, "a")).unwrap();
        let sorted = s.finish().unwrap();
        assert_eq!(sorted[0], row(3, "a"));
        assert_eq!(sorted[1], row(2, "a"));
        assert_eq!(sorted[2], row(1, "b"));
    }

    #[test]
    fn nulls_sort_first() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store, vec![(0, false)], 2);
        s.push(vec![Value::Int(1), Value::str("x")]).unwrap();
        s.push(vec![Value::Null, Value::str("y")]).unwrap();
        s.push(vec![Value::Int(0), Value::str("z")]).unwrap();
        let sorted = s.finish().unwrap();
        assert_eq!(sorted[0][0], Value::Null);
    }

    #[test]
    fn empty_sorter() {
        let s = ExternalSorter::new(TempStore::new(), vec![(0, false)], 4);
        assert!(s.finish().unwrap().is_empty());
    }

    #[test]
    fn spill_accounting_counts_runs_bytes_and_max() {
        let store = TempStore::new();
        assert_eq!(store.spill_stats(), SpillStats::default());
        let r1 = store.spill(&[row(1, "a"), row(2, "bb")]).unwrap();
        let r2 = store.spill(&[row(3, "a")]).unwrap();
        let s = store.spill_stats();
        assert_eq!(s.runs_written, 2);
        assert_eq!(s.rows_spilled, 3);
        assert!(s.bytes_spilled > 0);
        assert!(s.max_run_bytes > 0 && s.max_run_bytes < s.bytes_spilled);
        // The larger (2-row) run is the max: more than half the total.
        assert!(s.max_run_bytes > s.bytes_spilled / 2);
        drop((r1, r2));
    }

    #[test]
    fn store_clones_share_counters() {
        let store = TempStore::new();
        let clone = store.clone();
        let _run = clone.spill(&[row(1, "x")]).unwrap();
        assert_eq!(store.spill_stats().runs_written, 1);
        assert_eq!(clone.spill_stats().runs_written, 1);
        // A fresh store starts from zero.
        assert_eq!(TempStore::new().spill_stats().runs_written, 0);
    }

    #[test]
    fn in_memory_sort_records_no_spill() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store.clone(), vec![(0, false)], 100);
        for i in 0..10 {
            s.push(row(i, "x")).unwrap();
        }
        assert_eq!(store.spill_stats(), SpillStats::default());
        s.finish().unwrap();
    }

    #[test]
    fn external_sort_records_spill_stats() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store.clone(), vec![(0, false)], 8);
        for i in 0..100 {
            s.push(row((i * 37) % 100, "payload")).unwrap();
        }
        let before_finish = store.spill_stats();
        assert!(before_finish.runs_written >= 100 / 8);
        let sorted = s.finish().unwrap();
        assert_eq!(sorted.len(), 100);
    }

    #[test]
    fn store_spill_stats_are_exact_on_any_thread() {
        let store = TempStore::new();
        let _r = store.spill(&[row(1, "a"), row(2, "b")]).unwrap();
        let s = store.spill_stats();
        assert_eq!(s.runs_written, 1);
        assert_eq!(s.rows_spilled, 2);
        assert!(s.bytes_spilled > 0);
        // Another store's spills are invisible here, whichever thread
        // wrote them …
        let handle = std::thread::spawn(|| {
            let other = TempStore::new();
            let _r = other.spill(&[vec![Value::Int(1)]]).unwrap();
            other.spill_stats().runs_written
        });
        assert!(handle.join().unwrap() >= 1);
        assert_eq!(store.spill_stats().runs_written, 1);
        // … while a clone of this store counts here from any thread.
        let clone = store.clone();
        let one_row_run = std::thread::spawn(move || {
            let _r = clone.spill(&[vec![Value::Int(1)]]).unwrap();
            clone.spill_stats().max_run_bytes
        });
        assert!(one_row_run.join().unwrap() > 0);
        assert_eq!(store.spill_stats().runs_written, 2);
        // A store that wrote no runs reports no max either — a big run
        // from another execution must not leak into it.
        assert_eq!(TempStore::new().spill_stats(), SpillStats::default());
        // And a store's max never exceeds its own byte total.
        let w = store.spill_stats();
        assert!(w.max_run_bytes <= w.bytes_spilled);
    }

    #[test]
    fn sorted_runs_merge_without_spilling() {
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store.clone(), vec![(0, false)], 4);
        s.add_sorted_run(vec![row(0, "pre"), row(2, "pre"), row(9, "pre")]);
        for i in [7, 1, 5, 3, 8, 4] {
            s.push(row(i, "tail")).unwrap();
        }
        let sorted = s.finish().unwrap();
        let keys: Vec<i64> = sorted
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5, 7, 8, 9]);
        // Only the pushed tail spilled (6 rows past a 4-row run capacity
        // flushes one 4-row run; the rest merges from memory).
        assert_eq!(store.spill_stats().rows_spilled, 4);
    }

    #[test]
    fn streaming_merge_matches_finish() {
        let store = TempStore::new();
        let build = |store: &TempStore| {
            let mut s = ExternalSorter::new(store.clone(), vec![(0, false)], 8);
            for i in 0..100 {
                s.push(row((i * 37) % 100, "x")).unwrap();
            }
            s
        };
        let want = build(&store).finish().unwrap();
        let mut merge = build(&store).into_merge().unwrap();
        let mut got = Vec::new();
        while let Some(r) = merge.next_row().unwrap() {
            got.push(r);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn merge_ties_break_by_arrival_order() {
        // Int(1) and Float(1.0) compare equal but are distinguishable; the
        // stable merge must surface the pre-sorted run's copy (handed over
        // before any push) ahead of the pushed one.
        let store = TempStore::new();
        let mut s = ExternalSorter::new(store, vec![(0, false)], 1);
        s.add_sorted_run(vec![vec![Value::Float(1.0)]]);
        s.push(vec![Value::Int(1)]).unwrap();
        let sorted = s.finish().unwrap();
        assert_eq!(sorted[0], vec![Value::Float(1.0)]);
        assert_eq!(sorted[1], vec![Value::Int(1)]);
    }
}
