//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, start, end)` with nanosecond offsets
//! from the recorder's epoch. Spans are recorded by the benchmark around
//! its calls into each layer's public API; nothing inside the program is
//! instrumented. Each thread buffers its own spans and hands them to the
//! shared list when it ends (or on [`flush_thread`]), so concurrent
//! clients do not contend on a lock per span. With tracing off every
//! call is a single relaxed atomic load.
//!
//! Span names are `layer.call` (`convalid.parse` is a call into
//! `convalid`); the benchmark's own harness spans use the workload name
//! as their layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-thread buffer plus the stack of open span ids; the buffer moves
/// to the shared list when the thread exits.
struct Local {
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut shared) = SPANS.lock() {
                shared.append(&mut self.spans);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local { spans: Vec::new(), stack: Vec::new() }) };
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// The span's id (0 when tracing is off), for spans opened on other
    /// threads with [`span_under`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Renames the span before it ends, for spans whose kind is known
    /// only after the call (a memo hit or miss).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&self.id) {
                l.stack.pop();
            }
            l.spans.push(span);
        });
    }
}

/// Opens a span under the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    let parent = if enabled() {
        LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0))
    } else {
        0
    };
    span_under(name, parent)
}

/// Opens a span under an explicit parent (a span of another thread).
pub fn span_under(name: &'static str, parent: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().stack.push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// An id no span recorded so far has reached: spans opened later have
/// ids at or above it.
pub fn mark() -> u64 {
    NEXT_ID.load(Ordering::Relaxed)
}

/// Moves this thread's buffered spans to the shared list.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.spans.is_empty() {
            SPANS
                .lock()
                .expect("span list poisoned")
                .append(&mut l.spans);
        }
    });
}

/// Every span recorded so far, in start order (flushes this thread
/// first; other threads must have ended or flushed).
pub fn snapshot() -> Vec<Span> {
    flush_thread();
    let mut spans = SPANS.lock().expect("span list poisoned").clone();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// The subtree of spans under (and including) `root`.
pub fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let mut out = Vec::new();
    let mut stack: Vec<u64> = vec![root];
    if let Some(r) = spans.iter().find(|s| s.id == root) {
        out.push(*r);
    }
    while let Some(id) = stack.pop() {
        for &i in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
            out.push(spans[i]);
            stack.push(spans[i].id);
        }
    }
    out
}

/// Self time per span name: each span's duration minus the part covered
/// by its direct children, summed by name (nanoseconds). Spans of
/// parallel workers sum their thread time.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Durations (nanoseconds) of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes spans as tab-separated `id parent name start_ns end_ns` lines.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
