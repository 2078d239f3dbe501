//! In-memory spans recorded around the benchmark's calls into each
//! layer. A span has a name (`<layer>.<call>`), start, end, parent and a
//! request id; spans are kept in memory and written out when the run
//! ends. A layer's self time is its spans' time minus their children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per layer in ms, ordered by layer name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for s in spans.iter() {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *layers.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// Runs `f` inside a span named `name` when tracing is on, and plainly
/// otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(tr) = tracer else {
        return f();
    };
    let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start_ns = tr.now_ns();
    let out = f();
    let end_ns = tr.now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    tr.spans.lock().expect("span buffer lock").push(Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        request,
    });
    out
}
