//! Outside-in spans for the traced run.
//!
//! The benchmark records one span around every call it makes into a
//! layer, keeps them in memory, and writes them at exit in the `fmm-obs`
//! span JSONL shape, so `fastmm report --traces <file>` renders the
//! per-layer trees with no new code. Each span carries its start offset
//! from the recorder's epoch (`start_us`) next to its own counters; self
//! time is total time minus the recorded children.

use fmm_obs::span::SpanRecord;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

struct Rec {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    fields: Vec<(&'static str, u64)>,
}

/// In-memory span log. A disabled recorder (untraced runs) records
/// nothing and costs a branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Rec>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh trace id (also usable as a root span's trace).
    pub fn new_trace(&mut self) -> u64 {
        // Trace ids only need to be unique and non-zero within the file.
        0x7e57_0000_0000_0000 | self.next_id_bump()
    }

    fn next_id_bump(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocate a span id ahead of recording the span, so children
    /// recorded first can name it as their parent (0 when disabled).
    pub fn reserve(&mut self) -> u64 {
        if self.enabled {
            self.next_id_bump()
        } else {
            0
        }
    }

    /// Record a closed span; returns its id (0 when disabled) so children
    /// can name it as their parent.
    pub fn span(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        fields: &[(&'static str, u64)],
    ) -> u64 {
        let id = self.reserve();
        self.span_as(id, trace, parent, name, start, end, fields);
        id
    }

    /// Record a closed span under an id from [`Recorder::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn span_as(
        &mut self,
        id: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        fields: &[(&'static str, u64)],
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.spans.push(Rec {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            fields: fields.to_vec(),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one `{"type":"span",...}` line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for r in &self.spans {
            if r.parent != 0 {
                *child_ns.entry(r.parent).or_default() += r.end_ns - r.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.spans {
            let total_ns = r.end_ns - r.start_ns;
            let mut fields = vec![("start_us", r.start_ns / 1000)];
            fields.extend_from_slice(&r.fields);
            let rec = SpanRecord {
                trace: r.trace,
                id: r.id,
                parent: r.parent,
                name: r.name,
                total_ns,
                self_ns: total_ns.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0)),
                fields,
            };
            writeln!(out, "{}", fmm_obs::json::span_line(&rec))?;
        }
        out.flush()
    }
}
