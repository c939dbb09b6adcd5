//! The benchmark's own span recorder.
//!
//! The program under test emits no spans, so the traced run records them
//! here, around the calls into each layer. Spans stay in memory while
//! the run measures and are written as JSON lines when it ends; the
//! `layers` table is each span name's self time — its duration minus
//! the part its children cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to; spans of one op share it.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// An overlay reports time that its siblings already cover (store
    /// fetches happen *inside* the mining phases), so it is shown but
    /// not subtracted from its parent's self time.
    pub overlay: bool,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Self time of one span name, summed over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub overlay: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn nanos_at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one finished span and returns its index, the `parent` of
    /// its children.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            overlay: false,
        });
        (self.spans.len() - 1) as u32
    }

    /// Records an overlay span (see [`Span::overlay`]).
    pub fn record_overlay(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        start_ns: u64,
        nanos: u64,
    ) {
        let id = self.record(name, op, Some(parent), start_ns, start_ns + nanos);
        self.spans[id as usize].overlay = true;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in first-seen order.
    pub fn layers(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.overlay) {
                child_ns[p as usize] += s.nanos();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                LayerRow {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    overlay: s.overlay,
                }
            });
            row.count += 1;
            row.total_ns += s.nanos();
            row.self_ns += s.nanos().saturating_sub(child_ns[i]);
        }
        order.iter().map(|n| rows[n].clone()).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"overlay\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.overlay
            )?;
        }
        w.flush()
    }
}

/// Prints the `layers` table: self time per span name and its share of
/// the root spans' total.
pub fn print_layers(rows: &[LayerRow], root: &str) {
    let root_ns = rows
        .iter()
        .find(|r| r.name == root)
        .map_or(0, |r| r.total_ns)
        .max(1);
    println!("layers (self time per span; share of {root}; ~ marks an overlay, time its siblings already cover)");
    println!(
        "  {:<22} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "share"
    );
    for r in rows {
        println!(
            "  {}{:<21} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            if r.overlay { '~' } else { ' ' },
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / root_ns as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.record("client.op", 0, None, 0, 100);
        let rtt = t.record("client.rtt", 0, Some(op), 10, 90);
        t.record("server.elapsed", 0, Some(rtt), 40, 90);
        let rows = t.layers();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("client.op").self_ns, 20);
        assert_eq!(get("client.rtt").self_ns, 30);
        assert_eq!(get("server.elapsed").self_ns, 50);
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
        // An overlay shows up without disturbing the partition.
        t.record_overlay("storage.fetch", 0, rtt, 40, 25);
        let rows = t.layers();
        let total: u64 = rows.iter().filter(|r| !r.overlay).map(|r| r.self_ns).sum();
        assert_eq!(total, 100);
        assert_eq!(rows.last().unwrap().self_ns, 25);
        assert_eq!(get("client.rtt").total_ns, 80);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::new();
        let op = t.record("client.op", 3, None, 5, 9);
        t.record("client.rtt", 3, Some(op), 6, 8);
        let path = crate::default_root().join(format!("trace-test-{}.jsonl", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"client.rtt\",\"op\":3,\"parent\":0,\"start_ns\":6,\"end_ns\":8,\"overlay\":false}"
        );
    }
}
