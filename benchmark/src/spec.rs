//! The metrics this benchmark reports, by name and unit. `BENCHMARK.json`
//! at the repository root declares the same names; a test holds the two
//! lists equal.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
/// Prefixes name the layer: a crate of the workspace, or `client` for
/// the load generator itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    // k2-datagen — from the workload's own set-up.
    ("datagen.gen_s", "s"),
    // k2-model — probes.
    ("model.set_intersect_ns", "ns"),
    ("model.convoyset_update_us", "us"),
    // k2-cluster — probes.
    ("cluster.dbscan_snapshot_us", "us"),
    ("cluster.recluster_probe_ns", "ns"),
    ("cluster.grid_patch_ratio", "ratio"),
    // k2-core — per mine of the traced phase; par_* are probes.
    ("core.benchmark_ms", "ms"),
    ("core.intersect_ms", "ms"),
    ("core.hwmt_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.extend_ms", "ms"),
    ("core.validation_ms", "ms"),
    ("core.attributed_frac", "ratio"),
    ("core.points_processed", "count"),
    ("core.pruning_ratio", "ratio"),
    ("core.convoys", "count"),
    ("core.par_dataset_ms", "ms"),
    ("core.par_store_ms", "ms"),
    ("core.prefetch_bytes_peak", "bytes"),
    // k2-storage — fetch* from TimedSource around the workload's mines,
    // lsm.{bulk_load_s..tables_final} from the workload's store, the
    // rest probes.
    ("storage.fetch_ms", "ms"),
    ("storage.fetch_frac", "ratio"),
    ("storage.multi_get_calls", "count"),
    ("storage.scan_calls", "count"),
    ("storage.lsm.bulk_load_s", "s"),
    ("storage.lsm.bytes_per_point", "bytes"),
    ("storage.lsm.cache_hit_rate", "ratio"),
    ("storage.lsm.cache_hit_rate_short", "ratio"),
    ("storage.lsm.write_amp", "ratio"),
    ("storage.lsm.flushes", "count"),
    ("storage.lsm.compactions", "count"),
    ("storage.lsm.wal_appends", "count"),
    ("storage.lsm.tables_final", "count"),
    ("storage.lsm.multi_get_us", "us"),
    ("storage.lsm.scan_snapshot_us", "us"),
    ("storage.lsm.blocks_per_multi_get", "count"),
    ("storage.lsm.insert_ns", "ns"),
    ("storage.pin.pin_us", "us"),
    ("storage.pin.multi_get_us", "us"),
    ("storage.pin.blocks_per_multi_get", "count"),
    ("storage.btree.load_s", "s"),
    ("storage.btree.mine_ms", "ms"),
    ("storage.flat.mine_ms", "ms"),
    // k2-server — probes on a fixture service.
    ("server.encode_req_ns", "ns"),
    ("server.decode_req_ns", "ns"),
    ("server.encode_reply_us", "us"),
    ("server.decode_reply_us", "us"),
    ("server.frame_io_us", "us"),
    ("server.pool_dispatch_us", "us"),
    ("server.handle_short_ms", "ms"),
    ("server.handle_long_ms", "ms"),
    ("server.handle_ingest_ms", "ms"),
    ("server.local_rtt_short_ms", "ms"),
    ("server.wire_overhead_ms", "ms"),
    ("server.stats_rtt_ms", "ms"),
    // k2-patterns, k2-baselines — probes, informational.
    ("patterns.flock_request_ms", "ms"),
    ("baselines.vcoda_star_ms", "ms"),
    ("baselines.k2_gain_x", "ratio"),
    // The load generator.
    ("client.op_p99_ms", "ms"),
    ("client.op_max_ms", "ms"),
    ("client.op_mean_ms", "ms"),
    ("client.cpu_ms_per_op", "ms"),
    ("client.attributed_frac", "ratio"),
    ("client.bg_p50_ms", "ms"),
    ("client.bg_p90_ms", "ms"),
    ("client.bg_late_max_ms", "ms"),
    ("client.bg_kpts_per_s", "1/s"),
    ("client.max_staleness", "count"),
    ("client.trace_overhead_frac", "ratio"),
];

/// Values collected during a run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores a value. An undeclared name is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared in spec.rs"
        );
        self.0.insert(name, value);
    }

    /// The declared metrics of `list` in order, or the first one the run
    /// failed to produce.
    pub fn in_order(
        &self,
        list: &'static [(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        list.iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some(&v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one array of `BENCHMARK.json`. The
    /// file is flat enough that scanning for the two keys is a parse.
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("open quote") + 1;
            let close = open + rest[open..].find('"').expect("close quote");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(declared(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn missing_metrics_are_reported_by_name() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        let err = m.in_order(END_TO_END).unwrap_err();
        assert!(err.contains("op_p50_ms"), "{err}");
    }
}
