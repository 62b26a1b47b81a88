//! What the benchmark measures, by name: the tables `BENCHMARK.json`,
//! `README.md` and `compare` agree on (a test holds them together).

#[cfg(test)]
use crate::json::Json;

/// The layers are the product crates.
pub const WORKLOADS: [&str; 4] = ["eval_cold", "maintain", "serve_read", "serve_mixed"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric every workload prints with tracing off.
///
/// The timing bounds are the widest the contract allows.  On the reference
/// host the same binary's medians drift by 7 % between quiet runs and by
/// 50 to 85 % during a noisy neighbour's minutes (`host.spin_ms` shows
/// those), and a bound has to hold for all four workloads at once.  The
/// named figures below keep the tighter bounds a quiet host can resolve.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Fraction by which the median may worsen before it is a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A named figure of one workload, printed beside the end-to-end metrics
/// with tracing off: what the generic metrics above are made of.
pub struct Detail {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub workloads: &'static [&'static str],
}

const SERVE: &[&str] = &["serve_read", "serve_mixed"];

pub const DETAIL: [Detail; 11] = [
    Detail {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: &WORKLOADS,
    },
    Detail {
        name: "eval_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: &["eval_cold"],
    },
    Detail {
        name: "maintain_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        workloads: &["maintain"],
    },
    Detail {
        name: "insert_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        workloads: &["maintain"],
    },
    Detail {
        name: "retract_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        workloads: &["maintain"],
    },
    Detail {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        workloads: SERVE,
    },
    Detail {
        name: "query_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: SERVE,
    },
    Detail {
        name: "query_w64_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: SERVE,
    },
    Detail {
        name: "query_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        workloads: SERVE,
    },
    Detail {
        name: "update_ack_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        workloads: &["serve_mixed"],
    },
    Detail {
        name: "update_ack_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        workloads: &["serve_mixed"],
    },
];

/// The `eval_cold` roster, in the order per-cell metrics list it.
pub const CELLS: [&str; 6] = [
    "chain1024-gms",
    "chain1024-gsms",
    "sg64x64-gsms",
    "rev64-gms",
    "chain8192-gcsj",
    "shortest24x80-sn",
];

/// A metric of one layer, printed by the traced run.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// A count the program makes that must repeat exactly.
    pub exact: bool,
}

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better, exact: bool| {
        out.push(PerLayer {
            name,
            unit,
            better,
            exact,
        })
    };
    for (name, unit) in [
        ("datalog.parse_us", "us"),
        ("datalog.intern_ns", "ns"),
        ("storage.insert_ns_row", "ns"),
        ("storage.dup_insert_ns_row", "ns"),
        ("storage.lookup_ns", "ns"),
        ("storage.cow_first_write_us", "us"),
        ("storage.cow_clones_per_update", "count"),
    ] {
        add(name.into(), unit, Lower, false);
    }
    for cell in CELLS {
        add(format!("engine.fixpoint_ms.{cell}"), "ms", Lower, false);
    }
    for cell in CELLS {
        add(format!("engine.probes.{cell}"), "count", Lower, true);
    }
    for cell in CELLS {
        add(format!("engine.facts.{cell}"), "count", Lower, true);
    }
    add("engine.compile_us".into(), "us", Lower, false);
    add("engine.answers_us".into(), "us", Lower, false);
    for cell in CELLS {
        add(format!("core.plan_us.{cell}"), "us", Lower, false);
    }
    for cell in CELLS {
        add(
            format!("core.facts_per_answer.{cell}"),
            "count",
            Lower,
            true,
        );
    }
    for (name, unit, exact) in [
        ("incr.materialize_ms", "ms", false),
        ("incr.leaf_insert_us", "us", false),
        ("incr.leaf_retract_us", "us", false),
        ("incr.cut_retract_ms", "ms", false),
        ("incr.cut_insert_ms", "ms", false),
        ("incr.probes_per_cut_retract", "count", true),
        ("incr.views_moved_per_update", "count", false),
        ("incr.snapshot_us", "us", false),
        ("incr.snapshot_read_us", "us", false),
        ("durable.log_batch_us", "us", false),
        ("durable.wal_bytes_per_update_byte", "count", false),
        ("durable.checkpoint_ms", "ms", false),
        ("durable.checkpoint_bytes_per_fact", "count", false),
        ("durable.recover_ms", "ms", false),
        ("durable.recover_replayed_frames", "count", false),
        ("serve.encode_ns", "ns", false),
        ("serve.decode_ns", "ns", false),
        ("serve.parse_request_ns", "ns", false),
        ("serve.render_us", "us", false),
        ("serve.inproc_read_us", "us", false),
        ("serve.wire_overhead_us", "us", false),
    ] {
        add(name.into(), unit, Lower, exact);
    }
    add("serve.batch_size_p50".into(), "count", Higher, false);
    for name in [
        "serve.queue_depth_end",
        "serve.shed_updates",
        "serve.deadline_misses",
        "serve.publishes_per_update",
    ] {
        add(name.into(), "count", Lower, false);
    }
    add("host.nproc".into(), "count", Higher, false);
    add("host.spin_ms".into(), "ms", Lower, false);
    add("loadgen.lag_p99_us".into(), "us", Lower, false);
    add("trace_overhead_pct".into(), "%", Lower, false);
    for layer in crate::trace::LAYERS {
        add(format!("span.{layer}_pct"), "%", Lower, false);
    }
    out
}

#[cfg(test)]
fn better_str(better: Better) -> Json {
    Json::Str(
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
        .into(),
    )
}

/// The `end_to_end` and `per_layer` arrays as `BENCHMARK.json` spells them.
#[cfg(test)]
pub fn benchmark_json_metrics() -> (Json, Json) {
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", better_str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::Str(m.name.clone())),
                ("unit", Json::Str(m.unit.into())),
                ("better", better_str(m.better)),
            ])
        })
        .collect();
    (Json::Arr(e2e), Json::Arr(layers))
}
