//! `trace-dump record --metrics` writes one snapshot: everything
//! `trace-dump metrics` derives from the trace just recorded, plus the
//! end-of-run gauges only the live machine knew.

use std::path::Path;
use std::process::Command;
use trace::json::{parse, Value};

fn trace_dump(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
        .args(args)
        .output()
        .expect("trace-dump runs");
    assert!(out.status.success(), "trace-dump {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Every `[name, [labels], value…]` series of a canonical snapshot.
fn series(snapshot: &Value) -> Vec<&[Value]> {
    let mut out = Vec::new();
    for kind in ["counters", "gauges", "hists"] {
        for s in snapshot
            .field(kind)
            .and_then(|s| s.as_arr(kind))
            .expect(kind)
        {
            out.push(s.as_arr("series").expect("a series"));
        }
    }
    out
}

fn gauge(snapshot: &Value, name: &str) -> u64 {
    let key = [Value::Str(name.to_owned()), Value::Arr(Vec::new())];
    let gauge = series(snapshot).into_iter().find(|s| s[..2] == key);
    gauge.unwrap_or_else(|| panic!("{name} missing"))[2]
        .as_u64(name)
        .expect("a gauge value")
}

#[test]
fn record_metrics_is_the_recordings_gauges_merged_with_the_derived_snapshot() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let metrics = dir.join("merged-metrics.json");
    let trace = dir.join("merged-trace.json");
    let (metrics, trace) = (metrics.to_str().unwrap(), trace.to_str().unwrap());
    trace_dump(&[
        "record",
        "hashtable2",
        "--mode",
        "multigrain",
        "--metrics",
        metrics,
        "--out",
        trace,
    ]);
    let merged = std::fs::read_to_string(metrics).expect("the snapshot was written");
    let merged = parse(&merged, 5).expect("a canonical snapshot");
    let derived = parse(&trace_dump(&["metrics", trace]), 5).expect("a canonical snapshot");

    let derived_series = series(&derived);
    assert!(derived_series.len() > 40, "{} series", derived_series.len());
    for s in &derived_series {
        assert!(
            series(&merged).contains(s),
            "derived series {s:?} is not in the merged snapshot"
        );
    }
    // What only the live machine knew rides along, and nothing else.
    assert!(gauge(&merged, "ali_run_heap_used") > 0);
    assert!(gauge(&merged, "ali_run_sim_yield_points") > 0);
    let extra: Vec<&[Value]> = series(&merged)
        .into_iter()
        .filter(|s| !derived_series.contains(s))
        .collect();
    assert!(
        extra
            .iter()
            .all(|s| s[0].as_str("name").unwrap().starts_with("ali_run_")),
        "{extra:?}"
    );
    assert_eq!(extra.len(), 6, "{extra:?}");
}
