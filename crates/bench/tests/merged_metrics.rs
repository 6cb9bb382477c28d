//! `trace-dump record --metrics` writes one snapshot: everything
//! `trace-dump metrics` derives from the trace just recorded, plus the
//! end-of-run gauges only the live machine knew.

use std::path::Path;
use std::process::Command;

fn trace_dump(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
        .args(args)
        .output()
        .expect("trace-dump runs");
    assert!(out.status.success(), "trace-dump {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Every `["ali_…", [labels], value…]` series of a canonical snapshot,
/// as the bytes it was written with.
fn series(json: &str) -> Vec<&str> {
    json.match_indices("[\"ali_")
        .map(|(start, _)| {
            let mut depth = 0usize;
            for (i, c) in json[start..].char_indices() {
                match c {
                    '[' => depth += 1,
                    ']' if depth == 1 => return &json[start..=start + i],
                    ']' => depth -= 1,
                    _ => {}
                }
            }
            panic!("unbalanced series at byte {start}");
        })
        .collect()
}

fn gauge(json: &str, name: &str) -> u64 {
    let key = format!("[\"{name}\",[],");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a gauge value")
}

#[test]
fn record_metrics_is_the_registry_merged_with_the_derived_snapshot() {
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
    let derived = trace_dump(&["metrics", trace]);

    let derived_series = series(&derived);
    assert!(derived_series.len() > 40, "{} series", derived_series.len());
    for s in &derived_series {
        assert!(
            merged.contains(s),
            "derived series {s} is not in the merged snapshot"
        );
    }
    // What only the live machine knew rides along, and nothing else.
    assert!(gauge(&merged, "ali_run_mg_batches") > 0);
    assert!(gauge(&merged, "ali_run_sim_yield_points") > 0);
    let extra: Vec<&str> = series(&merged)
        .into_iter()
        .filter(|s| !derived_series.contains(s))
        .collect();
    assert!(
        extra.iter().all(|s| s.starts_with("[\"ali_run_")),
        "{extra:?}"
    );
    assert_eq!(extra.len(), 13, "{extra:?}");
}
