//! Validates `BENCH_*.json` throughput dumps, a short interpreter of the
//! schema table in `bench::dump`.  CI runs it over the fresh `--smoke` dumps
//! and the committed files, so a malformed or stale dump fails CI instead of
//! corrupting the cross-PR trajectory.  Exits nonzero listing every violation.

use bench::dump::{dump_path, render, schema_for, Check, Dump, Select, DUMPS, SHARED};
use serde::{Deserialize, Value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let usage = "Usage: cargo run -p bench --bin check_bench_json [FILES...]";
        return println!("{usage}\n(default: the committed dumps)\n\n{}", render());
    }
    let files: Vec<String> = match args.is_empty() {
        true => DUMPS
            .iter()
            .map(|dump| dump_path(dump.name, false).display().to_string())
            .collect(),
        false => args,
    };
    let mut failures = 0usize;
    for file in &files {
        let errors = check_file(file);
        failures += errors.len();
        match errors.is_empty() {
            true => println!("OK   {file}"),
            false => eprintln!("FAIL {file}\n  - {}", errors.join("\n  - ")),
        }
    }
    if failures > 0 {
        eprintln!("{failures} violation(s) across {} file(s)", files.len());
        std::process::exit(1);
    }
}

/// Reads, parses and validates one dump; returns every violation found.
fn check_file(path: &str) -> Vec<String> {
    let Some(dump) = schema_for(path) else {
        return vec!["unknown dump (expected BENCH_<name> for a name in the table)".into()];
    };
    match std::fs::read_to_string(path) {
        Err(e) => vec![format!("cannot read: {e}")],
        Ok(text) => match serde_json::from_str(&text) {
            Ok(doc) => validate(&doc, dump),
            Err(e) => vec![format!("invalid JSON: {e}")],
        },
    }
}

/// Validates a parsed dump against its schema.
fn validate(doc: &Value, dump: &Dump) -> Vec<String> {
    let rows = match doc.as_array() {
        Ok([]) => return vec!["document is an empty array".to_string()],
        Ok(rows) => rows,
        Err(_) => return vec![format!("document is {}, expected an array", doc.kind())],
    };
    let mut errors = Vec::new();
    let mut measurement_rows = 0usize;
    for (i, row) in rows.iter().enumerate() {
        if row.as_object().is_err() {
            errors.push(format!("row {i}: is {}, expected an object", row.kind()));
            continue;
        }
        let kind = row.get("kind");
        let shape = dump.shapes.iter().find(|(select, _)| match select {
            Select::Every | Select::Other => true,
            Select::Has(key) => row.get(key).is_some(),
            Select::Kind(name) => matches!(kind, Some(Value::Str(k)) if k == name),
        });
        let Some((select, fields)) = shape else {
            let kind = kind.and_then(|k| serde_json::to_string(k).ok());
            let kind = kind.unwrap_or_else(|| "(missing)".into());
            errors.push(format!("row {i}: unknown \"kind\" {kind}"));
            continue;
        };
        measurement_rows += usize::from(!matches!(select, Select::Other));
        // An out-of-set label names the row kind it failed in.
        let noun = match select {
            Select::Kind(name) => name,
            _ => dump.name,
        };
        for &(check, keys) in fields.iter().chain([&SHARED]) {
            for key in keys.split(' ') {
                let (key, optional) = key.strip_suffix('?').map_or((key, false), |k| (k, true));
                let error = field_error(row.get(key), check, noun, key);
                if let Some(error) = error.filter(|_| !optional || row.get(key).is_some()) {
                    errors.push(format!("row {i}: {error}"));
                }
            }
        }
        // A row measured with more threads than the runner has cores records
        // coordination overhead, and must say so.
        let number = |key| row.get(key).and_then(|v| f64::from_value(v).ok());
        let threads = number("threads").unwrap_or(1.0);
        let flagged = row.get("overhead_only") == Some(&Value::Bool(true));
        if let Some(cores) = number("available_parallelism").filter(|&c| threads > c && !flagged) {
            errors.push(format!(
                "row {i}: threads {threads} > available_parallelism {cores} \
                 requires \"overhead_only\": true"
            ));
        }
    }
    if measurement_rows == 0 {
        errors.push("no measurement rows found".to_string());
    }
    for (what, key, prefixes) in dump.needs {
        let seen = |prefix| {
            let has =
                |row: &Value| matches!(row.get(key), Some(Value::Str(s)) if s.starts_with(prefix));
            rows.iter().any(has)
        };
        if !prefixes.split(' ').all(seen) {
            errors.push(format!("{} dump must {what}", dump.name));
        }
    }
    errors
}

/// The violation of `check` by the value at `key`, if any.
fn field_error(value: Option<&Value>, check: Check, noun: &str, key: &str) -> Option<String> {
    let expected = check.describe();
    match value {
        None => Some(format!("missing \"{key}\" ({expected})")),
        Some(value) if check.admits(value) => None,
        Some(Value::Str(s)) if matches!(check, Check::OneOf(_) | Check::Mode) => Some(format!(
            "unknown {noun} \"{key}\" {s:?} (expected {expected})"
        )),
        Some(value) => {
            let got = serde_json::to_string(value).unwrap_or_default();
            Some(format!("\"{key}\" must be {expected}, got {got}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON parses")
    }

    fn schema(name: &str) -> &'static Dump {
        schema_for(name).expect("a dump in the table")
    }

    #[test]
    fn well_formed_dumps_pass() {
        let resolver = parse(
            r#"[{"fleet": "xeon", "vms_per_machine": 4, "reused_vms_per_sec": 1.1e7,
                 "alloc_vms_per_sec": 6.0e6, "speedup": 1.96, "available_parallelism": 4}]"#,
        );
        assert!(validate(&resolver, schema("resolver")).is_empty());

        let cluster = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "epochs_per_sec": 19248.1, "speedup_vs_serial": 1.0, "available_parallelism": 4},
                {"migration_churn_per_sec": 8842165, "available_parallelism": 4}]"#,
        );
        assert!(validate(&cluster, schema("cluster")).is_empty());

        let controller = parse(
            r#"[{"vms": 256, "apps": 8, "path": "generation_warm", "evals_per_sec": 253233,
                 "speedup_vs_cold": 7.59, "available_parallelism": 4},
                {"refresh_warm_us": 1119.3, "refresh_cold_us": 6660.6, "seed_history": 200,
                 "available_parallelism": 4}]"#,
        );
        assert!(validate(&controller, schema("controller")).is_empty());
    }

    #[test]
    fn pooled_and_sweep_rows_validate_against_their_schemas() {
        let cluster = parse(
            r#"[{"machines": 256, "vms": 1024, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 310.0, "speedup_vs_serial": 2.4, "available_parallelism": 4,
                 "overhead_only": false}]"#,
        );
        assert!(validate(&cluster, schema("cluster")).is_empty());

        let controller = parse(
            r#"[{"vms": 256, "apps": 8, "path": "generation_warm", "evals_per_sec": 253233,
                 "speedup_vs_cold": 7.59, "available_parallelism": 4},
                {"apps": 16, "sweep": "pooled-4", "threads": 4, "refits_per_sec": 1200.0,
                 "speedup_vs_serial": 2.1, "available_parallelism": 4}]"#,
        );
        assert!(validate(&controller, schema("controller")).is_empty());

        let broken_sweep = parse(
            r#"[{"apps": 16, "sweep": "pooled-4", "threads": 4,
                 "speedup_vs_serial": 2.1, "available_parallelism": 4}]"#,
        );
        let errors = validate(&broken_sweep, schema("controller"));
        assert!(
            errors.iter().any(|e| e.contains("refits_per_sec")),
            "{errors:?}"
        );
    }

    #[test]
    fn cluster_modes_outside_serial_and_pooled_fail() {
        for mode in ["sharded-4", "pooled-4-batch8", "pooled-", "warp"] {
            let row = parse(&format!(
                r#"[{{"machines": 64, "vms": 256, "mode": "{mode}", "threads": 4,
                     "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9,
                     "available_parallelism": 4}}]"#
            ));
            let errors = validate(&row, schema("cluster"));
            assert!(
                errors
                    .iter()
                    .any(|e| e.contains("unknown cluster \"mode\"")),
                "{mode}: {errors:?}"
            );
        }
    }

    #[test]
    fn single_core_multi_thread_rows_must_be_flagged_overhead_only() {
        let unflagged = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9, "available_parallelism": 1}]"#,
        );
        let errors = validate(&unflagged, schema("cluster"));
        assert!(
            errors.iter().any(|e| e.contains("overhead_only")),
            "{errors:?}"
        );

        // `"overhead_only": false` is a contradiction, not a flag.
        let denied = parse(
            r#"[{"apps": 16, "sweep": "pooled-4", "threads": 4, "refits_per_sec": 900.0,
                 "speedup_vs_serial": 0.8, "available_parallelism": 1, "overhead_only": false}]"#,
        );
        let errors = validate(&denied, schema("controller"));
        assert!(
            errors.iter().any(|e| e.contains("overhead_only")),
            "{errors:?}"
        );

        // Flagged rows pass; single-threaded and multi-core rows need no flag.
        let fine = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9, "available_parallelism": 1,
                 "overhead_only": true},
                {"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "epochs_per_sec": 330.0, "speedup_vs_serial": 1.0, "available_parallelism": 1}]"#,
        );
        assert!(validate(&fine, schema("cluster")).is_empty());
    }

    #[test]
    fn rows_with_more_threads_than_cores_must_be_flagged_overhead_only() {
        let unflagged = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-4", "threads": 4,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 0.9, "available_parallelism": 2}]"#,
        );
        let errors = validate(&unflagged, schema("cluster"));
        assert!(
            errors.iter().any(|e| e.contains("overhead_only")),
            "{errors:?}"
        );

        // As many threads as cores is a scaling measurement and needs no flag.
        let matched = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "pooled-2", "threads": 2,
                 "epochs_per_sec": 300.0, "speedup_vs_serial": 1.4, "available_parallelism": 2}]"#,
        );
        assert!(validate(&matched, schema("cluster")).is_empty());
    }

    #[test]
    fn empty_and_non_array_documents_fail() {
        assert!(!validate(&parse("[]"), schema("resolver")).is_empty());
        assert!(!validate(&parse(r#"{"fleet": "xeon"}"#), schema("resolver")).is_empty());
    }

    #[test]
    fn zero_and_missing_rates_fail() {
        let zero_rate = parse(
            r#"[{"fleet": "xeon", "vms_per_machine": 4, "reused_vms_per_sec": 0,
                 "alloc_vms_per_sec": 6.0e6, "speedup": 1.96, "available_parallelism": 4}]"#,
        );
        let errors = validate(&zero_rate, schema("resolver"));
        assert!(
            errors.iter().any(|e| e.contains("reused_vms_per_sec")),
            "{errors:?}"
        );

        let missing_key = parse(
            r#"[{"machines": 64, "vms": 256, "mode": "serial", "threads": 1,
                 "speedup_vs_serial": 1.0, "available_parallelism": 4}]"#,
        );
        let errors = validate(&missing_key, schema("cluster"));
        assert!(
            errors.iter().any(|e| e.contains("epochs_per_sec")),
            "{errors:?}"
        );
    }

    #[test]
    fn missing_available_parallelism_fails() {
        let doc = parse(
            r#"[{"vms": 256, "apps": 8, "path": "warm", "evals_per_sec": 1000.0,
                 "speedup_vs_cold": 2.0}]"#,
        );
        let errors = validate(&doc, schema("controller"));
        assert!(
            errors.iter().any(|e| e.contains("available_parallelism")),
            "{errors:?}"
        );
    }

    #[test]
    fn dumps_of_only_auxiliary_rows_fail() {
        let doc = parse(r#"[{"migration_churn_per_sec": 100.0, "available_parallelism": 1}]"#);
        let errors = validate(&doc, schema("cluster"));
        assert!(
            errors.iter().any(|e| e.contains("no measurement rows")),
            "{errors:?}"
        );
    }

    #[test]
    fn schema_dispatch_follows_the_file_name() {
        let name = |path| schema_for(path).map(|dump| dump.name);
        assert_eq!(name("BENCH_resolver.json"), Some("resolver"));
        assert_eq!(name("/a/b/BENCH_cluster.json"), Some("cluster"));
        assert_eq!(name("BENCH_controller.json"), Some("controller"));
        assert_eq!(name("BENCH_datacenter.smoke.json"), Some("datacenter"));
        assert_eq!(name("BENCH_other.json"), None);
    }

    #[test]
    fn datacenter_engine_and_service_rows_validate() {
        let good = parse(
            r#"[{"kind": "engine", "machines": 10000, "vms": 40000, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 69.6,
                 "vm_epochs_per_sec": 2785855, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1, "overhead_only": false},
                {"kind": "engine", "machines": 10000, "vms": 40000, "mode": "sparse",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 519.3,
                 "vm_epochs_per_sec": 20772000, "speedup_vs_dense": 7.46,
                 "available_parallelism": 1, "overhead_only": false},
                {"kind": "service", "preset": "hotmail", "machines": 10000,
                 "epochs_per_sec": 714.4, "vm_epochs_per_sec": 2887214,
                 "vm_arrivals_per_sec": 5455.6, "peak_resident": 8041,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "disabled", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1200.0, "overhead_pct": 0.31,
                 "availability_pct": 100.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        assert!(validate(&good, schema("datacenter")).is_empty());
    }

    #[test]
    fn datacenter_dump_without_the_disabled_fault_row_fails() {
        // Engine pair present, light-chaos fault row present — but the
        // idle-overhead baseline is missing.
        let no_disabled = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1},
                {"kind": "engine", "machines": 100, "vms": 400, "mode": "sparse",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 80.0,
                 "vm_epochs_per_sec": 32000.0, "speedup_vs_dense": 8.0,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 9.0, "overhead_pct": 11.1,
                 "availability_pct": 96.8, "evacuation_latency_epochs": 1.5,
                 "crashes": 12, "evacuations": 30, "drain_migrations": 0,
                 "abandonments": 2, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_disabled, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("\"disabled\" fault row")),
            "{errors:?}"
        );
    }

    #[test]
    fn datacenter_fault_rows_validate() {
        // A disabled-plane idle-overhead row (100% availability, zero
        // counters, slightly negative overhead = noise) plus the full
        // blast-radius sweep (light / rack / domain) and the graceful
        // drain row all pass.
        let good = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1},
                {"kind": "engine", "machines": 100, "vms": 400, "mode": "sparse",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 80.0,
                 "vm_epochs_per_sec": 32000.0, "speedup_vs_dense": 8.0,
                 "available_parallelism": 1},
                {"kind": "fault", "scenario": "disabled", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1200.0, "overhead_pct": -0.42,
                 "availability_pct": 100.000, "evacuation_latency_epochs": 0.00,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1},
                {"kind": "fault", "scenario": "light", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1100.0, "overhead_pct": 3.80,
                 "availability_pct": 96.751, "evacuation_latency_epochs": 2.10,
                 "crashes": 7900, "evacuations": 3100, "drain_migrations": 0,
                 "abandonments": 41, "available_parallelism": 1},
                {"kind": "fault", "scenario": "rack", "machines": 2000,
                 "blast_radius": 40, "epochs_per_sec": 1050.0, "overhead_pct": 5.1,
                 "availability_pct": 93.2, "evacuation_latency_epochs": 3.4,
                 "crashes": 9100, "evacuations": 4100, "drain_migrations": 0,
                 "abandonments": 230, "available_parallelism": 1},
                {"kind": "fault", "scenario": "domain", "machines": 2000,
                 "blast_radius": 320, "epochs_per_sec": 980.0, "overhead_pct": 7.7,
                 "availability_pct": 88.0, "evacuation_latency_epochs": 4.9,
                 "crashes": 21000, "evacuations": 5200, "drain_migrations": 0,
                 "abandonments": 1900, "available_parallelism": 1},
                {"kind": "fault", "scenario": "drain", "machines": 2000,
                 "blast_radius": 1, "epochs_per_sec": 1150.0, "overhead_pct": 2.2,
                 "availability_pct": 97.4, "evacuation_latency_epochs": 0.8,
                 "crashes": 0, "evacuations": 120, "drain_migrations": 6400,
                 "abandonments": 3, "available_parallelism": 1}]"#,
        );
        assert!(validate(&good, schema("datacenter")).is_empty());
    }

    #[test]
    fn datacenter_fault_rows_with_bad_fields_fail() {
        let over_100 = parse(
            r#"[{"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 104.2, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&over_100, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("availability_pct")),
            "{errors:?}"
        );

        let negative_latency = parse(
            r#"[{"kind": "fault", "scenario": "light", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": -3.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&negative_latency, schema("datacenter"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("evacuation_latency_epochs")),
            "{errors:?}"
        );

        let missing_overhead = parse(
            r#"[{"kind": "fault", "scenario": "disabled", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "availability_pct": 100.0,
                 "evacuation_latency_epochs": 0.0, "crashes": 0,
                 "evacuations": 0, "drain_migrations": 0, "abandonments": 0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&missing_overhead, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("overhead_pct")),
            "{errors:?}"
        );

        let no_scenario = parse(
            r#"[{"kind": "fault", "machines": 100, "blast_radius": 1,
                 "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_scenario, schema("datacenter"));
        assert!(errors.iter().any(|e| e.contains("scenario")), "{errors:?}");

        // A scenario outside the blast-radius sweep is a typo, not data.
        let unknown_scenario = parse(
            r#"[{"kind": "fault", "scenario": "meteor", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&unknown_scenario, schema("datacenter"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("unknown fault \"scenario\"")),
            "{errors:?}"
        );

        // Blast radius is how the sweep is read; a fault row without it
        // (or with zero) is unusable.
        let no_blast_radius = parse(
            r#"[{"kind": "fault", "scenario": "rack", "machines": 100,
                 "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": 0,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&no_blast_radius, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("blast_radius")),
            "{errors:?}"
        );

        // Negative drain-migration counters are a broken dump, not calm data.
        let negative_drains = parse(
            r#"[{"kind": "fault", "scenario": "drain", "machines": 100,
                 "blast_radius": 1, "epochs_per_sec": 10.0, "overhead_pct": 1.0,
                 "availability_pct": 99.0, "evacuation_latency_epochs": 0.0,
                 "crashes": 0, "evacuations": 0, "drain_migrations": -5,
                 "abandonments": 0, "available_parallelism": 1}]"#,
        );
        let errors = validate(&negative_drains, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("drain_migrations")),
            "{errors:?}"
        );
    }

    #[test]
    fn datacenter_rows_with_bad_kind_mode_or_activity_fail() {
        let bad_kind = parse(r#"[{"kind": "mystery", "available_parallelism": 1}]"#);
        let errors = validate(&bad_kind, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("unknown \"kind\"")),
            "{errors:?}"
        );

        let bad_mode = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "warp",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&bad_mode, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("unknown engine \"mode\"")),
            "{errors:?}"
        );

        let bad_activity = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 7.5, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&bad_activity, schema("datacenter"));
        assert!(errors.iter().any(|e| e.contains("activity")), "{errors:?}");
    }

    #[test]
    fn datacenter_dump_without_a_dense_sparse_pair_fails() {
        let dense_only = parse(
            r#"[{"kind": "engine", "machines": 100, "vms": 400, "mode": "dense",
                 "activity": 0.1, "threads": 1, "epochs_per_sec": 10.0,
                 "vm_epochs_per_sec": 4000.0, "speedup_vs_dense": 1.0,
                 "available_parallelism": 1}]"#,
        );
        let errors = validate(&dense_only, schema("datacenter"));
        assert!(
            errors.iter().any(|e| e.contains("pair dense and sparse")),
            "{errors:?}"
        );
    }

    #[test]
    fn committed_dumps_at_the_workspace_root_are_valid() {
        for dump in &DUMPS {
            let file = dump_path(dump.name, false).display().to_string();
            let errors = check_file(&file);
            assert!(errors.is_empty(), "{file}: {errors:?}");
        }
    }
}
