//! The `BENCH_*.json` throughput dumps: where the benches write them, the
//! host fields every row shares, and [`DUMPS`], the one schema table that
//! `check_bench_json` interprets and that renders its `--help` and the
//! "Dump schemas" section of `crates/bench/README.md`.

use std::path::PathBuf;

use serde::{Deserialize, Value};
use Check::{Finite, Fraction, Mode, NonNeg, OneOf, Percent, Positive, Str};
use Select::{Every, Has, Kind, Other};

/// Where a throughput bench dumps its JSON measurements: full-budget runs
/// write the committed `BENCH_<name>.json` trajectory file at the workspace
/// root, while `--smoke` runs write a gitignored `BENCH_<name>.smoke.json`
/// sibling so short-budget CI numbers never overwrite the committed
/// full-budget files.  CI's "Validate bench JSON dumps" step checks both.
///
/// The root is found at run time: cargo sets `CARGO_MANIFEST_DIR` for
/// `run`, `test` and `bench`, so a copied checkout reads and writes its own
/// dumps even when it reuses a `target/` built elsewhere.  Outside cargo the
/// compile-time value is the fallback.
pub fn dump_path(name: &str, smoke: bool) -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let suffix = if smoke { ".smoke.json" } else { ".json" };
    manifest.join(format!("../../BENCH_{name}{suffix}"))
}

/// Writes a throughput bench's JSON dump to [`dump_path`] and reports the
/// destination on stdout (`# wrote <path>`), the one write/report policy
/// shared by all four benches.  A failed write exits the process nonzero:
/// a bench that cannot record its numbers must not pass and leave a stale
/// committed dump behind.
pub fn write_dump(name: &str, smoke: bool, json: &str) {
    let path = dump_path(name, smoke);
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("# could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    let shown = std::fs::canonicalize(&path).unwrap_or(path);
    println!("# wrote {}", shown.display());
}

/// The fields every dump row ends with: the runner's `available_parallelism`
/// and `overhead_only`, true when the row ran more `threads` than that and so
/// records coordination overhead rather than scaling.
pub fn host_fields(threads: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let overhead_only = threads > cores;
    format!("\"available_parallelism\": {cores}, \"overhead_only\": {overhead_only}")
}

/// How a field is checked.  Every number must be finite.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    Str,
    /// One of these space-separated words.
    OneOf(&'static str),
    /// A cluster-stepping label: `serial` or `pooled-N`.
    Mode,
    Positive,
    Finite,
    NonNeg,
    Fraction,
    Percent,
}

impl Check {
    /// What the check accepts, as `--help`, the README and errors word it.
    pub fn describe(self) -> String {
        match self {
            Str => "a string".into(),
            OneOf(words) => format!("one of {}", words.replace(' ', ", ")),
            Mode => "serial or pooled-N".into(),
            Positive => "finite > 0".into(),
            Finite => "finite".into(),
            NonNeg => "finite >= 0".into(),
            Fraction => "in (0, 1]".into(),
            Percent => "in (0, 100]".into(),
        }
    }

    /// Whether a JSON value passes the check.
    pub fn admits(self, value: &Value) -> bool {
        let x = f64::from_value(value).unwrap_or(f64::NAN);
        match (self, value) {
            (Str, Value::Str(_)) => true,
            (OneOf(words), Value::Str(s)) => words.split(' ').any(|word| word == s),
            (Mode, Value::Str(s)) => {
                let pooled = s.strip_prefix("pooled-").map(str::parse::<usize>);
                s == "serial" || pooled.is_some_and(|threads| threads.is_ok())
            }
            (Str | OneOf(_) | Mode, _) => false,
            (Positive, _) => x.is_finite() && x > 0.0,
            (Finite, _) => x.is_finite(),
            (NonNeg, _) => x.is_finite() && x >= 0.0,
            (Fraction, _) => x > 0.0 && x <= 1.0,
            (Percent, _) => x > 0.0 && x <= 100.0,
        }
    }
}

/// Which rows take a shape; a row takes the first shape that selects it.
#[derive(Debug, Clone, Copy)]
pub enum Select {
    Every,
    Has(&'static str),
    /// Rows whose `kind` is this string.
    Kind(&'static str),
    /// Rows no earlier shape selects: an auxiliary probe, not a measurement.
    Other,
}

/// One kind of row: its selector, then `(check, keys)` entries applying the
/// check to each space-separated key (a key ending in `?` may be omitted).
pub type Shape = (Select, &'static [(Check, &'static str)]);

/// One dump, `BENCH_<name>.json`.  A `(what, key, prefixes)` need holds when,
/// for each space-separated prefix, some row has a string `key` starting with
/// it; otherwise the dump fails with "`<name>` dump must `<what>`".
#[derive(Debug, Clone, Copy)]
pub struct Dump {
    pub name: &'static str,
    pub needs: &'static [(&'static str, &'static str, &'static str)],
    pub shapes: &'static [Shape],
}

/// Every row of every dump also carries this field.
pub const SHARED: (Check, &str) = (Positive, "available_parallelism");

/// The schema of every throughput dump.
#[rustfmt::skip] // A table: one line per row shape.
pub const DUMPS: [Dump; 4] = [
    Dump { name: "resolver", needs: &[], shapes: &[
        (Every, &[(Str, "fleet"), (Positive, "vms_per_machine reused_vms_per_sec alloc_vms_per_sec speedup")]),
    ] },
    Dump { name: "cluster", needs: &[], shapes: &[
        (Has("mode"), &[(Mode, "mode"), (Positive, "machines vms threads epochs_per_sec speedup_vs_serial")]),
        (Other, &[(Positive, "migration_churn_per_sec")]),
    ] },
    Dump { name: "controller", needs: &[], shapes: &[
        (Has("path"), &[(Str, "path"), (Positive, "vms apps evals_per_sec speedup_vs_cold")]),
        (Has("sweep"), &[(Str, "sweep"), (Positive, "apps threads refits_per_sec speedup_vs_serial")]),
        (Other, &[(Positive, "refresh_warm_us refresh_cold_us")]),
    ] },
    Dump {
        name: "datacenter",
        needs: &[
            ("pair dense and sparse engine rows", "mode", "dense sparse"),
            ("carry a \"disabled\" fault row (idle-overhead baseline)", "scenario", "disabled"),
        ],
        shapes: &[
            (Kind("engine"), &[
                (OneOf("dense sparse sparse-pooled"), "mode"),
                (Positive, "machines vms threads epochs_per_sec vm_epochs_per_sec speedup_vs_dense"),
                (Fraction, "activity"),
            ]),
            (Kind("service"), &[
                (Str, "preset"),
                (Positive, "machines epochs_per_sec vm_epochs_per_sec vm_arrivals_per_sec peak_resident"),
            ]),
            (Kind("fault"), &[
                (OneOf("disabled light rack domain drain"), "scenario"),
                (Positive, "machines blast_radius epochs_per_sec"),
                (Percent, "availability_pct"),
                (Finite, "overhead_pct"),
                (NonNeg, "evacuation_latency_epochs crashes evacuations drain_migrations abandonments"),
            ]),
        ],
    },
];

/// The schema of the dump a file holds, by file name.
pub fn schema_for(path: &str) -> Option<&'static Dump> {
    let file = path.rsplit('/').next().unwrap_or(path);
    DUMPS.iter().find(|dump| file.contains(dump.name))
}

/// The schema reference in Markdown: `check_bench_json --help` prints it and
/// `crates/bench/README.md` holds it verbatim.
pub fn render() -> String {
    let mut out = format!(
        "Every dump is a non-empty JSON array of objects with at least one \
         measurement row; a key marked `?` may be omitted.  Every row carries \
         {}, and `\"overhead_only\": true` if its `threads` exceeds that.\n",
        render_fields(&[SHARED])
    );
    for dump in &DUMPS {
        out += &format!("\n### BENCH_{}.json\n\n", dump.name);
        for (select, fields) in dump.shapes {
            let rows = match select {
                Every => "Every row".to_string(),
                Has(key) => format!("Rows with `{key}`"),
                Kind(kind) => format!("Rows with `\"kind\": \"{kind}\"`"),
                Other => "Any other row (a probe)".to_string(),
            };
            out += &format!("* {rows}: {}.\n", render_fields(fields));
        }
        for (what, _, _) in dump.needs {
            out += &format!("* The dump must {what}.\n");
        }
    }
    out
}

fn render_fields(fields: &[(Check, &str)]) -> String {
    let render = |(check, keys): &(Check, &str)| {
        format!("`{}` ({})", keys.replace(' ', "`, `"), check.describe())
    };
    fields.iter().map(render).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEGIN: &str = "<!-- schema: begin (rendered from src/dump.rs) -->";
    const END: &str = "<!-- schema: end -->";

    #[test]
    fn readme_dump_schemas_match_the_table() {
        let readme = include_str!("../README.md");
        let block = readme
            .split_once(BEGIN)
            .and_then(|(_, rest)| rest.split_once(END))
            .map(|(block, _)| block.trim());
        let expected = render();
        assert!(
            block == Some(expected.trim()),
            "crates/bench/README.md has drifted from the schema table in \
             src/dump.rs; put this between its {BEGIN} and {END} markers:\n\n{expected}"
        );
    }
}
