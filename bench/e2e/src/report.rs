//! What the driver prints and writes: the table, `out/result.json`, the
//! benchmark driver's result line, and the run-to-run spread report.
//! Also the `--check` self-tests of `BENCHMARK.json` and the manifests.

use crate::json::Json;
use crate::layers::{per_layer, MetricDef, ATTRIBUTION, END_TO_END};
use crate::stats::{iqr_share, median, range_share};
use crate::workloads::{Shape, Spec, SPECS};
use crate::ChildOutput;
use gmt_metrics::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The parts of `BENCHMARK.json` the benchmark itself reads.
pub struct Benchmark {
    pub run_seconds: f64,
    doc: Value,
}

fn names_of(doc: &Value, key: &str) -> Result<Vec<(String, Value)>, String> {
    let list = doc.get(key).and_then(Value::as_array).ok_or(format!("BENCHMARK.json: no {key}"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or(format!("{key}: no name"))?;
            Ok((name.to_string(), m.clone()))
        })
        .collect()
}

impl Benchmark {
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        Ok(Benchmark { run_seconds, doc })
    }

    /// The regression bound of an end-to-end metric.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        let (_, m) =
            names_of(&self.doc, "end_to_end").ok()?.into_iter().find(|(n, _)| n == metric)?;
        m.get("bound")?.as_f64()
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// binary produces, with the same units and directions.
    pub fn check_against_catalogue(&self) -> Result<(), String> {
        let workloads: Vec<String> =
            names_of(&self.doc, "workloads")?.into_iter().map(|(n, _)| n).collect();
        let expected: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        if workloads != expected {
            return Err(format!("BENCHMARK.json workloads {workloads:?} are not {expected:?}"));
        }
        for (key, defs) in [
            ("end_to_end", END_TO_END.iter().collect::<Vec<&MetricDef>>()),
            ("per_layer", per_layer().collect()),
        ] {
            let listed = names_of(&self.doc, key)?;
            if listed.len() != defs.len() {
                return Err(format!(
                    "BENCHMARK.json {key}: {} metrics, the binary has {}",
                    listed.len(),
                    defs.len()
                ));
            }
            for ((name, m), def) in listed.iter().zip(defs) {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
                if name != def.name
                    || field("unit") != def.unit
                    || field("better") != def.better.name()
                {
                    return Err(format!(
                        "BENCHMARK.json {key}: {name} [{} / {}] is not {} [{} / {}]",
                        field("unit"),
                        field("better"),
                        def.name,
                        def.unit,
                        def.better.name()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// The benchmark must never measure a differently optimised runtime:
/// its `[profile.release]` has to equal the root manifest's.
pub fn check_manifests(root: &Path) -> Result<(), String> {
    let read = |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("reading {p:?}: {e}"));
    let ours = release_profile(&read(root.join("bench/e2e/Cargo.toml"))?);
    let roots = release_profile(&read(root.join("Cargo.toml"))?);
    if ours.is_empty() || ours != roots {
        return Err(format!(
            "[profile.release] differs: bench/e2e/Cargo.toml has {ours:?}, the root manifest {roots:?}"
        ));
    }
    Ok(())
}

/// What the two passes over one workload produced.
pub struct WorkloadResult {
    pub spec: &'static Spec,
    untraced: Option<Result<ChildOutput, String>>,
    traced: Option<Result<ChildOutput, String>>,
}

fn field_u64(pass: &Option<Result<ChildOutput, String>>, key: &str) -> u64 {
    match pass {
        Some(Ok(out)) => out.report.get(key).and_then(Value::as_u64).unwrap_or(0),
        _ => 0,
    }
}

impl WorkloadResult {
    pub fn new(spec: &'static Spec) -> Self {
        WorkloadResult { spec, untraced: None, traced: None }
    }

    pub fn absorb(&mut self, trace: bool, outcome: Result<ChildOutput, String>) {
        if let Err(e) = &outcome {
            eprintln!("[gmt-e2e] {e}");
        }
        *(if trace { &mut self.traced } else { &mut self.untraced }) = Some(outcome);
    }

    pub fn completed(&self, trace: bool) -> bool {
        matches!(if trace { &self.traced } else { &self.untraced }, Some(Ok(_)))
    }

    fn passes(&self) -> impl Iterator<Item = &Result<ChildOutput, String>> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Ops a pass that crashed or timed out is charged with: it never
    /// said how far it got, so one round's worth, all failed.
    fn lost_ops(&self) -> u64 {
        let per_round = match self.spec.shape {
            Shape::PutGet { ops, .. } | Shape::ScatterAdd { ops, .. } => ops,
            Shape::Chase { hops, .. } => hops,
            Shape::Bfs { vertices, degree } => vertices * degree,
        };
        per_round * self.passes().filter(|p| p.is_err()).count() as u64
    }

    pub fn attempted(&self) -> u64 {
        field_u64(&self.untraced, "attempted")
            + field_u64(&self.traced, "attempted")
            + self.lost_ops()
    }

    pub fn failed(&self) -> u64 {
        field_u64(&self.untraced, "failed") + field_u64(&self.traced, "failed") + self.lost_ops()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.passes().all(Result::is_ok)
    }

    fn section(pass: &Option<Result<ChildOutput, String>>, key: &str) -> Option<Value> {
        match pass {
            Some(Ok(out)) => out.report.get(key).cloned(),
            _ => None,
        }
    }

    /// End-to-end metrics by name: from the untraced pass, or — when only
    /// the traced pass ran — from its untraced half. `None` is absent.
    fn end_to_end(&self) -> BTreeMap<&'static str, Option<f64>> {
        let section = Self::section(&self.untraced, "end_to_end")
            .or_else(|| Self::section(&self.traced, "end_to_end"));
        END_TO_END
            .iter()
            .map(|m| (m.name, section.as_ref().and_then(|s| s.get(m.name)).and_then(Value::as_f64)))
            .collect()
    }

    /// Group-A metrics by name; `None` is absent.
    fn attribution(&self) -> BTreeMap<&'static str, Option<f64>> {
        let per_layer = Self::section(&self.traced, "per_layer");
        let stuck: u64 = self.passes().flatten().map(|o| o.stuck_warnings).sum();
        ATTRIBUTION
            .iter()
            .map(|m| {
                let v = match m.name {
                    "driver.stuck_warnings" => Some(stuck as f64),
                    name => per_layer.as_ref().and_then(|p| p.get(name)).and_then(Value::as_f64),
                };
                (m.name, v)
            })
            .collect()
    }
}

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// CPUs the driver was allowed before it pinned itself.
    pub cpus_allowed: Vec<usize>,
    /// Of the host, before pinning; a result that depends on threads says
    /// how many the host had.
    pub hardware_threads: u64,
    pub results: Vec<WorkloadResult>,
    /// The ceilings child's report, when a traced pass ran.
    pub ceilings: Option<Value>,
}

fn metric_json(def: &MetricDef, v: Option<f64>) -> (&'static str, Json) {
    (def.name, Json::obj([("value", Json::opt(v)), ("unit", Json::str(def.unit))]))
}

impl Run {
    pub fn correct(&self) -> bool {
        self.results.iter().all(WorkloadResult::correct)
    }

    fn ceiling(&self, name: &str) -> Option<f64> {
        self.ceilings.as_ref()?.get("ceilings")?.get(name)?.as_f64()
    }

    fn built_without_internal_ceilings(&self) -> bool {
        let built_with = self.ceilings.as_ref().and_then(|c| c.get("internal_ceilings"));
        matches!(built_with, Some(Value::Bool(false)))
    }

    fn ceiling_defs() -> impl Iterator<Item = &'static MetricDef> {
        per_layer().skip(ATTRIBUTION.len())
    }

    /// `workload metric value unit`, one metric per line.
    pub fn print_table(&self) {
        let row = |workload: &str, def: &MetricDef, v: Option<f64>| match v {
            Some(v) => println!("{workload:<20} {:<40} {v:>16.4} {}", def.name, def.unit),
            None => println!("{workload:<20} {:<40} {:>16} {}", def.name, "null", def.unit),
        };
        for r in &self.results {
            let name = r.spec.name;
            let e2e = r.end_to_end();
            for def in &END_TO_END {
                row(name, def, e2e[def.name]);
            }
            let share = r.failed() as f64 / r.attempted().max(1) as f64;
            println!("{name:<20} {:<40} {share:>16.4} ratio", "failed_ops_share");
            if r.traced.is_some() {
                let attribution = r.attribution();
                for def in &ATTRIBUTION {
                    row(name, def, attribution[def.name]);
                }
            }
            for pass in [&r.untraced, &r.traced] {
                if let Some(info) = WorkloadResult::section(pass, "info") {
                    println!("{name:<20} info {}", Json::from(&info));
                }
            }
        }
        if self.ceilings.is_some() {
            for def in Self::ceiling_defs() {
                row("ceilings", def, self.ceiling(def.name));
            }
            if self.built_without_internal_ceilings() {
                println!("ceilings             tier-I ceilings are null: api moved (built without internal-ceilings)");
            }
        }
    }

    /// The result line the benchmark driver reads: `--trace 0` carries
    /// every end-to-end metric, `--trace 1` every per-layer metric. The
    /// line has no place for an absent value, so absent reads 0 there;
    /// `result.json` and the table say `null`.
    pub fn driver_line(&self, trace: bool) -> Json {
        let r = &self.results[0];
        let metrics: Vec<(&str, Json)> = if trace {
            let attribution = r.attribution();
            ATTRIBUTION
                .iter()
                .map(|def| metric_json(def, Some(attribution[def.name].unwrap_or(0.0))))
                .chain(
                    Self::ceiling_defs()
                        .map(|def| metric_json(def, Some(self.ceiling(def.name).unwrap_or(0.0)))),
                )
                .collect()
        } else {
            let e2e = r.end_to_end();
            END_TO_END.iter().map(|def| metric_json(def, e2e[def.name])).collect()
        };
        Json::obj([
            ("correct", Json::Bool(r.correct())),
            ("attempted", Json::from(r.attempted().max(1))),
            ("failed", Json::from(r.failed())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything, for `out/result.json`.
    pub fn to_json(&self) -> Json {
        let workloads = self.results.iter().map(|r| {
            let e2e = r.end_to_end();
            let attribution = r.attribution();
            let mut fields = vec![
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::from(r.attempted())),
                ("failed", Json::from(r.failed())),
                ("why", Json::str(r.spec.why)),
                (
                    "end_to_end",
                    Json::obj(END_TO_END.iter().map(|def| metric_json(def, e2e[def.name]))),
                ),
                (
                    "per_layer",
                    Json::obj(
                        ATTRIBUTION.iter().map(|def| metric_json(def, attribution[def.name])),
                    ),
                ),
            ];
            for (key, pass) in [("info", &r.untraced), ("traced_info", &r.traced)] {
                if let Some(info) = WorkloadResult::section(pass, "info") {
                    fields.push((key, Json::from(&info)));
                }
            }
            (r.spec.name, Json::obj(fields))
        });
        let ceilings = Self::ceiling_defs().map(|def| {
            let v = self.ceiling(def.name);
            let mut fields = vec![("value", Json::opt(v)), ("unit", Json::str(def.unit))];
            if v.is_none() && self.built_without_internal_ceilings() {
                fields.push(("reason", Json::str("api moved")));
            }
            (def.name, Json::obj(fields))
        });
        Json::obj([
            ("benchmark", Json::str("gmt-e2e")),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            (
                "cpus_allowed",
                Json::Arr(self.cpus_allowed.iter().map(|&c| Json::from(c as u64)).collect()),
            ),
            ("hardware_threads", Json::from(self.hardware_threads)),
            ("correct", Json::Bool(self.correct())),
            ("workloads", Json::obj(workloads)),
            ("ceilings", Json::obj(ceilings)),
        ])
    }
}

/// `workload -> section -> metric -> value` of one `result.json`.
fn metric_values(doc: &Value, section: &str) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    let Some(Value::Obj(workloads)) = doc.get("workloads") else { return out };
    for (workload, w) in workloads {
        let Some(Value::Obj(metrics)) = w.get(section) else { continue };
        for (metric, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.insert((workload.clone(), metric.clone()), v);
            }
        }
    }
    out
}

/// Compares `result.json` files of repeated runs: every end-to-end
/// metric's spread against its bound, and which per-layer metrics
/// repeated exactly. Returns whether every spread is within its bound.
pub fn spread(benchmark: &Benchmark, files: &[PathBuf]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err("spread needs at least two result files".to_string());
    }
    let docs: Vec<Value> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("reading {f:?}: {e}"))?;
            parse(&text).map_err(|e| format!("{f:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut within = true;
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let per_run: Vec<_> = docs.iter().map(|d| metric_values(d, section)).collect();
        println!(
            "# {section}: workload metric median (max-min)/median iqr/median{}",
            if bounded { " bound verdict" } else { "" }
        );
        for key in per_run[0].keys() {
            let values: Vec<f64> = per_run.iter().filter_map(|r| r.get(key).copied()).collect();
            if values.len() != docs.len() {
                continue;
            }
            let (workload, metric) = key;
            let mid = median(&values);
            let exact = values.iter().all(|&v| v == values[0]);
            let range = if mid == 0.0 { 0.0 } else { range_share(&values) };
            // Quartiles of fewer than four values are extrapolated.
            let iqr = match values.len() {
                n if n >= 4 && mid != 0.0 => format!("{:>8.4}", iqr_share(&values)),
                _ => format!("{:>8}", "-"),
            };
            if bounded {
                let bound = benchmark.bound(metric).ok_or(format!("no bound for {metric}"))?;
                let ok = metric == "setup_s" || range <= bound;
                within &= ok;
                let verdict = if ok { "ok" } else { "EXCEEDS" };
                println!("{workload:<20} {metric:<32} {mid:>14.4} {range:>8.4} {iqr} {bound:>6.2} {verdict}");
            } else if exact {
                println!("{workload:<20} {metric:<32} {mid:>14.4} repeats exactly");
            } else {
                println!("{workload:<20} {metric:<32} {mid:>14.4} {range:>8.4} {iqr}");
            }
        }
    }
    let all_correct = docs.iter().all(|d| matches!(d.get("correct"), Some(Value::Bool(true))));
    if !all_correct {
        println!("# at least one run was not correct");
    }
    Ok(within && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profiles_compare_by_content() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = \"line-tables-only\"\nlto   =  \"thin\"\n\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\nlto = \"thin\"\ndebug = \"line-tables-only\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 2);
        assert_ne!(release_profile(a), release_profile("[profile.release]\nlto = \"fat\"\n"));
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn result_files_flatten_to_metric_values() {
        let doc = parse(
            r#"{"workloads": {"chase_tcp": {"end_to_end": {"ops_per_s": {"value": 3.5, "unit": "1/s"},
                "lat_p50_us": {"value": null, "unit": "us"}}}}}"#,
        )
        .unwrap();
        let values = metric_values(&doc, "end_to_end");
        assert_eq!(values.len(), 1);
        assert_eq!(values[&("chase_tcp".to_string(), "ops_per_s".to_string())], 3.5);
        assert!(metric_values(&doc, "per_layer").is_empty());
    }
}
